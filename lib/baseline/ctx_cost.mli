(** Cost arithmetic for conventional mode switches and context switches.

    Pure functions over {!Switchless.Params.t}; the single place where the
    baseline's cycle charges are composed, so experiments and the
    scheduler agree on what a switch costs. *)

val save_restore_cycles : Switchless.Params.t -> out_vector:bool -> in_vector:bool -> int
(** Copying the outgoing context out and the incoming context in, at
    [ctx_bytes_per_cycle]. *)

val software_switch_cycles :
  Switchless.Params.t -> ?warmup:bool -> out_vector:bool -> in_vector:bool -> unit -> int
(** Full software context switch: fixed kernel path + register copy +
    scheduler decision (+ cache warm-up unless [warmup:false]). *)

val trap_roundtrip_cycles : Switchless.Params.t -> int
(** syscall/sysret direct cost (no kernel work, no pollution). *)

val trap_total_cycles : Switchless.Params.t -> int
(** Direct cost plus the flat pollution charge (FlexSC's indirect cost). *)

val interrupt_path_cycles : Switchless.Params.t -> int
(** IRQ entry + exit, without the handler body. *)

val vmexit_roundtrip_cycles : Switchless.Params.t -> int
