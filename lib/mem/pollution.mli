(** Cache/TLB pollution cost model.

    Combines an L1, an L2 and a TLB to answer the question the baseline
    experiments need: {e after} a disruptive event (trap, interrupt, full
    context switch), how many extra cycles does a thread spend re-warming
    its working set?  This reproduces FlexSC's "indirect cost" of mode
    switches, which the flat [trap_pollution_cycles] parameter
    approximates; experiments can use either. *)

type t

val create : unit -> t
(** The default L1d, L2 and TLB ({!Cache.l1d_default},
    {!Cache.l2_default}, {!Tlb.default}). *)

val warm : t -> asid:int -> start:int -> bytes:int -> unit
(** Load a working set into all levels without recording statistics. *)

val walk_cost : t -> asid:int -> start:int -> bytes:int -> int
(** Total cycles to touch every line of the working set once through the
    hierarchy (L1 miss falls through to L2; L2 miss pays its fill cost),
    plus translation costs.  A fully warm set costs the hit-path only. *)

val trap_pollution : t -> Sl_util.Rng.t -> unit
(** The partial eviction a kernel trap causes (~25% of L1, ~5% of L2). *)

val context_switch_pollution : t -> unit
(** Address-space switch: full L1 + TLB flush. *)
