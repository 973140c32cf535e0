(** The reference model of {!Sl_sync.Lock}: the same designs, costs and
    events, with each contended wait a loop in the waiter's fiber (one
    fiber switch per blocked iteration) instead of a stepped wait. *)

type t

val create :
  ?patience:int ->
  ?on_event:(Sl_sync.Lock.event -> unit) ->
  Switchless.Chip.t ->
  Sl_sync.Lock.kind ->
  t

val acquire : t -> Switchless.Chip.thread -> unit
val release : t -> Switchless.Chip.thread -> unit
val owner : t -> int
val stats : t -> Sl_sync.Lock.stats
