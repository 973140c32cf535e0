(** Bounded event tracing for simulations.

    A ring buffer of timestamped typed events.  Processes (or model code)
    record events as values and render them only when a run misbehaves:
    the tail shows the last N things that happened in simulated-time
    order.  Kept deliberately simple: no categories, no filtering. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Keep the most recent [capacity] events (default 4096). *)

val record : 'a t -> Sim.t -> 'a -> unit
(** Stamp an event with the simulation's current time. *)

val events : 'a t -> (Sim.Time.t * 'a) list
(** Retained events, oldest first. *)

val length : 'a t -> int
(** Retained event count (≤ capacity). *)

val total_recorded : 'a t -> int
(** Events ever recorded, including overwritten ones. *)

val clear : 'a t -> unit
