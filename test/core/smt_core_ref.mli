(** The reference model of {!Switchless.Smt_core}: its serve pass
    completes each finished job inside the pass, its water-filling
    builds closures and its [next_dt] takes a ceiling per job.  The
    same interface and the same results, bit for bit. *)

type kind = Switchless.Smt_core.kind = Useful | Poll | Overhead
type t

val create : Sl_engine.Sim.t -> Switchless.Params.t -> t
val add_slot : t -> ptid:int -> int
val set_runnable : t -> slot:int -> weight:float -> bool -> unit
val execute : t -> slot:int -> kind:kind -> int -> unit
val admit : t -> slot:int -> kind:kind -> int -> Sl_engine.Sim.suspension
val serve_lone_gaps : t -> slot:int -> kind:kind -> int -> unit
val runnable_count : t -> int
val busy_capacity_cycles : t -> float
val work_done : t -> kind -> float
val thread_cycles : t -> slot:int -> float
val billed_threads : t -> (int * float) list
