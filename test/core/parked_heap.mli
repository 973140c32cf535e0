(** The heap a parked hardware thread holds. *)

val words_per_ptid : cores:int -> per_core:int -> float
(** Builds a chip of [cores] cores with [per_core] threads each, every
    thread armed on its own doorbell and parked in [mwait], and returns
    the live heap words the threads added, per thread: the world's live
    words after a full major collection, less those of the same world
    before the first thread was added.  Raises [Failure] when a thread
    did not park. *)
