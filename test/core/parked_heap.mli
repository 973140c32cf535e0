(** The heap a parked hardware thread holds, and what setting it up
    costs the host. *)

type reading = {
  heap_words : float;
      (** Live heap words the threads added, per thread: the world's
          live words after a full major collection, less those of the
          same world before the first thread was added. *)
  setup_minor_words : float;
      (** Minor words allocated per thread from the first [add_thread]
          until the run returns with every thread parked. *)
  setup_s : float;  (** Host wall time of that same window, in seconds. *)
}

val measure : cores:int -> per_core:int -> reading
(** Builds a chip of [cores] cores with [per_core] threads each, every
    thread armed on its own doorbell and parked in [mwait], and reads
    it.  The set-up window holds no full collection.  Raises [Failure]
    when a thread did not park. *)
