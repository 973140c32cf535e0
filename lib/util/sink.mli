(** Per-domain output sink.

    All experiment/table printing funnels through {!emit}.  With no
    redirection installed it writes to stdout, byte-for-byte like the
    direct prints it replaces.  A runner that fans experiments out over
    domains installs a buffer sink in each worker ({!with_buffer}), so
    parallel output never interleaves and can be replayed in canonical
    order.  The redirection is domain-local state: redirecting one
    domain never affects printing in another. *)

val emit : string -> unit
(** Write a string to the calling domain's sink (stdout by default). *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf]-style formatting into {!emit}. *)

val with_buffer : (unit -> 'a) -> 'a * string
(** [with_buffer fn] runs [fn] with the sink redirected into a fresh
    buffer and returns [fn]'s result alongside everything it emitted.
    The previous sink is restored afterwards (also on raise). *)
