(** Fully-associative TLB model with LRU replacement.

    Tracks virtual-page translations; a context switch to a different
    address space flushes it (no ASID) or retags (with ASIDs).  Used by
    the pollution experiments to account translation warm-up after
    switches. *)

type config = {
  entries : int;
  page_bytes : int;
  hit_cycles : int;
  miss_cycles : int;  (** Page-walk cost on miss. *)
}

val default : config
(** 64 entries, 4 KiB pages, 1-cycle hit, 30-cycle walk. *)

type t

val create : config -> t

val access : t -> asid:int -> int -> [ `Hit | `Miss ]
(** Translate the page containing the byte address for address space
    [asid]. *)

val access_cycles : t -> asid:int -> int -> int

val flush : t -> unit
(** Full flush (switch without ASIDs). *)

val warm : t -> asid:int -> start:int -> bytes:int -> unit
(** Pre-fill translations for a range: {!access} on each of its pages. *)
