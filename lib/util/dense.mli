(** Growable direct-mapped [int -> int] table.

    The flat cousin of [(int, int) Hashtbl.t] for keys that are dense
    in practice (ptids, memory addresses, vtids): a lookup is one
    bounds test and one unboxed array load — no hashing, no bucket
    chain, no [Some] box.  The backing window is pinned at the first
    key ever [set] and grows by amortized doubling in either direction,
    so key ranges that start high (bump-allocated memory addresses)
    don't pay for a dead [0, first-key) prefix.  Keys must be
    non-negative; unset (or never-reached) keys read back as the
    [default] chosen at creation. *)

type t

val create : ?default:int -> unit -> t
(** [default] defaults to [-1] (the conventional "absent" sentinel). *)

val get : t -> int -> int
(** [get t k] is the value last [set] for [k], or the default.  Negative
    keys read as the default. *)

val set : t -> int -> int -> unit
(** Raises [Invalid_argument] on a negative key. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] is [f k1 v1 (f k2 v2 (... (f kn vn init)))] over
    the keys [k1 < k2 < ... < kn] whose value is not the default: it
    visits the highest key first, as [List.fold_right] does, so consing
    builds a list in key order.  It walks the backing window, whatever
    the number of keys set in it. *)
