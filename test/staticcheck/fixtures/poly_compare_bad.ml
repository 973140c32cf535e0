(* Seeded polymorphic orderings at immediate types for the typed
   [poly-compare] rule: called, passed as a value, through an alias,
   and at a char and at a variant of constant constructors. *)

let clamp n = min 12 (n + 1)

let grow n = Stdlib.max 16 (2 * n)

let sort_ints (a : int array) = Array.sort compare a

let latest (c : char) d = max c d

type colour = Red | Green | Blue

let order (a : colour) b = compare a b

module S = Stdlib

let smallest l = List.fold_left S.min max_int l
