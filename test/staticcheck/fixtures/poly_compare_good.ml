(* Clean counterparts for the typed [poly-compare] rule: the type's own
   ordering at immediate types, and Stdlib's at types that are not
   immediate (Float.min differs from min on NaN), at a type variable, at
   an abstract type, and a local [min] that shares Stdlib's name. *)

let clamp n = Int.min 12 (n + 1)

let sort_ints (a : int array) = Array.sort Int.compare a

let lowest (x : float) y = min x y

let names (l : string list) = List.sort compare l

let generic a b = max a b

type shape = Dot | Circle of int

let order (a : shape) b = compare a b

module Id : sig
  type t

  val zero : t
end = struct
  type t = int

  let zero = 0
end

let later (a : Id.t) = max a Id.zero

let min a b = if a < b then a else b

let local (x : int) y = min x y
