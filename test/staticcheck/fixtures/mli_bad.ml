(* Seeded violation for the missing-mli rule: no interface beside it. *)

let exposed = 1
