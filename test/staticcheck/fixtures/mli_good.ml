(* Clean counterpart for the missing-mli rule: mli_good.mli exists. *)

let exposed = 1
