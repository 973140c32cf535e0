(* Clean counterparts for the protocol rule's conditional arms and
   [let rec] groups: shapes that must stay silent. *)

module Memory = struct
  type addr = int
end

module Isa = struct
  type thread = int

  let monitor (_ : thread) (_ : Memory.addr) = ()
  let mwait (_ : thread) = 0L
end

(* A helper that arms only under its [if], and the same [if] written
   inline, before a park: the rule trusts the guard both ways. *)
let arm_if ready th addr = if ready then Isa.monitor th addr

let park_after_helper ready th addr =
  arm_if ready th addr;
  ignore (Isa.mwait th)

let park_after_inline ready th addr =
  if ready then Isa.monitor th addr;
  ignore (Isa.mwait th)

(* The arming function of a [let rec … and …] is defined after its
   caller, and its summary still covers the caller's park. *)
let rec park_rec th addr =
  arm_later th addr;
  ignore (Isa.mwait th)

and arm_later th addr = Isa.monitor th addr
