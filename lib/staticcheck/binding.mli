(** The one driver every rule runs on: a unit's top-level bindings.

    {!of_structure} lists each value binding of a unit in definition
    order, those of nested modules (through constraints and functor
    bodies) in place, and each top-level eval as a binding of [_].  A
    rule reads a binding, never the structure, and reports through
    {!site}, so every finding names the binding it sits in. *)

type t = {
  file : string;  (** source path as recorded in the .cmt *)
  name : string;
      (** the bound variable, or ["-"] for a pattern or an eval: the
          [ident] of every {!Site.t} the binding reports *)
  vb : Typedtree.value_binding;
  group : Typedtree.value_binding list;
      (** on the first binding of a [let rec … and …], the whole group
          (so a rule can read its later members first); [[]] on every
          other binding *)
}

val of_structure : file:string -> Typedtree.structure -> t list

val ident : Typedtree.value_binding -> Ident.t option
(** The variable a binding binds, through an alias pattern. *)

val site : t -> rule:string -> Location.t -> string -> Site.t
(** A finding of [rule] at the start line of the location, in this
    binding. *)
