(** Rule (3): determinism and print hygiene, typed.

    The [determinism]/[no-print]/[no-blanket-catch] rules over resolved
    identifiers: [Unix.gettimeofday] is caught through any alias, a
    string literal mentioning it is not, and a [try ... with _ ->] is
    recognised from the typedtree rather than a token stack.

    [hashtbl-order] flags [Hashtbl.iter], [Hashtbl.fold] and
    [Hashtbl.to_seq*], which visit bindings in hash order, unless the
    traversal's result goes straight into a [List] sort:
    [List.sort cmp (Hashtbl.fold ...)], [Hashtbl.fold ... |> List.sort
    cmp] or [List.sort cmp @@ Hashtbl.fold ...].  An order-free
    reduction (a count, a max over distinct keys) takes a justified
    allowlist line instead.

    [poly-compare] flags [Stdlib.min], [Stdlib.max] and [Stdlib.compare],
    called or passed as a value, where the type they are instantiated at
    is immediate: int, char, or a variant of constant constructors (bool
    among them).  [min] and [max] call [compare_val] there, where
    [Int.min] and [Int.max] compare two ints.  The compiler specializes
    [compare] itself at such a type, but [Int.compare] (or the type's own
    ordering) pins the type, so a later change of the type cannot turn
    it into [compare_val] unnoticed.  A type variable, an abstract type,
    a float or a string is not flagged.

    [no-print] has no exempt directory: nothing in [lib/] prints. *)

val check : file:string -> Typedtree.structure -> Site.t list
