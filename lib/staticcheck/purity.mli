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

    [no-print] has no exempt directory: nothing in [lib/] prints. *)

val check : file:string -> Typedtree.structure -> Site.t list
