(** Rule (3): determinism and print hygiene, typed.

    The [determinism]/[no-print]/[no-blanket-catch] rules over resolved
    identifiers: [Unix.gettimeofday] is caught through any alias, a
    string literal mentioning it is not, and a [try ... with _ ->] is
    recognised from the typedtree rather than a token stack.

    [check_prints] is false for terminal-facing directories ([util]). *)

val check :
  file:string -> check_prints:bool -> Typedtree.structure -> Site.t list
