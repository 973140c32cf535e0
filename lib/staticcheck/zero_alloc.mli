(** Rule (4): the [\[@@sl.zero_alloc\]] hot-path allocation budget.

    A binding annotated [\[@@sl.zero_alloc\]] promises its body performs
    no heap allocation per call, so the simulator's inner loop runs at
    a steady minor-heap rate.  The check rejects the allocation classes
    the compiler cannot erase without flambda: closures created inside
    the body, tuple/record/array/non-constant-constructor/polymorphic-
    variant/lazy blocks, and partial applications (an argument omitted,
    or an application whose result type is still an arrow).  The
    outermost [fun] chain is the calling convention and exempt; float
    boxing is documented as out of scope (DESIGN.md). *)

val check : Binding.t -> Site.t list
