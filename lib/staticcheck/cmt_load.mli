(** Locating and reading the [.cmt] typedtree artifacts dune produces.

    Dune writes one [.cmt] per implementation next to the object files,
    under [<dir>/.<lib>.objs/byte/].  Given source roots (typically
    [lib]), the loader walks the matching build tree — [_build/default/
    <root>] when it exists, the root itself when the caller already
    stands inside the build tree (as dune rules do) — and returns every
    implementation typedtree together with the source path recorded by
    the compiler. *)

type unit_ = {
  source : string;  (** e.g. [lib/dist/server.ml], as recorded in the cmt *)
  structure : Typedtree.structure;
  interface : bool;  (** a compiled [.mli] ([.cmti]) sits next to the cmt *)
}

val load_roots : string list -> unit_ list
(** All implementation cmts under the build trees of the given roots,
    sorted by source path (deterministic report order).  Generated
    wrapper modules (no [.ml] source) are skipped.  Raises [Failure]
    when a root has no build tree at all — the caller forgot to build
    with binary annotations first. *)
