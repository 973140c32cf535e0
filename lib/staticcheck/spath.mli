(** Resolved-path matching for the typed rules.

    Every rule in this library matches {e resolved identifiers} — the
    [Path.t] the type-checker put in the typedtree — never source
    tokens, so aliasing ([module Isa = Switchless.Isa]), shadowing and
    strings/comments cannot fool a rule (the failure mode of a token
    scan).  Matching is by {e dotted suffix} of the
    normalized path: ["Isa.mwait"] matches [Isa.mwait],
    [Switchless.Isa.mwait] and [Switchless__Isa.mwait] alike, while a
    local value that merely happens to be called [mwait] only matches
    the one-component suffix ["mwait"]. *)

val name : Path.t -> string
(** Normalized dotted name: [Stdlib] prefixes are dropped and
    dune-mangled unit names ([Sl_engine__Sim]) reduced to their last
    component ([Sim]), so callers match against the name a reader sees
    in the source. *)

val matches : string -> Path.t -> bool
(** [matches "M.f" p] — the normalized name of [p] ends with the given
    dotted suffix, on component boundaries. *)

val matches_any : string list -> Path.t -> string option
(** First pattern of the list that {!matches}, if any. *)

val full_env : Env.t -> Env.t
(** Reconstruct a cmt summary env via [Envaux] (dependency [.cmi]s load
    through the [Load_path] primed by {!Cmt_load}); on failure returns
    the summary env, degrading lookups toward silence. *)

val expand : Env.t -> Types.type_expr -> Types.type_expr
(** [Ctype.expand_head] in the {!full_env} of [env]: abbreviations at
    the head of the type are expanded.  On any failure the type comes
    back unchanged, degrading a rule's type test toward silence. *)

val resolve_value : Env.t -> Path.t -> Path.t
(** Canonical value path with module aliases expanded: [S.time]
    resolves to [Sys.time] when [S] aliases [Sys].  Unresolvable paths
    come back unchanged. *)

val type_matches : string -> Types.type_expr -> bool
(** [type_matches "Memory.addr" ty] — {!matches} on the head
    constructor of [ty]. *)
