(** One static finding, keyed to its source site.

    [ident] is the name of the enclosing top-level binding (or ["-"]
    outside any), which is what the allowlist keys on: line numbers
    drift with every edit, [rule + file + binding] survives them. *)

type t = {
  rule : string;
  file : string;  (** source path as recorded in the .cmt, e.g. [lib/os/io_path.ml] *)
  line : int;
  ident : string;  (** enclosing top-level binding *)
  message : string;
}

val make : rule:string -> file:string -> line:int -> ident:string -> string -> t
(** The one way rules build a finding ({!Binding.site} fills in the
    file, line and binding). *)

val compare : t -> t -> int
(** Order by (file, line, rule, ident): report order and dedupe key. *)

val to_string : t -> string

val to_report : t -> Sl_analysis.Report.finding
(** Bridge into the shared finding machinery ({!Sl_analysis.Report}):
    [key] is the static dedupe key, [time] is 0 (static findings have no
    simulation timestamp), context carries the site. *)
