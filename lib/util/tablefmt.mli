(** ASCII rendering of experiment tables and series.

    Every experiment in the benchmark harness reports either a table
    (rows × named columns) or a series (an x-axis sweep with one or more
    y columns).  This module renders both in aligned, grep-friendly plain
    text so `bench/main.exe` output can be diffed against EXPERIMENTS.md. *)

type cell = String of string | Int of int | Int64 of int64 | Float of float

val render : title:string -> header:string list -> cell list list -> string
(** [render ~title ~header rows] produces an aligned table with a title
    line, a header row, a separator, and one line per row.  Raises
    [Invalid_argument] if a row's width differs from the header's. *)

val render_series :
  title:string -> x_label:string -> columns:string list ->
  (float * float list) list -> string
(** [render_series ~title ~x_label ~columns points] renders a sweep, one
    line per x value.  Each point must supply exactly [List.length columns]
    y values. *)
