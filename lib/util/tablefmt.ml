type cell = String of string | Int of int | Int64 of int64 | Float of float

let cell_to_string = function
  | String s -> s
  | Int i -> string_of_int i
  | Int64 i -> Int64.to_string i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else if Float.abs f >= 1000.0 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.3g" f

let pad width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

let pad_left width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render ~title ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then
        invalid_arg "Tablefmt.render: row width differs from header")
    rows;
  let string_rows = List.map (List.map cell_to_string) rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Int.max acc (String.length (List.nth row i)))
          (String.length h) string_rows)
      header
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  let add_row ~is_header cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        let w = List.nth widths i in
        Buffer.add_string buf (if i = 0 || is_header then pad_left w c else pad w c))
      cells;
    Buffer.add_char buf '\n'
  in
  add_row ~is_header:true header;
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter (add_row ~is_header:false) string_rows;
  Buffer.contents buf

let render_series ~title ~x_label ~columns points =
  let header = x_label :: columns in
  let rows =
    List.map
      (fun (x, ys) ->
        if List.length ys <> List.length columns then
          invalid_arg "Tablefmt.render_series: wrong number of y values";
        Float x :: List.map (fun y -> Float y) ys)
      points
  in
  render ~title ~header rows
