type t = {
  rule : string;
  file : string;
  line : int;
  ident : string;
  message : string;
}

let make ~rule ~file ~line ~ident message = { rule; file; line; ident; message }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.ident b.ident
      | c -> c)
    | c -> c)
  | c -> c

let to_string s =
  Printf.sprintf "%s:%d: [%s] (%s) %s" s.file s.line s.rule s.ident s.message

let to_report s =
  {
    Sl_analysis.Report.rule = s.rule;
    key = Printf.sprintf "%s:%s:%s" s.rule s.file s.ident;
    time = 0;
    message = s.message;
    context =
      [
        Printf.sprintf "at %s:%d" s.file s.line;
        Printf.sprintf "in binding %s" s.ident;
      ];
  }
