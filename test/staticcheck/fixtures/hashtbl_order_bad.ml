(* Seeded hash-order leaks for the typed [hashtbl-order] rule: each
   result depends on the order a table's bindings are visited in.  The
   [H] alias is the point again: the resolved path still says
   [Hashtbl.fold]. *)

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

let render tbl =
  let b = Buffer.create 16 in
  Hashtbl.iter (fun k _ -> Buffer.add_string b k) tbl;
  Buffer.contents b

let first tbl = Seq.uncons (Hashtbl.to_seq_keys tbl)

module H = Hashtbl

(* Sorted, but not straight away: the rule does not follow the list. *)
let sorted_later tbl =
  let l = H.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort compare l
