(* Clean counterparts for the typed [hashtbl-order] rule: every
   traversal's result goes straight into a sort, and a string naming
   Hashtbl.iter is invisible to a typedtree. *)

let doc = "Hashtbl.iter Hashtbl.fold"

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let unique tbl = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let pairs tbl = List.stable_sort compare @@ Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let size tbl = Hashtbl.length tbl
