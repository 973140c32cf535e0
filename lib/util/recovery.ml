(* Domain-local so parallel experiment runners never share counters; the
   bench scheduler resets the registry at the start of every job, which
   keeps stdout byte-identical at any -j level. *)
let table : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let bump site =
  let t = Domain.DLS.get table in
  Hashtbl.replace t site (1 + Option.value ~default:0 (Hashtbl.find_opt t site))

let get site =
  Option.value ~default:0 (Hashtbl.find_opt (Domain.DLS.get table) site)

let snapshot () =
  Hashtbl.fold
    (fun site n acc -> if n = 0 then acc else (site, n) :: acc)
    (Domain.DLS.get table) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () = Hashtbl.reset (Domain.DLS.get table)
