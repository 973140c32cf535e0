type t = (int, int) Hashtbl.t

let create () = Hashtbl.create 8

let get t i = Option.value ~default:0 (Hashtbl.find_opt t i)

let tick t i = Hashtbl.replace t i (get t i + 1)

let copy = Hashtbl.copy

let merge ~into src =
  Hashtbl.iter
    (fun i v -> if v > get into i then Hashtbl.replace into i v)
    src
