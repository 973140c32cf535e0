let missing_mli (u : Cmt_load.unit_) =
  if u.Cmt_load.interface then []
  else
    [
      Site.make ~rule:"missing-mli" ~file:u.Cmt_load.source ~line:1 ~ident:"-"
        "no .mli: every library module needs an interface";
    ]

(* The driver: every rule reads the same bindings, each once. *)
let check_unit (u : Cmt_load.unit_) =
  let bindings = Binding.of_structure ~file:u.Cmt_load.source u.Cmt_load.structure in
  missing_mli u
  @ Protocol.check bindings
  @ List.concat_map
      (fun b -> Domain_safety.check b @ Purity.check b @ Zero_alloc.check b)
      bindings

let scan roots =
  Cmt_load.load_roots roots
  |> List.concat_map check_unit
  |> List.sort_uniq Site.compare

type result = {
  findings : Site.t list;
  allowed : Site.t list;
  unused : Allowlist.entry list;
}

let run ?(allow = "staticcheck.allow") roots =
  let allowlist = Allowlist.load allow in
  let sites = scan roots in
  let allowed, findings =
    List.partition (Allowlist.permits allowlist) sites
  in
  { findings; allowed; unused = Allowlist.unused allowlist }
