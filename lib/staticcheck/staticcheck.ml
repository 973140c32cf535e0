let missing_mli (u : Cmt_load.unit_) =
  if u.Cmt_load.interface then []
  else
    [
      {
        Site.rule = "missing-mli";
        file = u.Cmt_load.source;
        line = 1;
        ident = "-";
        message = "no .mli: every library module needs an interface";
      };
    ]

let check_unit (u : Cmt_load.unit_) =
  let file = u.Cmt_load.source in
  missing_mli u
  @ Protocol.check ~file u.Cmt_load.structure
  @ Domain_safety.check ~file u.Cmt_load.structure
  @ Purity.check ~file u.Cmt_load.structure
  @ Zero_alloc.check ~file u.Cmt_load.structure

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
