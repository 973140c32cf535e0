open Typedtree

type t = {
  file : string;
  name : string;
  vb : value_binding;
  group : value_binding list;
}

let ident vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let make file group vb =
  { file; name = Option.fold ~none:"-" ~some:Ident.name (ident vb); vb; group }

(* A top-level eval is a binding of its value to [_]. *)
let eval file e =
  let pat =
    {
      pat_desc = Tpat_any;
      pat_loc = e.exp_loc;
      pat_extra = [];
      pat_type = e.exp_type;
      pat_env = e.exp_env;
      pat_attributes = [];
    }
  in
  make file [] { vb_pat = pat; vb_expr = e; vb_attributes = []; vb_loc = e.exp_loc }

let rec of_structure ~file str =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_value (Asttypes.Recursive, (_ :: _ :: _ as vbs)) ->
        List.mapi (fun i vb -> make file (if i = 0 then vbs else []) vb) vbs
      | Tstr_value (_, vbs) -> List.map (make file []) vbs
      | Tstr_eval (e, _) -> [ eval file e ]
      | Tstr_module mb -> of_module ~file mb.mb_expr
      | Tstr_recmodule mbs -> List.concat_map (fun mb -> of_module ~file mb.mb_expr) mbs
      | _ -> [])
    str.str_items

and of_module ~file me =
  match me.mod_desc with
  | Tmod_structure str -> of_structure ~file str
  | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> of_module ~file me
  | _ -> []

let site b ~rule loc message =
  Site.make ~rule ~file:b.file ~line:loc.Location.loc_start.Lexing.pos_lnum
    ~ident:b.name message
