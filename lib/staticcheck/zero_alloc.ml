open Typedtree

let attribute = "sl.zero_alloc"

let annotated vb =
  List.exists
    (fun a -> a.Parsetree.attr_name.Location.txt = attribute)
    vb.vb_attributes

(* One allocation class per expression head.  Float boxing and string
   building are out of scope (see DESIGN.md): the contract covers the
   allocations flambda-less ocamlopt cannot remove — closures, blocks,
   and partial applications. *)
let alloc_reason e =
  match e.exp_desc with
  | Texp_function _ -> Some "closure capture (fun ... in the body)"
  | Texp_tuple _ -> Some "tuple construction"
  | Texp_record _ -> Some "record construction"
  | Texp_array _ -> Some "array construction"
  | Texp_variant (_, Some _) -> Some "polymorphic-variant construction"
  | Texp_lazy _ -> Some "lazy-block construction"
  | Texp_construct (lid, cd, _ :: _) -> (
    match cd.Types.cstr_tag with
    | Types.Cstr_unboxed -> None
    | _ ->
      Some
        (Printf.sprintf "boxed constructor %s"
           (String.concat "." (Longident.flatten lid.Location.txt))))
  | Texp_apply (_, args) ->
    if List.exists (fun (_, a) -> a = None) args then
      Some "partial application (argument omitted)"
    else (
      match Types.get_desc (Spath.expand e.exp_env e.exp_type) with
      | Types.Tarrow _ -> Some "partial application (result is a function)"
      | _ -> None)
  | _ -> None

let check (b : Binding.t) =
  let found = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match alloc_reason e with
          | Some reason ->
            found :=
              Binding.site b ~rule:"zero-alloc" e.exp_loc
                (Printf.sprintf
                   "[@@%s] function allocates: %s; keep the hot path \
                    allocation-free or drop the annotation"
                   attribute reason)
              :: !found
          | None -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  (* The outermost [fun] chain is the calling convention, not an
     allocation: a fully applied curried call builds no intermediate
     closure.  Everything below it is body. *)
  let rec scan e =
    match e.exp_desc with
    | Texp_function { cases; _ } -> List.iter (fun c -> scan c.c_rhs) cases
    | _ -> it.Tast_iterator.expr it e
  in
  if annotated b.vb then scan b.vb.vb_expr;
  !found
