type reg =
  | Gp of int
  | Rip
  | Rflags
  | Vector of int
  | Exception_descriptor_ptr
  | Tdt_base

(* One flat buffer of 64-bit words, written unboxed: GP 0-15, rip,
   rflags, edp and tdt, then a vector context's 16 lanes.  A context
   nothing has written to holds the shared empty buffer, and every
   register reads [0L]; the first write allocates the buffer. *)
type t = { vector : bool; mutable words : Bytes.t }

let create ?(vector = false) () = { vector; words = Bytes.empty }

let footprint_bytes params t = Params.regstate_bytes params ~vector:t.vector

(* The byte offset of [reg] in the buffer. *)
let offset t = function
  | Gp i ->
    if i < 0 || i > 15 then invalid_arg "Regstate: GP register out of range";
    8 * i
  | Rip -> 8 * 16
  | Rflags -> 8 * 17
  | Exception_descriptor_ptr -> 8 * 18
  | Tdt_base -> 8 * 19
  | Vector i ->
    if i < 0 || i > 15 then invalid_arg "Regstate: vector register out of range";
    if not t.vector then invalid_arg "Regstate: vector access on a non-vector context";
    8 * (20 + i)

let get t reg =
  let off = offset t reg in
  if Bytes.length t.words = 0 then 0L else Bytes.get_int64_ne t.words off

let set t reg v =
  let off = offset t reg in
  if Bytes.length t.words = 0 then
    t.words <- Bytes.make (8 * if t.vector then 36 else 20) '\000';
  Bytes.set_int64_ne t.words off v

let copy t = { t with words = Bytes.copy t.words }

let is_privileged_reg = function
  | Exception_descriptor_ptr | Tdt_base -> true
  | Gp _ | Rip | Rflags | Vector _ -> false

let modify_some_allows = function
  | Gp _ -> true
  | Rip | Rflags | Vector _ | Exception_descriptor_ptr | Tdt_base -> false

let modify_most_allows reg = not (is_privileged_reg reg)

let pp_reg ppf = function
  | Gp i -> Format.fprintf ppf "gp%d" i
  | Rip -> Format.pp_print_string ppf "rip"
  | Rflags -> Format.pp_print_string ppf "rflags"
  | Vector i -> Format.fprintf ppf "v%d" i
  | Exception_descriptor_ptr -> Format.pp_print_string ppf "edp"
  | Tdt_base -> Format.pp_print_string ppf "tdt"
