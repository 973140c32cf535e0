open Switchless

type access = { ptid : int; epoch : int; time : int }

type addr_state = {
  mutable writer : access option;
  mutable writer_clock : Vclock.t option;
  readers : (int, access) Hashtbl.t;  (* strict mode: last read per ptid *)
}

type t = {
  check_reads : bool;
  now : unit -> int;
  report : rule:string -> key:string -> message:string -> unit;
  clocks : (int, Vclock.t) Hashtbl.t;
  addrs : (Memory.addr, addr_state) Hashtbl.t;
  writer_sets : (Memory.addr, (int, unit) Hashtbl.t) Hashtbl.t;
}

let create ~check_reads ~now ~report =
  {
    check_reads;
    now;
    report;
    clocks = Hashtbl.create 64;
    addrs = Hashtbl.create 256;
    writer_sets = Hashtbl.create 256;
  }

let clock_of t ptid =
  match Hashtbl.find_opt t.clocks ptid with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    (* Start at 1 so the very first access has a non-zero epoch and is
       unordered w.r.t. clocks that never synchronized with this thread. *)
    Vclock.tick c ptid;
    Hashtbl.replace t.clocks ptid c;
    c

let addr_state t addr =
  match Hashtbl.find_opt t.addrs addr with
  | Some st -> st
  | None ->
    let st = { writer = None; writer_clock = None; readers = Hashtbl.create 4 } in
    Hashtbl.replace t.addrs addr st;
    st

let writers t addr =
  match Hashtbl.find_opt t.writer_sets addr with
  | None -> []
  | Some set -> Hashtbl.fold (fun p () acc -> p :: acc) set [] |> List.sort Int.compare

let note_writer t addr ptid =
  let set =
    match Hashtbl.find_opt t.writer_sets addr with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 4 in
      Hashtbl.replace t.writer_sets addr s;
      s
  in
  Hashtbl.replace set ptid ()

(* [prior] happened-before the current access by [ptid] iff its epoch is
   covered by [ptid]'s clock. *)
let ordered clock prior = prior.epoch <= Vclock.get clock prior.ptid

let race_key kind addr a b =
  let lo, hi = if a < b then (a, b) else (b, a) in
  Printf.sprintf "%s:0x%x:%d:%d" kind addr lo hi

(* Release half of a synchronization edge: hand the actor's clock to the
   target, then advance the actor so later actor work is not covered. *)
let sync_edge t ~from_ ~to_ =
  let src = clock_of t from_ and dst = clock_of t to_ in
  Vclock.merge ~into:dst src;
  Vclock.tick src from_

let on_write t ~ptid ~addr =
  let c = clock_of t ptid in
  let st = addr_state t addr in
  (match st.writer with
  | Some prev when prev.ptid <> ptid && not (ordered c prev) ->
    t.report ~rule:"race"
      ~key:(race_key "ww" addr ptid prev.ptid)
      ~message:
        (Printf.sprintf
           "write-write race on [0x%x]: ptid %d (now, t=%d) vs ptid %d (t=%d) \
            are unordered by any start/stop/rpull/rpush/mwait edge"
           addr ptid (t.now ()) prev.ptid prev.time)
  | _ -> ());
  if t.check_reads then begin
    (* Only the racing readers are collected (a race-free write allocates
       nothing), then reported by ptid rather than in hash order. *)
    let racing =
      Hashtbl.fold
        (fun rptid racc acc ->
          if rptid <> ptid && not (ordered c racc) then racc :: acc else acc)
        st.readers []
      |> List.sort (fun a b -> Int.compare a.ptid b.ptid)
    in
    List.iter
      (fun racc ->
        t.report ~rule:"race"
          ~key:(race_key "rw" addr ptid racc.ptid)
          ~message:
            (Printf.sprintf
               "read-write race on [0x%x]: write by ptid %d (t=%d) vs read \
                by ptid %d (t=%d) are unordered"
               addr ptid (t.now ()) racc.ptid racc.time))
      racing
  end;
  st.writer <- Some { ptid; epoch = Vclock.get c ptid; time = t.now () };
  Vclock.tick c ptid;
  st.writer_clock <- Some (Vclock.copy c);
  Hashtbl.reset st.readers;
  note_writer t addr ptid

let on_read t ~ptid ~addr =
  let c = clock_of t ptid in
  let st = addr_state t addr in
  if t.check_reads then begin
    (match st.writer with
    | Some prev when prev.ptid <> ptid && not (ordered c prev) ->
      t.report ~rule:"race"
        ~key:(race_key "wr" addr ptid prev.ptid)
        ~message:
          (Printf.sprintf
             "write-read race on [0x%x]: read by ptid %d (t=%d) vs write by \
              ptid %d (t=%d) are unordered"
             addr ptid (t.now ()) prev.ptid prev.time)
    | _ -> ());
    Hashtbl.replace st.readers ptid
      { ptid; epoch = Vclock.get c ptid; time = t.now () };
    Vclock.tick c ptid
  end
  else
    (* Hardware-coherent model: a load observes the latest committed store
       of the word, so it acquires the writer's clock (a reads-from edge).
       Single-writer polling protocols are then race-free by construction,
       and only unordered write-write conflicts remain reportable. *)
    match st.writer_clock with
    | Some wc -> Vclock.merge ~into:c wc
    | None -> ()

let on_event t = function
  | Probe.Mem_write { ptid; addr; _ } -> on_write t ~ptid ~addr
  | Probe.Mem_read { ptid; addr; _ } -> on_read t ~ptid ~addr
  | Probe.Start_edge { actor = Probe.Thread actor; target; _ } ->
    sync_edge t ~from_:actor ~to_:target
  | Probe.Start_edge { actor = Probe.Boot; _ } -> ()
  | Probe.Stop_edge { actor = Probe.Thread actor; target } ->
    sync_edge t ~from_:target ~to_:actor
  | Probe.Stop_edge { actor = Probe.Boot; _ } -> ()
  | Probe.Reg_pull { actor; target; _ } -> sync_edge t ~from_:target ~to_:actor
  | Probe.Reg_push { actor; target; _ } -> sync_edge t ~from_:actor ~to_:target
  | Probe.Mwait_woke { ptid; addr; _ } -> (
    (* The wakeup publishes the triggering writer's history to the waiter
       even though the waiter never issues a load of the doorbell. *)
    match (addr_state t addr).writer_clock with
    | Some wc -> Vclock.merge ~into:(clock_of t ptid) wc
    | None -> ())
  | Probe.Monitor_armed _ | Probe.Mwait_parked _ | Probe.State_change _
  | Probe.Translated _ | Probe.Invtid_issued _ | Probe.Exception_raised _
  | Probe.Mwait_timeout _ | Probe.Fault_injected _ ->
    ()
