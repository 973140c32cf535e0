(** FlexSC-style exception-less system calls (Soares & Stumm, OSDI '10).

    Applications post syscall entries to a shared page instead of
    trapping; dedicated kernel worker threads (here: a worker context on
    a kernel-owned core) batch-process the entries and post results back.
    No mode switch is paid, but calls absorb batching delay — the paper's
    point that exception-less designs trade latency and complexity for
    the trap cost, where a dedicated hardware thread would get both. *)

type 'a t
(** A worker draining posted entries of type ['a]. *)

val serve :
  Sl_engine.Sim.t -> ?batch_window:Sl_engine.Sim.Time.t ->
  core:Switchless.Smt_core.t -> work:('a -> Sl_engine.Sim.Time.t) ->
  complete:('a -> unit) -> unit -> 'a t
(** Spawn the worker: a daemon process named ["flexsc-worker"] on a
    context of [core].  Once an entry is posted it lets a batch
    accumulate for [batch_window] (default 500) cycles, then executes
    each entry's [work] and calls [complete] on it, in posting order. *)

val post : 'a t -> 'a -> unit
(** Post an entry without blocking; the caller charges its own posting
    stores. *)

type call

val create :
  Sl_engine.Sim.t -> ?batch_window:Sl_engine.Sim.Time.t ->
  core:Switchless.Smt_core.t -> unit -> call t
(** A syscall worker over blocking {!call} entries. *)

val call : call t -> kernel_work:Sl_engine.Sim.Time.t -> unit
(** Post an entry and block until the worker has executed it. *)

val calls : 'a t -> int
val batches : 'a t -> int
