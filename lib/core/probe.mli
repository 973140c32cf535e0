(** Instrumentation events emitted by the simulated chip.

    A probe is a callback installed on a {!Chip.t} (see
    [Chip.set_probe]) that observes every architecturally significant
    action: tracked memory accesses, the §3.1 inter-thread instructions,
    thread state transitions, monitor traffic, and TDT translations.

    Probes are the raw feed for the [sl_analysis] library — the
    vector-clock race detector derives happens-before edges from
    [Start_edge]/[Stop_edge]/[Reg_pull]/[Reg_push]/[Mwait_woke], and the
    invariant sanitizers audit [State_change]/[Translated] streams.
    When no probe is installed (the default) emission is a single
    [option] test per site, so simulation cost is unaffected.

    Events carry no timestamp: a probe reads the chip's simulation clock
    itself, since events are delivered synchronously at the point the
    modeled action commits. *)

type origin =
  | Boot  (** Setup-time firmware action ({!Chip.boot}), outside any thread. *)
  | Thread of int  (** The acting thread's ptid. *)

type event =
  | Mem_read of { ptid : int; addr : Memory.addr; value : int64 }
      (** A tracked load ([Chip.load]).  Raw [Memory.read]s by device
          models are not tracked. *)
  | Mem_write of { ptid : int; addr : Memory.addr; value : int64 }
      (** A tracked store ([Chip.store]).  Raw [Memory.write]s (DMA,
          test harnesses) are not tracked — the sanitizer observes those
          through a memory write hook instead. *)
  | Start_edge of { actor : origin; target : int; latched : bool }
      (** A start that had an architectural effect: it either scheduled a
          wakeup ([latched = false]) or latched onto an already-runnable
          target ([latched = true]).  A start aimed at a [Waiting] thread
          is architecturally a no-op and emits nothing. *)
  | Stop_edge of { actor : origin; target : int }
      (** A stop that actually transitioned the target to [Disabled].
          Stops absorbed by a latched start, or aimed at an
          already-disabled thread, emit nothing. *)
  | Reg_pull of { actor : int; target : int; reg : Regstate.reg }
      (** A successful [rpull] — implies the target was disabled. *)
  | Reg_push of { actor : int; target : int; reg : Regstate.reg }
      (** A successful [rpush] — implies the target was disabled. *)
  | State_change of {
      ptid : int;
      from_ : Ptid.state;
      to_ : Ptid.state;
      reason : string;
          (** One of ["boot"], ["start-wake"], ["crash-restart"],
              ["mwait-wake"], ["mwait-deadline"], ["stop"],
              ["force-stop"], ["crash-stop"], ["mwait-park"],
              ["body-end"], ["fault"].  [Waiting] → [Runnable] happens
              only by wake (["mwait-wake"]) or deadline
              (["mwait-deadline"]). *)
    }
  | Monitor_armed of { ptid : int; addr : Memory.addr }
  | Mwait_parked of { ptid : int }
      (** The thread found no latched trigger and went to sleep. *)
  | Mwait_woke of { ptid : int; addr : Memory.addr; immediate : bool }
      (** The mwait completed: [immediate] when a latched trigger was
          consumed without sleeping.  Emitted at the time the thread
          resumes (after the wake latency), not at the triggering write. *)
  | Translated of {
      actor : int;
      vtid : int;
      table : Tdt.t;
      used : (int * Tdt.perms) option;
      outcome : [ `Hit | `Miss ];
    }
      (** A TDT translation through the actor's table.  [used] is the
          entry the hardware acted on — on a [`Hit] it may be stale with
          respect to the table if an [invtid] was omitted after a table
          mutation, which is exactly what the TDT sanitizer checks. *)
  | Invtid_issued of { actor : int; vtid : int }
  | Exception_raised of { ptid : int; kind : Exception_desc.kind; info : int64 }
  | Mwait_timeout of { ptid : int }
      (** An [mwait_for] deadline expired with no trigger; the thread
          resumes empty-handed (umwait semantics). *)
  | Fault_injected of { ptid : int; kind : string }
      (** The fault injector perturbed this thread ([kind] names the fault
          class, e.g. ["mwait-spurious"], ["start-delay"]).  Lets traces
          correlate anomalies with their injected cause. *)

val pp : Format.formatter -> event -> unit
(** One-line rendering, used for finding context in analysis reports. *)
