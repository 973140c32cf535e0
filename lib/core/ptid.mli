(** One physical hardware thread's architectural vocabulary (§3).

    A ptid is always in one of three states: {e runnable} (may be issued
    on the pipeline), {e waiting} (parked by [mwait] until a monitored
    write) or {e disabled} (frozen until another thread [start]s it), and
    runs in one privilege mode.  The per-thread state itself lives in
    {!Chip}'s per-thread record; the transition {e semantics} (costs,
    monitor interaction, permission checks) live in {!Chip} and {!Isa}. *)

type state = Runnable | Waiting | Disabled

type mode = User | Supervisor

val pp_state : Format.formatter -> state -> unit
val pp_mode : Format.formatter -> mode -> unit
