type state = Runnable | Waiting | Disabled

type mode = User | Supervisor

let pp_state ppf state =
  Format.pp_print_string ppf
    (match state with
    | Runnable -> "runnable"
    | Waiting -> "waiting"
    | Disabled -> "disabled")

let pp_mode ppf mode =
  Format.pp_print_string ppf
    (match mode with User -> "user" | Supervisor -> "supervisor")
