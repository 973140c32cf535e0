type thread = Chip.thread

let exec = Chip.exec
let spin = Chip.spin
let monitor = Chip.insn_monitor
let mwait = Chip.insn_mwait

let mwait_for th ~deadline =
  let a = Chip.insn_mwait_for th ~deadline in
  if a >= 0 then Some a else None

let start = Chip.insn_start
let stop = Chip.insn_stop
let rpull = Chip.insn_rpull
let rpush = Chip.insn_rpush
let invtid = Chip.insn_invtid
let set_tdt = Chip.insn_set_tdt
let load = Chip.load
let store = Chip.store
let fault = Chip.raise_exception
let set_secret = Chip.insn_set_secret
let start_keyed = Chip.insn_start_keyed
let stop_keyed = Chip.insn_stop_keyed
let rpull_keyed = Chip.insn_rpull_keyed
let rpush_keyed = Chip.insn_rpush_keyed
