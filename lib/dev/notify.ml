module Sim = Sl_engine.Sim
module Memory = Switchless.Memory
module Params = Switchless.Params

type t =
  | Silent
  | Msix of Memory.addr
  | Irq_line of (unit -> unit)

let fire sim params memory = function
  | Silent -> ()
  | Msix addr ->
    Sim.schedule sim
      ~at:(Sim.time sim + params.Params.msix_translation_cycles)
      (fun () -> Memory.write memory addr (Int64.add (Memory.read memory addr) 1L))
  | Irq_line raise_line -> raise_line ()
