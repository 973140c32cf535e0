(* [major_words] includes the promoted words, which [Gc.minor_words]
   counted when they were allocated. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. (s.Gc.major_words -. s.Gc.promoted_words)
