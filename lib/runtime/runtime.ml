type t = { name : string; clock : Clock.t }

let sim () =
  { name = "sim"; clock = Clock.of_engine (Dangers_sim.Engine.create ()) }

let live_wall live = { name = "live-wall"; clock = Clock.of_live live }
