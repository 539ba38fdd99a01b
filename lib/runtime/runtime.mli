(** The execution runtime a scheme runs on.

    Schemes never name the simulator directly; they take a {!t} (or just
    its {!Clock.t}) and schedule time and messages through it. Two
    runtimes exist:

    - the {e sim} runtime — {!Dangers_sim.Engine} time plus the
      simulated {!Dangers_net.Network} transport; and
    - the {e live} runtime — the same engine fired by the {!Live_clock}
      wall-time driver, with the same transport semantics played out in
      real elapsed time and {!Codec}-framed messages on the socket
      boundary. *)

type t = { name : string; clock : Clock.t }
(** What a scheme constructor takes: the clock everything schedules on,
    tagged with the runtime's name for summaries and traces. The
    transport is not carried here because it is message-type-polymorphic;
    schemes build theirs from the clock
    (see {!Dangers_net.Network.create}). *)

val sim : unit -> t
(** A fresh simulator runtime. *)

val live_wall : Live_clock.t -> t
(** The wall-clock runtime driven by [live]: delays elapse in real
    time. *)
