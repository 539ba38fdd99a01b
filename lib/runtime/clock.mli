(** The clock every scheme is written against.

    One {!Dangers_sim.Engine.t} does all the scheduling, on either
    runtime: the simulator, where time advances by fiat to each event,
    and the live runtime, where a {!Live_clock} wall-time driver fires
    the same engine as the monotonic clock catches up. Scheme code that
    schedules through this interface runs unmodified on both.

    Only {!now}, {!run} and {!run_for} look at which runtime this is;
    every other operation is the engine call itself. *)

module Engine = Dangers_sim.Engine

type t

type event_id = Engine.event_id
(** Handle for cancelling. *)

val of_engine : Engine.t -> t
(** A simulator clock over [engine]. *)

val of_live : Live_clock.t -> t
(** A wall clock over the driver's engine. *)

val now : t -> float
(** Simulated time, or monotonic seconds on a live clock. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** @raise Invalid_argument if [time] is in the past. *)

val schedule_unit : t -> delay:float -> (unit -> unit) -> unit
(** [schedule] for fire-and-forget callers (the executor's per-action
    delays, the network's arrivals). *)

val cancel : t -> event_id -> unit
val pending : t -> int
val next_time : t -> float option

val run : ?max_events:int -> ?until:float -> t -> unit
(** {!Engine.run} on a simulator clock, {!Live_clock.run} on a live one.
    Runaway overruns raise {!Engine.Runaway} on both. *)

val run_for : t -> float -> unit

val events_fired : t -> int
val queue_high_water : t -> int

(** {1 Tracing} — the engine's; no tracer, no cost. *)

val set_tracer : t -> Dangers_sim.Trace.t option -> unit
val tracer : t -> Dangers_sim.Trace.t option
val tracing : t -> bool
val trace : t -> Dangers_sim.Trace.event -> unit
