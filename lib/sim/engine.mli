(** Discrete-event simulation engine.

    A single simulated clock and a priority queue of events. Everything in
    the replication simulator — transaction actions taking Action_Time,
    replica-update message delays, mobile disconnect/reconnect cycles,
    Poisson arrivals — is an event scheduled here. The engine is
    single-threaded and deterministic: equal-time events fire in the order
    they were scheduled. Time is in seconds. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t

val now : t -> float
(** Current simulated time; starts at 0. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant. @raise Invalid_argument if [time] is in the
    simulated past. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val next_time : t -> float option
(** Simulated time of the next event that will actually fire, or [None] on
    an empty (or all-cancelled) queue. The conservative parallel engine
    uses the minimum of these across partitions as its window bound. *)

val advance : t -> float -> unit
(** [advance t time] moves the clock forward to [time]; a no-op when
    [time] is not later than [now t]. For a driver that binds the engine
    to an outside time source, as the live runtime binds it to the wall
    clock. *)

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. The clock
    moves forward to the event's time and never back: an event left
    behind by {!advance} fires at the current time. *)

exception Runaway of int
(** Raised by {!run} when [max_events] fire without draining the queue —
    almost always a self-rescheduling loop (a connectivity schedule or
    generator left running before a drain). Failing fast beats hanging. *)

val run : ?max_events:int -> ?until:float -> t -> unit
(** Drain the queue. With [~until], stops (leaving later events queued) once
    the next event lies beyond [until] and sets the clock to [until]. With
    [~max_events], raises {!Runaway} after that many events fire in this
    call. *)

val run_for : t -> float -> unit
(** [run_for t span] = [run t ~until:(now t +. span)]. *)

val events_fired : t -> int
(** Total events executed since creation; a cheap progress/work measure.
    Events per second of wall time — the throughput number the
    microbenchmarks report — is this divided by elapsed real time. *)

val queue_high_water : t -> int
(** Largest number of queued events (including cancelled ones not yet
    popped) ever reached; a cheap memory-pressure measure. *)

(** {1 Tracing}

    Components built over the engine (the transaction executor, the
    network) record into the attached trace, if any; no tracer, no cost. *)

val set_tracer : t -> Trace.t option -> unit
val tracer : t -> Trace.t option

val tracing : t -> bool
(** Whether a tracer is attached. Hot paths check this before building a
    {!Trace.event}, so the no-tracer case allocates nothing. *)

val trace : t -> Trace.event -> unit
(** Record at the current simulated time; no-op without a tracer. *)
