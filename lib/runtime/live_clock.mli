(** Wall-time driver for running scheme code outside the simulator.

    A live clock owns one {!Dangers_sim.Engine.t}, which keeps the event
    queue, the (time, then schedule-order) firing order, the counters
    and the tracer. The driver binds the engine's clock to the machine's
    monotonic clock: time 0 is the moment of [create], and an event
    scheduled at [~delay:d] fires once [d] real seconds have elapsed.
    Between due events the run loop either calls the installed
    {!set_idle_waiter} (a server parks in [select] there) or sleeps.

    Scheduling goes through the engine ({!engine}, or {!Clock.of_live}).
    Only the domain running {!run} may touch the engine. Other domains
    hand work over with {!post}; {!post} and {!stop} are the thread-safe
    entry points. *)

type t

val create : unit -> t
(** Time starts at 0, the moment of creation on the monotonic clock. *)

val engine : t -> Dangers_sim.Engine.t
(** The engine this driver fires. Its clock holds the wall time as of
    the run loop's last check and never moves backwards. *)

val now : t -> float
(** Monotonic seconds since [create], read between events too; never
    behind the engine's clock. *)

val post : t -> (unit -> unit) -> unit
(** Thread-safe: enqueue a closure to run on the clock's domain, at the
    current time, before the next timer event is considered. This is how
    another domain (or a socket-accept loop) injects work. *)

val set_idle_waiter : t -> (timeout:float -> unit) option -> unit
(** Called whenever the run loop has nothing due, with the number of
    seconds until the next timer event (capped; always finite and
    non-negative). A server blocks in [Unix.select] here and services
    I/O; returning early is always safe. Without a waiter the loop
    sleeps. *)

val stop : t -> unit
(** Thread-safe: make the current {!run} return after the event in
    flight. The queue is left intact. *)

val run : ?max_events:int -> ?until:float -> t -> unit
(** Fire events as real time catches up with them, until [until]
    passes or {!stop} is called. With [~until] the run parks until the
    deadline even when the queue is empty. With no [until], an empty
    queue ends the run only when no idle waiter is installed (a server
    with a waiter keeps serving until {!stop}). With [~max_events],
    raises {!Dangers_sim.Engine.Runaway} after that many events fire in
    this call. *)

val run_for : t -> float -> unit
(** [run_for t span] = [run t ~until:(now +. span)], where [now] is the
    engine's clock. *)
