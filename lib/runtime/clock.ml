module Engine = Dangers_sim.Engine

type t = { engine : Engine.t; wall : Live_clock.t option }
type event_id = Engine.event_id

let of_engine engine = { engine; wall = None }
let of_live live = { engine = Live_clock.engine live; wall = Some live }

let now t =
  match t.wall with
  | None -> Engine.now t.engine
  | Some live -> Live_clock.now live

let schedule t ~delay action = Engine.schedule t.engine ~delay action
let schedule_at t ~time action = Engine.schedule_at t.engine ~time action

let schedule_unit t ~delay action =
  ignore (Engine.schedule t.engine ~delay action : event_id)

let cancel t event = Engine.cancel t.engine event
let pending t = Engine.pending t.engine
let next_time t = Engine.next_time t.engine

let run ?max_events ?until t =
  match t.wall with
  | None -> Engine.run ?max_events ?until t.engine
  | Some live -> Live_clock.run ?max_events ?until live

let run_for t span =
  match t.wall with
  | None -> Engine.run_for t.engine span
  | Some live -> Live_clock.run_for live span

let events_fired t = Engine.events_fired t.engine
let queue_high_water t = Engine.queue_high_water t.engine
let set_tracer t tracer = Engine.set_tracer t.engine tracer
let tracer t = Engine.tracer t.engine
let tracing t = Engine.tracing t.engine
let trace t event = Engine.trace t.engine event
