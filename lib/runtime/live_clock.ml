(* The engine does the scheduling; this driver adds what it lacks for
   live use: a monotonic time source, a cross-domain mailbox, a stop
   flag, and a run loop that parks between due events. *)

module Engine = Dangers_sim.Engine

type t = {
  engine : Engine.t;
  origin : int64; (* monotonic ns at creation; wall time 0 *)
  mutable idle_waiter : (timeout:float -> unit) option;
  (* Cross-domain entry points. The flags let the single-domain hot loop
     skip the mutex when nothing external happened. *)
  mail_mutex : Mutex.t;
  mutable mailbox_rev : (unit -> unit) list;
  mail_flag : bool Atomic.t;
  stop_flag : bool Atomic.t;
}

let create () =
  {
    engine = Engine.create ();
    origin = Monotonic_clock.now ();
    idle_waiter = None;
    mail_mutex = Mutex.create ();
    mailbox_rev = [];
    mail_flag = Atomic.make false;
    stop_flag = Atomic.make false;
  }

let engine t = t.engine

let wall_now t =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.origin) *. 1e-9

let now t = Float.max (wall_now t) (Engine.now t.engine)

let post t thunk =
  Mutex.lock t.mail_mutex;
  t.mailbox_rev <- thunk :: t.mailbox_rev;
  Atomic.set t.mail_flag true;
  Mutex.unlock t.mail_mutex

let drain_posts t =
  if Atomic.get t.mail_flag then begin
    Mutex.lock t.mail_mutex;
    let posted = List.rev t.mailbox_rev in
    t.mailbox_rev <- [];
    Atomic.set t.mail_flag false;
    Mutex.unlock t.mail_mutex;
    List.iter (fun thunk -> thunk ()) posted
  end

let set_idle_waiter t waiter = t.idle_waiter <- waiter
let stop t = Atomic.set t.stop_flag true

(* The longest single park between checks of the stop flag and mailbox;
   select-based waiters return early on I/O anyway. *)
let max_idle = 0.05

let idle t span =
  let timeout = Float.min (Float.max span 0.) max_idle in
  match t.idle_waiter with
  | Some waiter -> waiter ~timeout
  | None -> if timeout > 0. then Unix.sleepf timeout

let run ?max_events ?until t =
  Atomic.set t.stop_flag false;
  let engine = t.engine in
  let limit = Option.value max_events ~default:max_int in
  let budget = ref limit in
  let horizon = Option.value until ~default:infinity in
  let continue = ref true in
  while !continue do
    if Atomic.get t.stop_flag then continue := false
    else begin
      drain_posts t;
      Engine.advance engine (wall_now t);
      let clock = Engine.now engine in
      match Engine.next_time engine with
      | Some time when time <= clock && time <= horizon ->
          if !budget = 0 then raise (Engine.Runaway limit);
          decr budget;
          ignore (Engine.step engine : bool)
      | Some time when time <= horizon ->
          (* Next event is in the real future: park until it is due. *)
          idle t (time -. clock)
      | Some _ | None ->
          if clock >= horizon then continue := false
          else if Float.is_finite horizon then idle t (horizon -. clock)
          else begin
            match t.idle_waiter with
            | None when not (Atomic.get t.mail_flag) ->
                (* Queue drained, nothing can wake us: the run is over. *)
                continue := false
            | None | Some _ -> idle t max_idle
          end
    end
  done

let run_for t span =
  if not (Float.is_finite span && span >= 0.) then
    invalid_arg "Live_clock.run_for: span must be finite and non-negative";
  run t ~until:(Engine.now t.engine +. span)
