(* The event queue is the hottest loop of every simulation: an eager run at
   nodes=10 fires tens of millions of events. The engine therefore keeps its
   own inline binary min-heap over parallel arrays instead of a generic
   polymorphic heap of event records:

   - [times] is a plain [float array] (unboxed floats), so the key compare
     in sift operations is a raw float compare, not two closure calls into a
     polymorphic [cmp].
   - [seqs] breaks ties so equal-time events fire in schedule order, as
     before.
   - The only per-event allocation is the two-field handle given back to the
     caller ([action] plus the [cancelled] flag); the time and sequence live
     only in the heap arrays.
   - Sift up/down move a hole instead of swapping, and [step]/[run] never
     allocate an [option]. *)

type event = { action : unit -> unit; mutable cancelled : bool }
type event_id = event

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable live : int;
  (* binary min-heap over (times.(i), seqs.(i)), [size] live entries *)
  mutable times : float array;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  mutable high_water : int;
  mutable trace : Trace.t option;
}

(* Allocated per call: heap slots briefly alias the filler event, and
   engines may live on different domains — a single shared record
   would be cross-domain mutable state. *)
let dummy_event () = { action = ignore; cancelled = true }

let create () =
  {
    clock = 0.;
    next_seq = 0;
    fired = 0;
    live = 0;
    times = Array.make 16 0.;
    seqs = Array.make 16 0;
    evs = Array.make 16 (dummy_event ());
    size = 0;
    high_water = 0;
    trace = None;
  }

let now t = t.clock

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0. in
  let seqs = Array.make cap' 0 in
  let evs = Array.make cap' (dummy_event ()) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

let push t time seq ev =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  if t.size > t.high_water then t.high_water <- t.size;
  (* bubble a hole up from the new slot, then drop the event in *)
  let i = ref (t.size - 1) in
  let placed = ref false in
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let parent = (!i - 1) / 2 in
      let pt = t.times.(parent) in
      if time < pt || (Float.equal time pt && seq < t.seqs.(parent)) then begin
        t.times.(!i) <- pt;
        t.seqs.(!i) <- t.seqs.(parent);
        t.evs.(!i) <- t.evs.(parent);
        i := parent
      end
      else placed := true
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.evs.(!i) <- ev

(* Remove the root. The last entry re-enters at the root and a hole sifts
   down ahead of it; [evs] slots past [size] are reset so the engine never
   pins dead events (and their closures) against the GC. *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then t.evs.(0) <- dummy_event ()
  else begin
    let time = t.times.(n) and seq = t.seqs.(n) and ev = t.evs.(n) in
    t.evs.(n) <- dummy_event ();
    let i = ref 0 in
    let placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.times.(r) < t.times.(l)
               || (Float.equal t.times.(r) t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (Float.equal ct time && t.seqs.(c) < seq) then begin
          t.times.(!i) <- ct;
          t.seqs.(!i) <- t.seqs.(c);
          t.evs.(!i) <- t.evs.(c);
          i := c
        end
        else placed := true
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.evs.(!i) <- ev
  end

let schedule_at t ~time action =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let event = { action; cancelled = false } in
  push t time t.next_seq event;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  event

let schedule t ~delay action =
  if not (Float.is_finite delay && delay >= 0.) then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  schedule_at t ~time:(t.clock +. delay) action

let cancel t event =
  if not event.cancelled then begin
    event.cancelled <- true;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Forward only. On the simulator an event's time is never behind the
   clock, so from [step] this is a plain assignment; a wall-time driver
   that has already advanced past a late event keeps its clock. *)
let advance t time = if time > t.clock then t.clock <- time

(* Cancelled roots are popped eagerly so the answer is the time of an event
   that will actually fire; this keeps the parallel engine's window bound
   (the global minimum of these) exact rather than pessimistic. *)
let rec next_time t =
  if t.size = 0 then None
  else if t.evs.(0).cancelled then begin
    remove_min t;
    next_time t
  end
  else Some t.times.(0)

let rec step t =
  if t.size = 0 then false
  else begin
    let event = t.evs.(0) in
    let time = t.times.(0) in
    remove_min t;
    if event.cancelled then step t
    else begin
      (* Mark fired events as no longer live so a later [cancel] (e.g. a
         schedule stopped from inside its own callback) stays a no-op
         instead of corrupting the live count. *)
      event.cancelled <- true;
      t.live <- t.live - 1;
      advance t time;
      t.fired <- t.fired + 1;
      event.action ();
      true
    end
  end

exception Runaway of int

let run ?max_events ?until t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let tick () =
    if !budget = 0 then
      raise (Runaway (match max_events with Some n -> n | None -> max_int));
    decr budget
  in
  match until with
  | None ->
      let continue = ref true in
      while !continue do
        tick ();
        if not (step t) then continue := false
      done
  | Some deadline ->
      let rec loop () =
        if t.size > 0 then
          if t.evs.(0).cancelled then begin
            remove_min t;
            loop ()
          end
          else if t.times.(0) <= deadline then begin
            tick ();
            ignore (step t);
            loop ()
          end
      in
      loop ();
      advance t deadline

let run_for t span =
  if not (Float.is_finite span && span >= 0.) then
    invalid_arg "Engine.run_for: span must be finite and non-negative";
  run t ~until:(t.clock +. span)

let events_fired t = t.fired
let queue_high_water t = t.high_water

let set_tracer t tracer = t.trace <- tracer
let tracer t = t.trace
let tracing t = match t.trace with Some _ -> true | None -> false

let trace t event =
  match t.trace with
  | Some tr -> Trace.record tr ~now:t.clock event
  | None -> ()
