(* The runtime abstraction's contract: the wall driver fires the engine
   in the engine's own order (equal-time ties, cancellations, nested
   schedules), its time really elapses, [post] and [stop] cross domains,
   and the two-tier scheme is deterministic on the simulator. *)

module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Live_clock = Dangers_runtime.Live_clock
module Codec = Dangers_runtime.Codec
module Params = Dangers_analytic.Params
module Two_tier = Dangers_core.Two_tier
module Common = Dangers_replication.Common
module Rng = Dangers_util.Rng
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- event order: the wall driver fires the engine's order --- *)

(* A deterministic little scheduling torture: nested schedules, equal
   times, cancellations, in units of [u] seconds. Runs against any
   Clock.t and logs what fired. On a wall clock a late [d] pushes [e]
   later by its lateness; [e] stays ahead of [a] unless [d] is more than
   0.75 u late. *)
let torture ~u clock =
  let log = ref [] in
  let fire tag () = log := (tag, Clock.now clock) :: !log in
  ignore (Clock.schedule clock ~delay:(2. *. u) (fire "a"));
  ignore (Clock.schedule clock ~delay:u (fire "b"));
  (* equal times fire in schedule order *)
  ignore (Clock.schedule clock ~delay:u (fire "c"));
  let doomed = Clock.schedule clock ~delay:(1.5 *. u) (fire "never") in
  Clock.cancel clock doomed;
  ignore
    (Clock.schedule clock ~delay:(0.5 *. u) (fun () ->
         fire "d" ();
         (* nested: scheduled mid-run, lands between pending events *)
         ignore (Clock.schedule clock ~delay:(0.75 *. u) (fire "e"));
         Clock.schedule_unit clock ~delay:(3. *. u) (fire "f")));
  Clock.run clock;
  List.rev !log

let test_wall_matches_engine () =
  let u = 0.04 in
  let sim = torture ~u (Clock.of_engine (Engine.create ())) in
  let wall = torture ~u (Clock.of_live (Live_clock.create ())) in
  Alcotest.(check (list string))
    "engine order" [ "d"; "b"; "c"; "e"; "a"; "f" ] (List.map fst sim);
  Alcotest.(check (list string))
    "same order on the wall" (List.map fst sim) (List.map fst wall);
  List.iter2
    (fun (tag, t_s) (_, t_w) ->
      checkb (tag ^ " fired no earlier than on the engine") true (t_w >= t_s))
    sim wall

let test_wall_run_until () =
  let clock = Clock.of_live (Live_clock.create ()) in
  let fired = ref 0 in
  ignore (Clock.schedule clock ~delay:0.01 (fun () -> incr fired));
  ignore (Clock.schedule clock ~delay:0.2 (fun () -> incr fired));
  Clock.run clock ~until:0.05;
  checki "only the due event fired" 1 !fired;
  let parked = Clock.now clock in
  checkb "clock parked at the deadline" true (parked >= 0.05 && parked < 0.2);
  checki "later event still queued" 1 (Clock.pending clock);
  Clock.run clock;
  checki "rest fired on resume" 2 !fired

let test_wall_mode_elapses () =
  let live = Live_clock.create () in
  let clock = Clock.of_live live in
  let fired_at = ref nan in
  ignore (Clock.schedule clock ~delay:0.02 (fun () -> fired_at := Clock.now clock));
  Clock.run clock;
  checkb "timer waited for real time" true (!fired_at >= 0.02);
  checkb "did not oversleep wildly" true (!fired_at < 1.);
  checkb "clock monotone past the event" true (Clock.now clock >= !fired_at)

let test_wall_stop_is_thread_safe () =
  let live = Live_clock.create () in
  (* With an idle waiter and an empty queue, only stop ends the run. *)
  Live_clock.set_idle_waiter live (Some (fun ~timeout:_ -> ()));
  let stopper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Live_clock.stop live)
  in
  Live_clock.run live;
  Domain.join stopper;
  checkb "returned after stop" true true

let test_post_crosses_domains () =
  let live = Live_clock.create () in
  let hits = Atomic.make 0 in
  Live_clock.set_idle_waiter live (Some (fun ~timeout:_ -> ()));
  let poster =
    Domain.spawn (fun () ->
        for _ = 1 to 100 do
          Live_clock.post live (fun () -> Atomic.incr hits)
        done;
        Unix.sleepf 0.05;
        Live_clock.post live (fun () -> Live_clock.stop live))
  in
  Live_clock.run live;
  Domain.join poster;
  checki "all posted closures ran on the clock domain" 100 (Atomic.get hits)

(* --- codec --- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.put_u8 buf 7;
  Codec.put_u16 buf 65535;
  Codec.put_u32 buf 123_456_789;
  Codec.put_f64 buf (-0.1);
  Codec.put_string buf "hello";
  let frame = Codec.frame buf in
  (* 4-byte length prefix + payload *)
  checki "frame length" (4 + 1 + 2 + 4 + 8 + 2 + 5) (String.length frame);
  let payload = String.sub frame 4 (String.length frame - 4) in
  let r = Codec.reader payload in
  checki "u8" 7 (Codec.get_u8 r);
  checki "u16" 65535 (Codec.get_u16 r);
  checki "u32" 123_456_789 (Codec.get_u32 r);
  checkb "f64 exact" true (Codec.get_f64 r = -0.1);
  Alcotest.check Alcotest.string "string" "hello" (Codec.get_string r);
  Codec.expect_end r;
  Alcotest.check_raises "trailing garbage detected"
    (Codec.Malformed "1 trailing bytes after a complete message")
    (fun () ->
      let r = Codec.reader "\x00\x01" in
      ignore (Codec.get_u8 r);
      Codec.expect_end r)

(* --- two-tier determinism on the simulator --- *)

type counts = {
  commits : int;
  tentative_commits : int;
  accepted : int;
  rejected : int;
  scope_violations : int;
  syncs : int;
}

(* A fixed-seed churning-mobile workload, driven entirely through the
   Clock interface. *)
let run_two_tier clock =
  let params =
    {
      Params.default with
      Params.nodes = 6;
      db_size = 40;
      tps = 2.;
      actions = 2;
      action_time = 0.01;
      time_between_disconnects = 20.;
      disconnected_time = 15.;
    }
  in
  let sys = Two_tier.create ~clock ~base_nodes:3 params ~seed:11 in
  let clock = (Two_tier.base sys).Common.clock in
  let rng = Rng.create ~seed:99 in
  (* Interleave explicit submissions (numbered nodes, mixed ops) with
     generator load from [start]. *)
  Two_tier.start sys;
  for round = 1 to 40 do
    let node = Rng.int rng params.Params.nodes in
    let oid = Oid.of_int (Rng.int rng params.Params.db_size) in
    let delta = float_of_int (1 + Rng.int rng 8) *. 0.5 in
    Two_tier.submit sys ~node [ Op.Increment (oid, delta) ];
    Clock.run clock ~until:(float_of_int round *. 2.)
  done;
  Two_tier.quiesce_and_sync sys;
  {
    commits = (Two_tier.summary sys).Dangers_replication.Repl_stats.commits;
    tentative_commits = Two_tier.tentative_commits sys;
    accepted = Two_tier.tentative_accepted sys;
    rejected = Two_tier.tentative_rejected sys;
    scope_violations = Two_tier.scope_violations sys;
    syncs = Two_tier.syncs sys;
  }

let test_two_tier_sim_determinism () =
  let a = run_two_tier (Clock.of_engine (Engine.create ())) in
  let b = run_two_tier (Clock.of_engine (Engine.create ())) in
  checkb "workload actually exercised the mobile path" true
    (a.tentative_commits > 0 && a.syncs > 0 && a.commits > 0);
  checkb "sim deterministic" true (a = b)

let suite =
  [
    Alcotest.test_case "wall driver matches the engine event-for-event" `Quick
      test_wall_matches_engine;
    Alcotest.test_case "wall run ~until parks at the deadline" `Quick
      test_wall_run_until;
    Alcotest.test_case "wall mode waits for real time" `Quick
      test_wall_mode_elapses;
    Alcotest.test_case "wall stop from another domain" `Quick
      test_wall_stop_is_thread_safe;
    Alcotest.test_case "post crosses domains" `Quick test_post_crosses_domains;
    Alcotest.test_case "codec round-trips and rejects garbage" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "two-tier: each runtime is deterministic" `Quick
      test_two_tier_sim_determinism;
  ]
