(* The observability layer: metrics registry, profiling, warn-once counters,
   and the guarantee that observing a run does not change its results. *)

module Json = Dangers_obs.Json
module Metrics = Dangers_obs.Metrics
module Profiling = Dangers_obs.Profiling
module Warnings = Dangers_obs.Warnings
module Observe = Dangers_sim.Observe
module Trace = Dangers_sim.Trace
module Scheme = Dangers_experiments.Scheme
module Params = Dangers_analytic.Params
module Sweep = Dangers_runner.Sweep
module Common = Dangers_replication.Common
module Eager_group = Dangers_replication.Eager_group

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let test_counters_and_gauges () =
  let t = Metrics.create () in
  let c = Metrics.counter t "hits" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter value" 5 (Metrics.counter_value c);
  let c' = Metrics.counter t "hits" in
  Metrics.incr c';
  checki "interned handle" 6 (Metrics.counter_value c);
  let g = Metrics.gauge t "depth" in
  Metrics.set_gauge g 2.;
  Metrics.max_gauge g 7.;
  Metrics.max_gauge g 3.;
  Alcotest.check (Alcotest.float 0.) "max gauge" 7. (Metrics.gauge_value g);
  let s = Metrics.snapshot t in
  checki "snapshot counter" 6
    (Option.get (Metrics.snapshot_counter s "hits"));
  Alcotest.check (Alcotest.float 0.) "snapshot gauge" 7.
    (Option.get (Metrics.snapshot_gauge s "depth"))

let test_counter_window () =
  let t = Metrics.create () in
  let c = Metrics.counter t "x" in
  Metrics.add c 5;
  checki "no window yet: the lifetime" 5 (Metrics.window_value c);
  Metrics.start_window t;
  checki "window reset" 0 (Metrics.window_value c);
  Metrics.incr c;
  let late = Metrics.counter t "late" in
  Metrics.incr late;
  checki "window read after start_window" 1 (Metrics.window_value c);
  checki "counter created inside the window" 1 (Metrics.window_value late)

let test_counter_lifetime_kept () =
  let t = Metrics.create () in
  let c = Metrics.counter t "x" in
  Metrics.add c 3;
  Metrics.start_window t;
  Metrics.add c 4;
  Metrics.start_window t;
  Metrics.incr c;
  checki "window since the last start" 1 (Metrics.window_value c);
  checki "lifetime kept" 8 (Metrics.counter_value c);
  checki "snapshots report the lifetime" 8
    (Option.get (Metrics.snapshot_counter (Metrics.snapshot t) "x"))

let test_histogram_buckets () =
  let t = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] t "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.9; 100. ];
  let s = Metrics.snapshot t in
  let hs = Option.get (Metrics.snapshot_histogram s "lat") in
  checki "total count" 5 hs.Metrics.hs_count;
  Alcotest.check
    (Alcotest.array Alcotest.int)
    "bucket counts (<=1, <=2, <=4, overflow)" [| 2; 1; 1; 1 |]
    hs.Metrics.hs_counts;
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Metrics.histogram: buckets must increase strictly")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 1.; 1. |] t "bad"))

let test_sources_merge () =
  let t = Metrics.create () in
  (* Two sources reporting the same counter accumulate; gauges keep max. *)
  Metrics.register_source t (fun () ->
      [ Metrics.Count ("waits", 3); Metrics.Gauge ("hw", 5.) ]);
  Metrics.register_source t (fun () ->
      [ Metrics.Count ("waits", 4); Metrics.Gauge ("hw", 2.) ]);
  let c = Metrics.counter t "waits" in
  Metrics.add c 10;
  let s = Metrics.snapshot t in
  checki "push + pull accumulate" 17
    (Option.get (Metrics.snapshot_counter s "waits"));
  Alcotest.check (Alcotest.float 0.) "gauge max across sources" 5.
    (Option.get (Metrics.snapshot_gauge s "hw"))

let test_snapshot_json_roundtrip () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "a") 3;
  Metrics.set_gauge (Metrics.gauge t "g") 1.25;
  Metrics.observe (Metrics.histogram ~buckets:[| 0.5; 1.5 |] t "h") 1.;
  Metrics.record_phase t
    {
      Profiling.phase = "demo";
      wall_seconds = 0.25;
      minor_words = 10.;
      major_words = 2.;
      promoted_words = 1.;
    };
  let s = Metrics.snapshot t in
  let s' = Metrics.snapshot_of_json (Metrics.snapshot_to_json s) in
  checkb "round-trips" true (s = s');
  Alcotest.check_raises "schema checked"
    (Json.Parse_error "unsupported metrics schema \"nope\"") (fun () ->
      ignore
        (Metrics.snapshot_of_json
           (Json.Obj [ ("schema", Json.Str "nope") ])))

let test_warnings_warn_once () =
  Warnings.reset ();
  checki "starts at zero" 0 (Warnings.total ());
  for _ = 1 to 3 do
    Warnings.warn ~key:"test.once" "something odd"
  done;
  Warnings.warn ~key:"test.other" "another thing";
  checki "every hit counted" 4 (Warnings.total ());
  checki "per key" 3 (Warnings.count ~key:"test.once");
  checki "other key" 1 (Warnings.count ~key:"test.other");
  let t = Metrics.create () in
  let s = Metrics.snapshot t in
  checki "surfaced in snapshots" 4 s.Metrics.s_warnings_total;
  Warnings.reset ();
  checki "reset" 0 (Warnings.total ())

let test_profiling_timed () =
  let result, p =
    Profiling.timed "work" (fun () ->
        (* allocate something measurable, fenced from the optimizer *)
        List.length (Sys.opaque_identity (List.init 10_000 (fun i -> i))))
  in
  checki "result passed through" 10_000 result;
  checks "phase name" "work" p.Profiling.phase;
  checkb "wall clock non-negative" true (p.Profiling.wall_seconds >= 0.);
  checkb "allocated" true (Profiling.allocated_words p > 0.);
  let p' = Profiling.of_json (Profiling.to_json p) in
  checkb "json round-trips" true (p = p')

(* Observing must not perturb the simulation: same spec + seed give the
   same summary and diagnostics with and without a registry + tracer
   attached. This is the CLI's byte-identical promise. *)
let test_observed_runs_identical () =
  let params = { Params.default with Params.nodes = 3 } in
  let spec = Scheme.spec params in
  List.iter
    (fun scheme ->
      let plain =
        Scheme.run_outcome scheme spec ~seed:42 ~warmup:1. ~span:5.
      in
      let registry = Metrics.create () in
      let tracer = Trace.create () in
      let observed =
        Observe.with_observation ~obs:registry ~tracer (fun () ->
            Scheme.run_outcome scheme spec ~seed:42 ~warmup:1. ~span:5.)
      in
      checkb
        (Scheme.name scheme ^ " summary identical when observed")
        true
        (plain.Scheme.summary = observed.Scheme.summary
        && plain.Scheme.diagnostics = observed.Scheme.diagnostics);
      (* And the observation actually saw the run. *)
      let s = Metrics.snapshot registry in
      checkb
        (Scheme.name scheme ^ " engine events observed")
        true
        (match Metrics.snapshot_counter s "engine.events_fired_total" with
        | Some n -> n > 0
        | None -> false))
    Scheme.all

(* The exported snapshot of one fixed-seed run per registered scheme,
   pinned against test/metrics_golden.jsonl: counters, gauges and
   histograms only — phases are host timings and [warnings_total] is
   process-wide. *)
let golden_line scheme =
  let params = { Params.default with Params.nodes = 4; db_size = 200; tps = 2. } in
  let task =
    Sweep.Scheme_task
      { scheme; spec = Scheme.spec params; seed = 42; warmup = 5.; span = 20. }
  in
  match Sweep.run_observed [ task ] with
  | [ (_, o) ] ->
      let json = Metrics.snapshot_to_json o.Sweep.o_snapshot in
      Json.to_string
        (Json.Obj
           (("scheme", Json.Str scheme)
           :: List.map
                (fun key -> (key, Json.member key json))
                [ "counters"; "gauges"; "histograms" ]))
  | _ -> assert false

let test_snapshot_golden () =
  let ic = open_in_bin "metrics_golden.jsonl" in
  let expected = In_channel.input_all ic in
  close_in ic;
  let actual =
    String.concat "" (List.map (fun s -> golden_line s ^ "\n") (Scheme.names ()))
  in
  checks "snapshots match the golden file" expected actual

(* An experiment builds many systems under one shared registry: each
   system's summary counts only its own events, the snapshot their sum. *)
let test_shared_registry () =
  let params = { Params.default with Params.nodes = 3; db_size = 100 } in
  let run seed =
    let sys = Eager_group.create params ~seed in
    Eager_group.start sys;
    Common.measure (Eager_group.base sys) ~warmup:1. ~span:10.;
    sys
  in
  let registry = Metrics.create () in
  let observed =
    Observe.with_observation ~obs:registry (fun () -> [ run 1; run 2 ])
  in
  List.iter2
    (fun sys seed ->
      checkb "summary equals the unobserved run" true
        (Eager_group.summary sys = Eager_group.summary (run seed)))
    observed [ 1; 2 ];
  let total sys =
    Metrics.counter_value (Eager_group.base sys).Common.stats.commits
  in
  checkb "both systems committed" true (List.for_all (fun s -> total s > 0) observed);
  checki "snapshot sums both systems"
    (List.fold_left (fun acc s -> acc + total s) 0 observed)
    (Option.get
       (Metrics.snapshot_counter (Metrics.snapshot registry) "scheme.commits_total"))

let test_scheme_find_underscores () =
  checkb "underscore spelling" true
    (match Scheme.find "eager_group" with
    | Some s -> String.equal (Scheme.name s) "eager-group"
    | None -> false);
  checkb "case folded too" true
    (match Scheme.find "Two_Tier" with
    | Some s -> String.equal (Scheme.name s) "two-tier"
    | None -> false)

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "metrics counters and window" `Quick test_counter_window;
    Alcotest.test_case "metrics lifetime kept across windows" `Quick
      test_counter_lifetime_kept;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "sources merge" `Quick test_sources_merge;
    Alcotest.test_case "snapshot json round-trip" `Quick
      test_snapshot_json_roundtrip;
    Alcotest.test_case "warnings warn once" `Quick test_warnings_warn_once;
    Alcotest.test_case "profiling timed" `Quick test_profiling_timed;
    Alcotest.test_case "observed runs identical" `Slow
      test_observed_runs_identical;
    Alcotest.test_case "snapshot golden" `Quick test_snapshot_golden;
    Alcotest.test_case "shared registry" `Quick test_shared_registry;
    Alcotest.test_case "scheme find underscores" `Quick
      test_scheme_find_underscores;
  ]
