(* The benchmark's probe: one process, one job, one JSON line on stdout.

   [probe sim] configures and runs fixed simulations through the scheme
   registry; [probe hello] waits until a live server answers [Hello];
   [probe churn] drives a running server with the closed-loop §7 churn,
   then shuts it down.
   Everything is timed from here, around calls into the repository's
   public functions, so the program under test is never modified. The
   orchestration, statistics and output checks live in run.py. *)

module Json = Dangers_obs.Json
module Obs = Dangers_obs.Metrics
module Params = Dangers_analytic.Params
module Scheme = Dangers_experiments.Scheme
module Sweep = Dangers_runner.Sweep
module Observe = Dangers_sim.Observe
module Repl_stats = Dangers_replication.Repl_stats
module Protocol = Dangers_live.Protocol
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Rng = Dangers_util.Rng

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
let num = Json.of_float
let int = Json.int_

let emit fields =
  print_string (Json.to_string (Json.Obj fields));
  print_newline ()

let parse name argv specs =
  let usage = Printf.sprintf "probe %s [options]" name in
  try
    Arg.parse_argv ~current:(ref 0) argv (Arg.align specs)
      (fun extra -> raise (Arg.Bad ("unexpected argument " ^ extra)))
      usage
  with
  | Arg.Bad message ->
      prerr_string message;
      exit 2
  | Arg.Help message ->
      print_string message;
      exit 0

(* Peak resident memory of a process, in MB: the [VmHWM] line of its
   [/proc/PID/status]. The kernel's rusage figure for a child would also
   count the benchmark's own Python process, which the child was forked
   from. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Time the hypervisor took from each core, in clock ticks: the steal
   column of every [cpuN] line of [/proc/stat], in core order. *)
let steal_ticks () =
  let ic = open_in "/proc/stat" in
  let rec scan acc =
    match input_line ic with
    | line when String.length line > 3 && String.sub line 0 3 = "cpu" && line.[3] <> ' ' ->
        let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
        scan (int_of_string (List.nth fields 8) :: acc)
    | _ -> scan acc
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan [])

(* Growable sample buffer. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_list t = Array.to_list (Array.sub t.data 0 t.len)
end

(* --- probe sim --- *)

let summary_json (s : Repl_stats.summary) =
  Json.Obj
    [
      ("commits", int s.commits);
      ("waits", int s.waits);
      ("deadlocks", int s.deadlocks);
      ("restarts", int s.restarts);
      ("reconciliations", int s.reconciliations);
      ("window", num s.window);
      ("mean_duration", num s.mean_duration);
    ]

let outcome_fields (o : Scheme.outcome) =
  [
    ("summary", summary_json o.summary);
    ( "diagnostics",
      Json.Obj (List.map (fun (k, v) -> (k, num v)) o.diagnostics) );
  ]

let sim argv =
  let schemes = ref "" and nodes = ref 1 and db_size = ref 1000 in
  let tps = ref Params.default.tps and warmup = ref 0. and spans = ref "30" in
  let seed = ref 1 and domains = ref 1 in
  let observed = ref false and setup_only = ref false in
  parse "sim" argv
    [
      ("--schemes", Arg.Set_string schemes, "NAMES comma-separated registry names, run in order");
      ("--nodes", Arg.Set_int nodes, "N nodes");
      ("--db-size", Arg.Set_int db_size, "N objects");
      ("--tps", Arg.Set_float tps, "X transactions per second per node");
      ("--warmup", Arg.Set_float warmup, "S simulated warmup seconds");
      ("--span", Arg.Set_string spans, "S,.. simulated measured seconds, one per scheme");
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ("--domains", Arg.Set_int domains, "N simulation domains");
      ("--observed", Arg.Set observed, " run through Sweep.run_observed and report its snapshot");
      ("--setup-only", Arg.Set setup_only, " exit once every scheme is configured");
    ];
  let params =
    { Params.default with nodes = !nodes; db_size = !db_size; tps = !tps }
  in
  let spec = Scheme.spec params in
  let seed = !seed and warmup = !warmup in
  let names = String.split_on_char ',' !schemes in
  let spans = List.map float_of_string (String.split_on_char ',' !spans) in
  if List.length names <> List.length spans then begin
    prerr_endline "probe sim: --schemes and --span differ in length";
    exit 2
  end;
  (* Set-up ends when the last scheme is configured; building the
     simulated system happens inside run_outcome and is timed there. *)
  let configured =
    List.map2
      (fun name span ->
        let (module S : Scheme.SCHEME) = Scheme.named name in
        let config = S.configure spec in
        (name, span, fun () -> S.run_outcome config ~seed ~warmup ~span))
      names spans
  in
  let configured_at = Unix.gettimeofday () in
  if !setup_only then emit [ ("configured_at", num configured_at) ]
  else
    let run_one (name, span, run_outcome) =
      if !observed then
        let task = Sweep.Scheme_task { scheme = name; spec; seed; warmup; span } in
        let t0 = now_ns () in
        match Sweep.run_observed ~sim_domains:!domains [ task ] with
        | [ (Sweep.Scheme_item { outcome; _ }, observation) ] ->
            let wall = seconds_since t0 in
            Json.Obj
              ([ ("scheme", Json.Str name); ("run_s", num wall) ]
              @ outcome_fields outcome
              @ [
                  ( "snapshot",
                    Obs.snapshot_to_json observation.Sweep.o_snapshot );
                ])
        | _ -> failwith "probe sim: run_observed returned no scheme item"
      else
        let t0 = now_ns () in
        let outcome = Observe.with_domains !domains run_outcome in
        let wall = seconds_since t0 in
        Json.Obj
          ([ ("scheme", Json.Str name); ("run_s", num wall) ]
          @ outcome_fields outcome)
    in
    let runs = List.map run_one configured in
    emit
      [
        ("configured_at", num configured_at);
        ("runs", Json.Arr runs);
        ("peak_rss_mb", num (peak_rss_mb "self"));
      ]

(* --- live client plumbing --- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let recv_response fd =
  match Protocol.recv fd Protocol.response with
  | Some response -> response
  | None -> failwith "server closed the connection"

(* --- probe hello --- *)

(* How long [probe hello] keeps trying to connect to a starting server. *)
let hello_timeout = 60.

let hello argv =
  let socket = ref "" and shutdown = ref false in
  parse "hello" argv
    [
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--shutdown", Arg.Set shutdown, " send Shutdown once Hello is answered");
    ];
  let deadline = Unix.gettimeofday () +. hello_timeout in
  let rec attempt () =
    match connect !socket with
    | fd -> fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.0005;
        attempt ()
  in
  let fd = attempt () in
  Protocol.send fd Protocol.request Protocol.Hello;
  let response = recv_response fd in
  let hello_at = Unix.gettimeofday () in
  (match response with
  | Protocol.Assigned _ -> ()
  | _ -> failwith "probe hello: Hello was not answered with Assigned");
  if !shutdown then begin
    Protocol.send fd Protocol.request Protocol.Shutdown;
    match recv_response fd with
    | Protocol.Done -> ()
    | _ -> failwith "probe hello: Shutdown was not answered with Done"
  end;
  Unix.close fd;
  emit [ ("hello_at", num hello_at) ]

(* --- probe churn --- *)

(* The churn every serve-churn pass drives: [clients] connections, one
   domain each, each a closed loop of [cycles] cycles of [burst] submits of
   [ops] increments. *)
let clients = 2
let cycles = 100
let burst = 50
let ops = 2

let kinds = [| "hello"; "set_connected"; "submit"; "sync"; "query"; "metrics_snapshot" |]
let k_hello = 0
let k_set_connected = 1
let k_submit = 2
let k_sync = 3
let k_query = 4
let k_scrape = 5

type client = {
  fd : Unix.file_descr;
  send_s : Samples.t array;  (** per kind: time inside Protocol.send *)
  wait_s : Samples.t array;  (** per kind: time inside Protocol.recv *)
  ledger : float array;  (** this client's increments, per object *)
  mutable unexpected : int;  (** replies of the wrong kind *)
  mutable errors : string list;
  mutable tentative : int;
  mutable depth_max : float;
}

let make_client path ~db_size =
  {
    fd = connect path;
    send_s = Array.init (Array.length kinds) (fun _ -> Samples.create ());
    wait_s = Array.init (Array.length kinds) (fun _ -> Samples.create ());
    ledger = Array.make db_size 0.;
    unexpected = 0;
    errors = [];
    tentative = 0;
    depth_max = 0.;
  }

let rpc c kind request =
  let t0 = now_ns () in
  Protocol.send c.fd Protocol.request request;
  let sent = seconds_since t0 in
  let t1 = now_ns () in
  let response = recv_response c.fd in
  Samples.add c.send_s.(kind) sent;
  Samples.add c.wait_s.(kind) (seconds_since t1);
  response

(* Untimed: bookkeeping requests outside the churn mix. *)
let call c request =
  Protocol.send c.fd Protocol.request request;
  recv_response c.fd

let expect c ok response = if not (ok response) then c.unexpected <- c.unexpected + 1

let query c oid =
  match rpc c k_query (Protocol.Query (Oid.of_int oid)) with
  | Protocol.Value v -> v
  | _ ->
      c.unexpected <- c.unexpected + 1;
      Float.nan

(* The master value, untimed: read before and after the churn. *)
let master c oid =
  match call c (Protocol.Query (Oid.of_int oid)) with
  | Protocol.Value v -> v
  | _ ->
      c.unexpected <- c.unexpected + 1;
      Float.nan

let scrape c =
  match rpc c k_scrape Protocol.Metrics_snapshot with
  | Protocol.Metrics_json text -> Some (Obs.snapshot_of_json (Json.of_string text))
  | _ ->
      c.unexpected <- c.unexpected + 1;
      None

(* Two increments on distinct objects, like a mobile sales rep's order:
   every object is base-mastered, so every tentative transaction is in
   scope and must be accepted on replay. *)
let gen_ops rng ~db_size =
  Rng.sample_without_replacement rng ~n:db_size ~k:(min ops db_size)
  |> Array.to_list
  |> List.map (fun i ->
         Op.Increment (Oid.of_int i, float_of_int (1 + Rng.int rng 8) *. 0.25))

(* One mobile user, closed loop: each request waits for its reply. *)
let churn_loop c ~rng ~db_size ~scrape_every =
  try
    for cycle = 1 to cycles do
      expect c (( = ) Protocol.Done) (rpc c k_set_connected (Protocol.Set_connected false));
      for _ = 1 to burst do
        let txn = gen_ops rng ~db_size in
        (match rpc c k_submit (Protocol.Submit txn) with
        | Protocol.Tentative -> c.tentative <- c.tentative + 1
        | _ -> c.unexpected <- c.unexpected + 1);
        List.iter
          (function
            | Op.Increment (oid, by) ->
                let i = Oid.to_int oid in
                c.ledger.(i) <- c.ledger.(i) +. by
            | _ -> ())
          txn
      done;
      if scrape_every > 0 && cycle mod scrape_every = 0 then
        Option.iter
          (fun s ->
            Option.iter
              (fun d -> c.depth_max <- Float.max c.depth_max d)
              (Obs.snapshot_gauge s "two_tier.tentative_queue_depth"))
          (scrape c);
      expect c (( = ) Protocol.Synced) (rpc c k_sync Protocol.Sync);
      ignore (query c (Rng.int rng db_size))
    done
  with
  | Failure message -> c.errors <- message :: c.errors
  | Unix.Unix_error (err, fn, _) ->
      c.errors <- Printf.sprintf "%s: %s" fn (Unix.error_message err) :: c.errors
  | Dangers_runtime.Codec.Malformed message ->
      c.errors <- ("malformed reply: " ^ message) :: c.errors

(* The run's request/response mix, encoded and decoded again through the
   protocol codec with no socket in between. *)
let codec_replay (counts : int array) ~db_size =
  let rng = Rng.create ~seed:1 in
  let pairs kind =
    if kind = k_hello then (Protocol.Hello, Protocol.Assigned { node = 8; base_nodes = 8; nodes = 16 })
    else if kind = k_set_connected then (Protocol.Set_connected false, Protocol.Done)
    else if kind = k_submit then (Protocol.Submit (gen_ops rng ~db_size), Protocol.Tentative)
    else if kind = k_sync then (Protocol.Sync, Protocol.Synced)
    else (Protocol.Query (Oid.of_int 1), Protocol.Value 1.25)
  in
  let mix =
    List.concat_map
      (fun kind -> List.init counts.(kind) (fun _ -> pairs kind))
      [ k_hello; k_set_connected; k_submit; k_sync; k_query ]
  in
  let encoded = ref [] in
  let t0 = now_ns () in
  List.iter
    (fun (request, response) ->
      encoded :=
        (Protocol.to_frame Protocol.request request, Protocol.to_frame Protocol.response response)
        :: !encoded)
    mix;
  let encode_s = seconds_since t0 in
  let payload frame = String.sub frame 4 (String.length frame - 4) in
  let frames = List.map (fun (a, b) -> (payload a, payload b)) !encoded in
  let t1 = now_ns () in
  List.iter
    (fun (request, response) ->
      ignore (Protocol.of_payload Protocol.request request);
      ignore (Protocol.of_payload Protocol.response response))
    frames;
  let decode_s = seconds_since t1 in
  let messages = 2 * List.length mix in
  let per_message s = if messages = 0 then 0. else s *. 1e9 /. float_of_int messages in
  Json.Obj
    [
      ("messages", int messages);
      ("encode_ns", num (per_message encode_s));
      ("decode_ns", num (per_message decode_s));
    ]

let stats_json (s : Protocol.stats) =
  Json.Obj
    [
      ("commits", int s.commits);
      ("tentative_accepted", int s.tentative_accepted);
      ("tentative_rejected", int s.tentative_rejected);
      ("scope_violations", int s.scope_violations);
    ]

let server_json (s : Obs.snapshot) =
  let counter name = int (Option.value ~default:0 (Obs.snapshot_counter s name)) in
  let quantiles name =
    match Obs.snapshot_histogram s name with
    | None -> Json.Null
    | Some h ->
        Json.Obj
          [
            ("p50", num (Obs.histogram_quantile h ~q:0.5));
            ("p99", num (Obs.histogram_quantile h ~q:0.99));
          ]
  in
  Json.Obj
    [
      ("engine_events", counter "engine.events_fired_total");
      ("net_messages", counter "net.messages_sent_total");
      ("replica_applies", counter "scheme.replica_applied_total");
      ("request_seconds", quantiles "serve.request_seconds");
      ("commit_seconds", quantiles "scheme.commit_seconds");
      ("reconcile_lag_seconds", quantiles "two_tier.reconcile_lag_seconds");
    ]

let per_kind samples =
  Json.Obj
    (Array.to_list
       (Array.mapi
          (fun kind name ->
            (name, Json.Arr (List.concat_map (fun s -> List.map num (Samples.to_list s.(kind))) samples)))
          kinds))

let churn argv =
  let socket = ref "" and db_size = ref 1000 and seed = ref 1 and observed = ref false in
  let server_pid = ref 0 in
  parse "churn" argv
    [
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--server-pid", Arg.Set_int server_pid, "PID the server's, for its peak memory");
      ("--db-size", Arg.Set_int db_size, "N objects (the server's --db-size)");
      ("--seed", Arg.Set_int seed, "N load seed");
      ("--observed", Arg.Set observed, " also time send/recv per kind, scrape and replay the codec");
    ];
  let db_size = !db_size in
  let cs = Array.init clients (fun _ -> make_client !socket ~db_size) in
  Array.iter
    (fun c ->
      expect c (function Protocol.Assigned _ -> true | _ -> false) (rpc c k_hello Protocol.Hello))
    cs;
  let lead = cs.(0) in
  let initial = Array.init db_size (master lead) in
  let scrape_every = if !observed then 10 else 0 in
  let steal0 = steal_ticks () in
  let t0 = now_ns () in
  let workers =
    Array.mapi
      (fun i c ->
        let rng = Rng.create ~seed:(!seed + (1000 * (i + 1))) in
        Domain.spawn (fun () ->
            churn_loop c ~rng ~db_size ~scrape_every))
      cs
  in
  Array.iter Domain.join workers;
  let churn_s = seconds_since t0 in
  let stolen = List.map2 ( - ) (steal_ticks ()) steal0 in
  let final = Array.init db_size (master lead) in
  let ledger =
    Array.init db_size (fun i -> Array.fold_left (fun acc c -> acc +. c.ledger.(i)) 0. cs)
  in
  let stats =
    match call lead Protocol.Stats with
    | Protocol.Stats_reply s -> stats_json s
    | _ ->
        lead.unexpected <- lead.unexpected + 1;
        Json.Null
  in
  let server = if !observed then Option.map server_json (scrape lead) else None in
  let server_rss = peak_rss_mb (string_of_int !server_pid) in
  expect lead (( = ) Protocol.Done) (call lead Protocol.Shutdown);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cs in
  let counts = Array.mapi (fun kind _ -> sum (fun c -> c.send_s.(kind).Samples.len)) kinds in
  let floats a = Json.Arr (Array.to_list (Array.map num a)) in
  let latency kind =
    Json.Arr
      (List.concat_map
         (fun c ->
           List.map2
             (fun sent waited -> num (sent +. waited))
             (Samples.to_list c.send_s.(kind))
             (Samples.to_list c.wait_s.(kind)))
         (Array.to_list cs))
  in
  emit
    ([
       ("churn_s", num churn_s);
       ("steal_ticks", Json.Arr (List.map int stolen));
       ( "requests",
         Json.Obj (Array.to_list (Array.mapi (fun kind name -> (name, int counts.(kind))) kinds)) );
       ("unexpected", int (sum (fun c -> c.unexpected)));
       ( "errors",
         Json.Arr (List.concat_map (fun c -> List.map (fun e -> Json.Str e) c.errors) (Array.to_list cs)) );
       ("tentative", int (sum (fun c -> c.tentative)));
       ("submit_s", latency k_submit);
       ("sync_s", latency k_sync);
       ("initial", floats initial);
       ("final", floats final);
       ("ledger", floats ledger);
       ("stats", stats);
       ("server_peak_rss_mb", num server_rss);
     ]
    @
    if !observed then
      [
        ("send_s", per_kind (List.map (fun c -> c.send_s) (Array.to_list cs)));
        ("wait_s", per_kind (List.map (fun c -> c.wait_s) (Array.to_list cs)));
        ("depth_max", num (Array.fold_left (fun acc c -> Float.max acc c.depth_max) 0. cs));
        ("server", Option.value ~default:Json.Null server);
        ("codec", codec_replay counts ~db_size);
      ]
    else [])

let () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let rest =
    Array.of_list
      (("probe " ^ sub) :: (match Array.to_list argv with _ :: _ :: tl -> tl | _ -> []))
  in
  match sub with
  | "sim" -> sim rest
  | "hello" -> hello rest
  | "churn" -> churn rest
  | _ ->
      prerr_endline "usage: probe (sim|hello|churn) [options]";
      exit 2
