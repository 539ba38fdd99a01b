module Rng = Dangers_util.Rng
module Clock = Dangers_runtime.Clock
module Params = Dangers_analytic.Params
module Connectivity = Dangers_net.Connectivity
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Common = Dangers_replication.Common
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_group = Dangers_replication.Lazy_group
module Reconcile = Dangers_replication.Reconcile
module Two_tier = Dangers_core.Two_tier
module Acceptance = Dangers_core.Acceptance

type scheme = Eager_group | Eager_master | Lazy_group | Two_tier
type level = Clean | Lossless | Chaotic

type case = {
  scheme : scheme;
  seed : int;
  nodes : int;
  txns : int;
  level : level;
}

let all_schemes = [ Eager_group; Eager_master; Lazy_group; Two_tier ]

let scheme_name = function
  | Eager_group -> "eager-group"
  | Eager_master -> "eager-master"
  | Lazy_group -> "lazy-group"
  | Two_tier -> "two-tier"

let scheme_of_name = function
  | "eager-group" -> Some Eager_group
  | "eager-master" -> Some Eager_master
  | "lazy-group" -> Some Lazy_group
  | "two-tier" -> Some Two_tier
  | _ -> None

let level_name = function
  | Clean -> "clean"
  | Lossless -> "lossless"
  | Chaotic -> "chaotic"

let level_of_name = function
  | "clean" -> Some Clean
  | "lossless" -> Some Lossless
  | "chaotic" -> Some Chaotic
  | _ -> None

let spec_of_level = function
  | Clean -> Fault_plan.clean
  | Lossless -> Fault_plan.lossless
  | Chaotic -> Fault_plan.chaotic

let horizon = 30.

let replay_command c =
  Printf.sprintf
    "dangers fuzz --replay --scheme %s --seed %d --nodes %d --txns %d \
     --level %s"
    (scheme_name c.scheme) c.seed c.nodes c.txns (level_name c.level)

type outcome = {
  plan : Fault_plan.t;
  violations : Invariants.violation list;
  crashes_fired : int;
  partitions_fired : int;
  txns_submitted : int;
}

(* Small and contended on purpose: conflicts are what the invariants bite
   on. Action_Time is shrunk so a 30-second horizon is cheap to drain. *)
let params ~nodes =
  {
    Params.default with
    Params.db_size = 16;
    nodes;
    tps = 1.;
    actions = 3;
    action_time = 0.002;
  }

(* One transaction: [actions] increments on distinct objects. Deltas are
   positive multiples of 0.25, i.e. dyadic rationals, so every sum any
   replica can form is exact in floating point — convergence checks can
   demand equality instead of tolerances. *)
let gen_ops rng ~db_size ~actions =
  Rng.sample_without_replacement rng ~n:db_size ~k:actions
  |> Array.to_list
  |> List.map (fun i ->
         Op.Increment (Oid.of_int i, float_of_int (1 + Rng.int rng 32) *. 0.25))

(* Pre-draw the whole workload, then schedule it; submissions landing on a
   crashed node are skipped (the node is down — there is no one to type). *)
let schedule_workload ~clock ~rng ~injector ~case ~db_size ~submit =
  let p = params ~nodes:case.nodes in
  let submitted = ref 0 in
  for _ = 1 to case.txns do
    let time = Rng.float rng (horizon *. 0.8) in
    let node = Rng.int rng case.nodes in
    let ops = gen_ops rng ~db_size ~actions:p.Params.actions in
    ignore
      (Clock.schedule_at clock ~time (fun () ->
           if not (Fault_injector.is_down injector ~node) then begin
             incr submitted;
             submit ~node ops
           end))
  done;
  submitted

let finish ~injector ~plan ~submitted violations =
  {
    plan;
    violations;
    crashes_fired = Fault_injector.crashes_fired injector;
    partitions_fired = Fault_injector.partitions_fired injector;
    txns_submitted = !submitted;
  }

let attach_recoveries (base : Common.base) =
  Array.to_list
    (Array.mapi
       (fun node store ->
         Recovery.attach ~node ~initial_value:base.Common.initial_value store)
       base.Common.stores)

let run_eager ~ownership case =
  let rng = Rng.create ~seed:case.seed in
  let plan_rng = Rng.split rng in
  let msg_rng = Rng.split rng in
  let work_rng = Rng.split rng in
  let p = params ~nodes:case.nodes in
  let plan =
    Fault_plan.generate ~rng:plan_rng ~nodes:case.nodes ~horizon
      (spec_of_level case.level)
  in
  let injector = Fault_injector.create ~plan ~rng:msg_rng in
  let history = ref [] in
  let sys =
    Eager_impl.create
      ~on_commit:(fun ~node ops -> history := (node, ops) :: !history)
      ownership p ~seed:case.seed
  in
  let base = Eager_impl.base sys in
  let clock = base.Common.clock in
  let recoveries = attach_recoveries base in
  let recovery_at = Array.of_list recoveries in
  (* Eager has no network: only crashes apply, exercising the journal. *)
  Fault_injector.start injector ~clock
    ~on_crash:(fun ~node -> Recovery.crash recovery_at.(node))
    ~on_restart:(fun ~node -> Recovery.restart recovery_at.(node))
    ();
  let submitted =
    schedule_workload ~clock ~rng:work_rng ~injector ~case
      ~db_size:p.Params.db_size
      ~submit:(fun ~node ops -> Eager_impl.submit sys ~node ops)
  in
  Clock.run clock ~until:horizon;
  Fault_injector.stop injector;
  Clock.run clock ~max_events:200_000_000;
  finish ~injector ~plan ~submitted
    (Invariants.recovery_journals recoveries
    @ Invariants.eager_one_copy_serializable sys ~history:(List.rev !history))

let run_lazy_group ~sabotage case =
  let rng = Rng.create ~seed:case.seed in
  let plan_rng = Rng.split rng in
  let msg_rng = Rng.split rng in
  let work_rng = Rng.split rng in
  let p = params ~nodes:case.nodes in
  let plan =
    Fault_plan.generate ~rng:plan_rng ~nodes:case.nodes ~horizon
      (spec_of_level case.level)
  in
  let injector = Fault_injector.create ~plan ~rng:msg_rng in
  (* Sabotage: a lossy reconciliation rule held to the lossless-sum bar. *)
  let rule = if sabotage then Reconcile.Timestamp_priority else Reconcile.Additive in
  let sys =
    Lazy_group.create ~rule ~faults:(Fault_injector.faults injector) p
      ~seed:case.seed
  in
  let base = Lazy_group.base sys in
  let clock = base.Common.clock in
  let recoveries = attach_recoveries base in
  let recovery_at = Array.of_list recoveries in
  Fault_injector.start injector ~clock
    ~set_connected:(fun ~node state ->
      Lazy_group.set_node_connected sys ~node state)
    ~flush_node:(fun ~node -> Lazy_group.flush_node sys ~node)
    ~on_crash:(fun ~node -> Recovery.crash recovery_at.(node))
    ~on_restart:(fun ~node -> Recovery.restart recovery_at.(node))
    ();
  let submitted =
    schedule_workload ~clock ~rng:work_rng ~injector ~case
      ~db_size:p.Params.db_size
      ~submit:(fun ~node ops -> Lazy_group.submit sys ~node ops)
  in
  Clock.run clock ~until:horizon;
  Fault_injector.stop injector;
  Lazy_group.force_sync sys;
  (* A dropped or double-applied update legitimately breaks convergence, so
     the convergence invariants only bind under loss-free plans. *)
  let convergence =
    if Fault_plan.lossless_messages plan then
      Invariants.lazy_group_converged sys ~exact_sums:true
    else []
  in
  finish ~injector ~plan ~submitted
    (Invariants.recovery_journals recoveries @ convergence)

let run_two_tier ~sabotage case =
  let rng = Rng.create ~seed:case.seed in
  let plan_rng = Rng.split rng in
  let msg_rng = Rng.split rng in
  let work_rng = Rng.split rng in
  let p = params ~nodes:case.nodes in
  let base_nodes = max 1 (case.nodes / 2) in
  let mobiles = List.init (case.nodes - base_nodes) (fun i -> base_nodes + i) in
  (* Base nodes are §7's always-up servers: only mobiles crash. A mobile's
     state is durable by design (tentative transactions survive a crash),
     so crash = disconnect and no recovery journal is needed. *)
  let plan =
    Fault_plan.generate ~rng:plan_rng ~nodes:case.nodes ~crashable:mobiles
      ~horizon (spec_of_level case.level)
  in
  let injector = Fault_injector.create ~plan ~rng:msg_rng in
  (* A short day-cycle so mobiles disconnect, work tentatively and sync
     several times inside the horizon. *)
  let mobility = Connectivity.day_cycle ~connected:6. ~disconnected:4. in
  let sys =
    Two_tier.create ~acceptance:Acceptance.Non_negative
      ~faults:(Fault_injector.faults injector) ~mobility
      ~unsafe_skip_acceptance:sabotage ~base_nodes p ~seed:case.seed
  in
  let clock = (Two_tier.base sys).Common.clock in
  Fault_injector.start injector ~clock
    ~set_connected:(fun ~node state -> Two_tier.set_node_connected sys ~node state)
    ~flush_node:(fun ~node -> Two_tier.flush_node sys ~node)
    ();
  let submitted =
    schedule_workload ~clock ~rng:work_rng ~injector ~case
      ~db_size:p.Params.db_size
      ~submit:(fun ~node ops -> Two_tier.submit sys ~node ops)
  in
  Clock.run clock ~until:horizon;
  Fault_injector.stop injector;
  Two_tier.quiesce_and_sync sys;
  finish ~injector ~plan ~submitted
    (Invariants.two_tier_commutative_no_reconciliation sys
    @ Invariants.two_tier_base_consistent
        ~check_convergence:(Fault_plan.lossless_messages plan)
        sys)

let run ?(sabotage = false) case =
  match case.scheme with
  | Eager_group -> run_eager ~ownership:Eager_impl.Group case
  | Eager_master -> run_eager ~ownership:Eager_impl.Master case
  | Lazy_group -> run_lazy_group ~sabotage case
  | Two_tier -> run_two_tier ~sabotage case

(* --- QCheck plumbing --- *)

let level_of_int = function 0 -> Clean | 1 -> Lossless | _ -> Chaotic
let int_of_level = function Clean -> 0 | Lossless -> 1 | Chaotic -> 2

let arbitrary scheme =
  let build (seed, nodes, txns, lvl) =
    {
      scheme;
      seed;
      nodes = 2 + (nodes mod 5);
      txns = 5 + (txns mod 116);
      level = level_of_int lvl;
    }
  in
  let rev c = (c.seed, c.nodes - 2, c.txns - 5, int_of_level c.level) in
  QCheck.(
    set_print replay_command
      (map ~rev build
         (quad (int_bound 1_000_000) (int_bound 4) (int_bound 115)
            (int_bound 2))))

let report_failure case outcome =
  QCheck.Test.fail_reportf
    "@[<v>%d invariant violation(s):@ %a@ %a@ replay: %s@]"
    (List.length outcome.violations)
    (Format.pp_print_list Invariants.pp_violation)
    outcome.violations Fault_plan.pp outcome.plan (replay_command case)

let test ~count scheme =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "fuzz %s: invariants hold" (scheme_name scheme))
    (arbitrary scheme)
    (fun case ->
      let outcome = run case in
      match outcome.violations with
      | [] -> true
      | _ -> report_failure case outcome)

let tests ?(count = 200) () = List.map (test ~count) all_schemes

(* Fixed-seed sweeps: each sabotaged scheme must be caught on at least one
   seed (deterministically — run is a pure function of the case). *)
let sabotage_tests () =
  let caught scheme invariant =
    List.exists
      (fun seed ->
        let case = { scheme; seed; nodes = 4; txns = 100; level = Lossless } in
        List.exists
          (fun (v : Invariants.violation) -> v.Invariants.invariant = invariant)
          (run ~sabotage:true case).violations)
      [ 1; 2; 3; 4; 5 ]
  in
  [
    QCheck.Test.make ~count:1 ~name:"sabotage: skipped acceptance is caught"
      QCheck.unit
      (fun () ->
        caught Two_tier "two-tier-base-1SR"
        || QCheck.Test.fail_report
             "unsafe_skip_acceptance never produced a base-1SR violation");
    QCheck.Test.make ~count:1 ~name:"sabotage: lossy rule is caught"
      QCheck.unit
      (fun () ->
        caught Lazy_group "lazy-group-lossless-sum"
        || QCheck.Test.fail_report
             "Timestamp_priority never produced a lost-update violation");
  ]
