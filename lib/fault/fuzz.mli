(** Random workloads x fault plans per scheme, with invariant checking.

    A {!case} is a compact, fully deterministic description of one fuzzing
    run: scheme, seed, node count, transaction count and fault level.
    Everything else — the fault plan, the workload (positive dyadic-rational
    increments, so floating-point sums are exact in any order), the
    message-fault draws — is derived from the seed, so a failing case
    replays exactly from the printed command line.

    {!run} builds the scheme, injects the plan while driving the workload,
    quiesces, and checks the paper's invariants ({!Invariants}); which
    checks apply depends on the scheme and on whether the plan can lose or
    duplicate messages. {!tests} wraps this in QCheck properties (with
    shrinking over the case tuple) for the [@fuzz] alias; [run ~sabotage]
    flips a deliberate bug per scheme so the checker can be checked. *)

type scheme = Eager_group | Eager_master | Lazy_group | Two_tier
type level = Clean | Lossless | Chaotic

type case = {
  scheme : scheme;
  seed : int;
  nodes : int;  (** in [2, 6] *)
  txns : int;  (** in [5, 120] *)
  level : level;
}

val all_schemes : scheme list
val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option
val level_name : level -> string
val level_of_name : string -> level option

val horizon : float
(** Simulated seconds each case runs before quiescing. *)

val replay_command : case -> string
(** The [dangers fuzz --replay ...] line that reruns this exact case. *)

type outcome = {
  plan : Fault_plan.t;
  violations : Invariants.violation list;
  crashes_fired : int;
  partitions_fired : int;
  txns_submitted : int;  (** txns minus those skipped at crashed nodes *)
}

val run : ?sabotage:bool -> case -> outcome
(** Deterministic in [case]. With [sabotage]:
    - [Two_tier] runs with [~unsafe_skip_acceptance:true] — the base
      blindly trusts tentative results, so [two-tier-base-1SR] must fire;
    - [Lazy_group] runs under the lossy [Timestamp_priority] rule while
      still being held to the commutative exact-sum invariant, so
      [lazy-group-lossless-sum] must fire once updates conflict;
    - the eager schemes have no sabotage knob and run normally. *)

val arbitrary : scheme -> case QCheck.arbitrary
(** Generator + shrinker + printer over cases of one scheme. *)

val test : count:int -> scheme -> QCheck.Test.t
(** The property for one scheme: [count] random cases must produce zero
    violations. Failures report the violations, the regenerated fault
    plan, and the replay command. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
(** {!test} for every scheme in {!all_schemes}, [count] defaulting to
    200. *)

val sabotage_tests : unit -> QCheck.Test.t list
(** Self-validation: small fixed-seed sweeps asserting that the deliberate
    bugs above are caught. *)
