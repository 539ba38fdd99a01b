(** The canonical scheme counters and the per-run summary every scheme
    reports.

    Every simulated system owns a {!Dangers_obs.Metrics} registry; all
    schemes bump the same canonical handles in it, resolved once at
    construction, so experiments can compare them without per-scheme
    plumbing. A counter [name] is registered as [scheme.<name>_total],
    the name snapshots export. *)

module Obs = Dangers_obs.Metrics

(** {1 Counters} *)

type counters = {
  commits : Obs.counter;
      (** User (root / master / base) transactions committed. *)
  waits : Obs.counter;  (** Lock requests that blocked. *)
  deadlocks : Obs.counter;  (** Transactions killed as deadlock victims. *)
  restarts : Obs.counter;  (** Deadlock victims resubmitted. *)
  reconciliations : Obs.counter;
      (** Dangerous lazy-group updates (timestamp-chain mismatches) that
          needed a reconciliation rule, and two-tier base transactions
          failing acceptance. *)
  replica_applied : Obs.counter;
      (** Replica updates applied at a non-originating node. *)
  stale_discards : Obs.counter;
      (** Replica updates ignored because the replica already had a newer
          timestamp (lazy-master §5). *)
}

val counter : Obs.t -> string -> Obs.counter
(** [counter registry name] is [registry]'s [scheme.<name>_total]; schemes
    resolve their own extra counters with it. *)

val counters : Obs.t -> counters

(** {1 Summary} *)

type summary = {
  scheme : string;
  window : float;  (** measured sim-time, seconds *)
  commits : int;
  waits : int;
  deadlocks : int;
  restarts : int;
  reconciliations : int;
  commit_rate : float;
  wait_rate : float;
  deadlock_rate : float;
  reconciliation_rate : float;
  mean_duration : float;  (** mean committed transaction duration, seconds *)
}

val summarize :
  scheme:string -> window:float -> counters -> Dangers_util.Stats.t -> summary
(** The counters' window values (see {!Obs.window_value}) over [window]
    seconds, and the mean of the committed durations. *)

val pp_summary : Format.formatter -> summary -> unit
