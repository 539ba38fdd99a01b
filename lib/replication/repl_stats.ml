module Obs = Dangers_obs.Metrics
module Stats = Dangers_util.Stats

type counters = {
  commits : Obs.counter;
  waits : Obs.counter;
  deadlocks : Obs.counter;
  restarts : Obs.counter;
  reconciliations : Obs.counter;
  replica_applied : Obs.counter;
  stale_discards : Obs.counter;
}

let counter registry name = Obs.counter registry ("scheme." ^ name ^ "_total")

let counters registry =
  let c = counter registry in
  {
    commits = c "commits";
    waits = c "waits";
    deadlocks = c "deadlocks";
    restarts = c "restarts";
    reconciliations = c "reconciliations";
    replica_applied = c "replica_applied";
    stale_discards = c "stale_discards";
  }

type summary = {
  scheme : string;
  window : float;
  commits : int;
  waits : int;
  deadlocks : int;
  restarts : int;
  reconciliations : int;
  commit_rate : float;
  wait_rate : float;
  deadlock_rate : float;
  reconciliation_rate : float;
  mean_duration : float;
}

let summarize ~scheme ~window (c : counters) durations =
  let count = Obs.window_value in
  let rate counter =
    if window <= 0. then 0. else float_of_int (count counter) /. window
  in
  {
    scheme;
    window;
    commits = count c.commits;
    waits = count c.waits;
    deadlocks = count c.deadlocks;
    restarts = count c.restarts;
    reconciliations = count c.reconciliations;
    commit_rate = rate c.commits;
    wait_rate = rate c.waits;
    deadlock_rate = rate c.deadlocks;
    reconciliation_rate = rate c.reconciliations;
    mean_duration = Stats.mean durations;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%s over %.1fs:@ commits=%d (%.3f/s) waits=%d (%.4f/s) deadlocks=%d \
     (%.5f/s)@ restarts=%d reconciliations=%d (%.5f/s) mean duration=%.4fs@]"
    s.scheme s.window s.commits s.commit_rate s.waits s.wait_rate s.deadlocks
    s.deadlock_rate s.restarts s.reconciliations s.reconciliation_rate
    s.mean_duration
