(** The micro-benchmark suite: lock-table fast path, contended FIFO and
    deadlock detection, engine event throughput and cancel churn, and
    one end-to-end eager-group run at nodes=10 (the paper's
    unstable regime and this repo's optimization acceptance bar).

    [quick] shrinks sample counts only — never workloads — so quick-mode
    results compare meaningfully against full-mode baselines, just with
    wider error bars. *)

val benches : quick:bool -> Harness.bench list
