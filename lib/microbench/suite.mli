(** The micro-benchmark suite behind [dangers bench], the repository's
    only microbenchmark harness: lock-table fast path, contended FIFO and
    deadlock detection, engine event throughput and cancel churn, the
    parallel engine's window ring, one end-to-end eager-group run at
    nodes=10 (the paper's unstable regime and this repo's optimization
    acceptance bar), and par-eager at nodes=100 on 1 and 4 domains.

    [quick] shrinks sample counts only — never workloads — so quick-mode
    results compare meaningfully against full-mode baselines, just with
    wider error bars. *)

val benches : quick:bool -> Harness.bench list
