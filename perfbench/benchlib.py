"""Helpers of the benchmark: statistics, output checks and the host stamp.

Pure functions, so test_benchlib.py can feed them deliberately wrong
inputs. run.py does the measuring and calls these.
"""

import hashlib
import math
import os
import platform
import random
import statistics
import subprocess

# A tail percentile is reported only when at least this many samples lie
# beyond it, so that one outlier cannot set it.
MIN_BEYOND = 10
PERCENTILE_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)


def percentile(samples, p):
    """Linear interpolation between closest ranks (numpy's default), the
    same rule as the repository's Stats.percentile."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    ordered = sorted(samples)
    rank = p * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    w = rank - lo
    return (1.0 - w) * ordered[lo] + w * ordered[hi]


def beyond(n, p):
    """How many of n samples lie beyond the p-th percentile: n (1 - p),
    rounded down (with slack for 1 - p not being exact in binary)."""
    return math.floor(n * (1.0 - p) + 1e-9)


def tail_percentile(samples, ladder=PERCENTILE_LADDER, min_beyond=MIN_BEYOND):
    """The highest percentile of the ladder with at least min_beyond
    samples beyond it, as (p, value, sample count); None if even the
    lowest rung has too few."""
    n = len(samples)
    usable = [p for p in ladder if n > 0 and beyond(n, p) >= min_beyond]
    if not usable:
        return None
    p = max(usable)
    return (p, percentile(samples, p), n)


def percentile_ok(n, p, min_beyond=MIN_BEYOND):
    """Whether n samples support the p-th percentile."""
    return n > 0 and beyond(n, p) >= min_beyond


def median(values):
    return statistics.median(values)


def sub_seed(seed, workload, index):
    """The index-th simulation seed of a run: a fixed function of the
    run's --seed, so the same seed gives the same inputs."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).hexdigest()
    return int(digest[:7], 16) + 1


class Tally:
    """Operations attempted and failed in one run. Every failed output
    check counts one failed operation and keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, message, count=1):
        self.failed += count
        self.messages.append(message)

    def check(self, problems, context):
        """Count each problem a check returned as one failure."""
        for problem in problems:
            self.fail(f"{context}: {problem}")

    @property
    def error_rate(self):
        return error_rate(self.attempted, self.failed)


def error_rate(attempted, failed):
    """failed / attempted. A failure beyond the operations attempted is a
    bug in the caller's counting, so it raises."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} operations")
    return failed / attempted


# --- output checks -----------------------------------------------------
# Each returns a list of problems; an empty list means the output holds.

SUMMARY_KEYS = ("commits", "waits", "deadlocks", "restarts", "reconciliations",
                "window", "mean_duration")


def check_repeat(first, again):
    """Two runs of one scheme at one seed: summary and diagnostics must be
    identical, value for value."""
    problems = []
    for part in ("summary", "diagnostics"):
        a, b = first.get(part), again.get(part)
        if a != b:
            keys = sorted(set(a or {}) | set(b or {}))
            diff = [f"{k} {a.get(k) if a else None} != {b.get(k) if b else None}"
                    for k in keys if (a or {}).get(k) != (b or {}).get(k)]
            problems.append(f"{part} differs: " + ", ".join(diff))
    return problems


def check_outcome(run, span, db_size):
    """Invariants of one scheme run's summary and diagnostics."""
    s, d = run["summary"], run["diagnostics"]
    scheme = run["scheme"]
    problems = []
    missing = [k for k in SUMMARY_KEYS if k not in s]
    if missing:
        return [f"summary lacks {', '.join(missing)}"]
    if s["window"] != span:
        problems.append(f"window {s['window']} != span {span}")
    if s["commits"] <= 0:
        problems.append("no commits")
    for key in ("commits", "waits", "deadlocks", "restarts", "reconciliations"):
        if s[key] < 0:
            problems.append(f"negative {key}")
    if scheme == "par-eager-group":
        # Lock timeouts also restart transactions here, so restarts can
        # exceed deadlocks; without faults no update is ever dropped.
        if s["restarts"] < s["deadlocks"]:
            problems.append("fewer restarts than deadlock victims")
        for key in ("windows", "channel_posts", "deadlock_probes",
                    "apply_dropped", "timeout_aborts", "null_messages",
                    "lookahead_stalls"):
            if key not in d:
                problems.append(f"diagnostic {key} missing")
        if d.get("apply_dropped", 0) != 0:
            problems.append(f"{d['apply_dropped']} applies dropped without faults")
        if d.get("windows", 0) <= 0 or d.get("channel_posts", 0) <= 0:
            problems.append("parallel engine ran no windows or posts")
    else:
        # Every deadlock victim is resubmitted.
        if s["restarts"] != s["deadlocks"]:
            problems.append(f"restarts {s['restarts']} != deadlocks {s['deadlocks']}")
    if scheme == "lazy-group":
        div = d.get("divergence")
        if div is None or div != int(div) or not 0 <= div <= db_size:
            problems.append(f"divergence {div} outside 0..{db_size}")
    elif scheme in ("lazy-master", "eager-group") and d:
        problems.append(f"unexpected diagnostics {sorted(d)}")
    if scheme == "lazy-master" and s["reconciliations"] != 0:
        problems.append("lazy-master reconciled (it has one master per object)")
    return problems


def check_ledger(initial, final, ledger, tolerance=1e-6):
    """After the final sync every master value must equal its initial value
    plus the client's own ledger of increments."""
    if not len(initial) == len(final) == len(ledger):
        return [f"lengths differ: {len(initial)}, {len(final)}, {len(ledger)}"]
    problems = []
    for oid, (a, b, inc) in enumerate(zip(initial, final, ledger)):
        if not abs(a + inc - b) <= tolerance:
            problems.append(f"object {oid}: master {b} != {a} + {inc}")
    return problems


def check_stats(stats, submitted):
    """The server's counters: every submitted transaction committed at the
    base and was accepted, none rejected or out of scope."""
    if not stats:
        return ["no Stats reply"]
    problems = []
    if not stats["commits"] == stats["tentative_accepted"] == submitted:
        problems.append(f"commits {stats['commits']}, accepted "
                        f"{stats['tentative_accepted']}, submitted {submitted} differ")
    for key in ("tentative_rejected", "scope_violations"):
        if stats[key] != 0:
            problems.append(f"{key} = {stats[key]}")
    return problems


# --- host speed ----------------------------------------------------------

REFERENCE_ROUNDS = 60_000
# The reference kernel's time on a quiet host of the kind described in
# README.md; scaled figures are quoted at this speed.
NOMINAL_KERNEL_S = 0.1


def reference_kernel(rounds=REFERENCE_ROUNDS):
    """A fixed piece of interpreter work (hashing, allocation, a sort),
    timed next to every pass as a measure of the host's current speed.
    Returns a figure of its result so that no work can be skipped."""
    rng = random.Random(1)
    counts, pairs = {}, []
    for i in range(rounds):
        key = rng.randrange(1 << 20)
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i))
    pairs.sort()
    return len(counts) + pairs[0][1]


def scaled(rate, kernel_s, nominal_s=NOMINAL_KERNEL_S):
    """A rate measured while the reference kernel took kernel_s, quoted
    at the host speed where it takes nominal_s: on a host that runs
    everything twice as slowly, the kernel takes twice as long and the
    scaled rate stays put."""
    if kernel_s <= 0 or nominal_s <= 0:
        raise ValueError("kernel times must be positive")
    return rate * kernel_s / nominal_s


def unstolen(rate, stolen_share):
    """A rate measured while the hypervisor took stolen_share of the
    time from the cores, over the time it left them: the rate the pass
    would have had on cores of its own."""
    if not 0.0 <= stolen_share < 1.0:
        raise ValueError(f"stolen share {stolen_share} outside [0, 1)")
    return rate / (1.0 - stolen_share)


# --- host fingerprint ----------------------------------------------------

def host_fingerprint(profile):
    """What makes two results comparable: a result from another host (or
    build profile) is not a baseline for this one."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        ocaml = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "ocaml": ocaml,
        "build_profile": profile,
        "machine": platform.machine(),
    }
