#!/usr/bin/env python3
"""The repository's benchmark: four workloads, checked outputs, one JSON
result line.

    python3 perfbench/run.py --workload eager-storm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the simulator and
this benchmark's probe (perfbench/probe.ml) into .bench_build with dune;
later runs rebuild only what changed. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones. The last stdout line is the
result; the line before it carries the host fingerprint, the sample
counts and every failed check. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
PROFILE = "release"
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "probe.exe")
DANGERS = os.path.join(BUILD_DIR, "default", "bin", "main.exe")
SOURCES = ("dune-project", "bin/main.ml", "lib", "perfbench/dune", "perfbench/probe.ml")

# Why each workload exists is in README.md. "schemes" lists (registry
# name, measured simulated seconds), run in order in one process after
# "warmup" simulated seconds each. par-eager has no warm-up, which makes
# its passes three times shorter. Its first pass always runs
# "storm_seed", a seed on which the probe storm takes memory from about
# 110 MB to about 450 MB, so that the storm sets the run's peak_rss_mb.
# Its other passes take their seeds from a fixed "pool" of 30 that all
# finish: about one seed in eighty runs the storm away until the memory
# cap aborts it (2.8 GB, 18 s), which would fail one run in five; that
# is a known failure (README.md), not a workload. Its timed passes run
# on one domain, because two-domain wall time on a two-core host swings
# by half from run to run; the traced run adds a pass on "parallel"
# domains.
SIM_WORKLOADS = {
    "eager-storm": {"schemes": [("eager-group", 30.0)], "warmup": 5.0,
                    "nodes": 10, "db_size": 500, "tps": 10.0, "domains": 1},
    "lazy-fanout": {"schemes": [("lazy-master", 20.0), ("lazy-group", 2.0)],
                    "warmup": 1.0, "nodes": 50, "db_size": 10_000, "tps": 10.0,
                    "domains": 1},
    "par-eager": {"schemes": [("par-eager-group", 4.0)], "warmup": 0.0,
                  "nodes": 100, "db_size": 10_000, "tps": 1.0, "domains": 1,
                  "parallel": 2, "storm_seed": 76265580,
                  "pool": [bl.sub_seed(k, "par-eager-pool", 0) for k in range(30)]},
}
# The server's flags; the churn that drives it is fixed in probe.ml.
SERVE = {"nodes": 16, "db_size": 1000, "action_time": 0.00001}
WORKLOADS = list(SIM_WORKLOADS) + ["serve-churn"]

# Fixed-work passes per run, whatever --seconds says.
MIN_PASSES = 3
SETUP_LAUNCHES = 9   # extra set-up-only launches per sim run
SERVE_SETUPS = 3     # extra server start-ups per serve run
CALL_TIMEOUT = 150   # seconds for any one child process
# With two or more cores, the server and the load (or one single-domain
# simulation) each get a core of their own: unpinned, the OS moving three
# threads over two cores doubled the run-to-run spread of serve-churn.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = (_CPUS[0], _CPUS[-1]) if len(_CPUS) >= 2 else (None, None)
# Address-space cap of every child: a runaway simulation fails here
# instead of exhausting the host's memory.
MEMORY_CAP = 3 << 30

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "scaled_tps": "1/s"}

SIM_LAYER = {
    "engine.events": "count", "engine.host_ns_per_event": "ns",
    "engine.queue_high_water": "count",
    "lock.waits": "count", "lock.deadlocks": "count", "lock.dfs_visits": "count",
    "lock.dfs_visits_per_wait": "ratio",
    "txn.commits": "count", "txn.restarts": "count", "txn.useful_ratio": "ratio",
    "replication.replica_txns": "count", "replication.reconciliations": "count",
    "net.messages": "count", "net.host_ns_per_message": "ns",
    "store.replica_applies": "count", "store.stale_discards": "count",
    "scheme.build_s": "s", "scheme.warmup_s": "s", "scheme.measured_s": "s",
    "gc.minor_words_per_event": "words", "gc.major_words": "words",
    "parsim.windows": "count", "parsim.events_per_window": "count",
    "parsim.null_messages": "count", "parsim.stalls": "count",
    "parsim.channel_posts": "count", "parsim.speedup_d2": "ratio",
    "par_eager.probes": "count", "par_eager.probes_per_deadlock": "ratio",
}
KINDS = ("hello", "set_connected", "submit", "sync", "query")
SERVE_LAYER = {
    **{f"client.{k}.{part}_us.{q}": "us" for k in KINDS
       for part in ("send", "wait") for q in ("p50", "p99")},
    "submit_p50_ms": "ms", "submit_p99_ms": "ms",
    "sync_p50_ms": "ms", "sync_p99_ms": "ms",
    "codec.encode_ns": "ns", "codec.decode_ns": "ns",
    "serve.service_p50_ms": "ms", "serve.service_p99_ms": "ms",
    "serve.transport_us": "us",
    "core.reconcile_lag_p50_ms": "ms", "core.reconcile_lag_p99_ms": "ms",
    "core.commit_p99_ms": "ms", "core.queue_depth_max": "count",
    "server.engine_events": "1/txn", "server.net_messages": "1/txn",
    "server.replica_applies": "1/txn",
}
PER_LAYER = {**SIM_LAYER, **SERVE_LAYER, "trace.overhead": "ratio"}


class ProbeError(Exception):
    pass


def fail_setup(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail_setup(f"not a checkout of the repository (missing {', '.join(missing)})", 2)
    if shutil.which("dune") is None:
        fail_setup("dune is not on PATH", 2)
    # No shared dune cache and no system temporary directory: the
    # benchmark and its children write only inside the checkout.
    tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./perfbench/probe.exe", "./bin/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=850)
    except subprocess.TimeoutExpired:
        fail_setup("build timed out", 1)
    if done.returncode != 0:
        fail_setup(f"build failed (exit {done.returncode})", 1)


def spawn(args, **kwargs):
    return subprocess.Popen(args, stdin=subprocess.DEVNULL, **kwargs)


def reap(proc, timeout=CALL_TIMEOUT):
    """Wait for proc and return its exit status. Kills it if it outlives
    the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode
        if time.monotonic() > deadline:
            proc.kill()
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise ProbeError(f"{proc.args[0]} timed out")
        time.sleep(0.002)


def pin(proc, cpu):
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})


def kernel_seconds(cpu):
    """The reference kernel's time now, on the given core
    (benchlib.reference_kernel)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    t = time.perf_counter()
    bl.reference_kernel()
    elapsed = time.perf_counter() - t
    os.sched_setaffinity(0, _CPUS)
    return elapsed


def steal_share(ticks, seconds):
    """The larger share of seconds that the hypervisor took from the
    server's or the load's core: the closed loop stalls whenever either
    core is taken away, so this is the least it lost."""
    cores = [c for c in (SERVER_CPU, CLIENT_CPU) if c is not None] or range(len(ticks))
    return max(ticks[c] for c in cores) / os.sysconf("SC_CLK_TCK") / seconds


def probe(args, cpu=None):
    """Run the probe once: (start wall time, its JSON reply)."""
    started = time.time()
    proc = spawn([PROBE] + args, stdout=subprocess.PIPE)
    pin(proc, cpu)
    deadline = time.monotonic() + CALL_TIMEOUT
    chunks = []
    try:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if ready:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        proc.stdout.close()
        status = reap(proc, timeout=max(0.0, deadline - time.monotonic()))
    out = b"".join(chunks).decode()
    if status != 0:
        raise ProbeError(f"probe {args[0]} exited {status}")
    try:
        return started, json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        raise ProbeError(f"probe {args[0]} printed no JSON: {e}") from e


# --- simulator workloads ---------------------------------------------------

def sim_args(w, seed, observed=False, domains=None, setup_only=False):
    args = ["sim", "--schemes", ",".join(s for s, _ in w["schemes"]),
            "--span", ",".join(str(span) for _, span in w["schemes"]),
            "--nodes", str(w["nodes"]), "--db-size", str(w["db_size"]),
            "--tps", str(w["tps"]), "--warmup", str(w["warmup"]), "--seed", str(seed),
            "--domains", str(domains or w["domains"])]
    if observed:
        args.append("--observed")
    if setup_only:
        args.append("--setup-only")
    return args


def sim_pass(w, seed, tally, observed=False, domains=None):
    """One fixed simulation in its own process, with its outputs checked."""
    domains = domains or w["domains"]
    started, reply = probe(sim_args(w, seed, observed, domains),
                           cpu=CLIENT_CPU if domains == 1 else None)
    runs = reply["runs"]
    for (scheme, span), run in zip(w["schemes"], runs):
        tally.attempt()
        tally.check(bl.check_outcome(run, span, w["db_size"]), f"{scheme} seed {seed}")
    wall = sum(r["run_s"] for r in runs)
    attempts = sum(r["summary"]["commits"] + r["summary"]["restarts"] for r in runs)
    return {"seed": seed, "runs": runs, "wall": wall, "rss": reply["peak_rss_mb"],
            "setup": reply["configured_at"] - started,
            "throughput": attempts / wall}


def scaled_sim_pass(w, seed, tally):
    """A timed sim pass, its throughput scaled by the reference kernel
    timed on the pass's core just before and just after it."""
    before = kernel_seconds(CLIENT_CPU)
    result = sim_pass(w, seed, tally)
    result["kernel"] = (before + kernel_seconds(CLIENT_CPU)) / 2
    result["scaled"] = bl.scaled(result["throughput"], result["kernel"])
    return result


def check_same(tally, a, b, what):
    for ra, rb in zip(a["runs"], b["runs"]):
        tally.attempt()
        tally.check(bl.check_repeat(ra, rb), f"{ra['scheme']} seed {a['seed']} {what}")


def guarded(tally, fn, *args, **kwargs):
    """fn's result, or None after counting a failed operation when one of
    its processes failed; the run goes on."""
    try:
        return fn(*args, **kwargs)
    except ProbeError as e:
        tally.attempt()
        tally.fail(str(e))
        return None


def repeat(tally, started, seconds, one, minimum, reserve=0):
    """Call one(i) for i = 0, 1, ... while fewer than minimum calls were
    made, or while the next (and reserve more like it) should end within
    --seconds of started. Returns the successful results."""
    results, durations = [], []
    while (len(durations) < minimum
           or time.monotonic() - started
           + (1 + reserve) * bl.median(durations) <= seconds):
        t = time.monotonic()
        result = guarded(tally, one, len(durations))
        if result is not None:
            results.append(result)
        durations.append(time.monotonic() - t)
    if not results:
        raise ProbeError("every pass failed")
    return results


def pass_seed(w, name, seed, i):
    """The seed of a run's i-th pass: derived from --seed or, on par-eager,
    the storm seed and then the pool, entered at a place --seed picks."""
    if "pool" not in w:
        return bl.sub_seed(seed, name, i)
    if i == 0:
        return w["storm_seed"]
    return w["pool"][(bl.sub_seed(seed, name, 0) + i) % len(w["pool"])]


def end_to_end(passes, setups, detail, storm=False):
    """The end-to-end metrics of a run's passes (README.md). peak_rss_mb
    is the median of the passes' peaks, or with storm the first pass's,
    which ran the storm seed. The raw medians go to the detail line."""
    keys = ("seed", "wall", "rss", "throughput", "kernel", "steal", "scaled")
    detail["passes"] = [{k: p[k] for k in keys if k in p} for p in passes]
    detail["setup_samples"] = len(setups)
    for key in ("wall", "throughput", "kernel", "steal"):
        if key in passes[0]:
            detail[f"median_{key}"] = bl.median([p[key] for p in passes])
    return {
        "setup_s": bl.median(setups),
        "peak_rss_mb": passes[0]["rss"] if storm else bl.median([p["rss"] for p in passes]),
        "scaled_tps": bl.median([p["scaled"] for p in passes]),
    }


def sim_setup_sample(w, seed):
    started, reply = probe(sim_args(w, seed, setup_only=True))
    return reply["configured_at"] - started


def run_sim(name, seed, seconds, tally, detail):
    w = SIM_WORKLOADS[name]
    started = time.monotonic()
    setups = [guarded(tally, sim_setup_sample, w, seed) for _ in range(SETUP_LAUNCHES)]
    # Time is held back for the repeat of the second seed (par-eager's
    # first is the long storm pass), or of the only pass that succeeded.
    passes = repeat(tally, started, seconds,
                    lambda i: scaled_sim_pass(w, pass_seed(w, name, seed, i), tally),
                    minimum=MIN_PASSES, reserve=1)
    repeated = passes[min(1, len(passes) - 1)]
    again = guarded(tally, scaled_sim_pass, w, repeated["seed"], tally)
    if again is not None:
        check_same(tally, repeated, again, "repeated")
        passes.append(again)
    setups = [x for x in setups if x is not None] + [p["setup"] for p in passes]
    return end_to_end(passes, setups, detail, storm="storm_seed" in w)


def ratio(a, b):
    """a / b, or 0 where the layer did no work."""
    return a / b if b else 0.0


def layer_metrics(traced, parallel=None):
    """Per-layer metrics of one observed pass (and its parallel twin)."""
    counters, gauges = {}, {}
    phases = {"build": 0.0, "warmup": 0.0, "measured": 0.0,
              "minor_words": 0.0, "major_words": 0.0}
    for run in traced["runs"]:
        snap = run["snapshot"]
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap["gauges"].items():
            gauges[k] = max(gauges.get(k, v), v)
        named = {p["phase"]: p for p in snap["phases"]}
        task = named.get(f"scheme:{run['scheme']}")
        warm = named.get("warmup", {}).get("wall_seconds", 0.0)
        meas = named.get("measured", {}).get("wall_seconds", 0.0)
        phases["warmup"] += warm
        phases["measured"] += meas
        if task:
            phases["build"] += task["wall_seconds"] - warm - meas
            phases["minor_words"] += task["minor_words"]
            phases["major_words"] += task["major_words"]
    def c(*names):
        """The first of the named counters that the run exported."""
        return next((counters[n] for n in names if n in counters), 0)

    diag = {}
    for run in traced["runs"]:
        diag.update(run["diagnostics"])
    events = c("engine.events_fired_total")
    wall_ns = traced["wall"] * 1e9
    waits = c("lock.waits_total", "scheme.waits_total")
    deadlocks = c("lock.deadlocks_total", "scheme.deadlocks_total")
    commits, restarts = c("scheme.commits_total"), c("scheme.restarts_total")
    messages = c("net.messages_sent_total")
    windows = c("parsim.windows_total")
    probes = diag.get("deadlock_probes", 0)
    return {
        "engine.events": events,
        "engine.host_ns_per_event": ratio(wall_ns, events),
        "engine.queue_high_water": gauges.get("engine.queue_high_water", 0),
        "lock.waits": waits, "lock.deadlocks": deadlocks,
        "lock.dfs_visits": c("lock.deadlock_dfs_visits_total"),
        "lock.dfs_visits_per_wait": ratio(c("lock.deadlock_dfs_visits_total"), waits),
        "txn.commits": commits, "txn.restarts": restarts,
        "txn.useful_ratio": ratio(commits, commits + restarts),
        "replication.replica_txns": c("scheme.replica_txns_total"),
        "replication.reconciliations": c("scheme.reconciliations_total"),
        "net.messages": messages,
        "net.host_ns_per_message": ratio(wall_ns, messages),
        "store.replica_applies": c("scheme.replica_applied_total"),
        "store.stale_discards": c("scheme.stale_discards_total"),
        "scheme.build_s": phases["build"], "scheme.warmup_s": phases["warmup"],
        "scheme.measured_s": phases["measured"],
        "gc.minor_words_per_event": ratio(phases["minor_words"], events),
        "gc.major_words": phases["major_words"],
        "parsim.windows": windows,
        "parsim.events_per_window": ratio(events, windows),
        "parsim.null_messages": c("parsim.null_messages_total"),
        "parsim.stalls": c("parsim.lookahead_stalls_total"),
        "parsim.channel_posts": c("parsim.channel_posts_total"),
        "parsim.speedup_d2": ratio(traced["wall"], parallel["wall"]) if parallel else 0.0,
        "par_eager.probes": probes,
        "par_eager.probes_per_deadlock": ratio(probes, deadlocks) if probes else 0.0,
    }


def trace_sim(name, seed, seconds, tally, detail):
    """Untraced and observed pass of each seed (plus the two-domain leg on
    par-eager); the observed pass must reproduce the untraced outcome."""
    w = SIM_WORKLOADS[name]

    def one(i):
        sub = pass_seed(w, name, seed, i)
        plain = sim_pass(w, sub, tally)
        traced = sim_pass(w, sub, tally, observed=True)
        check_same(tally, plain, traced, "traced vs untraced")
        parallel = None
        if "parallel" in w:
            parallel = sim_pass(w, sub, tally, observed=True, domains=w["parallel"])
            check_same(tally, traced, parallel, f"{w['parallel']} vs 1 domain")
        return dict(layer_metrics(traced, parallel),
                    overhead=traced["wall"] / plain["wall"])

    rounds = repeat(tally, time.monotonic(), seconds, one, minimum=1)
    detail["rounds"] = len(rounds)
    metrics = {k: bl.median([r[k] for r in rounds]) for k in SIM_LAYER}
    metrics.update({k: 0.0 for k in SERVE_LAYER})
    metrics["trace.overhead"] = bl.median([r["overhead"] for r in rounds])
    return metrics


# --- live serving workload ---------------------------------------------------

def start_server(sock, seed):
    started = time.time()
    server = spawn([DANGERS, "serve", "--nodes", str(SERVE["nodes"]),
                    "--db-size", str(SERVE["db_size"]),
                    "--action-time", str(SERVE["action_time"]),
                    "--socket", sock, "--seed", str(seed), "--quiet"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pin(server, SERVER_CPU)
    return started, server


def stop_server(server):
    if server.returncode is None:
        server.kill()
        os.wait4(server.pid, 0)
        server.returncode = -9


def serve_setup(sock, seed, shutdown):
    """Start a server and time it until it answers Hello."""
    started, server = start_server(sock, seed)
    try:
        args = ["hello", "--socket", sock]
        _, reply = probe(args + (["--shutdown"] if shutdown else []))
    except BaseException:
        stop_server(server)
        raise
    return server, reply["hello_at"] - started


def serve_setup_sample(sock, seed, tally):
    """A server start-up timed until Hello, then shut down."""
    server, setup = serve_setup(sock, seed, shutdown=True)
    try:
        status = reap(server)
    finally:
        stop_server(server)
    tally.attempt()
    if status != 0:
        tally.fail(f"setup server exited {status}")
    return setup


def serve_pass(sock, seed, tally, observed=False):
    """One server lifetime: start, fixed churn, shutdown; checked."""
    server, setup = serve_setup(sock, seed, shutdown=False)
    try:
        args = ["churn", "--socket", sock, "--seed", str(seed),
                "--db-size", str(SERVE["db_size"]), "--server-pid", str(server.pid)]
        _, reply = probe(args + (["--observed"] if observed else []), cpu=CLIENT_CPU)
        status = reap(server)
    finally:
        stop_server(server)
    requests = reply["requests"]
    submitted = requests["submit"]
    # Every churn request, every object's ledger check and the stats check.
    tally.attempt(sum(requests[k] for k in KINDS) + len(reply["ledger"]) + 1)
    where = f"serve seed {seed}"
    if status != 0:
        tally.fail(f"{where}: server exited {status}")
    for error in reply["errors"]:
        tally.fail(f"{where}: {error}")
    if reply["unexpected"]:
        tally.fail(f"{where}: {reply['unexpected']} unexpected replies",
                   count=reply["unexpected"])
    if reply["tentative"] != submitted:
        tally.fail(f"{where}: {submitted - reply['tentative']} submits not Tentative",
                   count=submitted - reply["tentative"])
    tally.check(bl.check_stats(reply["stats"], submitted), where)
    tally.check(bl.check_ledger(reply["initial"], reply["final"], reply["ledger"]), where)
    throughput = submitted / reply["churn_s"]
    steal = steal_share(reply["steal_ticks"], reply["churn_s"])
    return {"seed": seed, "setup": setup, "rss": reply["server_peak_rss_mb"],
            "wall": reply["churn_s"], "throughput": throughput, "steal": steal,
            "scaled": bl.unstolen(throughput, steal), "reply": reply}


def latency_detail(samples):
    tail = bl.tail_percentile(samples)
    return {"n": len(samples), "p50_ms": bl.percentile(samples, 0.5) * 1e3,
            "p99_ms": bl.percentile(samples, 0.99) * 1e3,
            "p99_supported": bl.percentile_ok(len(samples), 0.99),
            "tail": None if tail is None else {"p": tail[0], "ms": tail[1] * 1e3}}


def with_socket(fn):
    os.makedirs(RUN_DIR, exist_ok=True)
    sock = os.path.join(RUN_DIR, f"serve-{os.getpid()}.sock")
    try:
        return fn(sock)
    finally:
        if os.path.exists(sock):
            os.unlink(sock)


def run_serve(name, seed, seconds, tally, detail):
    def go(sock):
        started = time.monotonic()
        setups = [guarded(tally, serve_setup_sample, sock, bl.sub_seed(seed, "setup", i), tally)
                  for i in range(SERVE_SETUPS)]
        passes = repeat(tally, started, seconds,
                        lambda i: serve_pass(sock, bl.sub_seed(seed, name, i), tally),
                        minimum=MIN_PASSES)
        setups = [x for x in setups if x is not None] + [p["setup"] for p in passes]
        detail["submit"] = latency_detail(pooled(passes, "submit_s"))
        detail["sync"] = latency_detail(pooled(passes, "sync_s"))
        return end_to_end(passes, setups, detail)
    return with_socket(go)


def pooled(passes, key):
    return [x for p in passes for x in p["reply"][key]]


def serve_layers(plain, traced, detail):
    """Per-layer metrics from paired untraced and observed serve passes."""
    def ms(xs, q):
        return bl.percentile(xs, q) * 1e3

    def server(key, field=None):
        """Median over observed passes of one server-snapshot figure."""
        return bl.median([p["reply"]["server"][key] if field is None
                          else p["reply"]["server"][key][field] for p in traced])

    m = {k: 0.0 for k in SIM_LAYER}
    samples = {}
    for part in ("send", "wait"):
        for k in KINDS:
            xs = [x for p in traced for x in p["reply"][f"{part}_s"][k]]
            samples[k] = len(xs)
            m[f"client.{k}.{part}_us.p50"] = ms(xs, 0.5) * 1e3
            m[f"client.{k}.{part}_us.p99"] = ms(xs, 0.99) * 1e3
    detail["kind_samples"] = samples
    submit, sync = pooled(plain, "submit_s"), pooled(plain, "sync_s")
    detail["submit"], detail["sync"] = latency_detail(submit), latency_detail(sync)
    m["submit_p50_ms"], m["submit_p99_ms"] = ms(submit, 0.5), ms(submit, 0.99)
    m["sync_p50_ms"], m["sync_p99_ms"] = ms(sync, 0.5), ms(sync, 0.99)
    m["codec.encode_ns"] = bl.median([p["reply"]["codec"]["encode_ns"] for p in traced])
    m["codec.decode_ns"] = bl.median([p["reply"]["codec"]["decode_ns"] for p in traced])
    m["serve.service_p50_ms"] = server("request_seconds", "p50") * 1e3
    m["serve.service_p99_ms"] = server("request_seconds", "p99") * 1e3
    m["serve.transport_us"] = (ms(pooled(traced, "submit_s"), 0.5)
                               - m["serve.service_p50_ms"]) * 1e3
    m["core.reconcile_lag_p50_ms"] = server("reconcile_lag_seconds", "p50") * 1e3
    m["core.reconcile_lag_p99_ms"] = server("reconcile_lag_seconds", "p99") * 1e3
    m["core.commit_p99_ms"] = server("commit_seconds", "p99") * 1e3
    m["core.queue_depth_max"] = max(p["reply"]["depth_max"] for p in traced)
    submitted = bl.median([p["reply"]["requests"]["submit"] for p in traced])
    for key in ("engine_events", "net_messages", "replica_applies"):
        m[f"server.{key}"] = server(key) / submitted
    # The simulator-layer counters the live server shares.
    m["engine.events"] = server("engine_events")
    m["net.messages"] = server("net_messages")
    m["store.replica_applies"] = server("replica_applies")
    m["txn.commits"] = bl.median([p["reply"]["stats"]["commits"] for p in traced])
    m["trace.overhead"] = (bl.median([p["wall"] for p in traced])
                           / bl.median([p["wall"] for p in plain]))
    return m


def trace_serve(name, seed, seconds, tally, detail):
    """Untraced and observed churn of each seed. Observed passes time
    send and receive per request kind, scrape the server's registry every
    ten cycles and replay the request mix through the codec."""
    def go(sock):
        def one(i):
            sub = bl.sub_seed(seed, name, i)
            return serve_pass(sock, sub, tally), serve_pass(sock, sub, tally, observed=True)

        pairs = repeat(tally, time.monotonic(), seconds, one, minimum=1)
        detail["rounds"] = len(pairs)
        return serve_layers([p for p, _ in pairs], [t for _, t in pairs], detail)
    return with_socket(go)


# --- main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    # Children inherit the cap (set here, not per child, so that spawning
    # stays cheap: set-up time is measured across the spawn).
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    tally = bl.Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": bl.host_fingerprint(PROFILE)}
    serve = args.workload == "serve-churn"
    if args.trace:
        run, units = (trace_serve if serve else trace_sim), PER_LAYER
    else:
        run, units = (run_serve if serve else run_sim), END_TO_END
    try:
        values = run(args.workload, args.seed, args.seconds, tally, detail)
    except ProbeError as e:
        fail_setup(f"{args.workload}: {e}", 1)
    detail["error_rate"] = tally.error_rate
    detail["failures"] = tally.messages[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
