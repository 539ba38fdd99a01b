"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


def sim_run(scheme="eager-group", **summary):
    base = {"commits": 10, "waits": 5, "deadlocks": 2, "restarts": 2,
            "reconciliations": 0, "window": 30.0, "mean_duration": 0.5}
    base.update(summary)
    return {"scheme": scheme, "run_s": 1.0, "summary": base, "diagnostics": {}}


class Percentiles(unittest.TestCase):
    def test_interpolates_like_stats_percentile(self):
        self.assertEqual(bl.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(bl.percentile([5], 0.99), 5)
        self.assertEqual(bl.percentile(list(range(101)), 0.99), 99)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: 10 lie beyond p99, 1 beyond p99.9.
        p, value, n = bl.tail_percentile([float(i) for i in range(1000)])
        self.assertEqual((p, n), (0.99, 1000))
        self.assertAlmostEqual(value, 989.01)
        # One sample fewer leaves only 9 beyond p99: fall back to p90.
        p, _, n = bl.tail_percentile([float(i) for i in range(999)])
        self.assertEqual((p, n), (0.9, 999))

    def test_tail_climbs_with_more_samples(self):
        p, _, n = bl.tail_percentile([0.0] * 10_000)
        self.assertEqual((p, n), (0.999, 10_000))

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(bl.tail_percentile([1.0] * 19))
        self.assertIsNone(bl.tail_percentile([]))
        self.assertEqual(bl.tail_percentile([1.0] * 20)[0], 0.5)
        self.assertEqual(bl.tail_percentile([1.0] * 100)[0], 0.9)

    def test_percentile_ok(self):
        self.assertTrue(bl.percentile_ok(1000, 0.99))
        self.assertFalse(bl.percentile_ok(999, 0.99))
        self.assertFalse(bl.percentile_ok(0, 0.5))


class ErrorRate(unittest.TestCase):
    def test_counts(self):
        t = bl.Tally()
        t.attempt(4)
        t.fail("one")
        t.check(["two", "three"], "ctx")
        self.assertEqual((t.attempted, t.failed), (4, 3))
        self.assertEqual(t.error_rate, 0.75)
        self.assertEqual(t.messages, ["one", "ctx: two", "ctx: three"])

    def test_clean_run_is_zero(self):
        t = bl.Tally()
        t.attempt(7)
        t.check([], "ctx")
        self.assertEqual(t.error_rate, 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            bl.error_rate(0, 0)
        with self.assertRaises(ValueError):
            bl.error_rate(2, 3)


class OutputChecks(unittest.TestCase):
    def test_repeat_must_match(self):
        a = sim_run()
        self.assertEqual(bl.check_repeat(a, sim_run()), [])
        wrong = bl.check_repeat(a, sim_run(commits=11))
        self.assertEqual(len(wrong), 1)
        self.assertIn("commits 10 != 11", wrong[0])

    def test_repeat_compares_diagnostics(self):
        a, b = sim_run("lazy-group"), sim_run("lazy-group")
        a["diagnostics"] = {"divergence": 3.0}
        b["diagnostics"] = {"divergence": 4.0}
        self.assertEqual(len(bl.check_repeat(a, b)), 1)

    def test_wrong_summary_fails(self):
        self.assertEqual(bl.check_outcome(sim_run(), 30.0, 500), [])
        self.assertTrue(bl.check_outcome(sim_run(restarts=1), 30.0, 500))
        self.assertTrue(bl.check_outcome(sim_run(window=29.0), 30.0, 500))
        self.assertTrue(bl.check_outcome(sim_run(commits=0), 30.0, 500))
        run = sim_run()
        del run["summary"]["waits"]
        self.assertTrue(bl.check_outcome(run, 30.0, 500))

    def test_lazy_invariants(self):
        run = sim_run("lazy-group", deadlocks=0, restarts=0)
        run["diagnostics"] = {"divergence": 52.0}
        self.assertEqual(bl.check_outcome(run, 30.0, 10_000), [])
        run["diagnostics"] = {"divergence": 20_000.0}
        self.assertTrue(bl.check_outcome(run, 30.0, 10_000))
        run["diagnostics"] = {}
        self.assertTrue(bl.check_outcome(run, 30.0, 10_000))
        master = sim_run("lazy-master", reconciliations=3, deadlocks=0, restarts=0)
        self.assertTrue(bl.check_outcome(master, 30.0, 10_000))

    def test_par_eager_invariants(self):
        run = sim_run("par-eager-group", deadlocks=2, restarts=5, window=4.0)
        run["diagnostics"] = {"windows": 180.0, "channel_posts": 9.0e5,
                              "deadlock_probes": 3.0e3, "apply_dropped": 0.0,
                              "timeout_aborts": 3.0, "null_messages": 92.0,
                              "lookahead_stalls": 92.0}
        self.assertEqual(bl.check_outcome(run, 4.0, 10_000), [])
        run["diagnostics"]["apply_dropped"] = 1.0
        self.assertTrue(bl.check_outcome(run, 4.0, 10_000))

    def test_wrong_ledger_fails(self):
        initial, ledger = [0.0, 1.0, 2.0], [0.25, 0.0, 1.5]
        self.assertEqual(bl.check_ledger(initial, [0.25, 1.0, 3.5], ledger), [])
        wrong = bl.check_ledger(initial, [0.25, 1.25, 3.5], ledger)
        self.assertEqual(len(wrong), 1)
        self.assertIn("object 1", wrong[0])
        self.assertTrue(bl.check_ledger(initial, [0.25, 1.0], ledger))
        self.assertTrue(bl.check_ledger(initial, [float("nan"), 1.0, 3.5], ledger))

    def test_server_stats(self):
        ok = {"commits": 5, "tentative_accepted": 5, "tentative_rejected": 0,
              "scope_violations": 0}
        self.assertEqual(bl.check_stats(ok, 5), [])
        self.assertTrue(bl.check_stats(ok, 6))
        self.assertTrue(bl.check_stats(dict(ok, tentative_rejected=1), 5))
        self.assertTrue(bl.check_stats(None, 5))

    def test_failures_reach_the_error_rate(self):
        t = bl.Tally()
        t.attempt(3)
        t.check(bl.check_ledger([0.0], [1.0], [0.5]), "serve")
        t.check(bl.check_repeat(sim_run(), sim_run(waits=6)), "sim")
        self.assertEqual(t.failed, 2)
        self.assertAlmostEqual(t.error_rate, 2 / 3)


class Seeds(unittest.TestCase):
    def test_sub_seeds_are_fixed_and_distinct(self):
        a = [bl.sub_seed(1, "eager-storm", i) for i in range(8)]
        self.assertEqual(a, [bl.sub_seed(1, "eager-storm", i) for i in range(8)])
        self.assertEqual(len(set(a)), 8)
        self.assertNotEqual(a[0], bl.sub_seed(2, "eager-storm", 0))
        self.assertTrue(all(s > 0 for s in a))


class HostSpeed(unittest.TestCase):
    def test_kernel_does_fixed_work(self):
        self.assertEqual(bl.reference_kernel(1000), bl.reference_kernel(1000))

    def test_scaling_cancels_a_uniformly_slower_host(self):
        quiet = bl.scaled(1000.0, bl.NOMINAL_KERNEL_S)
        self.assertAlmostEqual(quiet, 1000.0)
        # Twice as slow: half the raw rate, twice the kernel time.
        self.assertAlmostEqual(bl.scaled(500.0, 2 * bl.NOMINAL_KERNEL_S), quiet)

    def test_scaling_rejects_empty_times(self):
        with self.assertRaises(ValueError):
            bl.scaled(1000.0, 0.0)

    def test_unstolen_counts_only_the_time_left_to_the_pass(self):
        self.assertAlmostEqual(bl.unstolen(1000.0, 0.0), 1000.0)
        # A quarter of the time taken away: the rate over the other three.
        self.assertAlmostEqual(bl.unstolen(750.0, 0.25), 1000.0)
        for share in (-0.1, 1.0):
            with self.assertRaises(ValueError):
                bl.unstolen(1000.0, share)


class Fingerprint(unittest.TestCase):
    def test_fields(self):
        fp = bl.host_fingerprint("release")
        self.assertEqual(set(fp), {"nproc", "cpu_model", "ocaml", "build_profile", "machine"})
        self.assertGreaterEqual(fp["nproc"], 1)
        self.assertEqual(fp["build_profile"], "release")


if __name__ == "__main__":
    unittest.main()
