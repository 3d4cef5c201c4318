"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

A shortened copy of each workload (0.5 ms warm-up and window, at most two
sub-seeds) must pass every output check, timed and traced; and for each
check, a doctored copy of a real record must make that check fail.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def short_record(workload, trace=0):
    return run.run_sim(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                        "--trace", str(trace), "--short"] +
                       (["--trace-out", os.path.join(run.TRACES, "test-" + workload)]
                        if trace else []))


def set_flow(sub, flow, column, value):
    sub["flows"][flow][sub["flow_columns"].index(column)] = value


def get_flow(sub, flow, column):
    return sub["flows"][flow][sub["flow_columns"].index(column)]


class ShortWorkloads(unittest.TestCase):
    records = {}

    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.TRACES, exist_ok=True)
        for w in run.WORKLOADS:
            cls.records[w] = short_record(w)

    def test_every_check_passes(self):
        for w, rec in self.records.items():
            with self.subTest(workload=w):
                self.assertEqual(checks.check_record(rec), [])
                self.assertGreater(rec["attempted"], 0)
                self.assertEqual(rec["failed"], 0)

    def test_traced_runs_pass_and_match_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rec = short_record(w, trace=1)
                self.assertEqual(checks.check_record(rec), [])
                traced, untraced = rec["round_digests"]
                self.assertEqual(traced, untraced)
                self.assertEqual(set(rec["layers"]), {m[0] for m in run.PER_LAYER})
                with open(rec["trace_file"]) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def doctored(self, workload, check, edit):
        """Applies `edit` to a copy of the workload's record and returns the
        failures `check` reports (sub-run checks run on sub-run 0)."""
        rec = copy.deepcopy(self.records[workload])
        edit(rec, rec["subruns"][0])
        if check is checks.check_digests:
            return check(rec)
        return check(rec, rec["subruns"][0])

    def assert_fails(self, workload, check, edit):
        self.assertTrue(self.doctored(workload, check, edit),
                        "%s did not catch the doctored %s record" % (check.__name__, workload))

    def test_conservation_catches_overdelivery(self):
        self.assert_fails("kv", checks.check_conservation,
                          lambda r, s: set_flow(s, 0, "delivered", get_flow(s, 0, "sent") + 10**6))

    def test_conservation_catches_lost_packets(self):
        self.assert_fails("kv", checks.check_conservation,
                          lambda r, s: set_flow(s, 0, "warm_sent", get_flow(s, 0, "warm_sent") + 10**6))

    def test_pacing_catches_extra_packet(self):
        self.assert_fails("shardkv", checks.check_pacing,
                          lambda r, s: set_flow(s, 3, "sent", get_flow(s, 3, "sent") + 2))

    def test_rates_catch_wrong_aggregate(self):
        self.assert_fails("kv", checks.check_rates,
                          lambda r, s: s.update(aggregate_mpps=s["aggregate_mpps"] * 1.001))

    def test_rates_catch_delivery_above_offer(self):
        def edit(rec, sub):
            set_flow(sub, 0, "delivered", get_flow(sub, 0, "sent") + 10**5)
        self.assert_fails("shardkv", checks.check_rates, edit)

    def test_tail_summary_catches_shifted_mean(self):
        self.assert_fails("multitenant", checks.check_tail_summary,
                          lambda r, s: s.update(tail_p99_exact_ns=s["tail_p99_exact_ns"] + 5))

    def test_latency_floor_catches_fast_flow(self):
        self.assert_fails("kv", checks.check_latency_floor,
                          lambda r, s: set_flow(s, 1, "p50_ns", 100))

    def test_audit_catches_violation(self):
        self.assert_fails("multitenant", checks.check_audit,
                          lambda r, s: s["audit_violations"].append("pcie/bytes: doctored"))

    def test_ddio_catches_overfull_slice(self):
        def edit(rec, sub):
            occ, cap = sub["ddio_occupancy"][0]
            sub["ddio_occupancy"][0] = [cap + 1, cap]
        self.assert_fails("multitenant", checks.check_ddio, edit)

    def test_kv_catches_miscounted_calls(self):
        self.assert_fails("kv", checks.check_kv,
                          lambda r, s: s["kv"][0].update(gets=s["kv"][0]["gets"] + 1))

    def test_kv_catches_skewed_get_share(self):
        def edit(rec, sub):
            k = sub["kv"][0]
            k.update(gets=k["calls"], puts=0)
        self.assert_fails("kv", checks.check_kv, edit)

    def test_digests_catch_round_mismatch(self):
        def edit(rec, sub):
            rec["round_digests"].append(["0" * 16] * len(rec["round_digests"][0]))
        self.assert_fails("kv", checks.check_digests, edit)

    def test_digests_catch_shard_count_mismatch(self):
        def edit(rec, sub):
            rec["reference_digests"] = [["0" * 16]]
        self.assert_fails("shardkv", checks.check_digests, edit)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({(m["name"], m["unit"]) for m in bench["end_to_end"]},
                         set(run.END_TO_END))
        self.assertEqual({(m["name"], m["unit"]) for m in bench["per_layer"]},
                         {(m[0], m[1]) for m in run.PER_LAYER})

    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kv",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
