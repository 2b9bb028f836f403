#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size in both modes, asserts that every
metric is printed with its unit (and that the metrics of the layers on a
workload's path are measured, not zero), that the result line has exactly
the contract's keys, and that each output check fails when its condition
is violated. Takes about a minute on two cores after the build.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402

SEED = 7

# Per-layer metrics each workload must measure (non-zero); all others
# read 0 there. Counters that are 0 on a healthy run (guard trips,
# quarantines, sheds, retries, RTOs) are only required to be printed.
ON_PATH = {
    "abr-attack-mpc": {
        "abr.mpc.select_us.p50", "abr.mpc.select_us.p99", "abr.mpc.decisions",
        "adversary.step_s", "adversary.steps", "adversary.self_s",
        "rl.rollout_s", "rl.policy_s", "rl.update_s", "rl.ckpt_s", "rl.ckpt_bytes",
        "nn.update_gflops", "tracing.overhead",
    },
    "cc-attack-bbr": {
        "adversary.step_s", "adversary.steps", "adversary.self_s",
        "rl.rollout_s", "rl.policy_s", "rl.update_s", "rl.ckpt_s", "rl.ckpt_bytes",
        "nn.update_gflops", "netsim.self_s", "netsim.events", "netsim.events_per_s",
        "netsim.drops", "cc.self_s", "cc.acks", "cc.losses", "cc.consults",
        "tracing.overhead",
    },
    "fleet-pensieve": {
        "rl.rollout_s", "rl.policy_s", "rl.update_s", "nn.update_gflops",
        "nn.forward_batch_s", "nn.forward_gflops", "serve.fleet_s", "serve.decisions",
        "traces.gen_s", "exec.shard_speedup", "tracing.overhead",
    },
}

EXE = None
REPORTS = {}


def report(workload, traced):
    global EXE
    if EXE is None:
        EXE = run.build()
    key = (workload, traced)
    if key not in REPORTS:
        REPORTS[key] = run.run_worker(EXE, workload, SEED, 0, traced, tiny=True)
    return copy.deepcopy(REPORTS[key])


class Metrics(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_every_workload_passes_its_checks_in_both_modes(self):
        for w in run.WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=w, traced=traced):
                    rep = report(w, traced)
                    self.assertEqual(run.check(rep), [])
                    attempted, failed = run.operations(rep)
                    self.assertGreaterEqual(attempted, 1)
                    self.assertEqual(failed, 0)

    def test_end_to_end_metrics_have_units_and_are_nonzero(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                m = run.metrics(report(w, False), traced=False)
                self.assertEqual(set(m), set(run.END_TO_END))
                for name, v in m.items():
                    self.assertEqual(v["unit"], run.END_TO_END[name])
                    self.assertGreater(v["value"], 0, name)

    def test_per_layer_metrics_have_units_and_on_path_ones_are_measured(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                m = run.metrics(report(w, True), traced=True)
                self.assertEqual(set(m), set(run.PER_LAYER))
                for name, v in m.items():
                    self.assertEqual(v["unit"], run.PER_LAYER[name])
                for name in ON_PATH[w]:
                    self.assertGreater(m[name]["value"], 0, name)

    def test_command_line_prints_the_result_line_last(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "abr-attack-mpc", "--seed", str(SEED),
             "--seconds", "0", "--trace", "0", "--tiny"],
            stdout=subprocess.PIPE, text=True, check=True, cwd=HERE.parent,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertTrue(any("error_rate" in line for line in out[:-1]))
        self.assertTrue(any(line.startswith("provenance:") for line in out[:-1]))


class ChecksCatchViolations(unittest.TestCase):
    """Each output check reports its condition when the report violates it."""

    def violated(self, workload, traced, mutate, expect):
        rep = report(workload, traced)
        mutate(rep["result"])
        bad = run.check(rep)
        self.assertTrue(any(expect in b for b in bad), f"{expect!r} not in {bad}")

    def test_digest_differs_between_repetitions(self):
        def mutate(res):
            res["reps"][-1]["digest"] = "0" * 16
        self.violated("abr-attack-mpc", False, mutate, "between repetitions")

        def mutate_fleet(res):
            res["reps"][1]["digest"] = "0" * 16
        self.violated("fleet-pensieve", False, mutate_fleet, "between repetitions")

    def test_no_repeated_seed(self):
        self.violated("cc-attack-bbr", False, lambda res: res["reps"][-1].update(seed_index=99), "no seed")

    def test_traced_digest_differs(self):
        def mutate(res):
            for r in res["traced_reps"]:
                r["digest"] = "0" * 16
        self.violated("cc-attack-bbr", True, mutate, "traced digest")

    def test_one_shard_digest_differs(self):
        self.violated("fleet-pensieve", False, lambda res: res["one_shard"].update(digest="0" * 16), "1-shard")

    def test_set_up_model_differs(self):
        self.violated("fleet-pensieve", True, lambda res: res.update(traced_model="0" * 16), "Pensieve differs")

    def test_steps_trained_differ_from_requested(self):
        def mutate(res):
            res["reps"][0]["steps_trained"] -= 1
        self.violated("abr-attack-mpc", False, mutate, "requested")

    def test_non_finite_reward(self):
        def mutate(res):
            res["reps"][0]["nonfinite_rewards"] = 1
        self.violated("cc-attack-bbr", False, mutate, "non-finite reward")

    def test_utilization_outside_unit_interval(self):
        for field, value in (("util_max", 1.5), ("util_min", -0.1), ("util_max", None)):
            with self.subTest(field=field, value=value):
                def mutate(res):
                    res["reps"][0][field] = value
                self.violated("cc-attack-bbr", False, mutate, "utilization outside")

    def test_session_accounting_broken(self):
        def mutate(res):
            res["reps"][0]["completed"] -= 1
        self.violated("fleet-pensieve", False, mutate, "!= admitted")

    def test_decisions_not_sessions_times_48(self):
        def mutate(res):
            res["reps"][0]["decisions"] += 1
        self.violated("fleet-pensieve", False, mutate, "x 48")

    def test_checkpoint_resumes_to_other_state(self):
        def mutate(res):
            res["reps"][0]["resumed_state"] = "resume failed: corrupt"
        self.violated("abr-attack-mpc", False, mutate, "checkpoint resumes")

    def test_training_error(self):
        def mutate(res):
            res["traced_reps"][0]["error"] = "diverged"
        self.violated("abr-attack-mpc", True, mutate, "training failed")


if __name__ == "__main__":
    unittest.main(verbosity=2)
