#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the worker (the Rust package in
this directory) from source, runs one workload in a process of its own
with a pinned environment, checks the worker's outputs, prints a
human-readable summary and, as the last line of standard output, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Exits 0 when every output check passes, 1 when one fails
(the result line is still printed), 2 on bad arguments and 1 without a
result line when the worker cannot be built or run.

See README.md in this directory for the workloads, the metrics and the
measured spread.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("abr-attack-mpc", "cc-attack-bbr", "fleet-pensieve")

END_TO_END = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "abr.mpc.select_us.p50": "us",
    "abr.mpc.select_us.p99": "us",
    "abr.mpc.decisions": "count",
    "adversary.step_s": "s",
    "adversary.steps": "count",
    "adversary.self_s": "s",
    "rl.rollout_s": "s",
    "rl.policy_s": "s",
    "rl.update_s": "s",
    "rl.guard_trips": "count",
    "rl.ckpt_s": "s",
    "rl.ckpt_bytes": "bytes",
    "nn.update_gflops": "GFLOP/s",
    "nn.forward_batch_s": "s",
    "nn.forward_gflops": "GFLOP/s",
    "netsim.self_s": "s",
    "netsim.events": "count",
    "netsim.events_per_s": "1/s",
    "netsim.drops": "count",
    "cc.self_s": "s",
    "cc.acks": "count",
    "cc.losses": "count",
    "cc.rtos": "count",
    "cc.consults": "count",
    "serve.fleet_s": "s",
    "serve.decisions": "count",
    "serve.quarantined": "count",
    "serve.shed": "count",
    "serve.shard_retries": "count",
    "traces.gen_s": "s",
    "exec.shard_speedup": "ratio",
    "tracing.overhead": "ratio",
}

# Knobs the program reads that change what is measured. All are cleared
# except EXEC_WORKERS, pinned to the fleet's shard count so no default
# depends on the host's core count.
KNOBS = (
    "ADVNET_TELEMETRY",
    "ADVNET_FAULT_PLAN",
    "ADVNET_FAULT_ITER",
    "ADVNET_WATCHDOG_MS",
    "EXEC_WORKERS",
    "NN_TILE_S",
    "NN_TILE_R",
    "NN_TILE_K",
    "FULL",
)
PINNED = {"EXEC_WORKERS": "2"}

# Each run must end within 180 s; the worker gets what is left after the
# build and the checks.
WORKER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in KNOBS and not k.startswith("ADVNET_")}
    env.update(PINNED)
    return env


def target_dir():
    # cargo runs from ROOT, so a relative CARGO_TARGET_DIR is relative to it
    return ROOT / os.environ.get("CARGO_TARGET_DIR", HERE / "target")


def build():
    """Build the worker; return its path. Cargo output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("building the worker failed")
    exe = target_dir() / "release" / "advnet-perfbench"
    if not exe.is_file():
        fail(f"worker binary missing at {exe}")
    return exe


def run_worker(exe, workload, seed, seconds, traced, tiny=False):
    """Run one workload in a fresh process; return the worker's report."""
    work_dir = ROOT / ".bench_work" / str(os.getpid())
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--work-dir", str(work_dir)]
    cmd += ["--traced"] if traced else []
    cmd += ["--tiny"] if tiny else []
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    if done.returncode != 0:
        fail(f"worker exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("worker printed no report")
    return json.loads(lines[-1])


def throughput(reps):
    """Work per second over the timed body: total work ÷ total wall time."""
    return sum(r["work"] for r in reps) / sum(r["wall_s"] for r in reps)


def untraced_reps(report):
    """Untraced repetitions, the fleet's 1-shard one outside the timed body
    included."""
    res = report["result"]
    return res["reps"] + ([res["one_shard"]] if "one_shard" in res else [])


def all_reps(report):
    return untraced_reps(report) + report["result"].get("traced_reps", [])


def check(report):
    """Every output check of the benchmark; returns the list of violations."""
    res = report["result"]
    bad = []
    reps = all_reps(report)
    # repetitions share a seed when they share a seed index
    digests, traced = {}, {}
    for r in untraced_reps(report):
        digests.setdefault(r["seed_index"], set()).add(r["digest"])
    for r in res.get("traced_reps", []):
        traced.setdefault(r["seed_index"], set()).add(r["digest"])
    if not any(n >= 2 for n in Counter(r["seed_index"] for r in untraced_reps(report)).values()):
        bad.append("no seed was repeated, so repeatability is unchecked")
    for ds in digests.values():
        if len(ds) != 1:
            bad.append(f"digest differs between repetitions of one seed: {sorted(ds)}")
    for i, ds in sorted(traced.items()):
        if ds != digests.get(i):
            bad.append(f"traced digest {sorted(ds)} differs from untraced {sorted(digests.get(i, ()))}")
    if res["unit"] == "steps":
        for r in reps:
            if r["error"] is not None:
                bad.append(f"training failed: {r['error']}")
            if r["steps_trained"] != r["steps_requested"]:
                bad.append(f"trained {r['steps_trained']} steps, requested {r['steps_requested']}")
            if r["nonfinite_rewards"]:
                bad.append(f"{r['nonfinite_rewards']} iterations with a non-finite reward")
            if r["resumed_state"] != r["trained_state"]:
                bad.append(f"checkpoint resumes to state {r['resumed_state']}, trained {r['trained_state']}")
            lo, hi = r["util_min"], r["util_max"]
            if report["workload"] == "cc-attack-bbr" and (lo is None or hi is None or lo < 0 or hi > 1):
                bad.append(f"BBR interval utilization outside [0, 1]: [{lo}, {hi}]")
    else:
        models = {m["digest"] for m in res["setup_models"]} | {res["model"]}
        if "traced_model" in res:
            models.add(res["traced_model"])
        if len(models) != 1:
            bad.append(f"trained Pensieve differs between set-ups of one seed: {sorted(models)}")
        two_shard = {r["digest"] for r in res["reps"]}
        if {res["one_shard"]["digest"]} != two_shard:
            bad.append(f"1-shard digest {res['one_shard']['digest']} differs from 2-shard {sorted(two_shard)}")
        for r in reps:
            if r["completed"] + r["quarantined"] + r["shed"] != r["admitted"]:
                bad.append(
                    f"completed {r['completed']} + quarantined {r['quarantined']} + shed {r['shed']}"
                    f" != admitted {r['admitted']}"
                )
            if r["chunks_per_session"] != 48 or r["decisions"] != r["sessions"] * 48:
                bad.append(f"decisions {r['decisions']} != sessions {r['sessions']} x 48")
    return bad


def operations(report):
    """(attempted, failed): PPO iterations and divergence-guard trips or
    training errors for the attack workloads; admitted sessions and
    quarantined or shed ones for the fleet."""
    reps = all_reps(report)
    if report["result"]["unit"] == "steps":
        return (
            sum(r["iterations"] for r in reps),
            sum(r["guard_trips"] + (r["error"] is not None) for r in reps),
        )
    return sum(r["admitted"] for r in reps), sum(r["quarantined"] + r["shed"] for r in reps)


def metrics(report, traced):
    """The result line's metrics; per-layer metrics of layers off this
    workload's path read 0."""
    res = report["result"]
    if traced:
        layers = res["layers"]
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            fail(f"worker reported unknown per-layer metrics {sorted(unknown)}")
        return {k: {"value": float(layers.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
    values = {
        "throughput": throughput(res["reps"]),
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def provenance(seed):
    def out(*cmd):
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, text=True)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    # a checkout without git history still names its sources by content
    h = hashlib.sha256()
    for p in sorted((ROOT / "crates").rglob("*")):
        if p.is_file() and p.suffix in (".rs", ".toml"):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {
        "seed": seed,
        "commit": out("git", "rev-parse", "HEAD"),
        "source_sha256": h.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "rustc": out("rustc", "--version"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    exe = build()
    report = run_worker(exe, args.workload, args.seed, args.seconds, args.trace == 1, args.tiny)
    bad = check(report)
    attempted, failed = operations(report)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(report, args.trace == 1),
    }

    print(f"provenance: {json.dumps(provenance(args.seed))}")
    env = worker_env()
    print(f"worker environment: {json.dumps({k: env.get(k) for k in KNOBS})}")
    res = report["result"]
    for kind, reps in (("untraced", untraced_reps(report)), ("traced", res.get("traced_reps", []))):
        print(f"{kind} digests by seed index: {sorted({(r['seed_index'], r['digest']) for r in reps})}")
    for k, m in result["metrics"].items():
        print(f"{args.workload}  {k:<22} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload}  {'error_rate':<22} {failed / attempted:>14.6g} failed/attempted")
    for b in bad:
        print(f"CHECK FAILED: {b}")
    print(json.dumps(result))
    sys.exit(0 if not bad else 1)


if __name__ == "__main__":
    main()
