"""The repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload runs-cold --seed 1 --seconds 20 --trace 0

Workloads are ``runs-cold`` and ``service-mix`` (see
``perfbench/workloads.py``).  One invocation:

1. sets the workload up :data:`SETUP_PROBES` times in fresh processes that
   only set up (imports, data generation, registration, one warm-up
   request) and exit;
2. runs the workload once more in a fresh process, which sets up, computes
   a direct-path reference answer for every instance, then runs the timed
   operations and checks every answer against its reference;
3. prints a ``detail`` line (per-class latencies with sample counts, the
   steadiness checks and, when traced, every layer measured) and, as the last
   line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones and no function is
wrapped; with ``--trace 1`` a separate run wraps each layer's public
functions (``perfbench/spans.py``) and the metrics are per-layer seconds and
exact counts.

The benchmark needs the program's sources next to it (``src/repro``); run
anywhere else it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402

WORKLOADS = ("runs-cold", "service-mix")
SETUP_PROBES = 6
#: Every process of a run hashes strings the same way.  Summary patterns that
#: tie are ordered by set iteration, which follows the string hash, so the
#: daemon and the in-process reference agree only under one hash seed.
HASH_SEED = "0"
#: Wall-clock budget of one invocation; the child processes share it.
BUDGET_SECONDS = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "explains_per_s": "1/s",
    "explain_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "gold_f1": "frac",
}

#: Per-layer metrics: name -> (source in the traced run, unit).  Seconds are
#: the median over the requests that entered the layer; counts are exact
#: totals over the run (zero when a workload never enters the layer).
PER_LAYER = {
    "stage1.s": ("seconds", "stage1"),
    "plan.provenance.s": ("seconds", "plan.provenance"),
    "canonical.s": ("seconds", "canonical"),
    "matching.features.s": ("seconds", "matching.features"),
    "matching.candidates.s": ("seconds", "matching.candidates"),
    "stage2.s": ("seconds", "stage2"),
    "stage2.self.s": ("seconds", "stage2.self"),
    "milp.build.s": ("seconds", "milp.build"),
    "solver.lower.s": ("seconds", "solver.lower"),
    "solver.highs.s": ("seconds", "solver.highs"),
    "summarize.s": ("seconds", "summarize"),
    "service.explain.s": ("seconds", "service.explain"),
    "service.cache_get.s": ("seconds", "service.cache_get"),
    "plan.provenance.rows": ("counts", "plan.provenance.rows"),
    "matching.candidates.count": ("counts", "matching.candidates.count"),
    "graphs.partitions": ("counts", "graphs.partition.partitions"),
    "graphs.largest_partition": ("counts", "graphs.partition.largest_partition"),
    "milp.models": ("counts", "milp.build.models"),
    "milp.vars": ("counts", "milp.build.vars"),
    "milp.constraints": ("counts", "milp.build.constraints"),
    "solver.lower.bytes": ("counts", "solver.lower.bytes"),
    "summarize.patterns": ("counts", "summarize.patterns"),
    "runs.compile.calls": ("counts", "runs.compile.calls"),
    "api.parse.calls": ("counts", "api.parse.calls"),
    "live.ingests": ("counts", "live.ingest.ingests"),
    "live.rewired": ("counts", "live.ingest.rewired"),
    "live.evicted": ("counts", "live.ingest.evicted"),
    **{
        f"cache.{tier}.{outcome}": ("counts", f"service.cache_get.{tier}.{outcome}")
        for tier in ("provenance", "plans", "features", "candidates", "problem", "report")
        for outcome in ("hits", "misses")
    },
}


def _child(args: list[str], deadline: float) -> dict:
    """Run ``workloads.py`` in a fresh process; returns its last-line JSON.

    The child runs in its own process group, so a timeout also stops the
    daemon a service-mix child started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = HASH_SEED
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        sys.stderr.write(stdout[-2000:] + stderr[-4000:])
        raise RuntimeError(f"workload process exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def class_latencies(ops: list[dict]) -> dict:
    """Median and p90 per operation class, each only where the rule allows,
    and the class's share of the timed seconds."""
    out = {}
    total = sum(op["seconds"] for op in ops)
    for kind in sorted({op["class"] for op in ops}):
        samples = [op["seconds"] for op in ops if op["class"] == kind and op["ok"]]
        entry = {"n": len(samples), "share": sum(samples) / total}
        for label, fraction in (("p50", 0.5), ("p90", 0.9)):
            value = measure.percentile(samples, fraction)
            if value is not None:
                entry[f"{label}_s"] = value
        out[kind] = entry
    return out


#: Metrics reported at the reference processor speed (see
#: ``measure.CALIBRATION_REFERENCE_S``), per workload: those whose spread over
#: seeds the normalization cut in most sweeps (``normalization_evidence`` in
#: ``perfbench/results/steadiness.json`` holds both spreads of every sweep).  Operation timings are normalized by
#: the samples taken between the run's operations, each set-up time by the
#: samples its process took right after setting up.
NORMALIZED = {
    "runs-cold": {"setup_s", "explains_per_s", "explain_s_p50"},
    "service-mix": {"setup_s", "explains_per_s", "explain_s_p50"},
}


def explain_rate(ops: list[dict]) -> float:
    """Explains per second: the median, over the run's units (passes over the
    pool, or rounds of the request sequence), of each unit's correct
    explains over its timed seconds.  Every unit of a workload does the same
    kind of work, so the median is the rate of a typical unit, and a few
    seconds of a slowed machine, or one question far costlier than the rest,
    do not move it."""
    units: dict = {}
    for op in ops:
        units.setdefault(op["unit"], []).append(op)
    return statistics.median(
        sum(op["ok"] and op["class"] != "ingest" for op in unit)
        / sum(op["seconds"] for op in unit)
        for unit in units.values()
    )


def end_to_end(result: dict, setups: list[dict], normalize: bool = True) -> dict:
    """The end-to-end figures of one run, normalized as :data:`NORMALIZED`
    says; ``normalize=False`` gives every figure as measured."""
    ops = result["ops"]
    ok_explains = [op for op in ops if op["class"] != "ingest" and op["ok"]]
    normalized = NORMALIZED[result["workload"]] if normalize else set()

    def at_reference(name: str, samples: list[float]) -> float:
        return measure.speed(samples) if name in normalized else 1.0

    window_samples = result["calibration_s"]
    p50 = measure.percentile([op["seconds"] for op in ok_explains], 0.5)
    return {
        "setup_s": statistics.median(
            setup["setup_s"] / at_reference("setup_s", setup["setup_calibration_s"])
            for setup in setups
        ),
        "explains_per_s": explain_rate(ops) * at_reference("explains_per_s", window_samples),
        "explain_s_p50": (
            p50 / at_reference("explain_s_p50", window_samples) if p50 is not None else None
        ),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
        "gold_f1": (
            statistics.fmean(op["f1"] for op in ok_explains) if ok_explains else None
        ),
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    values = {}
    for name, (source, key) in PER_LAYER.items():
        if source == "seconds":
            values[name] = layers["seconds"].get(key)
        else:
            values[name] = layers["counts"].get(key, 0)
    return values


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith(".s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}\n")
        return 2

    deadline = time.monotonic() + BUDGET_SECONDS
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = [_child([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    result = _child([*common, "--trace", str(args.trace)], deadline)
    setups.append(result)

    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    checks = result["checks"]
    e2e = end_to_end(result, setups)
    values = per_layer(result) if args.trace else e2e
    missing = sorted(name for name, value in values.items() if value is None)
    correct = (
        failed == 0
        and not missing
        and not result.get("errors")
        and not checks["wrapped_after_run"]
        and not checks.get("cache_evictions")
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": e2e,
        "end_to_end_measured": end_to_end(result, setups, normalize=False),
        "speed": measure.speed(result["calibration_s"]),
        "setups_s": [setup["setup_s"] for setup in setups],
        "window_s": result["window_s"],
        "classes": class_latencies(ops),
        "checks": checks,
        "missing": missing,
        "errors": sorted({op["error"] for op in ops if "error" in op})[:5]
        + result.get("errors", [])[:5],
    }
    if args.trace:
        detail["layers"] = result["layers"]
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": _unit(name)}
                    for name, value in values.items()
                    if value is not None
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
