"""Steadiness evidence: run each workload over many seeds and summarize.

Run from the root of a checkout::

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/steadiness.json
    python3 perfbench/steady.py --workloads service-mix --seeds 1-5

For every seed it runs ``perfbench/run.py --trace 0`` on each workload in
turn (interleaved, so every workload sees the same stretch of processor
speed) and reports, per end-to-end metric, the median, the quartiles and
their spread (``(q3 - q1) / median``) against the bound in
``BENCHMARK.json``, and the same for the figures as measured, before speed
normalization; a metric is steady when its spread is below a third of its
bound.  It reports each workload's processor-speed factors: since the runs
are interleaved, equal medians show that the factor follows the machine and
not the workload.  It also checks, from each run's detail line, that:

* each workload ran at one input size;
* every run explained the same multiset shape (explains per instance, or
  operations per client);
* ``gc.collect()`` ran before each timed operation;
* a class latency appears only on a workload whose operations produced it;
* no function was left wrapped by an untraced run.

With ``--trace-seeds`` it runs ``--trace 1`` twice per listed seed, asserts
the two runs' counts are identical, and reports the traced-vs-untraced
difference of each end-to-end figure as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=200, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def _summary(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = measure.quartiles(values)
    out = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] < bound / 3
    return out


def collect(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    """Untraced runs of every workload, interleaved seed by seed."""
    runs: dict = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            detail, result = _run(workload, seed, seconds, 0)
            runs[workload].append((detail, result))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"speed={detail['speed']:.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    return runs


def steadiness(workload: str, seeds: list[int], runs: list, bounds: dict) -> dict:
    metrics = {}
    for name in runs[0][1]["metrics"]:
        values = [result["metrics"][name]["value"] for _, result in runs]
        metrics[name] = _summary(values, bounds.get(name))
        metrics[name]["values"] = values
        measured = [detail["end_to_end_measured"][name] for detail, _ in runs]
        metrics[name]["measured"] = dict(_summary(measured, bounds.get(name)), values=measured)
    details = [detail for detail, _ in runs]
    speeds = [detail["speed"] for detail in details]
    checks = [detail["checks"] for detail in details]
    shapes = {
        json.dumps(
            {k: c[k] for k in ("explains_per_instance", "passes", "pool", "ops_per_client")
             if k in c},
            sort_keys=True,
        )
        for c in checks
    }
    classes = sorted({kind for detail in details for kind in detail["classes"]})
    expected_classes = {"cold"} if workload != "service-mix" else {
        "hit", "resolve", "miss", "ingest"}
    evidence = {
        "all_correct": all(result["correct"] for _, result in runs),
        "input_sizes": sorted({size for c in checks for size in c["input_sizes"]}),
        "one_input_size_per_run": all(
            len(c["input_sizes"]) == 1 for c in checks
        ) if workload != "service-mix" else "per database kind, see input_sizes",
        "multiset_shapes": sorted(shapes),
        "same_multiset_shape": len(shapes) == 1,
        "gc_collect_before_each_op": all(
            c["gc_collects"] == result["attempted"]
            for c, (_, result) in zip(checks, runs)
        ),
        "classes_seen": classes,
        "only_own_classes": set(classes) <= expected_classes,
        "unwrapped": all(not c["wrapped_after_run"] for c in checks),
        "no_cache_evictions": all(not c.get("cache_evictions") for c in checks),
        "class_time_shares": {
            kind: measure.quartiles(
                [d["classes"][kind]["share"] for d in details if kind in d["classes"]]
            )[1]
            for kind in classes
            if sum(kind in d["classes"] for d in details) > 1
        },
        "class_latencies": {
            kind: _summary(
                [d["classes"][kind]["p50_s"] for d in details if "p50_s" in d["classes"].get(kind, {})],
                None,
            )
            for kind in classes
            if sum("p50_s" in d["classes"].get(kind, {}) for d in details) > 1
        },
    }
    return {
        "seeds": seeds,
        "metrics": metrics,
        "speed": dict(_summary(speeds, None), values=speeds),
        "evidence": evidence,
    }


def tracing(workload: str, seeds: list[int], seconds: int) -> dict:
    out = {}
    for seed in seeds:
        untraced, _ = _run(workload, seed, seconds, 0)
        first, first_result = _run(workload, seed, seconds, 1)
        second, _ = _run(workload, seed, seconds, 1)
        overhead = {
            name: (first["end_to_end"][name] - untraced["end_to_end"][name])
            / untraced["end_to_end"][name]
            for name in ("explains_per_s", "explain_s_p50", "peak_rss_mb", "setup_s")
        }
        out[str(seed)] = {
            "counts_identical": first["layers"]["counts"] == second["layers"]["counts"],
            "traced_correct": first_result["correct"],
            "overhead_share": overhead,
            "layers_seconds": first["layers"]["seconds"],
            "hit_split": first["layers"].get("hit_split"),
        }
        print(f"{workload} trace seed={seed} counts_identical="
              f"{out[str(seed)]['counts_identical']} overhead={overhead}", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    workloads = args.workloads.split(",")
    runs = collect(workloads, _seeds(args.seeds), seconds)
    for workload in workloads:
        entry = steadiness(workload, _seeds(args.seeds), runs[workload], bounds)
        if args.trace_seeds:
            entry["tracing"] = tracing(workload, _seeds(args.trace_seeds), seconds)
        report["workloads"][workload] = entry
        for name, summary in entry["metrics"].items():
            print(f"{workload:15s} {name:15s} median={summary['median']:.4g} "
                  f"spread={summary['spread']:.3f} bound={summary.get('bound')} "
                  f"steady={summary.get('steady')} "
                  f"measured_spread={summary['measured']['spread']:.3f}", flush=True)
        print(f"{workload:15s} speed median={entry['speed']['median']:.4g} "
              f"spread={entry['speed']['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
