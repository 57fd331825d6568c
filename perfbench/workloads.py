"""One workload run in a fresh process: set up, compute references, time, check.

Run from the root of a checkout::

    python3 perfbench/workloads.py --workload runs-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/workloads.py --workload runs-cold --seed 1 --setup-only

The last line of standard output is one JSON object with the raw results
(per-operation latencies, classes and correctness, set-up time, peak RSS and,
for a traced run, per-layer seconds and counts).  ``perfbench/run.py`` turns
it into the benchmark's metrics.

Workloads (the workload seed is the only input; every generated input is
derived from it):

* ``runs-cold`` -- ``{"runs": ...}`` payloads through
  ``runs_request_from_payload`` + ``ExplainService.explain``, caches cleared
  before each.  The pool is ``single_thread`` against each of
  ``vectorized``, ``shared_state`` and ``async_event_loop`` at 45 rows per
  side, over :data:`RUNS_SCENARIOS` scenario seeds.
* ``service-mix`` -- the daemon runs as its own process; this process is the
  load generator, one closed-loop client with its own IMDb view pair and
  academic pair.  It replays an analyst's interactive loop (see
  :meth:`MixClient._sequence`): new questions (misses), solve-config
  refinements of them (resolves), re-opened earlier answers (report-cache
  hits) and ``POST /ingest`` data refreshes.  One client, not two: with two
  clients on two processors every hit waited for the other client's misses
  on the daemon's interpreter lock, and the hit median moved by up to 2x
  between runs.

Every timed run explains whole passes over its pool (or the whole fixed
request sequence), and the number of passes depends only on ``--seconds``,
so every run of a workload explains the same multiset of instances at one
input size.  ``gc.collect()`` runs before each timed operation, after
``gc.freeze()`` has moved the set-up heap out of the collector's way.  Both
workloads sample the processor speed (``measure.Calibration``) between
operations, outside their timing.

A run keeps to one processor: this process and the daemon it starts (which
inherits the affinity) share it.  The processors of a shared machine are
slowed by their neighbours independently, so a speed sample is worth
something only on the processor that does the work.  Nothing runs in
parallel on it: runs-cold explains one instance at a time, and the one
service-mix client waits for each response.
"""

from __future__ import annotations

import os
import time

SETUP_START = time.perf_counter()
if __name__ == "__main__":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import gc  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import urllib.request  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import spans  # noqa: E402
from repro.core.explain3d import Explain3D, Explain3DConfig  # noqa: E402
from repro.core.explanations import (  # noqa: E402
    ExplanationSet,
    ProvenanceExplanation,
    ValueExplanation,
)
from repro.datasets.academic import generate_academic_pair, umass_config  # noqa: E402
from repro.datasets.gold import build_gold_from_entities  # noqa: E402
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload  # noqa: E402
from repro.datasets.sql_catalog import academic_sql, figure1_databases, imdb_sql  # noqa: E402
from repro.datasets.variants import VariantsConfig, generate_variant_runs  # noqa: E402
from repro.evaluation.metrics import evaluate_explanations  # noqa: E402
from repro.fleet.__main__ import canonical_report  # noqa: E402
from repro.graphs.bipartite import Side  # noqa: E402
from repro.live import apply_changes_copy  # noqa: E402
from repro.relational.errors import ExecutionError  # noqa: E402
from repro.relational.provenance import provenance_relation  # noqa: E402
from repro.runs.bridge import build_run_problem  # noqa: E402
from repro.service.api import database_from_spec, runs_request_from_payload  # noqa: E402
from repro.service.engine import ExplainService  # noqa: E402

WORKLOADS = ("runs-cold", "service-mix")

RUNS_ROWS = 45
#: Six scenarios, so a run's figures average over 18 instances and depend
#: little on which scenarios one seed draws.
RUNS_SCENARIOS = 6
RUNS_VARIANTS = ("vectorized", "shared_state", "async_event_loop")
#: Seconds of timed work one pass over the runs-cold pool takes at the
#: commit that defined the benchmark (18 explains of ~0.6 s).
RUNS_PASS_SECONDS = 11.0

#: Every timed run makes at least this many explains, so the median has
#: measure.MIN_BEYOND samples above it.
MIN_EXPLAINS = 2 * measure.MIN_BEYOND
#: At least three passes, so the median pass (``run.explain_rate``) is not a
#: mean of two.
MIN_PASSES = 3


def _setup_speed() -> list[float]:
    """Processor-speed samples taken right after set-up, outside its timing."""
    task = measure.Calibration()
    return [task.sample() for _ in range(3)]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(seconds: float, pass_seconds: float, pool: int) -> int:
    by_time = max(MIN_PASSES, round(seconds / pass_seconds))
    by_samples = -(-MIN_EXPLAINS // pool)
    return max(by_time, by_samples)


def _explanation_set(payload: dict) -> ExplanationSet:
    """The served explanations of one JSON report as an ExplanationSet."""
    explanations = payload["explanations"]
    return ExplanationSet(
        provenance=[
            ProvenanceExplanation(Side(item["side"]), item["key"])
            for item in explanations["provenance"]
        ],
        value=[
            ValueExplanation(
                Side(item["side"]), item["key"], item["old_impact"], item["new_impact"]
            )
            for item in explanations["value"]
        ],
    )


# ---------------------------------------------------------------------------
# runs-cold
# ---------------------------------------------------------------------------

def runs_pool(seed: int, rows: int = RUNS_ROWS, scenarios: int = RUNS_SCENARIOS) -> list[dict]:
    pool = []
    for index in range(scenarios):
        scenario_seed = measure.derive_seed(seed, "runs", rows, index)
        scenario = generate_variant_runs(VariantsConfig(num_rows=rows, seed=scenario_seed))
        for variant in RUNS_VARIANTS:
            pool.append(
                {
                    "id": f"runs/{scenario_seed}/{variant}",
                    "size": rows,
                    "scenario": scenario,
                    "variant": variant,
                    "payload": {
                        "runs": {
                            "left": {
                                "name": "single_thread",
                                "records": scenario.runs["single_thread"],
                            },
                            "right": {"name": variant, "records": scenario.runs[variant]},
                            "key": "id",
                            "compare": "tax",
                        }
                    },
                }
            )
    return pool


def runs_reference(instance: dict) -> dict:
    scenario, variant = instance["scenario"], instance["variant"]
    problem = build_run_problem(
        scenario.relation("single_thread"), scenario.relation(variant),
        key="id", compare="tax",
    )
    return {
        "canonical": canonical_report(problem.explain().to_dict()),
        "gold": scenario.divergent_ids[variant] | scenario.missing_ids[variant],
    }


def runs_f1(report, gold: set) -> float:
    """F1 of the explained row ids against the scenario's computed gold."""
    problem = report.problem
    canonical = {Side.LEFT: problem.canonical_left, Side.RIGHT: problem.canonical_right}
    explained = report.explanations.provenance + report.explanations.value
    predicted = {canonical[item.side][item.key].value("id") for item in explained}
    hits = len(predicted & gold)
    if not predicted and not gold:
        return 1.0
    if not hits:
        return 0.0
    precision, recall = hits / len(predicted), hits / len(gold)
    return 2 * precision * recall / (precision + recall)


def runs_setup(seed: int) -> dict:
    """Service and pool, plus one warm-up request on a small run pair (so
    set-up time does not grow with the pool)."""
    service = ExplainService()
    pool = runs_pool(seed)
    warmup = runs_pool(seed, rows=24, scenarios=1)[0]
    service.explain(runs_request_from_payload(warmup["payload"], service))
    service.clear_caches()
    return {"service": service, "pool": pool}


def runs_run(seed: int, seconds: float, trace: bool) -> dict:
    state = runs_setup(seed)
    setup_s = time.perf_counter() - SETUP_START
    setup_calibration = _setup_speed()
    service, pool = state["service"], state["pool"]
    reference_start = time.perf_counter()
    references = [runs_reference(instance) for instance in pool]
    reference_s = time.perf_counter() - reference_start
    passes = _passes(seconds, RUNS_PASS_SECONDS, len(pool))
    calibration_task = measure.Calibration()

    recorder = spans.Recorder() if trace else None
    installation = spans.install(recorder) if trace else None
    ops = []
    calibration: list[float] = []
    gc.collect()
    gc.freeze()
    window_start = time.perf_counter()
    try:
        for pass_index in range(passes):
            for index, instance in enumerate(pool):
                service.clear_caches()
                gc.collect()
                # Sampled with the caches empty and the garbage collected.
                calibration.append(calibration_task.sample())
                request_id = f"{pass_index}/{index}"
                root = recorder.root("op", request_id) if trace else nullcontext()
                error = result = None
                start = time.perf_counter()
                try:
                    with root:
                        result = service.explain(
                            runs_request_from_payload(instance["payload"], service)
                        )
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not raised
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                ops.append(_check_runs(instance, references[index], result, error, elapsed))
                ops[-1]["unit"] = pass_index
                result = None
    finally:
        window = time.perf_counter() - window_start
        if installation is not None:
            installation.restore()
    out = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        "reference_s": reference_s,
        "window_s": window,
        "ops": ops,
        "peak_rss_mb": _rss_mb(),
        "calibration_s": calibration,
        "checks": {
            "input_sizes": sorted({instance["size"] for instance in pool}),
            "passes": passes,
            "pool": len(pool),
            "explains_per_instance": sorted(set(Counter(op["instance"] for op in ops).values())),
            "multiset": measure.digest(op["instance"] for op in ops),
            "gc_collects": len(ops),
            "wrapped_after_run": spans.installed(),
        },
    }
    if trace:
        seconds_by_layer, counts = spans.layer_metrics([s.to_dict() for s in recorder.spans])
        out["layers"] = {"seconds": seconds_by_layer, "counts": counts}
    return out


def _check_runs(instance, reference, result, error, elapsed) -> dict:
    op = {"instance": instance["id"], "class": "cold", "seconds": elapsed, "ok": False, "f1": None}
    if error is not None:
        op["error"] = error
        return op
    if canonical_report(result.to_dict()) != reference["canonical"]:
        op["error"] = "served answer differs from the direct-path reference"
        return op
    op["f1"] = runs_f1(result.report, reference["gold"])
    op["ok"] = True
    return op


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

#: Solve-config refinements an analyst tries on a question: each re-runs
#: Stages 2-3 on the cached problem.
PERTURBATIONS = (
    {"min_summary_precision": 0.9},
    {"batch_size": 50},
    {"use_prepartitioning": False},
    {"partitioning": "none"},
)
#: IMDb questions per template Q1-Q9 in MIX_SECONDS seconds of timed work;
#: scaled by ``--seconds / MIX_SECONDS``.  At 4 per template a run holds 36
#: rounds: about 200 distinct reports and 80 distinct problems, below the
#: daemon's default cache sizes (256 reports, 128 entries per other tier), so
#: no entry is evicted (the run checks the daemon's eviction count).
MIX_PER_TEMPLATE = 4
MIX_SECONDS = 20.0
#: The processor speed is sampled before every this many requests (about
#: 100 samples a run: a sample in the load generator reads noisier than one
#: in the process that does the work).
MIX_CALIBRATION_EVERY = 6


def _registration(db, name: str) -> dict:
    relations, dtypes = {}, {}
    for relation_name, relation in db.relations().items():
        relations[relation_name] = relation.as_dicts()
        dtypes[relation_name] = {
            attribute.name: attribute.dtype.value for attribute in relation.schema
        }
    return {"name": name, "relations": relations, "dtypes": dtypes}


class MixClient:
    """The closed-loop client: its data, its request sequence, its references."""

    def __init__(self, seed: int, per_template: int):
        rng = random.Random(measure.derive_seed(seed, "mix"))
        # The IMDb universe is the generator's default one, as a deployment's
        # data would be; the seed picks the analyst's questions (4 of its 10
        # years per template) and their order.  A universe generated per seed
        # moved the typical question's cost by 10-15% between seeds.
        imdb = generate_imdb_workload(IMDbConfig())
        academic = generate_academic_pair(
            replace(umass_config(), seed=measure.derive_seed(seed, "academic"))
        )
        names = ["imdb1", "imdb2", "acadL", "acadR"]
        self.registrations = [
            _registration(db, name)
            for db, name in zip(
                (imdb.db_view1, imdb.db_view2, academic.db_left, academic.db_right), names
            )
        ]
        # Local mirrors built exactly as the daemon builds its copies.
        self.mirrors = {spec["name"]: database_from_spec(spec) for spec in self.registrations}
        self.names = names
        self.imdb = imdb
        self.academic = academic
        self.university = umass_config().university
        self.ops = self._sequence(rng, per_template)

    # -- requests ------------------------------------------------------------
    def _imdb_bases(self, rng: random.Random, per_template: int) -> list[tuple]:
        """``per_template`` distinct (template, year) pairs per template Q1-Q9,
        in seeded order.

        A fixed count per template keeps the template mix, and so the miss
        cost, the same for every seed.  Q10 is left out: its cost depends on the genre
        (0.4-2.7 s at one seed), which would make this workload's throughput
        a function of the seed.
        """
        years = self.imdb.years_with_movies()
        bases = []
        for template in self.imdb.TEMPLATES[:9]:
            candidates = rng.sample(years, len(years))
            bases += [(template, y) for y in candidates if self._answerable(template, y)][
                :per_template
            ]
        rng.shuffle(bases)
        return bases

    def _answerable(self, template: str, year: int) -> bool:
        """False when a view's aggregate input holds a non-numeric value (the
        generator injects such errors); the program rejects those requests
        with a typed error, which is not what this workload measures."""
        pair = self.imdb.pair(template, year)
        try:
            for query, db in ((pair.query_left, pair.db_left), (pair.query_right, pair.db_right)):
                provenance_relation(query, db)
        except ExecutionError:
            return False
        return True

    def payload(self, base: tuple, perturbation) -> dict:
        if base[0] == "academic":
            pair = self.academic
            sql = academic_sql(self.university)
            left, right = sql["Q1"], sql["Q2"]
            databases = self.names[2], self.names[3]
        else:
            pair = self.imdb.pair(*base)
            sql = imdb_sql(*base)
            left, right = sql["v1"], sql["v2"]
            databases = self.names[0], self.names[1]
        # One solver worker: on two processors the default two-thread pool
        # makes an explain no faster and twice as noisy (per-explain quartile
        # spread 18% vs 9% on a synthetic n=300 explain).
        config = {"min_similarity": pair.default_min_similarity, "workers": 1}
        if perturbation is not None:
            config.update(PERTURBATIONS[perturbation])
        return {
            "database_left": databases[0],
            "query_left": {"name": pair.query_left.name, "sql": left},
            "database_right": databases[1],
            "query_right": {"name": pair.query_right.name, "sql": right},
            "attribute_matches": [
                [match.left[0], match.right[0], match.relation.value]
                for match in pair.attribute_matches
            ],
            "config": config,
        }

    def _sequence(self, rng: random.Random, per_template: int) -> list[dict]:
        """The fixed seeded operation list: one round per IMDb question.

        The proportions follow the interactive loop Explain3D serves: an
        analyst asks, reads the explanation, refines and asks again.  A round:

        1. a data refresh, ``POST /ingest`` on the academic statistics,
           alternately inside and outside the academic query's provenance;
        2. the academic question re-asked to see whether the refresh changed
           its answer: a miss after a touching refresh, a hit on the rewired
           report otherwise;
        3. a new IMDb question (a miss), then each solve-config refinement of
           it in turn (resolves); after refinement ``j`` the analyst re-opens
           the ``j`` earlier answers of the question to compare (hits).

        A round is 1 ingest and 16 explains: 10.5 hits, 4 resolves and 1.5
        misses on average.  The rng only orders the questions.
        """
        variants = [None, *range(len(PERTURBATIONS))]
        ops: list[dict] = []
        for number, base in enumerate(self._imdb_bases(rng, per_template)):
            ops.append({"kind": "ingest", "touching": number % 2 == 0, "number": number,
                        "round": number})
            ops.append({"kind": "explain", "key": (("academic",), None), "round": number})
            for j, variant in enumerate(variants):
                ops += [
                    {"kind": "explain", "key": (base, asked), "round": number}
                    for asked in (variant, *variants[:j])
                ]
        return ops

    # -- ingests -------------------------------------------------------------
    def _ingest_changes(self, db, touching: bool, number: int) -> list[dict]:
        """Row changes for one ingest against the academic statistics side.

        A touching ingest updates a Stats row of the queried university (in
        the query's provenance, so cached artifacts are evicted).  Otherwise
        it deletes a Stats row of another university, which the join never
        reaches (outside every lineage, so cached artifacts are rewired).
        Rows are addressed by position: a ``row_id`` reference is normalized
        twice on the ``POST /ingest`` path and rejected.
        """
        schools = db.relation("School").as_dicts()
        ours = {row["ID"] for row in schools if row["Univ_name"] == self.university}
        rows = [
            (position, record)
            for position, record in enumerate(db.relation("Stats").as_dicts())
            if (record["ID"] in ours) == touching
        ]
        position, record = rows[(number // 2 * 7) % len(rows)]
        if touching:
            return [
                {"op": "update", "row": position,
                 "record": {"bach_degr": int(record["bach_degr"]) + 1 + number}}
            ]
        return [{"op": "delete", "row": position}]

    def prepare(self) -> None:
        """Walk the sequence once: wire bodies, expected answers, gold sets."""
        acad_right = self.names[3]
        db_right = self.mirrors[acad_right]
        version = 0
        references: dict = {}
        golds: dict = {}
        self.wire = []
        for number, op in enumerate(self.ops):
            request_id = f"r{number}"
            if op["kind"] == "ingest":
                changes = self._ingest_changes(db_right, op["touching"], op["number"])
                relation = "Stats"
                new_relation, _ = apply_changes_copy(db_right.relation(relation), changes)
                db_right = db_right.with_relation(relation, new_relation)
                version += 1
                body = {"database": acad_right, "relation": relation, "changes": changes,
                        "delta_id": request_id}
                op["expected_fingerprint"] = db_right.fingerprint()
                self.wire.append(("/ingest", json.dumps(body).encode(), request_id))
                continue
            base, perturbation = op["key"]
            at = version if base[0] == "academic" else 0
            ref_key = (base, perturbation, at)
            if ref_key not in references:
                references[ref_key] = self._reference(base, perturbation, db_right)
                if (base, at) not in golds:
                    golds[(base, at)] = self._gold(base, references[ref_key]["problem"])
            op["reference"] = references[ref_key]
            op["gold"] = golds[(base, at)]
            self.wire.append(
                ("/explain", json.dumps(self.payload(base, perturbation)).encode(), request_id)
            )

    def _reference(self, base, perturbation, db_right) -> dict:
        payload = self.payload(base, perturbation)
        config = Explain3DConfig(**payload["config"])
        if base[0] == "academic":
            pair = self.academic
            db_left = self.mirrors[self.names[2]]
        else:
            pair = self.imdb.pair(*base)
            db_left, db_right = self.mirrors[self.names[0]], self.mirrors[self.names[1]]
        report = Explain3D(config).explain(
            pair.query_left, db_left, pair.query_right, db_right,
            attribute_matches=pair.attribute_matches,
        )
        return {"canonical": canonical_report(report.to_dict()), "problem": report.problem}

    def _gold(self, base, problem):
        pair = self.academic if base[0] == "academic" else self.imdb.pair(*base)
        return build_gold_from_entities(
            problem.canonical_left, problem.canonical_right,
            pair.entity_ids_left, pair.entity_ids_right,
        )


def _post(daemon, path: str, body: bytes, request_id: str | None = None):
    """One request on its own connection, as the repository's ServiceClient
    sends them: on a kept-alive connection every response stalls ~40 ms (the
    daemon writes headers and body separately, and Nagle's algorithm waits
    for the client's delayed ACK)."""
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=120)
    try:
        connection.request("POST", path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Daemon:
    """The explanation daemon as a child process (traced through the launcher)."""

    def __init__(self, trace: bool, spans_path: Path | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        if trace:
            command = [sys.executable, str(HERE / "daemon.py"), "--spans", str(spans_path)]
        else:
            command = [sys.executable, "-m", "repro.service", "--port", "0"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(ROOT),
        )
        line = self.process.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        self.host, port = line.split(marker, 1)[1].split()[0].rsplit(":", 1)
        self.port = int(port)
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


def mix_setup(seed: int, seconds: float, trace: bool, spans_path: Path | None):
    per_template = max(1, round(MIX_PER_TEMPLATE * seconds / MIX_SECONDS))
    daemon = Daemon(trace, spans_path)
    try:
        client = MixClient(seed, per_template)
        for spec in client.registrations:
            status, body = _post(daemon, "/databases", json.dumps(spec).encode())
            expected = client.mirrors[spec["name"]].fingerprint()
            if status != 201 or json.loads(body)["fingerprint"] != expected:
                raise RuntimeError(f"registration of {spec['name']} failed: {body[:200]!r}")
        db1, db2, matches = figure1_databases()
        for db, name in ((db1, "warmup-L"), (db2, "warmup-R")):
            _post(daemon, "/databases", json.dumps(_registration(db, name)).encode())
        warmup = {
            "database_left": "warmup-L",
            "query_left": {"name": "Q1", "sql": "SELECT COUNT(Program) FROM D1"},
            "database_right": "warmup-R",
            "query_right": {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"},
            "attribute_matches": [["Program", "Major"]],
        }
        status, body = _post(daemon, "/explain", json.dumps(warmup).encode())
        if status != 200:
            raise RuntimeError(f"warm-up request failed: {body[:200]!r}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, client


def mix_run(seed: int, seconds: float, trace: bool) -> dict:
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"daemon-spans-{os.getpid()}.json"
    daemon, client = mix_setup(seed, seconds, trace, spans_path)
    ops: list[dict] = []
    calibration: list[float] = []
    try:
        setup_s = time.perf_counter() - SETUP_START
        setup_calibration = _setup_speed()
        reference_start = time.perf_counter()
        client.prepare()
        reference_s = time.perf_counter() - reference_start
        calibration_task = measure.Calibration()
        gc.collect()
        gc.freeze()
        window_start = time.perf_counter()
        for index, (path, body, request_id) in enumerate(client.wire):
            gc.collect()
            if index % MIX_CALIBRATION_EVERY == 0:
                # The daemon is idle between requests of the one client, so
                # the sample sees the processors as the daemon does.
                calibration.append(calibration_task.sample())
            start = time.perf_counter()
            try:
                status, data = _post(daemon, path, body, request_id)
            except (OSError, http.client.HTTPException) as exc:
                status, data = None, f"{type(exc).__name__}: {exc}".encode()
            elapsed = time.perf_counter() - start
            ops.append(_check_mix(client, index, client.ops[index], elapsed, status, data))
        window = time.perf_counter() - window_start
        peak = daemon.peak_rss_mb()
        with urllib.request.urlopen(f"http://{daemon.host}:{daemon.port}/health") as health:
            evictions = json.loads(health.read())["caches"]["evictions"]
    finally:
        daemon.stop()

    out = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        "reference_s": reference_s,
        "window_s": window,
        "ops": ops,
        "peak_rss_mb": peak,
        "calibration_s": calibration,
        "checks": {
            "input_sizes": sorted(
                sum(len(r) for r in spec["relations"].values())
                for spec in client.registrations
            ),
            "ops_per_client": [len(client.ops)],
            "cache_evictions": evictions,
            "multiset": measure.digest(
                str(op.get("key", op.get("number"))) for op in client.ops
            ),
            "gc_collects": len(ops),
            "wrapped_after_run": spans.installed(),
        },
    }
    if trace:
        daemon_spans = json.loads(spans_path.read_text())
        spans_path.unlink()
        seconds_by_layer, counts = spans.layer_metrics(daemon_spans)
        out["layers"] = {"seconds": seconds_by_layer, "counts": counts}
        out["layers"]["hit_split"] = _hit_split(daemon_spans, ops)
    return out


def _check_mix(client: MixClient, index: int, op: dict, elapsed, status, data) -> dict:
    request_id = client.wire[index][2]
    out = {"instance": request_id, "class": "ingest", "seconds": elapsed, "ok": False,
           "f1": None, "unit": op["round"]}
    if status != 200:
        out["error"] = f"HTTP {status}: {data[:200]!r}"
        if op["kind"] == "explain":
            out["class"] = "explain-failed"
        return out
    payload = json.loads(data)
    if op["kind"] == "ingest":
        out["ok"] = payload.get("fingerprint") == op["expected_fingerprint"]
        out["touching"] = op["touching"]
        out["rewired"] = payload["caches"]["rewired"]
        out["evicted"] = payload["caches"]["evicted"]
        if not out["ok"]:
            out["error"] = "ingest landed on an unexpected database fingerprint"
        return out
    out["class"] = measure.classify(payload["service"])
    if canonical_report(payload) != op["reference"]["canonical"]:
        out["error"] = "served answer differs from the direct-path reference"
        return out
    out["f1"] = evaluate_explanations(
        _explanation_set(payload), op["gold"], op["reference"]["problem"]
    ).f_measure
    out["ok"] = True
    return out


def _hit_split(daemon_spans: list[dict], ops: list[dict]) -> dict:
    """Median seconds of each part of a report-cache hit, client to cache."""
    by_request = spans.per_request(daemon_spans)
    parts: dict[str, list[float]] = {}
    for op in ops:
        if op["class"] != "hit" or op["instance"] not in by_request:
            continue
        entry = by_request[op["instance"]]
        explain = entry["inclusive"].get("service.explain", 0.0)
        served = entry["inclusive"].get("http.request", 0.0)
        samples = {
            "client.s": op["seconds"],
            "service.explain.s": explain,
            "api.parse.s": entry["self"].get("api.parse", 0.0),
            "api.serialize.s": entry["self"].get("api.serialize", 0.0),
            "http.handler.s": entry["self"].get("http.request", 0.0),
            "http.overhead.s": op["seconds"] - explain,
            "http.transport.s": op["seconds"] - served,
        }
        for name, value in samples.items():
            parts.setdefault(name, []).append(value)
    return {name: measure.quartiles(values)[1] for name, values in parts.items() if len(values) > 1}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") is None:
        parser.error("set PYTHONHASHSEED (perfbench/run.py sets it for every process)")

    if args.setup_only:
        if args.workload == "service-mix":
            daemon, _ = mix_setup(args.seed, args.seconds, False, None)
            setup_s = time.perf_counter() - SETUP_START
            daemon.stop()
        else:
            runs_setup(args.seed)
            setup_s = time.perf_counter() - SETUP_START
        print(json.dumps({"setup_s": setup_s, "setup_calibration_s": _setup_speed()}))
        return 0

    if args.workload == "service-mix":
        result = mix_run(args.seed, args.seconds, bool(args.trace))
    else:
        result = runs_run(args.seed, args.seconds, bool(args.trace))
    result["workload"] = args.workload
    result["seed"] = args.seed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
