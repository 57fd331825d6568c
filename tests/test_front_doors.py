"""The two front doors -- daemon and fleet router -- answer alike.

Both serve through the one JSON handler of :mod:`repro.service.api`, so a
malformed request gets the same status and the same typed error envelope
whichever door it reaches; kept-alive connections do not stall; ``row_id``
deltas apply through either door; and Stage-3 summaries do not depend on the
interpreter's hash seed (fleet pods must answer byte-identically).
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.fleet import FleetRouter, StaticWorker, serve_router_in_background
from repro.live import validate_change_specs
from repro.service import ExplainService, ServiceClient, serve_in_background

D1_RECORDS = [
    {"Program": "Accounting", "Degree": "B.S."},
    {"Program": "CS", "Degree": "B.A."},
    {"Program": "CS", "Degree": "B.S."},
    {"Program": "ECE", "Degree": "B.S."},
]

SRC = str(Path(__file__).resolve().parents[1] / "src")


class _Doors:
    """One in-process daemon, and a router fronting its own in-process workers."""

    def __init__(self, workers: int = 1):
        self.daemon, _ = serve_in_background(ExplainService(), port=0)
        self.workers = [serve_in_background(ExplainService(), port=0)[0]
                        for _ in range(workers)]
        self.router = FleetRouter(
            [StaticWorker(f"w{index}", _url(server))
             for index, server in enumerate(self.workers)]
        )
        self.router_http, _ = serve_router_in_background(self.router)

    def server(self, door: str):
        return self.daemon if door == "daemon" else self.router_http

    def close(self) -> None:
        self.router_http.shutdown()
        self.router_http.server_close()
        self.router.shutdown()
        for server in (self.daemon, *self.workers):
            server.shutdown()
            server.server_close()


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _exchange(connection, method: str, path: str, body: bytes | None = None):
    """One request on an open connection; returns ``(status, decoded body)``."""
    headers = {"Content-Type": "application/json"}
    if body is not None:
        headers["Content-Length"] = str(len(body))
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def doors():
    instance = _Doors()
    yield instance
    instance.close()


#: (case, method, path, raw body, expected status, error type, error path)
CASES = [
    ("empty-body", "POST", "/explain", b"", 400, "SpecError", ""),
    ("invalid-json", "POST", "/explain", b"{not json", 400, "SpecError", ""),
    ("list-body", "POST", "/explain", b"[1, 2]", 400, "SpecError", ""),
    ("unknown-path", "GET", "/no-such-path", None, 404, "NotFound", ""),
    ("unknown-post-path", "POST", "/no-such-path", b"{}", 404, "NotFound", ""),
    (
        "bad-runs-spec", "POST", "/explain",
        json.dumps({"runs": {"left": {"name": "a", "records": [{"id": 1}]},
                             "key": "id"}}).encode(),
        400, "RunError", "/runs/right",
    ),
    (
        "unknown-database", "POST", "/explain",
        json.dumps({
            "database_left": "Nope",
            "query_left": {"name": "Q1", "kind": "count", "relation": "Nope"},
            "database_right": "Nope",
            "query_right": {"name": "Q2", "kind": "count", "relation": "Nope"},
        }).encode(),
        404, "UnknownDatabaseError", "",
    ),
    ("unknown-job", "GET", "/jobs/nonsense", None, 404, "UnknownJobError", ""),
    ("unknown-job-cancel", "DELETE", "/jobs/nonsense", None, 404,
     "UnknownJobError", ""),
]


@pytest.mark.parametrize("door", ["daemon", "router"])
def test_front_doors_answer_malformed_requests_alike(doors, door):
    host, port = doors.server(door).server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for case, method, path, body, status, error_type, error_path in CASES:
            got_status, payload = _exchange(connection, method, path, body)
            got = (got_status, payload["error"]["type"], payload["error"]["path"])
            assert got == (status, error_type, error_path), case
    finally:
        connection.close()


@pytest.mark.parametrize("door", ["daemon", "router"])
def test_kept_alive_connection_does_not_stall(doors, door):
    host, port = doors.server(door).server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        _exchange(connection, "GET", "/stats")  # connect outside the clock
        start = time.perf_counter()
        for _ in range(20):
            status, _ = _exchange(connection, "GET", "/stats")
            assert status == 200
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert elapsed < 0.5, f"20 kept-alive requests took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# POST /ingest with row_id references
# ---------------------------------------------------------------------------

def test_normalized_change_specs_validate_to_themselves():
    specs = [
        {"op": "insert", "record": {"Program": "Math", "Degree": "B.S."}},
        {"op": "update", "row_id": "D1:1", "record": {"Degree": "B.S."}},
        {"op": "update", "row": "2", "record": {"Degree": "B.A."}},
        {"op": "DELETE", "row_id": 3},
        {"op": "delete", "row": 0},
    ]
    normalized = validate_change_specs(specs)
    assert validate_change_specs(normalized) == normalized


@pytest.mark.parametrize("door", ["daemon", "router"])
def test_ingest_accepts_row_id_references(door):
    instance = _Doors(workers=2)
    try:
        client = ServiceClient(_url(instance.server(door)), timeout=30)
        # A daemon the door under test does not reach, addressed by position.
        reference = ServiceClient(
            _url(instance.workers[0] if door == "daemon" else instance.daemon),
            timeout=30,
        )
        for target in (client, reference):
            target.register_database("D1", {"D1": D1_RECORDS})
        updated = client.ingest(
            "D1", "D1",
            [{"op": "update", "row_id": "D1:1", "record": {"Degree": "B.S."}}],
        )
        deleted = client.ingest("D1", "D1", [{"op": "delete", "row_id": "D1:0"}])
        assert updated["applied"] is True and deleted["applied"] is True
        if door == "router":
            assert deleted["workers"] == ["w0", "w1"]
        reference.ingest(
            "D1", "D1", [{"op": "update", "row": 1, "record": {"Degree": "B.S."}}]
        )
        by_position = reference.ingest("D1", "D1", [{"op": "delete", "row": 0}])
        assert by_position["fingerprint"] == deleted["fingerprint"]
        assert updated["fingerprint"] != deleted["fingerprint"]
    finally:
        instance.close()


# ---------------------------------------------------------------------------
# Stage-3 pattern choice does not depend on the hash seed
# ---------------------------------------------------------------------------

_TIED_SUMMARY = textwrap.dedent(
    """
    from repro.core.canonical import canonicalize
    from repro.core.explanations import ExplanationSet, ProvenanceExplanation
    from repro.core.summarize import PatternSummarizer
    from repro.graphs.bipartite import Side
    from repro.matching.attribute_match import matching
    from repro.relational.executor import Database
    from repro.relational.provenance import provenance_relation
    from repro.relational.query import Scan, count_query

    db = Database("d")
    records = [{"Major": f"T{i}", "City": "Boston", "Degree": "PhD", "Field": "CS"}
               for i in range(4)]
    records += [{"Major": f"O{i}", "City": "NYC", "Degree": "BS", "Field": "Art"}
                for i in range(4)]
    db.add_records("Major", records)
    provenance = provenance_relation(
        count_query("q", Scan("Major"), attribute="Major"), db
    )
    left = canonicalize(provenance, matching(("Major", "Program")), Side.LEFT, label="T1")
    right = canonicalize(provenance, matching(("Major", "Program")), Side.LEFT, label="T2")
    targets = [t.key for t in left if t.value("Major").startswith("T")]
    explanations = ExplanationSet(
        provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets]
    )
    summary = PatternSummarizer().summarize(explanations, left, right)
    print([p.conditions for p in summary.patterns])
    """
)


def test_tied_summary_patterns_do_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", _TIED_SUMMARY],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, outputs
    assert outputs.pop() == "[(('City', 'Boston'),)]"
