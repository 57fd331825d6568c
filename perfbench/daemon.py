"""The explanation daemon with layer spans, for the traced service-mix run.

Installs the wrappers of :mod:`spans` before calling
``repro.service.api.serve``, so the daemon's own request handling is traced.
Each ``POST`` that carries an ``X-Request-Id`` header opens a root span
``http.request`` under that id; JSON decoding and encoding inside the
handler are recorded as ``api.parse`` and ``api.serialize``.  On SIGTERM the
daemon stops serving, restores every wrapped function and writes the spans
to the ``--spans`` file::

    python3 perfbench/daemon.py --spans .perfbench/daemon-spans.json
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from repro.service import api  # noqa: E402
from repro.service.engine import ExplainService  # noqa: E402


def _traced_json(recorder: spans.Recorder):
    """A stand-in for the ``json`` module the API handler looks up."""
    dumps = spans.wrap(recorder, "api.serialize", json.dumps)
    loads = spans.wrap(recorder, "api.parse", json.loads)
    return types.SimpleNamespace(
        dumps=dumps, loads=loads, JSONDecodeError=json.JSONDecodeError
    )


def _rooted(recorder: spans.Recorder, handler):
    def do_POST(self):  # noqa: N802 - stdlib naming
        request_id = self.headers.get("X-Request-Id")
        if request_id is None:
            return handler(self)
        with recorder.root("http.request", request_id):
            return handler(self)

    return do_POST


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    recorder = spans.Recorder()
    installation = spans.install(recorder)
    handler_class = api._ServiceRequestHandler
    installation.patch(handler_class, "do_POST", _rooted(recorder, handler_class.do_POST))
    installation.patch(api, "json", _traced_json(recorder))

    server = api.serve(ExplainService(), port=0)
    host, port = server.server_address[:2]
    print(f"traced explain service listening on http://{host}:{port}", flush=True)

    def _on_sigterm(signum, frame):  # noqa: ARG001 - stdlib signature
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        installation.restore()
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
