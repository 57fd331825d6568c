"""Worker-pod lifecycle for the fleet: spawn, readiness, heartbeat, drain.

A *worker* is one full ``python -m repro.service`` daemon in its own process
(its own GIL, job queue and in-memory caches), started on an ephemeral port
with the fleet's shared spill directory mounted write-through.  This module
owns the lifecycle:

* **spawn** -- ``subprocess`` launch; the worker announces its URL on stdout
  and is then readiness-probed against ``GET /health`` until it answers;
* **heartbeat** -- periodic health probes (driven by the router's supervisor)
  update ``last_heartbeat``/``consecutive_failures`` and flip the worker to
  ``dead`` when the process exits or stops answering;
* **drain-then-exit** -- ``terminate()`` sends SIGTERM, which the daemon
  handles by draining in-flight jobs and persisting its caches before
  exiting 0; SIGKILL is the escalation, never the opener.

:func:`~repro.service.api.http_json` (re-exported here) is the one transport
primitive the fleet uses to talk to workers -- the same exchange
:class:`~repro.service.api.ServiceClient` is built on.  It returns
``(status, payload)`` for any HTTP response the worker produced (typed errors
included) and raises :class:`WorkerUnavailable` only for *transport* failures
-- connection refused/reset, timeouts -- which is precisely the signal that
triggers router failover.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.api import WorkerUnavailable, http_json


class WorkerError(RuntimeError):
    """A worker failed to start or misbehaved during lifecycle management."""


@dataclass
class WorkerSpec:
    """How to launch one worker daemon (shared by every pod in the fleet)."""

    spill_dir: str | Path | None = None
    cache_entries: int = 128
    report_cache_entries: int = 256
    job_workers: int = 2
    drain_seconds: float = 5.0
    default_deadline_seconds: float | None = None
    startup_timeout: float = 60.0
    extra_args: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        args = [
            sys.executable, "-m", "repro.service",
            "--host", "127.0.0.1",
            "--port", "0",
            "--cache-entries", str(self.cache_entries),
            "--report-cache-entries", str(self.report_cache_entries),
            "--job-workers", str(self.job_workers),
            "--drain-seconds", str(self.drain_seconds),
        ]
        if self.spill_dir is not None:
            # The shared cache tier: every worker writes its artifacts
            # through to one directory and reads its siblings' for free.
            args += ["--spill-dir", str(self.spill_dir), "--spill-write-through"]
        if self.default_deadline_seconds is not None:
            args += ["--default-deadline-seconds", str(self.default_deadline_seconds)]
        args += list(self.extra_args)
        return args


class _WorkerHandle:
    """Liveness probing and description shared by every worker handle.

    ``state`` is one of ``new`` (constructed), ``ready`` (probed healthy),
    ``dead`` (process gone or unreachable) or ``stopped`` (we shut it down).
    """

    process: subprocess.Popen | None = None

    def __init__(self, name: str, url: str | None, state: str):
        self.name = name
        self.url = url
        self.state = state
        self.last_heartbeat: float | None = None
        self.consecutive_failures = 0

    def probe(self, timeout: float = 3.0) -> dict | None:
        """One ``GET /health`` readiness/heartbeat probe; None when unreachable."""
        if self.url is None:
            return None
        try:
            status, payload = http_json("GET", f"{self.url}/health", timeout=timeout)
        except WorkerUnavailable:
            return None
        return payload if status == 200 else None

    def heartbeat(self, timeout: float = 3.0) -> dict | None:
        """Probe and record the outcome; flips state to ``dead`` on failure.

        A handle that is no longer alive is dead at once; a live one that
        misses two probes in a row is dead too.
        """
        health = self.probe(timeout) if self.alive else None
        if health is None:
            self.consecutive_failures += 1
            if not self.alive or self.consecutive_failures >= 2:
                self.state = "dead"
            return None
        self.consecutive_failures = 0
        self.last_heartbeat = time.time()
        if self.state != "stopped":
            self.state = "ready"
        return health

    def describe(self) -> dict:
        return {
            "name": self.name,
            "url": self.url,
            "state": self.state,
            "pid": self.process.pid if self.process is not None else None,
            "alive": self.alive,
            "last_heartbeat": self.last_heartbeat,
            "consecutive_failures": self.consecutive_failures,
        }


class WorkerProcess(_WorkerHandle):
    """One worker daemon process and its lifecycle state."""

    def __init__(self, name: str, spec: WorkerSpec | None = None):
        super().__init__(name, None, "new")
        self.spec = spec or WorkerSpec()

    # -- spawn ------------------------------------------------------------------------
    def start(self) -> "WorkerProcess":
        """Spawn the daemon, read its announced URL, probe until ready."""
        if self.process is not None:
            raise WorkerError(f"worker {self.name} already started")
        env = dict(os.environ)
        # The worker must import repro exactly as this process does, no
        # matter what directory the fleet was launched from.
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        self.process = subprocess.Popen(
            self.spec.argv(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + self.spec.startup_timeout
        line = self.process.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self.kill()
            raise WorkerError(
                f"worker {self.name} did not announce its port: {line!r}"
            )
        self.url = line.split(marker, 1)[1].split()[0].rstrip("/")
        while True:
            if self.probe() is not None:
                self.state = "ready"
                return self
            if self.process.poll() is not None:
                self.state = "dead"
                raise WorkerError(
                    f"worker {self.name} exited during startup "
                    f"(code {self.process.returncode})"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise WorkerError(
                    f"worker {self.name} never became healthy at {self.url}"
                )
            time.sleep(0.05)

    # -- liveness ---------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    # -- shutdown ---------------------------------------------------------------------
    def terminate(self, timeout: float | None = None) -> int | None:
        """SIGTERM drain-then-exit; escalates to SIGKILL after the grace window."""
        if self.process is None:
            return None
        grace = timeout if timeout is not None else self.spec.drain_seconds + 10.0
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self.state = "stopped"
        if self.process.stdout is not None:
            self.process.stdout.close()
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL, no drain -- the chaos path (and the startup-failure cleanup)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()
        self.state = "dead"


class StaticWorker(_WorkerHandle):
    """A worker handle over an already-running daemon (no process ownership).

    Lets the router front servers it did not spawn: in-process
    ``serve_in_background`` daemons in tests, or externally managed pods.
    Lifecycle calls (:meth:`terminate`, :meth:`kill`) only update state --
    whoever started the daemon owns stopping it.
    """

    def __init__(self, name: str, url: str):
        super().__init__(name, url.rstrip("/"), "ready")

    @property
    def alive(self) -> bool:
        return self.state != "dead"

    def terminate(self, timeout: float | None = None) -> int | None:
        self.state = "stopped"
        return None

    def kill(self) -> None:
        self.state = "dead"


class WorkerPool:
    """The fleet's worker pods: spawn N, replace the dead, stop them all."""

    def __init__(self, spec: WorkerSpec | None = None):
        self.spec = spec or WorkerSpec()
        self.workers: list[WorkerProcess] = []
        self._spawned = 0

    def spawn(self, count: int) -> list[WorkerProcess]:
        started = []
        for _ in range(count):
            worker = WorkerProcess(f"worker-{self._spawned}", self.spec)
            self._spawned += 1
            worker.start()
            self.workers.append(worker)
            started.append(worker)
        return started

    def respawn_dead(self) -> list[WorkerProcess]:
        """Replace every dead worker with a fresh pod (new name, new port).

        The replacement gets a *new* ring identity on purpose: the old node's
        arcs have already failed over, and re-adding a fresh name moves only
        ~1/N of the keyspace onto the newcomer instead of thrashing ownership
        back and forth.
        """
        replacements = []
        for worker in list(self.workers):
            if worker.state == "dead" or not worker.alive:
                if worker.state != "dead":
                    worker.state = "dead"
                self.workers.remove(worker)
                replacements.extend(self.spawn(1))
        return replacements

    def ready(self) -> list[WorkerProcess]:
        return [w for w in self.workers if w.state == "ready" and w.alive]

    def stop(self) -> None:
        for worker in self.workers:
            try:
                worker.terminate()
            except Exception:  # noqa: BLE001 - best-effort teardown
                worker.kill()
