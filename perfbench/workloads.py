"""The benchmark's workloads: two library streams and one served mix.

Every workload is a closed loop: a client sends its next request only
after the previous result returned.  Every tune uses the paper's default
``LambdaTuneOptions()`` (k=5, alpha=10, t=10 s, 512-token budget) with
``realtime_factor=0``, so each measured second is program work.

Every third request of a client repeats one of that client's own
completed requests (*warm*); the others tune a fresh seed (*cold*).  The
run seed picks the fresh seeds and which request each repeat repeats,
never how many requests run: the window length sets that.  A repeat must
reproduce its original's ``TuningResult.fingerprint()``.

Each workload also has one *pinned* request (tune seed
:data:`PINNED_SEED`) that runs during set-up as the process's warm-up
tune, so its result can be compared across processes and re-runs.

An exception a request raises, or a failed output check, is recorded on
its :class:`Sample`; the request still counts as attempted.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from repro.cache import install_cache
from repro.core import LambdaTune, LambdaTuneOptions
from repro.llm.mock import SimulatedLLM
from repro.service import JobClient, TuningServer
from repro.workloads.compile import make_engine
from repro.workloads.registry import load_workload

#: Tune seed of the pinned request; the same in every run.
PINNED_SEED = 0
#: Every REPEAT_EVERY-th request of a client is a warm repeat.
REPEAT_EVERY = 3
#: Served workload shape, fixed so the workload is the same on any host.
SERVED_WORKERS = 2
SERVED_CLIENTS = 2
#: Seconds a served client waits for one result before counting it failed.
RESULT_TIMEOUT_S = 120.0
#: Seconds of load between two host-speed probes in a window.
PROBE_EVERY_S = 1.0


@dataclass(slots=True)
class Sample:
    """One request: its latency, its result summary, and its check."""

    rid: str
    kind: str  # "pinned", "cold" or "warm"
    seconds: float
    best_time: float = math.nan
    tuning_seconds: float = math.nan
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(slots=True)
class Window:
    """The requests of one timed window and the host speed it ran at."""

    samples: list[Sample]
    #: The window's wall seconds less the time its probes took.
    load_s: float
    #: This host's probe time over the reference host's (see ``hostspeed``).
    speed: float
    #: Seconds of each host-speed probe, in the order they ran.
    probes: list[float]


class _Probes:
    """Runs host-speed probes between requests, on a client's thread.

    The main thread marks a probe due every ``PROBE_EVERY_S`` seconds.
    The next client to come back for a request waits until no request
    is in flight and runs ``probe()`` on its own thread while every other
    client waits.  The first request of a window finds a probe due, so
    every window has one.  No probe overlaps a request.
    """

    def __init__(self, clients: int, probe) -> None:
        self._probe = probe
        self._cond = threading.Condition()
        self._due = True
        self._probing = False
        self._in_flight = 0
        self._running = clients
        #: Each probe's timed seconds, and the wall seconds probing took.
        self.seconds: list[float] = []
        self.paused_s = 0.0

    def enter(self) -> None:
        """A client calls this before each request."""
        with self._cond:
            while self._probing or (self._due and self._in_flight):
                self._cond.wait()
            if not self._due:
                self._in_flight += 1
                return
            self._due = False
            self._probing = True
        began = time.perf_counter()
        seconds = self._probe()
        with self._cond:
            self.seconds.extend(seconds)
            self.paused_s += time.perf_counter() - began
            self._probing = False
            self._in_flight += 1
            self._cond.notify_all()

    def leave(self) -> None:
        """A client calls this once its request returned."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def finish(self) -> None:
        """A client calls this once it sends no more requests."""
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def schedule(self) -> None:
        """Mark a probe due every ``PROBE_EVERY_S`` until every client
        has finished."""
        with self._cond:
            while not self._cond.wait_for(lambda: not self._running, PROBE_EVERY_S):
                self._due = True


def fingerprint(result) -> dict:
    """The identity two results of one request must share."""
    return result.fingerprint()


def timed_request(rid: str, kind: str, call, expect: dict | None = None,
                  *, keep: bool = False) -> tuple[Sample, dict | None]:
    """Run one request, check its result, and time it.

    Every result needs a finite ``best_time`` and a recommended
    configuration; with ``expect`` it must also reproduce that
    fingerprint.  Returns the sample and the result's fingerprint, which
    is computed only with ``keep`` or ``expect`` (``None`` otherwise).
    """
    start = time.perf_counter()
    try:
        result = call()
    except Exception as error:  # a failed request still counts as attempted
        seconds = time.perf_counter() - start
        return Sample(rid, kind, seconds, error=f"{type(error).__name__}: {error}"), None
    sample = Sample(
        rid,
        kind,
        time.perf_counter() - start,
        best_time=result.best_time,
        tuning_seconds=result.tuning_seconds,
    )
    identity = fingerprint(result) if keep or expect is not None else None
    if not math.isfinite(result.best_time):
        sample.error = f"best_time is {result.best_time!r}"
    elif result.best_config is None:
        sample.error = "no recommended configuration"
    elif expect is not None and identity != expect:
        sample.error = "fingerprint differs from the original request's"
    return sample, identity


class _ClosedLoop:
    """The closed-loop window shared by both workload kinds."""

    clients = 1

    def __init__(self, spec: str, run_dir: Path, seed: int) -> None:
        self.spec = spec
        self.run_dir = run_dir
        self.seed = seed
        self.tracer = None
        self.cache_dir = self.journals_dir = None
        #: rid -> (sent, returned) perf_counter instants of the last window.
        self.sent: dict[str, tuple[float, float]] = {}
        self._used = {PINNED_SEED}
        self._lock = threading.Lock()

    def _fresh_seed(self, rng: random.Random) -> int:
        with self._lock:
            while True:
                seed = rng.randrange(1, 2**31)
                if seed not in self._used:
                    self._used.add(seed)
                    return seed

    def _request(self, rid, kind, seed, expect=None, *, keep=False):
        raise NotImplementedError

    def _probe(self) -> list[float]:
        """Host-speed probe seconds, measured where the requests ran."""
        raise NotImplementedError


    def _client(self, number: int, tag: str, start: float, seconds: float,
                samples: list[Sample], probes: _Probes) -> None:
        rng = random.Random(f"{self.spec}/{self.seed}/{tag}/{number}")
        done: dict[int, dict] = {}
        try:
            # At least one warm repeat per client, however short the window.
            while time.perf_counter() - start < seconds or len(samples) < REPEAT_EVERY:
                rid = f"{tag}-c{number}-{len(samples):05d}"
                probes.enter()
                try:
                    sent = time.perf_counter()
                    if len(samples) % REPEAT_EVERY == REPEAT_EVERY - 1 and done:
                        seed = rng.choice(list(done))
                        sample, _ = self._request(rid, "warm", seed, done[seed])
                    else:
                        seed = self._fresh_seed(rng)
                        sample, identity = self._request(rid, "cold", seed, keep=True)
                        if sample.ok:
                            done[seed] = identity
                finally:
                    probes.leave()
                self.sent[rid] = (sent, sent + sample.seconds)
                samples.append(sample)
        finally:
            probes.finish()

    def window(self, seconds: float, tag: str) -> Window:
        """Every client sends requests until ``seconds`` have passed.

        Each client sends at least ``REPEAT_EVERY`` requests; the window
        closes when the last in-flight result returns.  Host-speed probes
        run between requests (see :class:`_Probes`).
        """
        per_client: list[list[Sample]] = [[] for _ in range(self.clients)]
        self.sent = {}
        probes = _Probes(self.clients, self._probe)
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client,
                args=(number, tag, start, seconds, samples, probes),
            )
            for number, samples in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        probes.schedule()
        for thread in threads:
            thread.join()
        load_s = time.perf_counter() - start - probes.paused_s
        samples = [sample for samples in per_client for sample in samples]
        speed = hostspeed.host_speed(probes.seconds)
        return Window(samples, load_s, speed, probes.seconds)


class Stream(_ClosedLoop):
    """One client calling ``LambdaTune.tune()`` back to back in-process.

    No artifact cache and no journal: only the library path runs.  Each
    request builds a fresh engine and LLM client; the workload object,
    and the catalog caches it carries, live for the whole process, so a
    warm repeat finds its plans in those caches.
    """

    def set_up(self) -> Sample:
        """Build the workload and run the pinned request on cold caches."""
        install_cache(None)
        self.workload = load_workload(self.spec)
        self.queries = list(self.workload.queries)
        sample, self.pinned = self._request("pinned", "pinned", PINNED_SEED, keep=True)
        return sample

    def _request(self, rid, kind, seed, expect=None, *, keep=False):
        if self.tracer is not None:
            self.tracer.request = rid

        def tune():
            tuner = LambdaTune(
                make_engine(self.workload, "postgres"),
                SimulatedLLM(),
                LambdaTuneOptions(seed=seed),
            )
            return tuner.tune(self.queries, workload_name=self.workload.name)

        return timed_request(rid, kind, tune, expect, keep=keep)

    def _probe(self) -> list[float]:
        """The requests ran on the client's own thread: probe there, on
        the processor that thread has just been running on."""
        return [hostspeed.probe()]


    def after_window(self) -> list[Sample]:
        """Re-run the pinned request; it must equal its set-up result."""
        return [self._request("rerun", "pinned", PINNED_SEED, self.pinned)[0]]

    def restart(self, tag: str) -> list[Sample]:
        return []

    def pool_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


class Served(_ClosedLoop):
    """Two clients driving a process-executor ``TuningServer``.

    Each server gets a fresh service root and a fresh on-disk artifact
    cache under the run directory, so a warm repeat is served from that
    cache.  Clients name their jobs through ``JobClient.submit(job_id=...)``:
    two concurrent submits without ids can be handed the same id (see
    the README).
    """

    clients = SERVED_CLIENTS

    def __init__(self, spec: str, run_dir: Path, seed: int) -> None:
        super().__init__(spec, run_dir, seed)
        self.server: TuningServer | None = None

    def set_up(self) -> Sample:
        """Plain serial tune of the pinned request, then the server.

        The plain tune fills this process's catalog caches before the
        pool forks, so every pool worker starts warm; the served pinned
        request must equal the plain result.
        """
        install_cache(None)
        self.workload = load_workload(self.spec)
        tuner = LambdaTune(
            make_engine(self.workload, "postgres"),
            SimulatedLLM(),
            LambdaTuneOptions(seed=PINNED_SEED),
        )
        plain = tuner.tune(
            list(self.workload.queries), workload_name=self.workload.name
        )
        self.pinned = fingerprint(plain)
        return self._start_server("setup")

    def _start_server(self, tag: str) -> Sample:
        self.cache_dir = self.run_dir / f"cache-{tag}"
        self.server = TuningServer(
            self.run_dir / f"service-{tag}",
            workers=SERVED_WORKERS,
            executor="process",
            cache_dir=self.cache_dir,
        ).start()
        self.journals_dir = self.server.root.journals_dir
        self.client = JobClient(self.server)
        return self._request(f"{tag}-pinned", "pinned", PINNED_SEED, self.pinned)[0]

    def restart(self, tag: str) -> list[Sample]:
        """Replace the server by a fresh one (new root and cache)."""
        self.close()
        return [self._start_server(tag)]

    def _request(self, rid, kind, seed, expect=None, *, keep=False):
        def serve():
            job_id = self.client.submit(
                self.spec, options=LambdaTuneOptions(seed=seed), job_id=rid
            )
            return self.client.result(job_id, timeout=RESULT_TIMEOUT_S)

        return timed_request(rid, kind, serve, expect, keep=keep)

    def _probe(self) -> list[float]:
        """The requests ran in pool workers on every usable processor:
        probe each of them."""
        return hostspeed.probe_each(sorted(os.sched_getaffinity(0)))

    def after_window(self) -> list[Sample]:
        return []

    def pool_pids(self) -> list[int]:
        """Live child processes of this process: the pool workers."""
        pids = []
        for children in Path("/proc/self/task").glob("*/children"):
            pids.extend(int(pid) for pid in children.read_text().split())
        return pids

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
