"""Span tracing from outside the program, for the benchmark's traced run.

:func:`install` replaces a fixed list of public entry points -- one or
more per ``src/repro`` layer -- with wrappers that record a span per
call: name, start, end, parent span, request id, and a few counts taken
from the call's arguments or result.  Each function is patched where its
caller looks it up (``compute_order_dp`` is called through
``repro.core.evaluator``, so that is the attribute replaced).  Nothing in
``src/`` changes, and :meth:`Tracer.uninstall` restores every original.

Spans stay in memory.  Pool workers of the served workload inherit the
wrappers through the ``fork`` start method; after each job a worker
appends that job's spans to its own ``spans-<pid>.jsonl`` file, and
:meth:`Tracer.collect` merges those files with the parent's spans.

A layer's self time is its span minus the time its child spans cover.
:func:`layer_metrics` turns the spans of the timed requests into the
per-tune metrics listed under ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.cache import MISS, ArtifactCache
from repro.core import evaluator as evaluator_module
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.prompt import compression as compression_module
from repro.core.tuner import LambdaTune
from repro.db.engine import DatabaseEngine
from repro.db.planner import Planner
from repro.service import server as server_module
from repro.service.queue import JobQueue
from repro.session.journal import TuningJournal

#: Artifact kinds the persistent cache stores (see ``repro.cache``).
CACHE_KINDS = ("plan", "order", "llm", "ilp", "compiled")

#: Span fields, in the order they are stored.
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Collects spans in memory; one instance per benchmark process."""

    def __init__(self, spill_dir: str | os.PathLike[str]) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[list] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @property
    def request(self) -> str | None:
        """The request id stamped on spans opened by this thread."""
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        """In a forked pool worker, drop the spans inherited from the parent."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()

    def call(self, name: str, function, args, kwargs, info=None):
        """Run ``function`` inside a span; ``info(args, kwargs, result)``."""
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        if info is not None:
            span[INFO] = info(args, kwargs, result)
        return result

    def spill(self) -> None:
        """Append this process's spans to its own file, as one line."""
        if not self.spans:
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect(self) -> list[list]:
        """This process's spans plus every spilled batch, parents rebased."""
        merged = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    base = len(merged)
                    for span in json.loads(line):
                        if span[PARENT] is not None:
                            span[PARENT] += base
                        if isinstance(span[INFO], list):
                            span[INFO] = tuple(span[INFO])  # JSON has no tuples
                        merged.append(span)
        return merged

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, info=None, *, request=None,
             after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(args, kwargs)`` names the request the call serves;
        ``after()`` runs once the call has returned or raised.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._adopt_fork()
            if request is not None:
                tracer.request = request(args, kwargs)
            try:
                return tracer.call(name, original, args, kwargs, info)
            finally:
                if after is not None:
                    after()

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


def _queries_arg(args, kwargs):
    return kwargs["queries"] if "queries" in kwargs else args[1]


def install(tracer: Tracer) -> None:
    """Wrap one or more public entry points of every traced layer."""
    wrap = tracer.wrap
    wrap(LambdaTune, "generate_prompt", "prompt")
    wrap(
        LambdaTune,
        "sample_configurations",
        "llm",
        info=lambda a, k, r: (
            a[0].options.num_configs - len(k.get("known") or {}),
            len(r),
        ),
    )
    wrap(LambdaTune, "select_best", "rounds", info=lambda a, k, r: r.rounds)
    wrap(compression_module, "select_snippets", "ilp")
    wrap(ConfigurationEvaluator, "evaluate", "evaluate")
    wrap(ConfigurationEvaluator, "query_index_map", "index_map")
    wrap(ConfigurationEvaluator, "plan_order", "order")
    wrap(evaluator_module, "cluster_queries", "cluster")
    wrap(evaluator_module, "compute_order_dp", "dp")
    wrap(Planner, "plan_many", "planner", info=lambda a, k, r: len(r))
    wrap(
        DatabaseEngine,
        "execute_many",
        "execute",
        info=lambda a, k, r: (len(_queries_arg(a, k)), r.completed),
    )
    wrap(DatabaseEngine, "create_index", "index_build")
    wrap(ArtifactCache, "fetch", "cache_fetch", info=lambda a, k, r: (a[1], r is not MISS))
    wrap(ArtifactCache, "store", "cache_store", info=lambda a, k, r: a[1])
    wrap(TuningJournal, "append", "journal_append", info=lambda a, k, r: bool(k.get("sync")))
    wrap(TuningJournal, "sync", "journal_sync")
    wrap(JobQueue, "acquire", "acquire", info=lambda a, k, r: r and r.job_id)
    wrap(
        server_module,
        "run_job",
        "run_job",
        request=lambda a, k: Path(a[0].journal_path).stem,
        after=tracer.spill,
    )


# -- per-layer metrics ------------------------------------------------------


class _Totals:
    """Per span name: calls, self seconds and infos."""

    def __init__(self, spans: list[list], requests: set[str]) -> None:
        children = defaultdict(float)
        for span in spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.infos = defaultdict(list)
        #: (name, info) -> self seconds, e.g. store time per cache kind.
        self.seconds_by_info = defaultdict(float)
        for index, span in enumerate(spans):
            if span[REQUEST] not in requests:
                continue
            name = span[NAME]
            own = span[END] - span[START] - children[index]
            self.calls[name] += 1
            self.seconds[name] += own
            self.infos[name].append(span[INFO])
            self.seconds_by_info[name, span[INFO]] += own


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: list[list],
    requests: set[str],
    *,
    cache_bytes: int = 0,
    journal_bytes: int = 0,
    service: dict | None = None,
) -> dict[str, tuple[float, str]]:
    """Per-tune layer metrics over the spans of ``requests``.

    Every time is self time: a span's duration minus its child spans.
    ``cache_bytes`` and ``journal_bytes`` are what the timed requests
    added to the artifact cache and journal directories.  ``service``
    carries the served workload's per-job parent-side timings (see
    :func:`service_metrics`); the streams pass ``None`` and report 0.
    """
    t = _Totals(spans, requests)

    def per(value: float) -> float:
        return value / len(requests)

    count, secs, frac = "count/tune", "s/tune", "fraction"
    samples = sum(info[0] for info in t.infos["llm"])
    accepted = sum(info[1] for info in t.infos["llm"])
    executed = sum(info[0] for info in t.infos["execute"])
    completed = sum(info[1] for info in t.infos["execute"])
    fetches = t.infos["cache_fetch"]
    hits = sum(1 for _, hit in fetches if hit)
    syncs = t.calls["journal_sync"] + sum(1 for info in t.infos["journal_append"] if info)
    out = {
        "scheduler.orders": (per(t.calls["order"]), count),
        "scheduler.dp_calls": (per(t.calls["dp"]), count),
        "scheduler.dp_ratio": (_ratio(t.calls["dp"], t.calls["order"]), frac),
        "scheduler.dp_s": (per(t.seconds["dp"]), secs),
        "scheduler.cluster_s": (per(t.seconds["cluster"]), secs),
        "evaluator.calls": (per(t.calls["evaluate"]), count),
        "evaluator.s": (per(t.seconds["evaluate"]), secs),
        "evaluator.index_map_calls": (per(t.calls["index_map"]), count),
        "evaluator.index_map_s": (per(t.seconds["index_map"]), secs),
        "planner.calls": (per(t.calls["planner"]), count),
        "planner.queries": (per(sum(t.infos["planner"])), count),
        "planner.s": (per(t.seconds["planner"]), secs),
        "engine.segments": (per(t.calls["execute"]), count),
        "engine.queries": (per(executed), count),
        "engine.completed_ratio": (_ratio(completed, executed), frac),
        "engine.s": (per(t.seconds["execute"]), secs),
        "engine.index_builds": (per(t.calls["index_build"]), count),
        "engine.index_s": (per(t.seconds["index_build"]), secs),
        "prompt.s": (per(t.seconds["prompt"]), secs),
        "prompt.ilp_s": (per(t.seconds["ilp"]), secs),
        "llm.samples": (per(samples), count),
        "llm.accept_ratio": (_ratio(accepted, samples), frac),
        "llm.s": (per(t.seconds["llm"]), secs),
        "rounds.count": (per(sum(t.infos["rounds"])), count),
        "rounds.s": (per(t.seconds["rounds"]), secs),
        "cache.fetches": (per(len(fetches)), count),
        "cache.hit_ratio": (_ratio(hits, len(fetches)), frac),
        "cache.stores": (per(t.calls["cache_store"]), count),
        "cache.fetch_s": (per(t.seconds["cache_fetch"]), secs),
        "cache.store_s": (per(t.seconds["cache_store"]), secs),
        "cache.bytes": (per(cache_bytes), "bytes/tune"),
    }
    for kind in CACHE_KINDS:
        kind_hits = [hit for fetched, hit in fetches if fetched == kind]
        out[f"cache.{kind}.hit_ratio"] = (_ratio(sum(kind_hits), len(kind_hits)), frac)
        out[f"cache.{kind}.store_s"] = (
            per(t.seconds_by_info["cache_store", kind]),
            secs,
        )
    out.update(
        {
            "session.appends": (per(t.calls["journal_append"]), count),
            "session.syncs": (per(syncs), count),
            "session.append_s": (per(t.seconds["journal_append"]), secs),
            "session.bytes": (per(journal_bytes), "bytes/tune"),
        }
    )
    service = service or {"queue_wait_s": 0.0, "dispatch_s": 0.0, "busy_ratio": 0.0}
    out["service.queue_wait_s"] = (service["queue_wait_s"], "s/job")
    out["service.dispatch_s"] = (service["dispatch_s"], "s/job")
    out["service.busy_ratio"] = (service["busy_ratio"], frac)
    return out


def service_metrics(
    spans: list[list],
    jobs: dict[str, tuple[float, float]],
    *,
    workers: int,
    window_s: float,
) -> dict[str, float]:
    """Parent-side service timings of the served jobs.

    ``jobs`` maps a job id to the (submit, result-returned) instants its
    client saw.  Queue wait runs from submit to the ``JobQueue.acquire``
    call that handed the job to a server worker thread; dispatch is the
    parent-observed job time (acquire to result) minus the pool worker's
    ``run_job`` time; busy is ``run_job`` time over ``workers`` times the
    window.
    """
    acquired = {
        span[INFO]: span[END]
        for span in spans
        if span[NAME] == "acquire" and span[INFO] in jobs
    }
    ran = {
        span[REQUEST]: span[END] - span[START]
        for span in spans
        if span[NAME] == "run_job" and span[REQUEST] in jobs
    }
    waits, dispatches = [], []
    for job_id, (submitted, returned) in jobs.items():
        if job_id in acquired and job_id in ran:
            waits.append(acquired[job_id] - submitted)
            dispatches.append(returned - acquired[job_id] - ran[job_id])
    return {
        "queue_wait_s": statistics.median(waits) if waits else 0.0,
        "dispatch_s": statistics.median(dispatches) if dispatches else 0.0,
        "busy_ratio": _ratio(sum(ran.values()), workers * window_s),
    }
