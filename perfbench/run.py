#!/usr/bin/env python3
"""Wall-clock benchmark of the lambda-Tune reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload job --seed 1 --seconds 50 --trace 0

One run sets the workload up, measures one timed window of closed-loop
requests, checks every result, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Every time it
prints is in reference-host seconds: wall seconds divided by the host
speed that ``hostspeed`` probes measure during the run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's replay facts.  ``perfbench/README.md`` defines every metric.

The program under test is imported from ``src/`` of the checkout; the
run keeps its service roots, caches and span files in
``.perfbench/<workload>-<pid>/`` there and removes them on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))
# No ambient artifact cache: only the served workload installs one.
os.environ.pop("LAMBDA_TUNE_CACHE_DIR", None)

import numpy  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    SERVED_CLIENTS,
    SERVED_WORKERS,
    Sample,
    Served,
    Stream,
    Window,
)

#: Workload name -> (workload class, workload spec string).
WORKLOADS = {
    "job": (Stream, "job"),
    "synthetic-2k": (Stream, "synthetic:queries=2000,scale=100"),
    "served-tpch": (Served, "tpch-sf1"),
}
#: Set-ups measured per run: this process plus SETUPS - 1 probe processes.
SETUPS = 5
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120.0


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def digest(identity: dict) -> str:
    """A fingerprint's canonical hash, comparable across processes."""
    text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves at least ``TAIL_BEYOND`` samples beyond it.

    With ``TAIL_BEYOND`` samples or fewer, the maximum (nothing beyond).
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


def tree_bytes(path: Path | None) -> int:
    if path is None or not path.is_dir():
        return 0
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def make_workload(name: str, seed: int, run_dir: Path):
    kind, spec = WORKLOADS[name]
    return kind(spec, run_dir, seed)


def run_dir_for(name: str) -> Path:
    path = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def probe(name: str, seed: int) -> dict:
    """Set up once in this fresh process and report, for the parent run."""
    run_dir = run_dir_for(name)
    bench = make_workload(name, seed, run_dir)
    try:
        pinned = bench.set_up()
        setup_s = process_age()
    finally:
        bench.close()
        remove_run_dir(run_dir)
    return {
        "setup_s": setup_s,
        "pinned_s": pinned.seconds,
        "error": pinned.error,
        "fingerprint": digest(bench.pinned),
    }


def run_probe(name: str, seed: int, number: int, expect: str) -> tuple[dict, Sample]:
    """One set-up in a child process; its pinned request is one operation."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed),
    ]
    rid = f"probe-{number}"
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as error:
        detail = getattr(error, "stderr", "") or ""
        return {}, Sample(rid, "pinned", math.nan, error=f"probe failed: {error} {detail[-500:]}")
    error = report["error"]
    if error is None and report["fingerprint"] != expect:
        error = "probe's pinned result differs from this process's"
    return report, Sample(rid, "pinned", report["pinned_s"], error=error)


def median_of(samples: list[Sample], attribute: str = "seconds") -> float:
    values = [getattr(sample, attribute) for sample in samples if sample.ok]
    return statistics.median(values) if values else math.nan


def rate(window: Window) -> float:
    """Requests that passed their checks per second of load."""
    return sum(1 for sample in window.samples if sample.ok) / window.load_s


def end_to_end_metrics(ops, window: Window, setup_times, workers_rss) -> dict:
    """The end-to-end metrics; every time is in reference-host seconds.

    Each wall-clock time, set-up times included, is divided by the
    window's host speed, and the rate multiplied by it (see
    ``hostspeed``).  The set-ups ran within a minute of the window; a
    few probes of their own, taken in a second or less, would catch the
    host in one state and add noise instead of removing it.
    """
    timed = window.samples
    done = [sample for sample in timed if sample.ok]
    cold = [sample for sample in timed if sample.kind == "cold"]
    warm = [sample for sample in timed if sample.kind == "warm"]
    failed = sum(1 for sample in ops if not sample.ok)
    speed = window.speed
    tail_s, _, _ = tail([sample.seconds for sample in done] or [math.nan])
    return {
        "tunes_per_s": (rate(window) * speed, "1/s"),
        "tune_p50_s": (median_of(done) / speed, "s"),
        "tune_tail_s": (tail_s / speed, "s"),
        "cold_tune_p50_s": (median_of(cold) / speed, "s"),
        "warm_tune_p50_s": (median_of(warm) / speed, "s"),
        "setup_s": (statistics.median(setup_times) / speed, "s"),
        "peak_rss_mb": (peak_rss_mib() + max(workers_rss, default=0.0), "MiB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "fraction"),
        "sim_best_time_s": (median_of(cold, "best_time"), "sim_s"),
        "sim_tuning_s": (median_of(cold, "tuning_seconds"), "sim_s"),
    }


def traced_metrics(bench, plain: Window, traced: Window, spans, *,
                   cache_bytes: int, journal_bytes: int) -> dict:
    """Per-layer metrics of the traced window, times in reference-host
    seconds; the tracing overhead compares it with the untraced one."""
    requests = {sample.rid for sample in traced.samples}
    service = None
    if isinstance(bench, Served):
        service = tracing.service_metrics(
            spans,
            {rid: bench.sent[rid] for rid in requests},
            workers=SERVED_WORKERS,
            window_s=traced.load_s,
        )
    metrics = tracing.layer_metrics(
        spans, requests, cache_bytes=cache_bytes,
        journal_bytes=journal_bytes, service=service,
    )
    for name, (value, unit) in metrics.items():
        if unit.startswith("s/"):
            metrics[name] = (value / traced.speed, unit)
    traced_rate = rate(traced) * traced.speed
    plain_rate = rate(plain) * plain.speed
    metrics["trace.tunes_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_tunes_per_s"] = (plain_rate, "1/s")
    metrics["trace.slowdown"] = (
        plain_rate / traced_rate if traced_rate else math.inf, "ratio"
    )
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, *,
        setups: int = SETUPS) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, replay facts)."""
    run_dir = run_dir_for(name)
    bench = make_workload(name, seed, run_dir)
    tracer = None
    try:
        ops = [bench.set_up()]
        setup_times = [process_age()]
        for number in range(1, setups):
            report, sample = run_probe(name, seed, number, digest(bench.pinned))
            ops.append(sample)
            if report:
                setup_times.append(report["setup_s"])

        if trace:
            plain = bench.window(seconds / 2, "plain")
            ops.extend(plain.samples)
            tracer = tracing.Tracer(run_dir)
            tracing.install(tracer)
            bench.tracer = tracer
            ops.extend(bench.restart("traced"))
            cache_before = tree_bytes(bench.cache_dir)
            journal_before = tree_bytes(bench.journals_dir)
        window = bench.window(seconds / 2 if trace else seconds, "timed")
        timed = window.samples
        ops.extend(timed)
        ops.extend(bench.after_window())
        workers_rss = [peak_rss_mib(pid) for pid in bench.pool_pids()]
        bench.close()
        if trace:
            metrics = traced_metrics(
                bench, plain, window, tracer.collect(),
                cache_bytes=tree_bytes(bench.cache_dir) - cache_before,
                journal_bytes=tree_bytes(bench.journals_dir) - journal_before,
            )
        else:
            metrics = end_to_end_metrics(ops, window, setup_times, workers_rss)
    finally:
        bench.close()
        if tracer is not None:
            tracer.uninstall()
        remove_run_dir(run_dir)

    failed = sum(1 for sample in ops if not sample.ok)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            # A metric no request could measure (they all failed) is null.
            key: {"value": value if math.isfinite(value) else None, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    latencies = [sample.seconds for sample in timed if sample.ok]
    _, percentile, beyond = tail(latencies or [math.nan])
    replay = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timed_requests": len(timed),
        "load_s": window.load_s,
        "host_speed": window.speed,
        "host_probe_s": [round(seconds, 5) for seconds in window.probes],
        "wall_tune_p50_s": median_of([sample for sample in timed if sample.ok]),
        "tune_tail": {"percentile": percentile, "samples": len(latencies), "beyond": beyond},
        "setup_samples": setup_times,
        "cold_samples": sum(1 for sample in timed if sample.kind == "cold"),
        "warm_samples": sum(1 for sample in timed if sample.kind == "warm"),
        "served": {"workers": SERVED_WORKERS, "clients": SERVED_CLIENTS},
        "flush_policy": (
            "journal appends use the program's default fsync policy; the "
            "service root and artifact cache sit under the checkout, on "
            "one filesystem for every run"
        ),
        "errors": [f"{sample.rid}: {sample.error}" for sample in ops if not sample.ok][:5],
    }
    return result, replay


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up once and report the set-up time as JSON",
    )
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        print(json.dumps(probe(args.workload, args.seed)))
        return 0
    result, replay = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"replay": replay}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
