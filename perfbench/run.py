"""treebet benchmark: one closed-loop client running one workload in-process.

    python3 perfbench/run.py --workload {convert,query,stream} --seed N \
        --seconds S --trace {0,1}

Without ``--workload`` it runs the three workloads one after another, each
in its own process.

Run from the root of a checkout; the program is imported from ``src/``.
The client issues one op at a time, each starting when the previous one
returns, on one thread.  Ops run in whole cycles (a fixed list of op slots
per workload), as many as fit in ``--seconds`` of op time at nominal
speed, so every run has the same mix of ops.  Outputs are checked after
each op, outside its timed region.  Timings are scaled to a nominal machine
speed by a reference loop timed all through the run (``calibration.py``).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are written to ``.perfbench_work/``.  The exit code
is 0 when every check passed, 1 on a mismatch, 2 when the program is
missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = {"convert": workloads.Convert, "query": workloads.Query, "stream": workloads.Stream}
SETUP_REPS = 9
TAIL_LADDER = (50, 75, 90, 99)
TAIL_BEYOND = 10
# Stop starting cycles after this much wall time, so a slow machine still
# finishes well inside the three-minute limit.
WALL_GUARD_S = 110


def import_treebet():
    """A fresh import of the package and its CLI from ``src/``."""
    for name in [m for m in sys.modules if m == "treebet" or m.startswith("treebet.")]:
        del sys.modules[name]
    tb = importlib.import_module("treebet")
    importlib.import_module("treebet.cli")
    if Path(tb.__file__).resolve().parent != SRC / "treebet":
        raise ImportError(f"treebet imported from {tb.__file__}, not from {SRC}")
    return tb


def set_up(name: str, seed: int, workdir: Path):
    """Import treebet and generate the inputs SETUP_REPS times; the median
    of these, at nominal speed, is setup_s.  The last repetition's
    workload is used."""
    windows = []
    with calibration.Sampler() as sampler:
        for _ in range(SETUP_REPS):
            start = perf_counter()
            tb = import_treebet()
            workload = WORKLOADS[name](tb, seed, workdir)
            windows.append((start, perf_counter()))
    return workload, [sampler.scaled(*w) for w in windows]


class Loop:
    """The closed-loop client: runs ops, times them, checks their outputs.
    A record is (name, latency, error, nodes, start, end); the latency
    leaves out the reference samples taken during the op.  The traced run
    has no sampler."""

    def __init__(self, workload, tracer=None, sampler: calibration.Sampler | None = None):
        self.workload = workload
        self.tracer = tracer
        self.sampler = sampler
        self.records: list[tuple[str, float, str | None, int, float, float]] = []
        self.op_time = 0.0
        self.scaled_time = 0.0   # op time at nominal speed, by the last sample
        self.cycle_times: list[float] = []

    def run_cycle(self, c: int) -> float:
        spent = 0.0
        for op in self.workload.cycle(c):
            spent += self.run_op(op)
        self.cycle_times.append(spent)
        return spent

    def run_op(self, op) -> float:
        tracer = self.tracer
        if op.prepare:
            op.prepare()
        if tracer:
            tracer.begin_op(len(self.records), op.name)
            tracer.on = True
        error = None
        start = perf_counter()
        try:
            result = op.run()
        except workloads.NonZeroExit as exc:
            error = f"exit{exc.code}"
        except SystemExit as exc:
            error = f"exit{exc.code}"
        except Exception as exc:   # any crash of the program is a failed op
            error = type(exc).__name__
        end = perf_counter()
        if tracer:
            tracer.on = False
            tracer.end_op()
        sampler = self.sampler
        elapsed = sampler.own(start, end) if sampler else end - start
        self.op_time += elapsed
        self.scaled_time += (elapsed * calibration.NOMINAL_S / sampler.ref[-1]
                             if sampler else elapsed)
        self.records.append((op.name, elapsed, error, op.nodes, start, end))
        if error is not None:
            self.workload.expect(error == op.known_failure, f"{op.name}: failed with {error}")
        else:
            if op.check:
                op.check(result)
            if tracer and isinstance(result, workloads.Sink):
                tracer.counters["cli.rows_out"] += result.lines
                tracer.counters["cli.bytes_out"] += result.bytes
        return elapsed

    def run_for(self, seconds: float, started: float) -> None:
        """Run as many whole cycles as fit in ``seconds`` of op time at
        nominal speed (measured, in the traced run), judged by the mean cycle
        so far, so that every run has the same mix of ops and changes of
        machine speed do not change how many it collects; but at least one
        cycle, and enough to put TAIL_BEYOND samples beyond p50."""
        c = 0
        while c == 0 or ((len(self.records) < 2 * TAIL_BEYOND
                          or self.scaled_time * (1 + 1 / c) <= seconds)
                         and perf_counter() - started < WALL_GUARD_S):
            self.run_cycle(c)
            c += 1

    def scaled(self) -> list[float]:
        """Each op's latency at the nominal machine speed (measured, in the
        traced run).  Needs the sampler's exit sample."""
        if not self.sampler:
            return [r[1] for r in self.records]
        return [self.sampler.scaled(r[4], r[5]) for r in self.records]


def tail(latencies: list[float]) -> tuple[float, float, int, bool]:
    """(percentile, value, samples beyond, resolved) for the highest ladder
    percentile with at least TAIL_BEYOND samples beyond it (nearest rank).
    When none has that many, the tail is unresolved and p50 is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen, resolved = TAIL_LADDER[0], False
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            chosen, resolved = p, True
    rank = max(1, math.ceil(chosen / 100 * n))
    return chosen, ordered[rank - 1], n - rank, resolved


def end_to_end(loop: Loop, setup_times: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, from latencies scaled to the nominal machine
    speed, and the report; the report also gives the measured figures."""
    latencies = loop.scaled()
    op_time = sum(latencies)
    raw = [r[1] for r in loop.records]
    failures = Counter(r[2] for r in loop.records if r[2])
    nodes = sum(r[3] for r in loop.records if r[2] is None)
    pct, tail_s, beyond, resolved = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / op_time, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "tree_nodes_per_s": (nodes / op_time, "1/s"),
    }
    info = {
        "ops": len(latencies), "cycles": len(loop.cycle_times),
        "cycle_s_median": statistics.median(loop.cycle_times), "op_time_s": loop.op_time,
        "setup_reps_s": setup_times,
        "tail_percentile": pct, "tail_samples_beyond": beyond, "tail_resolved": resolved,
        "ops_failed_frac": sum(failures.values()) / len(latencies),
        "failures_by_type": dict(failures),
    }
    if loop.sampler:
        info.update({
            "reference_samples": len(loop.sampler.ref),
            "reference_ms_median": statistics.median(loop.sampler.ref) * 1e3,
            "measured_ops_per_s": len(raw) / loop.op_time,
            "measured_latency_p50_ms": statistics.median(raw) * 1e3,
            "measured_latency_tail_ms": tail(raw)[1] * 1e3,
        })
    if loop.workload.name == "stream":
        info["stream_bits_per_s"] = nodes / op_time
    return metrics, info


def per_class(records) -> dict:
    groups: dict[str, list] = {}
    for name, elapsed, error, *_ in records:
        groups.setdefault(name, []).append((elapsed, error))
    return {name: {"n": len(v), "p50_ms": round(statistics.median(e for e, _ in v) * 1e3, 3),
                   "failed": dict(Counter(err for _, err in v if err))}
            for name, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three, each in its own process)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    started = perf_counter()

    if not (SRC / "treebet" / "__init__.py").is_file():
        print(f"perfbench: no treebet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload, setup_times = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"perfbench: cannot import treebet: {exc}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            # the first cycle untraced, then the same cycle traced, sizes the overhead
            plain = Loop(workload)
            untraced_s = plain.run_cycle(0)
            tracer = tracing.Tracer()
            tracer.install()
            loop = Loop(workload, tracer)
            loop.run_for(args.seconds, started)
            traced_s = loop.cycle_times[0]
            records = plain.records + loop.records
        else:
            with calibration.Sampler() as sampler:
                loop = Loop(workload, sampler=sampler)
                loop.run_for(args.seconds, started)
            records = loop.records
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.finish()

        metrics, info = end_to_end(loop, setup_times, peak_rss_mb)
        info.update(workload.report())
        if tracer:
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
            spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            info["spans"] = len(tracer.spans)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not workload.mismatches
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, stats in per_class(loop.records).items():
        print(f"  op {name}: {stats}")
    for line in workload.mismatches[:20]:
        print(f"  MISMATCH {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
