"""Benchmark runner for clockobs.

    python3 bench/run.py --workload corpus-merged --seed 1 --seconds 25 --trace 0

Run it from a checkout that holds ``src/clockobs``; the benchmark imports the
package from there, never from an installed copy. One process runs one
workload, single-threaded and closed-loop: each operation starts when the
previous one has finished, as for one researcher running clockobs on a small
box. The set-up (import, machine generation, op list) is repeated and its
median reported; third-party modules such as numpy are imported once per
process, so only the first repeat pays for them. Then whole passes over the
op list run until ``--seconds`` is used up. ``wall_s`` is the median pass
time. The gated ``wall_ref_s`` and ``setup_s`` are the same medians in
seconds at a reference CPU speed, scaled by a probe loop sampled while they
run (see ``Speedometer``): on a shared host raw times swing with the
neighbours by more than any useful bound.
With ``--trace 1`` untraced and traced passes alternate and the run reports
the per-layer figures of the fastest traced pass plus the tracing overhead;
end-to-end figures come only from ``--trace 0`` runs. Every operation's
output is checked after each pass; a failed check counts in ``failed`` and
makes the exit code 1.

The last stdout line is the result as JSON. Outputs, ``results.json`` and
``trace.json`` (spans, written at exit) go under ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import metrics
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
EXIT_FAILED, EXIT_NO_PROGRAM = 1, 2


def import_clockobs() -> SimpleNamespace:
    """Import clockobs afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "clockobs" or m.startswith("clockobs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("clockobs")
    if Path(pkg.__file__).resolve().parent != SRC / "clockobs":
        raise ImportError(f"clockobs imported from {pkg.__file__}, not from {SRC}")
    names = ("rtm", "circuits", "clock", "metrology", "harness", "cli", "corpus")
    return SimpleNamespace(**{n: importlib.import_module(f"clockobs.{n}") for n in names})


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


PROBE_INTERVAL_S = 0.05
# The probe loop's time on an uncontended core of the 2-vCPU Xeon host the
# baseline was measured on; timings are reported in seconds at this speed.
PROBE_REF_S = 300e-6


def _probe_loop() -> None:
    """A fixed pure-Python loop: dict, list and int work like the program's."""
    seen: dict[int, int] = {}
    recent: list[int] = []
    for i in range(1500):
        k = i * 7919 % 1013
        seen[k] = seen.get(k, 0) + i
        recent.append(k % 17)
        if len(recent) > 64:
            recent.pop(0)


class Speedometer:
    """Samples how fast the CPU runs Python while the benchmark is timed.

    On a shared host the speed this process gets swings by tens of percent
    within seconds and drifts over minutes, so raw times spread more than any
    useful bound. Every PROBE_INTERVAL_S a SIGALRM handler times the probe
    loop. A stretch of work divided by the mean probe time sampled during it
    measures the work in probe loops, which the host's speed cancels out of;
    times PROBE_REF_S, that is seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.samples if start <= t < end]

    def work(self, start: float, end: float) -> float:
        """Seconds from start to end, less the probes run in between."""
        return end - start - sum(self._inside(start, end))

    def ref_scale(self, start: float, end: float) -> float:
        """Factor from seconds between start and end to reference seconds. A
        stretch too short to hold a probe uses every probe taken so far."""
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        inside = self._inside(start, end) or [d for _, d in self.samples]
        return PROBE_REF_S / statistics.fmean(inside)

    def ref_seconds(self, start: float, end: float) -> float:
        return self.work(start, end) * self.ref_scale(start, end)


@dataclass
class Pass:
    start: float
    end: float
    outcomes: list[tuple]  # (result, error) per op

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_pass(ops, recorder) -> Pass:
    """One pass over ``ops``, spans recorded when ``recorder`` is given."""
    outcomes = []
    with recorder.span("bench.pass") if recorder else nullcontext():
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if recorder:
                recorder.op = i
            with recorder.span("bench.op") if recorder else nullcontext():
                try:
                    outcomes.append((op.run(), None))
                except Exception as exc:  # an operation failure is a result
                    outcomes.append((None, exc))
        end = time.perf_counter()
    if recorder:
        recorder.op = -1
    return Pass(start, end, outcomes)


class Tally:
    """Attempted/failed operations, verdict agreement and output bytes."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.passes = 0
        self.failed: set[tuple[int, int]] = set()  # (pass, op)
        self.agreed: list[bool] = []
        self.output_bytes: list[int] = []
        self.problems: list[str] = []
        self.run_problems: list[str] = []  # not tied to one operation

    def add_pass(self, outcomes) -> None:
        p = self.passes
        self.passes += 1
        written = 0
        for i, (op, (result, error)) in enumerate(zip(self.ops, outcomes)):
            if error is not None:
                self._fail(p, i, f"raised {error!r}")
                continue
            checked = op.check(result)
            self.agreed += checked.agreed
            written += checked.output_bytes
            for problem in checked.problems:
                self._fail(p, i, problem)
        self.output_bytes.append(written)

    def _fail(self, p: int, i: int, problem: str) -> None:
        if (p, i) not in self.failed and len(self.problems) < 50:
            self.problems.append(f"pass {p} {self.ops[i].name}: {problem}")
        self.failed.add((p, i))

    @property
    def correct(self) -> bool:
        return not self.failed and not self.run_problems

    @property
    def attempted(self) -> int:
        return self.passes * len(self.ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "clockobs" / "__init__.py").is_file():
        sys.stderr.write(f"no clockobs sources under {SRC}; run from a full checkout\n")
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    speedometer = Speedometer()
    setups = []
    with speedometer.running():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cx = import_clockobs()
            workload = WORKLOADS[args.workload](cx, args.size, args.seed, work)
            setups.append((start, time.perf_counter()))
    setup_times = [speedometer.work(a, b) for a, b in setups]
    setup_scale = speedometer.ref_scale(setups[0][0], setups[-1][1])
    tally = Tally(workload.ops)
    try:
        tally.run_problems += workload.preflight()
    except Exception as exc:  # a program defect, reported like a failed check
        tally.run_problems.append(f"preflight raised {exc!r}")

    modules = {name: getattr(cx, name) for name in spans.LAYERS}
    recorder = spans.Recorder()
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    roots: list[int] = []
    order = [False, True] if args.trace else [False]
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in order:
            if traced:
                roots.append(len(recorder.spans))
            with recorder.installed(modules) if traced else nullcontext():
                with speedometer.running():
                    done = run_pass(workload.ops, recorder if traced else None)
            passes[traced].append(done)
            tally.add_pass(done.outcomes)
        rounds += 1
        order.reverse()  # alternate which kind of pass goes first
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(args.seed)
    walls = {traced: [p.wall for p in done] for traced, done in passes.items()}
    summary = {
        "wall_ref_s": statistics.median(speedometer.ref_seconds(p.start, p.end) for p in passes[False]),
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "setup_raw_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "agreement_frac": sum(tally.agreed) / len(tally.agreed) if tally.agreed else 0.0,
        "output_mb": statistics.median(tally.output_bytes) / 1e6,
        "failed_frac": len(tally.failed) / tally.attempted,
    }
    if args.trace:
        layer = _per_layer(recorder, roots, walls, tally)
        norm = {t: statistics.median(speedometer.ref_seconds(p.start, p.end) for p in passes[t])
                for t in (False, True)}
        layer["trace.overhead_frac"] = norm[True] / norm[False] - 1.0
        chosen = {m.name: (layer[m.name], m.unit) for m in metrics.PER_LAYER}
    else:
        chosen = {m.name: (summary[m.name], m.unit) for m in metrics.END_TO_END}

    units = {m.name: m.unit for m in metrics.END_TO_END + metrics.SUMMARY_ONLY}
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} passes={len(walls[False])}+{len(walls[True])} traced")
    for name, value in summary.items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    for problem in tally.problems + tally.run_problems:
        print(f"  FAILED {problem}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    (work / "results.json").write_text(
        json.dumps({"env": env, "summary": summary, "walls": walls[False],
                    "traced_walls": walls[True], "setup_times": setup_times,
                    "probes": speedometer.samples,
                    "problems": tally.problems + tally.run_problems, "result": result}, indent=1) + "\n",
        encoding="utf-8",
    )
    if args.trace:
        recorder.write(work / "trace.json")
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0 if tally.correct else EXIT_FAILED


def _per_layer(recorder, roots, walls, tally) -> dict[str, float]:
    """Per-layer figures of the fastest traced pass; counts must repeat."""
    per_pass = [spans.summarize(recorder.spans, root) for root in roots]
    durations = [recorder.spans[root].end - recorder.spans[root].start for root in roots]
    for p, figures in enumerate(per_pass):
        accounted = sum(figures[f"{layer}.self_s"] for layer in spans.LAYERS + ("bench",))
        if abs(accounted - durations[p]) > 1e-6:
            tally.run_problems.append(f"traced pass {p}: self times sum to {accounted}, not {durations[p]}")
        for count in spans.COUNTS:
            if figures[count] != per_pass[0][count]:
                tally.run_problems.append(f"traced pass {p}: {count} {figures[count]} != {per_pass[0][count]}")
    fastest = min(range(len(roots)), key=walls[True].__getitem__)
    out = spans.with_rates(per_pass[fastest])
    out["trace.wall_s"] = durations[fastest]
    return out


if __name__ == "__main__":
    sys.exit(main())
