"""In-memory span recorder for the benchmark's traced passes.

Spans are recorded from the benchmark's side only: ``Recorder.installed``
swaps the module attributes that ``harness`` and ``cli`` call (and that the
benchmark calls directly) for wrappers, and puts the originals back on exit.
Nothing under ``src/`` is edited. Calls a module makes to its own helpers
(``step_machine`` inside the sweep, ``lift_gate`` inside a compile) are not
wrapped, so the recorder adds a handful of calls per operation, not per step.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("rtm", "circuits", "clock", "metrology", "harness", "cli")


def _table_entries(circuit) -> int:
    return sum(len(g.table) for g in circuit.gates)


def _report_bytes(args, kwargs, report) -> dict[str, int]:
    config = args[0] if args else kwargs["config"]
    if config.out_dir is None:
        return {}
    out = Path(config.out_dir)
    return {"harness.report_bytes": sum(p.stat().st_size for p in out.iterdir())}


# (module, function, counters taken from (args, kwargs, result))
TRACED = (
    ("rtm", "parse_rtm_file", None),
    ("rtm", "parse_rtm_spec", None),
    ("rtm", "check_reversibility", lambda a, k, r: {"rtm.sweep_configs": r.configs_checked}),
    ("rtm", "run_machine", lambda a, k, r: {"rtm.run_steps": r.steps_used}),
    (
        "circuits",
        "build_wrapper_circuit",
        lambda a, k, r: {"circuits.gates": r.s, "circuits.table_entries": _table_entries(r)},
    ),
    ("circuits", "dump_circuit_json", lambda a, k, r: {"circuits.dump_bytes": len(r)}),
    ("clock", "compute_orbit", lambda a, k, r: {"clock.orbit_steps": r.dimension}),
    ("clock", "locality_report", None),
    ("clock", "spectral_model", None),
    ("metrology", "draw_batch", lambda a, k, r: {"metrology.samples": len(r.values)}),
    (
        "metrology",
        "decide",
        lambda a, k, r: {"metrology.kept": r.filtered_count, "metrology.decided": len(a[0].values)},
    ),
    ("harness", "run_experiment", _report_bytes),
    ("cli", "cli_dispatch", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    op: int  # operation id within the pass, -1 outside any operation
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Collects spans for one process; ``spans`` is appended in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        )
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    sp.counts.update(counter(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every ``TRACED`` attribute of ``modules`` (name -> module)."""
        saved = []
        try:
            for mod_name, attr, counter in TRACED:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn, counter))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


# per-layer time metric -> the span names whose outermost occurrences it sums
TIME_GROUPS = {
    "rtm.parse_s": ("rtm.parse_rtm_file", "rtm.parse_rtm_spec"),
    "rtm.sweep_s": ("rtm.check_reversibility",),
    "rtm.run_s": ("rtm.run_machine",),
    "circuits.compile_s": ("circuits.build_wrapper_circuit",),
    "circuits.dump_s": ("circuits.dump_circuit_json",),
    "clock.orbit_s": ("clock.compute_orbit",),
    "clock.locality_s": ("clock.locality_report",),
    "clock.spectrum_s": ("clock.spectral_model",),
    "metrology.sample_s": ("metrology.draw_batch",),
    "metrology.decide_s": ("metrology.decide",),
}

COUNTS = (
    "rtm.sweep_configs",
    "rtm.run_steps",
    "circuits.gates",
    "circuits.table_entries",
    "circuits.dump_bytes",
    "clock.orbit_steps",
    "metrology.samples",
    "metrology.kept",
    "metrology.decided",
    "harness.report_bytes",
)

# rate metric -> (count, time)
RATES = {
    "rtm.configs_per_s": ("rtm.sweep_configs", "rtm.sweep_s"),
    "circuits.entries_per_s": ("circuits.table_entries", "circuits.compile_s"),
    "clock.steps_per_s": ("clock.orbit_steps", "clock.orbit_s"),
    "metrology.samples_per_s": ("metrology.samples", "metrology.sample_s"),
    "metrology.kept_ratio": ("metrology.kept", "metrology.decided"),
}


def summarize(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer figures for the span tree under ``spans[root]``.

    Self time is a span's duration minus its children's durations; spans
    nest and never overlap (one thread), so the self times of all layers plus
    the benchmark's own sum to the root's duration.
    """
    children: dict[int, list[int]] = {}
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in members:
            members.add(i)
            children.setdefault(spans[i].parent, []).append(i)

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    out.update({name: 0.0 for name in TIME_GROUPS})
    out.update({name: 0 for name in COUNTS})
    group_of = {n: g for g, names in TIME_GROUPS.items() for n in names}
    for i in sorted(members):
        sp = spans[i]
        dur = sp.end - sp.start
        child_time = sum(spans[c].end - spans[c].start for c in children.get(i, ()))
        out[f"{layer_of(sp.name)}.self_s"] += dur - child_time
        group = group_of.get(sp.name)
        if group is not None and (sp.parent < 0 or group_of.get(spans[sp.parent].name) != group):
            out[group] += dur
        for key, value in sp.counts.items():
            out[key] += value
    return out


def with_rates(figures: dict[str, float]) -> dict[str, float]:
    out = dict(figures)
    for rate, (num, den) in RATES.items():
        out[rate] = out[num] / out[den] if out[den] else 0.0
    return out
