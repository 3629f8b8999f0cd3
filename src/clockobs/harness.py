"""End-to-end experiment driver.

Runs the stages parse, validate, compile, ground-truth, orbit, sample and
decide: loads a machine, checks it is reversible, compiles the self-looping
circuit, runs the machine directly for the ground truth, measures the clock
observable's orbit, samples accuracy-limited outcomes and decides the
machine's answer. Validate refuses a machine over ``rtm.MAX_CONFIG_BITS``
and compile one whose m is over ``circuits.MAX_REGISTER_BITS``; ground
truth runs at most the longest run the compiled circuit's counters hold,
``counter_size - 2`` = 2**(m+1) - 2 steps, so no machine is run that could
not be compiled, and one that does not halt within that is refused.
``clock_machine`` runs parse to orbit, and the sample stage resolves the
accuracy, for ``run_experiment`` and ``clockobs orbit``/``sample``/``decide``
alike; ``clockobs compile`` and ``validate`` share the stages up to compile
and parse. Every stage failure but a budget one is re-raised tagged with the
stage name; a ``BudgetExceededError`` passes through as it is. Reports are
reproducible: the same config and seed give byte-identical report files, so
a report holds no wall-clock time.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, TextIO

import numpy as np
import orjson

from . import __version__, circuits, clock, metrology, rtm
from .errors import BudgetExceededError, ClockObsError, StageError

AUTO_ACCURACY = "auto"
# Widest accuracy: a failed outcome is drawn from [-1 - delta, 1 + delta],
# whose width numpy needs finite; the next float up overflows it.
MAX_ACCURACY = sys.float_info.max / 2
MAX_BATCHES = 10_000  # each batch has its own generator and report entries


@dataclass(frozen=True)
class ExperimentConfig:
    spec_path: str
    input_word: str
    accuracy: float | str = AUTO_ACCURACY  # "auto" means 1/(r*s)
    samples_per_batch: int = 200
    batch_count: int = 1
    seed: int = 0
    out_dir: str | None = None
    merge_cells: bool = True

    def __post_init__(self) -> None:
        for name, kind, what in (
            ("spec_path", str, "a string"),
            ("input_word", str, "a string"),
            ("out_dir", (str, type(None)), "a string or null"),
            ("merge_cells", bool, "true or false"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for name, low in {"samples_per_batch": 1, "batch_count": 1, "seed": 0}.items():
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.batch_count > MAX_BATCHES:
            raise BudgetExceededError(f"{self.batch_count} batches exceed the cap {MAX_BATCHES}")
        metrology.check_sample_budget(self.samples_per_batch * self.batch_count)
        resolve_accuracy(self.accuracy, 1, 1)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:  # a missing key, or a value of the wrong type
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ExperimentReport:
    machine: dict[str, Any]  # name, m, tape_cells, gate_count
    r_nominal: int
    d_observed: int
    f_ground_truth: int
    decision: metrology.DecisionResult
    spectral_summary: dict[str, Any]
    locality_max_support: int
    agreement: bool
    accuracy: float
    accuracy_coarser_than_grid: bool
    seed: int
    config: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {**asdict(self), "tool_version": __version__}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


@contextmanager
def _stage(name: str):
    try:
        yield
    except (StageError, BudgetExceededError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def batch_seed(seed: int, batch_index: int) -> list[int]:
    """Counter-style seed key: batch b's draws depend only on (seed, b), so a
    run with more batches repeats a shorter run's draws and adds its own."""
    return [seed, batch_index]


def resolve_accuracy(value: float | str, r: int, s: int) -> float:
    """Accuracy delta for a setting: "auto" is the grid spacing 1/(r*s);
    anything else must be a number in (0, ``MAX_ACCURACY``]."""
    if value == AUTO_ACCURACY:
        return 1.0 / (r * s)
    if type(value) not in (int, float) or not 0 < value <= MAX_ACCURACY:
        raise ValueError(
            f"accuracy must be a number in (0, {MAX_ACCURACY!r}] or 'auto', got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class ClockedCircuit:
    """The self-looping circuit for a machine, clocked from one input."""

    circuit: circuits.Circuit
    r_nominal: int
    locality: clock.LocalityReport
    orbit: clock.Orbit


def parse_machine(path) -> rtm.RtmSpec:
    """Stage parse: read the spec at ``path``."""
    with _stage("parse"):
        return rtm.parse_rtm_file(path)


def load_machine(path) -> rtm.RtmSpec:
    """Stages parse and validate: read the spec at ``path`` and refuse a
    machine whose rules are not reversible."""
    spec = parse_machine(path)
    with _stage("validate"):
        report = rtm.check_reversibility(spec)
        if not report.is_reversible:
            first = report.violations[0].message
            raise ClockObsError(
                f"machine is not reversible ({len(report.violations)} violations; "
                f"first: {first})"
            )
    return spec


def compile_circuit(spec: rtm.RtmSpec, merge_cells: bool) -> circuits.Circuit:
    """Stage compile: build V, within the gate budget."""
    with _stage("compile"):
        return circuits.build_wrapper_circuit(spec, merge_cells=merge_cells)


def clock_orbit(circuit: circuits.Circuit, input_word: str) -> ClockedCircuit:
    """Stage orbit: walk the clock orbit of the input from where its run
    starts (``circuits.clock_start``); the orbit's dimension d fixes every
    measurement's outcome distribution."""
    with _stage("orbit"):
        op = clock.ForwardOperator(circuit)
        initial = clock.ClockedState(*circuits.clock_start(circuit.layout, input_word))
        orbit = clock.compute_orbit(op, initial)
        locality = clock.locality_report(op)
    r_nominal = circuits.nominal_cycle_length(circuit.layout.m)
    return ClockedCircuit(circuit, r_nominal, locality, orbit)


def clock_machine(
    spec_path, input_word: str, merge_cells: bool
) -> tuple[rtm.RtmSpec, rtm.RunResult, ClockedCircuit]:
    """Stages parse, validate, compile, ground-truth and orbit: the machine at
    ``spec_path``, its halting run on the input, and its clocked circuit."""
    spec = load_machine(spec_path)
    circuit = compile_circuit(spec, merge_cells)
    with _stage("ground-truth"):
        # V's counters hold a run of at most counter_size - 2 steps, so a
        # longer one certifies nothing; a halting run never repeats a
        # configuration, so it takes fewer than 2**m steps and fits
        budget = circuit.layout.counter_size - 2
        truth = rtm.run_machine(spec, input_word, max_steps=budget)
        if not truth.halted:
            raise ClockObsError(f"machine did not halt within {budget} steps; cannot certify")
    return spec, truth, clock_orbit(circuit, input_word)


def draw_samples(
    clocked: ClockedCircuit, accuracy: float | str, n: int, seeds: list
) -> metrology.SampleBatch:
    """Stage sample: n measurements per key in ``seeds``, drawn batch by batch
    into one array, at the ``accuracy`` setting resolved on the grid. The
    experimenter's grid is the nominal cycle length, not the observed one, so
    the accuracy cannot leak the answer."""
    with _stage("sample"):
        r, s, d = clocked.r_nominal, clocked.circuit.s, clocked.orbit.dimension
        acc_model = metrology.AccuracyModel(delta=resolve_accuracy(accuracy, r, s))
        values = np.empty(n * len(seeds))
        for b, key in enumerate(seeds):
            metrology.draw_batch(acc_model, d, n, seed=key, r=r, s=s, out=values[b * n:(b + 1) * n])
        values.flags.writeable = False
        return metrology.SampleBatch(values, acc_model, r, s, batches=len(seeds))


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each number in the 1-D array ``values``, encoded by orjson
    in one call. orjson writes the same shortest digits only for finite
    1e-4 <= |x| < 1e16 (1e-05, 1e+16, inf and nan become 0.00001, 1e16 and
    null), so the numbers outside that range are written by ``repr``."""
    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    items = text[1:-1].decode().split(",")
    magnitude = np.abs(values)
    for i in np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16))).tolist():
        items[i] = repr(values.item(i))
    return items


def _suffixes(grid) -> list[str]:
    """The row suffix (kept flag, grid index, parity) of each grid index in
    ``grid``, -1 standing for a row that is not kept."""
    return [f",1,{k},{k % 2}\n" if k >= 0 else ",0,,\n" for k in grid]


def write_samples_csv(batch: metrology.SampleBatch, fh: TextIO) -> None:
    """Write samples.csv to the text stream ``fh``, one row per sample: trial,
    raw value, kept flag, grid index, parity. Each chunk of rows is rounded,
    built a column at a time, and written before the next, so the text held
    is one chunk's. A kept row's grid index lies in 0..r*s, so when there are
    at least r*s + 2 rows the suffixes come from one table of them all;
    fewer rows make one suffix per distinct grid index in each chunk. The
    numbers are written by ``_reprs``, in the ``repr`` text the CSV bytes pin."""
    fh.write("trial,raw_value,filtered,j,parity\n")
    size, top = batch.values.size, batch.r * batch.s
    table = np.array(_suffixes(range(-1, top + 1)), object) if top + 2 <= size else None
    for a in range(0, size, metrology.CHUNK_ROWS):
        values = batch.values[a:a + metrology.CHUNK_ROWS]
        kept, j = metrology.filter_round(values, batch.r, batch.s)
        parts = [","] * (4 * values.size)  # trial, ",", raw value, suffix
        parts[0::4] = _reprs(np.arange(a, a + values.size))
        parts[2::4] = _reprs(values)
        if table is not None:
            parts[3::4] = table[np.where(kept, j + 1, 0)].tolist()
        else:
            grid, row = np.unique(np.where(kept, j, -1), return_inverse=True)
            parts[3::4] = np.array(_suffixes(grid.tolist()), object)[row].tolist()
        fh.write("".join(parts))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    spec, truth, clocked = clock_machine(config.spec_path, config.input_word, config.merge_cells)
    d, grid_r, grid_s = clocked.orbit.dimension, clocked.r_nominal, clocked.circuit.s
    seeds = [batch_seed(config.seed, b) for b in range(config.batch_count)]
    pooled = draw_samples(clocked, config.accuracy, config.samples_per_batch, seeds)
    accuracy = pooled.model.delta

    with _stage("decide"):
        decision = metrology.decide(pooled)

    report = ExperimentReport(
        machine={
            "name": spec.name,
            "m": clocked.circuit.layout.m,
            "tape_cells": spec.tape_cells,
            "gate_count": grid_s,
        },
        r_nominal=grid_r,
        d_observed=d,
        f_ground_truth=truth.f_of_x,
        decision=decision,
        spectral_summary={
            "d": d,
            "distinct_eigenvalues": d // 2 + 1,
            "top_gap": 1.0 - clock.cycle_eigenvalue(1, d) if d > 1 else 0.0,
        },
        locality_max_support=clocked.locality.max_support,
        agreement=decision.verdict == truth.f_of_x,
        accuracy=accuracy,
        accuracy_coarser_than_grid=accuracy > 1.0 / (grid_r * grid_s) + 1e-15,
        seed=config.seed,
        config={k: v for k, v in asdict(config).items() if k != "out_dir"},  # less out_dir
    )

    if config.out_dir is not None:
        with _stage("report"):
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(report.to_json(), encoding="utf-8")
            with open(out / "samples.csv", "w", encoding="utf-8") as fh:
                write_samples_csv(pooled, fh)
    return report

