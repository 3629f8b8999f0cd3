"""End-to-end experiment driver.

Runs the stages parse, validate, compile, ground-truth, orbit, sample and
decide: loads a machine, checks it is reversible, compiles the self-looping
circuit, runs the machine directly for the ground truth, measures the clock
observable's orbit, samples accuracy-limited outcomes and decides the
machine's answer. Validate refuses a machine over ``rtm.MAX_CONFIG_BITS``
and compile one over ``circuits.MAX_GATE_ENTRIES``; the ground-truth step
budget is set by the compiled circuit's register size, so no machine is run
that could not be compiled. The compile, orbit, accuracy, sampling and CSV
stages are shared with the command line, so ``clockobs compile``/``orbit``/
``sample``/``decide`` run the same code. Every stage failure but a budget
one is re-raised tagged with the stage name; a ``BudgetExceededError``
passes through as it is. Reports are reproducible: the same config and seed
give byte-identical report files (wall-clock timing is kept out of the
serialized report for that reason).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import circuits, clock, metrology, rtm
from .errors import BudgetExceededError, ClockObsError, StageError

AUTO_ACCURACY = "auto"


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
        if not isinstance(self.merge_cells, bool):
            raise ValueError(f"merge_cells must be true or false, got {self.merge_cells!r}")
        for name, low in {"samples_per_batch": 1, "batch_count": 1, "seed": 0}.items():
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
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
    timing_seconds: float  # excluded from the serialized report

    def to_json_dict(self) -> dict[str, Any]:
        out = asdict(self)
        del out["timing_seconds"]
        out["tool_version"] = _version()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _version() -> str:
    from . import __version__

    return __version__


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
    anything else must be a positive finite number."""
    if value == AUTO_ACCURACY:
        return 1.0 / (r * s)
    if type(value) not in (int, float) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"accuracy must be a positive number or 'auto', got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ClockedCircuit:
    """The self-looping circuit for a machine, clocked from one input."""

    circuit: circuits.Circuit
    r_nominal: int
    locality: clock.LocalityReport
    orbit: clock.Orbit


def compile_circuit(spec: rtm.RtmSpec, merge_cells: bool) -> circuits.Circuit:
    """Stage compile: build V, within the gate budget."""
    with _stage("compile"):
        return circuits.build_wrapper_circuit(spec, merge_cells=merge_cells)


def clock_orbit(circuit: circuits.Circuit, input_word: str) -> ClockedCircuit:
    """Stage orbit: walk the clock orbit of the input, whose dimension d fixes
    every measurement's outcome distribution."""
    with _stage("orbit"):
        op = clock.ForwardOperator(circuit)
        initial = clock.ClockedState(circuit.layout.initial_basis_state(input_word), 1)
        orbit = clock.compute_orbit(op, initial)
        locality = clock.locality_report(op)
    r_nominal = circuits.nominal_cycle_length(circuit.layout.m)
    return ClockedCircuit(circuit, r_nominal, locality, orbit)


def draw_samples(
    clocked: ClockedCircuit, accuracy: float, n: int, seeds: list
) -> metrology.SampleBatch:
    """Stage sample: n measurements per key in ``seeds``, pooled into one
    batch. The experimenter's grid is the nominal cycle length, not the
    observed one, so the accuracy cannot leak the answer."""
    with _stage("sample"):
        r, s, d = clocked.r_nominal, clocked.circuit.s, clocked.orbit.dimension
        acc_model = metrology.AccuracyModel(delta=accuracy)
        values = [metrology.draw_batch(acc_model, d, n, seed=key, r=r, s=s).values for key in seeds]
        return metrology.SampleBatch(np.concatenate(values), acc_model, r, s, batches=len(seeds))


def samples_csv(batch: metrology.SampleBatch) -> str:
    """One row per sample: trial, raw value, kept flag, grid index, parity."""
    kept, j = metrology.filter_round(batch.values, batch.r, batch.s)
    # memoryviews hand out Python floats, bools and ints a row at a time, so
    # no per-sample list is held beside the text
    rows = enumerate(zip(batch.values.data, kept.data, j.data))
    return "trial,raw_value,filtered,j,parity\n" + "".join(
        f"{t},{v!r},1,{k},{k % 2}\n" if keep else f"{t},{v!r},0,,\n" for t, (v, keep, k) in rows
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    started = time.perf_counter()

    with _stage("parse"):
        spec = rtm.parse_rtm_file(config.spec_path)

    with _stage("validate"):
        report = rtm.check_reversibility(spec)
        if not report.is_reversible:
            first = report.violations[0].message
            raise ClockObsError(
                f"machine is not reversible ({len(report.violations)} violations; "
                f"first: {first})"
            )

    circuit = compile_circuit(spec, config.merge_cells)

    with _stage("ground-truth"):
        # a halting run never repeats a configuration, so it takes fewer
        # than 2**m steps
        budget = 4 * 2 ** (circuit.layout.m + 1)
        truth = rtm.run_machine(spec, config.input_word, max_steps=budget)
        if not truth.halted:
            raise ClockObsError(
                f"machine did not halt within {budget} steps; cannot certify"
            )

    clocked = clock_orbit(circuit, config.input_word)
    d = clocked.orbit.dimension
    grid_r, grid_s = clocked.r_nominal, clocked.circuit.s
    accuracy = resolve_accuracy(config.accuracy, grid_r, grid_s)
    seeds = [batch_seed(config.seed, b) for b in range(config.batch_count)]
    pooled = draw_samples(clocked, accuracy, config.samples_per_batch, seeds)

    with _stage("decide"):
        decision = metrology.decide(pooled)

    elapsed = time.perf_counter() - started
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
        config={  # as given, less the output directory
            **{k: v for k, v in asdict(config).items() if k != "out_dir"},
            "spec_path": str(config.spec_path),
        },
        timing_seconds=elapsed,
    )

    if config.out_dir is not None:
        with _stage("report"):
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(report.to_json(), encoding="utf-8")
            (out / "samples.csv").write_text(samples_csv(pooled), encoding="utf-8")
    return report

