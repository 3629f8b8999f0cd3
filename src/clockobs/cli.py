"""Command-line front end.

Subcommands: validate, compile, orbit, spectrum, sample, decide,
phase-estimate, experiment. orbit, sample and decide take their machine from
``harness.clock_machine`` (parse, validate, compile, ground-truth, orbit) and
draw through ``harness.draw_samples``, which resolves the accuracy, as
experiment does; compile and validate share the first stages. Exit codes: 0
success, 2 validation failure, 3 budget exhaustion, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import circuits, clock, harness, metrology, rtm
from .errors import BudgetExceededError, ClockObsError, StageError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4


@contextmanager
def _output(out: str | None, binary: bool = False):
    """The stream a command writes to: the file ``out``, or stdout; bytes if ``binary``."""
    if not out:  # a stdout that takes only text, such as an io.StringIO, gets bytes decoded
        text = SimpleNamespace(write=lambda data: sys.stdout.write(data.decode()))
        yield getattr(sys.stdout, "buffer", text) if binary else sys.stdout
        return
    with open(out, "wb") if binary else open(out, "w", encoding="utf-8") as fh:
        yield fh


def _check_out_dir(out: str | None) -> None:
    """Refuse, before any stage runs, an ``--out`` in a missing directory."""
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _emit(data, out: str | None) -> None:
    text = data if isinstance(data, str) else json.dumps(data, sort_keys=True, indent=2) + "\n"
    with _output(out) as fh:
        fh.write(text)


def _cmd_validate(args) -> int:
    spec = harness.parse_machine(args.spec)
    report = rtm.check_reversibility(spec)
    _emit({"machine": spec.name, "reversible": report.is_reversible, **asdict(report)}, args.out)
    return EXIT_OK if report.is_reversible else EXIT_VALIDATION


def _cmd_compile(args) -> int:
    circuit = harness.compile_circuit(harness.load_machine(args.spec), not args.no_merge_cells)
    data = circuits.dump_circuit_json(circuit)  # first: a dump over its cap opens no file
    with _output(args.out, binary=True) as fh:  # two writes: no copy of a dump of tens of MB
        fh.write(data)
        fh.write(b"\n")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    _check_out_dir(args.out)
    spec, _, clocked = harness.clock_machine(args.spec, args.input, not args.no_merge_cells)
    circuit, locality, d_obs = clocked.circuit, clocked.locality, clocked.orbit.dimension
    _emit(
        {
            "machine": spec.name,
            "m": circuit.layout.m,
            "gate_count": circuit.s,
            "r_nominal": clocked.r_nominal,
            "r_observed": d_obs // circuit.s,
            "d_observed": d_obs,
            "locality": {
                "max_support": locality.max_support,
                "term_supports": list(locality.term_supports),
            },
        },
        args.out,
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    model = clock.spectral_model(args.d)
    lines = ["j,eigenvalue,multiplicity,probability"]
    for line in model.lines:
        lines.append(
            f"{line.index},{line.eigenvalue!r},{line.multiplicity},{line.probability}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _draw(args) -> tuple[rtm.RtmSpec, metrology.SampleBatch]:
    """One batch of ``--samples`` draws seeded with ``--seed``."""
    _check_out_dir(args.out)
    metrology.check_sample_budget(args.samples)
    spec, _, clocked = harness.clock_machine(args.spec, args.input, not args.no_merge_cells)
    return spec, harness.draw_samples(clocked, args.accuracy, args.samples, [args.seed])


def _cmd_sample(args) -> int:
    _, batch = _draw(args)
    with _output(args.out) as fh:
        harness.write_samples_csv(batch, fh)
    return EXIT_OK


def _cmd_decide(args) -> int:
    spec, batch = _draw(args)
    decision = metrology.decide(batch)
    _emit(
        {
            "machine": spec.name,
            "input": args.input,
            "seed": args.seed,
            "model": asdict(batch.model),
            "grid": {"r": batch.r, "s": batch.s},
            **asdict(decision),
        },
        args.out,
    )
    return EXIT_OK


def _parse_phi(text: str) -> float:
    if "/" not in text:  # Fraction would compute 10**exponent exactly; + 0.0 turns -0 into 0
        return float(text) + 0.0
    try:
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"phase {text!r} divides by zero") from None
    except OverflowError:
        raise ValueError(f"phase {text!r} is too large for a float") from None


def _cmd_phase_estimate(args) -> int:
    phi = _parse_phi(args.phi)
    table = metrology.phase_estimate_distribution(args.m, phi)
    result = {
        "m": args.m,
        "phi": phi,
        "distribution": [float(p) for p in table],
        "argmax": int(table.argmax()),
    }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        draws = metrology.sample_phase_estimate(table, rng, args.samples)
        result["sample_counts"] = np.bincount(draws, minlength=len(table)).tolist()
        result["samples"] = args.samples
        result["seed"] = args.seed
    _emit(result, args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.config:
        config = harness.ExperimentConfig.from_json_file(args.config)
    elif args.spec_path:
        config = harness.ExperimentConfig(args.spec_path, args.input_word or "")
    else:
        raise ValueError("experiment needs --config or --spec")
    # every option given overrides; each is stored under its config field's name
    given = {f.name: getattr(args, f.name, None) for f in fields(config)}
    config = replace(config, **{k: v for k, v in given.items() if v is not None})
    started = time.perf_counter()
    report = harness.run_experiment(config)
    elapsed = time.perf_counter() - started
    sys.stdout.write(report.to_json())
    sys.stderr.write(f"elapsed: {elapsed:.3f}s\n")
    return EXIT_OK


def _at_least(low: int):
    """argparse type for seeds and counts: a decimal integer >= ``low``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _accuracy(text: str) -> float | str:
    """argparse type for --accuracy: 'auto' or a number in (0, ``harness.MAX_ACCURACY``]."""
    if text == harness.AUTO_ACCURACY:
        return text
    try:
        return harness.resolve_accuracy(float(text), 1, 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number in (0, {harness.MAX_ACCURACY!r}] or 'auto', got {text!r}"
        ) from None


class _CommandParser(argparse.ArgumentParser):
    """A usage error (unknown command, bad or missing option) is a validation
    failure, which ``cli_dispatch`` reports in one line with exit code 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # built once per process; each parse_args fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _CommandParser(
        prog="clockobs",
        description="Compile reversible machines into self-looping circuits and "
        "decide their output from accuracy-limited clock-observable measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=False):
        p.add_argument("spec", help="machine spec file (.rtm)")
        if needs_input:
            p.add_argument("--input", default="", help="input word (symbols, concatenated)")
        p.add_argument("--no-merge-cells", action="store_true", help="one wire per register")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("validate", help="parse and check reversibility")
    p.add_argument("spec", help="machine spec file (.rtm)")
    p.add_argument("--out", default=None, help="write output to this file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compile", help="dump the self-looping circuit as JSON")
    add_common(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("orbit", help="measure circuit and clock orbit lengths")
    add_common(p, needs_input=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("spectrum", help="exact eigenvalue table for a d-cycle")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sample", help="draw accuracy-limited measurement outcomes")
    add_common(p, needs_input=True)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--accuracy", type=_accuracy, default="auto", help="float or 'auto' (=1/(r*s))")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decide", help="sample and run the parity decision")
    add_common(p, needs_input=True)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--accuracy", type=_accuracy, default="auto")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("phase-estimate", help="exact ancilla readout distribution")
    p.add_argument("--phi", required=True, help="eigenphase in [0,1), fractions allowed")
    p.add_argument("--m", type=int, required=True, help="ancilla count")
    p.add_argument("--samples", type=_at_least(0), default=0)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phase_estimate)

    p = sub.add_parser("experiment", help="full pipeline; options override --config")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--spec", dest="spec_path")
    p.add_argument("--input", dest="input_word")
    p.add_argument("--accuracy", type=_accuracy)
    p.add_argument("--samples", dest="samples_per_batch", type=_at_least(1))
    p.add_argument("--batches", dest="batch_count", type=_at_least(1))
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--no-merge-cells", dest="merge_cells", action="store_false", default=None)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_experiment)
    return parser


def cli_dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"[budget] {exc}\n")
        return EXIT_BUDGET
    except StageError as exc:
        sys.stderr.write(f"{exc}\n")
        if isinstance(exc.cause, OSError):
            return EXIT_IO
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"[io] {exc}\n")
        return EXIT_IO
    except (ClockObsError, ValueError) as exc:
        sys.stderr.write(f"[error] {exc}\n")
        return EXIT_VALIDATION


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
