import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from clockobs import circuits, corpus, metrology
from clockobs.circuits import build_wrapper_circuit, circuit_orbit_length
from clockobs.clock import spectral_model
from clockobs.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    cli_dispatch,
)
from clockobs.errors import BudgetExceededError, StageError
from clockobs.harness import (
    MAX_ACCURACY,
    MAX_BATCHES,
    ExperimentConfig,
    batch_seed,
    clock_orbit,
    draw_samples,
    resolve_accuracy,
    run_experiment,
    write_samples_csv,
)
from clockobs.metrology import (
    CHUNK_ROWS,
    filter_round,
    phase_estimate_distribution,
    sample_phase_estimate,
)
from oracle import samples_csv_by_rows
from test_pinned_behaviour import WRAPPER_DUMPS

FLIP = str(corpus.path("flip"))


def flip_config(tmp_path, **overrides):
    defaults = dict(
        spec_path=str(corpus.path("flip")),
        input_word="0",
        accuracy="auto",
        samples_per_batch=200,
        batch_count=1,
        seed=7,
        out_dir=None,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# run_experiment


def test_experiment_halt_machine_rejecting(tmp_path):
    config = ExperimentConfig(
        spec_path=str(corpus.path("halt")), input_word="0", seed=3
    )
    report = run_experiment(config)
    assert report.f_ground_truth == 0
    assert report.decision.verdict == 0
    assert report.agreement
    assert report.d_observed == report.machine["gate_count"] * report.r_nominal


def test_experiment_flip_accepting():
    config = ExperimentConfig(spec_path=str(corpus.path("flip")), input_word="0", seed=5)
    report = run_experiment(config)
    assert report.f_ground_truth == 1
    assert report.decision.verdict == 1
    assert report.agreement
    assert report.d_observed == 2 * report.machine["gate_count"] * report.r_nominal
    assert report.locality_max_support == 4
    assert not report.accuracy_coarser_than_grid


CORPUS_RUNS = [
    (name, "".join(word), merged)
    for name in corpus.machine_names()
    for word in itertools.product(corpus.load(name).alphabet, repeat=corpus.load(name).tape_cells)
    for merged in (True, False)
]


@pytest.mark.parametrize("name,word,merged", CORPUS_RUNS)
def test_spectral_summary_matches_the_closed_form(name, word, merged):
    config = ExperimentConfig(
        spec_path=str(corpus.path(name)), input_word=word, samples_per_batch=1, merge_cells=merged
    )
    summary = run_experiment(config).spectral_summary
    model = spectral_model(summary["d"])
    assert summary["distinct_eigenvalues"] == len(model.lines)
    top_gap = 1.0 - model.lines[1].eigenvalue if summary["d"] > 1 else 0.0
    assert summary["top_gap"] == top_gap


def test_experiment_coarse_accuracy_is_flagged():
    config = ExperimentConfig(
        spec_path=str(corpus.path("flip")),
        input_word="0",
        seed=5,
        accuracy=0.25,  # far coarser than 1/(r*s)
        samples_per_batch=200,
    )
    report = run_experiment(config)
    assert report.accuracy_coarser_than_grid
    # inconclusive or disagreement are both permitted here; the run completes


def test_experiment_report_is_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    config1 = flip_config(tmp_path, out_dir=str(out1), batch_count=3)
    config2 = flip_config(tmp_path, out_dir=str(out2), batch_count=3)
    run_experiment(config1)
    run_experiment(config2)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_samples_csv_agrees_with_the_decision(tmp_path):
    config = flip_config(tmp_path, out_dir=str(tmp_path), samples_per_batch=300, batch_count=4)
    report = run_experiment(config)
    rows = [line.split(",") for line in (tmp_path / "samples.csv").read_text().splitlines()[1:]]
    values = np.array([float(row[1]) for row in rows])
    kept, j = filter_round(values, report.r_nominal, report.machine["gate_count"])
    assert [int(row[0]) for row in rows] == list(range(1200))
    assert [row[2] == "1" for row in rows] == kept.tolist()
    assert sum(kept) == report.decision.filtered_count
    assert [int(row[3]) for row in rows if row[2] == "1"] == j[kept].tolist()
    assert [int(row[4]) for row in rows if row[2] == "1"] == (j[kept] % 2).tolist()
    assert all(row[3:] == ["", ""] for row in rows if row[2] == "0")
    assert kept.reshape(4, 300).sum(axis=1).tolist() == list(report.decision.batch_kept)
    # a JSON value in the report is a plain Python scalar, never a numpy one
    assert {type(v) for v in _leaves(report.to_json_dict())} <= {int, float, bool, str}


def _flip_batch(n: int, delta: float = 1 / 450, **model) -> metrology.SampleBatch:
    acc = metrology.AccuracyModel(delta, **model)
    return metrology.draw_batch(acc, 450, n, seed=3, r=45, s=10)


def samples_csv(batch: metrology.SampleBatch) -> str:
    out = io.StringIO()
    write_samples_csv(batch, out)
    return out.getvalue()


def assert_csv_matches_rows(batch: metrology.SampleBatch) -> str:
    """``write_samples_csv`` writes what the row formatter builds; a failure
    names the first row that differs, not a diff of the whole text."""
    text = samples_csv(batch)
    got, want = text.splitlines(), samples_csv_by_rows(batch).splitlines()
    first = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b][:1]
    assert (len(got), first) == (len(want), [])
    return text


@pytest.mark.parametrize(
    "n", [1, 451, 452, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7]
)
def test_samples_csv_matches_the_row_formatter_across_chunks(n):
    # from r*s + 2 = 452 rows on, the row suffixes come from one table
    assert assert_csv_matches_rows(_flip_batch(n)).count("\n") == n + 1


@pytest.mark.parametrize("value,kept", [(0.9, 0), (-0.1, 1)])
def test_samples_csv_matches_the_row_formatter_when_all_or_none_are_kept(value, kept):
    n = CHUNK_ROWS + 3
    batch = metrology.SampleBatch(np.full(n, value), metrology.AccuracyModel(0.01), 45, 10)
    text = assert_csv_matches_rows(batch)
    assert [row.split(",")[2] for row in text.splitlines()[1:]] == [str(kept)] * n


def test_samples_csv_matches_the_row_formatter_on_clipped_outcomes():
    # adversarial failures land 2 delta off the true value, clipped at +-(1 + delta)
    batch = _flip_batch(3000, 0.25, failure_mode="adversarial_offset")
    assert np.isin([-1.25, 1.25], batch.values).all()
    assert_csv_matches_rows(batch)


# orjson writes repr's digits only for finite 1e-4 <= |x| < 1e16; each side of
# both bounds, signed zeros, huge and non-finite values and the ends of [-1, 1]
EDGE_VALUES = [
    1e-5, -3.2e-7, 0.0, -0.0, 1e-4, -9.999999999999999e-05, 9.999999999999998e15, 1e16,
    -1e16, 1e300, 5e-324, math.inf, -math.inf, math.nan, 1.0, -1.0, np.nextafter(1.0, 2.0),
    np.nextafter(-1.0, -2.0), np.nextafter(1.0, 0.0), -0.7071067811865476, 0.1, 123456.789,
]


def test_samples_csv_matches_the_row_formatter_on_edge_values():
    batch = metrology.SampleBatch(np.array(EDGE_VALUES), metrology.AccuracyModel(0.01), 45, 10)
    with np.errstate(invalid="ignore"):  # nan's grid index is cast, then unused
        text = assert_csv_matches_rows(batch)
    assert [row.split(",")[1] for row in text.splitlines()[1:6]] == [
        "1e-05", "-3.2e-07", "0.0", "-0.0", "0.0001"
    ]


def test_samples_csv_matches_the_row_formatter_on_a_strided_read_only_view():
    base = np.linspace(-1.5, 1.5, 2 * CHUNK_ROWS + 2 * len(EDGE_VALUES) + 9)
    # every other value, with the edge values in the first and the last chunk
    base[1:2 * len(EDGE_VALUES):2] = EDGE_VALUES
    base[-2 * len(EDGE_VALUES):] = np.repeat(EDGE_VALUES, 2)
    view = base[1::2]
    view.flags.writeable = False
    batch = metrology.SampleBatch(view, metrology.AccuracyModel(0.01), 45, 10)
    assert batch.values is view and not view.flags.c_contiguous
    assert view.size > CHUNK_ROWS
    with np.errstate(invalid="ignore"):
        assert_csv_matches_rows(batch)


def test_samples_csv_matches_the_row_formatter_on_a_wide_grid_and_pooled_batches():
    clocked = clock_orbit(build_wrapper_circuit(corpus.load("flipwalk")), "00")
    assert clocked.r_nominal * clocked.circuit.s == 9690
    # 9,691 rows make their suffixes per chunk, 4 * 2,423 = 9,692 from one table
    for n, seeds in ((9691, [[1, 0]]), (2423, [[1, b] for b in range(4)])):
        assert_csv_matches_rows(draw_samples(clocked, 1 / 9690, n, seeds))


def test_samples_csv_digest_over_more_than_one_chunk(tmp_path):
    # captured from the row-at-a-time formatter the chunked writer replaced
    run_experiment(
        flip_config(tmp_path, out_dir=str(tmp_path), samples_per_batch=2000, batch_count=5, seed=5)
    )
    data = (tmp_path / "samples.csv").read_bytes()
    assert data.count(b"\n") == 10_001 > CHUNK_ROWS
    assert (
        hashlib.sha256(data).hexdigest()
        == "fbc5c6b8f188fbd063b52638e54c8b259bd9003aeccb8c06864434374e960d66"
    )


def test_every_samples_csv_stream_matches_the_row_formatter_over_three_chunks(tmp_path, capsys):
    clocked = clock_orbit(build_wrapper_circuit(corpus.load("flip")), "0")
    per, seeds = 6000, [batch_seed(5, b) for b in range(3)]
    run_experiment(
        flip_config(tmp_path, out_dir=str(tmp_path), samples_per_batch=per, batch_count=3, seed=5)
    )
    want = samples_csv_by_rows(draw_samples(clocked, 1 / 450, per, seeds))
    assert want.count("\n") == 3 * per + 1 > 2 * CHUNK_ROWS + 1
    assert (tmp_path / "samples.csv").read_bytes() == want.encode()

    n = 2 * CHUNK_ROWS + 7
    want = samples_csv_by_rows(draw_samples(clocked, 1 / 450, n, [3])).encode()
    argv = ["sample", FLIP, "--input", "0", "--samples", str(n), "--seed", "3"]
    assert cli_dispatch(argv) == EXIT_OK
    assert capsys.readouterr().out.encode() == want
    assert cli_dispatch([*argv, "--out", str(tmp_path / "sample.csv")]) == EXIT_OK
    assert (tmp_path / "sample.csv").read_bytes() == want


class _Discard(io.TextIOBase):
    """A text stream that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_samples_csv_writer_holds_one_chunk_whatever_the_row_count():
    # 2 and 8 chunks of rows: text kept from chunk to chunk would add about
    # 40 bytes a row. (At 100k and 400k rows the peaks are as flat, but
    # tracing takes about 11 us a row.)
    small, large = (_flip_batch(k * CHUNK_ROWS) for k in (2, 8))
    peaks = [_traced_peak(write_samples_csv, batch, _Discard()) for batch in (small, large)]
    assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks


@pytest.mark.parametrize("batches", [1, 8])
def test_draw_and_decide_peak_within_one_and_a_half_sample_arrays(batches):
    clocked = clock_orbit(build_wrapper_circuit(corpus.load("flip")), "0")
    seeds = [[2, b] for b in range(batches)]
    tracemalloc.start()
    try:
        batch = draw_samples(clocked, 1 / 450, 400_000 // batches, seeds)
        drawn = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        metrology.decide(batch)
        decided = tracemalloc.get_traced_memory()[1]  # counts the held samples too
    finally:
        tracemalloc.stop()
    assert batch.values.nbytes == 3_200_000
    assert max(drawn, decided) <= 1.5 * batch.values.nbytes, (drawn, decided)


def test_experiment_seed_changes_samples(tmp_path):
    r1 = run_experiment(flip_config(tmp_path, seed=1))
    r2 = run_experiment(flip_config(tmp_path, seed=2))
    assert r1.decision.odd_fraction != r2.decision.odd_fraction


def test_batch_seed_split_is_stable():
    assert batch_seed(9, 0) == [9, 0]
    assert batch_seed(9, 1) != batch_seed(9, 0)


def test_batch_draws_depend_only_on_seed_and_batch(tmp_path):
    # batch b is seeded by (seed, b) alone, so three batches begin with the
    # one batch of a single-batch run: header plus 200 rows
    for batches in (1, 3):
        out_dir = str(tmp_path / str(batches))
        run_experiment(flip_config(tmp_path, out_dir=out_dir, batch_count=batches))
    one = (tmp_path / "1" / "samples.csv").read_text().splitlines()
    three = (tmp_path / "3" / "samples.csv").read_text().splitlines()
    assert len(one) == 201 and len(three) == 601
    assert three[:201] == one


def test_stage_attribution_parse(tmp_path):
    bad = tmp_path / "bad.rtm"
    bad.write_text("states: nope\n", encoding="utf-8")
    with pytest.raises(StageError) as err:
        run_experiment(flip_config(tmp_path, spec_path=str(bad)))
    assert err.value.stage == "parse"


def test_stage_attribution_validate(tmp_path):
    bad = tmp_path / "irrev.rtm"
    bad.write_text(
        "states: p:rw q:rw z:final\n"
        "alphabet: 0 1\n"
        "initial: p\n"
        "tape_cells: 1\n"
        "transition: rw (p,0) -> (z,1)\n"
        "transition: rw (q,0) -> (z,1)\n"
        "transition: rw (p,1) -> (p,1)\n"
        "transition: rw (q,1) -> (q,0)\n",
        encoding="utf-8",
    )
    with pytest.raises(StageError) as err:
        run_experiment(flip_config(tmp_path, spec_path=str(bad)))
    assert err.value.stage == "validate"


def test_stage_attribution_ground_truth_nontermination(tmp_path):
    spinner = tmp_path / "spin.rtm"
    spinner.write_text(
        "states: a:right b:right\n"
        "alphabet: 0 1\n"
        "initial: a\n"
        "tape_cells: 2\n"
        "transition: move a -> b +1\n"
        "transition: move b -> a +1\n",
        encoding="utf-8",
    )
    with pytest.raises(StageError) as err:
        run_experiment(flip_config(tmp_path, spec_path=str(spinner)))
    assert err.value.stage == "ground-truth"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(spec_path="x", input_word="", samples_per_batch=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec_path="x", input_word="", accuracy=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec_path="x", input_word="", accuracy="sometimes")


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentConfig(spec_path="x", input_word="", seed=-1)


def test_config_rejects_boolean_accuracy():
    with pytest.raises(ValueError, match="accuracy"):
        ExperimentConfig(spec_path="x", input_word="", accuracy=True)


def test_config_file_names_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spec_path": "x", "input_word": "", "sedd": 1}), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config keys sedd"):
        ExperimentConfig.from_json_file(path)


def test_resolve_accuracy():
    assert resolve_accuracy("auto", 4, 5) == 1 / 20
    assert resolve_accuracy(0.5, 4, 5) == 0.5
    assert resolve_accuracy(2, 4, 5) == 2.0
    # a string other than "auto" is refused; the CLI parses numbers itself
    wider = math.nextafter(MAX_ACCURACY, math.inf)
    bad_values = ("0.5", "abc", "0", -1.0, 0, True, float("nan"), float("inf"), "inf", None)
    for bad in (*bad_values, wider, 1e308, 10**400):
        with pytest.raises(ValueError):
            resolve_accuracy(bad, 4, 5)
    # the widest accuracy still draws finite outcomes in both failure modes
    assert resolve_accuracy(MAX_ACCURACY, 4, 5) == MAX_ACCURACY
    for mode in metrology.FAILURE_MODES:
        acc = metrology.AccuracyModel(MAX_ACCURACY, failure_mode=mode)
        assert np.isfinite(metrology.draw_batch(acc, 450, 1000, 1, 45, 10).values).all()


def test_config_round_trips_through_json(tmp_path):
    payload = {
        "spec_path": str(corpus.path("halt")),
        "input_word": "1",
        "accuracy": "auto",
        "samples_per_batch": 50,
        "batch_count": 2,
        "seed": 123,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    config = ExperimentConfig.from_json_file(path)
    assert config.seed == 123
    assert config.batch_count == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_corpus_machine(capsys):
    code = cli_dispatch(["validate", str(corpus.path("flip"))])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["reversible"] is True
    assert out["violations"] == []


def test_cli_validate_irreversible_machine(tmp_path, capsys):
    bad = tmp_path / "bad.rtm"
    bad.write_text(
        "states: p:rw\nalphabet: 0 1\ninitial: p\ntape_cells: 1\n"
        "transition: rw (p,0) -> (p,0)\n",
        encoding="utf-8",
    )
    code = cli_dispatch(["validate", str(bad)])
    assert code == EXIT_VALIDATION
    out = json.loads(capsys.readouterr().out)
    assert not out["reversible"]


def test_cli_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.rtm"
    bad.write_text("transition: garbage\n", encoding="utf-8")
    code = cli_dispatch(["validate", str(bad)])
    assert code == EXIT_VALIDATION
    assert "[parse]" in capsys.readouterr().err


# the commands that run the pipeline, each reading its machine from SPEC
PIPELINE_COMMANDS = [
    ["compile", "SPEC"],
    ["orbit", "SPEC", "--input", "1"],
    ["sample", "SPEC", "--input", "1"],
    ["decide", "SPEC", "--input", "1"],
    ["experiment", "--spec", "SPEC", "--input", "1"],
]


def _run_on(argv, spec) -> int:
    return cli_dispatch([str(spec) if a == "SPEC" else a for a in argv])


def test_cli_missing_file_is_io_error(capsys):
    missing = "/nonexistent/machine.rtm"
    assert cli_dispatch(["validate", missing]) == EXIT_IO
    assert capsys.readouterr().err.startswith("[parse] [Errno 2] ")
    for argv in PIPELINE_COMMANDS:
        assert _run_on(argv, missing) == EXIT_IO, argv
        err = capsys.readouterr().err
        assert err.startswith("[parse] [Errno 2] ") and len(err.splitlines()) == 1, (argv, err)


UNREADABLE_SPECS = {  # how to make the spec, the exit code, the stderr line's start
    "missing": (lambda path: None, EXIT_IO, "[parse] [Errno 2] "),
    "directory": (lambda path: path.mkdir(), EXIT_IO, "[parse] [Errno 21] "),
    "non-utf-8": (lambda path: path.write_bytes(b"states: \xff\n"), EXIT_VALIDATION,
                  "[parse] 'utf-8' codec "),
}


@pytest.mark.parametrize("case", list(UNREADABLE_SPECS))
def test_unreadable_spec_gets_one_line_from_every_machine_command(case, tmp_path, capsys):
    make, code, start = UNREADABLE_SPECS[case]
    spec = tmp_path / "machine.rtm"
    make(spec)
    lines = set()
    for argv in [["validate", "SPEC"]] + PIPELINE_COMMANDS:
        assert _run_on(argv, spec) == code, argv
        lines.add(capsys.readouterr().err)
    assert len(lines) == 1, lines
    (line,) = lines
    assert line.startswith(start) and line.count("\n") == 1, line


IRREVERSIBLE = {  # a has no rule for 1; a sends both symbols to (h, 1)
    "nontotal": "transition: rw (a,0) -> (h,1)\n",
    "colliding": "transition: rw (a,0) -> (h,1)\ntransition: rw (a,1) -> (h,1)\n",
}


@pytest.mark.parametrize("name", list(IRREVERSIBLE))
def test_irreversible_machine_fails_validation_in_every_command(name, tmp_path, capsys):
    path = tmp_path / f"{name}.rtm"
    path.write_text(
        "states: a:rw h:final\nalphabet: 0 1\ninitial: a\ntape_cells: 1\n" + IRREVERSIBLE[name],
        encoding="utf-8",
    )
    errors = set()
    for argv in PIPELINE_COMMANDS:
        assert _run_on(argv, path) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        errors.add(captured.err)
    [err] = errors
    assert err.startswith("[validate] machine is not reversible (")


def test_cli_spectrum_csv(capsys):
    code = cli_dispatch(["spectrum", "--d", "4"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "j,eigenvalue,multiplicity,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [float(r[1]) for r in rows] == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)
    assert [int(r[2]) for r in rows] == [1, 2, 1]
    assert [r[3] for r in rows] == ["1/4", "1/2", "1/4"]


def test_cli_orbit(capsys):
    code = cli_dispatch(["orbit", str(corpus.path("flip")), "--input", "1"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["r_observed"] == out["r_nominal"]  # flip("1") rejects
    assert out["d_observed"] == out["gate_count"] * out["r_observed"]


def test_cli_compile_and_replay(tmp_path):
    out = tmp_path / "circuit.json"
    code = cli_dispatch(["compile", str(corpus.path("halt")), "--out", str(out)])
    assert code == EXIT_OK
    dump = json.loads(out.read_text(encoding="utf-8"))
    assert dump["format"] == "clockobs-circuit/1"
    assert len(dump["gates"]) > 0


def test_cached_parser_carries_no_option_between_calls(tmp_path, capsys):
    # the parser is built once per process; each call must still start clean
    assert build_parser() is build_parser()
    assert cli_dispatch(["compile"]) == EXIT_VALIDATION
    capsys.readouterr()
    for merged in (False, True):
        out = tmp_path / f"flip-{merged}.json"
        flag = [] if merged else ["--no-merge-cells"]
        assert cli_dispatch(["compile", FLIP, *flag, "--out", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert data.endswith(b"}\n")
        assert hashlib.sha256(data[:-1]).hexdigest() == WRAPPER_DUMPS[("flip", merged)]


def test_cli_sample_csv(capsys):
    code = cli_dispatch(
        ["sample", str(corpus.path("flip")), "--input", "0", "--samples", "20", "--seed", "4"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "trial,raw_value,filtered,j,parity"
    assert len(lines) == 21


def test_cli_decide(capsys):
    code = cli_dispatch(
        ["decide", str(corpus.path("flip")), "--input", "0", "--samples", "400", "--seed", "4"]
    )
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == 1


def test_cli_phase_estimate(capsys):
    code = cli_dispatch(["phase-estimate", "--phi", "1/4", "--m", "2"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["argmax"] == 1
    assert out["distribution"][1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "phi, code, message",
    [
        ("1e10000000", EXIT_VALIDATION, "[error] eigenphase inf outside [0, 1)\n"),
        ("1e-10000000", EXIT_OK, ""),
        ("-0", EXIT_OK, ""),
    ],
)
def test_cli_decimal_phase_is_read_as_a_float(phi, code, message, capsys):
    # a huge exponent must not be expanded exactly, and -0 must print phi 0.0
    started = time.perf_counter()
    assert cli_dispatch(["phase-estimate", "--phi", phi, "--m", "3"]) == code
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.err == message
    if code == EXIT_OK:
        out = json.loads(captured.out)
        assert (out["phi"], math.copysign(1.0, out["phi"]), out["argmax"]) == (0.0, 1.0, 0)


def test_cli_phase_estimate_counts_come_from_one_draw(capsys):
    argv = ["phase-estimate", "--phi", "1/3", "--m", "6", "--samples", "500", "--seed", "2"]
    assert cli_dispatch(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    table = phase_estimate_distribution(6, 1 / 3)
    draws = sample_phase_estimate(table, np.random.default_rng(2), 500)
    assert out["sample_counts"] == np.bincount(draws, minlength=64).tolist()
    assert sum(out["sample_counts"]) == out["samples"] == 500


def test_cli_experiment_deterministic_stdout(tmp_path, capsys):
    args = [
        "experiment",
        "--spec",
        str(corpus.path("halt")),
        "--input",
        "1",
        "--samples",
        "100",
        "--seed",
        "7",
    ]
    assert cli_dispatch(args) == EXIT_OK
    first = capsys.readouterr().out
    assert cli_dispatch(args + ["--out", str(tmp_path)]) == EXIT_OK
    second, err = capsys.readouterr()
    assert first == second == (tmp_path / "report.json").read_text(encoding="utf-8")
    # the command times the run itself: one line on stderr, none in the report
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err), err
    report = json.loads(first)
    assert report["agreement"] is True
    assert "timing" not in json.dumps(report)
    assert set(report) == {
        "accuracy", "accuracy_coarser_than_grid", "agreement", "config", "d_observed",
        "decision", "f_ground_truth", "locality_max_support", "machine", "r_nominal",
        "seed", "spectral_summary", "tool_version",
    }


def test_cli_experiment_config_file(tmp_path, capsys):
    cfg = {
        "spec_path": str(corpus.path("flip")),
        "input_word": "1",
        "samples_per_batch": 150,
        "batch_count": 2,
        "seed": 11,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = cli_dispatch(["experiment", "--config", str(path)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["f_ground_truth"] == 0
    assert report["decision"]["verdict"] == 0


def test_cli_experiment_options_override_the_config_file(tmp_path, capsys):
    cfg = {"spec_path": str(corpus.path("flip")), "input_word": "1", "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["--samples", "50", "--batches", "2", "--input", "0", "--no-merge-cells"]
    assert cli_dispatch(["experiment", "--config", str(path), *argv]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["samples_per_batch"] == 50
    assert report["config"]["batch_count"] == 2
    assert report["config"]["input_word"] == "0"
    assert report["config"]["merge_cells"] is False
    assert report["seed"] == 11


def test_cli_unknown_subcommand_fails():
    assert cli_dispatch(["frobnicate"]) == EXIT_VALIDATION


def test_cli_entrypoint_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "clockobs.cli", "spectrum", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("j,eigenvalue")


BAD_CONFIGS = {
    "unknown-key": {"spec_path": FLIP, "input_word": "0", "bogus": 1},
    "bool-accuracy": {"spec_path": FLIP, "input_word": "0", "accuracy": True},
    "missing-key": {"spec_path": FLIP},
    "string-merge-cells": {"spec_path": FLIP, "input_word": "0", "merge_cells": "no"},
    "bool-samples": {"spec_path": FLIP, "input_word": "0", "samples_per_batch": True},
    "float-batches": {"spec_path": FLIP, "input_word": "0", "batch_count": 2.0},
    "string-seed": {"spec_path": FLIP, "input_word": "0", "seed": "1"},
    "negative-seed": {"spec_path": FLIP, "input_word": "0", "seed": -1},
    # max_run_steps is no longer a config field, so each of these is an unknown key.
    "float-max-run-steps": {"spec_path": FLIP, "input_word": "0", "max_run_steps": 1.5},
    "zero-max-run-steps": {"spec_path": FLIP, "input_word": "0", "max_run_steps": 0},
    "negative-max-run-steps": {"spec_path": FLIP, "input_word": "0", "max_run_steps": -5},
    "huge-accuracy": {"spec_path": FLIP, "input_word": "0", "accuracy": 1e308},
    # a JSON integer too large for a float
    "huge-int-accuracy": {"spec_path": FLIP, "input_word": "0", "accuracy": 10**400},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", FLIP, "--input", "2"],
        ["decide", FLIP, "--input", "0", "--accuracy", "abc"],
        ["sample", FLIP, "--input", "0", "--accuracy", "-1"],
        ["decide", FLIP, "--input", "0", "--accuracy", "0"],
        ["sample", FLIP, "--input", "0", "--accuracy", "nan"],
        ["decide", FLIP, "--input", "0", "--accuracy", "inf"],
        ["experiment", "--spec", FLIP, "--input", "0", "--accuracy", "-1"],
        ["experiment", "--spec", FLIP, "--input", "0", "--accuracy", "abc"],
        # a failure window wider than the largest float cannot be drawn from
        ["sample", FLIP, "--input", "0", "--accuracy", "1e308"],
        ["experiment", "--spec", FLIP, "--input", "0", "--accuracy", "1e308"],
        ["decide", FLIP, "--input", "0", "--samples", "0"],
        ["sample", FLIP, "--input", "0", "--samples", "0"],
        ["phase-estimate", "--phi", "1/3", "--m", "20"],
        ["phase-estimate", "--phi", "1/0", "--m", "3"],
        ["phase-estimate", "--phi", "1e400", "--m", "3"],
        ["phase-estimate", "--phi", "nan", "--m", "3"],
        ["phase-estimate", "--phi", "5/2", "--m", "3"],
        ["phase-estimate", "--phi=-1/3", "--m", "3"],
        ["spectrum", "--d", "0"],
        ["phase-estimate", "--phi", "1/2", "--m", "3", "--samples", "-3"],
        ["sample", FLIP, "--input", "0", "--seed", "-1"],
        ["decide", FLIP, "--input", "0", "--seed", "-1"],
        ["experiment", "--spec", FLIP, "--input", "0", "--seed", "-1"],
        ["nosuch"],
        ["sample", FLIP, "--bogus"],
        ["validate", FLIP, "--no-merge-cells"],
        [],
        ["experiment", "--config", "unknown-key"],
        ["experiment", "--config", "bool-accuracy"],
        ["experiment", "--config", "missing-key"],
        *(["experiment", "--config", key] for key in list(BAD_CONFIGS)[3:]),
    ],
    ids=lambda argv: "-".join(a for a in argv if a != FLIP) or "no-command",
)
def test_cli_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    if argv and argv[-1] in BAD_CONFIGS:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BAD_CONFIGS[argv[-1]]), encoding="utf-8")
        argv = argv[:-1] + [str(path)]
    assert cli_dispatch(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def write_wide(tmp_path, cells: int = 24) -> str:
    """A reversible binary machine with ``cells`` tape cells. At 24 cells it
    has 2 * 24 * 2**24 configurations, and V's gates would hold
    206,158,467,488 register-level entries."""
    wide = tmp_path / f"wide{cells}.rtm"
    wide.write_text(
        f"states: p:rw h:final\nalphabet: 0 1\ninitial: p\ntape_cells: {cells}\n"
        "transition: rw (p,0) -> (h,1)\ntransition: rw (p,1) -> (h,0)\n",
        encoding="utf-8",
    )
    return str(wide)


def test_batch_count_is_capped(capsys):
    # each batch costs a generator and report entries even at one sample
    ExperimentConfig(FLIP, "0", samples_per_batch=1, batch_count=MAX_BATCHES)
    message = f"{MAX_BATCHES + 1} batches exceed the cap {MAX_BATCHES}"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        ExperimentConfig(FLIP, "0", samples_per_batch=1, batch_count=MAX_BATCHES + 1)
    argv = ["experiment", "--spec", FLIP, "--input", "0", "--batches", str(MAX_BATCHES + 1)]
    assert cli_dispatch(argv) == EXIT_BUDGET
    assert capsys.readouterr().err == f"[budget] {message}\n"


def test_cli_validate_wide_machine_from_the_rules(tmp_path, capsys):
    assert cli_dispatch(["validate", write_wide(tmp_path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["reversible"] is True
    assert out["configs_checked"] == 2 * 24 * 2**24


def test_experiment_checks_the_gate_cap_before_running_the_machine(tmp_path, monkeypatch):
    # the default ground-truth budget grows with the register space (about
    # 1.7e10 steps for a 24-cell machine), so the cap must come first
    def no_run(*args, **kwargs):
        raise AssertionError("ran the machine before checking the gate cap")

    monkeypatch.setattr("clockobs.rtm.run_machine", no_run)
    argv = ["experiment", "--spec", write_wide(tmp_path), "--input", "0"]
    assert cli_dispatch(argv) == EXIT_BUDGET


def test_cli_multi_character_symbol_exits_2_with_one_line(tmp_path, capsys):
    spec = tmp_path / "ab.rtm"
    spec.write_text(
        "states: p:rw h:final\nalphabet: 0 ab\ninitial: p\ntape_cells: 2\n"
        "transition: rw (p,0) -> (h,ab)\ntransition: rw (p,ab) -> (h,0)\n",
        encoding="utf-8",
    )
    assert cli_dispatch(["experiment", "--spec", str(spec), "--input", "ab"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "[parse]" in err and "'ab' must be a single character" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["compile", FLIP], ("circuits", "MAX_GATE_ENTRIES", 100)),
        (["compile", FLIP], ("circuits", "MAX_DUMP_ENTRIES", 1000)),
        (["spectrum", "--d", "100000000"], None),
        (["compile", "WIDE"], None),
        (["experiment", "--spec", "WIDE", "--input", "0"], None),
        (["sample", FLIP, "--samples", "2000001"], None),
        (["decide", FLIP, "--samples", "2000001"], None),
        (["experiment", "--spec", FLIP, "--samples", "1000001", "--batches", "2"], None),
        (["phase-estimate", "--phi", "1/3", "--m", "3", "--samples", "2000001"], None),
    ],
    ids=[
        "compile-gate-cap",
        "compile-dump-cap",
        "spectrum-huge-d",
        "compile-wide-gate-cap",
        "experiment-wide-gate-cap",
        "sample-count-cap",
        "decide-count-cap",
        "experiment-count-cap",
        "phase-estimate-count-cap",
    ],
)
def test_cli_over_budget_exits_3_with_one_line(argv, cap, monkeypatch, tmp_path, capsys):
    if cap:
        module, name, value = cap
        monkeypatch.setattr(f"clockobs.{module}.{name}", value)
    argv = [write_wide(tmp_path) if a == "WIDE" else a for a in argv]
    assert cli_dispatch(argv) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "WIDE"],
        ["orbit", "WIDE", "--input", "0"],
        ["sample", "WIDE", "--input", "0"],
        ["decide", "WIDE", "--input", "0"],
        ["experiment", "--spec", "WIDE", "--input", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_gate_cap_prints_one_budget_line_in_every_command(argv, tmp_path, capsys):
    argv = [write_wide(tmp_path) if a == "WIDE" else a for a in argv]
    assert cli_dispatch(argv) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "[budget] wrapper circuit needs 206158467488 gate-table entries, "
        "over the compile cap 2000000\n"
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        (["sample", FLIP, "--samples", "0"], EXIT_VALIDATION),
        (["decide", FLIP, "--samples", "0"], EXIT_VALIDATION),
        (["sample", FLIP, "--samples", "2000001"], EXIT_BUDGET),
        (["experiment", "--spec", FLIP, "--samples", "1000001", "--batches", "2"], EXIT_BUDGET),
    ],
    ids=["sample-zero", "decide-zero", "sample-over-cap", "experiment-over-cap"],
)
def test_cli_sample_counts_fail_before_compile(argv, code, monkeypatch, capsys):
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before the sample count was checked")

    monkeypatch.setattr("clockobs.circuits.build_wrapper_circuit", no_compile)
    assert cli_dispatch(argv) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["sample", "decide", "experiment"])
@pytest.mark.parametrize("accuracy", ["abc", "-1", "0", "nan", "inf"])
def test_cli_bad_accuracy_fails_before_compile(command, accuracy, monkeypatch, capsys):
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before the accuracy was checked")

    monkeypatch.setattr("clockobs.circuits.build_wrapper_circuit", no_compile)
    spec = ["--spec", FLIP] if command == "experiment" else [FLIP]
    argv = [command, *spec, "--input", "0", "--accuracy", accuracy]
    assert cli_dispatch(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--accuracy" in err and len(err.strip().splitlines()) == 1


def test_spectrum_cap_bounds_only_the_spectrum_command(monkeypatch, capsys):
    monkeypatch.setattr("clockobs.clock.MAX_SPECTRUM_DIM", 100)  # flip's orbit has d = 900
    assert cli_dispatch(["decide", FLIP, "--input", "0"]) == EXIT_OK
    assert cli_dispatch(["spectrum", "--d", "900"]) == EXIT_BUDGET


@pytest.mark.parametrize("word", ["0", "1"])
def test_cli_orbit_r_matches_a_walk_of_the_circuit(word, capsys):
    spec = corpus.load("flip")
    assert cli_dispatch(["orbit", FLIP, "--input", word]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    circuit = build_wrapper_circuit(spec)
    assert out["r_observed"] == circuit_orbit_length(circuit, circuit.layout.initial_basis_state(word))


# stdout of `validate`, captured before the report was written from the
# ReversibilityReport dataclass itself
VALIDATE_STDOUT = {
    "flip": "9667a3ff25b7c5ae604b836c76def8f16112ed5d013c86f59871bbf503444be1",
    "flipwalk": "31cab13f1625cea503bc063af0cb5f34ebfa461f2e3714ad39cf23bd9e0eba79",
    "halt": "b852ff6e3ba0849dfbdafa1641cf59bb960fee9e319d6cc9215b2c2b3cc9663b",
    "rot3": "9f637f17ef3b7dc29ef322420e2b274280f3c63dd2121e69b1946171f64ccfb1",
    "broken": "f2c82ad564ba615daa93d6e334ba74f7462e01fa1333911a6853749861b9023c",
}
BROKEN = (  # h is entered by a moving and a read-write rule; q wraps at cell 2
    "states: p:rw q:right h:final\nalphabet: 0 1\ninitial: p\ntape_cells: 2\n"
    "transition: rw (p,0) -> (h,1)\ntransition: rw (p,1) -> (q,1)\ntransition: move q -> h +1\n"
)


@pytest.mark.parametrize("name", list(VALIDATE_STDOUT))
def test_cli_validate_stdout_digest(name, tmp_path, capsys):
    path = tmp_path / "broken.rtm"
    path.write_text(BROKEN, encoding="utf-8")
    spec = str(path) if name == "broken" else str(corpus.path(name))
    want = EXIT_VALIDATION if name == "broken" else EXIT_OK
    assert cli_dispatch(["validate", spec]) == want
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == VALIDATE_STDOUT[name]


@pytest.mark.parametrize("word", ["2", "000"])
def test_bad_input_word_reads_the_same_in_every_command(word, capsys):
    # flip has one tape cell and the alphabet 0 1; every command refuses the
    # word with the machine's own check, so only the stage tag differs
    messages = set()
    for argv in (
        ["orbit", FLIP],
        ["sample", FLIP],
        ["decide", FLIP],
        ["experiment", "--spec", FLIP],
    ):
        assert cli_dispatch([*argv, "--input", word]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("[")
        messages.add(err.split("] ", 1)[1])
    assert len(messages) == 1


def test_run_experiment_builds_the_wrapper_once(tmp_path, monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(circuits, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(circuits, name, wrapper)

    for name in ("_step_maps", "_bookkeeping_maps", "wrapper_layout", "state_bits"):
        counted(name)
    run_experiment(flip_config(tmp_path))
    assert calls == {"_step_maps": 1, "_bookkeeping_maps": 1, "wrapper_layout": 1, "state_bits": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "HUGE"],
        ["compile", "HUGE"],
        ["orbit", "HUGE", "--input", "0"],
        ["decide", "HUGE", "--input", "0"],
        ["experiment", "--spec", "HUGE", "--input", "0"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("cells", [10_000, 100_000])
def test_config_cap_fails_fast_with_one_budget_line(argv, cells, tmp_path, capsys):
    argv = [write_wide(tmp_path, cells) if a == "HUGE" else a for a in argv]
    started = time.perf_counter()
    assert cli_dispatch(argv) == EXIT_BUDGET
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    bits = {10_000: "10014.3", 100_000: "100017.6"}[cells]
    assert captured.err == f"[budget] machine has 2**{bits} configurations, over the cap 2**256\n"


TARGET = (  # p is entered by the moving rule of q, so V cannot hold it fixed
    "states: p:rw q:right h:final\nalphabet: 0 1\ninitial: p\ntape_cells: 2\n"
    "transition: rw (p,0) -> (q,0)\ntransition: rw (p,1) -> (h,1)\ntransition: move q -> p +1\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "TARGET"],
        ["orbit", "TARGET", "--input", "0"],
        ["experiment", "--spec", "TARGET", "--input", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_compile_failure_prints_one_compile_line_in_every_command(argv, tmp_path, capsys):
    path = tmp_path / "target.rtm"
    path.write_text(TARGET, encoding="utf-8")
    assert cli_dispatch([str(path) if a == "TARGET" else a for a in argv]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "[compile] initial state 'p' is the target of a moving rule; the step "
        "circuit cannot hold it fixed at an application boundary\n"
    )
