"""Byte-level pins of outputs that refactors must not change.

The dump, ``orbit`` and ``spectrum`` digests were captured from an
implementation that derived the wrapper's payload separately from the step
circuit, ran its own pipeline in ``cli``, stored every gate as a wire-level
table and drew each measurement with its own scalar calls, so they also show
that building V from U's maps, sharing the harness stages, storing each gate
as a table over the registers it reads and drawing measurements as arrays
changed none of those outputs.

The ``sample``/``decide`` stdout and experiment digests were re-captured once
when the sampler began drawing whole batches as arrays: one seed then yields
a different random stream, and the report gained per-batch kept counts and
odd fractions.

The ``phase-estimate`` digests were captured from an implementation that
summed the kernels of a tuple of eigenphases weighted by their amplitudes,
so they show that computing the one eigenphase's kernel changed no byte.
"""

import contextlib
import hashlib
import io

import pytest

from clockobs import corpus
from clockobs.circuits import build_wrapper_circuit, dump_circuit_json
from clockobs.cli import EXIT_OK, cli_dispatch
from clockobs.harness import ExperimentConfig, run_experiment


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


WRAPPER_DUMPS = {
    ("halt", True): "59244a08232d3d0fff44dad5003797b8a406f3986592fe5263f11c0df1e59de1",
    ("halt", False): "7e90971118a6d10d3c292a610b8ca4b2bb8aa3388f0fdc97bf43d418a3b8f313",
    ("flip", True): "0a9f580e65681b241f050fbb63a856bba32422f7c6fe32295d6ca1ab7f643b08",
    ("flip", False): "a517b80b9e36dc78180ef8911f205ece236bb5a8e9d2b0e3112b740226adb4ea",
    ("rot3", True): "d60e49ecf7ef93cfdbae07c76a5316a3440d57b354f40f31b062d8f5978d8b1f",
    ("rot3", False): "cf9b47ea40e954c4c7a39231238eed2ef9684915bb9be96b876933267e8b7961",
    ("flipwalk", True): "0958d9627ad9e4800270d945cc0be673b26c4a5d41954e7659723097231df8e1",
    ("flipwalk", False): "bcac7b386fd193c1a5e2d5cc363b16aaac435525081a6e501a523b25abda2e6a",
}


@pytest.mark.parametrize("name,merged", list(WRAPPER_DUMPS))
def test_wrapper_dump_digest(name, merged):
    circuit = build_wrapper_circuit(corpus.load(name), merge_cells=merged)
    assert sha256(dump_circuit_json(circuit)) == WRAPPER_DUMPS[(name, merged)]


CLI_STDOUT = {
    ("orbit", "--input", "1"): "5d3ae01b629aa69cf944f098f3e515d38acaa5914c8d34acc3ecd149fae89b9e",
    ("sample", "--input", "0", "--samples", "20", "--seed", "4"):
        "b8d914fe27c27b7011df16ffa55f3a17144da48c25f2e69f82477ed6b3c7ec33",
    ("decide", "--input", "0", "--samples", "400", "--seed", "4"):
        "0194bac430200810ad30ec12f8179a16080670f8b01e4ae1762da6c30a18fca5",
}


@pytest.mark.parametrize("argv", list(CLI_STDOUT), ids=lambda argv: argv[0])
def test_cli_stdout_digest(argv):
    command, *options = argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch([command, str(corpus.path("flip")), *options]) == EXIT_OK
    assert sha256(out.getvalue()) == CLI_STDOUT[argv]


PHASE_ESTIMATE_STDOUT = {
    ("--phi", "1/3", "--m", "4"):
        "81d4522d746cfa09eb48db7e3f7842967f2b877808288aaf8c753932c58a62be",
    ("--phi", "1/3", "--m", "10", "--samples", "500", "--seed", "2"):
        "d32d6e489ba45c2281fbf6e06f0aaa8e0faeaa6cc4e502991cc3068e8716d63a",
}


@pytest.mark.parametrize("options", list(PHASE_ESTIMATE_STDOUT), ids=["table", "samples"])
def test_phase_estimate_stdout_digest(options):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(["phase-estimate", *options]) == EXIT_OK
    assert sha256(out.getvalue()) == PHASE_ESTIMATE_STDOUT[options]


SPECTRUM_STDOUT = {
    "4": "6d276895f750a557ab1093ccaa95e329168f6de53ee6c0889bd7a6f407206e89",
    "1000": "1ca70a20b369530c7aa9abd1f4a195b5d3f62d639c8f68876a28680cb2fdf953",
}


@pytest.mark.parametrize("d", list(SPECTRUM_STDOUT))
def test_spectrum_stdout_digest(d):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(["spectrum", "--d", d]) == EXIT_OK
    assert sha256(out.getvalue()) == SPECTRUM_STDOUT[d]


def test_experiment_output_digests(tmp_path):
    spec_path = str(corpus.path("flip"))
    config = ExperimentConfig(
        spec_path=spec_path,
        input_word="0",
        samples_per_batch=150,
        batch_count=3,
        seed=11,
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    # the report echoes the spec path, which depends on the checkout
    report = (tmp_path / "report.json").read_text(encoding="utf-8").replace(spec_path, "SPEC")
    assert sha256(report) == "3163c68c2e8164dce83ea7b1dab8fd01eb9565ffcc1ea085a02921b502c60214"
    assert (
        sha256((tmp_path / "samples.csv").read_bytes())
        == "24bbb27a84696f65a503f880b8def5eea6a7a99af0c8ae2d776f95195d778f76"
    )
