"""The benchmark's four workloads.

Each workload builds a fixed list of operations from the seed in its
constructor (the timed set-up) and checks every operation's output after
each pass, outside the timed region. Operations call only public functions:
``harness.run_experiment``, ``cli.cli_dispatch`` and the ``rtm``,
``circuits`` and ``clock`` entry points. Counts pinned here were measured on
the commit that introduced the benchmark; a change that moves one must say
why.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import machines

# Expected answer per corpus machine, from the machines' own comments.
CORPUS_ANSWERS = {
    "halt": lambda w: int(w[0] == "1"),
    "flip": lambda w: int(w[0] == "0"),
    "rot3": lambda w: int(w[0] == "0"),
    "flipwalk": lambda w: int(w[0] == "0"),
}
CORPUS_INPUTS = {"halt": ("0", "1"), "flip": ("0", "1"), "rot3": ("0", "1"), "flipwalk": ("00", "10")}
# gate-table entries of the merged wrapper circuit
CORPUS_TABLE_ENTRIES = {"halt": 2048, "flip": 7680, "rot3": 65664, "flipwalk": 578560}
FLIP3_GATES, FLIP3_TABLE_ENTRIES = 23, 99200  # unmerged layout
FLIP3_ORBIT = {0: 47058, 1: 94116}  # d by answer


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    agreed: list[bool] = field(default_factory=list)  # one per verdict compared
    output_bytes: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


class _SameEveryPass:
    """Remembers the digest of an output and flags any pass that differs."""

    def __init__(self) -> None:
        self.digest: str | None = None

    def problems(self, what: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return [f"{what} differs from an earlier pass with the same config and seed"]
        return []


def _replay_problems(cx, circuit, dump: dict, word: str) -> list[str]:
    """A dump must hold the circuit's tables and replay like apply_circuit."""
    problems = []
    if len(dump["gates"]) != circuit.s or not all(
        np.array_equal(g.table, d["table"]) for g, d in zip(circuit.gates, dump["gates"])
    ):
        problems.append("dumped gate tables differ from the compiled circuit")
    start = circuit.layout.initial_basis_state(word)
    want = cx.circuits.apply_circuit(circuit, start).values
    got = cx.circuits.replay_dump(dump, start.values)
    if got != want:
        problems.append(f"replay_dump gives {got}, apply_circuit gives {want}")
    return problems


def _table_entries(circuit) -> int:
    return sum(len(g.table) for g in circuit.gates)


class Workload:
    name = ""
    why = ""

    def __init__(self, cx: SimpleNamespace, size: str, seed: int, work: Path) -> None:
        self.cx = cx
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(seed)
        self.ops: list[Op] = []

    def preflight(self) -> list[str]:
        """Untimed checks on the benchmark's own inputs, run once."""
        return []


class _ExperimentOp:
    def __init__(self, cx, config, answer: int) -> None:
        self.cx, self.config, self.answer = cx, config, answer
        self.report_json = _SameEveryPass()

    def run(self):
        return self.cx.harness.run_experiment(self.config)

    def check(self, report) -> Checked:
        c = Checked(agreed=[report.decision.verdict == report.f_ground_truth])
        f = report.f_ground_truth
        if f != self.answer:
            c.problems.append(f"ground truth {f}, expected {self.answer}")
        if not report.agreement or not c.agreed[0]:
            c.problems.append(f"verdict {report.decision.verdict} != ground truth {f}")
        if report.decision.inconclusive:
            c.problems.append("decision inconclusive")
        s, r = report.machine["gate_count"], report.r_nominal
        if report.d_observed != s * r * (1 + f):
            c.problems.append(f"d_observed {report.d_observed} != s*r*(1+f) = {s * r * (1 + f)}")
        out = Path(self.config.out_dir)
        data = (out / "report.json").read_bytes()
        if data != report.to_json().encode("utf-8"):
            c.problems.append("report.json does not hold the returned report")
        c.problems += self.report_json.problems("report.json", data)
        csv = (out / "samples.csv").read_bytes()
        rows = csv.count(b"\n") - 1
        kept = rows - csv.count(b",0,,\n")
        samples = self.config.samples_per_batch * self.config.batch_count
        if rows != samples:
            c.problems.append(f"samples.csv has {rows} rows, expected {samples}")
        if kept != report.decision.filtered_count:
            c.problems.append(f"samples.csv keeps {kept}, report keeps {report.decision.filtered_count}")
        c.output_bytes = len(data) + len(csv)
        return c


def _experiment_op(cx, out: Path, machine: str, word: str, seed: int, **kw) -> Op:
    config = cx.harness.ExperimentConfig(
        spec_path=str(cx.corpus.path(machine)),
        input_word=word,
        seed=seed,
        out_dir=str(out / f"{machine}-{word}"),
        **kw,
    )
    op = _ExperimentOp(cx, config, CORPUS_ANSWERS[machine](word))
    return Op(f"experiment {machine} {word}", op.run, op.check)


class CorpusMerged(Workload):
    name = "corpus-merged"
    why = "cli compile plus experiments on all corpus machines: gate lifting dominates"

    def __init__(self, cx, size, seed, work):
        super().__init__(cx, size, seed, work)
        names = [n for n in cx.corpus.machine_names() if size == "full" or n != "flipwalk"]
        for name in names:
            self.ops.append(self._compile_op(name, self.out / f"{name}.json"))
        for name in names:
            for word in CORPUS_INPUTS[name]:
                seed_i = self.rng.randrange(2**31)
                self.ops.append(_experiment_op(cx, self.out, name, word, seed_i, samples_per_batch=200))

    def _compile_op(self, name: str, path: Path) -> Op:
        argv = ["compile", str(self.cx.corpus.path(name)), "--out", str(path)]
        same = _SameEveryPass()

        def run():
            # keep the circuit the CLI compiles, to hold its dump against it
            circuits = self.cx.circuits
            build, built = circuits.build_wrapper_circuit, []

            def keep(*args, **kwargs):
                built.append(build(*args, **kwargs))
                return built[-1]

            circuits.build_wrapper_circuit = keep
            try:
                return self.cx.cli.cli_dispatch(argv), built
            finally:
                circuits.build_wrapper_circuit = build

        def check(result) -> Checked:
            code, built = result
            c = Checked()
            if code != 0 or len(built) != 1:
                c.problems.append(f"clockobs compile exited {code} after {len(built)} compiles")
                return c
            data = path.read_bytes()
            c.output_bytes = len(data)
            c.problems += same.problems(f"{name} dump", data)
            circuit = built[0]
            dump = json.loads(data)
            c.problems += _replay_problems(self.cx, circuit, dump, CORPUS_INPUTS[name][0])
            if _table_entries(circuit) != CORPUS_TABLE_ENTRIES[name]:
                c.problems.append(
                    f"{_table_entries(circuit)} table entries, expected {CORPUS_TABLE_ENTRIES[name]}"
                )
            return c

        return Op(f"compile {name}", run, check)


class Sampling(Workload):
    name = "sampling"
    why = "100k samples per experiment on small machines: metrology and CSV writing dominate"

    def __init__(self, cx, size, seed, work):
        super().__init__(cx, size, seed, work)
        batches = 50 if size == "full" else 2
        for name, word in (("flip", "0"), ("flip", "1"), ("halt", "0"), ("halt", "1")):
            seed_i = self.rng.randrange(2**31)
            self.ops.append(
                _experiment_op(
                    cx, self.out, name, word, seed_i, samples_per_batch=2000, batch_count=batches
                )
            )


class OrbitScaled(Workload):
    name = "orbit-scaled"
    why = "flip3 unmerged, all 3-bit inputs: the clock-orbit walk dominates"

    def __init__(self, cx, size, seed, work):
        super().__init__(cx, size, seed, work)
        self.spec_path = self.out / "flip3.rtm"
        self.spec_path.write_text(machines.FLIP3, encoding="utf-8")
        words = [format(x, "03b") for x in range(8)] if size == "full" else ["000", "100"]
        self.rng.shuffle(words)
        self.compiled = None
        self.ops.append(Op("compile flip3", self._compile, self._check_compile))
        for word in words:
            self.ops.append(
                Op(f"decide flip3 {word}", lambda w=word: self._decide(w),
                   lambda res, w=word: self._check_decide(w, res))
            )

    def preflight(self):
        spec = self.cx.rtm.parse_rtm_spec(machines.FLIP3, "flip3")
        if not self.cx.rtm.check_reversibility(spec).is_reversible:
            return ["flip3 is not reversible"]
        return []

    def _compile(self):
        cx = self.cx
        self.compiled = None  # a failed compile must not leave the last pass's circuit
        spec = cx.rtm.parse_rtm_file(self.spec_path)
        circuit = cx.circuits.build_wrapper_circuit(spec, merge_cells=False)
        self.compiled = (spec, circuit, cx.clock.ForwardOperator(circuit))
        return circuit

    def _check_compile(self, circuit) -> Checked:
        c = Checked()
        if circuit.s != FLIP3_GATES or _table_entries(circuit) != FLIP3_TABLE_ENTRIES:
            c.problems.append(
                f"flip3: {circuit.s} gates and {_table_entries(circuit)} entries, "
                f"expected {FLIP3_GATES} and {FLIP3_TABLE_ENTRIES}"
            )
        c.problems += _replay_problems(self.cx, circuit, self.cx.circuits.dump_circuit(circuit), "000")
        return c

    def _decide(self, word: str):
        cx = self.cx
        spec, circuit, forward = self.compiled
        start = cx.clock.ClockedState(circuit.layout.initial_basis_state(word), 1)
        d = cx.clock.compute_orbit(forward, start).dimension
        truth = cx.rtm.run_machine(spec, word, max_steps=1000)
        return d, truth

    def _check_decide(self, word: str, result) -> Checked:
        d, truth = result
        _, circuit, _ = self.compiled
        sr = circuit.s * self.cx.circuits.nominal_cycle_length(circuit.layout.m)
        answer = machines.flip3_answer(word)
        c = Checked(agreed=[int(d == 2 * sr) == truth.f_of_x])
        if not truth.halted or truth.f_of_x != answer:
            c.problems.append(f"run_machine on {word}: halted={truth.halted} f={truth.f_of_x}")
        if d != sr * (1 + truth.f_of_x):
            c.problems.append(f"d_observed {d} != s*r*(1+f) = {sr * (1 + truth.f_of_x)}")
        if d != FLIP3_ORBIT[answer]:
            c.problems.append(f"orbit of {word} has d={d}, expected {FLIP3_ORBIT[answer]}")
        return c


class ValidateWide(Workload):
    name = "validate-wide"
    why = "exhaustive reversibility sweep of a generated 11-cell walker and its broken twin"

    def __init__(self, cx, size, seed, work):
        super().__init__(cx, size, seed, work)
        self.cells = 11 if size == "full" else 6
        self.pair = machines.walker_pair(self.cells, seed)
        words = [format(x, f"0{self.cells}b") for x in range(2**self.cells)]
        self.specs: dict[str, Any] = {}
        for label, walker, reversible in zip(("walker", "twin"), self.pair, (True, False)):
            path = self.out / f"{label}.rtm"
            path.write_text(walker.text, encoding="utf-8")
            self.ops += [
                Op(f"parse {label}", lambda p=path, k=label: self._parse(k, p), self._check_parse),
                Op(f"sweep {label}", lambda k=label: cx.rtm.check_reversibility(self.specs[k]),
                   lambda rep, k=label, r=reversible: self._check_sweep(k, r, rep)),
                Op(f"run {label}", lambda k=label: self._run(k, words),
                   lambda res, m=walker: self._check_runs(m, words, res)),
            ]

    def preflight(self):
        problems = []
        for label, walker, reversible in zip(("walker", "twin"), self.pair, (True, False)):
            spec = self.cx.rtm.parse_rtm_spec(walker.text, label)
            if self.cx.rtm.check_reversibility(spec).is_reversible != reversible:
                problems.append(f"generated {label} should {'' if reversible else 'not '}be reversible")
        return problems

    def _parse(self, label: str, path: Path):
        self.specs.pop(label, None)  # a failed parse must not leave the last pass's spec
        self.specs[label] = self.cx.rtm.parse_rtm_file(path)
        return self.specs[label]

    def _check_parse(self, spec) -> Checked:
        c = Checked()
        if spec.tape_cells != self.cells or len(spec.states) != 3 * self.cells - 1:
            c.problems.append(f"parsed {spec.tape_cells} cells, {len(spec.states)} states")
        return c

    def _check_sweep(self, label: str, reversible: bool, report) -> Checked:
        c = Checked(agreed=[report.is_reversible == reversible])
        want = machines.walker_configs(self.cells)
        space = self.cx.rtm.config_space_size(self.specs[label])
        if not report.configs_checked == space == want:
            c.problems.append(
                f"sweep checked {report.configs_checked} configs of {space}, expected {want}"
            )
        if not c.agreed[0]:
            c.problems.append(f"reversible={report.is_reversible}, expected {reversible}")
        if not reversible and not any(v.kind == "collision" for v in report.violations):
            c.problems.append("broken twin reported no collision")
        return c

    def _run(self, label: str, words: list[str]):
        spec = self.specs[label]
        run_machine = self.cx.rtm.run_machine
        return [run_machine(spec, w, max_steps=1000) for w in words]

    def _check_runs(self, walker: machines.Walker, words: list[str], results) -> Checked:
        c = Checked()
        steps = 3 * self.cells - 2
        for word, res in zip(words, results):
            tape = "".join(res.final_config.tape)
            ok = res.halted and res.steps_used == steps and tape == walker.final_tape(word)
            c.agreed.append(res.f_of_x == walker.answer(word))
            if not (ok and c.agreed[-1]):
                c.problems.append(f"run on {word}: steps {res.steps_used}, tape {tape}, f {res.f_of_x}")
        return c


WORKLOADS = {w.name: w for w in (CorpusMerged, Sampling, OrbitScaled, ValidateWide)}
