"""Reversible Turing machines in moving / read-write normal form.

Machines run on a ring of N tape cells indexed 1..N with index arithmetic
taken modulo N. Every state is exactly one of: a read-write state (rewrites
the scanned cell, head stays put), a right- or left-moving state (head moves,
tape untouched), or a final state. A machine accepts by writing the symbol
``1`` into its result cell before entering a final state.

The module parses the line-oriented spec format, simulates machines, and
checks reversibility (totality plus injectivity of the configuration step
map) from the transition rules, which for this normal form decide it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

from .errors import MachineStepError, SpecParseError

ACCEPT_SYMBOL = "1"


class StateKind(Enum):
    READ_WRITE = "rw"
    MOVE_RIGHT = "right"
    MOVE_LEFT = "left"
    FINAL = "final"


@dataclass(frozen=True)
class MovingRule:
    """Transition ``p -> (q, dir)``: change state, step the head by dir."""

    source: str
    target: str
    direction: int  # +1 or -1


@dataclass(frozen=True)
class ReadWriteRule:
    """Transition ``(p, a) -> (q, b)``: overwrite a with b, change state."""

    source: str
    read: str
    target: str
    write: str


Transition = Union[MovingRule, ReadWriteRule]


@dataclass
class RtmSpec:
    """A parsed machine. Treat as immutable after construction."""

    name: str
    states: dict[str, StateKind]
    alphabet: tuple[str, ...]  # first entry is the blank symbol
    transitions: tuple[Transition, ...]
    initial_state: str
    tape_cells: int
    result_cell: int = 1

    # indexes built in __post_init__
    moving_rules: dict[str, MovingRule] = field(init=False, repr=False)
    rw_rules: dict[tuple[str, str], ReadWriteRule] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.tape_cells < 1:
            raise SpecParseError("tape_cells must be >= 1")
        if not 1 <= self.result_cell <= self.tape_cells:
            raise SpecParseError(
                f"result_cell {self.result_cell} outside 1..{self.tape_cells}"
            )
        if not self.alphabet:
            raise SpecParseError("alphabet must declare at least the blank symbol")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise SpecParseError("alphabet symbols must be distinct")
        if self.initial_state not in self.states:
            raise SpecParseError(f"unknown initial state {self.initial_state!r}")

        moving: dict[str, MovingRule] = {}
        rw: dict[tuple[str, str], ReadWriteRule] = {}
        for t in self.transitions:
            self._check_transition(t)
            if isinstance(t, MovingRule):
                if t.source in moving:
                    raise SpecParseError(f"duplicate moving transition from {t.source!r}")
                moving[t.source] = t
            else:
                key = (t.source, t.read)
                if key in rw:
                    raise SpecParseError(
                        f"duplicate read-write transition from ({t.source!r},{t.read!r})"
                    )
                rw[key] = t
        self.moving_rules = moving
        self.rw_rules = rw

    def _check_transition(self, t: Transition) -> None:
        for s in (t.source, t.target):
            if s not in self.states:
                raise SpecParseError(f"unknown state {s!r} in transition")
        if isinstance(t, MovingRule):
            kind = self.states[t.source]
            if t.direction == +1 and kind is not StateKind.MOVE_RIGHT:
                raise SpecParseError(
                    f"state {t.source!r} is {kind.value}, cannot take a +1 move"
                )
            if t.direction == -1 and kind is not StateKind.MOVE_LEFT:
                raise SpecParseError(
                    f"state {t.source!r} is {kind.value}, cannot take a -1 move"
                )
            if t.direction not in (+1, -1):
                raise SpecParseError(f"bad direction {t.direction} in transition")
        else:
            if self.states[t.source] is not StateKind.READ_WRITE:
                raise SpecParseError(
                    f"state {t.source!r} is {self.states[t.source].value}, "
                    "cannot take a read-write transition"
                )
            if not {t.read, t.write} <= set(self.alphabet):
                raise SpecParseError(
                    f"unknown symbol in transition ({t.source!r},{t.read!r})"
                    f" -> ({t.target!r},{t.write!r})"
                )

    @property
    def blank(self) -> str:
        return self.alphabet[0]

    @property
    def final_states(self) -> frozenset[str]:
        return frozenset(s for s, k in self.states.items() if k is StateKind.FINAL)

    def kind(self, state: str) -> StateKind:
        return self.states[state]


@dataclass(frozen=True)
class MachineConfig:
    """A full machine configuration; tape indices are 1-based."""

    head_state: str
    tape_index: int
    tape: tuple[str, ...]
    steps: int = 0


@dataclass(frozen=True)
class RunResult:
    halted: bool
    final_config: MachineConfig
    f_of_x: int
    steps_used: int


@dataclass(frozen=True)
class Violation:
    kind: str  # "non_total" | "collision"
    message: str


@dataclass(frozen=True)
class ReversibilityReport:
    violations: tuple[Violation, ...]
    boundary_wraps: tuple[tuple[str, int], ...]  # (moving state, boundary index)
    configs_checked: int

    @property
    def is_reversible(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# parsing

_STATE_TOKEN = re.compile(r"^([A-Za-z_][\w\-]*):(rw|right|left|final)$")
_MOVE_RE = re.compile(r"^move\s+(\S+)\s*->\s*(\S+)\s+([+-]1)$")
_RW_RE = re.compile(r"^rw\s+\(\s*(\S+?)\s*,\s*(\S+?)\s*\)\s*->\s*\(\s*(\S+?)\s*,\s*(\S+?)\s*\)$")


def parse_rtm_spec(text: str, name: str = "<string>") -> RtmSpec:
    """Parse the line-oriented machine format into an ``RtmSpec``.

    Raises ``SpecParseError`` with line information on any syntax error,
    unknown reference, duplicate declaration, or kind mismatch.
    """
    states: dict[str, StateKind] = {}
    alphabet: list[str] = []
    transitions: list[Transition] = []
    initial: str | None = None
    tape_cells: int | None = None
    result_cell = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecParseError(f"expected 'key: value', got {line!r}", lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()

        if key == "states":
            for tok in rest.split():
                m = _STATE_TOKEN.match(tok)
                if not m:
                    raise SpecParseError(
                        f"bad state declaration {tok!r} (want id:rw|right|left|final)",
                        lineno,
                        raw.find(tok) + 1,
                    )
                sid, kind = m.group(1), StateKind(m.group(2))
                if sid in states:
                    raise SpecParseError(f"duplicate state {sid!r}", lineno)
                states[sid] = kind
        elif key == "alphabet":
            for tok in rest.split():
                if len(tok) != 1:
                    # an input word is read one character per cell
                    raise SpecParseError(
                        f"alphabet symbol {tok!r} must be a single character", lineno
                    )
                if tok in alphabet:
                    raise SpecParseError(f"duplicate symbol {tok!r}", lineno)
                alphabet.append(tok)
        elif key == "initial":
            if initial is not None:
                raise SpecParseError("initial state declared twice", lineno)
            initial = rest
        elif key == "tape_cells":
            try:
                tape_cells = int(rest)
            except ValueError:
                raise SpecParseError(f"tape_cells wants an integer, got {rest!r}", lineno)
        elif key == "result_cell":
            try:
                result_cell = int(rest)
            except ValueError:
                raise SpecParseError(f"result_cell wants an integer, got {rest!r}", lineno)
        elif key == "transition":
            transitions.append(_parse_transition(rest, lineno))
        else:
            raise SpecParseError(f"unknown section {key!r}", lineno)

    if not states:
        raise SpecParseError("no states declared")
    if initial is None:
        raise SpecParseError("missing 'initial:' line")
    if tape_cells is None:
        raise SpecParseError("missing 'tape_cells:' line")

    try:
        return RtmSpec(
            name=name,
            states=states,
            alphabet=tuple(alphabet),
            transitions=tuple(transitions),
            initial_state=initial,
            tape_cells=tape_cells,
            result_cell=result_cell,
        )
    except SpecParseError:
        raise
    except Exception as exc:  # defensive: surface constructor issues as parse errors
        raise SpecParseError(str(exc)) from exc


def _parse_transition(rest: str, lineno: int) -> Transition:
    m = _MOVE_RE.match(rest)
    if m:
        return MovingRule(m.group(1), m.group(2), int(m.group(3)))
    m = _RW_RE.match(rest)
    if m:
        return ReadWriteRule(m.group(1), m.group(2), m.group(3), m.group(4))
    raise SpecParseError(f"bad transition syntax {rest!r}", lineno)


def parse_rtm_file(path) -> RtmSpec:
    """Read and parse a machine spec file."""
    from pathlib import Path

    p = Path(path)
    return parse_rtm_spec(p.read_text(encoding="utf-8"), name=p.stem)


# ---------------------------------------------------------------------------
# simulation

def initial_config(spec: RtmSpec, input_word: Sequence[str] | str) -> MachineConfig:
    """Initial configuration: input in cells 1..len, blanks after, head at 1."""
    word = list(input_word)
    if len(word) > spec.tape_cells:
        raise MachineStepError(
            f"input of length {len(word)} exceeds {spec.tape_cells} tape cells"
        )
    for sym in word:
        if sym not in spec.alphabet:
            raise MachineStepError(f"input symbol {sym!r} not in alphabet")
    tape = tuple(word) + (spec.blank,) * (spec.tape_cells - len(word))
    return MachineConfig(head_state=spec.initial_state, tape_index=1, tape=tape)


def step_machine(spec: RtmSpec, config: MachineConfig) -> MachineConfig:
    """Apply one transition. Moving states shift the head modulo N and leave
    the tape alone; read-write states rewrite the scanned cell in place."""
    kind = spec.kind(config.head_state)
    if kind is StateKind.FINAL:
        raise MachineStepError(f"final state {config.head_state!r} cannot step")
    if kind in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT):
        rule = spec.moving_rules.get(config.head_state)
        if rule is None:
            raise MachineStepError(f"no moving rule for state {config.head_state!r}")
        n = spec.tape_cells
        new_index = (config.tape_index - 1 + rule.direction) % n + 1
        return MachineConfig(rule.target, new_index, config.tape, config.steps + 1)
    scanned = config.tape[config.tape_index - 1]
    rule = spec.rw_rules.get((config.head_state, scanned))
    if rule is None:
        raise MachineStepError(
            f"no rule for ({config.head_state!r},{scanned!r}); machine is not total"
        )
    tape = list(config.tape)
    tape[config.tape_index - 1] = rule.write
    return MachineConfig(rule.target, config.tape_index, tuple(tape), config.steps + 1)


def run_machine(
    spec: RtmSpec, input_word: Sequence[str] | str, max_steps: int
) -> RunResult:
    """Iterate ``step_machine`` until a final state or the step budget runs out.

    Budget exhaustion is reported via ``halted=False``, not raised.
    """
    config = initial_config(spec, input_word)
    while config.steps < max_steps:
        if spec.kind(config.head_state) is StateKind.FINAL:
            break
        config = step_machine(spec, config)
    halted = spec.kind(config.head_state) is StateKind.FINAL
    f_of_x = int(config.tape[spec.result_cell - 1] == ACCEPT_SYMBOL)
    return RunResult(halted=halted, final_config=config, f_of_x=f_of_x, steps_used=config.steps)


# ---------------------------------------------------------------------------
# reversibility

def config_space_size(spec: RtmSpec) -> int:
    return len(spec.states) * spec.tape_cells * len(spec.alphabet) ** spec.tape_cells


def _preimage(spec: RtmSpec, rule: Transition, image: MachineConfig) -> MachineConfig:
    """The configuration that ``rule`` steps to ``image`` (whose state is the
    rule's target; for a read-write rule the scanned cell must hold its write)."""
    if isinstance(rule, MovingRule):
        index = (image.tape_index - 1 - rule.direction) % spec.tape_cells + 1
        return MachineConfig(rule.source, index, image.tape)
    tape = list(image.tape)
    tape[image.tape_index - 1] = rule.read
    return MachineConfig(rule.source, image.tape_index, tuple(tape))


def _collision_witness(spec: RtmSpec, first: Transition, second: Transition) -> Violation:
    """The collision of two distinct rules into one state (writing one
    symbol, if both are read-write rules): the configuration of that state
    with the head on cell 1, which holds the written symbol, and its
    preimage under each rule."""
    written = [r.write for r in (first, second) if isinstance(r, ReadWriteRule)]
    tape = ((written or [spec.blank])[0],) + (spec.blank,) * (spec.tape_cells - 1)
    image = MachineConfig(first.target, 1, tape)
    a, b = (_preimage(spec, r, image) for r in (first, second))
    show = lambda c: f"({c.head_state},{c.tape_index},{''.join(c.tape)})"
    return Violation("collision", f"configs {show(a)} and {show(b)} both step to {show(image)}")


def check_reversibility(spec: RtmSpec) -> ReversibilityReport:
    """Check, from the transition rules, that the step map is total on
    non-final configurations and injective on the whole configuration space.

    In this normal form two configurations step to the same one only through
    two rules into the same state: two moving rules, a moving and a
    read-write rule, or two read-write rules writing the same symbol. So
    totality plus these rule-level checks decide bijectivity (the local
    criterion for reversible Turing machines: Bennett 1973, "Logical
    reversibility of computation"; Morita, *Theory of Reversible Computing*,
    2017), and ``configs_checked`` is the size of the space the verdict
    covers. Violations are report content rather than exceptions; after the
    rule-level ones comes one colliding pair of configurations per
    rule-level collision.
    """
    violations: list[Violation] = []

    # rule-level totality
    for state, kind in spec.states.items():
        if kind in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT):
            if state not in spec.moving_rules:
                violations.append(
                    Violation("non_total", f"moving state {state!r} has no rule")
                )
        elif kind is StateKind.READ_WRITE:
            for sym in spec.alphabet:
                if (state, sym) not in spec.rw_rules:
                    violations.append(
                        Violation(
                            "non_total",
                            f"step map undefined on ({state!r},{sym!r}) configurations",
                        )
                    )

    # rule-level backward determinism: group transitions by target state
    incoming: dict[str, list[Transition]] = {}
    for t in spec.transitions:
        incoming.setdefault(t.target, []).append(t)
    colliding: list[tuple[Transition, Transition]] = []
    for target, rules in sorted(incoming.items()):
        movers = [t for t in rules if isinstance(t, MovingRule)]
        writers = [t for t in rules if isinstance(t, ReadWriteRule)]
        if movers and writers:
            violations.append(
                Violation(
                    "collision",
                    f"state {target!r} is entered by both moving and read-write rules",
                )
            )
            colliding.append((movers[0], writers[0]))
        if len(movers) > 1:
            violations.append(
                Violation(
                    "collision",
                    f"state {target!r} is entered by {len(movers)} moving rules",
                )
            )
            colliding.append((movers[0], movers[1]))
        seen_writes: dict[str, ReadWriteRule] = {}
        for t in writers:
            if t.write in seen_writes:
                other = seen_writes[t.write]
                violations.append(
                    Violation(
                        "collision",
                        f"image ({target!r},{t.write!r}) reached by both "
                        f"({other.source!r},{other.read!r}) and ({t.source!r},{t.read!r})",
                    )
                )
                colliding.append((other, t))
            else:
                seen_writes[t.write] = t
    violations += [_collision_witness(spec, a, b) for a, b in colliding]

    # boundary wraps: moving rules that would wrap the index if taken there
    wraps = []
    for state, rule in sorted(spec.moving_rules.items()):
        boundary = spec.tape_cells if rule.direction == +1 else 1
        wraps.append((state, boundary))

    return ReversibilityReport(
        violations=tuple(violations),
        boundary_wraps=tuple(wraps),
        configs_checked=config_space_size(spec),
    )
