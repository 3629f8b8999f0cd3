import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from oracle import all_configs, random_machine, sweep

from clockobs import corpus
from clockobs.errors import BudgetExceededError, MachineStepError, SpecParseError
from clockobs.rtm import (
    MAX_CONFIG_BITS,
    MachineConfig,
    MovingRule,
    ReadWriteRule,
    StateKind,
    check_reversibility,
    config_space_size,
    initial_config,
    parse_rtm_spec,
    run_machine,
    step_machine,
)

MINIMAL = """
states: h:final
alphabet: 0 1
initial: h
tape_cells: 1
"""


def test_parse_minimal_final_only():
    spec = parse_rtm_spec(MINIMAL)
    assert len(spec.states) == 1
    assert spec.states["h"] is StateKind.FINAL
    assert spec.transitions == ()
    assert spec.blank == "0"
    assert spec.result_cell == 1


def test_parse_kind_mismatch_move_from_rw():
    text = """
states: p0:rw q1:right
alphabet: 0 1
initial: p0
tape_cells: 1
transition: move p0 -> q1 +1
"""
    with pytest.raises(SpecParseError, match="cannot take a \\+1 move"):
        parse_rtm_spec(text)


def test_parse_kind_mismatch_wrong_direction():
    text = """
states: p:right q:rw
alphabet: 0 1
initial: q
tape_cells: 1
transition: move p -> q -1
"""
    with pytest.raises(SpecParseError, match="cannot take a -1 move"):
        parse_rtm_spec(text)


def test_parse_flip_corpus_machine():
    spec = corpus.load("flip")
    rw = [t for t in spec.transitions if isinstance(t, ReadWriteRule)]
    finals = [s for s, k in spec.states.items() if k is StateKind.FINAL]
    assert len(rw) == 2
    assert len(finals) == 1
    assert not [t for t in spec.transitions if isinstance(t, MovingRule)]


@pytest.mark.parametrize(
    "text,match",
    [
        ("states: h:final\nwhat: 1", "unknown section"),
        ("states: h:final h:rw\nalphabet: 0\ninitial: h\ntape_cells: 1", "duplicate state"),
        ("states: h:wat\nalphabet: 0\ninitial: h\ntape_cells: 1", "bad state declaration"),
        ("states: h:final\nalphabet: 0 0\ninitial: h\ntape_cells: 1", "duplicate symbol"),
        ("states: h:final\nalphabet: 0 ab\ninitial: h\ntape_cells: 1", "single character"),
        ("states: h:final\nalphabet: 0\ninitial: x\ntape_cells: 1", "unknown initial state"),
        ("states: h:final\nalphabet: 0\ninitial: h\ntape_cells: lots", "wants an integer"),
        ("states: h:final\nalphabet: 0\ninitial: h", "missing 'tape_cells:'"),
        ("alphabet: 0\ninitial: h\ntape_cells: 1", "no states declared"),
        (
            "states: p:rw h:final\nalphabet: 0\ninitial: p\ntape_cells: 1\n"
            "transition: rw (p,9) -> (h,0)",
            "unknown symbol",
        ),
        (
            "states: p:rw h:final\nalphabet: 0\ninitial: p\ntape_cells: 1\n"
            "transition: rw (p,0) -> (h,0)\ntransition: rw (p,0) -> (h,0)",
            "duplicate read-write transition",
        ),
        (
            "states: p:right h:final\nalphabet: 0\ninitial: p\ntape_cells: 2\n"
            "transition: move p -> h +1\ntransition: move p -> h +1",
            "duplicate moving transition",
        ),
        ("states: h:final\nalphabet: 0\ninitial: h\ntape_cells: 1\ntransition: jump h", "bad transition syntax"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(SpecParseError, match=match):
        parse_rtm_spec(text)


def test_parse_error_carries_line_number():
    text = "states: h:final\nalphabet: 0\ninitial: h\ntape_cells: 1\ntransition: nope"
    with pytest.raises(SpecParseError, match="line 5"):
        parse_rtm_spec(text)


@pytest.mark.parametrize(
    "line, token, column",
    [
        ("states: a:rw s:", "s:", 14),  # 's:' also occurs inside 'states:'
        ("states: ab:rw b:", "b:", 15),  # 'b:' also occurs inside 'ab:rw'
        ("  states:  h:final   x # y", "x", 22),
    ],
)
def test_parse_error_points_at_the_bad_state_token(line, token, column):
    with pytest.raises(SpecParseError) as err:
        parse_rtm_spec(f"{line}\nalphabet: 0\ninitial: h\ntape_cells: 1")
    assert str(err.value) == (
        f"bad state declaration {token!r} (want id:rw|right|left|final) (line 1, column {column})"
    )


def test_result_cell_out_of_range():
    text = "states: h:final\nalphabet: 0\ninitial: h\ntape_cells: 1\nresult_cell: 4"
    with pytest.raises(SpecParseError, match="result_cell"):
        parse_rtm_spec(text)


# ---------------------------------------------------------------------------
# reversibility checking


def test_non_total_rw_state_reported():
    text = """
states: p:rw
alphabet: 0 1
initial: p
tape_cells: 1
transition: rw (p,0) -> (p,0)
"""
    report = check_reversibility(parse_rtm_spec(text))
    assert not report.is_reversible
    kinds = {v.kind for v in report.violations}
    assert "non_total" in kinds
    assert any("('p','1')" in v.message for v in report.violations)


def test_backward_collision_reported_with_image():
    text = """
states: p:rw q:rw z:final
alphabet: 0 1
initial: p
tape_cells: 1
transition: rw (p,0) -> (z,1)
transition: rw (q,0) -> (z,1)
transition: rw (p,1) -> (p,1)
transition: rw (q,1) -> (q,0)
"""
    report = check_reversibility(parse_rtm_spec(text))
    assert not report.is_reversible
    assert any(
        v.kind == "collision" and "('z','1')" in v.message for v in report.violations
    )


def test_moving_and_rw_into_same_state_collides():
    text = """
states: p:right a:rw z:rw
alphabet: 0 1
initial: p
tape_cells: 2
transition: move p -> z +1
transition: rw (a,0) -> (z,1)
transition: rw (a,1) -> (z,0)
transition: rw (z,0) -> (a,0)
transition: rw (z,1) -> (a,1)
"""
    report = check_reversibility(parse_rtm_spec(text))
    assert any(
        "both moving and read-write" in v.message for v in report.violations
    )
    # with a concrete pair of colliding configurations
    assert any("both step to" in v.message for v in report.violations)


_CONFIG = r"\(([^,()]+),(\d+),([^,()]*)\)"
_WITNESS = re.compile(rf"configs {_CONFIG} and {_CONFIG} both step to {_CONFIG}")
_RULE_COLLISIONS = {
    "both moving and read-write": "mover and writer",
    "moving rules": "two movers",
    "reached by both": "two writers",
}


def _check_against_sweep(spec) -> tuple[bool, list[str]]:
    """Assert that check_reversibility agrees with the exhaustive sweep and
    that every witness it names steps as claimed; return its verdict and the
    kinds of rule-level collision it reported."""
    report = check_reversibility(spec)
    undefined, collisions = sweep(spec)
    assert report.is_reversible == (undefined == collisions == 0), spec
    kinds = [v.kind for v in report.violations]
    assert ("non_total" in kinds) == (undefined > 0), spec
    assert ("collision" in kinds) == (collisions > 0), spec
    assert report.configs_checked == config_space_size(spec)

    rule_level = [
        label
        for v in report.violations
        for phrase, label in _RULE_COLLISIONS.items()
        if phrase in v.message
    ]
    witnesses = [m for v in report.violations if (m := _WITNESS.fullmatch(v.message))]
    assert len(witnesses) == len(rule_level) == kinds.count("collision") - len(witnesses)
    for m in witnesses:
        a, b, image = (MachineConfig(m[i], int(m[i + 1]), tuple(m[i + 2])) for i in (1, 4, 7))
        assert a != b
        for config in (a, b):
            assert step_machine(spec, config) == replace(image, steps=1), m[0]
    return report.is_reversible, rule_level


@pytest.mark.parametrize("name", corpus.machine_names())
def test_corpus_machines_are_reversible(name):
    spec = corpus.load(name)
    report = check_reversibility(spec)
    assert report.is_reversible, report.violations
    _check_against_sweep(spec)


def test_rule_check_agrees_with_sweep_on_generated_machines():
    rng = random.Random(6021)
    verdicts: Counter = Counter()
    collisions: Counter = Counter()
    for _ in range(2400):
        spec = random_machine(rng)
        reversible, kinds = _check_against_sweep(spec)
        verdicts[reversible] += 1
        collisions.update(kinds)
    assert min(verdicts[True], verdicts[False]) >= 500, verdicts
    assert min(collisions[k] for k in _RULE_COLLISIONS.values()) >= 50, collisions


def test_boundary_wraps_listed_for_movers():
    spec = corpus.load("flipwalk")
    report = check_reversibility(spec)
    assert ("w1", 2) in report.boundary_wraps  # right mover wraps at cell N
    assert ("b1", 1) in report.boundary_wraps  # left mover wraps at cell 1


# ---------------------------------------------------------------------------
# stepping


WALK_RIGHT = """
states: p:right q:right h:final
alphabet: 0 1
initial: p
tape_cells: 3
transition: move p -> q +1
transition: move q -> h +1
"""


def test_move_right_wraps_at_last_cell():
    spec = parse_rtm_spec(WALK_RIGHT)
    config = MachineConfig(head_state="p", tape_index=3, tape=("0", "0", "0"))
    nxt = step_machine(spec, config)
    assert nxt.tape_index == 1
    assert nxt.head_state == "q"
    assert nxt.tape == config.tape
    assert nxt.steps == 1


def test_identity_rewrite_only_bumps_steps():
    text = """
states: p:rw
alphabet: a
initial: p
tape_cells: 1
transition: rw (p,a) -> (p,a)
"""
    spec = parse_rtm_spec(text)
    config = initial_config(spec, "")
    nxt = step_machine(spec, config)
    assert nxt == MachineConfig("p", 1, ("a",), steps=1)


def test_flip_single_step():
    spec = corpus.load("flip")
    config = initial_config(spec, "0")
    nxt = step_machine(spec, config)
    assert (nxt.head_state, nxt.tape_index, nxt.tape) == ("h", 1, ("1",))


def test_step_from_final_raises():
    spec = parse_rtm_spec(MINIMAL)
    with pytest.raises(MachineStepError, match="final state"):
        step_machine(spec, initial_config(spec, ""))


def test_step_non_total_raises():
    text = """
states: p:rw
alphabet: 0 1
initial: p
tape_cells: 1
transition: rw (p,0) -> (p,0)
"""
    spec = parse_rtm_spec(text)
    with pytest.raises(MachineStepError, match="not total"):
        step_machine(spec, initial_config(spec, "1"))


def test_moving_states_leave_tape_rw_states_leave_index():
    spec = corpus.load("flipwalk")
    for config in all_configs(spec):
        kind = spec.kind(config.head_state)
        if kind is StateKind.FINAL:
            continue
        nxt = step_machine(spec, config)
        if kind in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT):
            assert nxt.tape == config.tape
        else:
            assert nxt.tape_index == config.tape_index


# ---------------------------------------------------------------------------
# running


def test_run_immediate_halt():
    spec = parse_rtm_spec(MINIMAL)
    result = run_machine(spec, "1", max_steps=10)
    assert result.halted
    assert result.steps_used == 0
    assert result.f_of_x == 1
    assert run_machine(spec, "0", max_steps=10).f_of_x == 0


def test_run_flip():
    spec = corpus.load("flip")
    result = run_machine(spec, "0", max_steps=10)
    assert result.halted and result.f_of_x == 1 and result.steps_used == 1
    result = run_machine(spec, "1", max_steps=10)
    assert result.halted and result.f_of_x == 0


def test_run_zero_budget_reports_not_halted():
    spec = corpus.load("flip")
    result = run_machine(spec, "0", max_steps=0)
    assert not result.halted
    assert result.steps_used == 0


def test_run_is_deterministic():
    spec = corpus.load("flipwalk")
    a = run_machine(spec, "10", max_steps=100)
    b = run_machine(spec, "10", max_steps=100)
    assert a == b


def test_run_flipwalk():
    spec = corpus.load("flipwalk")
    result = run_machine(spec, "00", max_steps=100)
    assert result.halted
    assert result.final_config.tape == ("1", "1")
    assert result.final_config.tape_index == 1
    assert result.f_of_x == 1
    assert run_machine(spec, "10", max_steps=100).f_of_x == 0


def test_input_too_long_rejected():
    spec = corpus.load("flip")
    with pytest.raises(MachineStepError, match="exceeds"):
        run_machine(spec, "00", max_steps=10)


def test_input_bad_symbol_rejected():
    spec = corpus.load("flip")
    with pytest.raises(MachineStepError, match="not in alphabet"):
        run_machine(spec, "x", max_steps=10)


# ---------------------------------------------------------------------------
# bijection property: reversal of the step map is a left inverse


@pytest.mark.parametrize("name", corpus.machine_names())
def test_step_map_is_a_bijection_with_reversal_inverse(name):
    spec = corpus.load(name)
    assert config_space_size(spec) <= 10**6

    forward = {}
    for config in all_configs(spec):
        if spec.kind(config.head_state) is StateKind.FINAL:
            continue
        nxt = step_machine(spec, config)
        key = (nxt.head_state, nxt.tape_index, nxt.tape)
        assert key not in forward
        forward[key] = (config.head_state, config.tape_index, config.tape)

    # reversal of each transition, applied to the image, recovers the source
    for config in all_configs(spec):
        kind = spec.kind(config.head_state)
        if kind is StateKind.FINAL:
            continue
        nxt = step_machine(spec, config)
        if kind in (StateKind.MOVE_RIGHT, StateKind.MOVE_LEFT):
            rule = spec.moving_rules[config.head_state]
            n = spec.tape_cells
            back = (
                rule.source,
                (nxt.tape_index - 1 - rule.direction) % n + 1,
                nxt.tape,
            )
        else:
            scanned = config.tape[config.tape_index - 1]
            rule = spec.rw_rules[(config.head_state, scanned)]
            tape = list(nxt.tape)
            tape[nxt.tape_index - 1] = rule.read
            back = (rule.source, nxt.tape_index, tuple(tape))
        assert back == (config.head_state, config.tape_index, config.tape)


@pytest.mark.parametrize("cells,over", [(247, False), (248, True)])
def test_config_cap_is_on_log2_of_the_configuration_space(cells, over):
    # 2 states, binary: log2(2 * N * 2**N) = 1 + log2(N) + N, about 255.95 at
    # 247 cells and 256.95 at 248. A one-symbol cell counts as one bit too,
    # so the cap bounds the tape length whatever the alphabet
    header = f"states: p:rw h:final\ninitial: p\ntape_cells: {cells}\n"
    binary = parse_rtm_spec(
        header + "alphabet: 0 1\ntransition: rw (p,0) -> (h,1)\ntransition: rw (p,1) -> (h,0)\n"
    )
    unary = parse_rtm_spec(header + "alphabet: 0\ntransition: rw (p,0) -> (h,0)\n")
    assert (config_space_size(binary).bit_length() - 1 >= MAX_CONFIG_BITS) == over
    for spec in (binary, unary):
        if over:
            with pytest.raises(BudgetExceededError, match=r"^machine needs 257\.0 configuration bits"):
                check_reversibility(spec)
        else:
            assert check_reversibility(spec).configs_checked == config_space_size(spec)
