"""Machines the benchmark ships outside the package corpus.

Tier-1 tests parametrize over every corpus machine, so these stay here to
keep the suite's time unchanged. Each generator returns spec text plus the
benchmark's own model of what the machine computes, so run results can be
checked without trusting ``clockobs.rtm``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Walks right flipping cells 1-3, then walks back twice to cell 1.
# Accepts exactly when the input's first bit is 0.
FLIP3 = """\
# Walk right flipping cells 1, 2 and 3, then walk back to cell 1 and halt.
# Accepts exactly when the input's first bit is 0.
states: a0:rw w1:right a1:rw w2:right a2:rw b2:left b1:left h:final
alphabet: 0 1
initial: a0
tape_cells: 3
result_cell: 1
transition: rw (a0,0) -> (w1,1)
transition: rw (a0,1) -> (w1,0)
transition: move w1 -> a1 +1
transition: rw (a1,0) -> (w2,1)
transition: rw (a1,1) -> (w2,0)
transition: move w2 -> a2 +1
transition: rw (a2,0) -> (b2,1)
transition: rw (a2,1) -> (b2,0)
transition: move b2 -> b1 -1
transition: move b1 -> h -1
"""


def flip3_answer(word: str) -> int:
    return int(word[0] == "0")


@dataclass(frozen=True)
class Walker:
    """A generated walker: ``rewrites[i]`` maps the symbol read in cell i+1
    to the symbol written there."""

    text: str
    rewrites: tuple[dict[str, str], ...]

    def final_tape(self, word: str) -> str:
        return "".join(table[sym] for table, sym in zip(self.rewrites, word))

    def answer(self, word: str) -> int:
        return int(self.final_tape(word)[0] == "1")


def _walker_text(cells: int, rewrites, label: str) -> str:
    rw = [f"a{i}:rw" for i in range(1, cells + 1)]
    right = [f"w{i}:right" for i in range(1, cells)]
    left = [f"b{i}:left" for i in range(cells - 1, 0, -1)]
    lines = [
        f"# {label}: rewrite every cell walking right, then walk back to cell 1.",
        "states: " + " ".join(rw + right + left + ["h:final"]),
        "alphabet: 0 1",
        "initial: a1",
        f"tape_cells: {cells}",
        "result_cell: 1",
    ]
    for i, table in enumerate(rewrites, start=1):
        target = f"w{i}" if i < cells else f"b{cells - 1}"
        for read in "01":
            lines.append(f"transition: rw (a{i},{read}) -> ({target},{table[read]})")
        if i < cells:
            lines.append(f"transition: move w{i} -> a{i + 1} +1")
    for i in range(cells - 1, 0, -1):
        target = f"b{i - 1}" if i > 1 else "h"
        lines.append(f"transition: move b{i} -> {target} -1")
    return "\n".join(lines) + "\n"


def walker_pair(cells: int, seed: int) -> tuple[Walker, Walker]:
    """A reversible walker and its twin with one rewrite rule broken.

    Both have 3*cells - 1 states and a binary alphabet, so the reversibility
    sweep covers (3*cells - 1) * cells * 2**cells configurations whatever the
    seed; the seed picks which cells are flipped and which rule breaks. The
    twin's broken rule writes the same symbol as its sibling, so two
    configurations collide and the sweep must report it.
    """
    if cells < 2:
        raise ValueError("a walker needs at least two cells")
    rng = random.Random(seed)
    flip = {"0": "1", "1": "0"}
    keep = {"0": "0", "1": "1"}
    rewrites = tuple(dict(rng.choice((flip, keep))) for _ in range(cells))
    broken = [dict(t) for t in rewrites]
    cell = rng.randrange(cells)
    read = rng.choice("01")
    other = "1" if read == "0" else "0"
    broken[cell][read] = broken[cell][other]
    broken = tuple(broken)
    return (
        Walker(_walker_text(cells, rewrites, "walker"), rewrites),
        Walker(_walker_text(cells, broken, "broken twin"), broken),
    )


def walker_configs(cells: int) -> int:
    return (3 * cells - 1) * cells * 2**cells
