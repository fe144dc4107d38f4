"""Seeded inputs for the workloads.

Each generator is an endless, deterministic stream of blocks of inputs
for a given seed; a run stops only between blocks.  The program only ever
sees the command-line flags of an input.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from reference import admissible, p720

# the split-bundle classes the oracle workload draws from, in normal form;
# every shift and permutation of them is nef
NORMAL_FORMS = ((0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2))
SHIFT = 10
PAPER_EXAMPLE = (0, 0, 0, 0, 1)

K5_HALF_MAX = 10000  # k5 is even, from 2 to 20000


@dataclass(frozen=True)
class SolveInput:
    """One solve: its flags, and what the reference needs to check it.

    kind is "worst_case", "bundle" (standard convention), "paper_example"
    or "chern"; params holds the twists or the (k5, k3c2) pair.
    """

    kind: str
    flags: tuple[str, ...]
    params: tuple[int, ...] = ()


WORST_CASE_INPUT = SolveInput("worst_case", ("--worst-case",))
PAPER_INPUT = SolveInput(
    "paper_example", ("--bundle=0,0,0,0,1", "--convention", "paper"), PAPER_EXAMPLE
)


def bundle_input(twists: tuple[int, ...]) -> SolveInput:
    # "=" keeps argparse from reading a negative twist as a flag
    return SolveInput("bundle", ("--bundle=" + ",".join(map(str, twists)),), twists)


def chern_input(k5: int, k3c2: int) -> SolveInput:
    return SolveInput("chern", ("--k5", str(k5), f"--k3c2={k3c2}"), (k5, k3c2))


def worst_case(seed: int) -> Iterator[list[SolveInput]]:
    """The input is fixed; the seed only chooses the edits."""
    return itertools.repeat([WORST_CASE_INPUT])


def oracle_bundles(seed: int) -> Iterator[list[SolveInput]]:
    """Blocks of ten inputs: two printed examples and two bundles of each
    normal form, one with its distinct twists last and one with them first.

    The seed draws each bundle's shift, uniform in [-10, 10], and the order
    of the block.  The twists' order is not drawn: the cost of a bundle
    depends mostly on where its distinct twists sit (from about 0.2 s to
    1.4 s per solve), so drawing it gave runs of a few dozen operations
    medians a quarter apart.  Every block holds the cheapest and the
    costliest order of each form instead, so runs agree.  The shifts are
    dealt from a shuffled deck of all 21 values, so each is still uniform
    but a run of a few blocks cannot draw the cheap shifts 0 and 1 (about
    a third cheaper) many times over.
    """
    rng = random.Random(f"oracle_bundles:{seed}")
    deck: list[int] = []

    def shift() -> int:
        if not deck:
            deck.extend(range(-SHIFT, SHIFT + 1))
            rng.shuffle(deck)
        return deck.pop()

    while True:
        block = [PAPER_INPUT, PAPER_INPUT]
        for form in NORMAL_FORMS:
            for twists in (form, form[::-1]):
                c = shift()
                block.append(bundle_input(tuple(e + c for e in twists)))
        rng.shuffle(block)
        yield block


def k3c2_window(k5: int) -> range:
    """From the least value with P(1) >= 0 to 2 k5 + 720; over it the
    certified bounds spread from 6 to 16."""
    return range(-k5 - 72, 2 * k5 + 720 + 1)


def draw_chern(rng: random.Random) -> tuple[int, int]:
    """k5 log-uniform over the even values 2..20000, then k3c2 uniform
    over the window's values that make P integral and non-negative."""
    while True:
        half = min(int(math.exp(rng.uniform(0.0, math.log(K5_HALF_MAX + 1)))), K5_HALF_MAX)
        k5 = 2 * half
        # integrality depends on k3c2 only modulo 720
        residues = {
            r for r in range(720) if all(p720(k5, r, m) % 720 == 0 for m in range(6))
        }
        values = [c for c in k3c2_window(k5) if c % 720 in residues and admissible(k5, c)]
        if values:
            return k5, rng.choice(values)


def chern_batch(seed: int) -> Iterator[list[SolveInput]]:
    for i in itertools.count():
        yield [chern_input(*draw_chern(random.Random(f"chern_batch:{seed}:{i}")))]


GENERATORS = {
    "worst_case": worst_case,
    "oracle_bundles": oracle_bundles,
    "chern_batch": chern_batch,
}
