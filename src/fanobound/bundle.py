"""Independent section-count oracle: X = P(E) for split E over the line.

For E = O(e1) + ... + O(e5) the projectivization X is a smooth 5-fold with

    -K_X = 5 L + (2 - sum(e_j)) H,

L the tautological class and H the fiber class.  Sections of -mK push
down to the line:

    h0(X, -mK) = h0(P^1, S^{5m}(E) (x) O(m * (2 - sum e_j)))

and the symmetric power splits into line bundles, one per multi-index
alpha with |alpha| = 5m, of degree sum(alpha_j e_j).  Counting those
degrees with multiplicity is a lattice-point problem.  It is solved here
on packed integers: each S^j(E) is one Python integer with a 64-bit slot
per degree, lowest degree first, and adding a summand of twist e adds
row j - 1, shifted by e - min(e) slots, to row j.  No multiplicity
exceeds the rank C(j+4, 4) of S^j(E), so no slot carries while that rank
stays below 2**64, which holds for j up to 145,052; larger powers, and
passes whose rows would hold more than MAX_POWER_SLOTS slots, are refused
before anything is allocated.  A row is unpacked only when it is read.

Two rank conventions are supported for the inner symmetric powers of the
four untwisted summands.  The standard one is rank S^k(O^4) = C(k+3, 3).
The published example instead prints (k-1)k(k+1)/6 = C(k+1, 3); that
convention is kept as a first-class citizen ("paper") because the
example's headline counts (91, 62909, 186030), its closed form, and its
final bound 15 are internally consistent with it and only with it.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable, NamedTuple

STANDARD = "standard"
PAPER = "paper"

CONVENTIONS = (STANDARD, PAPER)

EXAMPLE_TWISTS = (0, 0, 0, 0, 1)

# The printed example selects r1 = 3 although h0(-K) = 91 already gives a
# pencil at m = 1, so its faithful replay starts the dimension-1 search at 3.
PAPER_DIM1_START = 3


class UnsupportedConventionError(ValueError):
    """The printed-rank convention only covers bundles of shape
    (0, 0, 0, 0, e)."""


class ChiApproximationWarning(UserWarning):
    """Some pushed-down summand has degree below -1, so the section count
    may differ from the Euler characteristic."""


class SplitBundle(NamedTuple("SplitBundle", [("twists", tuple[int, ...])])):
    """Twist vector (e1, ..., e5) of E = O(e1) + ... + O(e5) over P^1."""

    __slots__ = ()
    # _replace builds through _make, so a replaced field is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, twists: tuple[int, ...]) -> "SplitBundle":
        if len(twists) != 5:
            raise ValueError("X must be a 5-fold: exactly five twists")
        return super().__new__(cls, twists)

    @classmethod
    def parse(cls, text: str) -> "SplitBundle":
        return cls(tuple(int(part) for part in text.split(",")))


def h0_p1(d: int) -> int:
    """Sections of O(d) on the line: max(0, d + 1)."""
    return max(0, d + 1)


def anticanonical_data(b: SplitBundle) -> tuple[int, int]:
    """-K = l_coeff * L + h_coeff * H: always (5, 2 - sum of twists)."""
    return 5, 2 - sum(b.twists)


def is_nef(b: SplitBundle) -> bool:
    """Whether -K = 5L + (2 - sum e)H is nef: 5*min(e) + 2 - sum(e) >= 0.

    -K is then big as well, since (-K)^5 = k5_geometric(b) = 2 * 5^5 for
    every split bundle.
    """
    l_coeff, h_coeff = anticanonical_data(b)
    return l_coeff * min(b.twists) + h_coeff >= 0


def k5_geometric(b: SplitBundle) -> int:
    """(-K)^5 by intersection theory: expand (5L + cH)^5 with H^2 = 0,
    L^5 = sum(e_j), H.L^4 = 1."""
    _, c = anticanonical_data(b)
    return 5**5 * sum(b.twists) + 5 * 5**4 * c


SLOT_BITS = 64

# int.to_bytes in the native order puts the lowest slot first only on a
# little-endian host; elsewhere the cast view is read backwards.
_SLOT_STEP = 1 if sys.byteorder == "little" else -1


# packed rows of one pass may hold this many slots in all, 64 MB; the
# widest nef bundle (spread 2) at k = 2560, five times the verifier's
# largest table, needs 2561**2 of them
MAX_POWER_SLOTS = 2**23


def power_slots(spread: int, k: int) -> int:
    """Slots in the packed rows S^0..S^k of a bundle whose twists span
    spread: row j holds j * spread + 1 degrees."""
    return spread * k * (k + 1) // 2 + k + 1


class PowerRow(Mapping[int, int]):
    """The twist multiset of one S^j(E), read-only: counts[i] is the
    multiplicity of degree low + i.  As a mapping it holds only the
    degrees of positive multiplicity.

    The row keeps the packed integer of its pass and unpacks it into the
    counts view on first read, so rows nobody reads cost nothing more.
    """

    __slots__ = ("low", "_packed", "_slots", "_counts")

    def __init__(self, low: int, packed: int, slots: int) -> None:
        self.low = low
        self._packed = packed
        self._slots = slots
        self._counts: memoryview | None = None

    @property
    def counts(self) -> memoryview:
        if self._counts is None:
            raw = self._packed.to_bytes(SLOT_BITS // 8 * self._slots, sys.byteorder)
            self._counts = memoryview(raw).cast("Q")[::_SLOT_STEP]
        return self._counts

    def __getitem__(self, d: int) -> int:
        i = d - self.low
        if 0 <= i < len(self.counts) and self.counts[i]:
            return self.counts[i]
        raise KeyError(d)

    def __iter__(self) -> Iterator[int]:
        return (self.low + i for i, c in enumerate(self.counts) if c)

    def __len__(self) -> int:
        return sum(1 for c in self.counts if c)

    def __repr__(self) -> str:
        return f"PowerRow({dict(self)!r})"


_EMPTY_ROW = PowerRow(0, 0, 0)


def _standard_powers(twists: tuple[int, ...], k: int) -> list[PowerRow]:
    """Twist multisets of S^j(E) for j = 0..k (empty for k < 0).

    One pass per summand over packed rows: after the summands seen so
    far, rows[j] holds the multi-indices of total j counted by degree, one
    SLOT_BITS slot per degree from j * min(twists) up.  Adding a summand
    of twist e adds row j - 1 (already updated), moved up by e - min(e)
    slots, to row j.
    """
    if k < 0:
        return []
    if comb(k + 4, 4) >= 2**SLOT_BITS:
        raise ValueError(
            f"S^{k}(E) has rank C({k}+4, 4) >= 2**{SLOT_BITS}: "
            f"its multiplicities do not fit {SLOT_BITS}-bit slots"
        )
    low = min(twists)
    spread = max(twists) - low
    slots = power_slots(spread, k)
    if slots > MAX_POWER_SLOTS:
        raise ValueError(
            f"S^0..S^{k}(E) need {slots} packed slots, "
            f"more than the {MAX_POWER_SLOTS} one pass may hold"
        )
    rows = [1] + [0] * k
    for e in twists:
        shift = SLOT_BITS * (e - low)
        for j in range(1, k + 1):
            rows[j] += rows[j - 1] << shift
    return [PowerRow(j * low, row, j * spread + 1) for j, row in enumerate(rows)]


def sym_power_twists(
    b: SplitBundle, k: int, conv: str = STANDARD
) -> list[PowerRow]:
    """Twist multisets of S^j(E) for j = 0..k: entry j maps degree ->
    multiplicity, keeping only positive multiplicities.

    standard: multiplicity of d in S^j is the number of multi-indices
    alpha with |alpha| = j and sum(alpha_i e_i) = d.  paper: only for
    bundles of shape (0,0,0,0,e); degree i*e of S^j gets the printed rank
    C(j-i+1, 3) of S^(j-i)(O^4).  Since C(j+1, 3) is the standard rank of
    S^(j-2)(O^4), the printed S^j is the standard S^(j-2) of the same
    bundle, and the paper list is the standard one shifted by two.

    A power whose rank reaches 2**64, or a pass over more than
    MAX_POWER_SLOTS slots, raises ValueError before any row is built.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if conv == STANDARD:
        return _standard_powers(b.twists, k)
    if conv == PAPER:
        if sum(1 for e in b.twists if e != 0) > 1:
            raise UnsupportedConventionError(
                "printed-rank convention needs a bundle of shape (0,0,0,0,e)"
            )
        rows = _standard_powers(b.twists, k - 2)
        return [_EMPTY_ROW] * min(k + 1, 2) + rows
    raise ValueError(f"unknown convention {conv!r}")


def h0_anti(b: SplitBundle, m_max: int, conv: str = STANDARD) -> list[int]:
    """[h0(X, -mK) for m = 1..m_max], by pushing down to the line and
    summing line-bundle sections; one symmetric-power pass up to 5*m_max
    serves every multiple.

    When every pushed-down degree is >= -1 the first cohomology of each
    summand vanishes and the count equals the Euler characteristic; for
    lower degrees the count is still the honest h0 but chi may differ,
    which is flagged with ChiApproximationWarning.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    _, h_coeff = anticanonical_data(b)
    powers = sym_power_twists(b, 5 * m_max, conv)
    values = []
    below_chi = False
    for m in range(1, m_max + 1):
        row = powers[5 * m]
        counts = row.counts
        # slot i, degree low + i, twists to first + i sections when that is
        # >= 0; the slots below skip twist to degrees below -1
        first = row.low + m * h_coeff + 1
        skip = max(0, -first)
        below_chi = below_chi or any(counts[:skip])
        values.append(sum(map(mul, counts[skip:], range(first + skip, first + len(counts)))))
    if below_chi:
        warnings.warn(
            "a summand has degree < -1 after twisting; h0 may differ from chi",
            ChiApproximationWarning,
            stacklevel=2,
        )
    return values


def paper_closed_form(m: int) -> int:
    """The printed closed form for the example bundle:
    m(5m-1)(5m+1)(5m+2)(10m+3)/24."""
    if m < 1:
        raise ValueError("m must be >= 1")
    num = m * (5 * m - 1) * (5 * m + 1) * (5 * m + 2) * (10 * m + 3)
    if num % 24 != 0:
        raise ArithmeticError(f"closed form not divisible by 24 at m = {m}")
    return num // 24


@dataclass(frozen=True)
class OracleSource:
    """An exact h0 oracle: the bundle it came from, the convention, the
    value function, and the intersection number (-K)^5."""

    bundle: tuple[int, ...]
    convention: str
    h0: Callable[[int], int]
    d5: int


def oracle_source(b: SplitBundle, conv: str = STANDARD) -> OracleSource:
    """Adapt a bundle and convention to the search interface.

    Counts are memoized; searches and monotonicity checks revisit the same
    multiples many times.  A miss at m fills every multiple up to m from
    one h0_anti pass, so asking for the largest multiple first costs one
    pass in all.
    """
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown convention {conv!r}")
    cache: dict[int, int] = {}

    def counted(m: int) -> int:
        if m not in cache:
            cache.update(enumerate(h0_anti(b, m, conv), start=1))
        return cache[m]

    return OracleSource(
        bundle=b.twists,
        convention=conv,
        h0=counted,
        d5=k5_geometric(b),
    )
