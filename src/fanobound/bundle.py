"""Independent section-count oracle: X = P(E) for split E over the line.

For E = O(e1) + ... + O(e5) the projectivization X is a smooth 5-fold with

    -K_X = 5 L + (2 - sum(e_j)) H,

L the tautological class and H the fiber class.  Sections of -mK push
down to the line:

    h0(X, -mK) = h0(P^1, S^{5m}(E) (x) O(m * (2 - sum e_j)))

and the symmetric power splits into line bundles, one per multi-index
alpha with |alpha| = 5m, of degree sum(alpha_j e_j).  Counting those
degrees with multiplicity is a lattice-point problem.  Where every
pushed-down degree is >= -1, so on every nef bundle, h0_anti needs only
two moments of row j, both closed forms that it computes itself: its
count sum S0 = C(j+4, 4), the rank of S^j(E), and its index-weighted sum
S1 = C(j+4, 5) * deg E.  sym_power_twists returns PowerRows: len,
indexing, where entry j is a new dict from degree to multiplicity, and
packed(j), the packed integer of S^j(E), one 64-bit slot per degree,
lowest degree first.  The packed rows of a call are built together on
the first read of any of them by one pass per summand, which adds row
j - 1, moved up by the summand's twist, to row j.  No multiplicity
exceeds the rank, so no slot carries while it stays below 2**64, which
holds for j up to 145,052; larger powers, and passes whose rows would
hold more than MAX_POWER_SLOTS slots, are refused before anything is
allocated.

Two rank conventions are supported for the inner symmetric powers of the
four untwisted summands.  The standard one is rank S^k(O^4) = C(k+3, 3).
The published example instead prints (k-1)k(k+1)/6 = C(k+1, 3); that
convention is kept as a first-class citizen ("paper") because the
example's headline counts (91, 62909, 186030), its closed form, and its
final bound 15 are internally consistent with it and only with it.
"""

from __future__ import annotations

import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
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


# packed rows of one pass may hold this many slots in all, 64 MB; the
# widest nef bundle (spread 2) at k = 2560, five times the verifier's
# largest table, needs 2561**2 of them
MAX_POWER_SLOTS = 2**23


_M = 2**SLOT_BITS - 1


def _moments(packed: int) -> tuple[int, int]:
    """(S0, S1) = (sum c_i, sum i * c_i) of a packed row sum c_i * B**i:
    B = 2**SLOT_BITS = 1 + M, so the row is S0 + S1*M modulo M**2, exact
    while both are below M.  S0 is at most the rank, up to C(145056, 4) =
    M - 2.6e14 under the rank guard; S1 at most (slots - 1) * rank, which
    MAX_POWER_SLOTS caps at 4094 * C(4098, 4) ~ 2**55.4 (spread 1, k = 4094).
    """
    s1, s0 = divmod(packed % (_M * _M), _M)
    return s0, s1


def power_slots(spread: int, k: int) -> int:
    """Slots in the packed rows S^0..S^k of a bundle whose twists span
    spread: row j holds j * spread + 1 degrees."""
    return spread * k * (k + 1) // 2 + k + 1


class PowerRows(Sequence[dict[int, int]]):
    """The rows S^0..S^k of one sym_power_twists call: row j < shift is
    empty, row j >= shift the standard S^i(E), i = j - shift.

    The packed rows S^0..S^(k - shift) are built together on the first
    read of any of them, by one pass per summand: row i holds the
    multi-indices of total i counted by degree, one SLOT_BITS slot per
    degree from i * min(twists) up, and a summand of twist e adds row
    i - 1 (already updated), moved up by e - min(e) slots, to row i.
    """

    __slots__ = ("twists", "k", "shift", "_packed")

    def __init__(self, twists: tuple[int, ...], k: int, shift: int = 0) -> None:
        top = k - shift
        spread = max(twists) - min(twists)
        if top >= 0 and comb(top + 4, 4) >= 2**SLOT_BITS:
            raise ValueError(
                f"S^{top}(E) has rank C({top}+4, 4) >= 2**{SLOT_BITS}: "
                f"its multiplicities do not fit {SLOT_BITS}-bit slots"
            )
        if top >= 0 and power_slots(spread, top) > MAX_POWER_SLOTS:
            raise ValueError(
                f"S^0..S^{top}(E) need {power_slots(spread, top)} packed slots, "
                f"more than the {MAX_POWER_SLOTS} one pass may hold"
            )
        self.twists, self.k, self.shift = twists, k, shift
        self._packed: list[int] | None = None

    def packed(self, i: int) -> int:
        """The packed integer of the standard S^i(E), 0 <= i <= k - shift."""
        if self._packed is None:
            low = min(self.twists)
            rows = [1] + [0] * (self.k - self.shift)
            for e in self.twists:
                bits = SLOT_BITS * (e - low)
                for j in range(1, len(rows)):
                    rows[j] += rows[j - 1] << bits
            self._packed = rows
        return self._packed[i]

    def __getitem__(self, j: int) -> dict[int, int]:
        """A new dict from degree to multiplicity, positive ones only; its
        slots are read little-endian, lowest degree first on every host."""
        i = range(self.k + 1)[j] - self.shift
        if i < 0:
            return {}
        low = min(self.twists)
        n = i * (max(self.twists) - low) + 1
        raw = self.packed(i).to_bytes(SLOT_BITS // 8 * n, "little")
        counts = struct.unpack(f"<{n}Q", raw)
        return {i * low + d: c for d, c in enumerate(counts) if c}

    def __len__(self) -> int:
        return self.k + 1


def sym_power_twists(b: SplitBundle, k: int, conv: str = STANDARD) -> PowerRows:
    """Twist multisets of S^j(E) for j = 0..k: entry j maps degree ->
    multiplicity, keeping only positive multiplicities.

    standard: multiplicity of d in S^j is the number of multi-indices
    alpha with |alpha| = j and sum(alpha_i e_i) = d.  paper: only for
    bundles of shape (0,0,0,0,e); degree i*e of S^j gets the printed rank
    C(j-i+1, 3) of S^(j-i)(O^4).  Since C(j+1, 3) is the standard rank of
    S^(j-2)(O^4), the printed S^j is the standard S^(j-2) of the same
    bundle, and the paper list is the standard one shifted by two.

    The rows come as PowerRows: each read of an entry builds a new dict
    from the packed rows.  A power whose rank reaches 2**64, or a pass
    over more than MAX_POWER_SLOTS slots, raises ValueError before
    anything is allocated.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if conv == STANDARD:
        return PowerRows(b.twists, k)
    if conv == PAPER:
        if sum(1 for e in b.twists if e != 0) > 1:
            raise UnsupportedConventionError(
                "printed-rank convention needs a bundle of shape (0,0,0,0,e)"
            )
        return PowerRows(b.twists, k, 2)
    raise ValueError(f"unknown convention {conv!r}")


def h0_anti(b: SplitBundle, m_max: int, conv: str = STANDARD) -> list[int]:
    """[h0(X, -mK) for m = 1..m_max], by pushing down to the line and
    summing line-bundle sections; one symmetric-power pass up to 5*m_max
    serves every multiple.

    Row 5m is the standard S^i(E), i = 5m - shift, and its slot t twists
    to first + t sections, first = i min(e) + m(2 - sum(e)) + 1.  Where
    first >= 0 the count is first * S0 + S1 with the closed forms
    S0 = C(i+4, 4) and S1 = C(i+4, 5) * (sum(e) - 5 min(e)), and no packed
    row is built; is_nef makes first >= 1 in both conventions.  Only a row
    with degrees below -1 reads its packed integer: it shifts them out and
    reads the moments of the rest.

    When every pushed-down degree is >= -1 the first cohomology of each
    summand vanishes and the count equals the Euler characteristic; for
    lower degrees the count is still the honest h0 but chi may differ,
    which is flagged with ChiApproximationWarning.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    _, h_coeff = anticanonical_data(b)
    powers = sym_power_twists(b, 5 * m_max, conv)
    low = min(b.twists)
    deg = sum(b.twists) - 5 * low
    values = []
    below_chi = False
    for m in range(1, m_max + 1):
        i = 5 * m - powers.shift
        first = i * low + m * h_coeff + 1
        if first >= 0:
            values.append(first * comb(i + 4, 4) + deg * comb(i + 4, 5))
            continue
        # the skip bits below hold the degrees below -1; slot -first of the
        # row, index 0 after the shift, twists to 0 sections
        packed = powers.packed(i)
        skip = SLOT_BITS * -first
        below_chi = below_chi or packed & ((1 << skip) - 1) != 0
        values.append(_moments(packed >> skip)[1])
    if below_chi:
        warnings.warn(
            "a summand has degree < -1 after twisting; h0 may differ from chi",
            ChiApproximationWarning,
            stacklevel=2,
        )
    return values


def paper_closed_form(m: int) -> int:
    """The printed closed form for the example bundle:
    m(5m-1)(5m+1)(5m+2)(10m+3)/24.  The numerator is an integer
    polynomial, so its residue mod 24 has period 24, and it is 0 at
    m = 0..23: the division is exact for every m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m * (5 * m - 1) * (5 * m + 1) * (5 * m + 2) * (10 * m + 3) // 24


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
