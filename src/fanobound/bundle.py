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
two moments of row j, both closed forms: its count sum S0 = C(j+4, 4),
the rank of S^j(E), and its index-weighted sum S1 = C(j+4, 5) * deg E.
A row is built only when it is read.  The rows themselves are packed
integers, one 64-bit slot per degree, lowest degree first, built on the
first read of any row of a call by one pass per summand, which adds row
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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from math import comb
from operator import eq
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


class _PackedRows:
    """The packed rows S^0..S^k of one sym_power_twists call, built by one
    pass per summand on the first read of any of them: row j holds the
    multi-indices of total j counted by degree, one SLOT_BITS slot per
    degree from j * min(twists) up, and a summand of twist e adds row
    j - 1 (already updated), moved up by e - min(e) slots, to row j."""

    __slots__ = ("_twists", "_k", "_rows")

    def __init__(self, twists: tuple[int, ...], k: int) -> None:
        self._twists = twists
        self._k = k
        self._rows: list[int] | None = None

    def __getitem__(self, j: int) -> int:
        if self._rows is None:
            low = min(self._twists)
            rows = [1] + [0] * self._k
            for e in self._twists:
                shift = SLOT_BITS * (e - low)
                for i in range(1, self._k + 1):
                    rows[i] += rows[i - 1] << shift
            self._rows = rows
        return self._rows[j]


class PowerRow(Mapping[int, int]):
    """The twist multiset of one S^j(E), read-only: counts[i] is the
    multiplicity of degree low + i.  As a mapping it holds only the
    degrees of positive multiplicity.

    s0 = sum(counts) and s1 = sum(i * counts[i]) are the closed forms of
    PowerRows.  The packed integer comes from the rows of its call, built
    on the first read of any row's counts, mapping or packed integer, and
    is read little-endian into the counts tuple on first read.
    """

    __slots__ = ("low", "s0", "s1", "_span", "_rows", "_j", "_counts")

    def __init__(
        self, low: int, span: int, s0: int, s1: int,
        rows: _PackedRows | tuple[int, ...], j: int,
    ) -> None:
        # the row holds degrees low..low + span
        self.low, self.s0, self.s1, self._span = low, s0, s1, span
        self._rows, self._j = rows, j
        self._counts: tuple[int, ...] | None = None

    @property
    def _packed(self) -> int:
        return self._rows[self._j]

    @property
    def counts(self) -> tuple[int, ...]:
        if self._counts is None:
            n = self._span + 1
            raw = self._packed.to_bytes(SLOT_BITS // 8 * n, "little")
            self._counts = struct.unpack(f"<{n}Q", raw)
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


_EMPTY_ROW = PowerRow(0, -1, 0, 0, (0,), 0)


class PowerRows(Sequence[PowerRow]):
    """The rows S^0..S^k of one sym_power_twists call, read-only, each built
    when it is read: row j < shift is empty, row j >= shift the standard
    S^i(E), i = j - shift.  Its moments are S0 = C(i+4, 4), the rank, and
    S1 = C(i+4, 5) * (sum(e) - 5 min(e)), since each alpha_t sums to
    C(i+4, 5) over the multi-indices of total i."""

    __slots__ = ("_low", "_spread", "_deg", "_shift", "_js", "_packed")

    def __init__(self, twists: tuple[int, ...], k: int, shift: int = 0) -> None:
        top = k - shift
        low = min(twists)
        spread = max(twists) - low
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
        self._low, self._spread, self._shift = low, spread, shift
        self._deg = sum(twists) - 5 * low
        self._js = range(k + 1)
        self._packed = _PackedRows(twists, top)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return list(map(self.__getitem__, self._js[j]))
        i = self._js[j] - self._shift
        if i < 0:
            return _EMPTY_ROW
        s0, s1 = comb(i + 4, 4), self._deg * comb(i + 4, 5)
        return PowerRow(i * self._low, i * self._spread, s0, s1, self._packed, i)

    def __len__(self) -> int:
        return len(self._js)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def sym_power_twists(b: SplitBundle, k: int, conv: str = STANDARD) -> PowerRows:
    """Twist multisets of S^j(E) for j = 0..k: entry j maps degree ->
    multiplicity, keeping only positive multiplicities.

    standard: multiplicity of d in S^j is the number of multi-indices
    alpha with |alpha| = j and sum(alpha_i e_i) = d.  paper: only for
    bundles of shape (0,0,0,0,e); degree i*e of S^j gets the printed rank
    C(j-i+1, 3) of S^(j-i)(O^4).  Since C(j+1, 3) is the standard rank of
    S^(j-2)(O^4), the printed S^j is the standard S^(j-2) of the same
    bundle, and the paper list is the standard one shifted by two.

    The rows come as PowerRows, each built when it is read.  A power
    whose rank reaches 2**64, or a pass over more than MAX_POWER_SLOTS
    slots, raises ValueError before anything is allocated.
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

    Slot i of row 5m twists to first + i sections.  Where first >= 0 the
    count is first * S0 + S1 from the row's closed-form moments, and no
    packed row is built; is_nef makes first = m(5 min(e) + 2 - sum(e)) + 1
    >= 1 in both conventions.  Only a row with degrees below -1 reads its
    packed integer: it shifts them out and reads the moments of the rest.

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
        first = row.low + m * h_coeff + 1
        if first >= 0:
            values.append(first * row.s0 + row.s1)
            continue
        # the skip bits below hold the degrees below -1; slot -first of the
        # row, index 0 after the shift, twists to 0 sections
        packed = row._packed
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
