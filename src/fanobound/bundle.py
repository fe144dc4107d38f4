"""Independent section-count oracle: X = P(E) for split E over the line.

For E = O(e1) + ... + O(e5) the projectivization X is a smooth 5-fold with

    -K_X = 5 L + (2 - sum(e_j)) H,

L the tautological class and H the fiber class.  Sections of -mK push
down to the line:

    h0(X, -mK) = h0(P^1, S^{5m}(E) (x) O(m * (2 - sum e_j)))

and the symmetric power splits into line bundles, one per multi-index
alpha with |alpha| = 5m, of degree sum(alpha_j e_j).  When -K is nef,
every one of them has degree >= 0 after the twist, so its h0 is its
Euler characteristic, and Riemann-Roch on the line sums them to

    h0(-mK) = degree + rank * (m * (2 - sum e_j) + 1)

where S^(5m)(E) has rank C(5m+4, 4) and degree C(5m+4, 5) * sum(e_j).
sym_power_twists returns these two numbers per power, and h0_anti refuses
a bundle on which -K is not nef, outside the theorem's hypotheses.

Two rank conventions are supported for the inner symmetric powers of the
four untwisted summands.  The standard one is rank S^k(O^4) = C(k+3, 3).
The published example instead prints (k-1)k(k+1)/6 = C(k+1, 3); that
convention is kept as a first-class citizen ("paper") because the
example's headline counts (91, 62909, 186030), its closed form, and its
final bound 15 are internally consistent with it and only with it.
"""

from __future__ import annotations

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


class PowerRows(Sequence[tuple[int, int]]):
    """The rows S^0..S^k of one sym_power_twists call: row j < shift is
    (0, 0), row j >= shift the (rank, degree) of the standard S^i(E),
    i = j - shift, computed when it is read."""

    __slots__ = ("degree", "k", "shift")

    def __init__(self, twists: tuple[int, ...], k: int, shift: int = 0) -> None:
        self.degree, self.k, self.shift = sum(twists), k, shift

    def __getitem__(self, j: int) -> tuple[int, int]:
        if not 0 <= j <= self.k:
            raise IndexError(f"row {j} of S^0..S^{self.k}")
        i = j - self.shift
        if i < 0:
            return 0, 0
        return comb(i + 4, 4), comb(i + 4, 5) * self.degree

    def __len__(self) -> int:
        return self.k + 1


def sym_power_twists(b: SplitBundle, k: int, conv: str = STANDARD) -> PowerRows:
    """(rank, degree) of S^j(E) for j = 0..k.

    standard: S^j(E) is the sum of O(sum(alpha_i e_i)) over the
    multi-indices alpha with |alpha| = j, so its rank is C(j+4, 4), and
    each e_i appears in the degrees C(j+4, 5) times in all.  paper: only
    for bundles of shape (0,0,0,0,e); degree i*e of S^j gets the printed
    rank C(j-i+1, 3) of S^(j-i)(O^4).  Since C(j+1, 3) is the standard rank
    of S^(j-2)(O^4), the printed S^j is the standard S^(j-2) of the same
    bundle, and the paper rows are the standard ones shifted by two.
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
    """[h0(X, -mK) for m = 1..m_max] on a bundle where -K is nef: row 5m of
    one sym_power_twists call up to 5*m_max, twisted by m(2 - sum(e)), has
    h0 = chi = degree + rank * (m(2 - sum(e)) + 1).  A bundle where -K is
    not nef is refused: some summand may then twist below degree -1, where
    h0 and chi differ.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not is_nef(b):
        raise ValueError(f"-K is not nef on the bundle with twists {b.twists}")
    _, h_coeff = anticanonical_data(b)
    rows = sym_power_twists(b, 5 * m_max, conv)
    values = []
    for m in range(1, m_max + 1):
        rank, degree = rows[5 * m]
        values.append(degree + rank * (m * h_coeff + 1))
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
