"""Independent section-count oracle: X = P(E) for split E over the line.

For E = O(e1) + ... + O(e5) the projectivization X is a smooth 5-fold with

    -K_X = 5 L + (2 - sum(e_j)) H,

L the tautological class and H the fiber class.  Sections of -mK push
down to the line:

    h0(X, -mK) = h0(P^1, S^{5m}(E) (x) O(m * (2 - sum e_j)))

and the symmetric power splits into line bundles, one per multi-index
alpha with |alpha| = 5m, of degree sum(alpha_j e_j).  Counting those
degrees with multiplicity is a lattice-point problem solved here by
dynamic programming.

Two rank conventions are supported for the inner symmetric powers of the
four untwisted summands.  The standard one is rank S^k(O^4) = C(k+3, 3).
The published example instead prints (k-1)k(k+1)/6 = C(k+1, 3); that
convention is kept as a first-class citizen ("paper") because the
example's headline counts (91, 62909, 186030), its closed form, and its
final bound 15 are internally consistent with it and only with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

from . import bounds

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


@dataclass(frozen=True)
class SplitBundle:
    """Twist vector (e1, ..., e5) of E = O(e1) + ... + O(e5) over P^1."""

    twists: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.twists) != 5:
            raise ValueError("X must be a 5-fold: exactly five twists")

    @classmethod
    def parse(cls, text: str) -> "SplitBundle":
        return cls(tuple(int(part) for part in text.split(",")))


def h0_p1(d: int) -> int:
    """Sections of O(d) on the line: max(0, d + 1)."""
    return max(0, d + 1)


def anticanonical_data(b: SplitBundle) -> tuple[int, int]:
    """-K = l_coeff * L + h_coeff * H: always (5, 2 - sum of twists)."""
    return 5, 2 - sum(b.twists)


def k5_geometric(b: SplitBundle) -> int:
    """(-K)^5 by intersection theory: expand (5L + cH)^5 with H^2 = 0,
    L^5 = sum(e_j), H.L^4 = 1."""
    _, c = anticanonical_data(b)
    return 5**5 * sum(b.twists) + 5 * 5**4 * c


def rank_printed(k: int) -> int:
    """The published rank count for S^k of the four untwisted summands:
    (k-1)k(k+1)/6, clamped at zero."""
    return max(0, (k - 1) * k * (k + 1) // 6)


def _standard_powers(twists: tuple[int, ...], k: int) -> list[dict[int, int]]:
    """Twist multisets of S^j(E) for j = 0..k (empty for k < 0).

    One dynamic-programming pass per summand: after the summands seen so
    far, rows[j] counts the multi-indices of total j by degree.  Adding a
    summand of twist e turns row j into row j plus row j - 1 (already
    updated) moved up by e.
    """
    if k < 0:
        return []
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    for e in twists:
        for j in range(1, k + 1):
            row = rows[j]
            for d, c in rows[j - 1].items():
                row[d + e] = row.get(d + e, 0) + c
    return rows


def sym_power_twists(
    b: SplitBundle, k: int, conv: str = STANDARD
) -> list[dict[int, int]]:
    """Twist multisets of S^j(E) for j = 0..k: entry j maps degree ->
    multiplicity, keeping only positive multiplicities.

    standard: multiplicity of d in S^j is the number of multi-indices
    alpha with |alpha| = j and sum(alpha_i e_i) = d.  paper: only for
    bundles of shape (0,0,0,0,e); degree i*e of S^j gets the printed rank
    C(j-i+1, 3) of S^(j-i)(O^4).  Since C(j+1, 3) is the standard rank of
    S^(j-2)(O^4), the printed S^j is the standard S^(j-2) of the same
    bundle, and the paper list is the standard one shifted by two.
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
        return [{} for _ in range(min(k + 1, 2))] + _standard_powers(b.twists, k - 2)
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
        shift = m * h_coeff
        mults = powers[5 * m]
        below_chi = below_chi or any(d + shift < -1 for d in mults)
        values.append(sum(c * h0_p1(d + shift) for d, c in mults.items()))
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


def standard_total_rank(k: int) -> int:
    """rank S^k of a rank-5 bundle: C(k+4, 4)."""
    return comb(k + 4, 4)


def oracle_source(b: SplitBundle, conv: str = STANDARD) -> bounds.OracleSource:
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

    return bounds.OracleSource(
        bundle=b.twists,
        convention=conv,
        h0=counted,
        d5=k5_geometric(b),
    )
