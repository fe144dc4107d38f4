"""Expected outcomes computed without the fanobound package.

Everything here is plain integer arithmetic on the README formula

    720 P(m) = (2m+1) * ( m(m+1) * [ (3m^2+3m-1) k5 + 5 k3c2 ] + 720 ),

so a defect in the package cannot hide itself by also skewing the
reference it is checked against.
"""

from __future__ import annotations

from math import comb

WORST_CASE = {"bound": 16, "r0": 3, "r": [3, 4, 6]}

# every nef split bundle over the line has the Hilbert polynomial of
# (-K)^5 = 6250, (-K)^3.c2 = 2750; its certified bound is 12
SPLIT_BUNDLE_CHERN = (6250, 2750)
SPLIT_BUNDLE_BOUND = 12

# the printed example under the paper convention: bound and the counts
# printed at m = 1, 4, 5
PAPER_EXAMPLE_BOUND = 15
PAPER_EXAMPLE_COUNTS = {1: 91, 4: 62909, 5: 186030}

AUDIT_COUNTS = {"confirmed": 15, "stronger": 4, "discrepancy": 2}

# searches beyond this multiple are not expected on any drawn input
SEARCH_LIMIT = 1000


def p720(k5: int, k3c2: int, m: int) -> int:
    """720 * P(m), an integer for every integer m."""
    return (2 * m + 1) * (m * (m + 1) * ((3 * m * m + 3 * m - 1) * k5 + 5 * k3c2) + 720)


def p_value(k5: int, k3c2: int, m: int) -> int:
    q, rem = divmod(p720(k5, k3c2, m), 720)
    if rem:
        raise ValueError(f"P({m}) is not an integer for ({k5}, {k3c2})")
    return q


def admissible(k5: int, k3c2: int) -> bool:
    """P integral and non-negative on m >= 0.

    A degree-5 polynomial integral at six consecutive integers is integral
    everywhere.  P(0) = 1, and once P(1) >= 0 (that is k3c2 >= -k5 - 72)
    the bracket grows with m, so m = 0..5 also settles non-negativity.
    """
    return k5 >= 1 and all(
        p720(k5, k3c2, m) % 720 == 0 and p720(k5, k3c2, m) >= 0 for m in range(6)
    )


def _difference_coeffs(k5: int, k3c2: int) -> list[int]:
    """Integer coefficients, low degree first, of 720 (P(m+1) - P(m))."""
    # 720 P(m) expanded: u = m^2 + m, w = 2m + 1
    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    u = [0, 1, 1]
    inner = mul(u, [5 * k3c2 - k5, 3 * k5, 3 * k5])
    inner[0] += 720
    p = mul([1, 2], inner)
    shifted = [sum(p[i] * comb(i, j) for i in range(j, len(p))) for j in range(len(p))]
    return [s - c for s, c in zip(shifted, p)][:-1]


def _last_non_increase(k5: int, k3c2: int) -> int:
    """Largest m >= 0 with P(m+1) <= P(m), or -1."""
    d = _difference_coeffs(k5, k3c2)
    lead = d[-1]
    # Cauchy: every real root of the difference lies below this
    horizon = 1 + max(abs(c) for c in d[:-1]) // lead + 1
    last = -1
    for m in range(horizon + 1):
        if sum(c * m**i for i, c in enumerate(d)) <= 0:
            last = m
    return last


def concrete_rules(k5: int, k3c2: int) -> dict:
    """r0, r1, r2, r3 and the bound by the concrete rules, restated.

    r0: first r >= 3 with P(r) >= 1 and P increasing from r on;
    r1: first m with P(m) >= 2;
    r2, r3: first m with P(m) > m^r k5 + r for some r in [1, 4], [2, 4].
    """
    def first(test) -> int:
        for m in range(1, SEARCH_LIMIT + 1):
            if test(m):
                return m
        raise ValueError(f"no witness up to m = {SEARCH_LIMIT}")

    def P(m):
        return p_value(k5, k3c2, m)

    last_bad = _last_non_increase(k5, k3c2)
    r0 = first(lambda r: r >= 3 and r > last_bad and P(r) >= 1)
    r1 = first(lambda m: P(m) >= 2)
    r2 = first(lambda m: any(P(m) > m**r * k5 + r for r in range(1, 5)))
    r3 = first(lambda m: any(P(m) > m**r * k5 + r for r in range(2, 5)))
    return {"r0": r0, "r": [r1, r2, r3], "bound": r0 + r1 + r2 + r3}


def nef(twists) -> bool:
    """-K = 5L + (2 - sum e)H on P(E) is nef iff 5 min(e) + 2 - sum(e) >= 0."""
    return 5 * min(twists) + 2 - sum(twists) >= 0


def _step_values(doc: dict, rule: str) -> list[int]:
    steps = [s for s in doc.get("steps", []) if s.get("rule") == rule]
    if len(steps) != 1:
        raise ValueError(f"expected one {rule} step, found {len(steps)}")
    return steps[0]["witness"]["values"]


def expected_solve(kind: str, params: tuple) -> dict:
    """Header fields a correct certificate carries for this input."""
    if kind == "worst_case":
        return dict(WORST_CASE)
    if kind == "chern":
        return concrete_rules(*params)
    if kind == "bundle":
        return {"bound": SPLIT_BUNDLE_BOUND}
    if kind == "paper_example":
        return {"bound": PAPER_EXAMPLE_BOUND}
    raise ValueError(f"unknown input kind {kind!r}")


def check_solve(kind: str, params: tuple, doc: dict, printed: str) -> list[str]:
    """Mismatches between a solve's certificate and printed bound and the
    reference; empty when the outcome is right."""
    want = expected_solve(kind, params)
    problems = [
        f"{key} is {doc.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if doc.get(key) != value
    ]
    if printed.strip() != str(want["bound"]):
        problems.append(f"printed {printed.strip()!r}, expected {want['bound']}")
    rule = {"chern": "eval_p", "bundle": "oracle_values", "paper_example": "oracle_values"}.get(kind)
    if rule is None:
        return problems
    try:
        values = _step_values(doc, rule)
        if kind == "chern":
            bad = [m for m, v in enumerate(values) if v != p_value(*params, m)]
        elif kind == "bundle":
            bad = [m for m, v in enumerate(values, 1) if v != p_value(*SPLIT_BUNDLE_CHERN, m)]
        else:
            bad = [m for m, v in PAPER_EXAMPLE_COUNTS.items() if values[m - 1] != v]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return problems + [f"value table unreadable: {exc!r}"]
    if not values:
        problems.append("empty value table")
    if bad:
        problems.append(f"value table differs from the reference at m = {bad[:5]}")
    return problems


def check_audit(entries: list, printed: str) -> list[str]:
    counts = {s: sum(1 for e in entries if e.get("status") == s) for s in AUDIT_COUNTS}
    total = sum(AUDIT_COUNTS.values())
    problems = []
    if len(entries) != total or counts != AUDIT_COUNTS:
        problems.append(f"{len(entries)} claims with statuses {counts}, expected {total} with {AUDIT_COUNTS}")
    head = f"audited {total} claims: " + ", ".join(f"{n} {s}" for s, n in AUDIT_COUNTS.items())
    if printed.splitlines()[:1] != [head]:
        problems.append(f"printed {printed.splitlines()[:1]!r}, expected {head!r}")
    return problems
