"""Seeded edited copies of a certificate, each of which must be rejected.

An edit adds 1 to one checked value and keeps its JSON type: an int stays
an int, a "p/q" rational string stays a rational string.  Three kinds of
value are edited:

  table   - an entry of an eval_p or oracle_values table, or a
            monotone_range delta or min;
  witness - a Farkas multiplier, or a worst-case attempt's point or value;
  header  - the certificate's bound.

Type confusion (a value replaced by one of another type) is left out; this
times the rejection path and is no fuzzer.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Any

Path = tuple  # keys and indices from the document root


def _farkas_paths(prefix: Path, farkas: list) -> list[Path]:
    return [prefix + ("farkas", i, 1) for i in range(len(farkas))]


def locations(doc: dict) -> dict[str, list[Path]]:
    """Every editable value of a certificate, by kind, in document order."""
    table: list[Path] = []
    witness: list[Path] = []
    for si, step in enumerate(doc["steps"]):
        rule, w = step["rule"], step["witness"]
        at: Path = ("steps", si, "witness")
        if rule in ("eval_p", "oracle_values"):
            table += [at + ("values", i) for i in range(len(w["values"]))]
        elif rule == "monotone_range":
            for i, check in enumerate(w["checks"]):
                table.append(at + ("checks", i, "delta" if "delta" in check else "min"))
                witness += _farkas_paths(at + ("checks", i), check.get("farkas", []))
        elif rule == "fm_lower_bound":
            witness += _farkas_paths(at, w["farkas"])
        elif rule == "dim_search":
            witness += _farkas_paths(at + ("selected",), w["selected"].get("farkas", []))
            for i, attempt in enumerate(w["attempts"]):
                if attempt.get("point") is not None:
                    witness += [at + ("attempts", i, "point", j) for j in range(2)]
                    witness.append(at + ("attempts", i, "value"))
    kinds = {"table": table, "witness": witness, "header": [("bound",)]}
    return {k: v for k, v in kinds.items() if v}


def _plus_one(value: Any) -> Any:
    if isinstance(value, bool):
        raise TypeError("booleans are not edited")
    if isinstance(value, int):
        return value + 1
    q = Fraction(value) + 1
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def edit(raw: bytes, rng: random.Random) -> tuple[bytes, str, Path]:
    """An edited copy of the certificate bytes: a kind drawn uniformly
    among those present, then a location uniformly within it."""
    doc = json.loads(raw)
    by_kind = locations(doc)
    kind = rng.choice(sorted(by_kind))
    path = rng.choice(by_kind[kind])
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = _plus_one(holder[path[-1]])
    out = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return out, kind, path
