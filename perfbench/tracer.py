"""Spans and counters around the package's public functions, from outside.

Tracer wraps every public module-level function of the traced modules,
plus three methods the layer table names (Poly.shift, AffineForm.evaluate,
Certificate.to_json_bytes).  Each wrapper replaces the original object,
matched by identity, in every fanobound namespace that holds it, because
callers import names directly; restore() puts every original back.

A span records name, start, end, parent span and operation id.  Per
operation the tracer sums, for each wrapped name, the calls, the busy time
(outermost calls only, so recursion is not counted twice) and the self
time (duration minus the wrapped child spans).  Spans are kept in memory
up to a budget and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

MODULES = ("cli", "bounds", "derive", "hilbert", "exact", "bundle", "certs", "audit")
METHODS = {
    "exact.poly_shift": ("exact", "Poly", "shift"),
    "exact.affine_evaluate": ("exact", "AffineForm", "evaluate"),
    "certs.to_json_bytes": ("certs", "Certificate", "to_json_bytes"),
}
ORACLE_H0 = "bundle.oracle_h0"  # OracleSource.h0 requests, via bundle.oracle_source
SPAN_BUDGET = 100_000


class OpTrace:
    """What one operation did: per name [calls, busy_s, self_s], per
    command the same, and the extra counters."""

    def __init__(self) -> None:
        self.layers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_command: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.fm_keys: set = set()

    def calls(self, name: str) -> int:
        return int(self.layers[name][0]) if name in self.layers else 0

    def self_s(self, name: str) -> float:
        return self.layers[name][2] if name in self.layers else 0.0


class Tracer:
    def __init__(self, span_budget: int = SPAN_BUDGET) -> None:
        self.span_budget = span_budget
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id: Optional[int] = None
        self.command = ""
        self.op = OpTrace()
        self._stack: list[list] = []  # [span_id, name, start, child_s]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._bindings = self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[Any, str, Any, Any]]:
        """(holder, attribute, original, wrapper) for every rebinding."""
        for short in MODULES:
            importlib.import_module(f"fanobound.{short}")
        mods = {n: m for n, m in sys.modules.items() if n == "fanobound" or n.startswith("fanobound.")}
        hooks = self._hooks()
        targets: list[tuple[str, Any, Optional[Callable]]] = []
        for short in MODULES:
            mod = mods[f"fanobound.{short}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    targets.append((f"{short}.{name}", obj, hooks.get(f"{short}.{name}")))
        bindings = []
        for name, original, hook in targets:
            wrapper = self._wrap(name, original, hook)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, attr, original, wrapper))
        for name, (short, cls_name, meth) in METHODS.items():
            cls = getattr(mods[f"fanobound.{short}"], cls_name)
            original = cls.__dict__[meth]
            bindings.append((cls, meth, original, self._wrap(name, original, hooks.get(name))))
        return bindings

    def install(self) -> None:
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original, _ in reversed(self._bindings):
            setattr(holder, attr, original)

    def originals(self) -> list[tuple[Any, str, Any]]:
        return [(h, a, o) for h, a, o, _ in self._bindings]

    # -- per-function counters ---------------------------------------------

    def _hooks(self) -> dict[str, Callable]:
        """Extra counters taken from a call's arguments and result."""
        op = lambda: self.op  # noqa: E731 - the current operation at call time

        def fm_minimize(args, kwargs, result):
            cs, f = args[0], args[1]
            op().counters["derive.fm_minimize.rows_in"] += len(cs.constraints)
            op().fm_keys.add(
                (tuple((c.form.as_tuple(), c.strict) for c in cs.constraints), f.as_tuple())
            )
            return result

        def minimal_r(args, kwargs, result):
            op().counters["bounds.minimal_r.attempts"] += len(result.attempts)
            return result

        def sym_power_twists(args, kwargs, result):
            op().counters["bundle.sym_power_twists.terms"] += len(result)
            return result

        def to_json_bytes(args, kwargs, result):
            op().counters["certs.cert_bytes"] += len(result)
            return result

        def oracle_source(args, kwargs, result):
            h0 = self._wrap(ORACLE_H0, result.h0, None)
            return dataclasses.replace(result, h0=h0)

        def h0_anti(args, kwargs, result):
            if self._active[ORACLE_H0]:
                op().counters["bundle.oracle.misses"] += 1
            return result

        def solve(args, kwargs, result):
            if self._active["audit.build_audit"]:
                op().counters["audit.solves"] += 1
            return result

        return {
            "derive.fm_minimize": fm_minimize,
            "bounds.minimal_r": minimal_r,
            "bundle.sym_power_twists": sym_power_twists,
            "certs.to_json_bytes": to_json_bytes,
            "bundle.oracle_source": oracle_source,
            "bundle.h0_anti": h0_anti,
            "bounds.solve_worst_case": solve,
            "bounds.solve_oracle": solve,
        }

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack, active = self._stack, self._active
        recount = name in ("bundle.h0_anti", "hilbert.p_eval")

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0, 0.0]
            stack.append(frame)
            active[name] += 1
            start = frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][3] += dur
                self._record(name, span_id, parent, start, end, dur - frame[3], recount)
            if hook is None:
                return result
            # the hook's own bookkeeping is nobody's self time
            hook_start = perf_counter()
            result = hook(args, kwargs, result)
            if stack:
                stack[-1][3] += perf_counter() - hook_start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _record(self, name, span_id, parent, start, end, self_s, recount) -> None:
        outermost = self._active[name] == 0
        dur = end - start
        for table, key in ((self.op.layers, name), (self.op.by_command, (self.command, name))):
            row = table[key]
            row[0] += 1
            row[1] += dur if outermost else 0.0
            row[2] += self_s
        if recount and self._active["certs.verify"]:
            self.op.counters["certs.verify.recount_s"] += dur
        if len(self.spans) < self.span_budget:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped_spans += 1

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op = OpTrace()

    def end_op(self) -> OpTrace:
        done, self.op = self.op, OpTrace()
        self.op_id = None
        return done

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
