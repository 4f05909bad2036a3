"""Outside-in tracer for fermatrc.

The tracer patches the program from the outside: no file of the package
changes.  While installed it replaces

* every public function of each layer module with a span wrapper, in every
  ``fermatrc`` namespace that binds the same function object (``search``
  imports ``classify``, ``validate``, ``expand_F`` and ``mult_matrix`` by
  name, ``classify`` imports ``tx_pipeline``, and the package re-exports
  most of them);
* the named methods in ``SPAN_METHODS`` on their class, with span wrappers;
* the scalar operations of ``FieldCtx`` with a bare call counter, because a
  span around each of millions of scalar calls would cost more than the
  call itself.

Spans are aggregated as they close instead of being stored: each open span
keeps the time its direct children covered, so a span's self time is its
duration minus that child time, which is what the span tree would give.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# The modules that do measurable work; ``rng`` and ``errors`` do not.
LAYERS = ("ff", "forms", "linalg", "splitbundle", "fermat", "classify", "search", "cli")

# (module, class, method) wrapped with a span on the class itself.
SPAN_METHODS = (
    ("ff", "FieldCtx", "_build_tables"),
    ("forms", "Form", "__mul__"),
    ("forms", "Form", "frob_power"),
    ("forms", "Form", "substitute"),
    ("linalg", "Echelon", "add"),
)

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "pow")


def _module(layer: str):
    # Read modules from sys.modules: ``fermatrc.classify`` as an attribute
    # is the re-exported function, not the module.
    return sys.modules[f"fermatrc.{layer}"]


def public_functions(layer: str) -> dict:
    """Public functions defined in a layer module, by name."""
    mod = _module(layer)
    return {
        name: obj
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == mod.__name__
    }


class Stats:
    """Per-span totals: calls, total time (outermost activations), self time."""

    __slots__ = ("calls", "total_s", "self_s", "depth", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.hits = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self):
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.scalar_ops = 0
        self.rref_cells = 0
        self.alt_above_e2 = [0, 0]  # calls, hits of alternating_solve at e > 2
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # span bookkeeping

    def _span(self, name: str, fn, outcome=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if stats.depth == 0:
                    stats.total_s += dt
                if outcome is not None:
                    outcome(stats, args, result if ok else None, ok)

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.scalar_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    # outcome hooks for the ratio metrics

    def _echelon_outcome(self, stats, args, result, ok):
        if ok and result:
            stats.hits += 1

    def _validate_outcome(self, stats, args, result, ok):
        if ok:
            stats.hits += 1

    def _alternating_outcome(self, stats, args, result, ok):
        hit = ok and result is not None
        stats.hits += hit
        if args[0].e > 2:
            self.alt_above_e2[0] += 1
            self.alt_above_e2[1] += hit

    def _rref_cells(self, fn):
        @functools.wraps(fn)
        def wrapper(ctx, mat, *args, **kwargs):
            rows, cols = np.shape(mat)
            self.rref_cells += rows * cols
            return fn(ctx, mat, *args, **kwargs)

        return wrapper

    # installation

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        outcomes = {
            "fermat.validate": self._validate_outcome,
            "search.alternating_solve": self._alternating_outcome,
        }
        namespaces = [sys.modules["fermatrc"]] + [_module(layer) for layer in LAYERS]
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                name = f"{layer}.{fname}"
                wrapped = self._span(name, fn, outcomes.get(name))
                if name == "linalg.rref":
                    wrapped = self._rref_cells(wrapped)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._set(ns, bound, wrapped)
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(_module(layer), cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            outcome = self._echelon_outcome if name == "linalg.Echelon.add" else None
            self._set(cls, meth, self._span(name, vars(cls)[meth], outcome))
        field_ctx = _module("ff").FieldCtx
        for op in SCALAR_OPS:
            self._set(field_ctx, op, self._counter(vars(field_ctx)[op]))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # results

    def counts(self) -> dict:
        """The exact work counts that must repeat run to run."""
        s = self.stats
        return {
            "linalg.rref.cells": self.rref_cells,
            "splitbundle.h0.calls": s["splitbundle.h0"].calls,
            "fermat.validate.calls": s["fermat.validate"].calls,
            "linalg.Echelon.add.calls": s["linalg.Echelon.add"].calls,
            "ff.FieldCtx.scalar_ops": self.scalar_ops,
        }

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out


# Per-layer metrics as (name, unit, better).  A name is "<span>.<stat>"
# unless listed in _SPECIAL; "<layer>.self_s" sums a layer's self time.
PER_LAYER = (
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.Echelon.add.calls", "count", "lower"),
    ("linalg.Echelon.add.self_s", "s", "lower"),
    ("linalg.Echelon.add.hit_ratio", "ratio", "higher"),
    ("linalg.kernel_basis.self_s", "s", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("splitbundle.module_generators.calls", "count", "lower"),
    ("splitbundle.module_generators.self_s", "s", "lower"),
    ("splitbundle.module_generators.total_s", "s", "lower"),
    ("splitbundle.h0.calls", "count", "lower"),
    ("splitbundle.splitting_type.total_s", "s", "lower"),
    ("splitbundle.coordinates_in_basis.total_s", "s", "lower"),
    ("splitbundle.h0_tx_direct.total_s", "s", "lower"),
    ("splitbundle.mult_matrix.self_s", "s", "lower"),
    ("splitbundle.tx_pipeline.total_s", "s", "lower"),
    ("classify.classify.calls", "count", "higher"),
    ("classify.classify.total_s", "s", "lower"),
    ("ff.FieldCtx.scalar_ops", "count", "lower"),
    ("ff.FieldCtx.tables.build_s", "s", "lower"),
    ("fermat.expand_F.calls", "count", "lower"),
    ("fermat.expand_F.self_s", "s", "lower"),
    ("forms.Form.__mul__.calls", "count", "lower"),
    ("forms.Form.__mul__.self_s", "s", "lower"),
    ("forms.Form.frob_power.calls", "count", "lower"),
    ("forms.Form.frob_power.self_s", "s", "lower"),
    ("forms.form_gcd.calls", "count", "lower"),
    ("forms.form_gcd.self_s", "s", "lower"),
    ("forms.Form.substitute.self_s", "s", "lower"),
    ("fermat.validate.calls", "count", "lower"),
    ("fermat.validate.self_s", "s", "lower"),
    ("fermat.validate.accept_ratio", "ratio", "higher"),
    ("search.exhaustive_scan.total_s", "s", "lower"),
    ("search.projective_key.calls", "count", "lower"),
    ("search.projective_key.self_s", "s", "lower"),
    ("search.alternating_solve.calls", "count", "lower"),
    ("search.alternating_solve.total_s", "s", "lower"),
    ("search.alternating_solve.hit_ratio", "ratio", "higher"),
    ("search.alternating_solve.calls_above_e2", "count", "lower"),
    ("search.alternating_solve.hits_above_e2", "count", "higher"),
    ("search.enumerate_standard_lines.total_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("fermat.compose_cover.total_s", "s", "lower"),
    ("search.random_cover_family.total_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)

_SPECIAL = {
    "linalg.rref.cells": lambda tr: tr.rref_cells,
    "ff.FieldCtx.scalar_ops": lambda tr: tr.scalar_ops,
    "ff.FieldCtx.tables.build_s": lambda tr: tr.stats["ff.FieldCtx._build_tables"].total_s,
    "search.alternating_solve.calls_above_e2": lambda tr: tr.alt_above_e2[0],
    "search.alternating_solve.hits_above_e2": lambda tr: tr.alt_above_e2[1],
}


def layer_metrics(tr: Tracer) -> dict:
    """Value of every PER_LAYER metric for what ``tr`` recorded."""
    layers = tr.layer_self_s()
    out = {}
    for name, _, _ in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if name in _SPECIAL:
            value = _SPECIAL[name](tr)
        elif span in layers:
            value = layers[span]
        elif stat in ("hit_ratio", "accept_ratio"):
            st = tr.stats[span]
            value = st.hits / st.calls if st.calls else 0.0
        else:
            value = getattr(tr.stats[span], stat)
        out[name] = value
    return out
