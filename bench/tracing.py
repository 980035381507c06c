"""Spans and counters taken from outside the program, by wrapping its functions.

`Tracer.install` replaces each hooked function wherever the program looks
it up: in its defining module, in every `sarxid` module that imported it by
name, and on its class for methods.  `uninstall` puts the originals back.
Spans (name, parent, start, end) stay in memory in one list and are
written out by `write`; per-layer metrics are computed from them.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute path, span name).  The cli's analysis entry points are
# hooked so that `cli.main` minus its children is parsing, loading and
# rendering only.
SPANS = (
    ("sarxid.cli", "main", "cli.main"),
    ("sarxid.groebner", "buchberger", "groebner.buchberger"),
    ("sarxid.groebner", "normal_form", "groebner.normal_form"),
    ("sarxid.identifiability", "symbolic_theorem2", "identifiability.symbolic_theorem2"),
    ("sarxid.identifiability", "procedure1", "identifiability.procedure1"),
    ("sarxid.identifiability", "genericity_witness", "identifiability.genericity_witness"),
    ("sarxid.linalg", "RatMatrix.rref", "linalg.rref"),
    ("sarxid.linalg", "RatMatrix.determinant", "linalg.determinant"),
    ("sarxid.linalg", "RatMatrix.__matmul__", "linalg.matmul"),
    ("sarxid.linalg", "solve_affine", "linalg.solve_affine"),
    ("sarxid.lss", "associated_lss", "lss.associated_lss"),
    ("sarxid.lss", "reachable_span", "lss.reachable_span"),
    ("sarxid.lss", "unobservable_space", "lss.unobservable_space"),
    ("sarxid.lss", "find_isomorphisms", "lss.find_isomorphisms"),
    ("sarxid.lss", "simulate_lss", "lss.simulate_lss"),
    ("sarxid.minimality", "theorem2_polynomials", "minimality.theorem2"),
    ("sarxid.minimality", "check_strong_minimality", "minimality.check_strong_minimality"),
    ("sarxid.unipoly", "is_coprime", "unipoly.is_coprime"),
    ("sarxid.sarx", "simulate_sarx", "sarx.simulate_sarx"),
)
# Called far too often for a span each; counted only.
COUNTS = (("sarxid.multipoly", "MonomialOrder.key", "multipoly.order_key"),)

# Per-layer metrics: name -> (unit, how to compute).  "calls"/"total"/"self"
# are per traced pass; "max" is over the run; "stat" reads an observation.
PER_LAYER = {
    "groebner.buchberger_calls": ("count", "calls", "groebner.buchberger"),
    "groebner.buchberger_s": ("s", "total", "groebner.buchberger"),
    "groebner.buchberger_max_s": ("s", "max", "groebner.buchberger"),
    "groebner.normal_form_calls": ("count", "calls", "groebner.normal_form"),
    "groebner.normal_form_s": ("s", "total", "groebner.normal_form"),
    "groebner.nf_zero_frac": ("ratio", "stat", "nf_zero_frac"),
    "groebner.max_coeff_bits": ("bits", "stat", "max_coeff_bits"),
    "multipoly.order_key_calls": ("count", "count", "multipoly.order_key"),
    "identifiability.symbolic_theorem2_s": ("s", "total", "identifiability.symbolic_theorem2"),
    "identifiability.procedure1_self_s": ("s", "self", "identifiability.procedure1"),
    "identifiability.genericity_witness_s": ("s", "total", "identifiability.genericity_witness"),
    "linalg.rref_calls": ("count", "calls", "linalg.rref"),
    "linalg.rref_s": ("s", "total", "linalg.rref"),
    "linalg.rref_cells": ("count", "count", "rref_cells"),
    "linalg.rref_max_rows": ("count", "stat", "rref_max_rows"),
    "linalg.determinant_calls": ("count", "calls", "linalg.determinant"),
    "linalg.determinant_s": ("s", "total", "linalg.determinant"),
    "linalg.matmul_calls": ("count", "calls", "linalg.matmul"),
    "linalg.matmul_s": ("s", "total", "linalg.matmul"),
    "lss.reachable_span_s": ("s", "total", "lss.reachable_span"),
    "lss.unobservable_space_s": ("s", "total", "lss.unobservable_space"),
    "lss.unobservable_rref_max_rows": ("count", "stat", "unobservable_rref_max_rows"),
    "lss.find_isomorphisms_s": ("s", "total", "lss.find_isomorphisms"),
    "lss.iso_system_cells": ("count", "count", "iso_system_cells"),
    "lss.simulate_lss_s": ("s", "total", "lss.simulate_lss"),
    "minimality.theorem2_s": ("s", "total", "minimality.theorem2"),
    "unipoly.is_coprime_calls": ("count", "calls", "unipoly.is_coprime"),
    "unipoly.is_coprime_s": ("s", "total", "unipoly.is_coprime"),
    "sarx.simulate_sarx_s": ("s", "total", "sarx.simulate_sarx"),
    "cli.self_s": ("s", "self", "cli.main"),
}


def _coeff_bits(poly):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in SPANS]
        self.spans = []  # (name, parent index or -1, start, end)
        self._stack = []
        self._open = dict.fromkeys(self.names, 0)
        self.counts = {}
        self.stats = {"max_coeff_bits": 0, "rref_max_rows": 0, "unobservable_rref_max_rows": 0}
        self._nf_zero = 0
        self._saved = []

    # -- hooks ----------------------------------------------------------

    def _observe(self, name, args, result):
        if name == "groebner.normal_form":
            if result.is_zero():
                self._nf_zero += 1
            else:
                self._max("max_coeff_bits", _coeff_bits(result))
        elif name == "groebner.buchberger":
            for g in result:
                self._max("max_coeff_bits", _coeff_bits(g))
        elif name == "linalg.rref":
            m = args[0]
            self._add("rref_cells", m.rows * m.cols)
            self._max("rref_max_rows", m.rows)
            if self._open["lss.unobservable_space"]:
                self._max("unobservable_rref_max_rows", m.rows)
        elif name == "linalg.solve_affine":
            if self._open["lss.find_isomorphisms"]:
                a = args[0]
                self._add("iso_system_cells", a.rows * a.cols)

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key, value):
        if value > self.stats[key]:
            self.stats[key] = value

    def _span(self, fn, name):
        observed = name in (
            "groebner.normal_form", "groebner.buchberger", "linalg.rref", "linalg.solve_affine"
        )
        spans, stack, is_open = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            is_open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, parent, start, perf_counter())
                is_open[name] -= 1
                stack.pop()
            if observed:
                self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sarxid" or n.startswith("sarxid.")]
        for hooks, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, path, name in hooks:
                holder = sys.modules[module]
                *owner, attr = path.split(".")
                for part in owner:
                    holder = getattr(holder, part)
                original = holder.__dict__[attr]
                wrapped = make(original, name)
                self._replace(holder, attr, wrapped)
                if not owner:
                    # callers that imported the function by name hold their own reference
                    for mod in modules:
                        if mod is not holder and mod.__dict__.get(attr) is original:
                            self._replace(mod, attr, wrapped)

    def _replace(self, holder, attr, value):
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # -- results --------------------------------------------------------

    def aggregate(self, duration):
        """Per span name: calls, inclusive total, self time and longest span.

        `duration(start, end)` turns a span's perf_counter interval into seconds.
        """
        dur = [duration(start, end) for _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0} for name in self.names}
        for i, (name, _, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total"] += dur[i]
            agg["self"] += dur[i] - child[i]
            agg["max"] = max(agg["max"], dur[i])
        return out

    def per_layer(self, passes, duration):
        """PER_LAYER metrics, with counts and times divided by `passes`."""
        agg = self.aggregate(duration)
        nf_calls = agg["groebner.normal_form"]["calls"]
        stats = dict(self.stats, nf_zero_frac=self._nf_zero / nf_calls if nf_calls else 0.0)
        metrics = {}
        for metric, (unit, how, key) in PER_LAYER.items():
            if how == "stat":
                value = stats[key]
            elif how == "count":
                value = self.counts.get(key, 0) / passes
            elif how == "max":
                value = agg[key]["max"]
            else:
                value = agg[key][how] / passes
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write(self, path):
        """Spans as one JSON list of [name, parent, start, end]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
