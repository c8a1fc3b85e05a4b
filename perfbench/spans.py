"""Span tracing around the library's layer boundaries, installed from the
benchmark's own files; nothing under ``src/`` is changed.

A target function is replaced at every attribute that holds it: module
globals of every loaded ``rbmzv`` module (callers that did
``from .tensor_algebra import mixable_shuffle`` look the name up in their
own module) and class attributes (``RatFuncQ.__radd__`` is the same
function as ``__add__``). Each wrapped call records a span
``(layer, start, end, parent)``; a span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (layer, module, attribute); several targets may share a layer
TARGETS = (
    ("coefficients.poly_gcd", "rbmzv.coefficients", "poly_gcd"),
    ("coefficients.ratfunc", "rbmzv.coefficients", "RatFuncQ.__add__"),
    ("coefficients.ratfunc", "rbmzv.coefficients", "RatFuncQ.__mul__"),
    ("tensor_algebra.mixable_shuffle", "rbmzv.tensor_algebra", "mixable_shuffle"),
    ("tensor_algebra.sha_mul", "rbmzv.tensor_algebra", "ShaElement.__mul__"),
    ("mzv_calculus.stuffle", "rbmzv.mzv_calculus", "stuffle"),
    ("mzv_calculus.shuffle_zeta", "rbmzv.mzv_calculus", "shuffle_zeta"),
    ("mzv_calculus.q_stuffle", "rbmzv.mzv_calculus", "q_stuffle"),
    ("mzv_calculus.relations", "rbmzv.mzv_calculus", "double_shuffle_relation"),
    ("mzv_calculus.relations", "rbmzv.mzv_calculus", "hoffman_partition_relation"),
    ("mzv_calculus.relations", "rbmzv.mzv_calculus", "spitzer_zeta_relation"),
    ("mzv_calculus.relations", "rbmzv.mzv_calculus", "congruence_zeta_relation"),
    ("identity_engine.checks", "rbmzv.identity_engine", "spitzer_check"),
    ("identity_engine.checks", "rbmzv.identity_engine", "exp_star_log_check"),
    ("identity_engine.checks", "rbmzv.identity_engine", "bohnenblust_spitzer_check"),
    ("identity_engine.checks", "rbmzv.identity_engine", "congruence_check"),
    ("operator_gallery.defects", "rbmzv.operator_gallery", "jackson_defect"),
    ("operator_gallery.defects", "rbmzv.operator_gallery", "rb_defect"),
    ("numeric_eval.zeta_num", "rbmzv.numeric_eval", "zeta_num"),
    ("numeric_eval.mpl_num", "rbmzv.numeric_eval", "mpl_num"),
    ("numeric_eval.qmzv_num", "rbmzv.numeric_eval", "qmzv_num"),
    ("cli.build_corpus", "rbmzv.cli", "build_corpus"),
    ("cli.canonical_json", "rbmzv.cli", "canonical_json"),
)

#: layers whose recursive calls are folded into the outermost span
OUTERMOST_ONLY = {"cli.canonical_json"}

#: element size of the arrays each numeric evaluator materialises
_ITEMSIZE = {"numeric_eval.zeta_num": 8, "numeric_eval.mpl_num": 16,
             "numeric_eval.qmzv_num": 8}


def _resolve(module, path):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = obj.__dict__.get(part) if hasattr(obj, "__dict__") else None
    return obj


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[tuple] = []  # (layer id, start ns, end ns, parent)
        self.stack: list[int] = []
        self.open = []  # open span count per layer id
        self.active = False
        self.calls_seen: set = set()
        self.extra: dict = {}  # (layer, counter) -> value
        self.observer_ns: dict = {}  # span index -> time spent in observers
        self.missing: list[str] = []

    def _layer_id(self, layer):
        if layer not in self.layers:
            self.layers.append(layer)
            self.open.append(0)
        return self.layers.index(layer)

    def install(self):
        """Wrap every target at every ``rbmzv`` attribute that holds it."""
        owners = []
        for name, mod in list(sys.modules.items()):
            if name == "rbmzv" or name.startswith("rbmzv."):
                owners.append(mod)
                owners.extend(v for v in vars(mod).values()
                              if isinstance(v, type)
                              and getattr(v, "__module__", "").startswith("rbmzv"))
        for layer, module, path in TARGETS:
            fn = _resolve(module, path)
            if fn is None:
                if module in sys.modules:
                    self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(self._layer_id(layer), fn)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, wrapper)

    def _wrap(self, lid, fn):
        layer = self.layers[lid]
        outermost = layer in OUTERMOST_ONLY
        observe = self._observer(layer, fn)
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (outermost and open_[lid]):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[lid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[lid] -= 1
                spans[idx] = (lid, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
                if parent >= 0:
                    # counted as child time, so it is not the parent's self time
                    self.observer_ns[parent] = (self.observer_ns.get(parent, 0)
                                                + clock() - end)
            return result

        return wrapper

    def _bump(self, layer, counter, value):
        key = (layer, counter)
        self.extra[key] = self.extra.get(key, 0) + value

    def _observer(self, layer, fn):
        """Per-call counters measured at the boundary, outside the span."""
        if layer == "tensor_algebra.mixable_shuffle":
            sig = inspect.signature(fn)

            def observe(args, kwargs, result):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                system, weight = a.get("system"), a.get("weight")
                key = (type(system).__qualname__, getattr(system, "name", None),
                       tuple(a.get("a", ())), tuple(a.get("b", ())),
                       type(weight).__qualname__, repr(weight))
                if key in self.calls_seen:
                    self._bump(layer, "repeats", 1)
                self.calls_seen.add(key)
                self._bump(layer, "terms_out", len(result))

            return observe
        if layer in _ITEMSIZE:
            sig = inspect.signature(fn)
            itemsize = _ITEMSIZE[layer]
            size_attr = "K" if layer == "numeric_eval.qmzv_num" else "N"

            def observe(args, kwargs, result):
                b = sig.bind(*args, **kwargs)
                cfg = b.arguments.get("cfg")
                n = getattr(cfg, size_attr) if cfg is not None else None
                if n is None:
                    from rbmzv.numeric_eval import EvalConfig
                    n = getattr(EvalConfig(), size_attr)
                depth = len(b.arguments.get("s", ()))
                self._bump(layer, "terms", depth * n)
                # computed, not measured: one index array plus four arrays
                # per depth level (term, product, prefix sum, shifted sum)
                self._bump(layer, "bytes", itemsize * n * (1 + 4 * depth))

            return observe
        return None

    def summary(self) -> dict:
        """Per layer: calls, total self ns and total inclusive ns."""
        child = [self.observer_ns.get(i, 0) for i in range(len(self.spans))]
        for lid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "self_ns": 0, "incl_ns": 0}
               for layer in self.layers}
        for i, (lid, start, end, parent) in enumerate(self.spans):
            agg = out[self.layers[lid]]
            agg["calls"] += 1
            agg["self_ns"] += end - start - child[i]
            agg["incl_ns"] += end - start
        for (layer, counter), value in self.extra.items():
            out[layer][counter] = value
        return out
