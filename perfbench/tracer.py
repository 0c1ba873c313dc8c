"""Outside-in tracing: spans around the calls into each layer of the package.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds each ``from .x import y`` alias of it across the ``hessecubic.*``
namespaces, plus ``PolyMatrix.__matmul__`` and ``PolyMatrix.to_json`` on the
class.  ``MultiPoly`` arithmetic is left alone: it is too fine-grained to
trace, so its time is self time of the function that called it.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "hessecubic"
LAYERS = ("theta", "curve", "moore", "poly", "bundles", "report", "latexfmt", "cli")
CLASS_METHODS = (("poly", "PolyMatrix", "__matmul__", "matmul"),
                 ("poly", "PolyMatrix", "to_json", "to_json"))


def hesse_power_terms(n: int) -> int:
    """Monomials of w^n for generic psi: products of x_i^3 and x0*x1*x2."""
    exps = set()
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for l in range(n + 1 - i - j):
                m = n - i - j - l
                exps.add((3 * i + m, 3 * j + m, 3 * l + m))
    return len(exps)


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "layer.function"
        self._patches: list[tuple] = []   # (owner, attr, original, traced)
        self.req = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.error = array("b")
        self._stack: list[int] = []
        self._request = -1
        self._theta_keys: set = set()
        self.theta_distinct = 0
        self.det_terms = 0
        self.det_expected = 0

    # -- patching -----------------------------------------------------------
    def _wrap(self, label: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(label)
        clock = time.perf_counter
        stack = self._stack
        t0s, t1s, parents, names, reqs, errors = (self.t0, self.t1, self.parent,
                                                  self.name, self.req, self.error)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0s)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            reqs.append(self._request)
            errors.append(0)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                t1s[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _theta_hook(self, args, kwargs, result):
        index, z, ctx = args[:3]
        order = args[3] if len(args) > 3 else kwargs.get("order", 0)
        self._theta_keys.add((index, complex(z), order, complex(ctx.tau)))

    def _det_hook(self, args, kwargs, result):
        terms = getattr(result, "terms", None)
        rows = getattr(args[0], "rows", 0)
        if terms is not None and rows % 3 == 0:
            self.det_terms += len(terms)
            self.det_expected += hesse_power_terms(rows // 3)

    def _build(self):
        hooks = {("theta", "theta_eval"): self._theta_hook, ("poly", "det"): self._det_hook}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:  # a layer the package no longer has
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn, hooks.get((layer, attr)))
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, alias, fn, traced))
        for layer, cls_name, attr, label in CLASS_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self._patches.append((cls, attr, fn, self._wrap(f"{layer}.{label}", fn)))

    def install(self):
        if not self._patches:
            self._build()
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- requests -----------------------------------------------------------
    def begin(self, request: int):
        self._request = request
        self._theta_keys.clear()

    def end(self):
        self.theta_distinct += len(self._theta_keys)
        self._theta_keys.clear()
        self._request = -1

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Self seconds per span: its duration minus its direct children's."""
        t0 = np.frombuffer(self.t0, dtype=float)
        dur = np.frombuffer(self.t1, dtype=float) - t0
        parent = np.array(self.parent, dtype=np.int64)
        has = parent >= 0
        return dur - np.bincount(parent[has], weights=dur[has], minlength=len(dur))

    def totals(self, request_scale: np.ndarray) -> dict[str, dict[str, float]]:
        """Per "layer.function": calls, self seconds and calls that raised.

        Each span's self time is multiplied by the scale of its request.
        """
        names = np.array(self.name, dtype=np.int64)
        self_s = self.self_times() * request_scale[np.array(self.req, dtype=np.int64)]
        calls = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_s, minlength=len(self.names))
        errs = np.bincount(names, weights=np.array(self.error, dtype=float),
                           minlength=len(self.names))
        return {label: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                        "errors": int(errs[i])}
                for i, label in enumerate(self.names)}

    def write(self, path):
        """One JSON array per span: request, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.t0)):
                fh.write(f"[{self.req[sid]},{sid},{self.parent[sid]},{self.name[sid]},"
                         f"{self.t0[sid]!r},{self.t1[sid]!r}]\n")
