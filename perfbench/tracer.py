"""Outside-in span tracer for braidrep.

The tracer wraps the public functions of the layer modules, and a named set
of methods, from outside: nothing under ``src/`` changes.  Each call records
a span (name, start, end, parent span, op id) in flat in-memory arrays; the
spans are written out and reduced to per-layer metrics after the run.

Two features of the package decide how wrappers are installed:

* modules import functions from each other by name (``alexander`` holds its
  own ``reduced_burau`` and ``exact_div``, ``kz`` its own ``omega_matrix``),
  so every module-level reference to a wrapped function is rebound, not just
  the defining one;
* ``braidrep.burau`` on the package is the function, which shadows the
  submodule, so modules are taken from ``sys.modules``.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

LAYERS = ("words", "laurent", "burau", "alexander", "yang_baxter", "verma", "kz", "cli")

# Leaf helpers called once per matrix entry; wrapping them would make the
# tracer's own cost the largest item in the Verma build.
SKIP = {"verma.as_scalar", "verma.verma_act"}

# (module, class, method, span name): the methods that carry layer work
METHODS = (
    ("laurent", "RingMatrix", "__matmul__", "laurent.matmul"),
    ("laurent", "RingMatrix", "det", "laurent.det"),
    ("laurent", "RingMatrix", "adjugate", "laurent.adjugate"),
    ("laurent", "RingMatrix", "inverse_unit_det", "laurent.inverse_unit_det"),
    ("laurent", "LaurentPoly", "substitute_hom", "laurent.substitute"),
    ("words", "BraidWord", "parse", "words.parse"),
    ("words", "BraidWord", "free_reduce", "words.free_reduce"),
    ("words", "BraidWord", "inverse", "words.inverse"),
    ("yang_baxter", "RMatrixSpec", "inverse_matrix", "yang_baxter.inverse_matrix"),
    ("kz", "KzSystem", "__init__", "kz.system_build"),
    ("kz", "KzSystem", "connection", "kz.connection"),
)

RENAME = {
    "laurent.substitute_hom": "laurent.substitute",
    "kz.generator_path": "kz.path_eval",
}

OP_SPAN = "op"


def _reduced_generator_name(args, kwargs) -> str:
    sign = args[2] if len(args) > 2 else kwargs.get("sign", 1)
    return "burau.generator_inv" if sign == -1 else "burau.generator_pos"


DYNAMIC = {"burau.reduced_generator": _reduced_generator_name}


def poly_size(p) -> tuple:
    """(terms, largest coefficient bit length) of a Laurent polynomial."""
    bits = 0
    for c in p.terms.values():
        if isinstance(c, Fraction):
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            bits = max(bits, abs(c).bit_length())
    return len(p.terms), bits


class Tracer:
    """In-memory span store plus the counters read from call results."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.op_id = -1
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.basis_kept = 0
        self.basis_enumerated = 0
        self._restore: list = []

    def name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn, arg):
        """Run one op under a root span."""
        self.op_id = op_id
        idx = self.begin(self.name_index(OP_SPAN))
        try:
            return fn(arg)
        finally:
            self.finish(idx)

    def wrap(self, fn, name, post=None):
        """A wrapper recording one span per call of ``fn``.  ``name`` is a
        span name or a function of (args, kwargs) giving one; ``post`` may
        inspect or replace the result, outside the span."""
        begin, finish = self.begin, self.finish
        # A fixed name is resolved once here, not per call: exact_div alone
        # runs about 10^4 times per large conway op.
        if callable(name):
            pick, index = name, self.name_index

            def wrapper(*args, **kwargs):
                idx = begin(index(pick(args, kwargs)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(idx)

        else:
            nid = self.name_index(name)

            def wrapper(*args, **kwargs):
                idx = begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(idx)
                return post(args, kwargs, result) if post else result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks -----------------------------------------------------

    def note_poly(self, p) -> None:
        terms, bits = poly_size(p)
        self.max_terms = max(self.max_terms, terms)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _post_det(self, args, kwargs, result):
        self.note_poly(result)
        return result

    def _post_weight_basis(self, args, kwargs, result):
        n = args[0] if args else kwargs["n"]
        m = args[2] if len(args) > 2 else kwargs["m"]
        self.basis_kept += len(result)
        if m >= 0:
            self.basis_enumerated += (m + 1) ** n
        return result

    def _post_generator_path(self, args, kwargs, path):
        kz = sys.modules["braidrep.kz"]
        segments = tuple(
            kz.PathSegment(
                self.wrap(seg.position, "kz.path_eval"), self.wrap(seg.velocity, "kz.path_eval")
            )
            for seg in path.segments
        )
        return kz.ConfigPath(path.n, segments)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules and the METHODS,
        then rebind every module-level reference to a wrapped function."""
        import braidrep.cli  # noqa: F401  (loads every layer module)
        import braidrep.yang_baxter  # noqa: F401

        posts = {
            "laurent.det": self._post_det,
            "verma.weight_space_basis": self._post_weight_basis,
            "kz.path_eval": self._post_generator_path,
        }
        wrapped: dict = {}
        for short in LAYERS:
            mod = sys.modules[f"braidrep.{short}"]
            for attr, obj in vars(mod).items():
                key = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or key in SKIP
                ):
                    continue
                name = DYNAMIC.get(key) or RENAME.get(key, key)
                wrapped[obj] = self.wrap(obj, name, posts.get(name))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"braidrep.{short}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, posts.get(name)))
            else:
                new = self.wrap(raw, name, posts.get(name))
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "braidrep" and not mod_name.startswith("braidrep."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.arrays())


class SpanSummary:
    """Per-name call counts, self times and outermost total times derived
    from the spans.  Self time is a span's duration minus the durations of
    its direct children."""

    def __init__(self, spans: dict):
        self.names = [str(x) for x in spans["names"]]
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.self_time = dur - child
        self.duration = dur
        self._nid, self._parent, self._op = nid, parent, spans["op"]
        k = len(self.names)
        self._calls = np.bincount(nid, minlength=k)
        self._self = np.bincount(nid, weights=self.self_time, minlength=k)

    def _index(self, name: str):
        return self.names.index(name) if name in self.names else None

    def calls(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, *names: str) -> float:
        return float(sum(self._self[i] for i in map(self._index, names) if i is not None))

    def total_s(self, name: str, ops=None) -> float:
        """Summed duration of the spans of ``name`` not nested in another
        span of the same name, optionally only within the given op ids."""
        i = self._index(name)
        if i is None:
            return 0.0
        total = 0.0
        for s in np.flatnonzero(self._nid == i):
            if ops is not None and int(self._op[s]) not in ops:
                continue
            p = self._parent[s]
            while p >= 0 and self._nid[p] != i:
                p = self._parent[p]
            if p < 0:
                total += float(self.duration[s])
        return total

    def prefix_self_s(self, prefix: str) -> float:
        return self.self_s(*(n for n in self.names if n.startswith(prefix)))

    def op_seconds(self, ops=None) -> float:
        return self.total_s(OP_SPAN, ops)

    def op_self_sums(self) -> dict:
        """op id -> (root span duration, sum of self times in the op)."""
        out = {}
        root = self._index(OP_SPAN)
        for op_id in np.unique(self._op):
            sel = self._op == op_id
            roots = sel & (self._nid == root)
            out[int(op_id)] = (float(self.duration[roots].sum()), float(self.self_time[sel].sum()))
        return out
