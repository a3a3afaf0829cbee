"""Spans and counters for the benchmark's traced run, recorded from outside
the library.

``Tracer.install`` wraps the public functions and methods of each layer
(the modules of ``src/qorbits``) and rebinds every module attribute and
module-level dict entry that refers to the original, because names such as
``embed_on_legs`` are imported into several modules.  Each wrapped call is a
span whose parent is the span open when it was called; a span's self time is
its duration minus the time its child spans cover.  Spans are aggregated in
memory by (parent, name) edge, which keeps the caller relation at a bounded
cost, and written out when the run ends.

QScalar ``+ - * /`` are counted but not timed: a span around every scalar
operation would cost more than the operation.  Matrix products additionally
record their output fill and, for symbolic entries, the Laurent share and the
largest denominator degree.  Projector requests are keyed by the content of
the R-matrix, the kind (S or A) and the level m, and count as repeats when
the same key was already requested within the same op.

Counts depend only on the work done, never on timing, so two traced runs of
one batch give identical counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from qorbits import tensor
from qorbits.scalars import QScalar

LAYERS = ("scalars", "tensor", "hecke", "projectors", "reps", "casimir",
          "identities", "orbits", "euler", "cli")

# Span names the benchmark's metrics refer to, by (layer, qualified name).
RENAMES = {
    ("tensor", "Mat.__mul__"): "tensor.matmul",
    ("tensor", "Mat.kron"): "tensor.kron",
    ("tensor", "embed_on_legs"): "tensor.embed",
    ("hecke", "HeckeSymmetry.__init__"): "hecke.build",
    ("orbits", "conjecture_scan"): "orbits.scan",
    ("cli", "CheckRecorder.run"): "cli.checks",
}

# Dunder methods that do a layer's work (other dunders only delegate).
DUNDERS = {
    "tensor": {"Mat": ("__mul__", "__add__", "__sub__", "__neg__", "__eq__")},
    "hecke": {"HeckeSymmetry": ("__init__",)},
}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")

PROJECTOR_KINDS = {"q_symmetrizer": "S", "symmetrizer_tower": "S",
                   "q_antisymmetrizer": "A", "antisymmetrizer_tower": "A"}


def _layer_modules():
    return {layer: sys.modules[f"qorbits.{layer}"] for layer in LAYERS}


class Tracer:
    """Wraps the library's layers; ``install`` and ``uninstall`` bracket a run."""

    def __init__(self):
        self._undo = []
        self._originals = []
        self._stack = []
        self.spans = {}           # name -> [calls, total_s, self_s]
        self.edges = {}           # (parent, name) -> [calls, total_s, self_s]
        self.scalar_ops = 0
        self._scalar_depth = 0
        self.product_entries = 0
        self.product_nonzeros = 0
        self.symbolic_nonzeros = 0
        self.laurent_nonzeros = 0
        self.max_den_deg = 0
        self.max_dim = 0
        self.requests = 0
        self.repeats = 0
        self.max_legs = 0
        self._requested = set()
        self._fingerprints = {}

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for layer, mod in _layer_modules().items():
            if layer == "scalars":
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(layer, mod, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for name in SCALAR_OPS:
            self._patch(QScalar, name, self._counting(getattr(QScalar, name)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._originals.clear()

    def unpatched_bindings(self) -> list:
        """Module bindings still referring to a wrapped original."""
        originals = {id(f) for f in self._originals}
        return [f"{mod.__name__}.{name}" for mod in self._binding_modules()
                for name, obj in vars(mod).items() if id(obj) in originals]

    def _binding_modules(self):
        return [m for n, m in list(sys.modules.items())
                if n == "qorbits" or n.startswith("qorbits.")]

    def _patch(self, owner, name, value):
        old = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _wrap_function(self, layer, mod, name, fn):
        wrapper = self._wrapper(RENAMES.get((layer, name), f"{layer}.{name}"),
                                fn, name)
        self._originals.append(fn)
        for target in self._binding_modules():
            for key, val in list(vars(target).items()):
                if val is fn:
                    self._patch(target, key, wrapper)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        if dval is fn:
                            val[dkey] = wrapper
                            self._undo.append(
                                lambda d=val, k=dkey: d.__setitem__(k, fn))

    def _wrap_class(self, layer, cls):
        extra = DUNDERS.get(layer, {}).get(cls.__name__, ())
        for name, val in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            qual = f"{cls.__name__}.{name}"
            span = RENAMES.get((layer, qual), f"{layer}.{qual}")
            if isinstance(val, staticmethod):
                self._patch(cls, name, staticmethod(
                    self._wrapper(span, val.__func__, name)))
            elif inspect.isfunction(val):
                self._patch(cls, name, self._wrapper(span, val, name))

    # -- wrappers ------------------------------------------------------------
    def _wrapper(self, span, fn, name):
        after = None
        if span == "tensor.matmul":
            after = self._after_product
        elif name in PROJECTOR_KINDS:
            kind = PROJECTOR_KINDS[name]
            if inspect.isgeneratorfunction(fn):
                return self._generator_wrapper(span, fn, kind)
            after = lambda args, out: self._request(args[0].r, kind, args[1], out)
        elif span.startswith("tensor."):
            after = self._after_tensor
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            end = None
            try:
                out = fn(*args, **kwargs)
                end = clock()
                if after is not None:
                    after(args, out)
                return out
            finally:
                now = clock()
                stack.pop()
                self._close(span, start, end or now, frame[0], now - start)
        return wrapper

    def _generator_wrapper(self, span, fn, kind):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(r, *args, **kwargs):
            gen = fn(r, *args, **kwargs)
            try:
                while True:
                    frame = [0.0, span]
                    stack.append(frame)
                    start = clock()
                    try:
                        m, op = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        self._close(span, start, end, frame[0], end - start)
                    self._request(r, kind, m, op)
                    yield m, op
            finally:
                gen.close()
        return wrapper

    def _close(self, span, start, end, children, elapsed):
        """Book a finished span and charge its elapsed time to the parent.

        ``elapsed`` includes the tracer's own work after the call, so that
        work is kept out of the parent's self time as well.
        """
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += elapsed
        key = (parent[1] if parent is not None else "op", span)
        for table, k in ((self.spans, span), (self.edges, key)):
            rec = table.get(k)
            if rec is None:
                rec = table[k] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - children

    def _counting(self, fn):
        def wrapper(a, b):
            if self._scalar_depth:
                return fn(a, b)
            self._scalar_depth = 1
            try:
                return fn(a, b)
            finally:
                self._scalar_depth = 0
                self.scalar_ops += 1
        return functools.wraps(fn)(wrapper)

    # -- counters ------------------------------------------------------------
    def _after_tensor(self, args, out):
        mat = out.mat if isinstance(out, tensor.LegOperator) else out
        if isinstance(mat, tensor.Mat):
            self.max_dim = max(self.max_dim, mat.nrows, mat.ncols)
        elif args and isinstance(args[0], tensor.Mat):
            # rank, pivot columns: the input is the operator worked on
            self.max_dim = max(self.max_dim, args[0].nrows, args[0].ncols)

    def _after_product(self, args, out):
        if not isinstance(out, tensor.Mat):
            return
        self.max_dim = max(self.max_dim, out.nrows, out.ncols)
        self.product_entries += out.nrows * out.ncols
        for row in out.rows:
            for x in row:
                if x:
                    self.product_nonzeros += 1
                    if isinstance(x, QScalar):
                        self.symbolic_nonzeros += 1
                        if x.is_laurent():
                            self.laurent_nonzeros += 1
                        self.max_den_deg = max(self.max_den_deg, len(x.den) - 1)

    def _request(self, r, kind, m, op):
        fp = self._fingerprints.get(id(r))
        if fp is None:
            # the R-matrix is kept alive with its fingerprint, so its id
            # cannot be reused within the op
            fp = (r.n, tuple(tuple(row) for row in r.mat.rows))
            self._fingerprints[id(r)] = (fp, r)
        else:
            fp = fp[0]
        key = (fp, kind, m)
        self.requests += 1
        if key in self._requested:
            self.repeats += 1
        self._requested.add(key)
        self.max_legs = max(self.max_legs, op.m)

    def begin_op(self) -> None:
        """Start a new op: projector repeats are counted within one op."""
        self._requested.clear()
        self._fingerprints.clear()

    # -- results -------------------------------------------------------------
    def layer_totals(self) -> dict:
        """layer -> (calls, self_s) summed over the layer's spans."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, _, self_s) in self.spans.items():
            rec = out[name.split(".", 1)[0]]
            rec[0] += calls
            rec[1] += self_s
        out["scalars"][0] = self.scalar_ops
        return out

    def span(self, name) -> list:
        return self.spans.get(name, [0, 0.0, 0.0])

    def record(self) -> dict:
        """Everything recorded, for the run's output file."""
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.spans.items())},
            "edges": [{"parent": p, "span": n, "calls": c, "total_s": t,
                       "self_s": s}
                      for (p, n), (c, t, s) in sorted(self.edges.items())],
        }
