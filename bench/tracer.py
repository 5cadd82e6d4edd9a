"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the library, every public function and public
method of the ``pencil_tracemin`` layer modules, plus the dense kernel entry
points in ``numpy.linalg`` and ``scipy.linalg``, including the ``svd`` that
``numpy.linalg.norm(X, 2)`` runs.  A wrapper replaces the
original under every module attribute that holds it (``tracemin.infimum``,
``cli.infimum`` and ``pencil_tracemin.infimum`` all point at one wrapper), so
the library's call-time global lookups reach the wrappers.  Leaving the
``with`` block restores every attribute to the original object.

Spans are kept in memory as ``(span_id, parent_id, op_id, name, t0, t1)``;
self time is a span's duration minus the durations of its direct children.
Spans are only recorded inside ``tracer.op()``, so the benchmark's own checks,
which also call library code, are not counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("matcore", "definiteness", "spectral", "hyperbolic", "genpairs", "tracemin", "witness", "cli")
PACKAGE = "pencil_tracemin"

# Kernel entry points, counted under kernel.<name> whichever namespace the call used.
KERNELS = ("eigvalsh", "eigh", "eig", "svd", "solve", "inv", "qr")
# Decompositions whose repeated inputs count toward kernel.repeat_ratio.
DECOMPOSITIONS = ("eigvalsh", "eigh", "eig", "svd")


def _public_callables(module):
    """(owner, attribute, layer name) for public functions and methods defined in module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{layer}.{name}.{meth}"


def _content_key(args):
    """Content hash of the matrix arguments of a decomposition call."""
    h = hashlib.blake2b(digest_size=16)
    for a in args[:2]:
        if hasattr(a, "tobytes") and hasattr(a, "shape"):
            h.update(repr((a.shape, str(a.dtype))).encode())
            h.update(a.tobytes())
    return h.digest()


def _numpy_linalg_impl():
    """The module that defines numpy.linalg's functions (numpy 2: _linalg; 1.x: linalg)."""
    import numpy.linalg

    return getattr(numpy.linalg, "_linalg", None) or numpy.linalg.linalg


def _order(args):
    a = args[0] if args else None
    shape = getattr(a, "shape", ())
    return int(shape[-1]) if shape else 0


class Tracer:
    """Install span wrappers on the library and kernels; aggregate on demand."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._op = None
        self._seen = set()
        self._patched = []
        self.n3_sum = 0
        self.decompositions = 0
        self.repeats = 0

    # -- installation -------------------------------------------------------

    def __enter__(self):
        import numpy.linalg
        import scipy.linalg

        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for owner, attr, name in _public_callables(module):
                fn = vars(owner)[attr]
                originals.setdefault(id(fn), (fn, self._wrap_layer(fn, name)))
                if inspect.isclass(owner):
                    self._patch(owner, attr, originals[id(fn)][1])
        # Every module attribute that holds an original gets the wrapper.
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        # numpy's own helpers (``norm(X, 2)``, ``pinv``, ``cond``) call ``svd``
        # through the globals of the module that defines it, so that module is
        # patched too, with the same wrapper.
        kernels = {}
        for namespace in (numpy.linalg, _numpy_linalg_impl(), scipy.linalg):
            for name in KERNELS:
                fn = vars(namespace).get(name)
                if fn is not None:
                    kernels.setdefault(id(fn), (fn, self._wrap_kernel(fn, name)))
                    self._patch(namespace, name, kernels[id(fn)][1])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _leave(self, sid, parent, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self._op, name, t0, t1))

    def _wrap_layer(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid, parent = tracer._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(sid, parent, name, t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_kernel(self, fn, kname):
        tracer = self
        name = f"kernel.{kname}"
        decomposition = kname in DECOMPOSITIONS

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer.n3_sum += _order(args) ** 3
            if decomposition:
                tracer.decompositions += 1
                key = _content_key(args)
                if key in tracer._seen:
                    tracer.repeats += 1
                tracer._seen.add(key)
            sid, parent = tracer._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(sid, parent, name, t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", kname)
        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """Record spans for one operation; repeat detection is per operation."""
        self._op = op_id
        self._seen = set()
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    # -- aggregation --------------------------------------------------------

    def aggregate(self):
        """{name: (calls, self_seconds)} over all recorded spans."""
        spans = self.spans
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in spans:
            if parent:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        for sid, _, _, name, t0, t1 in spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += (t1 - t0) - child.get(sid, 0.0)
        return {k: (v[0], v[1]) for k, v in out.items()}
