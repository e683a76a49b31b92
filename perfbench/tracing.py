"""Span tracing of zerocorr's layers, from outside the package.

A traced pass replaces selected module attributes with timing wrappers
at the place where the calling module looks them up (``kac_rice.kernel_jet``,
``gaussian.permanent``, ``empirical.polynomial_roots``, ...).  Each call
records a span: name, start, end, parent span, op id, thread and whether it
returned.  Spans stay in memory until the run writes them out.  ``restore``
puts every original attribute back.
"""

import importlib
import inspect
import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    ok: bool
    info: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


def _jet_info(tracer, arguments, result):
    if result is None:
        return None
    finite = all(
        np.all(np.isfinite(x)) for x in (result.s, result.grad, result.hess)
    )
    return {"nonfinite": not finite}


def _expectation_info(tracer, arguments, result):
    bound = arguments()
    return {"method": bound["method"], "samples": bound["samples"]}


def _roots_info(tracer, arguments, result):
    degree = arguments()["sample"].degree
    info = {"N": degree}
    if result is None:
        return info
    info["roots"] = len(result)
    window = tracer.context.get("window")
    if window is not None:
        chart = math.tan(window / math.sqrt(degree))
        info["useful"] = int(np.count_nonzero(np.abs(result) <= chart))
    return info


def _estimate_info(tracer, arguments, result):
    bound = arguments()
    return {"N": bound["N"], "samples": bound["samples"], "process": bound["process"]}


# (module, attribute, span name, observer).  An observer gets the tracer, a
# function that binds the call's arguments by name, and the result (None if
# the call raised); it returns the span's info dict.
# The module is the caller's namespace, so calls made inside the package
# through that name are traced as well.
TARGETS = (
    ("zerocorr.cli", "fs_scaled_szego", "kernels.fs_scaled_szego", None),
    ("zerocorr.cli", "heisenberg_limit_kernel", "kernels.heisenberg_limit_kernel", None),
    ("zerocorr.kac_rice", "normalized_correlation", "kac_rice.normalized_correlation", None),
    ("zerocorr.kac_rice", "correlation", "kac_rice.correlation", None),
    ("zerocorr.kac_rice", "assemble_blocks", "kac_rice.assemble_blocks", None),
    ("zerocorr.kac_rice", "jet_covariance", "kac_rice.jet_covariance", None),
    ("zerocorr.kac_rice", "kernel_jet", "kernels.kernel_jet", _jet_info),
    ("zerocorr.kac_rice", "fs_metric", "kernels.fs_metric", None),
    ("zerocorr.kac_rice", "hermitian_solve", "linalg.hermitian_solve", None),
    ("zerocorr.kac_rice", "cholesky", "linalg.cholesky", None),
    ("zerocorr.kac_rice", "determinant", "linalg.determinant", None),
    ("zerocorr.kac_rice", "expectation_det_product", "gaussian.expectation_det_product",
     _expectation_info),
    ("zerocorr.linalg", "cholesky", "linalg.cholesky", None),
    ("zerocorr.gaussian", "cholesky", "linalg.cholesky", None),
    ("zerocorr.gaussian", "permanent", "linalg.permanent", None),
    ("zerocorr.gaussian", "wick_mixed_moment", "gaussian.wick_mixed_moment", None),
    ("zerocorr.closed_form", "kappa", "closed_form.kappa", None),
    ("zerocorr.closed_form", "kappa_series", "closed_form.kappa_series", None),
    ("zerocorr.closed_form", "kappa_asymptote", "closed_form.kappa_asymptote", None),
    ("zerocorr.closed_form", "density", "closed_form.density", None),
    ("zerocorr.closed_form", "connected_correlations", "closed_form.connected_correlations",
     None),
    ("zerocorr.closed_form", "decay_bound", "closed_form.decay_bound", None),
    ("zerocorr.empirical", "pair_correlation_estimate", "empirical.pair_correlation_estimate",
     _estimate_info),
    ("zerocorr.empirical", "sample_su2_polynomial", "empirical.sample_su2_polynomial", None),
    ("zerocorr.empirical", "polynomial_roots", "empirical.polynomial_roots", _roots_info),
)


def current_attributes(targets=TARGETS):
    """The objects the targets' module attributes hold right now."""
    return [getattr(importlib.import_module(module), attr)
            for module, attr, _, _ in targets]


class Tracer:
    """Records spans for calls through the wrapped attributes."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.context = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack = None
        self._op_thread = None
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, observer in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observer))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread started by the program: its calls belong to the
        # innermost open span of the thread that runs the op.
        if self._op_stack and threading.get_ident() != self._op_thread:
            return self._op_stack[-1]
        return None

    def begin_op(self, op_id, name, context=None):
        """Open the root span of one op on the calling thread."""
        self.context = dict(context or {}, op=op_id)
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()
        span_id = next(self._ids)
        self._op_stack.append(span_id)
        return Span(span_id, name, time.perf_counter(), 0.0, None, op_id,
                    self._op_thread, True)

    def end_op(self, span, ok):
        span.end = time.perf_counter()
        span.ok = ok
        self._op_stack.pop()
        self.spans.append(span)
        self.context = {}

    def _wrap(self, fn, name, observer):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, 0.0, 0.0, tracer._parent(stack),
                        tracer.context.get("op"), threading.get_ident(), False)
            stack.append(span.id)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if observer is not None:
                    span.info = observer(tracer, lambda: _bind(signature, args, kwargs),
                                         result)
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- span arithmetic ---------------------------------------------------------


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """Span duration minus the part of its interval that child spans cover.

    Children may overlap one another (worker threads), so their union,
    not their sum, is subtracted.
    """
    return span.duration - covered(span.start, span.end,
                                   [(c.start, c.end) for c in children])


def children_index(spans):
    index = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index
