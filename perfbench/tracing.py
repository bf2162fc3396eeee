"""Spans and work counters at the package's module boundaries.

:class:`Tracer` wraps public entry points of each module by replacing the
module attribute (and the copies other modules imported by name), records a
span per call in memory, and restores the originals on :meth:`uninstall`.
Hot leaf functions (right-hand sides) get counters and busy time instead of
a span per call. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

from garnier_lab import garnier_okamoto, numerics, poly_garnier, quantization, schlesinger

# (span name, owner, attribute, other modules that imported it by name)
SPANNED = (
    ("numerics.ode_integrate", numerics, "ode_integrate", (schlesinger, garnier_okamoto, poly_garnier, quantization)),
    ("schlesinger.integrate_schlesinger", schlesinger, "integrate_schlesinger", ()),
    ("garnier_okamoto.integrate_go", garnier_okamoto, "integrate_go", ()),
    ("garnier_okamoto.extract_go", garnier_okamoto, "extract_go", (quantization,)),
    ("poly_garnier.integrate_pg", poly_garnier, "integrate_pg", ()),
    ("quantization.Frame.phi_node", quantization.Frame, "phi_node", ()),
    ("quantization.Frame.shift_t", quantization.Frame, "shift_t", ()),
    ("quantization.zeta_eta_inverse", quantization, "zeta_eta_inverse", ()),
    ("quantization.residual", quantization, "bpz_residual", ()),
    ("quantization.residual", quantization, "quantized_pg_residual", ()),
)
COUNTED = (
    ("schlesinger.flow_derivative", schlesinger, "flow_derivative", (quantization,)),
    ("garnier_okamoto.go_vector_field", garnier_okamoto, "go_vector_field", ()),
    ("poly_garnier.pg_rhs_explicit", poly_garnier, "pg_rhs_explicit", ()),
)
_ODE_SIG = inspect.signature(numerics.ode_integrate)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans of one pass; ``spans[op]`` lists the spans of that op."""

    def __init__(self):
        self.spans: list[list[Span]] = []
        self.counts: list[dict[str, list]] = []  # per op: name -> [calls, busy_s]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, importers in SPANNED:
            self._patch(owner, attr, importers, self._span_wrapper(name, getattr(owner, attr)))
        for name, owner, attr, importers in COUNTED:
            self._patch(owner, attr, importers, self._count_wrapper(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, importers, wrapper) -> None:
        original = getattr(owner, attr)
        for target in (owner, *importers):
            if getattr(target, attr) is not original:
                raise RuntimeError(f"{target.__name__}.{attr} is not the function it imported")
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def begin_op(self) -> None:
        self.spans.append([])
        self.counts.append(defaultdict(lambda: [0, 0.0]))

    def _open(self, name) -> Span:
        ops = self.spans[-1]
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(ops))
        ops.append(span)
        return span

    def _span_wrapper(self, name, fn):
        tracer = self
        is_ode = fn is numerics.ode_integrate
        is_phi = name == "quantization.Frame.phi_node"

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if is_ode:
                args, kwargs = tracer._timed_field(span, args, kwargs)
            elif is_phi:
                # phi_node(self, x, tnode=None, ...): base time when tnode is None
                tnode = args[2] if len(args) > 2 else kwargs.get("tnode")
                span.attrs = {"base_time": tnode is None}
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()

        return wrapper

    def _timed_field(self, span, args, kwargs):
        bound = _ODE_SIG.bind(*args, **kwargs)
        field = bound.arguments["field"]
        attrs = {"fixed": bound.arguments.get("fixed_steps") is not None, "rhs": 0, "rhs_s": 0.0}
        span.attrs = attrs

        def timed(*fargs):
            t0 = perf_counter()
            try:
                return field(*fargs)
            finally:
                attrs["rhs_s"] += perf_counter() - t0
                attrs["rhs"] += 1

        bound.arguments["field"] = timed
        return bound.args, bound.kwargs

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = tracer.counts[-1][name]
                rec[0] += 1
                rec[1] += perf_counter() - t0

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics from one pass
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_counts(spans: list[Span], counts: dict) -> dict[str, int]:
    """Work done by one op: calls and RHS evaluations per layer (exact integers)."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name + ".calls"] += 1
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "numerics.ode_integrate":
            mode = "fixed" if s.attrs["fixed"] else "adaptive"
            out[f"numerics.ode_integrate.{mode}.calls"] += 1
            out[f"numerics.ode_integrate.{mode}.rhs_evals"] += s.attrs["rhs"]
            if parent == "quantization.Frame.shift_t":
                out["quantization.Frame.shift_t.rhs_evals"] += s.attrs["rhs"]
            if parent == "quantization.Frame.phi_node" and spans[s.parent].attrs["base_time"]:
                out["quantization.Frame.phi_node.base_misses"] += 1
        if s.name == "quantization.Frame.phi_node" and s.attrs["base_time"]:
            out["quantization.Frame.phi_node.base_calls"] += 1
    for name, (calls, _busy) in counts.items():
        out[name + ".calls"] = calls
    return dict(sorted(out.items()))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op means over one pass of every count and busy time, and the derived ratios."""
    tot: dict[str, float] = defaultdict(float)
    for spans, counts in zip(tracer.spans, tracer.counts):
        for key, value in op_counts(spans, counts).items():
            tot[key] += value
        for s in spans:
            dur = s.end - s.start
            tot[s.name + ".busy_s"] += dur
            if s.name == "numerics.ode_integrate":
                tot[f"numerics.ode_integrate.{'fixed' if s.attrs['fixed'] else 'adaptive'}.busy_s"] += dur
                tot["rhs_s"] += s.attrs["rhs_s"]
            if s.parent >= 0 and spans[s.parent].name == "quantization.residual":
                tot["quantization.residual.child_s"] += dur
        for name, (_calls, busy) in counts.items():
            tot[name + ".busy_s"] += busy
    m = {key: value / len(tracer.spans) for key, value in tot.items()}
    rhs = m.get("numerics.ode_integrate.fixed.rhs_evals", 0) + m.get("numerics.ode_integrate.adaptive.rhs_evals", 0)
    ode_busy = m.get("numerics.ode_integrate.busy_s", 0.0)
    m["numerics.rhs.us_per_eval"] = 1e6 * _ratio(m.get("rhs_s", 0.0), rhs)
    m["numerics.ode_integrate.overhead_frac"] = 1.0 - _ratio(m.get("rhs_s", 0.0), ode_busy) if ode_busy else 0.0
    for name in ("schlesinger.flow_derivative", "garnier_okamoto.go_vector_field", "poly_garnier.pg_rhs_explicit"):
        m[name + ".us_per_call"] = 1e6 * _ratio(m.get(name + ".busy_s", 0.0), m.get(name + ".calls", 0))
    base_calls = m.get("quantization.Frame.phi_node.base_calls", 0)
    m["quantization.Frame.phi_node.cache_hit_ratio"] = _ratio(
        base_calls - m.get("quantization.Frame.phi_node.base_misses", 0), base_calls
    )
    m["quantization.Frame.shift_t.rhs_per_call"] = _ratio(
        m.get("quantization.Frame.shift_t.rhs_evals", 0), m.get("quantization.Frame.shift_t.calls", 0)
    )
    m["quantization.residual.self_s"] = m.get("quantization.residual.busy_s", 0.0) - m.get(
        "quantization.residual.child_s", 0.0
    )
    return m


def span_dump(tracer: Tracer) -> list[list]:
    """Spans of the pass as [op, index, parent, name, start_s, end_s, attrs]."""
    t0 = min((s.start for spans in tracer.spans for s in spans), default=0.0)
    return [
        [op, i, s.parent, s.name, round(s.start - t0, 7), round(s.end - t0, 7), s.attrs]
        for op, spans in enumerate(tracer.spans)
        for i, s in enumerate(spans)
    ]
