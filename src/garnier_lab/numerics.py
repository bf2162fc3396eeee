"""Complex matrix arithmetic, path-following ODE integration and finite differences.

This is the substrate every other module builds on:

* stable quadratic roots over the complex numbers,
* polyline paths in C^d and one clearance rule for straight chords of
  affine values (:func:`check_clearance`), which decides every path and
  transport hop against its singular sets,
* an adaptive Dormand-Prince 5(4) integrator for states of complex numbers,
  with exact landing on requested parameter values (:func:`ode_integrate`);
  nothing in the package calls it: it is the independent reference that the
  tests hold the Taylor steps to,
* a Taylor-series driver of fixed order (:func:`taylor_integrate`) for
  analytic flows whose caller supplies the series: the same path walk and
  landing, each step sized from the last two coefficients and capped below
  the radius of the field's own series, for the flows and Phi in time; its
  row form (:func:`taylor_walk`) walks many chords in lockstep from one
  first series per start, each with its own steps, for Phi in x; its
  stencil form (:func:`taylor_stencil`) sums one series at every offset;
  a series summed only within a reach known in advance (a stencil's, or
  the walk's first round) is summed only to the order at which its terms
  there fall below rounding, and its coefficient kernel stops forming
  orders there (:class:`SeriesStop`); :func:`count_work` collects the
  steps, series, orders and radius ratios of all three, and the
  clearances :func:`check_clearance` passes,
* one recorder of a flow body (:class:`_Tape`), which ``poly_garnier`` and
  ``garnier_okamoto`` fold, with the sparse sum :func:`_plus`, into their
  Taylor programs: a monomial table, products and quotients of affine maps,
* central finite-difference schemes of order 2/4 with optional Richardson
  extrapolation: :func:`fd_derivative` is the one path for a derivative in
  one direction (its evaluator takes every stencil point at once and may
  return scalars or arrays), and
  :func:`stencil_multipliers` with :func:`combine_stencil` serve the batched
  stencils that must evaluate every offset of several directions at once.

All operations are pure functions of their inputs; :func:`count_work`
only observes them.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateQuadratic,
    GarnierLabError,
    PathViolation,
    SingularityApproach,
    StencilFailure,
)

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "quad_roots",
    "PathPlan",
    "AffineConstraint",
    "check_clearance",
    "ode_integrate",
    "taylor_integrate",
    "taylor_walk",
    "count_work",
    "tally",
    "taylor_stencil",
    "SeriesStop",
    "FDScheme",
    "fd_derivative",
    "stencil_multipliers",
    "combine_stencil",
    "det2",
]

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
MAX_STEPS = 2_000_000  # attempted adaptive or Taylor steps before SingularityApproach
TAYLOR_ORDER = 20  # the order p of every taylor_integrate step, and the most any series forms
_STOP_FROM = 4  # the lowest order at which a series summed within a known reach may stop
_STOP_LOG = 52 * math.log(2.0)  # -ln of the share of max|c_0| below which a term is rounding: 2^-52
_TAYLOR_REACH = 0.5  # largest Taylor step, as a fraction of the field's own series radius
_WORK: ContextVar[dict | None] = ContextVar("garnier_lab_work", default=None)  # count_work's collector


# ---------------------------------------------------------------------------
# 2x2 complex matrices
# ---------------------------------------------------------------------------

def det2(m: np.ndarray):
    """The determinant of a 2x2 matrix, or of each one in a stack of shape (..., 2, 2)."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# ---------------------------------------------------------------------------
# quadratic roots
# ---------------------------------------------------------------------------

def quad_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of a*x^2 + b*x + c = 0, numerically stable.

    The larger-magnitude root comes from the sign-matched discriminant
    formula, the smaller from c/(a*r1), so that r1*r2 = c/a holds to
    relative rounding error even for extreme coefficient ratios.
    Returns (r1, r2) with |r1| >= |r2|.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if a == 0:
        raise DegenerateQuadratic("leading coefficient a = 0")
    d = cmath.sqrt(b * b - 4.0 * a * c)
    # pick the sign that avoids cancellation in b + d
    if (b.real * d.real + b.imag * d.imag) < 0.0:
        d = -d
    q = -0.5 * (b + d)
    if q == 0:
        # b and the discriminant both vanish: double root at the origin shift
        r = -b / (2.0 * a)
        return r, r
    r1 = q / a
    r2 = c / q
    # roots of equal magnitude can come out an ulp the wrong way round
    if abs(r1) < abs(r2):
        r1, r2 = r2, r1
    return r1, r2


# ---------------------------------------------------------------------------
# polyline paths in C^d
# ---------------------------------------------------------------------------

def _as_point(p) -> tuple[complex, ...]:
    if isinstance(p, (tuple, list, np.ndarray)):
        return tuple(complex(v) for v in p)
    return (complex(p),)


@dataclass(frozen=True)
class AffineConstraint:
    """Affine singular set {z : sum_k weights[k]*z[k] = offset} with a label.

    Covers every singularity this package declares: poles x = t_i are
    (weights=(1,), offset=t_i) on one-dimensional paths and collisions
    t_i = t_j are (weights with +1/-1, offset=0) on multi-time paths.
    """

    weights: tuple[complex, ...]
    offset: complex
    label: str = ""


def check_clearance(w0, w1, radius: float, labels: Sequence[str]) -> None:
    """Reject every chord w0 -> w1 of affine values that comes within ``radius`` of 0.

    The last axis of ``w0`` and ``w1`` (broadcast together) runs over K
    singular sets named by ``labels``, the leading axes over segments. The
    chord w(s) = w0 + s*(w1 - w0), 0 <= s <= 1, is nearest to 0 at the
    clamped orthogonal projection, so its clearance is exact in closed form.
    The first segment (then set, in order) closer than ``radius``, or whose
    clearance is NaN (a non-finite end value), raises PathViolation. A chord
    that passes also misses 0, so log(w1/w0) is the exact continuation of
    log w along it. Within :func:`count_work` passed chords lower its ``min_clearance``.
    """
    w0, w1 = np.broadcast_arrays(np.asarray(w0, dtype=complex), np.asarray(w1, dtype=complex))
    with np.errstate(invalid="ignore"):
        dw = w1 - w0
        denom = np.abs(dw) ** 2
        s = np.clip(-(w0.real * dw.real + w0.imag * dw.imag) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
        d = np.abs(w0 + s * dw)
    bad = np.flatnonzero(~(d >= radius))
    if bad.size:
        k, j = divmod(int(bad[0]), len(labels))
        raise PathViolation(
            f"segment {k} passes within {d.flat[bad[0]]:.3e} of singular set "
            f"'{labels[j]}' (exclusion radius {radius})"
        )
    work = _WORK.get()
    if work is not None:
        work["min_clearance"] = min(work["min_clearance"], float(np.min(d, initial=math.inf)))


class PathPlan:
    """Polyline in C^d with an exclusion radius around declared singular sets.

    Waypoints are complex scalars (d = 1) or equal-length tuples of complex.
    The parameter s runs over [0, 1] proportionally to Euclidean arclength.
    """

    def __init__(self, waypoints: Sequence, exclusion_radius: float):
        if exclusion_radius <= 0:
            raise ValueError("exclusion_radius must be > 0")
        pts = [_as_point(p) for p in waypoints]
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("waypoints have inconsistent dimension")
        self.scalar = not isinstance(waypoints[0], (tuple, list, np.ndarray))
        self.dim = dim
        self.points = pts
        self.exclusion_radius = float(exclusion_radius)
        lengths = []
        for p0, p1 in zip(pts[:-1], pts[1:]):
            seg = math.sqrt(sum(abs(b - a) ** 2 for a, b in zip(p0, p1)))
            if seg == 0.0:
                raise ValueError("consecutive waypoints must be distinct")
            lengths.append(seg)
        self.seg_lengths = lengths
        self.total_length = sum(lengths)
        acc = [0.0]
        for L in lengths:
            acc.append(acc[-1] + L)
        self.breaks = [a / self.total_length for a in acc]
        self.breaks[-1] = 1.0

    def _segment_of(self, s: float) -> int:
        k = bisect.bisect_right(self.breaks, s) - 1
        return min(max(k, 0), len(self.seg_lengths) - 1)

    def point(self, s: float) -> tuple[complex, ...]:
        k = self._segment_of(s)
        s0, s1 = self.breaks[k], self.breaks[k + 1]
        f = (s - s0) / (s1 - s0)
        p0, p1 = self.points[k], self.points[k + 1]
        return tuple(a + f * (b - a) for a, b in zip(p0, p1))

    def velocity(self, k: int) -> tuple[complex, ...]:
        """d(point)/ds on segment k (constant per segment)."""
        s0, s1 = self.breaks[k], self.breaks[k + 1]
        p0, p1 = self.points[k], self.points[k + 1]
        return tuple((b - a) / (s1 - s0) for a, b in zip(p0, p1))

    def validate_against(self, constraints: Sequence[AffineConstraint]) -> None:
        """Reject the path if any segment enters an exclusion zone."""
        weights = np.array([c.weights for c in constraints], dtype=complex).reshape(len(constraints), self.dim)
        offsets = np.array([c.offset for c in constraints], dtype=complex)
        w = np.sum(np.array(self.points)[:, None, :] * weights, axis=-1) - offsets
        check_clearance(w[:-1], w[1:], self.exclusion_radius, [c.label for c in constraints])


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with exact sample landing
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.add.reduce(np.abs(err / scale) ** 2, axis=None) / err.size))


def ode_integrate(
    field: Callable,
    y0,
    path: PathPlan,
    rtol: float = DEFAULT_RTOL,
    samples: Sequence[float] | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Integrate dy/ds = field(point, velocity, y) along a polyline path, adaptively.

    ``point``/``velocity`` are complex scalars for one-dimensional paths and
    tuples of complex otherwise; ``y`` is a flat complex vector. Steps always
    land exactly on segment corners and on every requested ``samples`` value,
    so no dense-output interpolation error enters reported states.

    Returns [(s, y(s))] at s = 0, each sample, and s = 1.

    Raises SingularityApproach when the step underflows or more than
    ``MAX_STEPS`` steps are attempted.
    """
    y = np.asarray(y0, dtype=complex).ravel().copy()
    out: list[tuple[float, np.ndarray]] = [(0.0, y.copy())]
    want, checkpoints = _checkpoints(path, samples)

    def fv(s: float, yv: np.ndarray) -> np.ndarray:
        # the interval's segment k_seg: [s0, s1) -> p0 + f*dp, as PathPlan.point
        if s0 <= s < s1:
            f = (s - s0) / ds
            pt = tuple(a + f * d for a, d in zip(p0, dp))
        else:  # a stage on or past a break: PathPlan.point picks the segment
            pt = path.point(s)
        if path.scalar:
            return np.asarray(field(pt[0], vel[0], yv), dtype=complex).ravel()
        return np.asarray(field(pt, vel, yv), dtype=complex).ravel()

    def controlled(s, yv, h, k1):
        y1, k = _dp_step(lambda j, acc: fv(s + _DP_C[j] * h, acc), yv, h, k1)
        return y1, k[6], _error_norm(_dp_error(h, k), yv, y1, rtol, DEFAULT_ATOL)

    s_cur = 0.0
    n_steps = 0
    h = None
    for s_target in checkpoints:
        span = s_target - s_cur
        if span <= 0:
            continue
        # per-interval constants read by fv
        k_seg = path._segment_of(0.5 * (s_cur + s_target))
        s0, s1 = path.breaks[k_seg], path.breaks[k_seg + 1]
        ds = s1 - s0
        p0 = path.points[k_seg]
        dp = tuple(b - a for a, b in zip(p0, path.points[k_seg + 1]))
        vel = path.velocity(k_seg)
        k1 = fv(s_cur, y)
        if h is None:
            h = _initial_step(fv, s_cur, y, k1, rtol, DEFAULT_ATOL, span, path.point)
        h = min(h, span)
        s_cur, y, h, n_steps = _advance(controlled, s_cur, s_target, y, k1, h, n_steps, path.point)
        if s_target in want or s_target == 1.0:
            out.append((s_target, y.copy()))
    if out[-1][0] != 1.0:
        out.append((1.0, y.copy()))
    return out


def taylor_integrate(
    coeffs: Callable,
    y0,
    path: PathPlan,
    rtol: float = DEFAULT_RTOL,
    samples: Sequence[float] | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Integrate an analytic flow along a polyline path in Taylor steps of order p = ``TAYLOR_ORDER``.

    Users: ``schlesinger.integrate_schlesinger``, ``poly_garnier.integrate_pg``,
    ``garnier_okamoto.integrate_go`` and ``quantization.Frame.shift_t_adaptive``.

    ``coeffs(point, velocity, y)`` (arguments as ``field``'s in
    :func:`ode_integrate`) returns the coefficients c_0 = y, ..., c_p of the
    solution through y in powers of s along ``velocity``, shape (p + 1, d),
    and the s-distance from ``point`` to the field's nearest fixed singular
    set, the radius of its own series. Each step is :func:`_taylor_step`'s,
    landing exactly on corners and ``samples``; y(s + h) is :func:`_horner`'s
    sum. Every series has order p: ``coeffs`` gets no reach. Within :func:`count_work` the call adds its steps
    (a series each), their orders and smallest ratio.

    Returns [(s, y(s))] at s = 0, each sample, and s = 1. Raises
    SingularityApproach on a non-finite coefficient or sum, a step underflow,
    or more than ``MAX_STEPS`` steps.
    """
    if not 0.0 < rtol < 1.0:  # tol past max|y| would step past the series' radius
        raise ValueError("rtol must lie in (0, 1)")
    y = np.asarray(y0, dtype=complex).ravel().copy()
    out: list[tuple[float, np.ndarray]] = [(0.0, y.copy())]
    want, checkpoints = _checkpoints(path, samples)
    s, n_steps, n_orders, ratio = 0.0, 0, 0, math.inf
    for s_target in checkpoints:
        vel = path.velocity(path._segment_of(0.5 * (s + s_target)))
        while s < s_target - 1e-15:
            pt = path.point(s)
            with np.errstate(all="ignore"):
                c, radius = coeffs(pt[0], vel[0], y) if path.scalar else coeffs(pt, vel, y)
            h, step_ratio = _taylor_step(c, radius, rtol, pt)
            h, ratio = min(float(h), s_target - s), min(ratio, float(step_ratio))
            if not h >= 1e-14:
                raise SingularityApproach("step size underflow during path integration", location=pt)
            n_steps, n_orders = n_steps + 1, n_orders + len(c) - 1
            if n_steps > MAX_STEPS:
                raise SingularityApproach("step budget exhausted", location=pt)
            with np.errstate(all="ignore"):
                y = _horner(c, h)
            if not np.all(np.isfinite(y)):
                raise SingularityApproach("non-finite Taylor sum", location=pt)
            s = s_target if h == s_target - s else s + h
        if s_target in want or s_target == 1.0:
            out.append((s_target, y.copy()))
    _record(n_steps, n_steps, n_orders, ratio)
    return out


def taylor_walk(coeffs: Callable, y0, point, velocity, group) -> np.ndarray:
    """Walk R rows along the chords point + s velocity, s from 0 to 1, in lockstep Taylor steps; y(1), shape (R, d).

    Users: ``quantization.Frame.phi_nodes``. ``point`` and ``velocity`` have shape (R, 1), ``y0`` (R, d);
    ``group`` labels the rows 0..G-1, and the rows of one label share point, y0 and field.
    ``coeffs(rows, point, velocity, y, reach=...)`` is :func:`taylor_integrate`'s for the rows ``rows`` (an index
    into the R rows, ``slice(None)`` while all move, so nothing is copied). The first round forms one series per
    label, at its first row in powers of the displacement w (velocity 1), with ``reach`` each label's longest
    hop |velocity| (shape (G,)), so its kernel may stop forming orders once every label has converged there.
    Each row sums its label's series at its own w only to its own stop order (:func:`_stop_orders`, at its own
    hop) and takes the :func:`_taylor_step` step of those orders along its own chord, capped at s = 1: a row
    lands bit for bit as it does in any other call. Each later round forms one order-p series (``reach`` None)
    per moving row along its chord, with its own capped step; a row drops out once it lands at s = 1. Errors are
    :func:`taylor_integrate`'s, raised at the first failing row's point. Within :func:`count_work` it adds every
    row's steps and every series it formed, with their orders.
    """
    y, s, moving = np.array(y0, dtype=complex), np.zeros(len(y0)), np.ones(len(y0), dtype=bool)
    firsts, speed = np.unique(group, return_index=True)[1], np.abs(velocity[:, 0])
    reach = np.zeros(len(firsts))  # each label's longest hop, the reach of its first series
    np.maximum.at(reach, group, speed)
    n_rounds, n_steps, n_series, n_orders, ratio = 0, 0, 0, 0, math.inf
    while moving.any():
        live = slice(None) if moving.all() else np.flatnonzero(moving)
        pt = point[live] + s[live, None] * velocity[live]
        first = not n_rounds  # every row at s = 0: one series per label, in w
        rows, at = (firsts, firsts) if first else (live, slice(None))
        with np.errstate(all="ignore"):
            c, radius = coeffs(rows, pt[at], np.ones_like(pt[at]) if first else velocity[live], y[rows],
                               reach=reach if first else None)
            n_series, n_orders = n_series + len(radius), n_orders + (len(c) - 1) * len(radius)
            if first:  # every row on its label's series in w, to its own stop order at its own hop
                norm = _norms(c, pt[at])[:, group]
                orders = _stop_orders(norm, _series_bounds(norm[0], speed))
                h, step_ratio = _norm_step(norm, radius[group], DEFAULT_RTOL, orders)
                c, h = np.where(np.arange(len(c))[:, None, None] <= orders[:, None], c[:, group], 0.0), h / speed
            else:
                h, step_ratio = _taylor_step(c, radius, DEFAULT_RTOL, pt)
            h, ratio = np.minimum(h, 1.0 - s[live]), np.fmin.reduce(step_ratio, initial=ratio)
            y_new = _horner(c, h[:, None] * (velocity if first else 1.0))
        n_rounds, n_steps = n_rounds + 1, n_steps + len(h)
        for failed, message in (  # in taylor_integrate's order; every moving row has taken n_rounds steps
            (~(h >= 1e-14), "step size underflow during path integration"),
            (np.full(len(h), n_rounds > MAX_STEPS), "step budget exhausted"),
            (~np.isfinite(y_new).all(axis=-1), "non-finite Taylor sum"),
        ):
            if failed.any():
                raise SingularityApproach(message, location=tuple(pt[np.argmax(failed)].tolist()))
        y[live], s[live] = y_new, np.where(h == 1.0 - s[live], 1.0, s[live] + h)
        moving = s < 1.0 - 1e-15
    _record(n_steps, n_series, n_orders, ratio)
    return y


def taylor_stencil(coeffs: Callable, y0, point, velocity, offsets) -> np.ndarray:
    """y(s), shape (len(offsets), d), at every offset s of the series ``coeffs(point, velocity, y0, reach=max|s|)``.

    Users: ``quantization.Frame.shift_t`` and ``poly_garnier.hop_pg``. The series is summed only to its stop
    order at the largest |s| (:func:`_stop_orders`), and ``coeffs`` may stop forming orders there; one that
    does not converge by order p is formed in full. An |s| past the :func:`_taylor_step` step of the orders
    summed (at the default rtol) raises
    SingularityApproach, naming the first such stencil point point + s velocity, before any state is
    returned; so does a non-finite sum. Within :func:`count_work` the call adds one series, its orders and
    its ratio.
    """
    offsets = np.asarray(offsets, dtype=complex)
    with np.errstate(all="ignore"):
        reach = float(np.max(np.abs(offsets), initial=0.0))
        c, radius = coeffs(point, velocity, np.asarray(y0, dtype=complex), reach=reach)
        norm = _norms(c, point)
        k = int(_stop_orders(norm, _series_bounds(norm[0], reach)))
        h, ratio = _norm_step(norm[: k + 1], radius, DEFAULT_RTOL)
    where = lambda k: tuple((np.asarray(point) + offsets[k] * np.asarray(velocity)).tolist())  # noqa: E731
    far = np.flatnonzero(~(np.abs(offsets) <= h))
    if far.size:
        message = f"stencil offset {abs(offsets[far[0]]):.3e} past the Taylor step {h:.3e}"
        raise SingularityApproach(message, location=where(far[0]))
    with np.errstate(all="ignore"):
        y = _horner(c[: k + 1], offsets[:, None])
    bad = np.flatnonzero(~np.isfinite(y).all(axis=-1))
    if bad.size:
        raise SingularityApproach("non-finite Taylor sum", location=where(bad[0]))
    _record(0, 1, len(c) - 1, ratio)
    return y


def _series_bounds(norm0, reach) -> np.ndarray:
    """The largest |c_j| whose terms |c_j| reach^j stay within 2^-52 max|c_0|, j = 0..TAYLOR_ORDER: the bounds of
    the stop rule (:func:`_stop_orders`) for a series summed only within ``reach``.

    ``norm0`` is max|c_0| of each row, shaped as ``reach`` (scalars for one row). The bounds 2^-52 max|c_0| /
    reach^j are products of 1/reach, so a row's bounds do not depend on the other rows; shape
    (TAYLOR_ORDER + 1, *rows).
    """
    scale = np.empty((TAYLOR_ORDER + 1,) + np.shape(reach))
    scale[0], scale[1:] = 2.0**-52 * norm0, np.divide(1.0, reach)
    return scale.cumprod(axis=0)


class SeriesStop:
    """Where a coefficient kernel may stop forming a series that is summed only within ``reach`` (None: nowhere).

    ``c0`` holds c_0, each row's components on its last axis and the rows (the shape of ``reach``) before.
    A kernel calls it once it has formed order k = ``next``, with ``order(j)`` giving the coefficients of
    order j (as c_0, or values whose absolute values bound theirs). It says whether orders k - 1 and k are
    both within :func:`_series_bounds` in every row: then every row's own stop order (:func:`_stop_orders`)
    is k or less, and no further order is needed. Otherwise ``next`` becomes the order where the terms would
    fall within the bounds if they kept shrinking at their average rate from c_0 to c_k (past TAYLOR_ORDER,
    never, if they do not shrink). So a kernel looks at a few orders, from order 4 on, and may form an order
    past the stop, which the sums of its callers drop.
    """

    def __init__(self, c0, reach):
        self.next = TAYLOR_ORDER + 1 if reach is None else _STOP_FROM
        if reach is not None:
            self.bounds = _series_bounds(np.abs(c0).max(axis=-1), reach)

    def __call__(self, order: Callable, k: int) -> bool:
        excess = float((np.abs(order(k)) / self.bounds[k][..., None]).max())  # NaN never stops
        if excess <= 1.0 and (np.abs(order(k - 1)) <= self.bounds[k - 1][..., None]).all():
            return True
        shrink = _STOP_LOG - math.log(max(excess, 1.0)) if excess < math.inf else 0.0  # -ln of the terms at k
        self.next = max(k + 1, math.ceil(k * _STOP_LOG / shrink)) if shrink > 0.0 else TAYLOR_ORDER + 1
        return False


def _stop_orders(norm: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The stop rule: each row's stop order in a series of norms max|c_j|, shape (k + 1, R) or (k + 1,).

    The first order k' >= 4 whose orders k' - 1 and k' are both within the row's ``bounds``
    (:func:`_series_bounds`): their terms at any offset within the reach are then below the rounding of the
    sum (Jorba & Zou's choice of order from the tolerance, at the reach the caller sums). A row with no such
    order keeps all k. It depends on nothing but the row's own norms and reach.
    """
    below = norm <= bounds[: len(norm)]
    both = below[_STOP_FROM - 1 : -1] & below[_STOP_FROM:]  # both[j]: orders j + _STOP_FROM - 1 and j + _STOP_FROM
    return np.where(both.any(axis=0), _STOP_FROM + np.argmax(both, axis=0), len(norm) - 1)


def _taylor_step(c: np.ndarray, radius, rtol: float, where):
    """The Jorba-Zou step of the coefficients c_0..c_p, capped at ``_TAYLOR_REACH`` of ``radius``, and its radius ratio.

    p = len(c) - 1, the last order formed: TAYLOR_ORDER, or less for a series a :class:`SeriesStop` stopped.
    h = min over k = p - 1, p of (tol/|c_k|)^(1/k), tol = DEFAULT_ATOL + rtol * max|c_0| (inf on an
    all-zero tail, and the cap decides); the ratio is min over the same k of (|c_0|/|c_k|)^(1/k),
    over ``radius``. Coefficients of shape (p + 1, R, d) give one step and ratio per row, for a
    ``radius`` of shape (R,). A non-finite coefficient raises SingularityApproach at ``where``
    (with rows, at row r of ``where``, shape (R, D), for the first such row r).
    """
    with np.errstate(all="ignore"):
        return _norm_step(_norms(c, where), radius, rtol)


def _norms(c: np.ndarray, where) -> np.ndarray:
    """max|c_j| of each order and row, shape (p + 1, R) or (p + 1,); non-finite raises as :func:`_taylor_step` says."""
    norm = np.abs(c).max(axis=-1)
    finite = np.isfinite(norm)
    if not finite.all():  # named at the first row with a non-finite coefficient
        row = np.reshape(where, (-1, np.shape(where)[-1]))[np.argmin(finite.all(axis=0))]
        raise SingularityApproach("non-finite Taylor coefficient", location=tuple(row.tolist()))
    return norm


def _norm_step(norm: np.ndarray, radius, rtol: float, orders=None):
    """:func:`_taylor_step` from its coefficients' norms; ``orders`` (R,) may give each row its own last order p."""
    p = len(norm) - 1
    if orders is None:
        tail, root = norm[p - 1 :], 1.0 / np.arange(p - 1, p + 1)
    else:
        last = np.stack([orders - 1, orders])
        tail, root = norm[last, np.arange(len(orders))], (1.0 / last).T
    h = (((DEFAULT_ATOL + rtol * norm[0]) / tail).T ** root).min(axis=-1)
    ratio = ((norm[0] / tail).T ** root).min(axis=-1) / radius
    return np.minimum(h, _TAYLOR_REACH * radius), ratio


def _horner(c: np.ndarray, h):
    """sum_k c_k h^k by Horner's rule; h a scalar or a column of offsets."""
    y = c[-1]
    for ck in c[-2::-1]:
        y = y * h + ck
    return y


@contextmanager
def count_work():
    """Yield a dict that sums the ``taylor_steps`` and ``taylor_series`` (one per step, per :func:`taylor_walk` row
    step or first-round group, and per :func:`taylor_stencil` call) in the block, and ``taylor_orders``, the orders
    each series formed past c_0; takes their ``min_radius_ratio`` (inf without a series) and the
    ``min_clearance`` of every chord :func:`check_clearance` passed (inf without one); and sums what
    :func:`tally` adds there. All are deterministic."""
    work = {"taylor_steps": 0, "taylor_series": 0, "taylor_orders": 0, "min_radius_ratio": math.inf,
            "min_clearance": math.inf}
    token = _WORK.set(work)
    try:
        yield work
    finally:
        _WORK.reset(token)


def _record(steps: int, series: int, orders: int, ratio) -> None:
    """Add steps, series and orders to the enclosing :func:`count_work` block's dict; lower its ratio to ``ratio``."""
    work = _WORK.get()
    if work is not None:
        work["taylor_steps"] += steps
        work["taylor_series"] += series
        work["taylor_orders"] += orders
        work["min_radius_ratio"] = min(work["min_radius_ratio"], float(ratio))


def tally(key: str, n: int = 1) -> None:
    """Add n to ``key`` of the enclosing :func:`count_work` block's dict, which gains the key at its first tally."""
    work = _WORK.get()
    if work is not None:
        work[key] = work.get(key, 0) + n


def _checkpoints(path: PathPlan, samples) -> tuple[list[float], list[float]]:
    """The requested samples, sorted, and every s a path integration must land on: segment ends and samples."""
    want = sorted(set(float(s) for s in (samples or ())))
    if any(s <= 0.0 or s > 1.0 for s in want):
        raise ValueError("sample parameters must lie in (0, 1]")
    return want, sorted(set(path.breaks[1:]) | set(want))


def _advance(step, s, s_end, y, k1, h, n_steps, where):
    """Error-controlled steps ``step(s, y, h, k1) -> (y1, k7, error norm)`` from s to s_end.

    The accept/grow rule of :func:`ode_integrate`'s steps; returns (s, y, h, n_steps).
    """
    while s < s_end - 1e-15:
        h = min(h, s_end - s)
        if not h >= 1e-14:  # also a NaN step, from a non-finite start
            raise SingularityApproach("step size underflow during path integration", location=where(s))
        y_new, k7, en = step(s, y, h, k1)
        n_steps += 1
        if n_steps > MAX_STEPS:
            raise SingularityApproach("step budget exhausted", location=where(s))
        if en <= 1.0:
            s += h
            y = y_new
            k1 = k7
            grow = 0.9 * en ** -0.2 if en > 0 else 5.0
            h *= min(5.0, max(0.2, grow))
        else:
            h *= max(0.2, 0.9 * en ** -0.2)
    return s, y, h, n_steps


def _dp_step(f, y, h, k1):
    """One Dormand-Prince 5(4) step of size h from y, given its first stage k1.

    ``f(j, acc)`` is the right-hand side at stage point s0 + _DP_C[j] * h
    (j = 6: the FSAL point s0 + h); ``y`` may carry a leading batch axis, with
    ``h`` then a per-row column. Returns (y1, stages k1..k7), k7 = f(6, y1).
    """
    a2, a3, a4, a5, a6, b = _DP_A[1:]
    k2 = f(1, y + h * (a2[0] * k1))
    k3 = f(2, y + h * (a3[0] * k1 + a3[1] * k2))
    k4 = f(3, y + h * (a4[0] * k1 + a4[1] * k2 + a4[2] * k3))
    k5 = f(4, y + h * (a5[0] * k1 + a5[1] * k2 + a5[2] * k3 + a5[3] * k4))
    k6 = f(5, y + h * (a6[0] * k1 + a6[1] * k2 + a6[2] * k3 + a6[3] * k4 + a6[4] * k5))
    y1 = y + h * (b[0] * k1 + b[2] * k3 + b[3] * k4 + b[4] * k5 + b[5] * k6)
    return y1, (k1, k2, k3, k4, k5, k6, f(6, y1))


def _dp_error(h, k):
    """The 5(4) error estimate of a step from its stages (_DP_E[1] = 0)."""
    e = _DP_E
    return h * (e[0] * k[0] + e[2] * k[2] + e[3] * k[3] + e[4] * k[4] + e[5] * k[5] + e[6] * k[6])


def _initial_step(fv, s0, y, k1, rtol, atol, span, where) -> float:
    scale = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k1 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # d1 = inf, from a first stage past the float range, gives 0 or NaN
        raise SingularityApproach("first stage past the float range", location=where(s0))
    h0 = min(h0, span)
    y1 = y + h0 * k1
    k2 = fv(s0 + h0, y1)
    d2 = float(np.sqrt(np.mean(np.abs((k2 - k1) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


# ---------------------------------------------------------------------------
# the recorder of a flow body
# ---------------------------------------------------------------------------

class _Tape:
    """The operations of one traced run of a flow body in plain arithmetic, each recorded once.

    An entry is (op, a, b): ("in", k, None) for input k, ("num", value, None) for a number, and "+", "-",
    "*" or "/" of the entries at indices a and b (-x is x * -1, x**n is n - 1 products). Equal entries
    share one index, so subexpressions that several outputs have in common are traced once. Users:
    ``garnier_okamoto._go_trace`` and ``poly_garnier._pg_trace``, each of which folds the tape on its own.
    """

    def __init__(self):
        self.ops: list[tuple] = []
        self.index: dict[tuple, int] = {}

    def node(self, op, a, b) -> "_Node":
        if op in ("+", "*"):
            a, b = min(a, b), max(a, b)
        key = (op, a, b)
        if key not in self.index:
            self.index[key] = len(self.ops)
            self.ops.append(key)
        return _Node(self, self.index[key])

    def of(self, x) -> int:
        return x.i if isinstance(x, _Node) else self.node("num", complex(x), None).i


class _Node:
    """A value of the traced body: its index on the tape."""

    __slots__ = ("tape", "i")

    def __init__(self, tape: _Tape, i: int):
        self.tape, self.i = tape, i

    def __add__(self, o):
        return self.tape.node("+", self.i, self.tape.of(o))

    def __sub__(self, o):
        return self.tape.node("-", self.i, self.tape.of(o))

    def __mul__(self, o):
        return self.tape.node("*", self.i, self.tape.of(o))

    def __truediv__(self, o):
        return self.tape.node("/", self.i, self.tape.of(o))

    def __rtruediv__(self, o):
        return self.tape.node("/", self.tape.of(o), self.i)

    def __neg__(self):
        return self * -1.0

    def __pow__(self, n: int):
        return functools.reduce(operator.mul, [self] * n)

    __radd__, __rmul__ = __add__, __mul__


def _plus(a: dict, b: dict, sign: complex) -> dict:
    """a + sign * b for sparse maps {key: weight}: the sum in both folds of a :class:`_Tape`."""
    out = dict(a)
    for k, w in b.items():
        out[k] = out.get(k, 0.0) + sign * w
    return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_D1_WEIGHTS = {
    2: ((-1.0, -0.5), (1.0, 0.5)),
    4: ((-2.0, 1.0 / 12.0), (-1.0, -8.0 / 12.0), (1.0, 8.0 / 12.0), (2.0, -1.0 / 12.0)),
}
_D2_WEIGHTS = {
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
    4: (
        (-2.0, -1.0 / 12.0),
        (-1.0, 16.0 / 12.0),
        (0.0, -30.0 / 12.0),
        (1.0, 16.0 / 12.0),
        (2.0, -1.0 / 12.0),
    ),
}


@dataclass(frozen=True)
class FDScheme:
    """Central-difference scheme: accuracy order, base step, Richardson flag.

    The effective step at argument z is ``step * (1 + |z|)``; with
    ``richardson`` the scheme is evaluated at h and h/2 and combined, pushing
    the truncation error from O(h^order) to O(h^(order+2)).
    """

    order: int = 4
    step: float = 1e-4
    richardson: bool = True

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        if self.step <= 0:
            raise ValueError("step must be > 0")

    def scaled_step(self, z: complex) -> float:
        return self.step * (1.0 + abs(z))


def stencil_multipliers(scheme: FDScheme, derivs: Sequence[int] = (1,)) -> tuple[float, ...]:
    """Offsets (as multiples of h) needed to form the requested derivatives."""
    mults: set[float] = set()
    for d in derivs:
        table = _D1_WEIGHTS if d == 1 else _D2_WEIGHTS
        for m, _w in table[scheme.order]:
            mults.add(m)
            if scheme.richardson:
                mults.add(m / 2.0)
    return tuple(sorted(mults))


def _combine_once(values: Mapping[float, np.ndarray], h: float, order: int, deriv: int):
    # pair symmetric offsets first: w(-m) = -+ w(m), so constants cancel
    # exactly and the cancellation error of near-equal values is minimized
    table = _D1_WEIGHTS if deriv == 1 else _D2_WEIGHTS
    weights = dict(table[order])
    acc = 0.0 * values[next(iter(weights))]
    if 0.0 in weights:
        acc = acc + weights[0.0] * values[0.0]
    for m, w in weights.items():
        if m <= 0.0:
            continue
        if deriv == 1:
            acc = acc + w * (values[m] - values[-m])
        else:
            acc = acc + w * (values[m] + values[-m])
    return acc / h**deriv


def combine_stencil(values: Mapping[float, np.ndarray], h: float, scheme: FDScheme, deriv: int):
    """Combine pre-evaluated stencil values (keyed by offset multiplier).

    ``values[m]`` must hold f(z + m*h) for every multiplier reported by
    :func:`stencil_multipliers`. Values may be scalars or arrays.
    """
    d_h = _combine_once(values, h, scheme.order, deriv)
    if not scheme.richardson:
        return d_h
    table = _D1_WEIGHTS if deriv == 1 else _D2_WEIGHTS
    half_vals = {m: values[m / 2.0] for m, _w in table[scheme.order]}
    d_h2 = _combine_once(half_vals, h / 2.0, scheme.order, deriv)
    f = 2.0**scheme.order
    return (f * d_h2 - d_h) / (f - 1.0)


def fd_derivative(f: Callable, z: complex, scheme: FDScheme | None = None, deriv: int = 1):
    """Central finite-difference derivative of f at z in one direction.

    ``f`` takes the list of every stencil point z + m*h at once and returns
    their values in that order, scalars or arrays, so one batched call can
    serve the whole stencil; each value enters the stencil exactly as f
    returns it. Error model: O(h^order), improved to O(h^(order+2)) with
    Richardson; h = scheme.step * (1 + |z|). A ``GarnierLabError`` raised
    by f propagates unchanged; any other exception becomes a
    ``StencilFailure`` naming the offsets.
    """
    scheme = scheme or FDScheme()
    if deriv not in (1, 2):
        raise ValueError("deriv must be 1 or 2")
    h = scheme.scaled_step(z)
    mults = stencil_multipliers(scheme, (deriv,))
    try:
        values = dict(zip(mults, f([z + m * h for m in mults]), strict=True))
    except GarnierLabError:
        raise
    except Exception as exc:  # noqa: BLE001 - re-raised with stencil context
        raise StencilFailure(f"stencil evaluation at offsets {mults} * h failed: {exc}") from exc
    return combine_stencil(values, h, scheme, deriv)
