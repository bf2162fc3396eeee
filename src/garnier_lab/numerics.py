"""Complex matrix arithmetic, path-following ODE integration and finite differences.

This is the substrate every other module builds on:

* stable quadratic roots over the complex numbers,
* polyline paths in C^d with affine singularity clearance checks,
* an adaptive Dormand-Prince 5(4) integrator for states of complex numbers,
  with exact landing on requested parameter values and an optional
  fixed-step mode,
* a batched fixed-step mode (:func:`dp_fixed_batch`) that runs many
  independent problems in lockstep, each with its own step count, through
  the same Dormand-Prince step; it serves the tiny finite-difference stencil
  hops, where a deterministic step sequence keeps the integration error a
  smooth function of the endpoint,
* central finite-difference schemes of order 2/4 with optional Richardson
  extrapolation, shared-stencil combination helpers and a mixed-derivative
  evaluator.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateQuadratic,
    PathViolation,
    PoleEvaluation,
    SingularityApproach,
    StencilFailure,
)

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "quad_roots",
    "PathPlan",
    "AffineConstraint",
    "ode_integrate",
    "dp_fixed_batch",
    "FDScheme",
    "fd_derivative",
    "fd_mixed",
    "stencil_multipliers",
    "combine_stencil",
    "det2",
    "inv2",
    "continue_log",
]

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14


# ---------------------------------------------------------------------------
# 2x2 complex matrices
# ---------------------------------------------------------------------------

def det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m: np.ndarray, min_det: float = 0.0) -> np.ndarray:
    """Explicit 2x2 inverse; raises ValueError when |det| <= min_det."""
    d = det2(m)
    if abs(d) <= min_det:
        raise ValueError(f"2x2 matrix is singular to tolerance (|det| = {abs(d):.3e})")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


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

    def value(self, point: tuple[complex, ...]) -> complex:
        return sum(w * z for w, z in zip(self.weights, point)) - self.offset

    def segment_min(self, p0: tuple[complex, ...], p1: tuple[complex, ...]) -> float:
        """min over the segment [p0, p1] of |value|, in closed form.

        The restriction of the affine form to the segment is w0 + s*(w1-w0)
        with s in [0, 1]; the minimiser is the clamped orthogonal projection.
        """
        w0 = self.value(p0)
        w1 = self.value(p1)
        dw = w1 - w0
        denom = abs(dw) ** 2
        if denom == 0.0:
            return abs(w0)
        s = -(w0.real * dw.real + w0.imag * dw.imag) / denom
        s = min(1.0, max(0.0, s))
        return abs(w0 + s * dw)


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

    @property
    def waypoints(self):
        if self.scalar:
            return [p[0] for p in self.points]
        return list(self.points)

    def _segment_of(self, s: float) -> int:
        k = int(np.searchsorted(self.breaks, s, side="right")) - 1
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
        for k, (p0, p1) in enumerate(zip(self.points[:-1], self.points[1:])):
            for con in constraints:
                d = con.segment_min(p0, p1)
                if d < self.exclusion_radius:
                    raise PathViolation(
                        f"segment {k} passes within {d:.3e} of singular set "
                        f"'{con.label}' (exclusion radius {self.exclusion_radius})"
                    )

    def clearance(self, constraints: Sequence[AffineConstraint]) -> float:
        return min(
            con.segment_min(p0, p1)
            for p0, p1 in zip(self.points[:-1], self.points[1:])
            for con in constraints
        )


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
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def ode_integrate(
    field: Callable,
    y0,
    path: PathPlan,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    samples: Sequence[float] | None = None,
    fixed_steps: int | None = None,
    max_steps: int = 2_000_000,
) -> list[tuple[float, np.ndarray]]:
    """Integrate dy/ds = field(point, velocity, y) along a polyline path.

    ``point``/``velocity`` are complex scalars for one-dimensional paths and
    tuples of complex otherwise; ``y`` is a flat complex vector. Steps always
    land exactly on segment corners and on every requested ``samples`` value,
    so no dense-output interpolation error enters reported states.

    With ``fixed_steps`` set, every segment is covered by that many equal
    steps without error control; interval boundaries still include samples.

    Returns [(s, y(s))] at s = 0, each sample, and s = 1.

    Raises SingularityApproach when the adaptive step underflows.
    """
    y = np.asarray(y0, dtype=complex).ravel().copy()
    out: list[tuple[float, np.ndarray]] = [(0.0, y.copy())]
    want = sorted(set(float(s) for s in (samples or ())))
    if any(s <= 0.0 or s > 1.0 for s in want):
        raise ValueError("sample parameters must lie in (0, 1]")

    # checkpoints: each segment end plus requested samples inside it
    checkpoints = sorted(set(path.breaks[1:]) | set(want))

    def fv(s: float, yv: np.ndarray) -> np.ndarray:
        pt = path.point(s)
        vel = path.velocity(k_seg)
        if path.scalar:
            return np.asarray(field(pt[0], vel[0], yv), dtype=complex).ravel()
        return np.asarray(field(pt, vel, yv), dtype=complex).ravel()

    s_cur = 0.0
    n_steps = 0
    h = None
    for s_target in checkpoints:
        k_seg = path._segment_of(0.5 * (s_cur + s_target))  # read by fv
        span = s_target - s_cur
        if span <= 0:
            continue
        if fixed_steps is not None:
            n = max(1, int(fixed_steps))
            hs = span / n
            k1 = fv(s_cur, y)
            for i in range(n):
                y, _err, k1 = _dp_step(fv, s_cur + i * hs, y, hs, k1)
            s_cur = s_target
        else:
            k1 = fv(s_cur, y)
            if h is None:
                h = _initial_step(fv, s_cur, y, k1, rtol, atol, span)
            h = min(h, span)
            while s_cur < s_target - 1e-15:
                h = min(h, s_target - s_cur)
                if h < 1e-14:
                    raise SingularityApproach(
                        "step size underflow during path integration",
                        location=path.point(s_cur),
                    )
                y_new, err, k_last = _dp_step(fv, s_cur, y, h, k1)
                en = _error_norm(err, y, y_new, rtol, atol)
                n_steps += 1
                if n_steps > max_steps:
                    raise SingularityApproach(
                        "step budget exhausted", location=path.point(s_cur)
                    )
                if en <= 1.0:
                    s_cur += h
                    y = y_new
                    k1 = k_last
                    grow = 0.9 * en ** -0.2 if en > 0 else 5.0
                    h *= min(5.0, max(0.2, grow))
                else:
                    h *= max(0.2, 0.9 * en ** -0.2)
        if s_target in want or s_target == 1.0:
            out.append((s_target, y.copy()))
    if out[-1][0] != 1.0:
        out.append((1.0, y.copy()))
    return out


def dp_fixed_batch(field: Callable, y0, n_steps) -> np.ndarray:
    """Integrate B independent problems dy/ds = field(rows, s, y) over s in [0, 1].

    Row k takes ``n_steps[k]`` >= 1 equal steps of the fixed-step
    Dormand-Prince scheme of :func:`ode_integrate`, with its own FSAL stage;
    all rows advance in lockstep and a row retires, unchanged from then on,
    once its count is spent. ``field`` receives the indices ``rows`` of the
    live rows, their parameters ``s`` with shape (len(rows), 1) and their
    states ``y`` with shape (len(rows), d), and returns dy/ds in y's shape.

    Returns the (B, d) array of end states.
    """
    y = np.array(y0, dtype=complex)
    n = np.asarray(n_steps, dtype=int)
    h = 1.0 / n[:, None]
    k1 = field(np.arange(len(y)), np.zeros_like(h), y)
    for i in range(int(n.max(initial=0))):
        rows = np.flatnonzero(n > i)
        y[rows], _err, k1[rows] = _dp_step(
            lambda s, yv: field(rows, s, yv), i * h[rows], y[rows], h[rows], k1[rows]
        )
    return y


def _dp_step(f, s0, y, h, k1):
    """One Dormand-Prince 5(4) step of dy/ds = f(s, y) from s0 with step h.

    ``y`` may carry a leading batch axis, with ``s0`` and ``h`` then per-row
    columns; returns (y(s0 + h), error estimate, FSAL stage f(s0 + h, y1)).
    """
    k = [k1]
    for i in range(1, 6):
        acc = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(f(s0 + _DP_C[i] * h, acc))
    y1 = y + h * sum(a * kk for a, kk in zip(_DP_A[6], k))
    k7 = f(s0 + h, y1)  # FSAL stage, reused as k1 of the next step
    k.append(k7)
    err = h * sum(e * kk for e, kk in zip(_DP_E, k))
    return y1, err, k7


def _initial_step(fv, s0, y, k1, rtol, atol, span) -> float:
    scale = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k1 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
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
    """Central finite-difference derivative of a scalar- or matrix-valued f.

    Error model: O(h^order), improved to O(h^(order+2)) with Richardson;
    h = scheme.step * (1 + |z|).
    """
    scheme = scheme or FDScheme()
    if deriv not in (1, 2):
        raise ValueError("deriv must be 1 or 2")
    h = scheme.scaled_step(z)
    values = {}
    for m in stencil_multipliers(scheme, (deriv,)):
        try:
            values[m] = np.asarray(f(z + m * h), dtype=complex)
        except Exception as exc:  # noqa: BLE001 - re-raised with stencil context
            raise StencilFailure(f"stencil evaluation failed at offset {m}*h: {exc}") from exc
    return combine_stencil(values, h, scheme, deriv)


def fd_mixed(f2: Callable, z1: complex, z2: complex, scheme: FDScheme | None = None):
    """Mixed second derivative d^2 f / dz1 dz2 by nested first differences."""
    scheme = scheme or FDScheme()

    def inner(w1):
        return fd_derivative(lambda w2: f2(w1, w2), z2, scheme, deriv=1)

    return fd_derivative(inner, z1, scheme, deriv=1)


# ---------------------------------------------------------------------------
# continuous logarithm along a linear chord
# ---------------------------------------------------------------------------

def continue_log(log_w0: complex, w0: complex, w1: complex, max_depth: int = 64) -> complex:
    """Continue log(w) from (w0, log_w0) to w1 along the straight chord.

    The chord w(s) = w0 + s*(w1 - w0) must stay away from the origin; each
    sub-step is kept small enough that the principal-log increment is valid.
    """
    if w0 == 0 or w1 == 0:
        raise PoleEvaluation("continuous log hit the branch point")

    def walk(lw, a, b, depth):
        ratio = b / a
        if abs(ratio - 1.0) < 0.5:
            return lw + cmath.log(ratio)
        if depth >= max_depth:
            raise PoleEvaluation("continuous log: chord passes too close to 0")
        mid = 0.5 * (a + b)
        if mid == 0:
            raise PoleEvaluation("continuous log hit the branch point")
        lm = walk(lw, a, mid, depth + 1)
        return walk(lm, mid, b, depth + 1)

    return walk(complex(log_w0), complex(w0), complex(w1), 0)
