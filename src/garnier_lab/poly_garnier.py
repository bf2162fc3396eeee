"""The polynomial Garnier system with two time variables.

Contains the two polynomial Hamiltonians, the eight explicit right-hand
sides of the commuting flows, the gauge function u, the 2x2 linearization
matrices that embed a trajectory into the Schlesinger picture, the algebraic
bridges to Garnier-Okamoto coordinates and the Painleve-VI reduction on the
locus q1 + q2 = 1.

The eight right-hand sides and both gauge-log derivatives live in one body,
``_pg_flows``, in plain arithmetic. On numbers it serves pg_rhs_explicit,
raw_rhs_pair and u_logderiv. Run once per process on the package's one
recorder of a flow body, ``numerics._Tape`` (``_pg_trace``, at the first
Taylor step; ``garnier_okamoto`` records its field on the same tape), and
folded into sparse polynomials (``_pg_polys``), it gives the table of
monomials from which ``_pg_taylor`` forms the Taylor coefficients of the
flow on a straight chord; integrate_pg walks its paths on those
coefficients with ``numerics.taylor_integrate``, and hop_pg sums one series
at every offset of a stencil (``numerics.taylor_stencil``), so no move of
the flow runs on Dormand-Prince steps.

Index convention: formulas are written for the pair (i, n) where n is the
other index; the t2-flow equations are the literal transcriptions, which
coincide with the i <-> n images of the t1-flow ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    NotOnReduction,
    PoleEvaluation,
    ReductionLocus,
    ResonantInfinity,
    TimeCollision,
    ZeroGauge,
)
from .numerics import DEFAULT_RTOL, TAYLOR_ORDER, PathPlan, SeriesStop, quad_roots, taylor_integrate, taylor_stencil
from .numerics import _plus, _Tape
from .numerics import ode_integrate  # noqa: F401 - unused here; perfbench's tracer wraps every module's copy
from .schlesinger import SchlesingerState, ThetaGO, check_time_path, time_constraints

__all__ = [
    "ThetaPG",
    "PGState",
    "PVIState",
    "hamiltonian_HGar",
    "pg_rhs_explicit",
    "integrate_pg",
    "hop_pg",
    "ahat_matrices",
    "elem_a",
    "u_logderiv",
    "to_schlesinger",
    "bridge_q_from_lambda",
    "bridge_lambda_from_q",
    "mu_p_relations",
    "pvi_reduce",
    "pvi_hamiltonian",
    "pvi_rhs",
    "gen_pg",
    "random_theta_pg",
    "find_fixed_point",
]

FUCHS_TOL = 1e-12


@dataclass(frozen=True)
class ThetaPG:
    """The six exponents (theta^0, theta^1, theta^{t1}, theta^{t2},
    theta_1^inf, theta_2^inf), constrained to sum to zero."""

    th0: complex
    th1: complex
    tht1: complex
    tht2: complex
    thinf1: complex
    thinf2: complex

    @property
    def fuchs_residual(self) -> complex:
        return self.th0 + self.th1 + self.tht1 + self.tht2 + self.thinf1 + self.thinf2

    def validate(self, tol: float = FUCHS_TOL) -> None:
        r = abs(self.fuchs_residual)
        if r > tol:
            raise ValueError(f"Fuchs relation violated by {r:.3e}")

    def to_json(self) -> dict:
        from .schlesinger import _c

        return {
            "th0": _c(self.th0),
            "th1": _c(self.th1),
            "tht1": _c(self.tht1),
            "tht2": _c(self.tht2),
            "thinf1": _c(self.thinf1),
            "thinf2": _c(self.thinf2),
        }

    @classmethod
    def from_json(cls, d: dict) -> "ThetaPG":
        from .schlesinger import _uc

        obj = cls(**{k: _uc(d[k]) for k in ("th0", "th1", "tht1", "tht2", "thinf1", "thinf2")})
        obj.validate()
        return obj


@dataclass
class PGState:
    t1: complex
    t2: complex
    q1: complex
    q2: complex
    p1: complex
    p2: complex
    params: ThetaPG

    def check_times(self) -> None:
        _check_times(self.t1, self.t2)

    def to_json(self) -> dict:
        from .schlesinger import _c

        return {
            "t1": _c(self.t1),
            "t2": _c(self.t2),
            "q": [_c(self.q1), _c(self.q2)],
            "p": [_c(self.p1), _c(self.p2)],
            "theta": self.params.to_json(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "PGState":
        from .schlesinger import _uc

        params = ThetaPG.from_json(d["theta"])
        return cls(
            t1=_uc(d["t1"]),
            t2=_uc(d["t2"]),
            q1=_uc(d["q"][0]),
            q2=_uc(d["q"][1]),
            p1=_uc(d["p"][0]),
            p2=_uc(d["p"][1]),
            params=params,
        )


@dataclass
class PVIState:
    omega: complex
    Q: complex
    P: complex
    params: ThetaPG


def _check_times(t1: complex, t2: complex) -> None:
    for val, name in ((t1, "t1"), (t2, "t2")):
        if abs(val) < 1e-12 or abs(val - 1.0) < 1e-12:
            raise TimeCollision(f"{name} hits a fixed singular time")
    if abs(t1 - t2) < 1e-12:
        raise TimeCollision("t1 = t2")


# ---------------------------------------------------------------------------
# Hamiltonians and explicit right-hand sides
# ---------------------------------------------------------------------------

def hamiltonian_HGar(i: int, s: PGState) -> complex:
    """H_{Gar, t_i}; the i = 2 Hamiltonian is the index-swapped i = 1 formula."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    s.check_times()
    th = s.params
    if i == 1:
        ti, tn, qi, qn, pi, pn, thti, thtn = s.t1, s.t2, s.q1, s.q2, s.p1, s.p2, th.tht1, th.tht2
    else:
        ti, tn, qi, qn, pi, pn, thti, thtn = s.t2, s.t1, s.q2, s.q1, s.p2, s.p1, th.tht2, th.tht1
    th0, th1, thi2 = th.th0, th.th1, th.thinf2
    val = qi * (qi - 1.0) * (qi - ti) * pi**2
    val += (
        (th0 + thtn + 1.0) * qi * (qi - 1.0)
        - (2.0 * thi2 + th1 + th0 + thti + thtn + 1.0) * qi * (qi - ti)
        + thti * (qi - 1.0) * (qi - ti)
    ) * pi
    val += thi2 * (thi2 + th1) * qi
    val += (2.0 * qi * pi + qn * pn - th1 - 2.0 * thi2) * qi * qn * pn
    val -= (
        ti * (ti - 1.0) * (pi * qi + thti) * pi * qn
        - ti * (tn - 1.0) * (2.0 * pi * qi + thti) * pn * qn
        + tn * (ti - 1.0) * qi * (pn**2 * qn + thtn * (pn - pi))
    ) / (ti - tn)
    return val / (ti * (ti - 1.0))


def _pg_flows(t1, t2, q1, q2, p1, p2, th: ThetaPG):
    """The ten raw right-hand sides of the two flows at one point, before their prefactors.

    In order: the (q1, q2, p1, p2) right-hand sides of the t1-flow, then of
    the t2-flow, then the numerators of g1 and g2, g_j = d ln u/dt_j; each
    is divided by t_j(t_j - 1) in :func:`_divided`. Entries 1 and 4 (opo,
    tqo), the q2 equation of the t1-flow and the q1 equation of the t2-flow,
    are kept as two transcriptions because they coincide identically. The
    one place the formulas are written: pure arithmetic (+, -, *, integer
    powers and division by t1 - t2) that does not check its times, so the
    same body runs on numbers, for pg_rhs_explicit, raw_rhs_pair and
    u_logderiv, and on the tape nodes of :func:`_pg_trace`.
    """
    a1, a2 = th.tht1, th.tht2
    th0, b1, b2 = th.th0, th.th1, th.thinf2
    b = b1 + 2.0 * b2
    d = t1 - t2
    oqo = (
        2.0 * p1 * q1 * ((q1 - 1.0) * (q1 - t1) - t1 * (t1 - 1.0) / d * q2)
        + 2.0 * p2 * q1 * q2 * (q1 + t1 * (t2 - 1.0) / d)
        - b * q1**2
        - (1.0 + th0 + a1 + a2) * q1
        + (1.0 + b1 + 2.0 * b2 + th0 + a2) * t1 * q1
        + t1 * a1
        + (t1 - 1.0) / d * (t2 * a2 * q1 - t1 * a1 * q2)
    )
    opo = (
        2.0 * p1 * q1 * q2 * (q1 + t1 * (t2 - 1.0) / d)
        + 2.0 * p2 * q1 * q2 * (q2 - t2 * (t1 - 1.0) / d)
        - b * q1 * q2
        - (t2 * (t1 - 1.0) * a2 * q1 - t1 * (t2 - 1.0) * a1 * q2) / d
    )
    oppo = (
        -(p1**2) * (3.0 * q1**2 - 2.0 * (t1 + 1.0) * q1 + t1 - t1 * (t1 - 1.0) / d * q2)
        - 2.0 * p2 * p1 * q2 * (2.0 * q1 + t1 * (t2 - 1.0) / d)
        - p2**2 * q2 * (q2 - t2 * (t1 - 1.0) / d)
        + p1
        * (
            2.0 * b * q1
            + (1.0 + th0 + a1 + a2)
            - (1.0 + b1 + 2.0 * b2 + th0 + a2) * t1
            - t2 * (t1 - 1.0) * a2 / d
        )
        + p2 * (b * q2 + t2 * (t1 - 1.0) * a2 / d)
        - b2 * (b2 + b1)
    )
    opt = (
        p1**2 * q1 * t1 * (t1 - 1.0) / d
        - 2.0 * p2 * p1 * q1 * (q1 + t1 * (t2 - 1.0) / d)
        - p2**2 * q1 * (2.0 * q2 - t2 * (t1 - 1.0) / d)
        + p1 * a1 * t1 * (t1 - 1.0) / d
        + p2 * (b * q1 - t1 * (t2 - 1.0) * a1 / d)
    )
    tqo = (
        2.0 * p1 * q1 * q2 * (q1 + t1 * (t2 - 1.0) / d)
        + 2.0 * p2 * q1 * q2 * (q2 - t2 * (t1 - 1.0) / d)
        - b * q1 * q2
        - (t2 * (t1 - 1.0) * a2 * q1 - t1 * (t2 - 1.0) * a1 * q2) / d
    )
    tqt = (
        2.0 * p1 * q1 * q2 * (q2 - t2 * (t1 - 1.0) / d)
        + 2.0 * p2 * q2 * ((q2 - 1.0) * (q2 - t2) + t2 * (t2 - 1.0) / d * q1)
        - b * q2**2
        - (1.0 + th0 + a1 + a2) * q2
        + (1.0 + b1 + 2.0 * b2 + th0 + a1) * t2 * q2
        + t2 * a2
        + (t2 - 1.0) / d * (t2 * a2 * q1 - t1 * a1 * q2)
    )
    tpo = (
        -(p1**2) * q2 * (2.0 * q1 + t1 * (t2 - 1.0) / d)
        - 2.0 * p2 * p1 * q2 * (q2 - t2 * (t1 - 1.0) / d)
        - p2**2 * q2 * t2 * (t2 - 1.0) / d
        + p1 * (b * q2 + t2 * (t1 - 1.0) * a2 / d)
        - p2 * a2 * t2 * (t2 - 1.0) / d
    )
    tpt = (
        -(p1**2) * q1 * (q1 + t1 * (t2 - 1.0) / d)
        - 2.0 * p2 * p1 * q1 * (2.0 * q2 - t2 * (t1 - 1.0) / d)
        - p2**2 * (3.0 * q2**2 - 2.0 * q2 * (t2 + 1.0) + t2 + t2 * (t2 - 1.0) / d * q1)
        + p1 * (b * q1 - t1 * (t2 - 1.0) * a1 / d)
        + p2
        * (
            2.0 * b * q2
            + (1.0 + th0 + a1 + a2)
            - (1.0 + b1 + 2.0 * b2 + th0 + a1) * t2
            + t1 * (t2 - 1.0) * a1 / d
        )
        - b2 * (b2 + b1)
    )
    g1 = q1 * (2.0 * p1 * (t1 - q1) + b1 + 2.0 * b2) - 2.0 * q1 * p2 * q2 + t1 * a1
    g2 = q2 * (2.0 * p2 * (t2 - q2) + b1 + 2.0 * b2) - 2.0 * q2 * p1 * q1 + t2 * a2
    return oqo, opo, oppo, opt, tqo, tqt, tpo, tpt, g1, g2


def _divided(raw, t1, t2) -> tuple[list, list, object, object]:
    """(D[0], D[1], g1, g2) from the raw outputs of :func:`_pg_flows`: each divided by its t_j(t_j - 1)."""
    f1 = t1 * (t1 - 1.0)
    f2 = t2 * (t2 - 1.0)
    return [r / f1 for r in raw[:4]], [r / f2 for r in raw[4:8]], raw[8] / f1, raw[9] / f2


def _pg_values(t1, t2, q1, q2, p1, p2, th: ThetaPG) -> tuple[list, list, complex, complex]:
    """(D[0], D[1], g1, g2) at one point, after checking its times."""
    _check_times(t1, t2)
    return _divided(_pg_flows(t1, t2, q1, q2, p1, p2, th), t1, t2)


def pg_rhs_explicit(s: PGState) -> np.ndarray:
    """All eight flow derivatives as D[j, k] = d(var_k)/d(t_{j+1}).

    Rows are the t1- and t2-flows, columns (q1, q2, p1, p2). The common
    prefactors t_i(t_i - 1) of the displayed equations are divided out.
    """
    return np.array(_pg_values(s.t1, s.t2, s.q1, s.q2, s.p1, s.p2, s.params)[:2], dtype=complex)


def raw_rhs_pair(s: PGState) -> tuple[complex, complex]:
    """(RHS of the q_n equation of the t_i-flow, RHS of the q_i equation of
    the t_n-flow) before dividing prefactors; the two expressions coincide
    identically."""
    s.check_times()
    raw = _pg_flows(s.t1, s.t2, s.q1, s.q2, s.p1, s.p2, s.params)
    return raw[1], raw[4]


def u_logderiv(s: PGState) -> tuple[complex, complex]:
    """(d ln u / dt1, d ln u / dt2) of the scalar gauge."""
    return _pg_values(s.t1, s.t2, s.q1, s.q2, s.p1, s.p2, s.params)[2:]


# ---------------------------------------------------------------------------
# flow integration (optionally carrying ln u)
# ---------------------------------------------------------------------------

# the variables of _pg_trace: t1, t2, w = 1/(t1 - t2), z1 = 1/(t1(t1 - 1)), z2 = 1/(t2(t2 - 1)),
# q1, q2, p1, p2 and the exponents th0, th1, tht1, tht2, thinf2
_N_VARS = 14


def _pg_polys(ops: list[tuple]) -> list[dict]:
    """Each entry of the tape of :func:`_pg_trace` as a polynomial {exponents: number} over the ``_N_VARS`` variables.

    Inputs 0-10 are t1, t2, q1, q2, p1, p2 and the five exponents. A quotient is allowed only by t1 - t2,
    t1(t1 - 1) or t2(t2 - 1), as a product with its reciprocal variable w, z1 or z2. Terms that cancel are dropped.
    """

    def var(i, n=1):
        return tuple(n * (j == i) for j in range(_N_VARS))

    def times(a, b):
        out: dict = {}
        for ka, ca in a.items():
            out = _plus(out, {tuple(map(operator.add, ka, kb)): cb for kb, cb in b.items()}, ca)
        return out

    dens = [{var(0): 1.0, var(1): -1.0}, {var(0, 2): 1.0, var(0): -1.0}, {var(1, 2): 1.0, var(1): -1.0}]
    polys: list[dict] = []
    for op, a, b in ops:
        if op == "num":
            p = {(0,) * _N_VARS: a}
        elif op == "in":
            p = {var(a if a < 2 else a + 3): 1.0}
        elif op in ("+", "-"):
            p = _plus(polys[a], polys[b], 1.0 if op == "+" else -1.0)
        else:
            p = times(polys[a], polys[b] if op == "*" else {var(2 + dens.index(polys[b])): 1.0})
        polys.append({k: c for k, c in p.items() if c != 0.0})
    return polys


class _Trace(NamedTuple):
    """The monomial table of :func:`_pg_trace`; a term is a number times exponent powers, a t- and a y-monomial."""

    tmons: np.ndarray  # (A, 5): exponents of (t1, t2, w, z1, z2) in each t-monomial
    n_mons: int  # y-monomials: (q1, q2, p1, p2), the constant, then the rest by degree
    levels: list  # per degree k >= 2: (rows of degree k - 1, rows of degree k, index into their products with y)
    j: np.ndarray  # per term: 0 in the t1-flow, 1 in the t2-flow
    a: np.ndarray  # per term: its t-monomial
    powers: np.ndarray  # per term: powers of (th0, th1, tht1, tht2, thinf2), (T, 5)
    numbers: np.ndarray  # per term: its number
    starts: np.ndarray  # terms are sorted by (row, y-monomial): the first term of each run of equal pairs
    rows: np.ndarray  # per run: its row among d(q1, q2, p1, p2, ln u)/ds
    mons: np.ndarray  # per run: its y-monomial


@cache
def _pg_trace() -> _Trace:
    """The ten outputs of :func:`_pg_flows`, divided by their prefactors, as one monomial table.

    The body runs once per process, at the first Taylor step, on a ``numerics._Tape`` of t1, t2, (q1, q2, p1,
    p2) and the five exponents it reads; :func:`_pg_polys` folds the tape into polynomials over those and the
    three reciprocal denominators. Each y-monomial of degree k >= 2 is then the product of one of degree k - 1
    and a variable (a missing factor joins the table as a monomial of its own).
    """
    tape = _Tape()
    t1, t2, q1, q2, p1, p2, th0, th1, tht1, tht2, thinf2 = (tape.node("in", k, None) for k in range(11))
    th = ThetaPG(th0, th1, tht1, tht2, 0.0, thinf2)
    D0, D1, g1, g2 = _divided(_pg_flows(t1, t2, q1, q2, p1, p2, th), t1, t2)
    polys = _pg_polys(tape.ops)
    outs = [(0, r, D0[r]) for r in range(4)] + [(1, r, D1[r]) for r in range(4)] + [(0, 4, g1), (1, 4, g2)]
    terms = sorted((r, k[5:9], j, k[:5], k[9:], c) for j, r, out in outs for k, c in polys[out.i].items())
    units = [tuple(int(j == i) for j in range(4)) for i in range(4)]

    def factors(m):
        return [(tuple(e - (j == i) for j, e in enumerate(m)), i) for i in range(4) if m[i]]

    ymons = {t[1] for t in terms} | set(units) | {(0,) * 4}
    for deg in range(max(map(sum, ymons)), 2, -1):
        for m in sorted(m for m in ymons if sum(m) == deg):
            if not any(f in ymons for f, _i in factors(m)):
                ymons.add(factors(m)[0][0])
    ymons = units + sorted(ymons - set(units), key=lambda m: (sum(m), m))
    where = {m: i for i, m in enumerate(ymons)}
    block = {1: slice(0, 4)}
    levels = []
    for deg in range(2, sum(ymons[-1]) + 1):
        rows = [i for i, m in enumerate(ymons) if sum(m) == deg]
        block[deg] = slice(rows[0], rows[-1] + 1)
        lo = block[deg - 1].start
        flat = [next(4 * (where[f] - lo) + i for f, i in factors(ymons[r]) if f in where) for r in rows]
        levels.append((block[deg - 1], block[deg], np.array(flat)))
    tmons = sorted({t[3] for t in terms})
    runs = [n for n, t in enumerate(terms) if n == 0 or t[:2] != terms[n - 1][:2]]
    return _Trace(
        tmons=np.array(tmons),
        n_mons=len(ymons),
        levels=levels,
        j=np.array([t[2] for t in terms]),
        a=np.array([tmons.index(t[3]) for t in terms]),
        powers=np.array([t[4] for t in terms]),
        numbers=np.array([t[5] for t in terms]),
        starts=np.array(runs),
        rows=np.array([terms[n][0] for n in runs]),
        mons=np.array([where[terms[n][1]] for n in runs]),
    )


def _pg_table(th: ThetaPG) -> np.ndarray:
    """The number of each term of :func:`_pg_trace` at exponents ``th``."""
    tr = _pg_trace()
    values = np.array([th.th0, th.th1, th.tht1, th.tht2, th.thinf2], dtype=complex)
    return tr.numbers * np.prod(values**tr.powers, axis=1)


_LAG = np.subtract.outer(np.arange(TAYLOR_ORDER + 1), np.arange(TAYLOR_ORDER + 1))  # k - l


def _pg_taylor(table: np.ndarray, point, velocity, y, reach=None) -> tuple[np.ndarray, float]:
    """Taylor coefficients in s of the flow through y = (q1, q2, p1, p2[, ln u]) at (t1, t2) = point along velocity.

    On the chord t(s) = t + s v, T1 and T2 are linear in s, and W, Z1 =
    1/(t1 - 1) - 1/t1 and Z2 sums of geometric series; their Cauchy products
    give the series of each t-monomial of :func:`_pg_trace`, and with the
    term numbers ``table`` (:func:`_pg_table`) and the velocity the series
    C_m of the coefficient of each y-monomial in each row of dy/ds. Then for
    each order n: the y-monomials of degree 2, 3, 4 at order n as three
    batched Cauchy products, F_n = sum_m sum_k C_m,k Y_m,n-k, and y_n+1 =
    F_n/(n + 1). With ``reach`` (how far in s the series is summed) the orders
    stop where a ``numerics.SeriesStop`` finds it converged. Returns the
    (k + 1, len(y)) coefficients, k = TAYLOR_ORDER or that order, and the
    s-distance to the nearest t_i in {0, 1} or t1 = t2, the radius of the C_m.
    """
    p, tr = TAYLOR_ORDER, _pg_trace()
    (t1, t2), (v1, v2) = point, velocity
    den = np.array([t1 - t2, t1 - 1.0, t1, t2 - 1.0, t2], dtype=complex)
    rate = -np.array([v1 - v2, v1, v1, v2, v2], dtype=complex) / den
    geo = np.empty((5, p + 1), dtype=complex)  # 1/(den + s d(den)/ds) = sum_k (rate s)^k / den
    geo[:, 0], geo[:, 1:] = 1.0 / den, rate[:, None]
    geo = np.cumprod(geo, axis=1)
    base = np.zeros((5, p + 1), dtype=complex)  # T1, T2, W, Z1, Z2
    base[0, :2], base[1, :2], base[2], base[3], base[4] = (t1, v1), (t2, v2), geo[0], geo[1] - geo[2], geo[3] - geo[4]
    tser = np.zeros((len(tr.tmons), p + 1), dtype=complex)
    tser[:, 0] = 1.0
    for i, top in enumerate(tr.tmons.max(axis=0).tolist()):
        lag = np.where(_LAG >= 0, base[i][_LAG], 0.0)  # lag[k, l] = base_i,k-l
        for e in range(top):
            sel = tr.tmons[:, i] > e
            tser[sel] = np.einsum("al,kl->ak", tser[sel], lag)
    C = np.zeros((5, tr.n_mons, p + 1), dtype=complex)
    C[tr.rows, tr.mons] = np.add.reduceat((table * np.array(velocity)[tr.j])[:, None] * tser[tr.a], tr.starts)
    d = len(y)
    c = np.zeros((p + 1, d), dtype=complex)
    c[0] = y
    Y = np.zeros((tr.n_mons, p + 1), dtype=complex)  # Y[m, p - k]: order k of y^m, reversed
    Y[:4, p], Y[4, p] = c[0, :4], 1.0
    stop = SeriesStop(y, reach)
    for n in range(p):
        for lower, rows, flat in tr.levels:  # every product y^lower * y_i at order n, then the ones wanted
            Y[rows, p - n] = np.einsum("ki,mk->mi", c[: n + 1, :4], Y[lower, p - n :]).ravel()[flat]
        c[n + 1] = np.einsum("rmk,mk->r", C[:d, :, : n + 1], Y[:, p - n :]) / (n + 1)
        Y[:4, p - n - 1] = c[n + 1, :4]
        if n + 1 == stop.next and stop(lambda j: c[j], n + 1):
            c = c[: n + 2]
            break
    return c, 1.0 / float(np.max(np.abs(rate)))


def integrate_pg(
    s0: PGState,
    path: PathPlan,
    samples: Sequence[float] | None = None,
    rtol: float = DEFAULT_RTOL,
    with_lnu: bool = False,
) -> list[tuple[float, PGState]] | list[tuple[float, PGState, complex]]:
    """Integrate the polynomial Garnier flow along a (t1, t2) path, in Taylor steps of :func:`_pg_taylor`.

    With ``with_lnu`` the scalar gauge log is carried along as a fifth row
    (ln u = 0 at the base point) and each output row becomes (s, state,
    ln_u). ``rtol``, in (0, 1), bounds each step's truncation error as in
    ``numerics.taylor_integrate``, which raises SingularityApproach, with
    the (t1, t2) where it stopped, on a state that runs into a movable pole.
    """
    check_time_path(path, s0.t1, s0.t2)
    y0 = np.array([s0.q1, s0.q2, s0.p1, s0.p2] + ([0.0] if with_lnu else []), dtype=complex)
    traj = taylor_integrate(partial(_pg_taylor, _pg_table(s0.params)), y0, path, rtol=rtol, samples=samples)
    out = []
    for s, y in traj:
        t1, t2 = path.point(s)
        st = replace(s0, t1=t1, t2=t2, q1=y[0], q2=y[1], p1=y[2], p2=y[3])
        if with_lnu:
            out.append((s, st, complex(y[4])))
        else:
            out.append((s, st))
    return out


def hop_pg(s0: PGState, d: int, offsets: Sequence[complex], radius: float) -> list[tuple[PGState, complex]]:
    """(state, ln u gained) of the flow from s0 with t_{d+1} moved to t_{d+1} + m, for every offset m.

    Every moving hop is checked as a one-segment path against :func:`time_constraints` at ``radius``
    before any coefficient is formed; then one :func:`_pg_taylor` series with ln u along e_d is summed at
    each moved time less the start's, so each state sits exactly at its times (``numerics.taylor_stencil``).
    An offset of 0 returns (s0, 0).
    """
    t0 = np.array([s0.t1, s0.t2], dtype=complex)
    t1 = np.repeat(t0[None], len(offsets), axis=0)
    t1[:, d] += offsets
    moving = np.flatnonzero(t1[:, d] != t0[d])
    for t_new in t1[moving]:
        PathPlan([tuple(t0), tuple(t_new)], radius).validate_against(time_constraints())
    coeffs, y0 = partial(_pg_taylor, _pg_table(s0.params)), [s0.q1, s0.q2, s0.p1, s0.p2, 0.0]
    y1 = taylor_stencil(coeffs, y0, tuple(t0), tuple(np.eye(2)[d]), t1[moving, d] - t0[d])  # each at its stored times
    out = [(s0, 0j) for _m in offsets]
    for k, (a, b), y in zip(moving, t1[moving].tolist(), y1):
        out[k] = (replace(s0, t1=a, t2=b, q1=y[0], q2=y[1], p1=y[2], p2=y[3]), complex(y[4]))
    return out


# ---------------------------------------------------------------------------
# linearization into the Schlesinger picture
# ---------------------------------------------------------------------------

def ahat_matrices(s: PGState) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A^0, A^1, A^{t1}, A^{t2}): the 2x2 residues of the isomonodromic pencil.

    Each matrix has eigenvalues {0, theta^xi}; their negated sum is lower
    triangular with diagonal (theta_1^inf, theta_2^inf) and corner entry a.
    """
    th = s.params
    if abs(s.t1) < 1e-12 or abs(s.t2) < 1e-12:
        raise TimeCollision("t_i = 0 makes A^{t_i} singular to build")
    pq = s.p1 * s.q1 + s.p2 * s.q2
    a0 = np.array([[th.th0, -1.0 + s.q1 / s.t1 + s.q2 / s.t2], [0.0, 0.0]], dtype=complex)
    a1 = np.array(
        [
            [th.th1 + th.thinf2 - pq, 1.0],
            [(pq - th.thinf2) * (th.th1 + th.thinf2 - pq), pq - th.thinf2],
        ],
        dtype=complex,
    )

    def a_t(ti, qi, pi, thti):
        return np.array(
            [[thti + pi * qi, -qi / ti], [ti * pi * (thti + pi * qi), -pi * qi]], dtype=complex
        )

    at1 = a_t(s.t1, s.q1, s.p1, th.tht1)
    at2 = a_t(s.t2, s.q2, s.p2, th.tht2)
    return a0, a1, at1, at2


def elem_a(s: PGState) -> complex:
    """Corner entry a of -(A^0 + A^1 + A^{t1} + A^{t2}).

    Closed form: (pq - th2inf)(pq - th1 - th2inf) - t1 p1 (th^{t1} + p1 q1)
    - t2 p2 (th^{t2} + p2 q2), with pq = p1 q1 + p2 q2.
    """
    th = s.params
    pq = s.p1 * s.q1 + s.p2 * s.q2
    return (
        (pq - th.thinf2) * (pq - th.th1 - th.thinf2)
        - s.t1 * s.p1 * (th.tht1 + s.p1 * s.q1)
        - s.t2 * s.p2 * (th.tht2 + s.p2 * s.q2)
    )


def to_schlesinger(s: PGState, u: complex) -> SchlesingerState:
    """Conjugate the residues into a Q-normalized Schlesinger state.

    S_xi = diag(1,u)^{-1} P^{-1} A^xi P diag(1,u) with P chosen to cancel
    the corner entry a; the state's matrices are ordered (S_{t1}, S_{t2},
    S_1, S_0) to match the pole order (t1, t2, 1, 0).
    """
    th = s.params
    th.validate()
    split = th.thinf1 - th.thinf2
    if abs(split) < 1e-10:
        raise ResonantInfinity("theta_1^inf = theta_2^inf: gauge matrix degenerates")
    if abs(u) < 1e-150:
        raise ZeroGauge("scalar gauge u vanished")
    a0, a1m, at1, at2 = ahat_matrices(s)
    g = elem_a(s) / split
    P = np.array([[1.0, 0.0], [g, 1.0]], dtype=complex)
    P_inv = np.array([[1.0, 0.0], [-g, 1.0]], dtype=complex)
    D = np.array([[1.0, 0.0], [0.0, u]], dtype=complex)
    D_inv = np.array([[1.0, 0.0], [0.0, 1.0 / u]], dtype=complex)

    def conj(m):
        return D_inv @ (P_inv @ m @ P) @ D

    A = np.array([conj(at1), conj(at2), conj(a1m), conj(a0)])
    tgo = ThetaGO(
        theta=(th.tht1, th.tht2, th.th1, th.th0),
        k_inf=th.thinf2 - th.thinf1,
    )
    return SchlesingerState(t1=s.t1, t2=s.t2, A=A, norm="Q", theta=tgo)


# ---------------------------------------------------------------------------
# coordinate bridges
# ---------------------------------------------------------------------------

def bridge_q_from_lambda(lam1, lam2, t1, t2) -> tuple[complex, complex]:
    """(q1, q2) from the symmetric rational formulas; symmetric in lam1, lam2."""
    if abs(lam1 - 1.0) < 1e-12 or abs(lam2 - 1.0) < 1e-12:
        raise PoleEvaluation("lambda_k = 1 is a pole of the bridge")
    if abs(t1 - t2) < 1e-12:
        raise TimeCollision("t1 = t2")
    den = (t1 - t2) * (lam1 - 1.0) * (lam2 - 1.0)
    q1 = (1.0 - t2) * (lam1 - t1) * (lam2 - t1) / den
    q2 = -(1.0 - t1) * (lam1 - t2) * (lam2 - t2) / den
    return q1, q2


def bridge_lambda_from_q(q1, q2, t1, t2) -> tuple[complex, complex]:
    """Unordered zeros {lambda_1, lambda_2} via their symmetric functions."""
    w = 1.0 - q1 - q2
    if abs(w) < 1e-12:
        raise ReductionLocus("q1 + q2 = 1: the bridge degenerates")
    e1 = (t1 + t2 - (1.0 + t2) * q1 - (1.0 + t1) * q2) / w
    e2 = (t1 * t2 - t2 * q1 - t1 * q2) / w
    return quad_roots(1.0, -e1, e2)


def mu_p_relations(s: PGState, g) -> tuple[complex, complex]:
    """Residuals of the two momentum relations linking p_i to (lambda, mu).

    Zero (to numerical accuracy) exactly when s and g describe the same
    underlying Schlesinger solution.
    """
    l1, l2 = g.lam
    m1, m2 = g.mu
    if abs(s.q1) < 1e-12 or abs(s.q2) < 1e-12:
        raise PoleEvaluation("q_i = 0 is a pole of the left-hand side")
    if abs(l1 - l2) < 1e-12:
        raise PoleEvaluation("lambda_1 = lambda_2")
    if abs(l1 * l2) < 1e-12:
        raise PoleEvaluation("lambda_1 lambda_2 = 0")
    th = s.params
    pref = (l1 - 1.0) * (l2 - 1.0) / ((s.t1 - 1.0) * (s.t2 - 1.0))
    theta_sum = th.tht1 + th.tht2 + th.th1 + th.th0 + th.thinf2
    res = []
    for ti, qi, pi, thti in ((s.t2, s.q1, s.p1, th.tht1), (s.t1, s.q2, s.p2, th.tht2)):
        # the first relation carries t2 inside, the second t1
        frac = ((l1 - 1.0) * (l1 - ti) * m1 - (l2 - 1.0) * (l2 - ti) * m2) / (l1 - l2)
        rhs = pref * (frac - theta_sum + th.th0 * ti / (l1 * l2))
        res.append(pi + thti / qi - rhs)
    return res[0], res[1]


# ---------------------------------------------------------------------------
# Painleve VI reduction
# ---------------------------------------------------------------------------

def pvi_hamiltonian(omega: complex, Q: complex, P: complex, params: ThetaPG) -> complex:
    """Polynomial PVI Hamiltonian of the reduced flow (i = 1 labeling)."""
    th = params
    b = th.th1 + 2.0 * th.thinf2
    val = (
        P**2 * Q * (Q - 1.0) * (Q - omega)
        - P * (b * Q * (Q - 1.0) + omega * th.tht1 * (Q - 1.0) + (omega - 1.0) * th.tht2 * Q)
        + th.thinf2 * (th.thinf2 + th.th1) * Q
    )
    return val / (omega * (omega - 1.0))


def pvi_rhs(omega: complex, Q: complex, P: complex, params: ThetaPG) -> tuple[complex, complex]:
    """(dQ/domega, dP/domega) = (dH/dP, -dH/dQ) in closed form."""
    th = params
    b = th.th1 + 2.0 * th.thinf2
    f = omega * (omega - 1.0)
    dH_dP = (
        2.0 * P * Q * (Q - 1.0) * (Q - omega)
        - (b * Q * (Q - 1.0) + omega * th.tht1 * (Q - 1.0) + (omega - 1.0) * th.tht2 * Q)
    ) / f
    dH_dQ = (
        P**2 * ((Q - 1.0) * (Q - omega) + Q * (Q - omega) + Q * (Q - 1.0))
        - P * (b * (2.0 * Q - 1.0) + omega * th.tht1 + (omega - 1.0) * th.tht2)
        + th.thinf2 * (th.thinf2 + th.th1)
    ) / f
    return dH_dP, -dH_dQ


def pvi_reduce(s: PGState, tol: float = 1e-10) -> PVIState:
    """Project a reduction-locus state to (omega, Q, P).

    Requires q1 + q2 = 1 and theta_1^inf = theta_2^inf + 1 (the condition
    that makes the locus invariant). omega = t1(t2 - 1)/(t2 - t1), Q = q1,
    P = p1 - p2.
    """
    th = s.params
    if abs(s.q1 + s.q2 - 1.0) > tol:
        raise NotOnReduction(f"q1 + q2 - 1 = {s.q1 + s.q2 - 1.0:.3e}")
    if abs(th.thinf1 - th.thinf2 - 1.0) > tol:
        raise NotOnReduction("parameters do not satisfy theta_1^inf = theta_2^inf + 1")
    s.check_times()
    omega = s.t1 * (s.t2 - 1.0) / (s.t2 - s.t1)
    return PVIState(omega=omega, Q=s.q1, P=s.p1 - s.p2, params=th)


def omega_to_t1(omega: complex, t2: complex) -> complex:
    """Invert omega(t1) at fixed t2."""
    return omega * t2 / (omega + t2 - 1.0)


# ---------------------------------------------------------------------------
# seeded states and fixed points
# ---------------------------------------------------------------------------

def random_theta_pg(seed: int, kond: bool = False) -> ThetaPG:
    """Random exponents satisfying the Fuchs relation.

    With ``kond`` the pair at infinity additionally satisfies
    theta_1^inf = theta_2^inf + 1 (the PVI-reduction resonance).
    """
    rng = np.random.default_rng(seed)

    def draw():
        return complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))

    th0, th1, tht1, tht2 = draw(), draw(), draw(), draw()
    if kond:
        thinf2 = -(1.0 + th0 + th1 + tht1 + tht2) / 2.0
        thinf1 = thinf2 + 1.0
    else:
        thinf1 = draw()
        thinf2 = -(th0 + th1 + tht1 + tht2 + thinf1)
        if abs(thinf1 - thinf2) < 0.1:
            return random_theta_pg(seed + 104729, kond)
    return ThetaPG(th0, th1, tht1, tht2, thinf1, thinf2)


def gen_pg(
    params: ThetaPG,
    seed: int,
    t1: complex = 0.28 + 0.03j,
    t2: complex = 0.71 - 0.06j,
    on_reduction: bool = False,
) -> PGState:
    """Seeded random phase-space point (bounded away from q_i = 0)."""
    params.validate()
    rng = np.random.default_rng(seed)

    def draw(lo=0.25, hi=1.0):
        r = rng.uniform(lo, hi)
        phi = rng.uniform(0, 2 * np.pi)
        return complex(r * np.cos(phi), r * np.sin(phi))

    q1 = draw()
    q2 = 1.0 - q1 if on_reduction else draw()
    if abs(q2) < 0.2 or abs(1.0 - q1 - q2) < (0.0 if on_reduction else 0.05):
        return gen_pg(params, seed + 15485863, t1, t2, on_reduction)
    return PGState(t1=t1, t2=t2, q1=q1, q2=q2, p1=draw(), p2=draw(), params=params)


def find_fixed_point(
    params: ThetaPG,
    t1: complex,
    t2: complex,
    seed: int,
    tol: float = 1e-10,
    uniform_in_t: bool = True,
):
    """Seeded search for a common zero of all eight flow right-hand sides.

    A zero at one (t1, t2) is only an instantaneous equilibrium; a constant
    solution needs the right-hand sides to vanish identically in t, so by
    default the residual stacks two distinct time pairs. Such t-uniform
    points exist only for special exponents (e.g. theta^{t_i} = 0 and
    theta_2^inf = 0); for generic exponents the search returns None.
    """
    from scipy.optimize import least_squares

    rng = np.random.default_rng(seed)
    template = PGState(t1=t1, t2=t2, q1=0, q2=0, p1=0, p2=0, params=params)
    t_pairs = [(t1, t2)]
    if uniform_in_t:
        t_pairs.append((t1 + 0.11 - 0.07j, t2 - 0.09 + 0.05j))

    def resid(v):
        out = []
        for ta, tb in t_pairs:
            st = replace(
                template,
                t1=ta,
                t2=tb,
                q1=complex(v[0], v[1]),
                q2=complex(v[2], v[3]),
                p1=complex(v[4], v[5]),
                p2=complex(v[6], v[7]),
            )
            D = pg_rhs_explicit(st).ravel()
            out.append(np.concatenate([D.real, D.imag]))
        return np.concatenate(out)

    for _ in range(40):
        x0 = rng.uniform(-1.2, 1.2, size=8)
        sol = least_squares(resid, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if sol.cost < tol**2:
            v = sol.x
            return replace(
                template,
                q1=complex(v[0], v[1]),
                q2=complex(v[2], v[3]),
                p1=complex(v[4], v[5]),
                p2=complex(v[6], v[7]),
            )
    return None
