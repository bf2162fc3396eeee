"""Garnier-Okamoto coordinates extracted from Q-normalized Schlesinger states.

(lambda_1, lambda_2) are the zeros of the (1,2)-entry of the connection
matrix, the momenta mu_k are partial-fraction sums of the (1,1) residue
entries, and the two Hamiltonians K_i drive the commuting flows in
(t_1, t_2). The Hamilton field of that flow is the closed-form gradient of
K_i, so no finite differences run inside the ODE right-hand side; the
acceptance criterion C3 checks it against finite differences of the
extracted flow. The scalar second-order equation satisfied by the first
component of the gauged wavefunction provides an independent cross-check;
its rational coefficients are assembled here.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditionIIIViolated,
    ConditionIVViolated,
    PoleEvaluation,
    TimeCollision,
)
from .numerics import DEFAULT_RTOL, PathPlan, ode_integrate, quad_roots
from .schlesinger import T3, T4, SchlesingerState, ThetaGO, time_constraints

__all__ = [
    "GOState",
    "extract_lambda",
    "extract_mu",
    "extract_go",
    "hamiltonian_K",
    "go_vector_field",
    "integrate_go",
    "garx_coefficients",
]


@dataclass
class GOState:
    t1: complex
    t2: complex
    lam: tuple[complex, complex]
    mu: tuple[complex, complex]
    theta: ThetaGO

    @property
    def tvec(self) -> np.ndarray:
        return np.array([self.t1, self.t2, T3, T4], dtype=complex)

    def validate(self, tol: float = 1e-10) -> None:
        if abs(self.t1 - self.t2) < tol:
            raise TimeCollision("t1 = t2")
        if abs(self.lam[0] - self.lam[1]) < tol * (1 + abs(self.lam[0])):
            raise ConditionIVViolated("lambda_1 = lambda_2")
        for lk in self.lam:
            if np.min(np.abs(lk - self.tvec)) < tol * (1 + abs(lk)):
                raise PoleEvaluation("lambda_k collides with a pole t_i")

    def to_json(self) -> dict:
        from .schlesinger import _c

        return {
            "t1": _c(self.t1),
            "t2": _c(self.t2),
            "lambda": [_c(self.lam[0]), _c(self.lam[1])],
            "mu": [_c(self.mu[0]), _c(self.mu[1])],
            "theta": self.theta.to_json(),
            "kappa": _c(self.theta.kappa),
        }


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _lex_key(z: complex):
    return (round(z.real, 12), round(z.imag, 12))


def extract_lambda(state: SchlesingerState) -> tuple[complex, complex, complex]:
    """Zeros (lambda_1, lambda_2) of q12(x) and the leading coefficient X.

    q12(x) = sum_i q12^i / (x - t_i) has numerator X*x^2 + c1*x + c0 over
    prod(x - t_i) once the residues sum to a diagonal matrix. Returns the
    roots ordered by (Re, Im) lexicographic order.
    """
    if state.norm != "Q":
        raise ValueError("extraction expects a Q-normalized state")
    for i, th in enumerate(state.theta.theta):
        if abs(th - round(th.real)) < 1e-9 and abs(th.imag) < 1e-9:
            # integer exponents: a sufficient (not necessary) genericity
            # condition from the literature fails; proceed but say so
            warnings.warn(
                f"theta_{i+1} = {th} is (near-)integer: extraction may sit on a "
                "non-generic stratum",
                stacklevel=2,
            )
    t = state.tvec
    r = state.A[:, 0, 1]  # q12^i
    scale = float(np.max(np.abs(r)) + 1e-300) * float(1 + np.max(np.abs(t)))
    c3 = complex(r.sum())
    if abs(c3) > 1e-8 * scale:
        raise ValueError(
            "(sum Q_i)_{12} != 0: state is not normalized to a diagonal sum "
            f"(residual {abs(c3):.3e})"
        )
    e1 = complex(t.sum())
    s_t = complex(np.einsum("i,i->", r, t))
    s_t2 = complex(np.einsum("i,i->", r, t * t))
    s_t3 = complex(np.einsum("i,i->", r, t * t * t))
    E2 = 0.0 + 0.0j
    E3 = 0.0 + 0.0j
    for i in range(4):
        for j in range(i + 1, 4):
            E2 += t[i] * t[j]
            for k in range(j + 1, 4):
                E3 += t[i] * t[j] * t[k]
    X = s_t - e1 * c3
    c1 = E2 * c3 - e1 * s_t + s_t2
    c0 = -E3 * c3 + E2 * s_t - e1 * s_t2 + s_t3
    if abs(X) < 1e-12 * scale:
        raise ConditionIIIViolated(f"leading coefficient X(t) = {X:.3e} vanishes")
    r1, r2 = quad_roots(X, c1, c0)
    # a true double root separates by ~sqrt(eps) through the formula, so the
    # simplicity threshold must sit above that scale
    if abs(r1 - r2) < 3e-7 * (1 + abs(r1)):
        raise ConditionIVViolated("the zeros of q12 are not simple")
    lam = sorted((r1, r2), key=_lex_key)
    return lam[0], lam[1], X


def extract_mu(state: SchlesingerState, lam_k: complex, min_dist: float = 1e-10) -> complex:
    """mu_k = sum_i q11^i / (lambda_k - t_i)."""
    t = state.tvec
    d = lam_k - t
    if np.min(np.abs(d)) < min_dist:
        raise PoleEvaluation("lambda_k sits on a pole t_i")
    return complex(np.einsum("i,i->", state.A[:, 0, 0], 1.0 / d))


def extract_go(state: SchlesingerState) -> GOState:
    """Full (lambda, mu) extraction from a Q-normalized state."""
    l1, l2, _x = extract_lambda(state)
    return GOState(
        t1=state.t1,
        t2=state.t2,
        lam=(l1, l2),
        mu=(extract_mu(state, l1), extract_mu(state, l2)),
        theta=state.theta,
    )


# ---------------------------------------------------------------------------
# Hamiltonians and flow
# ---------------------------------------------------------------------------

def _check_k_domain(ti, tn, lam) -> None:
    """The typed errors of K_i: t_i in {0, 1, t_other} or lambda_1 = lambda_2."""
    if abs(ti) < 1e-12 or abs(ti - 1.0) < 1e-12 or abs(ti - tn) < 1e-12:
        raise TimeCollision("t_i collides with {0, 1, t_other}")
    l1, l2 = lam
    if abs(l1 - l2) < 1e-12 * (1 + abs(l1)):
        raise ConditionIVViolated("lambda_1 = lambda_2 in K_i")


def _k_value(i: int, t1, t2, lam, mu, theta: ThetaGO) -> complex:
    """K_i as a function of the phase-space point; i in {1, 2}."""
    th = theta.theta
    kappa = theta.kappa
    ts = (t1, t2)
    ti = ts[i - 1]
    tn = ts[i % 2]  # the other time
    _check_k_domain(ti, tn, lam)
    l1, l2 = lam
    Mi = -((l1 - ti) * (l2 - ti)) / ((ti - tn) * (ti - 1.0) * ti)
    total = 0.0 + 0.0j
    for k in (0, 1):
        lk = lam[k]
        lo = lam[1 - k]
        Mki = (lk - tn) * (lk - 1.0) * lk / (lk - lo)
        pole_sum = 0.0 + 0.0j
        for m in (1, 2):
            d = 1.0 if m == i else 0.0
            pole_sum += (th[m - 1] - d) / (lk - ts[m - 1])
        pole_sum += th[2] / (lk - 1.0) + th[3] / lk
        total += Mki * (mu[k] ** 2 - pole_sum * mu[k] + kappa / (lk * (lk - 1.0)))
    return Mi * total


def hamiltonian_K(i: int, g: GOState) -> complex:
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    try:
        return _k_value(i, g.t1, g.t2, g.lam, g.mu, g.theta)
    except ZeroDivisionError as exc:  # only lambda_k - t_m is left unguarded
        raise PoleEvaluation("lambda_k sits on a pole of K_i") from exc


def _k_gradient(i: int, g: GOState) -> tuple[list[complex], list[complex]]:
    """(dK_i/dlambda_k, dK_i/dmu_k) for k = 1, 2, in closed form.

    K_i = M_i * sum_k M_ki F_k, as in ``_k_value``, with F_k = mu_k^2 -
    S_k mu_k + kappa/(lambda_k (lambda_k - 1)) and the pole sum S_k =
    sum_m c_m/(lambda_k - t_m) over t = (t_1, t_2, 1, 0), c_m = theta_m less
    1 at m = i. M_i depends on both lambdas, M_ki = p(lambda_k)/(lambda_k -
    lambda_o) with p(l) = (l - t_n)(l - 1) l on both, F_k on lambda_k alone;
    dM_ki/dlambda_k is written as (p' - M_ki)/(lambda_k - lambda_o), so
    nothing divides by lambda_k - t_n.
    """
    th = g.theta.theta
    kappa = g.theta.kappa
    ts = (g.t1, g.t2)
    ti = ts[i - 1]
    tn = ts[i % 2]
    _check_k_domain(ti, tn, g.lam)
    l1, l2 = g.lam
    den = (ti - tn) * (ti - 1.0) * ti
    Mi = -((l1 - ti) * (l2 - ti)) / den
    dMi = (-(l2 - ti) / den, -(l1 - ti) / den)
    c1, c2, c3, c4 = th[0] - (i == 1), th[1] - (i == 2), th[2], th[3]
    M, dM_own, dM_cross, F, dF, dK_dmu = [], [], [], [], [], []
    for k in (0, 1):
        lk, lo, mk = g.lam[k], g.lam[1 - k], g.mu[k]
        r1, r2, r3, r4 = 1.0 / (lk - g.t1), 1.0 / (lk - g.t2), 1.0 / (lk - 1.0), 1.0 / lk
        S = c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4
        dS = -(c1 * r1 * r1 + c2 * r2 * r2 + c3 * r3 * r3 + c4 * r4 * r4)
        p = (lk - tn) * (lk - 1.0) * lk
        dp = (lk - 1.0) * lk + (lk - tn) * lk + (lk - tn) * (lk - 1.0)
        Mk = p / (lk - lo)
        M.append(Mk)
        dM_own.append((dp - Mk) / (lk - lo))  # d M_ki / d lambda_k
        dM_cross.append(Mk / (lk - lo))  # d M_ki / d lambda_o
        F.append(mk * mk - S * mk + kappa * r3 * r4)
        dF.append(-dS * mk - kappa * r3 * r4 * (r3 + r4))
        dK_dmu.append(Mi * Mk * (2.0 * mk - S))
    total = M[0] * F[0] + M[1] * F[1]
    dK_dlam = [
        dMi[k] * total + Mi * (dM_own[k] * F[k] + M[k] * dF[k] + dM_cross[1 - k] * F[1 - k])
        for k in (0, 1)
    ]
    return dK_dlam, dK_dmu


def go_vector_field(g: GOState) -> dict[str, np.ndarray]:
    """Hamilton equations of K_1, K_2 from the closed-form gradient of K.

    Returns {"dlam": D, "dmu": E} with D[j-1, k-1] = d lambda_k / d t_j =
    dK_j/dmu_k and E[j-1, k-1] = d mu_k / d t_j = -dK_j/dlambda_k. Raises
    the typed errors of K_j: ``TimeCollision``, ``ConditionIVViolated`` and
    ``PoleEvaluation`` (lambda_k on a pole; caught, so the flow pays nothing).
    """
    try:
        (dl1, dm1), (dl2, dm2) = _k_gradient(1, g), _k_gradient(2, g)
    except ZeroDivisionError as exc:
        raise PoleEvaluation("lambda_k sits on a pole of K_i") from exc
    return {"dlam": np.array([dm1, dm2], dtype=complex), "dmu": -np.array([dl1, dl2], dtype=complex)}


def integrate_go(
    g0: GOState,
    path: PathPlan,
    rtol: float = DEFAULT_RTOL,
) -> list[tuple[float, GOState]]:
    """Integrate the Garnier-Okamoto flow along a (t1, t2) path."""
    if path.dim != 2:
        raise ValueError("expected a (t1, t2) path")
    path.validate_against(time_constraints())

    g = GOState(g0.t1, g0.t2, g0.lam, g0.mu, g0.theta)  # the field's point, moved in place
    as_array = functools.cache(lambda velocity: np.array(velocity, dtype=complex))

    def field(point, velocity, y):
        l1, l2, m1, m2 = y
        if abs(l1 - l2) < 1e-10 * (1 + abs(l1)):
            raise ConditionIVViolated("lambda collision during integration")
        (g.t1, g.t2), g.lam, g.mu = point, (l1, l2), (m1, m2)
        vf = go_vector_field(g)
        v = as_array(velocity)
        return np.concatenate([v @ vf["dlam"], v @ vf["dmu"]])

    y0 = np.array([*g0.lam, *g0.mu], dtype=complex)
    traj = ode_integrate(field, y0, path, rtol=rtol)
    out = []
    for s, y in traj:
        t1, t2 = path.point(s)
        out.append((s, GOState(t1, t2, (y[0], y[1]), (y[2], y[3]), g0.theta)))
    return out


# ---------------------------------------------------------------------------
# the scalar second-order equation
# ---------------------------------------------------------------------------

def garx_coefficients(
    g: GOState, K1: complex, K2: complex, x: complex, min_dist: float = 1e-8
) -> tuple[complex, complex]:
    """Rational coefficients (c_zp, c_z) with z'' = c_zp z' + c_z z.

    c_zp has residue theta_i - 1 at each pole t_i and residue 1 at each
    apparent singularity lambda_k; c_z carries kappa, the Hamiltonian values
    and the momenta.
    """
    t = g.tvec
    th = g.theta.theta
    if np.min(np.abs(x - t)) < min_dist or min(abs(x - lk) for lk in g.lam) < min_dist:
        raise PoleEvaluation("x too close to a singular point of the scalar equation")
    c_zp = sum((th[i] - 1.0) / (x - t[i]) for i in range(4))
    c_zp += sum(1.0 / (x - lk) for lk in g.lam)
    xx = x * (x - 1.0)
    bracket = g.theta.kappa / xx
    ks = (K1, K2)
    ts = (g.t1, g.t2)
    for i in (0, 1):
        bracket -= ts[i] * (ts[i] - 1.0) * ks[i] / (xx * (x - ts[i]))
    for k in (0, 1):
        lk = g.lam[k]
        bracket += lk * (lk - 1.0) * g.mu[k] / (xx * (x - lk))
    return c_zp, -bracket
