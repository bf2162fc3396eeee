"""Garnier-Okamoto coordinates extracted from Q-normalized Schlesinger states.

(lambda_1, lambda_2) are the zeros of the (1,2)-entry of the connection
matrix, the momenta mu_k are partial-fraction sums of the (1,1) residue
entries, and the two Hamiltonians K_i drive the commuting flows in
(t_1, t_2). The Hamilton field of that flow is the closed-form gradient of
K_i, written once in plain arithmetic (``_k_gradient_body``), so no finite
differences run inside the flow. On numbers it serves go_vector_field,
which the acceptance criterion C3 checks against finite differences of the
extracted flow. Run once per process on the package's one recorder of a
flow body, ``numerics._Tape`` (``_go_trace``, at the first Taylor step;
``poly_garnier`` records its flows on the same tape), and folded at the
exponents into products and quotients of affine maps (``_go_program``), it
gives the Taylor coefficients of the flow on a straight chord
(``_go_taylor``): past order 0 each product or quotient is linear in its
operands' new order and a Cauchy history sum, with the order-0 factors
folded into its weights, so an order costs one gather and one einsum per
level; integrate_go walks its paths on those coefficients with
``numerics.taylor_integrate``, and no path of the flow runs on
Dormand-Prince steps. The scalar second-order equation satisfied by the
first component of the gauged wavefunction provides an independent
cross-check; its rational coefficients are assembled here.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditionIIIViolated,
    ConditionIVViolated,
    PoleEvaluation,
    TimeCollision,
)
from .numerics import DEFAULT_RTOL, TAYLOR_ORDER, PathPlan, _plus, _Tape, quad_roots, taylor_integrate
from .numerics import ode_integrate  # noqa: F401 - unused here; perfbench's tracer wraps every module's copy
from .schlesinger import T3, T4, SchlesingerState, ThetaGO, check_time_path

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
    """(dK_i/dlambda_k, dK_i/dmu_k) for k = 1, 2, in closed form, after the domain checks of K_i."""
    ts = (g.t1, g.t2)
    _check_k_domain(ts[i - 1], ts[i % 2], g.lam)
    return _k_gradient_body(i, g.t1, g.t2, g.lam, g.mu, g.theta.theta, g.theta.kappa)


def _k_gradient_body(i: int, t1, t2, lam, mu, th, kappa) -> tuple[list, list]:
    """(dK_i/dlambda_k, dK_i/dmu_k) for k = 1, 2: the one place the gradient is written.

    K_i = M_i * sum_k M_ki F_k, as in ``_k_value``, with F_k = mu_k^2 -
    S_k mu_k + kappa/(lambda_k (lambda_k - 1)) and the pole sum S_k =
    sum_m c_m/(lambda_k - t_m) over t = (t_1, t_2, 1, 0), c_m = theta_m less
    1 at m = i. M_i depends on both lambdas, M_ki = p(lambda_k)/(lambda_k -
    lambda_o) with p(l) = (l - t_n)(l - 1) l on both, F_k on lambda_k alone;
    dM_ki/dlambda_k is written as (p' - M_ki)/(lambda_k - lambda_o), so
    nothing divides by lambda_k - t_n. Pure arithmetic (+, -, *, /) with no
    checks, so the same body runs on numbers for :func:`go_vector_field` and
    on the tape nodes of :func:`_go_trace`.
    """
    ts = (t1, t2)
    ti = ts[i - 1]
    tn = ts[i % 2]
    l1, l2 = lam
    den = (ti - tn) * (ti - 1.0) * ti
    Mi = -((l1 - ti) * (l2 - ti)) / den
    dMi = (-(l2 - ti) / den, -(l1 - ti) / den)
    c1, c2, c3, c4 = th[0] - (i == 1), th[1] - (i == 2), th[2], th[3]
    M, dM_own, dM_cross, F, dF, dK_dmu = [], [], [], [], [], []
    for k in (0, 1):
        lk, lo, mk = lam[k], lam[1 - k], mu[k]
        r1, r2, r3, r4 = 1.0 / (lk - t1), 1.0 / (lk - t2), 1.0 / (lk - 1.0), 1.0 / lk
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
    ``PoleEvaluation`` (lambda_k on a pole, caught as a ZeroDivisionError).
    """
    try:
        (dl1, dm1), (dl2, dm2) = _k_gradient(1, g), _k_gradient(2, g)
    except ZeroDivisionError as exc:
        raise PoleEvaluation("lambda_k sits on a pole of K_i") from exc
    return {"dlam": np.array([dm1, dm2], dtype=complex), "dmu": -np.array([dl1, dl2], dtype=complex)}


@functools.cache
def _go_trace() -> tuple[list[tuple], list[list[int]]]:
    """The tape of :func:`_k_gradient_body` for i = 1, 2 and, per t_j, its entries of d(lambda_1, lambda_2, mu_1, mu_2)/dt_j.

    Runs once per process, at the first Taylor step. Inputs 0-5 are t1,
    t2, lambda_1, lambda_2, mu_1, mu_2; inputs 6-10 theta_1..theta_4 and
    kappa.
    """
    tape = _Tape()
    t1, t2, l1, l2, m1, m2, *th, kappa = (tape.node("in", k, None) for k in range(11))
    rows = []
    for i in (1, 2):
        dK_dlam, dK_dmu = _k_gradient_body(i, t1, t2, (l1, l2), (m1, m2), th, kappa)
        rows.append([dK_dmu[0].i, dK_dmu[1].i, (-dK_dlam[0]).i, (-dK_dlam[1]).i])
    return tape.ops, rows


class _GoProgram(NamedTuple):
    """The traced gradient at fixed exponents, as products and quotients of affine maps, with its evaluation tables.

    Basis entry 0 is the constant 1, entries 1-6 the inputs t1, t2,
    lambda_1, lambda_2, mu_1, mu_2, the rest one per node: a product a*b
    or quotient a/b of two affine maps a, b over the basis, ordered by
    level (the longest chain of nodes below it), within a level the
    products first. In a Taylor step (:func:`_go_taylor`) a row of
    coefficients holds, after the basis, one history entry s H_n per node,
    and every gather row has its weights times the step's factors at its
    ``slots``: the rows of each level's gather (a node's a and b, then its
    history entry), then those of the history gather (U_n of every node,
    then b_n).
    """

    n_basis: int
    levels: list  # per level: (lo, hi, number of products, (a, b) basis (n, 2, W), (a, b) weights (n, 2, W), folded gather basis (n, K))
    weights: np.ndarray  # the unfolded weights of every level's gather, then of the history gather, flattened
    slots: np.ndarray  # the factor of each of those weights: an index into the factors of a step (-1: the number 1)
    history: np.ndarray  # (2N, Wh) basis of the history gather: U_n of every node, then b_n
    quotients: np.ndarray  # the node numbers (basis entry less 7) of the quotients
    out: np.ndarray  # (2, 4, n_basis): d(lambda_1, lambda_2, mu_1, mu_2)/dt_j as affine maps over the basis


_NUMBER_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _go_program(theta: ThetaGO) -> _GoProgram:
    """Fold the tape of :func:`_go_trace` at the exponents ``theta`` into a :class:`_GoProgram`.

    A node that reads no series input is a number; every other node is an
    affine map {basis entry: weight} over the series inputs and the
    products and quotients of two series, which become basis entries of
    their own: sums, differences and products or quotients with a number
    fold into the maps. The factors of a step are, for N nodes with Nq
    quotients among them, b_0 (N), a_0 (N), then per quotient 1/b_0,
    -q_0/b_0 and -1/b_0 (Nq each), and last the number 1.
    """
    ops, rows = _go_trace()
    inputs = (*theta.theta, theta.kappa)
    value: list = [None] * len(ops)  # the number of a number node
    lin: list = [None] * len(ops)  # the affine map of a series node
    nodes: list = []  # per product or quotient: (op, map a, map b)

    def affine(n):
        return lin[n] if lin[n] is not None else {0: value[n]}

    for n, (op, a, b) in enumerate(ops):
        if op == "num":
            value[n] = a
        elif op == "in":
            if a < 6:
                lin[n] = {a + 1: 1.0}
            else:
                value[n] = inputs[a - 6]
        elif lin[a] is None and lin[b] is None:
            value[n] = _NUMBER_OPS[op](value[a], value[b])
        elif op in ("+", "-"):
            lin[n] = _plus(affine(a), affine(b), 1.0 if op == "+" else -1.0)
        elif lin[b] is None or (op == "*" and lin[a] is None):
            number, series = (value[b], lin[a]) if lin[b] is None else (value[a], lin[b])
            factor = 1.0 / number if op == "/" else number
            lin[n] = {k: factor * w for k, w in series.items()}
        else:
            lin[n] = {7 + len(nodes): 1.0}
            nodes.append((op, affine(a), lin[b]))
    level = [0] * 7
    for _op, a, b in nodes:
        level.append(1 + max(level[k] for k in (*a, *b)))
    order = sorted(range(len(nodes)), key=lambda q: (level[7 + q], nodes[q][0] == "/", q))
    where = list(range(7)) + [0] * len(nodes)
    for pos, q in enumerate(order):
        where[7 + q] = 7 + pos
    # each node in basis order, with its maps a, b over the basis as [(basis entry, weight)]
    placed = [(op, [(where[k], w) for k, w in a.items()], [(where[k], w) for k, w in b.items()])
              for op, a, b in (nodes[q] for q in order)]
    n_nodes, n_basis = len(placed), 7 + len(placed)
    quotients = [e for e, (op, _a, _b) in enumerate(placed) if op == "/"]
    n_q = len(quotients)
    node_rows, u_rows, b_rows = [], [], []  # [(basis entry, weight, factor slot)]; slot -1 is the number 1
    for e, (op, a, b) in enumerate(placed):
        if op == "*":
            slot_a, slot_b, u = e, n_nodes + e, [(k, w, -1) for k, w in a]
        else:
            slot_a = 2 * n_nodes + quotients.index(e)
            slot_b, u = slot_a + n_q, [(7 + e, 1.0, slot_a + 2 * n_q)]
        node_rows.append([(k, w, slot_a) for k, w in a] + [(k, w, slot_b) for k, w in b] + [(n_basis + e, 1.0, -1)])
        u_rows.append(u)
        b_rows.append([(k, w, -1) for k, w in b])
    levels, tables, lo = [], [], 7
    for lev in sorted(set(level[7:])):
        hi = lo + level[7:].count(lev)
        group = placed[lo - 7 : hi - 7]
        w_ab = max(len(m) for _op, a, b in group for m in (a, b))
        idx = np.zeros((hi - lo, 2, w_ab), dtype=int)
        w = np.zeros((hi - lo, 2, w_ab), dtype=complex)
        for r, (_op, a, b) in enumerate(group):
            for side, m in enumerate((a, b)):
                idx[r, side, : len(m)], w[r, side, : len(m)] = zip(*m)
        tables.append(_gather_table(node_rows[lo - 7 : hi - 7]))
        levels.append((lo, hi, sum(op == "*" for op, _a, _b in group), idx, w, tables[-1][0]))
        lo = hi
    tables.append(_gather_table(u_rows + b_rows))
    out = np.zeros((2, 4, n_basis), dtype=complex)
    for j, row in enumerate(rows):
        for r, n in enumerate(row):
            for k, wk in affine(n).items():
                out[j, r, where[k]] += wk
    weights, slots = (np.concatenate([t[i].ravel() for t in tables]) for i in (1, 2))
    return _GoProgram(n_basis, levels, weights, slots, tables[-1][0], np.array(quotients), out)


def _gather_table(rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of [(basis entry, weight, factor slot)] as (basis, weights, slots) arrays, each row padded to the longest."""
    shape = (len(rows), max(map(len, rows)))
    basis, weights, slots = np.zeros(shape, dtype=int), np.zeros(shape, dtype=complex), np.full(shape, -1)
    for r, row in enumerate(rows):
        basis[r, : len(row)], weights[r, : len(row)], slots[r, : len(row)] = zip(*row)
    return basis, weights, slots


def _go_taylor(prog: _GoProgram, point, velocity, y) -> tuple[np.ndarray, float]:
    """Taylor coefficients in s of the flow through y = (lambda_1, lambda_2, mu_1, mu_2) at (t1, t2) = point along velocity.

    On the chord t(s) = t + s v the inputs t1, t2 are linear in s. Order 0
    runs level by level: a_0, b_0 of every node of ``prog`` by one gather
    from its affine maps, then q_0 = a_0 b_0 or a_0/b_0. From order 1 on,
    every node is linear in its operands' order n, q_n = c_a a_n + c_b b_n
    + s H_n with H_n = sum_j=1..n-1 U_j b_n-j: (c_a, c_b, s) = (b_0, a_0, 1)
    and U = a for a product, (1/b_0, -q_0/b_0, -1/b_0) and U = q for a
    quotient. These factors are folded into the weights once per step, so
    an order costs one einsum for every s H_n (from the stored history
    rows s U_j, b_j), per level one gather and one einsum, one gather and
    one einsum for the history row, and one einsum for y_n+1 = (v .
    dy/dt)_n/(n + 1). Raises ``ConditionIVViolated`` on lambda_1 =
    lambda_2 and ``TimeCollision`` on t_i in {0, 1, t_other} at the start.
    Returns the (TAYLOR_ORDER + 1, 4) coefficients and the s-distance to
    the nearest t_i in {0, 1} or t1 = t2.
    """
    (t1, t2), (v1, v2) = point, velocity
    l1, l2 = y[0], y[1]
    if abs(l1 - l2) < 1e-10 * (1 + abs(l1)):
        raise ConditionIVViolated("lambda collision during integration")
    _check_k_domain(t1, t2, (l1, l2))
    _check_k_domain(t2, t1, (l1, l2))
    p, nb = TAYLOR_ORDER, prog.n_basis
    nodes = nb - 7
    X = np.zeros((p + 1, nb + nodes), dtype=complex)  # X[n, e]: order n of basis entry e, then of s H
    X[0, :3], X[1, 1:3], X[0, 3:7] = (1.0, t1, t2), (v1, v2), y
    X0 = X[0]
    ab = np.empty((nodes, 2), dtype=complex)  # (a_0, b_0) of every node
    for lo, hi, m, idx, w, _basis in prog.levels:
        level = np.einsum("qsw,qsw->qs", w, X0[idx], out=ab[lo - 7 : hi - 7])
        np.einsum("q,q->q", level[:m, 0], level[:m, 1], out=X0[lo : lo + m])
        np.divide(level[m:, 0], level[m:, 1], out=X0[lo + m : hi])
    out = (v1 * prog.out[0] + v2 * prog.out[1]) / np.arange(1.0, p + 1)[:, None, None]  # out[n]: y_n+1 from order n
    np.einsum("rb,b->r", out[0], X0[:nb], out=X[1, 3:7])
    inv = 1.0 / ab[prog.quotients, 1]
    factors = np.concatenate((ab[:, 1], ab[:, 0], inv, -X0[7 + prog.quotients] * inv, -inv, (1.0,)))
    folded = prog.weights * factors[prog.slots]
    passes, at = [], 0
    for lo, hi, _m, _idx, _w, basis in prog.levels:
        passes.append((lo, hi, basis, folded[at : at + basis.size].reshape(basis.shape)))
        at += basis.size
    history = folded[at:].reshape(prog.history.shape)
    hist = np.zeros((p - 1, 2 * nodes), dtype=complex)  # hist[j]: s U_j of every node, then b_j
    for n in range(1, p):
        Xn = X[n]
        if n > 1:
            np.einsum("je,je->e", hist[1:n, :nodes], hist[n - 1 : 0 : -1, nodes:], out=Xn[nb:])
        for lo, hi, basis, w in passes:
            np.einsum("qk,qk->q", w, Xn[basis], out=Xn[lo:hi])
        if n < p - 1:
            np.einsum("ek,ek->e", history, Xn[prog.history], out=hist[n])
        np.einsum("rb,b->r", out[n], Xn[:nb], out=X[n + 1, 3:7])
    rate = np.array([v1 - v2, v1, v1, v2, v2], dtype=complex) / np.array([t1 - t2, t1 - 1.0, t1, t2 - 1.0, t2])
    return X[:, 3:7].copy(), 1.0 / float(np.max(np.abs(rate)))


def integrate_go(
    g0: GOState,
    path: PathPlan,
    rtol: float = DEFAULT_RTOL,
) -> list[tuple[float, GOState]]:
    """Integrate the Garnier-Okamoto flow along a (t1, t2) path, in Taylor steps of :func:`_go_taylor`.

    ``rtol``, in (0, 1), bounds each step's truncation error as in
    ``numerics.taylor_integrate``, which raises SingularityApproach, with
    the (t1, t2) where it stopped, on a non-finite coefficient: a state
    that runs into a movable pole, lambda_k = t_m. The path must start at the state's (t1, t2).
    """
    check_time_path(path, g0.t1, g0.t2)
    y0 = np.array([*g0.lam, *g0.mu], dtype=complex)
    traj = taylor_integrate(functools.partial(_go_taylor, _go_program(g0.theta)), y0, path, rtol=rtol)
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
