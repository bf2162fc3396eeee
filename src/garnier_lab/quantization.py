"""Wavefunction construction and finite-difference verification of the PDEs.

A :class:`Frame` wraps one traceless Schlesinger state together with the
base-normalized fundamental solution Phi (= identity at (base_x, base_t)),
the accumulated log of the tau-function, and the logs of every multivalued
gauge factor. Every hop, in x or in t, is a straight chord of the affine
values x - t_i, t_i - t_j and t_i - x_k: one check (``check_clearance``)
keeps it clear of their zeros, and the logs then gain the principal log of
the values' ratio, their exact continuation. On top of it live the residual
engines:

* the four second-order/first-order equations satisfied by the gauged
  two-point function Y(x, y, t),
* the pair of quantized Garnier-Okamoto evolution equations (which need
  only t1/t2 derivatives),
* the pair of quantized polynomial-Garnier equations for V(zeta, eta, t)
  obtained through the rational change of space variables and a power-law
  prefactor,
* the scalar second-order equation in x satisfied by the first component
  of the shifted wavefunction, with its apparent singularities.

Every move of Phi runs on Taylor coefficients. In x at fixed times,
:func:`_x_series` gives the series of Phi_x = sum_i A_i/(x - t_i) Phi along a
chord, for any number of rows at once: the base transports walk their chord
in Taylor steps on it (:meth:`Frame.phi_node`), and every spatial stencil hop
of a grid point is one row, summed at the hop's end in one call
(:meth:`Frame.phi_nodes`). In time the series is that of the whole bundle (A,
ln tau, Phi at the attached points): a time stencil moves along one axis e_d,
so one series per direction, summed at each offset, serves all its hops
(:meth:`Frame.shift_t`; C3 and C11 move bare B-states through it too), and
long time paths take Taylor steps on the same series
(:meth:`Frame.shift_t_adaptive`). Derivatives are central finite differences
with shared stencils.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegenerateJacobian,
    DiagonalCollision,
    NearSingularPhi,
    PoleEvaluation,
)
from .garnier_okamoto import extract_go, garx_coefficients, hamiltonian_K
from .numerics import (
    TAYLOR_ORDER,
    FDScheme,
    PathPlan,
    check_clearance,
    combine_stencil,
    det2,
    inv2,
    quad_roots,
    stencil_multipliers,
    taylor_integrate,
    taylor_stencil,
)
from .numerics import ode_integrate  # noqa: F401 - unused here; perfbench's tracer wraps every module's copy
from .schlesinger import SchlesingerState, ThetaGO, _flow_taylor, shift_normalization
from .schlesinger import flow_derivative  # noqa: F401 - unused here; perfbench's tracer counts this module's copy

__all__ = [
    "AlphaBeta",
    "solve_alpha_beta",
    "zeta_eta_map",
    "zeta_eta_inverse",
    "PhiNode",
    "TNode",
    "Frame",
    "zero_curvature_loop",
    "ResidualReport",
    "write_residual_csv",
    "bpz_residual",
    "kevol_residual",
    "quantized_pg_residual",
    "garx_residual",
    "LAB_FD",
    "QPG_FD",
]

# second differences divide function noise by h^2: keep the lab step well
# above the integrator tolerance floor
LAB_FD = FDScheme(order=4, step=2e-3, richardson=True)

# the inverse space-variable map has a branch locus much closer (in the
# (zeta, eta) chart) than the poles are in the (x, y) chart, so the
# quantized polynomial-Garnier stencils need a finer step
QPG_FD = FDScheme(order=4, step=5e-4, richardson=True)

# radius of the x = t_i discs a spatial hop must avoid and of the x = y
# diagonal guard; a time hop keeps a quarter of it from its singular sets
EXCLUSION = 0.04

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_I, _PAIR_J = np.array(_PAIRS).T

# the singular sets of a spatial hop, of the values x - t_i, and of a time
# hop, of the values t_i - t_j (pairs) and t_i - x_k (per attached node)
_X_SETS = tuple(f"x = t{i+1}" for i in range(4))
_PAIR_SETS = tuple(f"t{i+1} = t{j+1}" for i, j in _PAIRS)
_NODE_SETS = tuple(f"t{i+1} = x" for i in range(4))


# ---------------------------------------------------------------------------
# prefactor exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaBeta:
    alpha: complex
    beta: complex
    branch_tag: str  # "alpha0" | "alphaNeg"


def solve_alpha_beta(
    theta: ThetaGO, alpha_branch: str = "alpha0", beta_branch: str = "betaSmall"
) -> AlphaBeta:
    """Exponents (alpha, beta) of the power prefactor of V.

    alpha solves alpha(alpha + theta_4) = 0; beta solves the quadratic that
    pins the Euler eigenvalue. Branches: alpha in {0, -theta_4}; betaSmall
    picks the smaller-magnitude root.
    """
    if alpha_branch not in ("alpha0", "alphaNeg"):
        raise ValueError("alpha_branch must be 'alpha0' or 'alphaNeg'")
    if beta_branch not in ("betaSmall", "betaLarge"):
        raise ValueError("beta_branch must be 'betaSmall' or 'betaLarge'")
    th1, th2, th3, th4 = theta.theta
    alpha = 0.0 + 0.0j if alpha_branch == "alpha0" else -th4
    lam = theta.bpz_lambda
    b = 2.0 * alpha + th1 + th2 + th3 + th4 + 2.0
    c = alpha * (th1 + th2 + th3 + 2.0) - lam
    r_big, r_small = quad_roots(1.0, b, c)
    beta = r_small if beta_branch == "betaSmall" else r_big
    return AlphaBeta(alpha=alpha, beta=beta, branch_tag=alpha_branch)


# ---------------------------------------------------------------------------
# rational change of space variables
# ---------------------------------------------------------------------------

def zeta_eta_map(x, y, t1, t2) -> tuple[complex, complex]:
    """(zeta, eta) from (x, y); symmetric under x <-> y."""
    if abs(x - 1.0) < 1e-12 or abs(y - 1.0) < 1e-12:
        raise PoleEvaluation("x or y equals 1")
    if abs(t1 - t2) < 1e-12:
        raise PoleEvaluation("t1 = t2")
    den = (t1 - t2) * (x - 1.0) * (y - 1.0)
    zeta = (1.0 - t2) * (x - t1) * (y - t1) / den
    eta = -(1.0 - t1) * (x - t2) * (y - t2) / den
    return zeta, eta


def zeta_eta_inverse(zeta, eta, t1, t2, hint: tuple[complex, complex]) -> tuple[complex, complex]:
    """Invert the space-variable map near a hint point (x0, y0).

    Both defining relations are linear in the symmetric functions
    (e1, e2) = (x + y, x*y); the root pair is then disambiguated by the hint.
    The forward map of the result must reproduce (zeta, eta) to 1e-10.
    """
    x0, y0 = hint
    d = t1 - t2
    m11 = -zeta * d + (1.0 - t2) * t1
    m12 = zeta * d - (1.0 - t2)
    r1 = -(zeta * d - (1.0 - t2) * t1 * t1)
    m21 = -eta * d - (1.0 - t1) * t2
    m22 = eta * d + (1.0 - t1)
    r2 = -(eta * d + (1.0 - t1) * t2 * t2)
    det = m11 * m22 - m12 * m21
    scale = max(abs(m11), abs(m12), abs(m21), abs(m22), 1e-30)
    if abs(det) < 1e-13 * scale * scale:
        raise DegenerateJacobian("linear system for (x + y, x*y) is singular")
    e1 = (r1 * m22 - m12 * r2) / det
    e2 = (m11 * r2 - r1 * m21) / det
    ra, rb = quad_roots(1.0, -e1, e2)
    d_keep = abs(ra - x0) + abs(rb - y0)
    d_swap = abs(rb - x0) + abs(ra - y0)
    if abs(d_keep - d_swap) < 1e-12 * (1.0 + abs(ra) + abs(rb)):
        raise BranchAmbiguity("both root orderings are equidistant from the hint")
    x, y = (ra, rb) if d_keep < d_swap else (rb, ra)
    z_chk, e_chk = zeta_eta_map(x, y, t1, t2)
    err = abs(z_chk - zeta) + abs(e_chk - eta)
    if err > 1e-10 * (1.0 + abs(zeta) + abs(eta)):
        raise DegenerateJacobian(f"forward-map roundtrip failed by {err:.3e}")
    return x, y


# ---------------------------------------------------------------------------
# frame: transported fundamental solution with branch charts
# ---------------------------------------------------------------------------

@dataclass
class PhiNode:
    """Phi and the gauge logs at one spatial point and one time tuple."""

    x: complex
    t: np.ndarray  # (4,)
    phi: np.ndarray  # (2, 2)
    logs: np.ndarray  # (4,) continuous log(x - t_i)


@dataclass
class TNode:
    """Residues, ln tau and the time-pair logs at one time tuple."""

    t: np.ndarray  # (4,)
    A: np.ndarray  # (4, 2, 2)
    ln_tau: complex
    pair_logs: np.ndarray  # (6,) continuous log(t_i - t_j), pairs (i < j)


@dataclass
class ResidualReport:
    """Worst-case residuals of one scalar-coefficient matrix equation."""

    equation_id: str
    sample_points: list
    max_abs_residual: float
    max_rel_residual: float
    fd_scheme: FDScheme
    normalization: float
    rows: list = field(default_factory=list)  # (point, abs_res, rel_res)

    def to_json(self) -> dict:
        return {
            "equation_id": self.equation_id,
            "n_samples": len(self.sample_points),
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "normalization": self.normalization,
            "fd_scheme": {
                "order": self.fd_scheme.order,
                "step": self.fd_scheme.step,
                "richardson": self.fd_scheme.richardson,
            },
        }


def write_residual_csv(reports: Iterable[ResidualReport], path) -> None:
    """Per-point dump with the documented column layout."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_x", "im_x", "re_y", "im_y", "equation_id", "abs_residual", "rel_residual"])
        for rep in reports:
            for point, abs_r, rel_r in rep.rows:
                a, b = point
                w.writerow(
                    [
                        repr(complex(a).real),
                        repr(complex(a).imag),
                        repr(complex(b).real),
                        repr(complex(b).imag),
                        rep.equation_id,
                        repr(abs_r),
                        repr(rel_r),
                    ]
                )


def _report(equation_id, points, rows, scheme) -> ResidualReport:
    worst = max(rows, key=lambda r: r[2]) if rows else (None, 0.0, 0.0, 0.0)
    return ResidualReport(
        equation_id=equation_id,
        sample_points=list(points),
        max_abs_residual=max((r[1] for r in rows), default=0.0),
        max_rel_residual=max((r[2] for r in rows), default=0.0),
        fd_scheme=scheme,
        normalization=worst[3] if len(worst) > 3 else 0.0,
        rows=[(r[0], r[1], r[2]) for r in rows],
    )


def _x_series(t, A, x, v, phi) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients in s of Phi(x + s v) through phi at the fixed times t, for every row at once.

    On the chord the weight v/(x - t_i + s v) of A_i in dPhi/ds is sum_l rho_i (-rho_i)^l s^l, rho_i =
    v/(x - t_i); so with M_l = sum_i A_i rho_i (-rho_i)^l, (n + 1) Phi_n+1 = sum_l M_l Phi_n-l. Rows are
    leading axes that broadcast: t (..., 4), A (..., 4, 2, 2), x and v scalars or (..., 1), phi (..., 4).
    Returns the (TAYLOR_ORDER + 1, ..., 4) coefficients and the radius min_i |x - t_i|/|v| of each row.
    """
    p = TAYLOR_ORDER
    rho = v / (x - t)
    rows = rho.shape[:-1]
    powers = rho[..., None, :] * (-rho[..., None, :]) ** np.arange(p)[:, None]  # [..., l, i] = rho_i (-rho_i)^l
    # the orders l of M side by side, and Phi stored reversed, so that each order of the Cauchy
    # product is one 2 x 2(n + 1) by 2(n + 1) x 2 einsum per row (no BLAS)
    M = np.einsum("...li,...iab->...alb", powers, A).reshape(rows + (2, 2 * p))  # [..., a, (l, b)] = M_l[a, b]
    P = np.empty(rows + (p + 1, 2, 2), dtype=complex)  # [..., p - n] = Phi_n
    P[..., p, :, :] = np.reshape(phi, rows + (2, 2))
    P2 = P.reshape(rows + (2 * p + 2, 2))
    for n in range(p):
        product = np.einsum("...ak,...kc->...ac", M[..., : 2 * n + 2], P2[..., 2 * (p - n) :, :])
        P[..., p - n - 1, :, :] = product / (n + 1)
    c = np.moveaxis(P[..., ::-1, :, :], -3, 0).reshape((p + 1,) + rows + (4,))
    return c, 1.0 / np.max(np.abs(rho), axis=-1)


class Frame:
    """Base-normalized Phi, ln tau and branch charts for one B-state.

    Phi(base_x; base_t) = I and ln tau(base_t) = 0; every evaluation keeps
    branch continuity by anchoring its logs to previously computed nodes.
    """

    def __init__(self, state: SchlesingerState, base_x: complex):
        if state.norm != "B":
            raise ValueError("frames are built over traceless (B) states")
        state.validate(tol=1e-8)
        self.state = state.copy()
        self.theta = state.theta
        self.base_x = complex(base_x)
        t = state.tvec
        self.base_tnode = TNode(
            t=t.copy(),
            A=state.A.copy(),
            ln_tau=0.0 + 0.0j,
            pair_logs=np.log(t[_PAIR_I] - t[_PAIR_J]),
        )
        self.base_node = PhiNode(
            x=self.base_x,
            t=t.copy(),
            phi=np.eye(2, dtype=complex),
            logs=np.log(self.base_x - t),
        )
        self._phi_cache: dict[complex, PhiNode] = {self.base_x: self.base_node}

    # -- spatial transport --------------------------------------------------

    def phi_node(
        self,
        x: complex,
        tnode: TNode | None = None,
        anchor: PhiNode | None = None,
    ) -> PhiNode:
        """Transport Phi (and the gauge logs) to x along a straight segment, in Taylor steps on :func:`_x_series`.

        The segment is checked against the x = t_i exclusion discs, and the
        gauge logs gain the principal log((x - t_i)/(anchor.x - t_i)): the
        exact continuation along a chord that misses every x = t_i. Cached: base-time nodes from the base node.
        """
        x = complex(x)
        base_time = tnode is None
        tnode = tnode or self.base_tnode
        anchor = anchor or (self.base_node if base_time else None)
        if anchor is None:
            raise ValueError("an anchor node is required away from the base time")
        cache = base_time and anchor is self.base_node
        if cache and x in self._phi_cache:
            return self._phi_cache[x]
        if x == anchor.x:
            return anchor
        w0, w1 = anchor.x - tnode.t, x - tnode.t
        check_clearance(w0, w1, EXCLUSION, _X_SETS)
        path = PathPlan([anchor.x, x], EXCLUSION)
        phi = taylor_integrate(partial(_x_series, tnode.t, tnode.A), anchor.phi, path)[-1][1].reshape(2, 2)
        node = PhiNode(x=x, t=tnode.t.copy(), phi=phi, logs=anchor.logs + np.log(w1 / w0))
        if cache:
            self._phi_cache[x] = node
        return node

    def phi_nodes(self, hops: Sequence[tuple[complex, TNode, PhiNode]]) -> list[PhiNode]:
        """Transport Phi along every stencil hop (x, tnode, anchor) on one series each, summed in one call.

        Each moving hop is one row of :func:`_x_series`, from s = 0 at anchor.x to s = 1 at x, at the
        times of its tnode (``numerics.taylor_stencil``: SingularityApproach, naming x, for a hop past
        its Taylor step). All hops are checked, and continue their gauge logs, as in :meth:`phi_node`,
        in one pass. A hop that ends at its anchor returns the anchor. Nothing is cached.
        """
        hops = [(complex(x), tnode, anchor) for x, tnode, anchor in hops]
        out = [anchor for _x, _tn, anchor in hops]
        moving = [k for k, (x, _tn, anchor) in enumerate(hops) if x != anchor.x]
        if not moving:
            return out
        x0 = np.array([hops[k][2].x for k in moving], dtype=complex)
        x1 = np.array([hops[k][0] for k in moving], dtype=complex)
        t = np.array([hops[k][1].t for k in moving], dtype=complex)
        w0, w1 = x0[:, None] - t, x1[:, None] - t
        check_clearance(w0, w1, EXCLUSION, _X_SETS)
        A = np.array([hops[k][1].A for k in moving], dtype=complex)
        phi0 = np.array([hops[k][2].phi.ravel() for k in moving], dtype=complex)
        phi1 = taylor_stencil(partial(_x_series, t, A), phi0, x0[:, None], (x1 - x0)[:, None], np.ones(len(moving)))
        logs = np.array([hops[k][2].logs for k in moving], dtype=complex) + np.log(w1 / w0)
        for k, phi, lg in zip(moving, phi1, logs):
            out[k] = PhiNode(x=hops[k][0], t=hops[k][1].t.copy(), phi=phi.reshape(2, 2), logs=lg)
        return out

    # -- time transport -----------------------------------------------------

    def shift_t(
        self,
        tnode: TNode,
        nodes: Sequence[PhiNode],
        d: int,
        offsets: Sequence[complex],
    ) -> list[tuple[TNode, list[PhiNode]]]:
        """Move the bundle (A, ln tau, attached Phi nodes) to t_{d+1} + m for every offset m, on one series.

        Every hop is checked by :meth:`_time_hops` before any coefficient is formed. Then one Taylor
        series of the bundle along e_d (:meth:`_bundle`) is summed at each stored t_{d+1} less the start's,
        so each state sits exactly at its time (``numerics.taylor_stencil``: SingularityApproach for an
        offset past its step). An offset of 0 returns (tnode, nodes).
        """
        nodes = list(nodes)
        t_news = np.repeat(tnode.t[None], len(offsets), axis=0)
        t_news[:, d] += offsets
        moving = np.flatnonzero(np.any(t_news != tnode.t, axis=1))
        dlogs = self._time_hops(tnode, nodes, t_news[moving])
        y1 = taylor_stencil(*self._bundle(tnode, nodes), tnode.t, np.eye(4)[d], t_news[moving, d] - tnode.t[d])
        out = [(tnode, list(nodes)) for _m in offsets]
        for k, y, dlog in zip(moving, y1, dlogs):
            out[k] = self._bundle_nodes(tnode, nodes, t_news[k], y, dlog)
        return out

    def shift_t_adaptive(
        self, tnode: TNode, nodes: Sequence[PhiNode], t_new: np.ndarray
    ) -> tuple[TNode, list[PhiNode]]:
        """Move the bundle to one t_new in Taylor steps on :meth:`shift_t`'s series (long time paths)."""
        nodes = list(nodes)
        t_new = np.asarray(t_new, dtype=complex)
        if np.all(t_new == tnode.t):
            return tnode, nodes
        dlog = self._time_hops(tnode, nodes, t_new)
        path = PathPlan([tuple(tnode.t), tuple(t_new)], EXCLUSION / 4)
        y = taylor_integrate(*self._bundle(tnode, nodes), path)
        return self._bundle_nodes(tnode, nodes, t_new, y[-1][1], dlog)

    @staticmethod
    def _time_hops(tnode: TNode, nodes: Sequence[PhiNode], t_new: np.ndarray) -> np.ndarray:
        """Check the straight hops tnode.t -> t_new (rows of shape (..., 4)); the increments of their logs.

        The affine values are t_i - t_j over _PAIRS, then t_i - x_k node by
        node, each checked against a disc of radius EXCLUSION / 4. The log of
        their ratio continues pair_logs and each node's logs (x_k - t_i
        changes by the same ratio as t_i - x_k).
        """
        xs = np.array([n.x for n in nodes], dtype=complex)

        def values(t):
            at_nodes = (t[..., None, :] - xs[:, None]).reshape(t.shape[:-1] + (4 * len(xs),))
            return np.concatenate([t[..., _PAIR_I] - t[..., _PAIR_J], at_nodes], axis=-1)

        w0, w1 = values(tnode.t), values(t_new)
        check_clearance(w0, w1, EXCLUSION / 4, _PAIR_SETS + _NODE_SETS * len(nodes))
        return np.log(w1 / w0)

    @staticmethod
    def _bundle(tnode: TNode, nodes: Sequence[PhiNode]):
        """The bundle's coefficient function (``schlesinger._flow_taylor``) and state: A, ln tau, Phi at each node."""
        y0 = np.concatenate([tnode.A.ravel(), [tnode.ln_tau], *[n.phi.ravel() for n in nodes]])
        return partial(_flow_taylor, xs=[n.x for n in nodes]), y0

    @staticmethod
    def _bundle_nodes(
        tnode: TNode, nodes: Sequence[PhiNode], t_new: np.ndarray, y: np.ndarray, dlog: np.ndarray
    ) -> tuple[TNode, list[PhiNode]]:
        """The TNode and Phi nodes at t_new from an end state and the log increments of :meth:`_time_hops`."""
        new_tnode = TNode(t_new.copy(), y[:16].reshape(4, 2, 2), complex(y[16]), tnode.pair_logs + dlog[:6])
        new_nodes = [
            PhiNode(n.x, t_new.copy(), y[17 + 4 * k : 21 + 4 * k].reshape(2, 2), n.logs + dlog[6 + 4 * k : 10 + 4 * k])
            for k, n in enumerate(nodes)
        ]
        return new_tnode, new_nodes

    # -- wavefunctions ------------------------------------------------------

    def M_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode) -> np.ndarray:
        """M(x, y) = tau * Phi(x)^{-1} Phi(y)."""
        d = det2(nx.phi)
        if abs(d) < 1e-12:
            raise NearSingularPhi(f"|det Phi(x)| = {abs(d):.3e}")
        return np.exp(tnode.ln_tau) * (inv2(nx.phi) @ ny.phi)

    def gauge_exponent(self, tnode: TNode) -> complex:
        """Closed-form S(t) = sum_{i<j} (theta_i theta_j / 2) log(t_i - t_j)."""
        th = self.theta.theta
        return sum(
            (th[i] * th[j] / 2.0) * tnode.pair_logs[k] for k, (i, j) in enumerate(_PAIRS)
        )

    def Y_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode) -> np.ndarray:
        """Gauged two-point function Y = M / ((x-y) prod [...]^{theta_i/2} e^S)."""
        if abs(nx.x - ny.x) < EXCLUSION:
            raise DiagonalCollision("x and y collided")
        d = det2(nx.phi)
        if abs(d) < 1e-12:
            raise NearSingularPhi(f"|det Phi(x)| = {abs(d):.3e}")
        th = self.theta.theta
        log_gauge = sum((th[i] / 2.0) * (nx.logs[i] + ny.logs[i]) for i in range(4))
        log_gauge += self.gauge_exponent(tnode)
        pref = np.exp(tnode.ln_tau - log_gauge) / (nx.x - ny.x)
        return pref * (inv2(nx.phi) @ ny.phi)

    def V_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode, ab: AlphaBeta) -> np.ndarray:
        """V = Y / ((x y)^alpha (x-1)^beta (y-1)^beta), via the node logs.

        Valid while t3 = 1 and t4 = 0 (the quantized polynomial-Garnier lab
        never moves them), so log(x) and log(x - 1) are the stored logs at
        the fourth and third pole.
        """
        y_val = self.Y_of(tnode, nx, ny)
        log_pref = ab.alpha * (nx.logs[3] + ny.logs[3]) + ab.beta * (nx.logs[2] + ny.logs[2])
        return y_val * np.exp(-log_pref)

    def det_phi_residual(self, node: PhiNode) -> float:
        """|ln det Phi(x) - integral of tr A| via the closed form."""
        tr = np.einsum("iaa->i", self.base_tnode.A)
        expected = complex(np.einsum("i,i->", tr, node.logs - self.base_node.logs))
        d = det2(node.phi)
        if abs(d) < 1e-300:
            raise NearSingularPhi("det Phi underflow")
        got = np.log(d)
        # compare exp to sidestep the 2*pi*i ambiguity of the principal log
        return abs(np.exp(got - expected) - 1.0)


def phi_via(frame: Frame, x: complex, t12: tuple[complex, complex], order: str = "tx") -> np.ndarray:
    """Phi(x; t) by the two transport orders ("tx": time first, "xt": space first)."""
    t_new = frame.base_tnode.t.copy()
    t_new[0], t_new[1] = t12
    if order == "tx":
        tn, (nb,) = frame.shift_t_adaptive(frame.base_tnode, [frame.base_node], t_new)
        return frame.phi_node(x, tnode=tn, anchor=nb).phi
    if order == "xt":
        nx = frame.phi_node(x)
        _tn, (nx2,) = frame.shift_t_adaptive(frame.base_tnode, [nx], t_new)
        return nx2.phi
    raise ValueError("order must be 'tx' or 'xt'")


def zero_curvature_loop(
    frame: Frame,
    x_span: tuple[complex, complex],
    t_index: int,
    dt: complex,
) -> float:
    """Transport around a rectangle in (x, t_i) and report ||Phi_loop - I||.

    The rectangle is (x0 -> x1 at t), (t -> t + dt at x1), (x1 -> x0 at
    t + dt), (t + dt -> t at x0), starting from the base-normalized Phi.
    """
    x0, x1 = x_span
    t0 = frame.base_tnode.t
    t1v = t0.copy()
    t1v[t_index] += dt
    n0 = frame.phi_node(x0)
    n1 = frame.phi_node(x1, anchor=n0)
    tn_up, (n1_up,) = frame.shift_t_adaptive(frame.base_tnode, [n1], t1v)
    n0_up = frame.phi_node(x0, tnode=tn_up, anchor=n1_up)
    _tn_dn, (n0_back,) = frame.shift_t_adaptive(tn_up, [n0_up], t0)
    diff = n0_back.phi - n0.phi
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# shared stencil machinery for the residual engines
# ---------------------------------------------------------------------------

def _norm_max(mats: Iterable[np.ndarray]) -> float:
    return max(float(np.max(np.abs(m))) for m in mats)


@dataclass
class YDerivs:
    x: complex
    y: complex
    t: np.ndarray
    Y: np.ndarray
    Yx: np.ndarray
    Yxx: np.ndarray
    Yy: np.ndarray
    Yyy: np.ndarray
    Yt: dict[int, np.ndarray]


def _y_derivs(
    frame: Frame,
    x: complex,
    y: complex,
    scheme: FDScheme,
    t_dirs: Sequence[int],
) -> YDerivs:
    tnode = frame.base_tnode
    nx0 = frame.phi_node(x)
    ny0 = frame.phi_node(y)
    y_center = frame.Y_of(tnode, nx0, ny0)

    mults2 = stencil_multipliers(scheme, (1, 2))
    mults1 = stencil_multipliers(scheme, (1,))

    # x- and y-stencils: every hop in one batched transport
    hx = scheme.scaled_step(x)
    hy = scheme.scaled_step(y)
    offs = [m for m in mults2 if m != 0.0]
    nodes = frame.phi_nodes(
        [(x + m * hx, tnode, nx0) for m in offs] + [(y + m * hy, tnode, ny0) for m in offs]
    )
    vals_x = {0.0: y_center}
    vals_y = {0.0: y_center}
    for m, nxm, nym in zip(offs, nodes[: len(offs)], nodes[len(offs) :]):
        vals_x[m] = frame.Y_of(tnode, nxm, ny0)
        vals_y[m] = frame.Y_of(tnode, nx0, nym)
    yx = combine_stencil(vals_x, hx, scheme, 1)
    yxx = combine_stencil(vals_x, hx, scheme, 2)
    yy = combine_stencil(vals_y, hy, scheme, 1)
    yyy = combine_stencil(vals_y, hy, scheme, 2)

    # t-stencils: the bundle moves on one series per direction
    t0 = tnode.t
    ht = {d: scheme.scaled_step(t0[d]) for d in t_dirs}
    yt = {}
    for d in t_dirs:
        moved = frame.shift_t(tnode, [nx0, ny0], d, [m * ht[d] for m in mults1])
        vals = {m: frame.Y_of(tn, nxm, nym) for m, (tn, (nxm, nym)) in zip(mults1, moved)}
        yt[d] = combine_stencil(vals, ht[d], scheme, 1)
    return YDerivs(x=x, y=y, t=t0, Y=y_center, Yx=yx, Yxx=yxx, Yy=yy, Yyy=yyy, Yt=yt)


def bpz_residual(
    frame: Frame,
    grid: Sequence[tuple[complex, complex]],
    scheme: FDScheme | None = None,
) -> list[ResidualReport]:
    """Residual reports of the four equations satisfied by Y(x, y, t).

    Derivatives with respect to the frozen times t3, t4 are obtained by
    re-flowing the full deformation bundle over the stencil, so the sums
    over all four times are evaluated as written.
    """
    scheme = scheme or LAB_FD
    th = frame.theta.theta
    lam = frame.theta.bpz_lambda
    rows = {k: [] for k in ("bpz_x", "bpz_y", "odn_sum", "odn_euler")}
    for x, y in grid:
        d = _y_derivs(frame, x, y, scheme, t_dirs=(0, 1, 2, 3))
        t = d.t
        # second-order equation in x
        terms = [d.Yt[i] / (x - t[i]) for i in range(4)]
        terms += [-d.Yxx, -(d.Yx - d.Yy) / (x - y)]
        terms += [-(th[i] / (x - t[i])) * d.Yx for i in range(4)]
        _push(rows["bpz_x"], (x, y), terms)
        # second-order equation in y
        terms = [d.Yt[i] / (y - t[i]) for i in range(4)]
        terms += [-d.Yyy, -(d.Yx - d.Yy) / (x - y)]
        terms += [-(th[i] / (y - t[i])) * d.Yy for i in range(4)]
        _push(rows["bpz_y"], (x, y), terms)
        # translation invariance
        terms = [d.Yt[i] for i in range(4)] + [d.Yx, d.Yy]
        _push(rows["odn_sum"], (x, y), terms)
        # Euler relation
        terms = [t[i] * d.Yt[i] for i in range(4)] + [x * d.Yx, y * d.Yy, -lam * d.Y]
        _push(rows["odn_euler"], (x, y), terms)
    return [_report(k, grid, rows[k], scheme) for k in rows]


def _push(rows: list, point, terms: list[np.ndarray]) -> None:
    residual = sum(terms)
    norm = _norm_max(terms)
    abs_r = float(np.max(np.abs(residual)))
    rows.append((point, abs_r, abs_r / (norm + 1e-300), norm))


def _kevol_terms(d: YDerivs, which: int, theta, lam) -> list[np.ndarray]:
    """Terms of the quantized GO evolution equation for t_{which+1}."""
    x, y, t = d.x, d.y, d.t
    i, n = (0, 1) if which == 0 else (1, 0)
    ti, tn = t[i], t[n]
    th = list(theta)
    lhs = ti * (ti - 1.0) * (ti - tn) * d.Yt[i]

    def pole_sum(z, dz):
        shift = [0.0, 0.0, 1.0, 1.0]
        shift[n] = 1.0  # the other moving time gets theta + 1
        shift[i] = 0.0
        return (
            (th[0] + shift[0]) / (z - t[0])
            + (th[1] + shift[1]) / (z - t[1])
            + (th[2] + shift[2]) / (z - t[2])
            + (th[3] + shift[3]) / (z - t[3])
        ) * dz

    cx = (x - ti) * (y - ti) * (x - tn) * (x - 1.0) * x / (y - x)
    cy = (x - ti) * (y - ti) * (y - tn) * (y - 1.0) * y / (y - x)
    terms = [lhs]
    terms += [-cx * d.Yxx, -cx * pole_sum(x, d.Yx), cx * (lam / (x * (x - 1.0))) * d.Y]
    terms += [cy * d.Yyy, cy * pole_sum(y, d.Yy), -cy * (lam / (y * (y - 1.0))) * d.Y]
    return terms


def kevol_residual(
    frame: Frame,
    grid: Sequence[tuple[complex, complex]],
    scheme: FDScheme | None = None,
) -> list[ResidualReport]:
    """Residuals of the two quantized Garnier-Okamoto evolution equations."""
    scheme = scheme or LAB_FD
    lam = frame.theta.bpz_lambda
    rows = {"kevol_t1": [], "kevol_t2": []}
    for x, y in grid:
        d = _y_derivs(frame, x, y, scheme, t_dirs=(0, 1))
        _push(rows["kevol_t1"], (x, y), _kevol_terms(d, 0, frame.theta.theta, lam))
        _push(rows["kevol_t2"], (x, y), _kevol_terms(d, 1, frame.theta.theta, lam))
    return [_report(k, grid, rows[k], scheme) for k in rows]


# ---------------------------------------------------------------------------
# quantized polynomial-Garnier equations on V(zeta, eta, t)
# ---------------------------------------------------------------------------

@dataclass
class VDerivs:
    zeta: complex
    eta: complex
    x: complex
    y: complex
    V: np.ndarray
    Vz: np.ndarray
    Vzz: np.ndarray
    Ve: np.ndarray
    Vee: np.ndarray
    Vze: np.ndarray
    Vt: dict[int, np.ndarray]


def _branch_safe_step(scheme: FDScheme, point, direction, hint) -> float:
    """Stencil step along ``direction`` in (zeta, eta, t1, t2), clamped by the x = y locus.

    ``point`` is (zeta, eta, t1, t2) and ``hint`` its preimage (x0, y0).
    V(zeta, eta, t) branches where the two preimages collide; the chart's
    smoothness radius there is roughly |x - y| / |d(x - y)/d(var)|, probed
    by one extra inversion. The step is kept at a small fraction of it.
    """
    var0 = np.dot(direction, point)
    probe = 1e-6 * (1.0 + abs(var0))
    x0, y0 = hint
    x1, y1 = zeta_eta_inverse(*(p + probe * e for p, e in zip(point, direction)), hint)
    rate = abs((x1 - y1) - (x0 - y0)) / probe
    radius = abs(x0 - y0) / (2.0 * rate + 1e-30)
    return min(scheme.scaled_step(var0), radius / 50.0)


def _v_derivs(
    frame: Frame,
    zeta: complex,
    eta: complex,
    hint: tuple[complex, complex],
    ab: AlphaBeta,
    scheme: FDScheme,
) -> VDerivs:
    tnode = frame.base_tnode
    t = tnode.t
    x0, y0 = zeta_eta_inverse(zeta, eta, t[0], t[1], hint)
    nx0 = frame.phi_node(x0)
    ny0 = frame.phi_node(y0)

    mults2 = stencil_multipliers(scheme, (1, 2))
    mults1 = stencil_multipliers(scheme, (1,))
    point = (zeta, eta, t[0], t[1])
    axes = np.eye(4)  # directions zeta, eta, t1, t2
    hz = _branch_safe_step(scheme, point, axes[0], (x0, y0))
    he = _branch_safe_step(scheme, point, axes[1], (x0, y0))

    # 1. stencil points: key -> (tnode, x, y, anchor of x, anchor of y)
    points: dict[tuple, tuple] = {}

    def chain(key, ms, zeta_eta_at, start):
        """Invert the offsets of each sign outward from start, hint by hint."""
        for sign in (1.0, -1.0):
            hint_pt = start
            for m in sorted([m for m in ms if m * sign > 0], key=abs):
                hint_pt = zeta_eta_inverse(*zeta_eta_at(m), t[0], t[1], hint_pt)
                points[key + (m,)] = (tnode, *hint_pt, nx0, ny0)

    chain(("z",), mults2, lambda m: (zeta + m * hz, eta), (x0, y0))
    chain(("e",), mults2, lambda m: (zeta, eta + m * he), (x0, y0))
    # tensor stencil of the mixed derivative, each row hinted by its zeta point
    for mz in mults1:
        if mz != 0.0:
            row_hint = points["z", mz][1:3]
            chain(("ze", mz), mults1, lambda me: (zeta + mz * hz, eta + me * he), row_hint)
    # t1/t2 stencils at fixed (zeta, eta): the bundle moves on one series
    # per direction, then the preimages
    ht = {ddir: _branch_safe_step(scheme, point, axes[2 + ddir], (x0, y0)) for ddir in (0, 1)}
    for ddir in (0, 1):
        moved = frame.shift_t(tnode, [nx0, ny0], ddir, [m * ht[ddir] for m in mults1])
        for m, (tn, (nxm, nym)) in zip(mults1, moved):
            xm, ym = zeta_eta_inverse(zeta, eta, tn.t[0], tn.t[1], (x0, y0))
            points["t", ddir, m] = (tn, xm, ym, nxm, nym)

    # 2. one batched transport for every hop of the grid point
    nodes = frame.phi_nodes(
        [hop for tn, x, y, ax, ay in points.values() for hop in ((x, tn, ax), (y, tn, ay))]
    )

    # 3. V at each stencil point, then the stencil combinations
    v_center = frame.V_of(tnode, nx0, ny0, ab)
    vals = {
        key: frame.V_of(tn, nodes[2 * k], nodes[2 * k + 1], ab)
        for k, (key, (tn, *_rest)) in enumerate(points.items())
    }

    def line(*prefix):
        return {key[-1]: v for key, v in vals.items() if key[:-1] == prefix}

    vals_z = {0.0: v_center, **line("z")}
    vz = combine_stencil(vals_z, hz, scheme, 1)
    vzz = combine_stencil(vals_z, hz, scheme, 2)
    vals_e = {0.0: v_center, **line("e")}
    ve = combine_stencil(vals_e, he, scheme, 1)
    vee = combine_stencil(vals_e, he, scheme, 2)
    outer = {mz: combine_stencil(line("ze", mz), he, scheme, 1) for mz in mults1 if mz != 0.0}
    vze = combine_stencil(outer, hz, scheme, 1)
    vt = {d: combine_stencil({0.0: v_center, **line("t", d)}, ht[d], scheme, 1) for d in (0, 1)}
    return VDerivs(zeta=zeta, eta=eta, x=x0, y=y0, V=v_center, Vz=vz, Vzz=vzz, Ve=ve, Vee=vee, Vze=vze, Vt=vt)


def _qpg_terms(d: VDerivs, which: int, theta, ab: AlphaBeta, t1, t2) -> list[np.ndarray]:
    """Terms of the quantized polynomial-Garnier equation for t_{which+1}.

    The two equations are exchanged by (t1, theta_1, zeta) <-> (t2, theta_2,
    eta), so a single body is written in swapped variables.
    """
    th1, th2, th3, th4 = theta
    al, be = ab.alpha, ab.beta
    if which == 0:
        ta, tb, za, zb = t1, t2, d.zeta, d.eta
        tha, thb = th1, th2
        Va, Vaa, Vb, Vbb = d.Vz, d.Vzz, d.Ve, d.Vee
    else:
        ta, tb, za, zb = t2, t1, d.eta, d.zeta
        tha, thb = th2, th1
        Va, Vaa, Vb, Vbb = d.Ve, d.Vee, d.Vz, d.Vzz
    dd = ta - tb
    lhs = ta * (ta - 1.0) * d.Vt[which]
    c_aa = za**3 - (ta + 1.0) * za**2 + ta * za - ta * (ta - 1.0) * za * zb / dd
    c_ab = 2.0 * za**2 * zb + 2.0 * ta * (tb - 1.0) * za * zb / dd
    c_bb = za * zb**2 - tb * (ta - 1.0) * za * zb / dd
    c_a = (
        -(th3 + 2.0 * be - 1.0) * za**2
        + ta * za * (thb + th3 + th4 + 2.0 * al + 2.0 * be)
        - za * (th1 + th2 + th4 + 2.0 * al + 2.0)
        + ta * (tha + 1.0)
        - (tha + 1.0) * ta * (ta - 1.0) * zb / dd
        + (thb + 1.0) * tb * (ta - 1.0) * za / dd
    )
    c_b = (
        -(th3 + 2.0 * be - 1.0) * za * zb
        + (tha + 1.0) * ta * (tb - 1.0) * zb / dd
        - (thb + 1.0) * tb * (ta - 1.0) * za / dd
    )
    c_0 = be * (be + th3) * za + (ta - 1.0) * tha * al + ta * tha * be
    return [
        lhs,
        -c_aa * Vaa,
        -c_ab * d.Vze,
        -c_bb * Vbb,
        -c_a * Va,
        -c_b * Vb,
        -c_0 * d.V,
    ]


def quantized_pg_residual(
    frame: Frame,
    grid_zeta_eta: Sequence[tuple[complex, complex, tuple[complex, complex]]],
    ab: AlphaBeta,
    scheme: FDScheme | None = None,
) -> list[ResidualReport]:
    """Residuals of the quantized polynomial-Garnier pair on V(zeta, eta, t).

    Grid entries are (zeta, eta, hint) with the hint an (x, y) pair in the
    preimage neighbourhood; stencil points are inverted with chained hints.
    """
    scheme = scheme or QPG_FD
    t = frame.base_tnode.t
    th = frame.theta.theta
    rows = {"qpg_t1": [], "qpg_t2": []}
    pts = [(z, e) for z, e, _h in grid_zeta_eta]
    for zeta, eta, hint in grid_zeta_eta:
        d = _v_derivs(frame, zeta, eta, hint, ab, scheme)
        _push(rows["qpg_t1"], (zeta, eta), _qpg_terms(d, 0, th, ab, t[0], t[1]))
        _push(rows["qpg_t2"], (zeta, eta), _qpg_terms(d, 1, th, ab, t[0], t[1]))
    return [_report(k, pts, rows[k], scheme) for k in rows]


# ---------------------------------------------------------------------------
# the scalar second-order equation in x (cross-check of the GO picture)
# ---------------------------------------------------------------------------

def garx_residual(
    frame: Frame,
    x_samples: Sequence[complex],
    scheme: FDScheme | None = None,
    column: int = 0,
) -> tuple[ResidualReport, ResidualReport]:
    """Residual of the scalar equation on z = (Phi * prod (x-t_i)^{th_i/2})_{1, col}.

    Also returns the Abel-identity report for the Wronskian of the two
    columns: W' = (coefficient of z') * W.
    """
    scheme = scheme or LAB_FD
    qstate = shift_normalization(frame.state, "BtoQ")
    go = extract_go(qstate)
    K1 = hamiltonian_K(1, go)
    K2 = hamiltonian_K(2, go)
    th = frame.theta.theta
    tnode = frame.base_tnode
    offs = [m for m in stencil_multipliers(scheme, (1, 2)) if m != 0.0]

    def z_mat(node: PhiNode) -> np.ndarray:
        pref = np.exp(sum((th[i] / 2.0) * node.logs[i] for i in range(4)))
        return pref * node.phi

    def wronskian(node: PhiNode) -> complex:
        # both columns of Z solve the same system Z' = Q(x) Z, so the
        # Wronskian of the first components is q12(x) * det Z
        q12 = complex(np.einsum("i,i->", qstate.A[:, 0, 1], 1.0 / (node.x - tnode.t)))
        return q12 * det2(z_mat(node))

    rows_eq = []
    rows_abel = []
    for x in x_samples:
        nx0 = frame.phi_node(x)
        hx = scheme.scaled_step(x)
        hopped = frame.phi_nodes([(x + m * hx, tnode, nx0) for m in offs])
        nodes = {0.0: nx0, **dict(zip(offs, hopped))}
        vals = {m: z_mat(n)[0, :] for m, n in nodes.items()}
        z0 = vals[0.0]
        z1 = combine_stencil(vals, hx, scheme, 1)
        z2 = combine_stencil(vals, hx, scheme, 2)
        c_zp, c_z = garx_coefficients(go, K1, K2, x)
        terms = [z2[column], -c_zp * z1[column], -c_z * z0[column]]
        _push(rows_eq, (x, 0.0), [np.atleast_1d(v) for v in terms])
        # Abel identity W' = c_zp W on the Wronskian of the two columns
        w_vals = {m: wronskian(n) for m, n in nodes.items()}
        w1 = combine_stencil(w_vals, hx, scheme, 1)
        _push(rows_abel, (x, 0.0), [np.atleast_1d(w1), np.atleast_1d(-c_zp * w_vals[0.0])])
    rep_eq = _report("garx", [(x, 0.0) for x in x_samples], rows_eq, scheme)
    rep_abel = _report("garx_abel", [(x, 0.0) for x in x_samples], rows_abel, scheme)
    return rep_eq, rep_abel
