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
  obtained through a power-law prefactor and the rational change of space
  variables, which is the classical bridge lambda -> q of ``poly_garnier``
  taken at (lambda_1, lambda_2) = (x, y),
* the scalar second-order equation in x satisfied by the first component
  of the shifted wavefunction, with its apparent singularities.

Every move of Phi runs on Taylor coefficients. In x at fixed times,
:func:`_x_series` gives the series of Phi_x = sum_i A_i/(x - t_i) Phi, for
any number of rows at once; the moves of Phi in x from one node share one
row there, summed at each displacement within its step, and the longer ones
walk on in their own Taylor steps (:meth:`Frame.phi_nodes`). In time the
series is that of the bundle (A, ln tau, Phi at the attached points), summed
at every offset along one axis e_d (:meth:`Frame.shift_t`; C3 and C11 move
bare B-states too) or walked in Taylor steps (:meth:`Frame.shift_t_adaptive`).
Derivatives are central finite differences. The residual engines take their
stencil values from one grid pass (:func:`_stencil_values`): one call moves
the base nodes, one bundle series per direction (every time stencil is
centred at the base time) carries them, one call moves every x hop, and one
array call evaluates Y, V or z at every stencil point (:meth:`Frame.wave_values`).
Each stencil point of V is inverted from its centre's preimage (:func:`_v_derivs`).
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
)
from .garnier_okamoto import extract_go, garx_coefficients, hamiltonian_K
from .numerics import (
    TAYLOR_ORDER,
    FDScheme,
    PathPlan,
    SeriesStop,
    check_clearance,
    combine_stencil,
    det2,
    quad_roots,
    stencil_multipliers,
    tally,
    taylor_integrate,
    taylor_stencil,
    taylor_walk,
)
from .numerics import ode_integrate  # noqa: F401 - unused here; perfbench's tracer wraps every module's copy
from .poly_garnier import bridge_lambda_from_q, bridge_q_from_lambda
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
    """(zeta, eta) from (x, y): the bridge ``poly_garnier.bridge_q_from_lambda`` with (lambda_1, lambda_2) = (x, y).

    Symmetric under x <-> y; raises its PoleEvaluation at x or y = 1 and TimeCollision at t1 = t2.
    """
    return bridge_q_from_lambda(x, y, t1, t2)


def zeta_eta_inverse(zeta, eta, t1, t2, hint: tuple[complex, complex]) -> tuple[complex, complex]:
    """Invert the space-variable map near a hint point (x0, y0).

    The root pair is ``poly_garnier.bridge_lambda_from_q``'s (ReductionLocus on zeta + eta = 1, where
    the map has no inverse), ordered by the hint. The forward map of the result must reproduce
    (zeta, eta) to 1e-10.
    """
    x0, y0 = hint
    ra, rb = bridge_lambda_from_q(zeta, eta, t1, t2)
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


def _x_series(t, A, x, v, phi, reach=None) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients in s of Phi(x + s v) through phi at the fixed times t, for every row at once.

    On the chord the weight v/(x - t_i + s v) of A_i in dPhi/ds is sum_l rho_i (-rho_i)^l s^l, rho_i =
    v/(x - t_i); so with M_l = sum_i A_i rho_i (-rho_i)^l, (n + 1) Phi_n+1 = sum_l M_l Phi_n-l. Rows are
    leading axes that broadcast: t (..., 4), A (..., 4, 2, 2), x and v scalars or (..., 1), phi (..., 4).
    With ``reach`` (the rows' shape: how far in s each row's series is summed) the orders stop where
    a ``numerics.SeriesStop`` finds every row converged. Returns the (k + 1, ..., 4) coefficients, k =
    TAYLOR_ORDER or that order, and the radius min_i |x - t_i|/|v| of each row.
    """
    p = k = TAYLOR_ORDER
    rho = v / (x - t)
    rows = rho.shape[:-1]
    powers = rho[..., None, :] * (-rho[..., None, :]) ** np.arange(p)[:, None]  # [..., l, i] = rho_i (-rho_i)^l
    # the orders l of M side by side, and Phi stored reversed, so that each order of the Cauchy
    # product is one 2 x 2(n + 1) by 2(n + 1) x 2 einsum per row (no BLAS)
    M = np.einsum("...li,...iab->...alb", powers, A).reshape(rows + (2, 2 * p))  # [..., a, (l, b)] = M_l[a, b]
    P = np.empty(rows + (p + 1, 2, 2), dtype=complex)  # [..., p - n] = Phi_n
    P[..., p, :, :] = np.reshape(phi, rows + (2, 2))
    P2, flat = P.reshape(rows + (2 * p + 2, 2)), P.reshape(rows + (p + 1, 4))
    stop = SeriesStop(flat[..., p, :], reach)
    for n in range(p):
        product = np.einsum("...ak,...kc->...ac", M[..., : 2 * n + 2], P2[..., 2 * (p - n) :, :])
        P[..., p - n - 1, :, :] = product / (n + 1)
        if n + 1 == stop.next and stop(lambda j: flat[..., p - j, :], n + 1):
            k = n + 1
            break
    c = np.moveaxis(P[..., p - k :, :, :][..., ::-1, :, :], -3, 0).reshape((k + 1,) + rows + (4,))
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

    # -- spatial transport --------------------------------------------------

    def phi_node(self, x: complex, tnode: TNode | None = None, anchor: PhiNode | None = None) -> PhiNode:
        """Transport Phi (and the gauge logs) to x along a straight segment: the one-hop :meth:`phi_nodes`.

        Without ``tnode`` the hop is at the base time, from the base node unless ``anchor`` is given.
        """
        anchor = anchor or (self.base_node if tnode is None else None)
        if anchor is None:
            raise ValueError("an anchor node is required away from the base time")
        return self.phi_nodes([(x, tnode or self.base_tnode, anchor)])[0]

    def phi_nodes(self, hops: Sequence[tuple[complex, TNode, PhiNode]]) -> list[PhiNode]:
        """Transport Phi (and the gauge logs) along every hop (x, tnode, anchor): one series per anchor node.

        Each moving hop, the chord anchor.x -> x at the times of its tnode, is checked against the x = t_i
        discs. The hops of one (tnode, anchor) pair, by identity, share one :func:`_x_series` row at the anchor,
        in powers of w = x - anchor.x: a hop within its step lands by one sum at its own w, a longer one walks on
        from that step in its own Taylor steps (``numerics.taylor_walk``). Its logs gain the principal
        log((x - t_i)/(anchor.x - t_i)), their exact continuation along a checked chord. A hop that ends at its
        anchor returns the anchor.
        """
        hops = [(complex(x), tnode, anchor) for x, tnode, anchor in hops]
        out = [anchor for _x, _tn, anchor in hops]
        moving = [k for k, (x, _tn, anchor) in enumerate(hops) if x != anchor.x]
        if not moving:
            return out
        x1, tnodes, anchors = zip(*[hops[k] for k in moving])
        labels = {}  # (tnode, anchor) by identity -> the label of its series
        group = np.array([labels.setdefault((id(tn), id(a)), len(labels)) for tn, a in zip(tnodes, anchors)])
        x0, x1 = np.array([a.x for a in anchors], dtype=complex), np.array(x1)
        t, A = np.array([tn.t for tn in tnodes], dtype=complex), np.array([tn.A for tn in tnodes], dtype=complex)
        w0, w1 = x0[:, None] - t, x1[:, None] - t
        check_clearance(w0, w1, EXCLUSION, _X_SETS)
        series = lambda rows, x, v, phi, reach: _x_series(t[rows], A[rows], x, v, phi, reach)  # noqa: E731
        phi1 = taylor_walk(series, [a.phi.ravel() for a in anchors], x0[:, None], (x1 - x0)[:, None], group)
        logs = np.array([a.logs for a in anchors], dtype=complex) + np.log(w1 / w0)
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

    @staticmethod
    def _transfer(nxs: Sequence[PhiNode], nys: Sequence[PhiNode]) -> np.ndarray:
        """Phi(x)^{-1} Phi(y) of every node pair, (K, 2, 2); NearSingularPhi at the first |det Phi(x)| < 1e-12."""
        px, py = np.array([n.phi for n in nxs]), np.array([n.phi for n in nys])
        d = det2(px)
        small = np.flatnonzero(np.abs(d) < 1e-12)
        if small.size:
            raise NearSingularPhi(f"|det Phi(x)| = {abs(d[small[0]]):.3e}")
        adj = np.stack([px[:, 1, 1], -px[:, 0, 1], -px[:, 1, 0], px[:, 0, 0]], axis=-1).reshape(-1, 2, 2)
        return np.einsum("kab,kbc->kac", adj / d[:, None, None], py)  # the explicit 2x2 inverse, no BLAS

    def M_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode) -> np.ndarray:
        """M(x, y) = tau * Phi(x)^{-1} Phi(y)."""
        return np.exp(tnode.ln_tau) * self._transfer([nx], [ny])[0]

    def gauge_exponent(self, tnode: TNode) -> complex:
        """Closed-form S(t) = sum_{i<j} (theta_i theta_j / 2) log(t_i - t_j)."""
        th = self.theta.theta
        return sum(
            (th[i] * th[j] / 2.0) * tnode.pair_logs[k] for k, (i, j) in enumerate(_PAIRS)
        )

    def Y_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode) -> np.ndarray:
        """Gauged two-point function Y = M / ((x-y) prod [...]^{theta_i/2} e^S): :meth:`wave_values` of one triple."""
        return self.wave_values([tnode], [nx], [ny])[0]

    def V_of(self, tnode: TNode, nx: PhiNode, ny: PhiNode, ab: AlphaBeta) -> np.ndarray:
        """V = Y / ((x y)^alpha (x-1)^beta (y-1)^beta): :meth:`wave_values` of one triple."""
        return self.wave_values([tnode], [nx], [ny], ab)[0]

    def wave_values(self, tnodes: Sequence[TNode], nxs: Sequence[PhiNode], nys: Sequence[PhiNode], ab=None):
        """Y, or V with the exponents ``ab``, at every triple (tnode, nx, ny) of the sequences, (K, 2, 2), on arrays.

        Raises DiagonalCollision when any |x - y| < EXCLUSION, then :meth:`_transfer`'s NearSingularPhi. V's
        prefactor comes from the node logs, valid while t3 = 1 and t4 = 0 (the quantized polynomial-Garnier lab
        never moves them), so log(x) and log(x - 1) are the stored logs at the fourth and third pole.
        """
        x, y = np.array([n.x for n in nxs]), np.array([n.x for n in nys])
        if np.any(np.abs(x - y) < EXCLUSION):
            raise DiagonalCollision("x and y collided")
        th = np.asarray(self.theta.theta)
        logs = np.array([n.logs for n in nxs]) + np.array([n.logs for n in nys])
        pair_logs, ln_tau = np.array([tn.pair_logs for tn in tnodes]), np.array([tn.ln_tau for tn in tnodes])
        log_gauge = np.einsum("ki,i->k", logs, th / 2.0)
        log_gauge += np.einsum("kp,p->k", pair_logs, th[_PAIR_I] * th[_PAIR_J] / 2.0)
        prefactor = 1.0 if ab is None else np.exp(-np.einsum("ki,i->k", logs[:, 3:1:-1], [ab.alpha, ab.beta]))
        return (np.exp(ln_tau - log_gauge) / (x - y) * prefactor)[:, None, None] * self._transfer(nxs, nys)

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


def _stencil_values(frame: Frame, stencils: Sequence[tuple], t_mults, value) -> list[dict]:
    """Every grid point's stencil values by key: two batches of x moves, one bundle move per direction, one value call.

    A point's stencil is (base, spatial, ht, place): the positions of its nodes at the base time (all moved
    from the base node in one :meth:`Frame.phi_nodes` call), the anchors of its hops; key -> their positions
    at the base time; d -> its time step along e_d; place(tnode) -> their positions at a moved time. Along
    each e_d one :meth:`Frame.shift_t` call moves the bundle, with every base node attached, to the union of
    the points' offsets m * ht[d] (m in ``t_mults``; equal offsets move once). Those nodes' hops to ``place``
    and every spatial hop go to a second :meth:`Frame.phi_nodes` call (a zero-length hop returns its anchor),
    so a failing hop fails the grid. ``value(tnodes, *nodes)`` takes every key's TNode and, per node of a
    point, that node at every key: one array call. Returns per point key -> its row, time keys ("t", d, m).
    """
    if not stencils:
        return []
    bases, spatials, hts, places = zip(*stencils)
    tnode, width = frame.base_tnode, len(bases[0])
    base = frame.phi_nodes([(x, tnode, frame.base_node) for xs in bases for x in xs])
    of_point = lambda nodes, k: nodes[width * k : width * (k + 1)]  # noqa: E731
    ends = [(k, key, tnode, pos, of_point(base, k)) for k, sp in enumerate(spatials) for key, pos in sp.items()]
    for d in hts[0]:
        mults = [(k, m) for k in range(len(stencils)) for m in t_mults]
        offsets, which = np.unique([m * hts[k][d] for k, m in mults], return_inverse=True)
        moved = frame.shift_t(tnode, base, d, offsets)
        for (k, m), i in zip(mults, which):
            tn, nodes = moved[i]
            ends.append((k, ("t", d, m), tn, places[k](tn), of_point(nodes, k)))
    nodes = frame.phi_nodes([(p, tn, a) for _k, _key, tn, pos, anchors in ends for p, a in zip(pos, anchors)])
    values = value([tn for _k, _key, tn, _pos, _anchors in ends], *(nodes[j::width] for j in range(width)))
    out = [{} for _s in stencils]
    for (k, key, *_end), v in zip(ends, values):
        out[k][key] = v
    return out


def _line(vals: dict, *prefix) -> dict:
    """One stencil line of :func:`_stencil_values`' values, keyed by multiplier: m -> vals[prefix + (m,)]."""
    return {key[-1]: v for key, v in vals.items() if key[:-1] == prefix}


def _y_derivs(
    frame: Frame,
    grid: Sequence[tuple[complex, complex]],
    scheme: FDScheme,
    t_dirs: Sequence[int],
) -> list[YDerivs]:
    """Y and its stencil derivatives at every grid point (x, y), from one :func:`_stencil_values` pass."""
    t0 = frame.base_tnode.t
    mults2 = stencil_multipliers(scheme, (1, 2))
    mults1 = stencil_multipliers(scheme, (1,))
    ht = {d: scheme.scaled_step(t0[d]) for d in t_dirs}
    stencils = []
    for x, y in grid:
        hx, hy = scheme.scaled_step(x), scheme.scaled_step(y)
        spatial = {("x", m): (x + m * hx, y) for m in mults2} | {("y", m): (x, y + m * hy) for m in mults2}
        stencils.append(((x, y), spatial, ht, lambda _tn, xy=(x, y): xy))
    out = []
    for (x, y), vals in zip(grid, _stencil_values(frame, stencils, mults1, frame.wave_values)):
        hx, hy = scheme.scaled_step(x), scheme.scaled_step(y)
        vx, vy = _line(vals, "x"), _line(vals, "y")
        yt = {d: combine_stencil(_line(vals, "t", d), ht[d], scheme, 1) for d in t_dirs}
        out.append(
            YDerivs(
                x=x, y=y, t=t0, Y=vx[0.0], Yt=yt,
                Yx=combine_stencil(vx, hx, scheme, 1), Yxx=combine_stencil(vx, hx, scheme, 2),
                Yy=combine_stencil(vy, hy, scheme, 1), Yyy=combine_stencil(vy, hy, scheme, 2),
            )
        )
    return out


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
    for d in _y_derivs(frame, grid, scheme, t_dirs=(0, 1, 2, 3)):
        x, y, t = d.x, d.y, d.t
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
    norm = max(float(np.max(np.abs(m))) for m in terms)
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
    for d in _y_derivs(frame, grid, scheme, t_dirs=(0, 1)):
        _push(rows["kevol_t1"], (d.x, d.y), _kevol_terms(d, 0, frame.theta.theta, lam))
        _push(rows["kevol_t2"], (d.x, d.y), _kevol_terms(d, 1, frame.theta.theta, lam))
    return [_report(k, grid, rows[k], scheme) for k in rows]


# ---------------------------------------------------------------------------
# quantized polynomial-Garnier equations on V(zeta, eta, t)
# ---------------------------------------------------------------------------

@dataclass
class VDerivs:
    zeta: complex
    eta: complex
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
    Within ``numerics.count_work`` each call counts one ``stencil_steps``
    and, when the radius wins, one ``clamped_steps``.
    """
    var0 = np.dot(direction, point)
    probe = 1e-6 * (1.0 + abs(var0))
    x0, y0 = hint
    x1, y1 = zeta_eta_inverse(*(p + probe * e for p, e in zip(point, direction)), hint)
    rate = abs((x1 - y1) - (x0 - y0)) / probe
    h, cap = scheme.scaled_step(var0), abs(x0 - y0) / (2.0 * rate + 1e-30) / 50.0
    tally("stencil_steps")
    tally("clamped_steps", int(cap < h))
    return min(h, cap)


def _v_derivs(
    frame: Frame,
    grid: Sequence[tuple[complex, complex, tuple[complex, complex]]],
    ab: AlphaBeta,
    scheme: FDScheme,
) -> list[VDerivs]:
    """V and its stencil derivatives at every grid point (zeta, eta, hint), from one :func:`_stencil_values` pass.

    Each point's steps are clamped by :func:`_branch_safe_step`, which keeps them far inside the x = y
    branch radius; so every stencil point, spatial, mixed or at a moved time, is inverted from the centre's
    preimage (x0, y0), which itself sits at ("z", 0.0) and ("e", 0.0).
    """
    t = frame.base_tnode.t
    mults2 = [m for m in stencil_multipliers(scheme, (1, 2)) if m != 0.0]
    mults1 = stencil_multipliers(scheme, (1,))
    stencils, steps = [], []
    for zeta, eta, hint in grid:
        x0, y0 = zeta_eta_inverse(zeta, eta, t[0], t[1], hint)
        hz, he, ht1, ht2 = (_branch_safe_step(scheme, (zeta, eta, t[0], t[1]), e, (x0, y0)) for e in np.eye(4))
        points = {("z", m): (zeta + m * hz, eta) for m in mults2} | {("e", m): (zeta, eta + m * he) for m in mults2}
        points |= {("ze", mz, me): (zeta + mz * hz, eta + me * he) for mz in mults1 for me in mults1}  # mixed tensor
        spatial = {("z", 0.0): (x0, y0), ("e", 0.0): (x0, y0)}
        spatial |= {key: zeta_eta_inverse(*ze, t[0], t[1], (x0, y0)) for key, ze in points.items()}
        place = lambda tn, ze=(zeta, eta), xy=(x0, y0): zeta_eta_inverse(*ze, tn.t[0], tn.t[1], xy)  # noqa: E731
        stencils.append(((x0, y0), spatial, {0: ht1, 1: ht2}, place))
        steps.append((hz, he))
    values = _stencil_values(frame, stencils, mults1, partial(frame.wave_values, ab=ab))
    out = []
    for (zeta, eta, _hint), (_base, _spatial, ht, _place), (hz, he), vals in zip(grid, stencils, steps, values):
        vz, ve = _line(vals, "z"), _line(vals, "e")
        outer = {mz: combine_stencil(_line(vals, "ze", mz), he, scheme, 1) for mz in mults1}
        out.append(
            VDerivs(
                zeta=zeta, eta=eta, V=vz[0.0], Vze=combine_stencil(outer, hz, scheme, 1),
                Vz=combine_stencil(vz, hz, scheme, 1), Vzz=combine_stencil(vz, hz, scheme, 2),
                Ve=combine_stencil(ve, he, scheme, 1), Vee=combine_stencil(ve, he, scheme, 2),
                Vt={d: combine_stencil(_line(vals, "t", d), ht[d], scheme, 1) for d in (0, 1)},
            )
        )
    return out


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
    preimage neighbourhood; each stencil point is inverted from the
    preimage of its centre.
    """
    scheme = scheme or QPG_FD
    t = frame.base_tnode.t
    th = frame.theta.theta
    rows = {"qpg_t1": [], "qpg_t2": []}
    pts = [(z, e) for z, e, _h in grid_zeta_eta]
    for d in _v_derivs(frame, grid_zeta_eta, ab, scheme):
        _push(rows["qpg_t1"], (d.zeta, d.eta), _qpg_terms(d, 0, th, ab, t[0], t[1]))
        _push(rows["qpg_t2"], (d.zeta, d.eta), _qpg_terms(d, 1, th, ab, t[0], t[1]))
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
    K1, K2 = hamiltonian_K(1, go), hamiltonian_K(2, go)
    th = frame.theta.theta
    mults2 = stencil_multipliers(scheme, (1, 2))

    def z_and_wronskian(_tnodes, nodes) -> np.ndarray:
        """Row 1 of Z = Phi prod (x - t_i)^{th_i/2} and its Wronskian q12(x) det Z (as Z' = Q Z) per node, (K, 3)."""
        phi, logs = np.array([n.phi for n in nodes]), np.array([n.logs for n in nodes])
        x, t = np.array([n.x for n in nodes]), np.array([n.t for n in nodes])
        pref = np.exp(np.einsum("ki,i->k", logs, np.asarray(th) / 2.0))
        q12 = np.einsum("i,ki->k", qstate.A[:, 0, 1], 1.0 / (x[:, None] - t))
        return np.column_stack([pref[:, None] * phi[:, 0, :], q12 * pref**2 * det2(phi)])

    rows_eq, rows_abel = [], []
    stencils = [((x,), {m: (x + m * scheme.scaled_step(x),) for m in mults2}, {}, None) for x in x_samples]
    for x, vals in zip(x_samples, _stencil_values(frame, stencils, (), z_and_wronskian)):
        hx, (c_zp, c_z) = scheme.scaled_step(x), garx_coefficients(go, K1, K2, x)
        v0, v1, v2 = vals[0.0], combine_stencil(vals, hx, scheme, 1), combine_stencil(vals, hx, scheme, 2)
        terms = [v2[column], -c_zp * v1[column], -c_z * v0[column]]
        _push(rows_eq, (x, 0.0), [np.atleast_1d(v) for v in terms])
        # Abel identity W' = c_zp W on the Wronskian of the two columns
        _push(rows_abel, (x, 0.0), [np.atleast_1d(v1[2]), np.atleast_1d(-c_zp * v0[2])])
    rep_eq = _report("garx", [(x, 0.0) for x in x_samples], rows_eq, scheme)
    rep_abel = _report("garx_abel", [(x, 0.0) for x in x_samples], rows_abel, scheme)
    return rep_eq, rep_abel
