"""Wavefunction construction and finite-difference verification of the PDEs.

A :class:`Frame` wraps one traceless Schlesinger state together with the
base-normalized fundamental solution Phi (= identity at (base_x, base_t)),
the accumulated log of the tau-function, and continuous-logarithm charts for
every multivalued gauge factor. On top of it live the residual engines:

* the four second-order/first-order equations satisfied by the gauged
  two-point function Y(x, y, t),
* the pair of quantized Garnier-Okamoto evolution equations (which need
  only t1/t2 derivatives),
* the pair of quantized polynomial-Garnier equations for V(zeta, eta, t)
  obtained through the rational change of space variables and a power-law
  prefactor,
* the scalar second-order equation in x satisfied by the first component
  of the shifted wavefunction, with its apparent singularities.

Derivatives are central finite differences with shared stencils. All
spatial stencil hops of one grid point are integrated in one batched solve
(:meth:`Frame.phi_nodes`), each hop with a fixed (deterministic) step count
so the integration error stays a smooth function of the endpoint and does
not pollute second differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    AffineConstraint,
    FDScheme,
    PathPlan,
    combine_stencil,
    continue_log,
    det2,
    dp_fixed_batch,
    inv2,
    ode_integrate,
    quad_roots,
    stencil_multipliers,
)
from .schlesinger import SchlesingerState, ThetaGO, flow_derivative, shift_normalization

__all__ = [
    "AlphaBeta",
    "solve_alpha_beta",
    "zeta_eta_map",
    "zeta_eta_inverse",
    "PhiNode",
    "TNode",
    "Frame",
    "transport_phi",
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

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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


class Frame:
    """Base-normalized Phi, ln tau and branch charts for one B-state.

    Phi(base_x; base_t) = I and ln tau(base_t) = 0; every evaluation keeps
    branch continuity by anchoring its logs to previously computed nodes.
    """

    def __init__(
        self,
        state: SchlesingerState,
        base_x: complex,
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
        exclusion: float = 0.04,
        stencil_step_length: float = 5e-4,
    ):
        if state.norm != "B":
            raise ValueError("frames are built over traceless (B) states")
        state.validate(tol=1e-8)
        self.state = state.copy()
        self.theta = state.theta
        self.base_x = complex(base_x)
        self.rtol = rtol
        self.atol = atol
        self.exclusion = exclusion
        self.stencil_step_length = stencil_step_length
        t = state.tvec
        self.base_tnode = TNode(
            t=t.copy(),
            A=state.A.copy(),
            ln_tau=0.0 + 0.0j,
            pair_logs=np.array([np.log(t[i] - t[j]) for i, j in _PAIRS], dtype=complex),
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
        cache: bool = True,
    ) -> PhiNode:
        """Transport Phi (and the gauge logs) to x along a straight segment."""
        x = complex(x)
        base_time = tnode is None
        tnode = tnode or self.base_tnode
        anchor = anchor or (self.base_node if base_time else None)
        if anchor is None:
            raise ValueError("an anchor node is required away from the base time")
        if base_time and cache and x in self._phi_cache:
            return self._phi_cache[x]
        if x == anchor.x:
            return anchor
        t = tnode.t
        A = tnode.A
        seg = self._hop_segment(x, tnode, anchor)

        def fld(z, v, yv):
            m = np.einsum("i,iab->ab", 1.0 / (z - t), A)
            return (v * (m @ yv.reshape(2, 2))).ravel()

        traj = ode_integrate(fld, anchor.phi.ravel(), seg, rtol=self.rtol, atol=self.atol)
        node = self._hop_node(x, tnode, anchor, traj[-1][1].reshape(2, 2))
        if base_time and cache:
            self._phi_cache[x] = node
        return node

    def phi_nodes(self, hops: Sequence[tuple[complex, TNode, PhiNode]]) -> list[PhiNode]:
        """Transport Phi along every stencil hop (x, tnode, anchor) in one batched solve.

        Each hop runs from anchor.x to x at the times of its tnode, is checked
        against the x = t_i exclusion discs like :meth:`phi_node` and takes
        ``_nsteps(|x - anchor.x|)`` fixed Dormand-Prince steps; a hop that
        ends at its anchor returns the anchor. Nothing is cached.
        """
        hops = [(complex(x), tnode, anchor) for x, tnode, anchor in hops]
        moving = [k for k, (x, _tn, anchor) in enumerate(hops) if x != anchor.x]
        live = [hops[k] for k in moving]
        for hop in live:
            self._hop_segment(*hop)
        x0 = np.array([a.x for _x, _tn, a in live], dtype=complex)
        dx = np.array([x for x, _tn, _a in live], dtype=complex) - x0
        t = np.array([tn.t for _x, tn, _a in live], dtype=complex).reshape(-1, 4)
        A = np.array([tn.A for _x, tn, _a in live], dtype=complex).reshape(-1, 4, 2, 2)
        phi0 = np.array([a.phi for _x, _tn, a in live], dtype=complex).reshape(-1, 4)

        def fld(rows, s, yv):
            # the fixed-step field of phi_node, one row per hop
            z = x0[rows] + s[:, 0] * dx[rows]
            m = np.einsum("bi,biac->bac", 1.0 / (z[:, None] - t[rows]), A[rows])
            return (dx[rows, None, None] * (m @ yv.reshape(-1, 2, 2))).reshape(-1, 4)

        n_steps = [self._nsteps(abs(d)) for d in dx]
        phi1 = dp_fixed_batch(fld, phi0, n_steps).reshape(-1, 2, 2)
        out = [anchor for _x, _tn, anchor in hops]
        for k, hop, phi in zip(moving, live, phi1):
            out[k] = self._hop_node(*hop, phi)
        return out

    def _hop_segment(self, x: complex, tnode: TNode, anchor: PhiNode) -> PathPlan:
        """Straight path anchor.x -> x, rejected if it enters an x = t_i disc."""
        seg = PathPlan([anchor.x, x], self.exclusion)
        seg.validate_against(
            [AffineConstraint((1,), tnode.t[i], f"x = t{i+1}") for i in range(4)]
        )
        return seg

    def _hop_node(self, x: complex, tnode: TNode, anchor: PhiNode, phi: np.ndarray) -> PhiNode:
        """The node at x: Phi from a hop, gauge logs continued from the anchor."""
        t = tnode.t
        logs = np.array(
            [continue_log(anchor.logs[i], anchor.x - t[i], x - t[i]) for i in range(4)]
        )
        return PhiNode(x=x, t=t.copy(), phi=phi, logs=logs)

    def _nsteps(self, length: float) -> int:
        return max(6, int(math.ceil(length / self.stencil_step_length)))

    # -- time transport -----------------------------------------------------

    def shift_t(
        self,
        tnode: TNode,
        nodes: Sequence[PhiNode],
        t_new: np.ndarray,
        fixed: bool = True,
    ) -> tuple[TNode, list[PhiNode]]:
        """Move the whole bundle (A, ln tau, attached Phi nodes) to t_new."""
        t_new = np.asarray(t_new, dtype=complex)
        t_old = tnode.t
        if np.all(t_new == t_old):
            return tnode, list(nodes)
        xs = np.array([n.x for n in nodes], dtype=complex)
        n_pts = len(xs)

        def pack(A, ln_tau, phis):
            return np.concatenate([A.ravel(), [ln_tau], *[p.ravel() for p in phis]])

        def unpack(y):
            A = y[:16].reshape(4, 2, 2)
            ln_tau = y[16]
            phis = [y[17 + 4 * k : 21 + 4 * k].reshape(2, 2) for k in range(n_pts)]
            return A, ln_tau, phis

        def fld(point, velocity, y):
            t = np.asarray(point, dtype=complex)
            v = np.asarray(velocity, dtype=complex)
            A, _lt, phis = unpack(y)
            dA, dtau = flow_derivative(A, t, v)
            out = [dA.ravel(), [dtau]]
            for xk, ph in zip(xs, phis):
                coef = -v / (xk - t)
                out.append((np.einsum("i,iab->ab", coef, A) @ ph).ravel())
            return np.concatenate(out)

        seg = PathPlan([tuple(t_old), tuple(t_new)], self.exclusion / 4)
        length = float(np.sqrt(np.sum(np.abs(t_new - t_old) ** 2)))
        fixed_steps = self._nsteps(length) if fixed else None
        y0 = pack(tnode.A, tnode.ln_tau, [n.phi for n in nodes])
        traj = ode_integrate(
            fld, y0, seg, rtol=self.rtol, atol=self.atol, fixed_steps=fixed_steps
        )
        A1, lt1, phis1 = unpack(traj[-1][1])
        pair_logs = np.array(
            [
                continue_log(tnode.pair_logs[k], t_old[i] - t_old[j], t_new[i] - t_new[j])
                for k, (i, j) in enumerate(_PAIRS)
            ]
        )
        new_tnode = TNode(t=t_new.copy(), A=A1, ln_tau=complex(lt1), pair_logs=pair_logs)
        new_nodes = []
        for n, ph in zip(nodes, phis1):
            logs = np.array(
                [continue_log(n.logs[i], n.x - t_old[i], n.x - t_new[i]) for i in range(4)]
            )
            new_nodes.append(PhiNode(x=n.x, t=t_new.copy(), phi=ph, logs=logs))
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
        if abs(nx.x - ny.x) < self.exclusion:
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


def transport_phi(
    state: SchlesingerState,
    x_path: PathPlan,
    t_path: PathPlan | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Frame:
    """Build a frame based at the starts of the given paths and warm it up.

    The x-path waypoints are reachable spatial points (Phi is cached at each);
    the optional (t1, t2) path end is reached by the time transport once, as
    a smoke test of the bundle integration.
    """
    frame = Frame(state, base_x=x_path.waypoints[0], rtol=rtol, atol=atol)
    anchor = frame.base_node
    for wp in x_path.waypoints[1:]:
        anchor = frame.phi_node(wp, anchor=anchor)
    if t_path is not None:
        t_end = t_path.points[-1]
        t_new = frame.base_tnode.t.copy()
        t_new[0], t_new[1] = t_end[0], t_end[1]
        frame.shift_t(frame.base_tnode, [frame.base_node], t_new, fixed=False)
    return frame


def phi_via(frame: Frame, x: complex, t12: tuple[complex, complex], order: str = "tx") -> np.ndarray:
    """Phi(x; t) by the two transport orders ("tx": time first, "xt": space first)."""
    t_new = frame.base_tnode.t.copy()
    t_new[0], t_new[1] = t12
    if order == "tx":
        tn, (nb,) = frame.shift_t(frame.base_tnode, [frame.base_node], t_new, fixed=False)
        return frame.phi_node(x, tnode=tn, anchor=nb, cache=False).phi
    if order == "xt":
        nx = frame.phi_node(x)
        _tn, (nx2,) = frame.shift_t(frame.base_tnode, [nx], t_new, fixed=False)
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
    n1 = frame.phi_node(x1, anchor=n0, cache=False)
    tn_up, (n1_up,) = frame.shift_t(frame.base_tnode, [n1], t1v, fixed=False)
    n0_up = frame.phi_node(x0, tnode=tn_up, anchor=n1_up, cache=False)
    _tn_dn, (n0_back,) = frame.shift_t(tn_up, [n0_up], t0, fixed=False)
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

    yt: dict[int, np.ndarray] = {}
    t0 = tnode.t
    for d in t_dirs:
        hd = scheme.scaled_step(t0[d])
        vals_t = {}
        for m in mults1:
            if m == 0.0:
                vals_t[m] = y_center
                continue
            t_new = t0.copy()
            t_new[d] += m * hd
            tn, (nxm, nym) = frame.shift_t(tnode, [nx0, ny0], t_new)
            vals_t[m] = frame.Y_of(tn, nxm, nym)
        yt[d] = combine_stencil(vals_t, hd, scheme, 1)
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


def _branch_safe_step(base_h, var0, zeta, eta, t1, t2, x0, y0, which: str) -> float:
    """Clamp a stencil step by the distance to the x = y collision locus.

    V(zeta, eta, t) branches where the two preimages collide; the chart's
    smoothness radius there is roughly |x - y| / |d(x - y)/d(var)|, probed
    by one extra inversion. The step is kept at a small fraction of it.
    """
    probe = 1e-6 * (1.0 + abs(var0))
    if which == "zeta":
        x1, y1 = zeta_eta_inverse(zeta + probe, eta, t1, t2, (x0, y0))
    elif which == "eta":
        x1, y1 = zeta_eta_inverse(zeta, eta + probe, t1, t2, (x0, y0))
    elif which == "t1":
        x1, y1 = zeta_eta_inverse(zeta, eta, t1 + probe, t2, (x0, y0))
    else:
        x1, y1 = zeta_eta_inverse(zeta, eta, t1, t2 + probe, (x0, y0))
    rate = abs((x1 - y1) - (x0 - y0)) / probe
    radius = abs(x0 - y0) / (2.0 * rate + 1e-30)
    return min(base_h, radius / 50.0)


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
    hz = _branch_safe_step(scheme.scaled_step(zeta), zeta, zeta, eta, t[0], t[1], x0, y0, "zeta")
    he = _branch_safe_step(scheme.scaled_step(eta), eta, zeta, eta, t[0], t[1], x0, y0, "eta")

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
    # t1/t2 stencils at fixed (zeta, eta): the bundle moves, then the preimages
    ht = {}
    for ddir in (0, 1):
        ht[ddir] = _branch_safe_step(
            scheme.scaled_step(t[ddir]), t[ddir], zeta, eta, t[0], t[1], x0, y0,
            "t1" if ddir == 0 else "t2",
        )
        for m in mults1:
            if m == 0.0:
                continue
            t_new = t.copy()
            t_new[ddir] += m * ht[ddir]
            tn, (nxm, nym) = frame.shift_t(tnode, [nx0, ny0], t_new)
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
