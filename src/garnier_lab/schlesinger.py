"""The m = 4, 2x2 Schlesinger system with t3 = 1, t4 = 0 held fixed.

Residue matrices come in two normalizations: traceless "B" matrices with
det B_i = -theta_i^2/4, and shifted "Q" matrices Q_i = B_i + theta_i/2 with
eigenvalues {0, theta_i}. The deformation flow, the conserved quantities,
the connection matrix A(x) and the log-derivative of the tau-function all
live here, together with a seeded generator of admissible initial data.

The flow has two bodies. :func:`_flow_dA` is its right-hand side, read by
:func:`flow_derivative`, :func:`schlesinger_rhs` and :func:`tau_logderiv`.
:func:`_flow_taylor` is its Taylor-coefficient recurrence on a straight
chord in the four times, optionally with ln tau and Phi at attached points:
:func:`integrate_schlesinger` walks a path on it with
``numerics.taylor_integrate``, and ``quantization.Frame`` moves its bundle on
it, so no move of the flow in time runs on Dormand-Prince steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InfeasibleTheta, PoleEvaluation, TimeCollision
from .numerics import DEFAULT_RTOL, TAYLOR_ORDER, AffineConstraint, PathPlan, SeriesStop, taylor_integrate
from .numerics import ode_integrate  # noqa: F401 - unused here; perfbench's tracer wraps every module's copy

__all__ = [
    "ThetaGO",
    "SchlesingerState",
    "schlesinger_rhs",
    "flow_derivative",
    "tau_logderiv",
    "integrate_schlesinger",
    "shift_normalization",
    "connection_matrix",
    "gen_schlesinger_b",
    "time_constraints",
    "check_time_path",
]

T3 = 1.0
T4 = 0.0


@dataclass(frozen=True)
class ThetaGO:
    """Local exponents (theta_1..theta_4) plus the data at infinity.

    k_inf is the eigenvalue split of the traceless residue sum: in the
    diagonalizable case B_inf = diag(k_inf/2, -k_inf/2); in the nilpotent
    Jordan case k_inf = 0 and delta_inf = 0.
    """

    theta: tuple[complex, complex, complex, complex]
    k_inf: complex
    jordan_diagonal: bool = True

    @property
    def theta_inf(self) -> complex:
        return self.k_inf + 1.0

    @property
    def sum_theta(self) -> complex:
        return sum(self.theta)

    @property
    def chi(self) -> complex:
        return -0.5 * (self.sum_theta + self.theta_inf - 1.0)

    @cached_property  # read on every Garnier-Okamoto field call
    def kappa(self) -> complex:
        return 0.25 * ((self.sum_theta - 1.0) ** 2 - self.theta_inf**2)

    @property
    def delta(self) -> tuple[complex, ...]:
        return tuple(th * th / 4.0 for th in self.theta)

    @property
    def delta_inf(self) -> complex:
        return self.k_inf**2 / 4.0 if self.jordan_diagonal else 0.0

    @property
    def bpz_lambda(self) -> complex:
        return self.delta_inf - (1.0 + self.sum_theta / 2.0) ** 2

    def to_json(self) -> dict:
        return {
            "theta1": _c(self.theta[0]),
            "theta2": _c(self.theta[1]),
            "theta3": _c(self.theta[2]),
            "theta4": _c(self.theta[3]),
            "k_inf": _c(self.k_inf),
            "jordan_diagonal": self.jordan_diagonal,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ThetaGO":
        th = tuple(_uc(d[f"theta{i}"]) for i in range(1, 5))
        return cls(theta=th, k_inf=_uc(d["k_inf"]), jordan_diagonal=bool(d.get("jordan_diagonal", True)))


def _c(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _uc(pair) -> complex:
    return complex(pair[0], pair[1])


@dataclass
class SchlesingerState:
    """Times (t1, t2) and the four residue matrices in one normalization."""

    t1: complex
    t2: complex
    A: np.ndarray  # shape (4, 2, 2) complex, ordered by poles (t1, t2, 1, 0)
    norm: str  # "B" | "Q"
    theta: ThetaGO

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex).reshape(4, 2, 2)
        if self.norm not in ("B", "Q"):
            raise ValueError("norm must be 'B' or 'Q'")
        if not np.all(np.isfinite(self.A.view(float))):
            raise ValueError("residue matrices must be finite")

    @property
    def tvec(self) -> np.ndarray:
        return np.array([self.t1, self.t2, T3, T4], dtype=complex)

    @property
    def a_inf(self) -> np.ndarray:
        return self.A.sum(axis=0)

    def check_times(self) -> None:
        t = self.tvec
        for i in range(4):
            for j in range(i + 1, 4):
                if abs(t[i] - t[j]) < 1e-12:
                    raise TimeCollision(f"t{i+1} and t{j+1} coincide")

    def validate(self, tol: float = 1e-8) -> None:
        """Check the normalization invariants to the given tolerance."""
        self.check_times()
        for i, m in enumerate(self.A):
            th = self.theta.theta[i]
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if self.norm == "B":
                if abs(tr) > tol:
                    raise ValueError(f"B_{i+1} is not traceless (tr = {tr:.3e})")
                if abs(det + th * th / 4.0) > tol * (1 + abs(th) ** 2):
                    raise ValueError(f"det B_{i+1} != -theta^2/4")
            else:
                ev = sorted(np.linalg.eigvals(m), key=lambda z: abs(z))
                if abs(ev[0]) > tol * (1 + abs(th)) or abs(ev[1] - th) > tol * (1 + abs(th)):
                    raise ValueError(f"spec(Q_{i+1}) != {{0, theta_{i+1}}}")

    def copy(self) -> "SchlesingerState":
        return replace(self, A=self.A.copy())

    def to_json(self) -> dict:
        return {
            "t1": _c(self.t1),
            "t2": _c(self.t2),
            "matrices": [[_c(m[0, 0]), _c(m[0, 1]), _c(m[1, 0]), _c(m[1, 1])] for m in self.A],
            "norm": self.norm,
            "theta": self.theta.to_json(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "SchlesingerState":
        mats = np.array(
            [[[_uc(row[0]), _uc(row[1])], [_uc(row[2]), _uc(row[3])]] for row in d["matrices"]],
            dtype=complex,
        )
        return cls(
            t1=_uc(d["t1"]),
            t2=_uc(d["t2"]),
            A=mats,
            norm=d["norm"],
            theta=ThetaGO.from_json(d["theta"]),
        )


# ---------------------------------------------------------------------------
# deformation flow
# ---------------------------------------------------------------------------

# off-diagonal mask and the identity that keeps the diagonal of t_i - t_j nonzero
_EYE4 = np.eye(4)
_OFF4 = 1.0 - _EYE4


def _flow_dA(A: np.ndarray, tvec: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dA/ds of :func:`flow_derivative`, plus the P_ij = A_i A_j and weights W its ln tau term reuses."""
    P = np.einsum("...iab,...jbc->...ijac", A, A)
    C = P - np.swapaxes(P, -3, -4)
    W = _OFF4 / (tvec[..., :, None] - tvec[..., None, :] + _EYE4)
    G = (v[..., :, None] - v[..., None, :]) * W
    return np.einsum("...ij,...ijab->...jab", G, C), P, W


def flow_derivative(A: np.ndarray, tvec: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, complex | np.ndarray]:
    """Directional derivative of (A_1..A_4, ln tau) along dt/ds = v.

    dA_j/ds = sum_{i != j} (v_i - v_j) [A_i, A_j] / (t_i - t_j) and
    dln(tau)/ds = sum_{i != j} v_i tr(A_i A_j) / (t_i - t_j); the tau term
    assumes traceless (B) normalization but is returned unconditionally.
    The dA part is :func:`_flow_dA`, which :func:`schlesinger_rhs` uses alone.

    Any leading batch shape is allowed: A of shape (..., 4, 2, 2) with tvec
    and v of shape (..., 4) give dA of A's shape and dln(tau)/ds of shape
    (...); every row is an independent state and repeats the arithmetic of
    an unbatched call on that row.
    """
    dA, P, W = _flow_dA(A, tvec, v)
    T = np.einsum("...ijaa->...ij", P)
    dtau = np.einsum("...i,...ij,...ij->...", v, W, T)
    return dA, dtau


def schlesinger_rhs(state: SchlesingerState) -> tuple[np.ndarray, np.ndarray]:
    """(dA/dt1, dA/dt2), each of shape (4, 2, 2).

    By commutator antisymmetry each returned family sums to the zero matrix
    exactly as computed.
    """
    state.check_times()
    t = state.tvec
    e1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    return _flow_dA(state.A, t, e1)[0], _flow_dA(state.A, t, e2)[0]


def tau_logderiv(state: SchlesingerState) -> tuple[complex, complex]:
    """(d ln tau / dt1, d ln tau / dt2) for a B-normalized state: the ln tau part of :func:`flow_derivative`."""
    if state.norm != "B":
        raise ValueError("tau log-derivative is defined on the traceless (B) normalization")
    state.check_times()
    return tuple(complex(flow_derivative(state.A, state.tvec, e)[1]) for e in _EYE4[:2])


def time_constraints() -> list[AffineConstraint]:
    """Singular sets of the (t1, t2) flow: collisions and the fixed points."""
    return [
        AffineConstraint((1, -1), 0.0, "t1 = t2"),
        AffineConstraint((1, 0), T3, "t1 = 1"),
        AffineConstraint((1, 0), T4, "t1 = 0"),
        AffineConstraint((0, 1), T3, "t2 = 1"),
        AffineConstraint((0, 1), T4, "t2 = 0"),
    ]


def check_time_path(path: PathPlan, t1: complex, t2: complex) -> None:
    """Reject a flow path that is not in (t1, t2), does not start at the state's (t1, t2) or nears a singular set."""
    if path.dim != 2:
        raise ValueError("expected a (t1, t2) path")
    p0 = path.points[0]
    if abs(p0[0] - t1) + abs(p0[1] - t2) > 1e-12:
        raise ValueError("path must start at the state's (t1, t2)")
    path.validate_against(time_constraints())


def _flow_taylor(point, velocity, y: np.ndarray, xs=None, reach=None) -> tuple[np.ndarray, float]:
    """Taylor coefficients in s of the flow through y at the times ``point`` along dt/ds = ``velocity`` (4-vectors).

    On the chord t(s) = t + s v the weight of [A_i, A_j] in dA_j/ds is e_ij/(d_ij + s e_ij) =
    sum_k r_ij (-r_ij)^k s^k, e_ij = v_i - v_j, d_ij = t_i - t_j, r_ij = e_ij/d_ij, so (n + 1) A_j,n+1
    = sum_i D_ij,n, D_ij,n = r_ij ([A_i, A_j]_n - D_ij,n-1), with [A_i, A_j]_m the Cauchy product
    sum_l [A_i,l, A_j,m-l]. With the positions ``xs`` of attached nodes, y is the bundle of
    ``quantization.Frame`` (A, ln tau, Phi at each x_k), whose rows the same loop forms from the
    products A_i A_j: (n + 1) ln tau_n+1 = sum_ij E_ij,n, E_ij,n = (v_i/d_ij) tr(A_i A_j)_n - r_ij
    E_ij,n-1; with rho_ik = v_i/(x_k - t_i), H_ik,n = rho_ik (H_ik,n-1 - A_i,n) is the series of A_i's
    weight in dPhi_k/ds, and (n + 1) Phi_k,n+1 = sum_l sum_i H_ik,l Phi_k,n-l. With ``reach`` (how far
    in s the series is summed) the orders stop where a ``numerics.SeriesStop`` finds it converged.
    Returns the (k + 1, len(y)) coefficients, k = TAYLOR_ORDER or that order, and the radius, min
    |d_ij/e_ij| and |(x_k - t_i)/v_i|.
    """
    p = k = TAYLOR_ORDER
    t = np.array(point, dtype=complex)
    v = np.array(velocity, dtype=complex)
    w = _OFF4 / (t[:, None] - t[None, :] + _EYE4)
    r = (v[:, None] - v[None, :]) * w
    rr = r[:, None, :, None]
    # every product A_i,l A_j,n-l of one order as one 8 x 2(n+1) by 2(n+1) x 8 einsum (no BLAS)
    X = np.empty((4, 2, p + 1, 2), dtype=complex)  # [i, a, l, b] = A_i,l[a, b]
    Y = np.empty((p + 1, 2, 4, 2), dtype=complex)  # [p - l, b, j, c] = A_j,l[b, c]
    A = y[:16].reshape(4, 2, 2)
    X[:, :, 0] = A
    Y[p] = A.transpose(1, 0, 2)
    X2, Y2 = X.reshape(8, 2 * p + 2), Y.reshape(2 * p + 2, 8)
    D = np.zeros((4, 2, 4, 2), dtype=complex)  # [i, a, j, c]
    rate = float(np.max(np.abs(r)))
    if xs is not None:  # Hi[k, i, a, b] = H_ik,n, H[n, k] = sum_i H_ik,n, Phi[n, k] = Phi_k,n
        rho = (v / (np.asarray(xs, dtype=complex)[:, None] - t))[:, :, None, None]  # [k, i]
        wv, E, Hi = v[:, None] * w, 0.0, 0.0
        rate = max(rate, float(np.max(np.abs(rho), initial=0.0)))
        tau, H, Phi = np.empty(p + 1, dtype=complex), *np.empty((2, p + 1, len(rho), 2, 2), dtype=complex)
        tau[0], Phi[0] = y[16], y[17:].reshape(-1, 2, 2)
    stop = SeriesStop(y, reach)

    def order(j):  # c_j: A, then ln tau and the Phi rows
        return Y[p - j] if xs is None else np.concatenate((Y[p - j].ravel(), tau[j : j + 1], Phi[j].ravel()))

    for n in range(p):
        P = np.einsum("xk,ky->xy", X2[:, : 2 * n + 2], Y2[2 * (p - n) :]).reshape(4, 2, 4, 2)
        D = rr * (P - P.transpose(2, 1, 0, 3) - D)
        Y[p - n - 1] = D.sum(axis=0) / (n + 1)
        if xs is not None:
            E = wv * np.einsum("iaja->ij", P) - r * E
            tau[n + 1] = E.sum() / (n + 1)
            Hi = rho * (Hi - X[:, :, n])
            H[n] = Hi.sum(axis=1)
            Phi[n + 1] = np.einsum("lkab,lkbc->kac", H[: n + 1], Phi[n::-1]) / (n + 1)
        X[:, :, n + 1] = Y[p - n - 1].transpose(1, 0, 2)
        if n + 1 == stop.next and stop(order, n + 1):
            k = n + 1
            break
    c = X[:, :, : k + 1].transpose(2, 0, 1, 3).reshape(k + 1, 16)
    if xs is not None:
        c = np.concatenate([c, tau[: k + 1, None], Phi[: k + 1].reshape(k + 1, -1)], axis=1)
    return c, 1.0 / rate


def integrate_schlesinger(
    state: SchlesingerState,
    path: PathPlan,
    samples: Sequence[float] | None = None,
    rtol: float = DEFAULT_RTOL,
) -> list[tuple[float, SchlesingerState]]:
    """Integrate the deformation flow along a (t1, t2) path, in Taylor steps of :func:`_flow_taylor`.

    The path's waypoints are (t1, t2) pairs; it must start at the state's
    times and respect the declared singular sets. ``rtol``, in (0, 1), bounds
    each step's truncation error by 1e-14 + rtol * max|A| (see
    ``numerics.taylor_integrate``). Returns [(s, state)] at s = 0, each
    sample and s = 1.
    """
    check_time_path(path, state.t1, state.t2)
    coeffs = lambda pt, vel, y: _flow_taylor((*pt, T3, T4), (*vel, 0.0, 0.0), y)  # noqa: E731
    traj = taylor_integrate(coeffs, state.A.ravel(), path, rtol=rtol, samples=samples)
    out = []
    for s, y in traj:
        t1, t2 = path.point(s)
        out.append((s, SchlesingerState(t1, t2, y.reshape(4, 2, 2), state.norm, state.theta)))
    return out


# ---------------------------------------------------------------------------
# normalization shift, connection matrix
# ---------------------------------------------------------------------------

def shift_normalization(state: SchlesingerState, direction: str) -> SchlesingerState:
    """Apply Q_i = B_i + theta_i/2 (BtoQ) or its inverse (QtoB)."""
    if direction not in ("BtoQ", "QtoB"):
        raise ValueError("direction must be 'BtoQ' or 'QtoB'")
    if direction == "BtoQ" and state.norm != "B":
        raise ValueError("state is not B-normalized")
    if direction == "QtoB" and state.norm != "Q":
        raise ValueError("state is not Q-normalized")
    sign = 1.0 if direction == "BtoQ" else -1.0
    eye = np.eye(2, dtype=complex)
    A = np.array([m + sign * (th / 2.0) * eye for m, th in zip(state.A, state.theta.theta)])
    return SchlesingerState(state.t1, state.t2, A, "Q" if direction == "BtoQ" else "B", state.theta)


def connection_matrix(state: SchlesingerState, x: complex, min_dist: float = 1e-10) -> np.ndarray:
    """A(x) = sum_i A_i / (x - t_i)."""
    t = state.tvec
    dx = x - t
    if np.min(np.abs(dx)) < min_dist:
        raise PoleEvaluation(f"x = {x} sits on a pole of the connection")
    return np.einsum("i,iab->ab", 1.0 / dx, state.A)


# ---------------------------------------------------------------------------
# seeded initial data
# ---------------------------------------------------------------------------

def _random_traceless(rng: np.random.Generator, theta: complex) -> np.ndarray:
    """Traceless 2x2 with det = -theta^2/4: pick a, b, solve for c."""
    for _ in range(64):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(b) < 0.2:
            continue
        c = (theta * theta / 4.0 - a * a) / b
        if abs(c) < 8.0:
            return np.array([[a, b], [c, -a]], dtype=complex)
    raise InfeasibleTheta(f"could not draw a bounded residue for theta = {theta}")


def gen_schlesinger_b(
    theta: Sequence[complex],
    seed: int,
    t1: complex = 0.3 + 0.05j,
    t2: complex = 0.62 - 0.04j,
) -> SchlesingerState:
    """Seeded random traceless B-state with diagonal(ized) B_inf.

    Draws traceless B_i with det = -theta_i^2/4, then conjugates the whole
    family by the eigenbasis of B_inf so that B_inf = diag(k_inf/2, -k_inf/2)
    with k_inf read off the draw. Re-draws (deterministically) while the
    eigenvalues of B_inf are too close to collision.
    """
    if len(theta) != 4:
        raise ValueError("need exactly four exponents")
    rng = np.random.default_rng(seed)
    for _attempt in range(256):
        B = np.array([_random_traceless(rng, th) for th in theta])
        b_inf = B.sum(axis=0)
        ev, vec = np.linalg.eig(b_inf)
        if abs(ev[0] - ev[1]) < 0.05:
            continue
        # deterministic eigenvalue order: larger (Re, Im) first
        order = sorted(range(2), key=lambda k: (ev[k].real, ev[k].imag), reverse=True)
        ev = ev[order]
        vec = vec[:, order]
        g_inv = np.linalg.inv(vec)
        B = np.einsum("ab,ibc,cd->iad", g_inv, B, vec)
        k_inf = ev[0] - ev[1]
        tgo = ThetaGO(theta=tuple(complex(th) for th in theta), k_inf=complex(k_inf))
        state = SchlesingerState(t1, t2, B, "B", tgo)
        # reject draws that violate the genericity conditions downstream
        q = shift_normalization(state, "BtoQ")
        x_lead = complex(np.einsum("i,i->", q.tvec, q.A[:, 0, 1]))
        if abs(x_lead) < 0.05:
            continue
        return state
    raise InfeasibleTheta("generator failed to produce a generic state")
