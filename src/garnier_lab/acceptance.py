"""The acceptance checks, one function per criterion.

Each check runs at the documented scale and tolerance and returns a
:class:`CheckResult` whose verdict derives only from the recorded numbers.
The CLI scenarios and the test suite both call these functions, so "pytest
green" and "verify-all exit 0" are the same statement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .garnier_okamoto import extract_go, go_vector_field
from .numerics import FDScheme, PathPlan, combine_stencil, count_work, fd_derivative, stencil_multipliers
from .poly_garnier import (
    PGState,
    gen_pg,
    hamiltonian_HGar,
    hop_pg,
    integrate_pg,
    omega_to_t1,
    pg_rhs_explicit,
    pvi_reduce,
    pvi_rhs,
    random_theta_pg,
    raw_rhs_pair,
    to_schlesinger,
    bridge_lambda_from_q,
    bridge_q_from_lambda,
    mu_p_relations,
)
from .schlesinger import (
    SchlesingerState,
    ThetaGO,
    flow_derivative,
    gen_schlesinger_b,
    integrate_schlesinger,
    shift_normalization,
    tau_logderiv,
)
from .quantization import (
    LAB_FD,
    QPG_FD,
    Frame,
    ResidualReport,
    TNode,
    bpz_residual,
    kevol_residual,
    quantized_pg_residual,
    solve_alpha_beta,
    zero_curvature_loop,
    zeta_eta_inverse,
    zeta_eta_map,
)

__all__ = ["CheckResult", "CRITERIA", "conservation_drift", "star_points", "default_grid"]


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)  # ResidualReports where applicable

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "passed": bool(self.passed),
            "detail": self.detail,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "residual_reports": [r.to_json() for r in self.reports],
        }


# deterministic geometry shared by the scenarios ----------------------------

BASE_T1 = 0.3 + 0.05j
BASE_T2 = 0.62 - 0.04j
BASE_X = 0.45 + 1.1j

# (t1, t2) polyline of total length ~1 staying clear of collisions
LONG_T_PATH = [
    (BASE_T1, BASE_T2),
    (0.34 + 0.40j, 0.58 - 0.39j),
    (0.52 + 0.23j, 0.40 - 0.22j),
    (0.40 + 0.42j, 0.52 - 0.41j),
]

GOLDEN_ANGLE = 2.399963229728653


def star_points(center: complex, radius: float, n: int) -> list[complex]:
    """Deterministic spiral of n points inside the disc (no RNG needed)."""
    pts = []
    for k in range(n):
        r = radius * np.sqrt((k + 1.0) / n)
        pts.append(center + r * np.exp(1j * GOLDEN_ANGLE * k))
    return pts


def default_grid(n: int) -> list[tuple[complex, complex]]:
    xs = star_points(0.35 + 1.0j, 0.25, n)
    ys = star_points(1.15 + 1.45j, 0.25, n)
    return list(zip(xs, ys))


def _random_theta4(rng: np.random.Generator) -> list[complex]:
    out = []
    for _ in range(4):
        z = complex(rng.uniform(0.15, 0.7), rng.uniform(-0.3, 0.3))
        out.append(z if rng.uniform() < 0.5 else -z)
    return out


def _seeded_b_state(seed: int) -> SchlesingerState:
    rng = np.random.default_rng(seed)
    return gen_schlesinger_b(_random_theta4(rng), seed=seed + 1, t1=BASE_T1, t2=BASE_T2)


def _moved(frame: Frame, d: int, offsets) -> list[tuple[TNode, SchlesingerState]]:
    """The frame's base (TNode, B-state) moved by one ``Frame.shift_t`` call to t_{d+1} + m for each offset m."""
    return [(tn, SchlesingerState(tn.t[0], tn.t[1], tn.A, "B", frame.theta))
            for tn, _nodes in frame.shift_t(frame.base_tnode, [], d, offsets)]


# ---------------------------------------------------------------------------
# 1. Schlesinger conservation
# ---------------------------------------------------------------------------

def conservation_drift(s0: SchlesingerState, s1: SchlesingerState) -> float:
    """Largest change of tr A_i, det A_i and the entries of A_inf from s0 to s1."""
    d = float(np.max(np.abs(s1.a_inf - s0.a_inf)))
    for m0, m1 in zip(s0.A, s1.A):
        d = max(d, abs(np.trace(m1) - np.trace(m0)), abs(np.linalg.det(m1) - np.linalg.det(m0)))
    return d


def criterion_1(n_states: int = 20, rtol: float = 1e-12, seed0: int = 100):
    """Drift of tr A_i, det A_i and A_inf along a unit-length path.

    The metrics also carry the Taylor steps taken and their smallest radius
    ratio (``numerics.count_work``); a ratio far below 1 flags a movable pole
    near the path.
    """
    tol = 1e-9
    worst = 0.0
    path = PathPlan(LONG_T_PATH, 0.05)
    with count_work() as work:
        for k in range(n_states):
            s0 = _seeded_b_state(seed0 + k)
            worst = max(worst, conservation_drift(s0, integrate_schlesinger(s0, path, rtol=rtol)[-1][1]))
    return CheckResult(
        criterion="C1",
        passed=worst <= tol,
        detail=f"max conserved-quantity drift {worst:.3e} over {n_states} states (tol {tol:.0e})",
        metrics={"max_drift": worst, "n_states": n_states, "path_length": path.total_length, **work},
    )


# ---------------------------------------------------------------------------
# 2. zero-curvature transport
# ---------------------------------------------------------------------------

def criterion_2(n_frames: int = 5, seed0: int = 200):
    """Zero-curvature loops in (x, t_i); the metrics carry the Taylor work of the x and time legs, as in C1."""
    tol = 1e-8
    worst = 0.0
    with count_work() as work:
        for k in range(n_frames):
            frame = Frame(_seeded_b_state(seed0 + k), base_x=BASE_X)
            for t_index, dt in ((0, 0.15 + 0.1j), (1, -0.12 + 0.14j)):
                err = zero_curvature_loop(frame, (0.35 + 1.0j, 0.95 + 1.35j), t_index, dt)
                worst = max(worst, err)
    return CheckResult(
        criterion="C2",
        passed=worst <= tol,
        detail=f"max ||Phi_loop - I|| = {worst:.3e} over {n_frames} frames x2 loops (tol {tol:.0e})",
        metrics={"max_loop_defect": worst, **work},
    )


# ---------------------------------------------------------------------------
# 3. Garnier-Okamoto cross-picture
# ---------------------------------------------------------------------------

def criterion_3(n_states: int = 5, seed0: int = 300):
    tol = 1e-6
    scheme = FDScheme(order=4, step=1e-4, richardson=True)
    worst = 0.0
    with count_work() as work:
        for k in range(n_states):
            frame = Frame(_seeded_b_state(seed0 + k), base_x=BASE_X)
            g0 = extract_go(shift_normalization(frame.state, "BtoQ"))
            vf = go_vector_field(g0)
            for d in (0, 1):
                t_d = (frame.state.t1, frame.state.t2)[d]

                def lam_mu_at(tds):
                    """[lambda, mu] of the state flowed in B form, then shifted to Q, with t_{d+1} moved to each td."""
                    out = []
                    for _tn, st in _moved(frame, d, [td - t_d for td in tds]):
                        g = extract_go(shift_normalization(st, "BtoQ"))
                        lam, mu = list(g.lam), list(g.mu)
                        if abs(lam[0] - g0.lam[0]) > abs(lam[1] - g0.lam[0]):
                            lam.reverse()
                            mu.reverse()
                        out.append(np.array([lam, mu]))
                    return out

                dlam, dmu = fd_derivative(lam_mu_at, t_d, scheme)
                scale = max(np.max(np.abs(dlam)), np.max(np.abs(dmu)))
                err = max(
                    float(np.max(np.abs(dlam - vf["dlam"][d]))),
                    float(np.max(np.abs(dmu - vf["dmu"][d]))),
                ) / (scale + 1e-300)
                worst = max(worst, err)
    return CheckResult(
        criterion="C3",
        passed=worst <= tol,
        detail=f"max relative mismatch flow-vs-Hamiltonian {worst:.3e} over {n_states} states (tol {tol:.0e})",
        metrics={"max_rel_mismatch": worst, **work},
    )


# ---------------------------------------------------------------------------
# 4. Hamilton-equation identity for the polynomial system
# ---------------------------------------------------------------------------

def criterion_4(n_states: int = 200, seed0: int = 400):
    tol = 1e-8
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    worst = 0.0
    worst_pair = 0.0
    for k in range(n_states):
        th = random_theta_pg(seed0 + 2 * k)
        s = gen_pg(th, seed0 + 2 * k + 1)
        D = pg_rhs_explicit(s)

        def partial(i, name):
            return fd_derivative(
                lambda ws: [hamiltonian_HGar(i, replace(s, **{name: w})) for w in ws], getattr(s, name), scheme
            )

        ham = np.array(
            [
                [partial(i, "p1"), partial(i, "p2"), -partial(i, "q1"), -partial(i, "q2")]
                for i in (1, 2)
            ]
        )
        scale = float(np.max(np.abs(D))) + 1e-300
        worst = max(worst, float(np.max(np.abs(D - ham))) / scale)
        r_opo, r_tqo = raw_rhs_pair(s)
        worst_pair = max(worst_pair, abs(r_opo - r_tqo) / (abs(r_opo) + 1e-300))
    passed = worst <= tol and worst_pair <= 1e-14
    return CheckResult(
        criterion="C4",
        passed=passed,
        detail=(
            f"max |explicit RHS - Hamilton FD| / scale = {worst:.3e} over {n_states} states "
            f"(tol {tol:.0e}); coinciding right parts differ by {worst_pair:.1e}"
        ),
        metrics={"max_rel_mismatch": worst, "opo_tqo_gap": worst_pair},
    )


# ---------------------------------------------------------------------------
# 5. linearization of the polynomial flow
# ---------------------------------------------------------------------------

def _s_matrices_of(st: PGState, ln_u: complex):
    return to_schlesinger(st, np.exp(ln_u)).A


def criterion_5(n_traj: int = 5, seed0: int = 500):
    """Eigenvalues and deformation equations of the Schlesinger matrices of polynomial Garnier trajectories.

    The metrics also carry the Taylor steps of the trajectories and their
    smallest radius ratio (``numerics.count_work``), as in C1.
    """
    tol, eig_tol = 1e-6, 1e-10
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    worst = 0.0
    worst_eig = 0.0
    with count_work() as work:
        for k in range(n_traj):
            th = random_theta_pg(seed0 + 3 * k)
            s0 = gen_pg(th, seed0 + 3 * k + 1)
            path = PathPlan([(s0.t1, s0.t2), (s0.t1 + 0.10 + 0.16j, s0.t2 - 0.08 - 0.12j)], 0.04)
            for _s, st, lnu in integrate_pg(s0, path, samples=[0.5], with_lnu=True):
                S0 = _s_matrices_of(st, lnu)
                tvec = np.array([st.t1, st.t2, 1.0, 0.0], dtype=complex)
                # eigenvalue rigidity: spec(S_xi) = {0, theta^xi}
                thetas = (th.tht1, th.tht2, th.th1, th.th0)
                for m, target in zip(S0, thetas):
                    ev = sorted(np.linalg.eigvals(m), key=abs)
                    worst_eig = max(
                        worst_eig, abs(ev[0]), abs(ev[1] - target) / (1 + abs(target))
                    )
                # FD time-derivatives of S_xi vs the deformation equations
                for d in (0, 1):

                    def s_matrices_at(tds):
                        """S_xi of the flowed state with t_{d+1} moved to each td."""
                        hops = hop_pg(st, d, [td - tvec[d] for td in tds], 0.005)
                        return [_s_matrices_of(st2, lnu + dlnu) for st2, dlnu in hops]

                    dS = fd_derivative(s_matrices_at, tvec[d], scheme)
                    v = np.zeros(4, dtype=complex)
                    v[d] = 1.0
                    rhs, _ = flow_derivative(S0, tvec, v)
                    scale = float(np.max(np.abs(dS))) + 1e-300
                    worst = max(worst, float(np.max(np.abs(dS - rhs))) / scale)
    passed = worst <= tol and worst_eig <= eig_tol
    return CheckResult(
        criterion="C5",
        passed=passed,
        detail=(
            f"max relative deformation-equation residual of S_xi = {worst:.3e} (tol {tol:.0e}); "
            f"max eigenvalue defect {worst_eig:.3e} (tol {eig_tol:.0e})"
        ),
        metrics={"max_rel_residual": worst, "max_eig_defect": worst_eig, **work},
    )


# ---------------------------------------------------------------------------
# 6. bridge coherence
# ---------------------------------------------------------------------------

def criterion_6(n_states: int = 50, seed0: int = 600):
    tol_bridge, tol_mup, tol_round = 1e-8, 1e-7, 1e-10
    worst_bridge = worst_mup = worst_round = 0.0
    for k in range(n_states):
        th = random_theta_pg(seed0 + 2 * k)
        s = gen_pg(th, seed0 + 2 * k + 1)
        g = extract_go(to_schlesinger(s, u=1.0))
        lb = bridge_lambda_from_q(s.q1, s.q2, s.t1, s.t2)
        pair_err = min(
            abs(lb[0] - g.lam[0]) + abs(lb[1] - g.lam[1]),
            abs(lb[0] - g.lam[1]) + abs(lb[1] - g.lam[0]),
        )
        worst_bridge = max(worst_bridge, pair_err)
        qq = bridge_q_from_lambda(lb[0], lb[1], s.t1, s.t2)
        worst_round = max(worst_round, abs(qq[0] - s.q1) + abs(qq[1] - s.q2))
        r1, r2 = mu_p_relations(s, g)
        worst_mup = max(worst_mup, abs(r1), abs(r2))
    passed = worst_bridge <= tol_bridge and worst_mup <= tol_mup and worst_round <= tol_round
    return CheckResult(
        criterion="C6",
        passed=passed,
        detail=(
            f"bridge-vs-extraction {worst_bridge:.3e} (tol {tol_bridge:.0e}); momentum relations "
            f"{worst_mup:.3e} (tol {tol_mup:.0e}); roundtrip {worst_round:.3e} (tol {tol_round:.0e})"
        ),
        metrics={
            "max_bridge_mismatch": worst_bridge,
            "max_mu_p_residual": worst_mup,
            "max_roundtrip": worst_round,
        },
    )


# ---------------------------------------------------------------------------
# 7. the four equations on Y
# ---------------------------------------------------------------------------

def criterion_7(
    n_frames: int = 5,
    grid_points: int = 50,
    seed0: int = 700,
    scheme: FDScheme | None = None,
):
    tol, tol_degenerate, budget_s = 1e-5, 1e-8, 300.0
    scheme = scheme or LAB_FD
    t_start = time.time()
    grid = default_grid(grid_points)
    reports: list[ResidualReport] = []
    worst = 0.0
    with count_work() as work:
        for k in range(n_frames):
            frame = Frame(_seeded_b_state(seed0 + k), base_x=BASE_X)
            reps = bpz_residual(frame, grid, scheme)
            reports.extend(reps)
            worst = max(worst, max(r.max_rel_residual for r in reps))
        # degenerate closed-form oracle
        zth = ThetaGO(theta=(0, 0, 0, 0), k_inf=0.0)
        zstate = SchlesingerState(BASE_T1, BASE_T2, np.zeros((4, 2, 2), complex), "B", zth)
        zreps = bpz_residual(Frame(zstate, base_x=BASE_X), grid[: max(5, grid_points // 5)], scheme)
    reports.extend(zreps)
    worst_degenerate = max(r.max_rel_residual for r in zreps)
    # the wall time decides the verdict but stays out of the (deterministic) report
    in_budget = time.time() - t_start <= budget_s
    passed = worst <= tol and worst_degenerate <= tol_degenerate and in_budget
    return CheckResult(
        criterion="C7",
        passed=passed,
        detail=(
            f"max relative residual over 4 equations x {n_frames} frames x {grid_points} points "
            f"= {worst:.3e} (tol {tol:.0e}); degenerate {worst_degenerate:.3e} "
            f"(tol {tol_degenerate:.0e}); {'within' if in_budget else 'over'} the "
            f"{budget_s:.0f}s wall-time budget"
        ),
        metrics={"max_rel": worst, "max_rel_degenerate": worst_degenerate, **work},
        reports=reports,
    )


# ---------------------------------------------------------------------------
# 8. quantized Garnier-Okamoto evolution
# ---------------------------------------------------------------------------

def criterion_8(
    n_frames: int = 5,
    grid_points: int = 50,
    seed0: int = 700,
    scheme: FDScheme | None = None,
):
    """Quantized evolution residuals plus the index-swap symmetry.

    The swap gap is the difference of residuals computed on the relabeled
    frame; evaluation noise puts it at the residual floor (~1e-10), while a
    transcription asymmetry would show at the equation scale, so the
    tolerance sits between the two.
    """
    tol, swap_tol = 1e-5, 1e-8
    scheme = scheme or LAB_FD
    grid = default_grid(grid_points)
    reports = []
    worst = 0.0
    with count_work() as work:
        for k in range(n_frames):
            frame = Frame(_seeded_b_state(seed0 + k), base_x=BASE_X)
            reps = kevol_residual(frame, grid, scheme)
            reports.extend(reps)
            worst = max(worst, max(r.max_rel_residual for r in reps))
        # symmetry: the two equations exchange under (t1, theta1) <-> (t2, theta2)
        s = _seeded_b_state(seed0)
        swapped = SchlesingerState(
            t1=s.t2,
            t2=s.t1,
            A=np.array([s.A[1], s.A[0], s.A[2], s.A[3]]),
            norm="B",
            theta=ThetaGO(
                theta=(s.theta.theta[1], s.theta.theta[0], s.theta.theta[2], s.theta.theta[3]),
                k_inf=s.theta.k_inf,
            ),
        )
        sub = default_grid(5)
        r_orig = kevol_residual(Frame(s, base_x=BASE_X), sub, scheme)
        r_swap = kevol_residual(Frame(swapped, base_x=BASE_X), sub, scheme)
    swap_gap = 0.0
    for a, b in ((r_orig[0], r_swap[1]), (r_orig[1], r_swap[0])):
        for (pa, abs_a, _ra), (_pb, abs_b, _rb) in zip(a.rows, b.rows):
            swap_gap = max(swap_gap, abs(abs_a - abs_b) / (a.normalization + 1e-300))
    passed = worst <= tol and swap_gap <= swap_tol
    return CheckResult(
        criterion="C8",
        passed=passed,
        detail=(
            f"max relative residual of both evolution equations = {worst:.3e} (tol {tol:.0e}); "
            f"index-swap asymmetry {swap_gap:.3e} (tol {swap_tol:.0e})"
        ),
        metrics={"max_rel": worst, "swap_gap": swap_gap, **work},
        reports=reports,
    )


# ---------------------------------------------------------------------------
# 9. quantized polynomial Garnier
# ---------------------------------------------------------------------------

def criterion_9(
    n_frames: int = 3,
    grid_points: int = 20,
    seed0: int = 700,
    scheme: FDScheme | None = None,
):
    tol, roundtrip_tol = 1e-4, 1e-10
    scheme = scheme or QPG_FD
    xy = default_grid(grid_points)
    reports = []
    worst = 0.0
    worst_round = 0.0
    with count_work() as work:
        for k in range(n_frames):
            state = _seeded_b_state(seed0 + k)
            frame = Frame(state, base_x=BASE_X)
            ab = solve_alpha_beta(state.theta)
            grid = []
            for x, y in xy:
                zeta, eta = zeta_eta_map(x, y, state.t1, state.t2)
                xx, yy = zeta_eta_inverse(zeta, eta, state.t1, state.t2, (x, y))
                worst_round = max(worst_round, abs(xx - x) + abs(yy - y))
                grid.append((zeta, eta, (x, y)))
            reps = quantized_pg_residual(frame, grid, ab, scheme)
            reports.extend(reps)
            worst = max(worst, max(r.max_rel_residual for r in reps))
    passed = worst <= tol and worst_round <= roundtrip_tol
    return CheckResult(
        criterion="C9",
        passed=passed,
        detail=(
            f"max relative residual of the quantized polynomial pair = {worst:.3e} (tol {tol:.0e}); "
            f"inverse-map roundtrip {worst_round:.3e} (tol {roundtrip_tol:.0e})"
        ),
        metrics={"max_rel": worst, "max_roundtrip": worst_round, **work},
        reports=reports,
    )


# ---------------------------------------------------------------------------
# 10. Painleve VI reduction
# ---------------------------------------------------------------------------

def criterion_10(seed0: int = 1000, initial_state: PGState | None = None):
    omega_length, drift_tol, ham_tol = 0.5, 1e-9, 1e-6
    if initial_state is not None:
        s0 = initial_state
        th = s0.params
    else:
        th = random_theta_pg(seed0, kond=True)
        s0 = gen_pg(th, seed0 + 1, on_reduction=True)
    pv0 = pvi_reduce(s0)
    direction = np.exp(0.4j)
    omega_end = pv0.omega + omega_length * direction
    t1_end = omega_to_t1(omega_end, s0.t2)
    path = PathPlan([(s0.t1, s0.t2), (t1_end, s0.t2)], 0.02)
    samples = [0.2, 0.4, 0.6, 0.8]
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    worst_ham = 0.0
    with count_work() as work:
        traj = integrate_pg(s0, path, samples=samples)
        drift = max(abs(st.q1 + st.q2 - 1.0) for _s, st in traj)
        for _s, st in traj[1:-1]:
            pv = pvi_reduce(st, tol=1e-6)

            def q_p_at(oms):
                """[Q, P] of the flow moved along t1 to each omega = om."""
                hops = hop_pg(st, 0, [omega_to_t1(om, st.t2) - st.t1 for om in oms], 1e-7)
                return [np.array([pvm.Q, pvm.P]) for pvm in (pvi_reduce(st2, tol=1e-5) for st2, _dlnu in hops)]

            dQ, dP = fd_derivative(q_p_at, pv.omega, scheme)
            rq, rp = pvi_rhs(pv.omega, pv.Q, pv.P, th)
            scale = max(abs(dQ), abs(dP), 1.0)
            worst_ham = max(worst_ham, abs(dQ - rq) / scale, abs(dP - rp) / scale)
    passed = drift <= drift_tol and worst_ham <= ham_tol
    return CheckResult(
        criterion="C10",
        passed=passed,
        detail=(
            f"reduction-locus drift {drift:.3e} over an omega-path of length {omega_length} "
            f"(tol {drift_tol:.0e}); Hamilton-system residual {worst_ham:.3e} (tol {ham_tol:.0e})"
        ),
        metrics={"max_drift": drift, "max_hamilton_residual": worst_ham, **work},
    )


# ---------------------------------------------------------------------------
# 11. tau consistency and the gauge exponent
# ---------------------------------------------------------------------------

def criterion_11(seed0: int = 1100):
    closed_tol, s_tol = 1e-6, 1e-9
    s0 = _seeded_b_state(seed0)
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]
    frame = Frame(s0, base_x=BASE_X)
    th = s0.theta.theta
    t = s0.tvec
    worst_s = 0.0
    d_lnd = []  # d/dt_{i+1} of (d ln tau/dt1, d ln tau/dt2), from the same moves as the gauge exponent
    with count_work() as work:
        for i in (0, 1):
            h = scheme.scaled_step(t[i])
            moved = _moved(frame, i, [m * h for m in mults])
            lnd = {m: np.array(tau_logderiv(st)) for m, (_tn, st) in zip(mults, moved)}
            d_lnd.append(combine_stencil(lnd, h, scheme, 1))
            # gauge exponent: finite difference of the closed form vs the stated sum
            ds = combine_stencil({m: frame.gauge_exponent(tn) for m, (tn, _st) in zip(mults, moved)}, h, scheme, 1)
            stated = (th[i] / 2.0) * sum(th[j] / (t[i] - t[j]) for j in range(4) if j != i)
            worst_s = max(worst_s, abs(ds - stated))
    closed_gap = abs(d_lnd[1][0] - d_lnd[0][1])
    passed = closed_gap <= closed_tol and worst_s <= s_tol
    return CheckResult(
        criterion="C11",
        passed=passed,
        detail=(
            f"mixed-partial gap of ln tau {closed_gap:.3e} (tol {closed_tol:.0e}); "
            f"gauge-exponent derivative mismatch {worst_s:.3e} (tol {s_tol:.0e})"
        ),
        metrics={"tau_closedness_gap": closed_gap, "gauge_exponent_gap": worst_s, **work},
    )


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------

def criterion_12(seed: int = 42):
    import tempfile
    from pathlib import Path

    from .cli import run_scenario, write_report

    cfg = {"spec": 1, "mode": "bridge", "seed": seed, "scale": {"n_states": 5}}
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
        write_report(run_scenario(dict(cfg)), p1)
        write_report(run_scenario(dict(cfg)), p2)
        identical = p1.read_bytes() == p2.read_bytes()
        size = p1.stat().st_size
    return CheckResult(
        criterion="C12",
        passed=identical,
        detail=f"two runs with seed {seed} produced {'byte-identical' if identical else 'DIFFERING'} reports ({size} bytes)",
        metrics={"identical": float(identical)},
    )


CRITERIA = {
    "C1": criterion_1,
    "C2": criterion_2,
    "C3": criterion_3,
    "C4": criterion_4,
    "C5": criterion_5,
    "C6": criterion_6,
    "C7": criterion_7,
    "C8": criterion_8,
    "C9": criterion_9,
    "C10": criterion_10,
    "C11": criterion_11,
    "C12": criterion_12,
}

