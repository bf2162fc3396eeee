"""Wavefunction transport, gauges, branch handling and the PDE residuals."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from garnier_lab.errors import (
    BranchAmbiguity,
    DiagonalCollision,
    NearSingularPhi,
    NotOnReduction,
    PathViolation,
    PoleEvaluation,
    ReductionLocus,
    SingularityApproach,
    TimeCollision,
)
from garnier_lab.numerics import (
    FDScheme,
    PathPlan,
    combine_stencil,
    count_work,
    det2,
    ode_integrate,
    stencil_multipliers,
)
from garnier_lab import quantization
from garnier_lab.acceptance import _seeded_b_state, default_grid
from garnier_lab.poly_garnier import bridge_lambda_from_q
from garnier_lab.schlesinger import (
    SchlesingerState,
    ThetaGO,
    flow_derivative,
    gen_schlesinger_b,
    integrate_schlesinger,
    shift_normalization,
)
from garnier_lab.quantization import (
    LAB_FD,
    QPG_FD,
    AlphaBeta,
    Frame,
    PhiNode,
    ResidualReport,
    TNode,
    _v_derivs,
    _y_derivs,
    bpz_residual,
    garx_residual,
    kevol_residual,
    phi_via,
    quantized_pg_residual,
    solve_alpha_beta,
    write_residual_csv,
    zero_curvature_loop,
    zeta_eta_inverse,
    zeta_eta_map,
)

BASE_X = 0.45 + 1.1j
THETA4 = [0.31 - 0.12j, 0.47 + 0.08j, -0.29 + 0.21j, 0.55 - 0.03j]


@pytest.fixture(scope="module")
def frame(b_state):
    return Frame(b_state, base_x=BASE_X)


@pytest.fixture(scope="module")
def zero_frame():
    th = ThetaGO(theta=(0, 0, 0, 0), k_inf=0.0)
    s = SchlesingerState(0.3 + 0.05j, 0.62 - 0.04j, np.zeros((4, 2, 2), complex), "B", th)
    return Frame(s, base_x=BASE_X)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_zero_residues_is_identity(zero_frame):
    node = zero_frame.phi_node(1.3 + 1.5j)
    assert np.max(np.abs(node.phi - np.eye(2))) == 0.0


def test_transport_zero_curvature_loops(frame):
    for t_index, dt in ((0, 0.15 + 0.1j), (1, -0.12 + 0.14j)):
        assert zero_curvature_loop(frame, (0.35 + 1.0j, 0.95 + 1.35j), t_index, dt) < 1e-8


def test_transport_path_order_independence(frame):
    t12 = (frame.state.t1 + 0.1 + 0.08j, frame.state.t2 - 0.06 - 0.07j)
    x = 0.8 + 1.4j
    a = phi_via(frame, x, t12, order="tx")
    b = phi_via(frame, x, t12, order="xt")
    assert np.max(np.abs(a - b)) < 1e-8


def test_transport_det_trace_identity(frame):
    # traceless residues: det Phi must stay 1 along x
    node = frame.phi_node(1.2 + 1.6j)
    assert frame.det_phi_residual(node) < 1e-9


# ---------------------------------------------------------------------------
# two-point function
# ---------------------------------------------------------------------------

def test_m_at_coincident_points_is_tau(frame):
    n = frame.phi_node(0.9 + 1.4j)
    tnode = frame.base_tnode
    m = frame.M_of(tnode, n, n)
    assert np.max(np.abs(m - np.exp(tnode.ln_tau) * np.eye(2))) < 1e-14


def test_m_cocycle(frame):
    tnode = frame.base_tnode
    nx = frame.phi_node(0.3 + 1.0j)
    ny = frame.phi_node(0.9 + 1.5j)
    nz = frame.phi_node(1.3 + 1.2j)
    tau = np.exp(tnode.ln_tau)
    lhs = frame.M_of(tnode, nx, ny) @ frame.M_of(tnode, ny, nz)
    rhs = tau * frame.M_of(tnode, nx, nz)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * abs(tau) ** 2


def test_m_matches_linear_solve_oracle(frame):
    tnode = frame.base_tnode
    nx = frame.phi_node(0.3 + 1.0j)
    ny = frame.phi_node(0.9 + 1.5j)
    got = frame.M_of(tnode, nx, ny)
    want = np.exp(tnode.ln_tau) * np.linalg.solve(nx.phi, ny.phi)
    assert np.max(np.abs(got - want)) < 1e-12


def test_y_gauge_reduces_to_m_over_diff(zero_frame):
    # all theta = 0 and S = 0: Y = M / (x - y)
    tnode = zero_frame.base_tnode
    nx = zero_frame.phi_node(0.3 + 1.0j)
    ny = zero_frame.phi_node(0.9 + 1.5j)
    y = zero_frame.Y_of(tnode, nx, ny)
    m = zero_frame.M_of(tnode, nx, ny)
    assert np.max(np.abs(y - m / (nx.x - ny.x))) < 1e-14


def test_y_scales_linearly_with_m(frame):
    import dataclasses

    tnode = frame.base_tnode
    nx = frame.phi_node(0.3 + 1.0j)
    ny = frame.phi_node(0.9 + 1.5j)
    y0 = frame.Y_of(tnode, nx, ny)
    c = 1.7 - 0.4j
    scaled = dataclasses.replace(tnode, ln_tau=tnode.ln_tau + np.log(c))
    y1 = frame.Y_of(scaled, nx, ny)
    assert np.max(np.abs(y1 - c * y0)) < 1e-12 * abs(c)


def test_y_diagonal_collision_guard(frame):
    tnode = frame.base_tnode
    nx = frame.phi_node(0.9 + 1.4j)
    ny = frame.phi_node(0.9 + 1.4j + 1e-4)
    with pytest.raises(DiagonalCollision):
        frame.Y_of(tnode, nx, ny)


def test_gauge_exponent_derivative_matches_stated_sum(frame):
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]
    th = frame.theta.theta
    t = frame.base_tnode.t
    h = scheme.scaled_step(t[0])
    moved = frame.shift_t(frame.base_tnode, [], 0, [m * h for m in mults])
    vals = {m: frame.gauge_exponent(tn) for m, (tn, _) in zip(mults, moved)}
    ds = combine_stencil(vals, h, scheme, 1)
    want = (th[0] / 2.0) * sum(th[j] / (t[0] - t[j]) for j in (1, 2, 3))
    assert abs(ds - want) < 1e-9


# ---------------------------------------------------------------------------
# residuals of the Y equations
# ---------------------------------------------------------------------------

GRID = [(0.3 + 1.0j, 1.1 + 1.4j), (0.2 + 0.9j, 1.0 + 1.5j)]


def test_bpz_degenerate_oracle(zero_frame):
    reps = bpz_residual(zero_frame, GRID)
    for r in reps:
        assert r.max_rel_residual < 1e-8, r.equation_id


def test_bpz_generic(frame):
    reps = bpz_residual(frame, GRID)
    assert {r.equation_id for r in reps} == {"bpz_x", "bpz_y", "odn_sum", "odn_euler"}
    for r in reps:
        assert r.max_rel_residual < 1e-5, r.equation_id


def test_bpz_lambda_convention():
    th = ThetaGO(theta=(0, 0, 0, 0), k_inf=0.8)
    assert abs(th.bpz_lambda - (th.delta_inf - 1.0)) < 1e-15


def test_kevol_generic(frame):
    reps = kevol_residual(frame, GRID)
    for r in reps:
        assert r.max_rel_residual < 1e-5, r.equation_id


def test_kevol_consistent_with_bpz_solve(frame):
    # solving the four Y-equations for the time derivatives must reproduce
    # the right-hand side of the first evolution equation
    x, y = GRID[0]
    (d,) = _y_derivs(frame, [(x, y)], LAB_FD, t_dirs=(0, 1, 2, 3))
    t = d.t
    th = frame.theta.theta
    lam = frame.theta.bpz_lambda
    rows = np.array(
        [
            [1.0 / (x - t[i]) for i in range(4)],
            [1.0 / (y - t[i]) for i in range(4)],
            [1.0, 1.0, 1.0, 1.0],
            list(t),
        ],
        dtype=complex,
    )
    rhs = [
        d.Yxx + (d.Yx - d.Yy) / (x - y) + sum(th[i] / (x - t[i]) for i in range(4)) * d.Yx,
        d.Yyy + (d.Yx - d.Yy) / (x - y) + sum(th[i] / (y - t[i]) for i in range(4)) * d.Yy,
        -(d.Yx + d.Yy),
        lam * d.Y - x * d.Yx - y * d.Yy,
    ]
    yt = np.linalg.solve(rows, np.array([r.ravel() for r in rhs]))
    for i in range(4):
        got = yt[i].reshape(2, 2)
        scale = np.max(np.abs(got)) + 1e-300
        assert np.max(np.abs(got - d.Yt[i])) / scale < 1e-6, f"t{i+1}"


def test_kevol_index_swap_symmetry(b_state):
    s = b_state
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
    r1 = kevol_residual(Frame(s, base_x=BASE_X), GRID[:1])
    r2 = kevol_residual(Frame(swapped, base_x=BASE_X), GRID[:1])
    # equation for t1 on the swapped frame is the equation for t2 on the
    # original; agreement is at the evaluation-noise floor, far below the
    # equation scale where a transcription asymmetry would show
    for a, b in ((r1[0], r2[1]), (r1[1], r2[0])):
        assert abs(a.rows[0][1] - b.rows[0][1]) / (a.normalization + 1e-300) < 1e-8


# ---------------------------------------------------------------------------
# space-variable change and prefactor exponents
# ---------------------------------------------------------------------------

def test_map_zeros():
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    zeta, _ = zeta_eta_map(t1, 0.8 + 0.9j, t1, t2)
    assert abs(zeta) < 1e-15
    _, eta = zeta_eta_map(0.8 + 0.9j, t2, t1, t2)
    assert abs(eta) < 1e-15


def test_map_symmetry():
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    a = zeta_eta_map(0.3 + 1.0j, 1.1 + 1.4j, t1, t2)
    b = zeta_eta_map(1.1 + 1.4j, 0.3 + 1.0j, t1, t2)
    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) < 1e-14


def test_map_pole_guard():
    with pytest.raises(PoleEvaluation):
        zeta_eta_map(1.0, 0.5j, 0.3, 0.7)


def test_inverse_roundtrip_with_hint():
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    x, y = 0.3 + 1.0j, 1.1 + 1.4j
    zeta, eta = zeta_eta_map(x, y, t1, t2)
    xx, yy = zeta_eta_inverse(zeta, eta, t1, t2, (x, y))
    assert abs(xx - x) + abs(yy - y) < 1e-12


def test_inverse_zeta_zero_puts_x_at_t1():
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    y0 = 1.1 + 1.4j
    _, eta = zeta_eta_map(t1, y0, t1, t2)
    x, y = zeta_eta_inverse(0.0, eta, t1, t2, (t1 + 0.01, y0))
    assert abs(x - t1) < 1e-12


def test_inverse_perturbation_continuity():
    # O(delta) movement under O(delta) input shifts, bounded via the map's
    # local Jacobian norm
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    x, y = 0.3 + 1.0j, 1.1 + 1.4j
    zeta, eta = zeta_eta_map(x, y, t1, t2)
    delta = 1e-6
    probe = 1e-8
    xp, yp = zeta_eta_inverse(zeta + probe, eta, t1, t2, (x, y))
    jac_col = (abs(xp - x) + abs(yp - y)) / probe
    x1, y1 = zeta_eta_inverse(zeta + delta, eta, t1, t2, (x, y))
    assert abs(x1 - x) + abs(y1 - y) < 3.0 * jac_col * delta


def test_inverse_branch_ambiguity():
    # symmetric hint cannot break the x <-> y tie
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    x, y = 0.3 + 1.0j, 1.1 + 1.4j
    zeta, eta = zeta_eta_map(x, y, t1, t2)
    mid = 0.5 * (x + y)
    with pytest.raises(BranchAmbiguity):
        zeta_eta_inverse(zeta, eta, t1, t2, (mid, mid))


def test_map_at_equal_times_raises_time_collision():
    # the chart is the bridge at (x, y), so t1 = t2 is its TimeCollision (exit 3)
    with pytest.raises(TimeCollision):
        zeta_eta_map(0.3 + 1.0j, 1.1 + 1.4j, 0.3 + 0.05j, 0.3 + 0.05j)


def test_inverse_on_the_reduction_locus_raises_reduction_locus():
    # zeta + eta = 1 is the bridge's reduction locus, where the map has no inverse (exit 3)
    with pytest.raises(ReductionLocus):
        zeta_eta_inverse(0.4 + 0.1j, 0.6 - 0.1j, 0.3 + 0.05j, 0.62 - 0.04j, (0.3 + 1.0j, 1.1 + 1.4j))


def test_inverse_is_the_bridge_pair_ordered_by_the_hint(rng):
    t1, t2 = 0.3 + 0.05j, 0.62 - 0.04j
    for _ in range(50):
        x, y = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(0.2, 1.5, 2)
        zeta, eta = zeta_eta_map(x, y, t1, t2)
        pair = bridge_lambda_from_q(zeta, eta, t1, t2)
        got = zeta_eta_inverse(zeta, eta, t1, t2, (x, y))
        assert got in (pair, pair[::-1])
        assert zeta_eta_inverse(zeta, eta, t1, t2, (y, x)) == got[::-1]


def test_alpha_beta_branches():
    th = ThetaGO(theta=THETA4, k_inf=0.37 - 0.11j)
    small = solve_alpha_beta(th, "alpha0", "betaSmall")
    large = solve_alpha_beta(th, "alpha0", "betaLarge")
    assert abs(small.beta) <= abs(large.beta)
    neg = solve_alpha_beta(th, "alphaNeg", "betaSmall")
    assert abs(neg.alpha + th.theta[3]) < 1e-15
    th4zero = ThetaGO(theta=(0.2, 0.3, 0.1, 0.0), k_inf=0.2)
    for branch in ("alpha0", "alphaNeg"):
        assert solve_alpha_beta(th4zero, branch).alpha == 0.0


def test_alpha_beta_constraint_back_substitution():
    th = ThetaGO(theta=THETA4, k_inf=0.37 - 0.11j)
    for ab_name in ("alpha0", "alphaNeg"):
        for bb in ("betaSmall", "betaLarge"):
            ab = solve_alpha_beta(th, ab_name, bb)
            a, b = ab.alpha, ab.beta
            t1, t2, t3, t4 = th.theta
            rel = 2 * a * b + (t3 + 1) * a + (t4 + 1) * b + b * (b + t3) + (t1 + t2 + 1) * (a + b)
            assert abs(rel - th.bpz_lambda) < 1e-12
            assert abs(a * (a + t4)) < 1e-15


def test_alpha_beta_all_zero_thetas_double_root():
    th = ThetaGO(theta=(0, 0, 0, 0), k_inf=0.0)
    ab = solve_alpha_beta(th)
    assert abs(ab.beta + 1.0) < 1e-12  # beta^2 + 2 beta + 1 = 0


def test_v_prefactor_trivial_and_symmetric(frame):
    tnode = frame.base_tnode
    nx = frame.phi_node(0.3 + 1.0j)
    ny = frame.phi_node(1.1 + 1.4j)
    trivial = AlphaBeta(0.0, 0.0, "alpha0")
    v = frame.V_of(tnode, nx, ny, trivial)
    assert np.max(np.abs(v - frame.Y_of(tnode, nx, ny))) == 0.0
    # the prefactor is symmetric under x <-> y: V(y,x) relates to Y(y,x) by
    # the same factor as V(x,y) to Y(x,y)
    ab = solve_alpha_beta(frame.theta)
    fac_xy = frame.V_of(tnode, nx, ny, ab) / frame.Y_of(tnode, nx, ny)
    fac_yx = frame.V_of(tnode, ny, nx, ab) / frame.Y_of(tnode, ny, nx)
    assert np.max(np.abs(fac_xy - fac_yx)) < 1e-13 * np.max(np.abs(fac_xy))


def test_quantized_pg_residual_and_finiteness(frame):
    ab = solve_alpha_beta(frame.theta)
    s = frame.state
    grid = []
    for x, y in GRID:
        zeta, eta = zeta_eta_map(x, y, s.t1, s.t2)
        grid.append((zeta, eta, (x, y)))
    reps = quantized_pg_residual(frame, grid, ab)
    for r in reps:
        assert r.max_rel_residual < 1e-4, r.equation_id
        assert np.isfinite(r.max_abs_residual)


def test_quantized_pg_bounded_by_kevol_through_the_map(frame):
    # chain-rule consistency: the transformed equations cannot be worse than
    # the evolution-equation residuals by more than the local chart factor
    ab = solve_alpha_beta(frame.theta)
    s = frame.state
    pts = GRID[:1]
    kev = kevol_residual(frame, pts, LAB_FD)
    grid = []
    for x, y in pts:
        zeta, eta = zeta_eta_map(x, y, s.t1, s.t2)
        # local chart factor: displacement ratio under a small zeta shift
        probe = 1e-8
        xp, yp = zeta_eta_inverse(zeta + probe, eta, s.t1, s.t2, (x, y))
        jac = (abs(xp - x) + abs(yp - y)) / probe
        grid.append((zeta, eta, (x, y)))
    qpg = quantized_pg_residual(frame, grid, ab)
    fd_floor = 1e-7
    bound = 50.0 * max(1.0, jac) ** 2 * max(r.max_rel_residual for r in kev) + fd_floor
    for r in qpg:
        assert r.max_rel_residual < bound, f"{r.equation_id}: {r.max_rel_residual:.2e} vs {bound:.2e}"


# ---------------------------------------------------------------------------
# the scalar equation in x
# ---------------------------------------------------------------------------

def test_garx_residual_and_abel(frame):
    # twenty samples on a ring well inside the pole-free zone
    center = 0.55 + 1.3j
    xs = [center + 0.3 * np.exp(2j * np.pi * k / 20) for k in range(20)]
    rep, abel = garx_residual(frame, xs)
    assert rep.max_rel_residual < 1e-6
    assert abel.max_rel_residual < 1e-6


def test_garx_second_column_is_independent_solution(frame):
    rep0, _ = garx_residual(frame, [0.5 + 1.2j], column=0)
    rep1, _ = garx_residual(frame, [0.5 + 1.2j], column=1)
    assert rep0.max_rel_residual < 1e-6
    assert rep1.max_rel_residual < 1e-6


def test_garx_bounded_near_apparent_singularity(frame):
    # solutions stay regular at x = lambda_k although the coefficients blow
    # up; the residual check just needs stencils that do not straddle it
    from garnier_lab.garnier_okamoto import extract_go

    g = extract_go(shift_normalization(frame.state, "BtoQ"))
    lam = g.lam[0]
    x_near = lam + 0.05 * np.exp(0.7j)
    rep, _ = garx_residual(frame, [x_near], FDScheme(order=4, step=1e-4, richardson=True))
    assert np.isfinite(rep.max_rel_residual)
    assert rep.max_rel_residual < 1e-4


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_residual_csv_layout(tmp_path, zero_frame):
    reps = bpz_residual(zero_frame, GRID[:1])
    out = tmp_path / "res.csv"
    write_residual_csv(reps, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_x,im_x,re_y,im_y,equation_id,abs_residual,rel_residual"
    assert len(lines) == 1 + len(reps)


def test_phi_nodes_batch_matches_hops_alone(frame):
    base = frame.base_tnode
    nx = frame.phi_node(0.35 + 1.0j)
    ny = frame.phi_node(1.15 + 1.45j)
    ((tn, (nxs, nys)),) = frame.shift_t(base, [nx, ny], 0, [2e-3])
    hops = [
        (nx.x + 4e-3, base, nx),
        (ny.x - 2e-3j, base, ny),
        (nxs.x + 1e-3 - 1e-3j, tn, nxs),
        (nys.x + 3e-3j, tn, nys),
        (nx.x, base, nx),  # no move: the anchor itself
    ]
    batch = frame.phi_nodes(hops)
    assert batch[-1] is nx

    def agree(a, b):  # same arithmetic: equal up to a few ulp on any platform
        return np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    for (x, tn_k, anchor), node in zip(hops[:-1], batch):
        (alone,) = frame.phi_nodes([(x, tn_k, anchor)])
        assert agree(node.phi, alone.phi) and agree(node.logs, alone.logs)
        assert np.array_equal(node.t, tn_k.t)
        # and the Taylor steps of phi_node agree to their tolerance
        ref = frame.phi_node(x, tnode=tn_k, anchor=anchor)
        assert np.max(np.abs(node.phi - ref.phi)) < 1e-11
        assert np.max(np.abs(node.logs - ref.logs)) < 1e-13


def test_phi_nodes_without_a_moving_hop_forms_no_series(frame, monkeypatch):
    # no hop, or only hops that end at their anchors: the anchors come back
    # as they are, and no series is formed
    nx = frame.phi_node(0.35 + 1.0j)

    def no_series(*_args):
        raise AssertionError("formed a series with no moving hop")

    monkeypatch.setattr(quantization, "_x_series", no_series)
    assert frame.phi_nodes([]) == []
    out = frame.phi_nodes([(nx.x, frame.base_tnode, nx), (frame.base_x, frame.base_tnode, frame.base_node)])
    assert out[0] is nx and out[1] is frame.base_node


def test_phi_nodes_rejects_hop_into_exclusion_disc(frame):
    # the second hop ends 0.02 from t3 = 1, inside the 0.04 exclusion disc
    base = frame.base_tnode
    hops = [(BASE_X + 1e-3, base, frame.base_node), (1.0 + 0.02j, base, frame.base_node)]
    with pytest.raises(PathViolation):
        frame.phi_nodes(hops)
    # a non-finite end is rejected too, before any series is formed
    with pytest.raises(PathViolation):
        frame.phi_nodes([(complex("nan"), base, frame.base_node)])


def _phi_field(tnode):
    """Reference: the Phi field dPhi/ds = v sum_i A_i/(x - t_i) Phi for ode_integrate's DP5 steps."""
    t, A = tnode.t, tnode.A

    def fld(z, v, yv):
        m = np.einsum("i,iab->ab", 1.0 / (z - t), A)
        return (v * (m @ yv.reshape(2, 2))).ravel()

    return fld


def _dp5_hop(tnode, anchor, x):
    """Phi at x from anchor by ode_integrate at rtol 1e-13."""
    path = PathPlan([anchor.x, x], quantization.EXCLUSION)
    return ode_integrate(_phi_field(tnode), anchor.phi.ravel(), path, rtol=1e-13)[-1][1].reshape(2, 2)


@pytest.mark.parametrize("seed", [700, 701])
def test_phi_node_kernel_matches_old_adaptive_field(seed):
    # C7's base transports and one hop at moved times: Taylor steps of the
    # x-series, which count_work sees (measured <= 4.1e-14 from the DP5
    # reference at rtol 1e-13)
    frame = Frame(_seeded_b_state(seed), base_x=BASE_X)
    base = frame.base_tnode
    ((tn, (anchor,)),) = frame.shift_t(base, [frame.phi_node(0.35 + 1.0j)], 1, [3e-3 - 1e-3j])
    hops = [(x, None, frame.base_node) for x, _y in default_grid(4)] + [(1.1 + 1.4j, tn, anchor)]
    for x, tnode, anchor in hops:
        with count_work() as work:
            node = frame.phi_node(x, tnode=tnode, anchor=anchor)
        assert work["taylor_steps"] >= 1
        ref = _dp5_hop(tnode or base, anchor, x)
        assert np.max(np.abs(node.phi - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_phi_nodes_kernel_matches_old_batched_field(frame, monkeypatch):
    base = frame.base_tnode
    nx = frame.phi_node(0.35 + 1.0j)
    ny = frame.phi_node(1.15 + 1.45j)
    ((tn, (nxs, nys)),) = frame.shift_t(base, [nx, ny], 0, [2e-3])
    hops = [  # unsorted, of mixed length, one of length zero
        (nx.x + 1e-3, base, nx),
        (ny.x - 6e-3j, base, ny),
        (nx.x, base, nx),
        (nxs.x + 4e-3 - 1e-3j, tn, nxs),
        (nys.x + 2e-3j, tn, nys),
        (nx.x - 9e-3, base, nx),
    ]
    calls = []
    real = quantization._x_series
    monkeypatch.setattr(quantization, "_x_series", lambda *args: calls.append(args) or real(*args))
    batch = frame.phi_nodes(hops)
    assert batch[2] is nx
    # one series for all moving hops, one row per (anchor, tnode) pair at the anchor, in powers of the
    # displacement (velocity 1): the two hops from nx at the base time share a row, so 5 hops form 4 rows,
    # each summed no farther than its longest hop
    moving = [(hop, node) for hop, node in zip(hops, batch) if hop[0] != hop[2].x]
    ((t, A, x0, v, phi0, reach),) = calls
    assert x0.shape == v.shape == (4, 1) and t.shape == (4, 4) and A.shape == (4, 4, 2, 2)
    assert [complex(z) for z in x0[:, 0]] == [nx.x, ny.x, nxs.x, nys.x] and np.all(v == 1.0)
    assert reach == pytest.approx([9e-3, 6e-3, abs(4e-3 - 1e-3j), 2e-3], rel=1e-9)
    # each row against the DP5 reference (measured <= 1.9e-16)
    for (x, tn_k, a), node in moving:
        ref = _dp5_hop(tn_k, a, x)
        assert np.max(np.abs(node.phi - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_phi_nodes_share_a_row_only_between_identical_nodes(frame, monkeypatch):
    # an anchor or a tnode equal in value to another, but another object, forms a row of its own: the
    # grouping is by identity, so no two distinct nodes are ever merged by a coincidence of values
    base = frame.base_tnode
    nx = frame.phi_node(0.35 + 1.0j)
    twin, base_twin = dataclasses.replace(nx), dataclasses.replace(base)
    hops = [(nx.x + 1e-3, base, nx), (nx.x - 2e-3j, base, nx), (nx.x + 2e-3, base, twin), (nx.x - 2e-3, base_twin, nx)]
    calls = []
    real = quantization._x_series
    monkeypatch.setattr(quantization, "_x_series", lambda *args: calls.append(args) or real(*args))
    batch = frame.phi_nodes(hops)
    ((t, _A, x0, _v, _phi0, _reach),) = calls
    assert x0.shape == (3, 1) and t.shape == (3, 4)
    # equal values give equal series: each hop lands as it does from the other object
    monkeypatch.setattr(quantization, "_x_series", real)
    for (x, _tn, _anchor), node in zip(hops[2:], batch[2:]):
        (ref,) = frame.phi_nodes([(x, base, nx)])
        assert np.array_equal(node.phi, ref.phi) and np.array_equal(node.logs, ref.logs)


def test_far_chord_is_walked_by_phi_nodes_beside_a_near_hop(frame):
    # a hop that triples its distance to t2: the series at the anchor reaches
    # a quarter of the chord (half its radius, itself half the chord), so
    # phi_nodes walks it in Taylor steps, while a near hop in the same call
    # takes its one step, bit for bit as alone; the principal log of the far
    # chord's ratio, far from 1, continues the log as two sub-chords do
    base, t = frame.base_tnode, frame.base_tnode.t
    u = (BASE_X - t[1]) / abs(BASE_X - t[1])
    anchor = frame.phi_node(t[1] + 0.06 * u)
    x = t[1] + 0.18 * u
    near = (anchor.x + 2e-3 * u, base, anchor)
    with count_work() as work:
        node, near_node = frame.phi_nodes([(x, base, anchor), near])
    with count_work() as alone:
        (near_alone,) = frame.phi_nodes([near])
    assert alone["taylor_steps"] == 1 and work["taylor_steps"] - 1 >= 2
    assert np.array_equal(near_node.phi, near_alone.phi) and np.array_equal(near_node.logs, near_alone.logs)
    via = frame.phi_node(x, anchor=frame.phi_node(t[1] + 0.12 * u, anchor=anchor))
    assert np.max(np.abs(node.logs - via.logs)) <= 1e-15
    assert np.max(np.abs(node.phi - via.phi)) < 1e-11


_SHORT_CHORD, _LONG_CHORD = (0.35 + 1.0j, 0.37 + 1.01j), (0.35 + 1.0j, -0.35 + 1.0j)


@pytest.mark.parametrize("transport", ["phi_node", "phi_nodes"])
@pytest.mark.parametrize(
    "case, chord, message",
    [
        ("nan-A", _SHORT_CHORD, "non-finite Taylor coefficient"),
        ("inf-phi", _SHORT_CHORD, "non-finite Taylor coefficient"),
        ("blow-up", _SHORT_CHORD, "non-finite Taylor coefficient"),
        ("blow-up-on-chord", _LONG_CHORD, "non-finite Taylor sum"),
    ],
    ids=["nan-A", "inf-phi", "blow-up", "blow-up-on-chord"],
)
def test_x_transport_failures_are_typed_with_a_location(frame, case, chord, message, transport):
    # a non-finite residue or Phi, or a Phi that leaves the float range on
    # the way, raises SingularityApproach at a point of the failing chord;
    # phi_nodes names that hop's chord, behind a healthy one
    base = frame.base_tnode
    A, phi = base.A.copy(), np.eye(2, dtype=complex)
    if case == "nan-A":
        A[2, 0, 1] = np.nan
    elif case == "inf-phi":
        phi[1, 0] = np.inf
    elif case == "blow-up":
        # |Phi| would grow 3.3-fold along the chord, but the anchor's series, in powers of the
        # displacement, already overflows in its coefficients there
        A, phi = 30.0 * A, 1e308 * phi
    else:  # |Phi| grows 1.26-fold along the chord: the second of its three steps overflows
        A, phi = 0.2 * A, 1.5e308 * phi
    x0, x = chord
    tnode = TNode(base.t, A, base.ln_tau, base.pair_logs)
    anchor = PhiNode(x0, base.t, phi, np.log(x0 - base.t))
    healthy = frame.phi_node(1.15 + 1.45j)
    with np.errstate(all="ignore"), pytest.raises(SingularityApproach, match=message) as info:
        if transport == "phi_node":
            frame.phi_node(x, tnode=tnode, anchor=anchor)
        else:
            frame.phi_nodes([(healthy.x + 2e-3, base, healthy), (x, tnode, anchor)])
    (where,) = info.value.location
    s = (where - x0) / (x - x0)
    assert abs(s.imag) <= 1e-12 and -1e-12 <= s.real <= 1.0 + 1e-12
    if case == "blow-up":
        assert where == x0
    elif case == "blow-up-on-chord":
        assert s.real > 0.0


# ---------------------------------------------------------------------------
# the grid pass: one bundle series per time direction, one batch of hops
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def c9_frame():
    """A C9 frame (seed 700), its exponents and the (zeta, eta, hint) grid of 7 C7 points."""
    frame = Frame(_seeded_b_state(700), base_x=BASE_X)
    grid = [(*zeta_eta_map(x, y, frame.state.t1, frame.state.t2), (x, y)) for x, y in default_grid(7)]
    return frame, solve_alpha_beta(frame.theta), grid


def _same_derivs(a, b) -> bool:
    """Every field of two derivative records equal, entry by entry (dict fields key by key)."""
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, dict):
            if u.keys() != v.keys() or not all(np.array_equal(u[k], v[k]) for k in u):
                return False
        elif not np.array_equal(u, v):
            return False
    return True


def test_grid_pass_of_y_equals_each_point_alone(c9_frame):
    # the bundle moves once per direction with every point's nodes attached,
    # yet each point's values are bit-identical to its own pass
    frame, _ab, _grid = c9_frame
    grid = default_grid(7)
    together = _y_derivs(frame, grid, LAB_FD, t_dirs=(0, 1, 2, 3))
    assert len(together) == len(grid)
    for point, d in zip(grid, together):
        (alone,) = _y_derivs(frame, [point], LAB_FD, t_dirs=(0, 1, 2, 3))
        assert _same_derivs(d, alone), point


def test_grid_pass_of_v_equals_each_point_alone(c9_frame):
    # per-point clamped time steps: the union of the offsets moves once per
    # direction, and each point reads its own
    frame, ab, grid = c9_frame
    together = _v_derivs(frame, grid, ab, QPG_FD)
    assert len(together) == len(grid)
    for point, d in zip(grid, together):
        (alone,) = _v_derivs(frame, [point], ab, QPG_FD)
        assert _same_derivs(d, alone), point[:2]


@pytest.mark.parametrize("column", [0, 1])
def test_grid_pass_of_garx_equals_each_sample_alone(c9_frame, column):
    frame, _ab, _grid = c9_frame
    xs = [x for x, _y in default_grid(7)]
    together = garx_residual(frame, xs, column=column)
    for k, x in enumerate(xs):
        alone = garx_residual(frame, [x], column=column)
        for rep, rep_alone in zip(together, alone):
            assert rep.rows[k] == rep_alone.rows[0], (rep.equation_id, x)


def _wave_ref(frame, tnode, nx, ny, ab=None):
    """Y (V with ab) at one triple by the per-node formula: 2x2 inverse and matrix product, sums in Python."""
    th = frame.theta.theta
    log_gauge = sum((th[i] / 2.0) * (nx.logs[i] + ny.logs[i]) for i in range(4)) + frame.gauge_exponent(tnode)
    p = nx.phi
    inverse = np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]]) / det2(p)
    y = np.exp(tnode.ln_tau - log_gauge) / (nx.x - ny.x) * (inverse @ ny.phi)
    if ab is None:
        return y
    return y * np.exp(-(ab.alpha * (nx.logs[3] + ny.logs[3]) + ab.beta * (nx.logs[2] + ny.logs[2])))


def _garx_ref(frame, node):
    """Row 1 of Z = Phi prod (x - t_i)^{th_i/2} and the Wronskian q12(x) det Z at one node, per node."""
    th = frame.theta.theta
    z = np.exp(sum((th[i] / 2.0) * node.logs[i] for i in range(4))) * node.phi
    q12 = sum(a / (node.x - t) for a, t in zip(shift_normalization(frame.state, "BtoQ").A[:, 0, 1], node.t))
    return np.array([z[0, 0], z[0, 1], q12 * det2(z)])


@pytest.mark.parametrize("engine", ["bpz", "qpg", "garx"])
def test_stencil_values_on_arrays_match_the_per_node_formula(c9_frame, engine, monkeypatch):
    # the grid pass evaluates every key in one array call; each row agrees with the per-node formula to
    # 1e-15 of the grid's largest value (a C7 grid for Y and z, a C9 grid for V; measured 5.6e-16 for Y,
    # 4.9e-16 for V and 1.7e-16 for z and its Wronskian)
    frame, ab, grid = c9_frame
    seen = []
    real = quantization._stencil_values

    def recorded(frame_, stencils, t_mults, value):
        return real(frame_, stencils, t_mults, lambda *cols: seen.append((cols, value(*cols))) or seen[-1][1])

    monkeypatch.setattr(quantization, "_stencil_values", recorded)
    {
        "bpz": lambda: bpz_residual(frame, default_grid(7)),
        "qpg": lambda: quantized_pg_residual(frame, grid, ab),
        "garx": lambda: garx_residual(frame, [x for x, _y in default_grid(7)]),
    }[engine]()
    ((cols, got),) = seen
    if engine == "garx":
        ref = np.array([_garx_ref(frame, n) for n in cols[1]])
    else:
        ref = np.array([_wave_ref(frame, *triple, ab if engine == "qpg" else None) for triple in zip(*cols)])
    assert got.shape == ref.shape and len(ref) == len(cols[0]) > 7
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_array_values_raise_diagonal_collision_at_any_grid_point(c9_frame):
    # one point of the grid with |x - y| below the guard fails the whole array call
    frame, _ab, _grid = c9_frame
    (x, y), (x2, _y2) = default_grid(2)
    with pytest.raises(DiagonalCollision):
        bpz_residual(frame, [(x, y), (x2, x2 + 0.02)])
    with pytest.raises(DiagonalCollision):
        nys = [frame.phi_node(y), frame.phi_node(frame.base_x + 0.02)]
        frame.wave_values([frame.base_tnode] * 2, [frame.base_node] * 2, nys)


def test_array_values_raise_near_singular_phi_at_any_row(c9_frame):
    # a Phi(x) with |det| = 2^-44 < 1e-12 among healthy ones: the array call names its determinant
    frame, ab, _grid = c9_frame
    tn, good = frame.base_tnode, frame.phi_node(0.35 + 1.0j)
    bad = dataclasses.replace(good, phi=np.array([[1.0, 2.0], [0.5, 1.0 + 2.0**-44]], dtype=complex))
    ny = frame.phi_node(1.15 + 1.45j)
    for call in (
        lambda: frame.wave_values([tn] * 3, [good, bad, good], [ny] * 3),
        lambda: frame.wave_values([tn] * 3, [good, bad, good], [ny] * 3, ab),
        lambda: frame.M_of(tn, bad, ny),
    ):
        with pytest.raises(NearSingularPhi, match="5.684e-14"):
            call()


def test_every_c9_stencil_point_is_inverted_from_its_centre_with_a_wide_margin():
    # at criterion_9's default grids, every inversion but the centre's is hinted by the centre's preimage
    # (x0, y0): the four branch-radius probes, the 6 + 6 points of the zeta and eta lines, the 36 of the
    # mixed tensor stencil and the 12 at moved times; the other root ordering stays >= 10x farther from
    # (x0, y0) than the returned one
    inversions = []
    real = quantization.zeta_eta_inverse

    def recorded(zeta, eta, t1, t2, hint):
        xy = real(zeta, eta, t1, t2, hint)
        inversions.append((hint, xy))
        return xy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantization, "zeta_eta_inverse", recorded)
        for seed in (700, 701, 702):
            frame = Frame(_seeded_b_state(seed), base_x=BASE_X)
            grid = [(*zeta_eta_map(x, y, frame.state.t1, frame.state.t2), (x, y)) for x, y in default_grid(20)]
            quantized_pg_residual(frame, grid, solve_alpha_beta(frame.theta))
    starts = set(default_grid(20))
    centres = {xy for hint, xy in inversions if hint in starts}
    assert len(inversions) == 3 * 20 * (1 + 4 + 6 + 6 + 36 + 12)
    assert all(hint in starts | centres for hint, _xy in inversions)
    for (x0, y0), (x, y) in inversions:
        assert abs(y - x0) + abs(x - y0) >= 10.0 * (abs(x - x0) + abs(y - y0)), (x0, y0)


def _counted(calls: dict, name: str):
    """Frame.<name>, counting its calls in calls[name]."""
    real = getattr(Frame, name)

    def method(self, *args):
        calls[name] += 1
        return real(self, *args)

    return method


@pytest.mark.parametrize("n_points", [1, 7])
@pytest.mark.parametrize("engine, t_moves", [("bpz", 4), ("kevol", 2), ("qpg", 2), ("garx", 0)])
def test_each_engine_moves_the_bundle_once_per_direction_and_hops_in_one_call(c9_frame, engine, t_moves, n_points):
    # one phi_nodes call moves every point's base nodes, and a second every hop
    frame, ab, grid = c9_frame
    xy = default_grid(7)[:n_points]
    run = {
        "bpz": lambda: bpz_residual(frame, xy),
        "kevol": lambda: kevol_residual(frame, xy),
        "qpg": lambda: quantized_pg_residual(frame, grid[:n_points], ab),
        "garx": lambda: garx_residual(frame, [x for x, _y in xy]),
    }[engine]
    calls = {"phi_nodes": 0, "shift_t": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(Frame, name, _counted(calls, name))
        run()
    assert calls == {"phi_nodes": 2, "shift_t": t_moves}


@pytest.fixture(scope="module")
def c9_point_hops():
    """A C9 frame and the hops that quantized_pg_residual sends to phi_nodes for one grid point (its second
    call; the first moves the point's base nodes)."""
    frame = Frame(_seeded_b_state(700), base_x=BASE_X)
    x, y = default_grid(20)[0]
    zeta, eta = zeta_eta_map(x, y, frame.state.t1, frame.state.t2)
    calls = []
    real = Frame.phi_nodes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Frame, "phi_nodes", lambda self, hops: calls.append(list(hops)) or real(self, hops))
        quantized_pg_residual(frame, [(zeta, eta, (x, y))], solve_alpha_beta(frame.theta), QPG_FD)
    _base, hops = calls
    return frame, hops


def test_phi_nodes_keep_det_phi_on_every_hop_of_a_c9_point(c9_point_hops):
    # the residues are traceless, so det Phi is constant along every hop
    frame, hops = c9_point_hops
    for (_x, _tn, anchor), node in zip(hops, frame.phi_nodes(hops)):
        assert abs(det2(node.phi) / det2(anchor.phi) - 1.0) <= 1e-13


def test_phi_nodes_memory_of_a_c9_point_is_bounded(c9_point_hops):
    # one series row per hop, summed once: scratch memory stays small
    frame, hops = c9_point_hops
    frame.phi_nodes(hops)
    tracemalloc.start()
    try:
        frame.phi_nodes(hops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_hop_screen_leaves_the_disc_edge_to_the_exact_check(frame, inside):
    # hops ending 1e-12 (relative) inside or outside a singular disc: the one
    # clearance rule decides them exactly, with no looser screen in front
    base = frame.base_tnode
    t = base.t
    edge = 1.0 - 1e-12 if inside else 1.0 + 1e-12
    # spatial hop: radially onto the x = t2 disc, from a point just outside
    # it (a hop within one series' step)
    u = (BASE_X - t[1]) / abs(BASE_X - t[1])
    anchor = frame.phi_node(t[1] + 1.01 * quantization.EXCLUSION * u)
    hops = [(anchor.x + 1e-3 * u, base, anchor), (t[1] + quantization.EXCLUSION * edge * u, base, anchor)]
    # time hop: t1 moved onto the t1 = x disc of an attached node, from a
    # time tuple just outside it (a hop within one series' step)
    near = frame.phi_node(t[0] + 0.05)
    close = t.copy()
    close[0] = near.x - 1.01 * quantization.EXCLUSION / 4
    tn_close, (near_close,) = frame.shift_t_adaptive(base, [near], close)
    onto = near.x - quantization.EXCLUSION / 4 * edge - close[0]
    for run in (lambda: frame.phi_nodes(hops), lambda: frame.shift_t(tn_close, [near_close], 0, [-1e-4, onto])):
        if inside:
            with pytest.raises(PathViolation):
                run()
        else:
            run()


def _bundle_alone(tnode, nodes, t_new):
    """Reference bundle move: the packed (A, ln tau, Phi...) state of one hop by ode_integrate at rtol 1e-13."""

    def field(point, velocity, y):
        t = np.asarray(point, dtype=complex)
        v = np.asarray(velocity, dtype=complex)
        A = y[:16].reshape(4, 2, 2)
        dA, dtau = flow_derivative(A, t, v)
        out = [dA.ravel(), [dtau]]
        for k, n in enumerate(nodes):
            coef = -v / (n.x - t)
            out.append((np.einsum("i,iab->ab", coef, A) @ y[17 + 4 * k : 21 + 4 * k].reshape(2, 2)).ravel())
        return np.concatenate(out)

    y0 = np.concatenate([tnode.A.ravel(), [tnode.ln_tau], *[n.phi.ravel() for n in nodes]])
    return ode_integrate(field, y0, PathPlan([tuple(tnode.t), tuple(t_new)], 0.01), rtol=1e-13)[-1][1]


def _bundle_vector(tn, nodes):
    return np.concatenate([tn.A.ravel(), [tn.ln_tau], *[n.phi.ravel() for n in nodes]])


def test_shift_t_batch_matches_each_alone(frame, monkeypatch):
    # every offset of one direction is a Horner sum of one series, bit for bit
    # that offset alone; the series agrees with ode_integrate over the bundle
    # field at rtol 1e-13 in A, ln tau and the Phi of several nodes (measured
    # <= 1.1e-15, 2.2e-14 and 3.8e-16 relative over these moves), and with
    # the Taylor steps of shift_t_adaptive to rounding (measured <= 8.3e-17)
    base = frame.base_tnode
    nodes3 = [frame.phi_node(x) for x in (0.35 + 1.0j, 1.15 + 1.45j, 0.9 + 1.4j)]
    offsets = [1e-3, -4e-3j, 6e-3 + 2e-3j, 0.0, -5e-3, 2.5e-3 - 1e-3j]
    calls = []
    real = quantization._flow_taylor
    monkeypatch.setattr(quantization, "_flow_taylor", lambda *a, **k: calls.append(a[:2]) or real(*a, **k))

    def agree(a, b, rel):
        return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))

    for nodes in ([], nodes3[:1], nodes3):
        for d in range(4):
            calls.clear()
            batch = frame.shift_t(base, nodes, d, offsets)
            assert len(calls) == 1 and np.array_equal(calls[0][1], np.eye(4)[d])
            tn_still, nodes_still = batch[3]
            assert tn_still is base and all(a is b for a, b in zip(nodes_still, nodes))
            for m, (tn, moved) in zip(offsets, batch):
                if m == 0.0:
                    continue
                t_new = base.t.copy()
                t_new[d] += m
                assert np.array_equal(tn.t, t_new) and all(np.array_equal(n.t, t_new) for n in moved)
                got = _bundle_vector(tn, moved)
                ref = _bundle_alone(base, nodes, t_new)
                assert agree(got[:16], ref[:16], 1e-14) and abs(got[16] - ref[16]) <= 1e-12 * abs(ref[16])
                if nodes:
                    assert agree(got[17:], ref[17:], 1e-14)
                ((tn1, moved1),) = frame.shift_t(base, nodes, d, [m])
                assert np.array_equal(got, _bundle_vector(tn1, moved1))
                assert np.array_equal(tn.pair_logs, tn1.pair_logs)
                for n, n1 in zip(moved, moved1):
                    assert np.array_equal(n.logs, n1.logs)
                tn2, moved2 = frame.shift_t_adaptive(base, nodes, t_new)
                assert agree(got, _bundle_vector(tn2, moved2), 1e-14)
                assert np.array_equal(tn.pair_logs, tn2.pair_logs)


def test_shift_t_rejects_an_offset_past_the_taylor_step(frame):
    # a node 0.011 from t1 (the time hop's disc is 0.01): the series' radius
    # is 0.011, and LAB_FD's widest t1 offset, 2 * 2e-3 * (1 + |t1|), sits
    # past its step; a stencil ten times finer passes
    base = frame.base_tnode
    t = base.t
    node = frame.phi_node(t[0] + 0.05j)
    close = t.copy()
    close[0] += 0.039j
    tn, nodes = frame.shift_t_adaptive(base, [node], close)
    mults = stencil_multipliers(LAB_FD, (1,))
    h = LAB_FD.scaled_step(close[0])
    with pytest.raises(SingularityApproach, match="past the Taylor step") as info:
        frame.shift_t(tn, nodes, 0, [m * h for m in mults])
    assert info.value.location[0] == close[0] + min(mults) * h
    frame.shift_t(tn, nodes, 0, [m * h / 10 for m in mults])


@pytest.mark.parametrize("seed", range(300, 305))
def test_shift_t_of_a_b_state_shifted_to_q_matches_the_q_flow(seed):
    # C3's route: hop the B state through Frame.shift_t, then shift it to Q.
    # The flow is built from commutators, which the theta_i/2 shift leaves
    # alone, so this agrees with the Taylor-stepped flow of the Q state
    # (measured up to 1.9e-16 relative on C3's five states; the offsets stay
    # within one series' step, ~0.05 here)
    b0 = _seeded_b_state(seed)
    frame = Frame(b0, base_x=BASE_X)
    q0 = shift_normalization(b0, "BtoQ")
    moves = [(0, [1.3e-4, 0.02 - 0.01j, -0.025j]), (1, [-2.6e-4j, 0.025, -0.02 + 0.01j])]
    for d, offsets in moves:
        for tn, _nodes in frame.shift_t(frame.base_tnode, [], d, offsets):
            got = shift_normalization(SchlesingerState(tn.t[0], tn.t[1], tn.A, "B", b0.theta), "BtoQ").A
            seg = PathPlan([(q0.t1, q0.t2), (tn.t[0], tn.t[1])], quantization.EXCLUSION / 4)
            ref = integrate_schlesinger(q0, seg, rtol=1e-13)[-1][1].A
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_time_hop_rejected_in_singular_disc(frame, monkeypatch):
    def no_integration(*_args, **_kwargs):
        raise AssertionError("integrated before the hop was checked")

    base = frame.base_tnode
    t = base.t
    near = frame.phi_node(t[0] + 0.05)  # outside the 0.04 x-disc of t1
    monkeypatch.setattr(quantization, "_flow_taylor", no_integration)
    monkeypatch.setattr(quantization, "taylor_integrate", no_integration)
    # (direction, offset that ends inside a disc, attached nodes)
    onto_node = (0, 0.045, [near])  # ends 0.005 from x: inside the 0.01 time-hop disc
    onto_t2 = (0, t[1] - 0.005 - t[0], [])  # ends 0.005 from t1 = t2
    onto_t4 = (3, t[1] + 0.004j - t[3], [])  # the frozen t4 moved next to t2
    for d, bad, nodes in (onto_node, onto_t2, onto_t4):
        with pytest.raises(PathViolation):
            frame.shift_t(base, nodes, d, [1e-3, bad])
        t_bad = t.copy()
        t_bad[d] += bad
        with pytest.raises(PathViolation):
            frame.shift_t_adaptive(base, nodes, t_bad)


def test_branch_coherence_of_gauge_logs(frame):
    # recompute the gauge logs along a dog-leg homotopic to the straight
    # segment; the stored chart must agree
    x = 1.2 + 1.6j
    node_direct = frame.phi_node(x)
    mid = frame.phi_node(0.9 + 1.9j, anchor=frame.base_node)
    node_via = frame.phi_node(x, anchor=mid)
    assert np.max(np.abs(node_direct.logs - node_via.logs)) < 1e-10
    assert np.max(np.abs(node_direct.phi - node_via.phi)) < 1e-9
