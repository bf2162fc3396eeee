"""Wavefunction transport, gauges, branch handling and the PDE residuals."""

import numpy as np
import pytest

from garnier_lab.errors import (
    BranchAmbiguity,
    DiagonalCollision,
    NotOnReduction,
    PathViolation,
    PoleEvaluation,
)
from garnier_lab.numerics import (
    FDScheme,
    PathPlan,
    combine_stencil,
    inv2,
    ode_integrate,
    stencil_multipliers,
)
from garnier_lab.schlesinger import SchlesingerState, ThetaGO, gen_schlesinger_b
from garnier_lab.quantization import (
    LAB_FD,
    QPG_FD,
    AlphaBeta,
    Frame,
    ResidualReport,
    _y_derivs,
    bpz_residual,
    garx_residual,
    kevol_residual,
    phi_via,
    quantized_pg_residual,
    solve_alpha_beta,
    transport_phi,
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


def test_transport_phi_factory(b_state):
    x_path = PathPlan([BASE_X, 0.9 + 1.3j, 1.3 + 1.7j], 0.04)
    t_path = PathPlan([(b_state.t1, b_state.t2), (b_state.t1 + 0.1j, b_state.t2 - 0.08j)], 0.04)
    fr = transport_phi(b_state, x_path, t_path)
    assert (0.9 + 1.3j) in fr._phi_cache and (1.3 + 1.7j) in fr._phi_cache


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
    vals = {}
    for m in mults:
        t_new = t.copy()
        t_new[0] += m * h
        tn, _ = frame.shift_t(frame.base_tnode, [], t_new)
        vals[m] = frame.gauge_exponent(tn)
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
    d = _y_derivs(frame, x, y, LAB_FD, t_dirs=(0, 1, 2, 3))
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
    from garnier_lab.schlesinger import shift_normalization

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
    t_new = base.t.copy()
    t_new[0] += 2e-3
    tn, (nxs, nys) = frame.shift_t(base, [nx, ny], t_new)
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

        # the loop reference: one fixed-step solve of the same hop
        def field(z, v, y):
            m = np.einsum("i,iab->ab", 1.0 / (z - tn_k.t), tn_k.A)
            return (v * (m @ y.reshape(2, 2))).ravel()

        fixed = ode_integrate(
            field,
            anchor.phi.ravel(),
            PathPlan([anchor.x, x], frame.exclusion),
            fixed_steps=frame._nsteps(abs(x - anchor.x)),
        )[-1][1]
        assert agree(node.phi.ravel(), fixed)
        # and the adaptive transport agrees to integrator accuracy
        ref = frame.phi_node(x, tnode=tn_k, anchor=anchor, cache=False)
        assert np.max(np.abs(node.phi - ref.phi)) < 1e-11
        assert np.max(np.abs(node.logs - ref.logs)) < 1e-13


def test_phi_nodes_rejects_hop_into_exclusion_disc(frame):
    # the second hop ends 0.02 from t3 = 1, inside the 0.04 exclusion disc
    base = frame.base_tnode
    hops = [(BASE_X + 1e-3, base, frame.base_node), (1.0 + 0.02j, base, frame.base_node)]
    with pytest.raises(PathViolation):
        frame.phi_nodes(hops)


def test_branch_coherence_of_gauge_logs(frame):
    # recompute the gauge logs along a dog-leg homotopic to the straight
    # segment; the stored chart must agree
    x = 1.2 + 1.6j
    node_direct = frame.phi_node(x)
    mid = frame.phi_node(0.9 + 1.9j, anchor=frame.base_node, cache=False)
    node_via = frame.phi_node(x, anchor=mid, cache=False)
    assert np.max(np.abs(node_direct.logs - node_via.logs)) < 1e-10
    assert np.max(np.abs(node_direct.phi - node_via.phi)) < 1e-9
