"""Deformation flow, conserved quantities, normalizations, tau derivative."""

from dataclasses import replace

import numpy as np
import pytest

from garnier_lab import schlesinger
from garnier_lab.acceptance import BASE_X, _moved
from garnier_lab.errors import PoleEvaluation, SingularityApproach, TimeCollision
from garnier_lab.numerics import TAYLOR_ORDER, FDScheme, PathPlan, combine_stencil, fd_derivative, stencil_multipliers
from garnier_lab.schlesinger import (
    T3,
    T4,
    SchlesingerState,
    ThetaGO,
    connection_matrix,
    flow_derivative,
    gen_schlesinger_b,
    integrate_schlesinger,
    schlesinger_rhs,
    shift_normalization,
    tau_logderiv,
)
from garnier_lab.quantization import Frame

THETA4 = [0.31 - 0.12j, 0.47 + 0.08j, -0.29 + 0.21j, 0.55 - 0.03j]


def _state_with(matrices, theta=None, t1=0.3 + 0.05j, t2=0.62 - 0.04j, norm="B"):
    th = theta or ThetaGO(theta=(0.2, 0.3, 0.4, 0.5), k_inf=0.1)
    return SchlesingerState(t1, t2, np.array(matrices, dtype=complex), norm, th)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_commuting_residues_are_stationary():
    mats = [np.diag([c, -c]) for c in (0.2, 0.5j, -0.1, 0.3)]
    d1, d2 = schlesinger_rhs(_state_with(mats))
    assert np.max(np.abs(d1)) == 0.0
    assert np.max(np.abs(d2)) == 0.0


def test_rhs_self_commutators_vanish():
    m = np.array([[0.1, 0.7], [0.2, -0.1]], dtype=complex)
    zero = np.zeros((2, 2))
    d1, d2 = schlesinger_rhs(_state_with([m, m, zero, zero]))
    # dA_1/dt_2 and dA_2/dt_1 involve only [A_1, A_2] = 0
    assert np.max(np.abs(d2[0])) == 0.0
    assert np.max(np.abs(d1[1])) == 0.0


def test_rhs_matches_term_by_term_oracle(rng, b_state):
    # independent evaluation of every commutator term
    t = b_state.tvec
    A = b_state.A
    d1, d2 = schlesinger_rhs(b_state)
    for i, got in ((0, d1), (1, d2)):
        want = np.zeros((4, 2, 2), dtype=complex)
        for j in range(4):
            if j == i:
                continue
            comm = A[i] @ A[j] - A[j] @ A[i]
            want[j] = comm / (t[i] - t[j])
            want[i] -= comm / (t[i] - t[j])
        assert np.max(np.abs(got - want)) < 1e-14


def test_rhs_sums_to_zero_by_antisymmetry(b_state):
    d1, d2 = schlesinger_rhs(b_state)
    scale = np.max(np.abs(b_state.A)) ** 2
    assert np.max(np.abs(d1.sum(axis=0))) < 5e-16 * scale
    assert np.max(np.abs(d2.sum(axis=0))) < 5e-16 * scale


def test_rhs_time_collision():
    mats = np.zeros((4, 2, 2))
    with pytest.raises(TimeCollision):
        schlesinger_rhs(_state_with(mats, t1=0.4, t2=0.4))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _short_path(s, dz1=0.1 + 0.2j, dz2=-0.08 - 0.15j):
    return PathPlan([(s.t1, s.t2), (s.t1 + dz1, s.t2 + dz2)], 0.04)


def test_integrate_diagonal_data_is_constant():
    mats = [np.diag([c, -c]) for c in (0.2, 0.5, -0.1, 0.3)]
    s0 = _state_with(mats)
    end = integrate_schlesinger(s0, _short_path(s0))[-1][1]
    assert np.max(np.abs(end.A - s0.A)) < 1e-13


def test_integrate_preserves_eigenvalues(b_state):
    # isomonodromy: the spectrum of each residue is a deformation invariant
    end = integrate_schlesinger(b_state, _short_path(b_state))[-1][1]
    for m0, m1 in zip(b_state.A, end.A):
        e0 = sorted(np.linalg.eigvals(m0), key=lambda z: (z.real, z.imag))
        e1 = sorted(np.linalg.eigvals(m1), key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(e0, e1)) < 1e-9


def test_integrate_retrace_returns_initial(b_state):
    there = (b_state.t1 + 0.12 + 0.21j, b_state.t2 - 0.1 - 0.13j)
    loop = PathPlan([(b_state.t1, b_state.t2), there, (b_state.t1, b_state.t2)], 0.04)
    end = integrate_schlesinger(b_state, loop)[-1][1]
    assert np.max(np.abs(end.A - b_state.A)) < 1e-8


def test_integrate_conservation_drift(b_state):
    end = integrate_schlesinger(b_state, _short_path(b_state))[-1][1]
    assert np.max(np.abs(end.a_inf - b_state.a_inf)) < 1e-9
    for m0, m1 in zip(b_state.A, end.A):
        assert abs(np.trace(m1) - np.trace(m0)) < 1e-9
        assert abs(np.linalg.det(m1) - np.linalg.det(m0)) < 1e-9


def test_integrate_rejects_paths_through_collisions(b_state):
    bad = PathPlan([(b_state.t1, b_state.t2), (b_state.t2, b_state.t2 + 1e-6)], 0.04)
    from garnier_lab.errors import PathViolation

    with pytest.raises(PathViolation):
        integrate_schlesinger(b_state, bad)


def test_integrate_overflowing_state_is_typed(b_state):
    # |A| ~ 1e200 puts the Cauchy products past the float range at once; the
    # failure names where the path starts, and no non-finite matrix reaches
    # SchlesingerState (whose ValueError would be untyped)
    state = replace(b_state, A=1e200 * b_state.A)
    path = _short_path(state)
    with pytest.raises(SingularityApproach, match="non-finite Taylor coefficient") as info:
        integrate_schlesinger(state, path)
    assert info.value.location == path.point(0.0)


def test_flow_derivative_batch_rows_match_unbatched(b_state, rng):
    from garnier_lab.schlesinger import flow_derivative

    n = 5
    A = b_state.A + 0.05 * (rng.standard_normal((n, 4, 2, 2)) + 1j * rng.standard_normal((n, 4, 2, 2)))
    t = b_state.tvec + 0.02 * (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
    v = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    dA, dtau = flow_derivative(A, t, v)
    assert dA.shape == (n, 4, 2, 2) and dtau.shape == (n,)
    for k in range(n):
        dA_k, dtau_k = flow_derivative(A[k], t[k], v[k])
        # same arithmetic row by row: equal up to a few ulp on any platform
        assert np.max(np.abs(dA[k] - dA_k)) <= 1e-15 * np.max(np.abs(dA_k))
        assert abs(dtau[k] - dtau_k) <= 1e-15 * abs(dtau_k)


@pytest.mark.parametrize("norm", ["B", "Q"])
def test_flow_taylor_coefficients_match_flow_derivative(b_state, rng, norm):
    # coefficient 1 of the recurrence is flow_derivative's dA; coefficient 2
    # is half the derivative along s of that field on the first-order
    # trajectory A + s c_1, t + s v (the chain rule needs only dA/ds at 0)
    state = b_state if norm == "B" else shift_normalization(b_state, "BtoQ")
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    for _ in range(8):
        dz = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        t = np.array([state.t1 + dz[0], state.t2 + dz[1], T3, T4])
        v = np.array([dz[2], dz[3], 0.0, 0.0])
        y = state.A.ravel() + 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        c, radius = schlesinger._flow_taylor(tuple(t), tuple(v), y)
        assert c.shape == (TAYLOR_ORDER + 1, 16) and np.array_equal(c[0], y)
        dA = flow_derivative(y.reshape(4, 2, 2), t, v)[0].ravel()
        assert np.max(np.abs(c[1] - dA)) <= 1e-15 * np.max(np.abs(dA))

        def along(ss):
            return [flow_derivative((y + s * dA).reshape(4, 2, 2), t + s * v, v)[0].ravel() for s in ss]

        d2 = fd_derivative(along, 0.0, scheme)
        assert np.max(np.abs(2.0 * c[2] - d2)) <= 1e-10 * np.max(np.abs(d2))  # measured <= 1.3e-12
        # the weights' radius: the s-distance to the nearest t_i = t_j
        d, e = t[:, None] - t[None, :], v[:, None] - v[None, :]
        off = ~np.eye(4, dtype=bool) & (e != 0)
        assert radius == pytest.approx(np.min(np.abs(d[off] / e[off])), rel=1e-14)


def test_integrate_matches_scipy_oracle(b_state):
    # independent route: solve_ivp on the real-ified system along the same
    # straight segment
    from scipy.integrate import solve_ivp

    from garnier_lab.schlesinger import T3, T4, flow_derivative

    d1, d2 = 0.1 + 0.2j, -0.08 - 0.15j
    end = integrate_schlesinger(b_state, _short_path(b_state, d1, d2))[-1][1]

    def rhs(s, yr):
        A = (yr[:32:2] + 1j * yr[1:32:2]).reshape(4, 2, 2)
        t = np.array([b_state.t1 + s * d1, b_state.t2 + s * d2, T3, T4])
        dA, _ = flow_derivative(A, t, np.array([d1, d2, 0.0, 0.0], dtype=complex))
        flat = dA.ravel()
        out = np.empty(32)
        out[0::2], out[1::2] = flat.real, flat.imag
        return out

    y0 = np.empty(32)
    y0[0::2], y0[1::2] = b_state.A.ravel().real, b_state.A.ravel().imag
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="RK45", rtol=1e-12, atol=1e-14)
    ref = (sol.y[0::2, -1] + 1j * sol.y[1::2, -1]).reshape(4, 2, 2)
    assert np.max(np.abs(end.A - ref)) < 1e-9


# ---------------------------------------------------------------------------
# normalization shift
# ---------------------------------------------------------------------------

def test_shift_diagonal_example():
    th = ThetaGO(theta=(0.4, 0.2, 0.6, 0.8), k_inf=0.3)
    mats = [np.diag([t / 2, -t / 2]) for t in th.theta]
    q = shift_normalization(_state_with(mats, theta=th), "BtoQ")
    for m, t in zip(q.A, th.theta):
        assert np.max(np.abs(m - np.diag([t, 0.0]))) < 1e-15


def test_shift_roundtrip_identity(b_state):
    back = shift_normalization(shift_normalization(b_state, "BtoQ"), "QtoB")
    assert np.max(np.abs(back.A - b_state.A)) < 1e-15
    assert back.norm == "B"


def test_shift_trace_is_theta(b_state):
    q = shift_normalization(b_state, "BtoQ")
    for m, th in zip(q.A, b_state.theta.theta):
        assert abs(np.trace(m) - th) < 1e-14


def test_shift_eigenvalue_map(b_state):
    q = shift_normalization(b_state, "BtoQ")
    for m, th in zip(q.A, b_state.theta.theta):
        ev = sorted(np.linalg.eigvals(m), key=abs)
        assert abs(ev[0]) < 1e-10 and abs(ev[1] - th) < 1e-10


def test_shift_direction_guard(b_state):
    with pytest.raises(ValueError):
        shift_normalization(b_state, "QtoB")


def test_q_state_sum_matches_exponents_at_infinity(b_state):
    # -sum Q_i = diag(chi, chi + theta_inf - 1) when B_inf is diagonal
    th = b_state.theta
    q = shift_normalization(b_state, "BtoQ")
    want = np.diag([th.chi, th.chi + th.theta_inf - 1.0])
    assert np.max(np.abs(-q.a_inf - want)) < 1e-10


# ---------------------------------------------------------------------------
# connection matrix
# ---------------------------------------------------------------------------

def test_connection_zero_residues():
    s = _state_with(np.zeros((4, 2, 2)))
    assert np.max(np.abs(connection_matrix(s, 5.0))) == 0.0


def test_connection_single_residue():
    m = np.array([[0.3, 1.0], [0.5, -0.3]], dtype=complex)
    s = _state_with([m, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))])
    x = 1.7 + 0.4j
    assert np.max(np.abs(connection_matrix(s, x) - m / (x - s.t1))) < 1e-15


def test_connection_matches_direct_sum(b_state):
    x = 5.0 + 1.0j
    direct = sum(b_state.A[i] / (x - b_state.tvec[i]) for i in range(4))
    assert np.max(np.abs(connection_matrix(b_state, x) - direct)) < 1e-15


def test_connection_infinity_limit(b_state):
    x = 1e6 + 0.3j
    got = x * connection_matrix(b_state, x)
    rel = np.max(np.abs(got - b_state.a_inf)) / np.max(np.abs(b_state.a_inf))
    assert rel < 1e-5


def test_connection_pole_guard(b_state):
    with pytest.raises(PoleEvaluation):
        connection_matrix(b_state, b_state.t1)


# ---------------------------------------------------------------------------
# tau log-derivative
# ---------------------------------------------------------------------------

def test_tau_zero_residues():
    assert tau_logderiv(_state_with(np.zeros((4, 2, 2)))) == (0, 0)


def test_tau_single_residue_has_no_cross_terms():
    mats = [np.diag([1.0, -1.0])] + [np.zeros((2, 2))] * 3
    assert tau_logderiv(_state_with(mats)) == (0, 0)


def test_tau_requires_b_normalization(b_state):
    q = shift_normalization(b_state, "BtoQ")
    with pytest.raises(ValueError):
        tau_logderiv(q)


def test_tau_closedness_mixed_partials(b_state):
    # d/dt2 of (ln tau)'_{t1} equals d/dt1 of (ln tau)'_{t2} along the flow;
    # the stencil states move by one Frame.shift_t per direction, as in C11
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]
    frame = Frame(b_state, base_x=BASE_X)
    t = b_state.tvec

    def lnd(d):
        h = scheme.scaled_step(t[d])
        moved = _moved(frame, d, [m * h for m in mults])
        return combine_stencil({m: np.array(tau_logderiv(st)) for m, (_tn, st) in zip(mults, moved)}, h, scheme, 1)

    assert abs(lnd(1)[0] - lnd(0)[1]) < 1e-6


# ---------------------------------------------------------------------------
# generator and serialization
# ---------------------------------------------------------------------------

def test_generator_constraints():
    s = gen_schlesinger_b(THETA4, seed=5)
    for m, th in zip(s.A, THETA4):
        assert abs(np.trace(m)) < 1e-14
        assert abs(np.linalg.det(m) + th * th / 4.0) < 1e-13
    b_inf = s.a_inf
    assert abs(b_inf[0, 1]) < 1e-13 and abs(b_inf[1, 0]) < 1e-13
    assert abs(b_inf[0, 0] - s.theta.k_inf / 2.0) < 1e-12


def test_generator_is_deterministic():
    a = gen_schlesinger_b(THETA4, seed=9)
    b = gen_schlesinger_b(THETA4, seed=9)
    assert np.array_equal(a.A, b.A)
    c = gen_schlesinger_b(THETA4, seed=10)
    assert not np.array_equal(a.A, c.A)


def test_json_roundtrip_field_names(b_state):
    d = b_state.to_json()
    assert set(d) == {"t1", "t2", "matrices", "norm", "theta"}
    assert d["norm"] == "B"
    assert len(d["matrices"]) == 4 and len(d["matrices"][0]) == 4
    back = SchlesingerState.from_json(d)
    assert np.array_equal(back.A, b_state.A)
    assert back.theta.k_inf == b_state.theta.k_inf


def test_theta_derived_quantities():
    th = ThetaGO(theta=(0.2, 0.3, -0.1, 0.4), k_inf=0.5)
    s = sum(th.theta)
    assert abs(th.kappa - 0.25 * ((s - 1) ** 2 - th.theta_inf**2)) < 1e-15
    assert abs(th.bpz_lambda - (th.delta_inf - (1 + s / 2) ** 2)) < 1e-15
    assert all(abs(d - t * t / 4) < 1e-16 for d, t in zip(th.delta, th.theta))
    assert abs(th.chi + 0.5 * (s + th.theta_inf - 1)) < 1e-15


def test_theta_kappa_is_computed_once_and_survives_replace_and_json():
    th = ThetaGO(theta=(0.2 + 0.1j, 0.3, -0.1 - 0.2j, 0.4), k_inf=0.5 - 0.3j)
    want = 0.25 * ((th.sum_theta - 1.0) ** 2 - th.theta_inf**2)  # the formula, bit for bit
    assert th.kappa == want and th.kappa is th.kappa
    moved = replace(th, k_inf=0.7)
    assert moved.kappa == 0.25 * ((moved.sum_theta - 1.0) ** 2 - moved.theta_inf**2) != th.kappa
    assert replace(th) == th and hash(replace(th)) == hash(th)
    back = ThetaGO.from_json(th.to_json())
    assert back == th and back.kappa == th.kappa
    assert set(th.to_json()) == {"theta1", "theta2", "theta3", "theta4", "k_inf", "jordan_diagonal"}
