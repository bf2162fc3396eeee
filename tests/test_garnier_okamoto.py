"""Coordinate extraction, the two Hamiltonians, the flow, scalar-equation
coefficients."""

import mpmath
import numpy as np
import pytest

from garnier_lab import garnier_okamoto, numerics
from garnier_lab.acceptance import LONG_T_PATH, _seeded_b_state
from garnier_lab.errors import (
    ConditionIIIViolated,
    ConditionIVViolated,
    PoleEvaluation,
    SingularityApproach,
    TimeCollision,
)
from garnier_lab.garnier_okamoto import (
    GOState,
    _k_value,
    extract_go,
    extract_lambda,
    extract_mu,
    garx_coefficients,
    go_vector_field,
    hamiltonian_K,
    integrate_go,
)
from garnier_lab.numerics import PathPlan
from garnier_lab.schlesinger import SchlesingerState, ThetaGO, integrate_schlesinger, shift_normalization

T1, T2 = 0.3 + 0.05j, 0.62 - 0.04j
TVEC = np.array([T1, T2, 1.0, 0.0], dtype=complex)


def _theta(k_inf=0.37 - 0.11j):
    return ThetaGO(theta=(0.31 - 0.12j, 0.47 + 0.08j, -0.29 + 0.21j, 0.55 - 0.03j), k_inf=k_inf)


def _q_state_with_offdiag(targets, theta=None):
    """Q-state whose (1,2) residues are the partial fractions of a quadratic
    with the given zeros: q12^i = X (t_i - z1)(t_i - z2) / prod'(t_i - t_j)."""
    z1, z2, lead = targets
    mats = np.zeros((4, 2, 2), dtype=complex)
    for i in range(4):
        denom = np.prod([TVEC[i] - TVEC[j] for j in range(4) if j != i])
        mats[i, 0, 1] = lead * (TVEC[i] - z1) * (TVEC[i] - z2) / denom
    return SchlesingerState(T1, T2, mats, "Q", theta or _theta())


def test_extract_lambda_constructed_zeros():
    s = _q_state_with_offdiag((2.0, 3.0, 1.3 - 0.4j))
    l1, l2, X = extract_lambda(s)
    assert abs(l1 - 2.0) < 1e-11 and abs(l2 - 3.0) < 1e-11
    assert abs(X - (1.3 - 0.4j)) < 1e-12


def test_extract_lambda_back_substitution(b_state):
    q = shift_normalization(b_state, "BtoQ")
    l1, l2, _ = extract_lambda(q)
    scale = np.max(np.abs(q.A[:, 0, 1]))
    for lk in (l1, l2):
        q12 = sum(q.A[i, 0, 1] / (lk - q.tvec[i]) for i in range(4))
        assert abs(q12) < 1e-11 * scale


def test_extract_lambda_deterministic_ordering(b_state):
    # returned pair is (Re, Im)-lexicographically ordered, and as a set it
    # matches the underlying root pair
    q = shift_normalization(b_state, "BtoQ")
    l1, l2, _ = extract_lambda(q)
    assert (l1.real, l1.imag) <= (l2.real, l2.imag)


def test_extract_lambda_condition_iii():
    # numerator with vanishing leading coefficient: X = 0
    mats = np.zeros((4, 2, 2), dtype=complex)
    for i in range(4):
        denom = np.prod([TVEC[i] - TVEC[j] for j in range(4) if j != i])
        mats[i, 0, 1] = (TVEC[i] - 2.0) / denom  # numerator x - 2, degree 1
    s = SchlesingerState(T1, T2, mats, "Q", _theta())
    with pytest.raises(ConditionIIIViolated):
        extract_lambda(s)


def test_extract_lambda_condition_iv():
    s = _q_state_with_offdiag((2.0, 2.0, 1.0))
    with pytest.raises(ConditionIVViolated):
        extract_lambda(s)


def test_extract_lambda_warns_on_integer_exponents():
    th = ThetaGO(theta=(1.0, 0.47, -0.29, 0.55), k_inf=0.3)
    s = _q_state_with_offdiag((2.0, 3.0, 1.0), theta=th)
    with pytest.warns(UserWarning, match="near-.?integer"):
        extract_lambda(s)


def test_extract_mu_zero_entries():
    s = _q_state_with_offdiag((2.0, 3.0, 1.0))
    assert extract_mu(s, 5.0 + 1.0j) == 0.0


def test_extract_mu_single_pole():
    s = _q_state_with_offdiag((2.0, 3.0, 1.0))
    s.A[0, 0, 0] = 0.7 - 0.2j
    lam = 1.4 + 0.8j
    assert abs(extract_mu(s, lam) - (0.7 - 0.2j) / (lam - T1)) < 1e-15


def test_extract_mu_direct_sum_oracle(b_state):
    q = shift_normalization(b_state, "BtoQ")
    lam = 0.8 + 0.9j
    want = sum(q.A[i, 0, 0] / (lam - q.tvec[i]) for i in range(4))
    assert abs(extract_mu(q, lam) - want) < 1e-15


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _go_state(mu=(0.4 - 0.2j, -0.7 + 0.5j), k_inf=None):
    th = _theta() if k_inf is None else _theta(k_inf)
    return GOState(T1, T2, lam=(0.15 + 0.45j, -0.35 - 0.25j), mu=mu, theta=th)


def test_hamiltonian_vanishes_at_zero_momenta_and_kappa():
    # kappa = 0 requires theta_inf = sum(theta) - 1, i.e. k_inf = sum - 2
    th0 = _theta()
    g = _go_state(mu=(0, 0), k_inf=th0.sum_theta - 2.0)
    assert abs(g.theta.kappa) < 1e-15
    assert abs(hamiltonian_K(1, g)) < 1e-15
    assert abs(hamiltonian_K(2, g)) < 1e-15


def test_hamiltonian_zero_momenta_kappa_term():
    g = _go_state(mu=(0, 0))
    kappa = g.theta.kappa
    for i, (ti, tn) in enumerate(((T1, T2), (T2, T1)), start=1):
        l1, l2 = g.lam
        Mi = -((l1 - ti) * (l2 - ti)) / ((ti - tn) * (ti - 1) * ti)
        want = 0.0
        for k, lk in enumerate(g.lam):
            lo = g.lam[1 - k]
            Mki = (lk - tn) * (lk - 1) * lk / (lk - lo)
            want += Mki * kappa / (lk * (lk - 1))
        want *= Mi
        assert abs(hamiltonian_K(i, g) - want) < 1e-14


def test_hamiltonian_index_symmetry():
    # K_2 equals K_1 after swapping (t1, theta1) <-> (t2, theta2)
    g = _go_state()
    th = g.theta
    swapped = GOState(
        t1=g.t2,
        t2=g.t1,
        lam=g.lam,
        mu=g.mu,
        theta=ThetaGO(theta=(th.theta[1], th.theta[0], th.theta[2], th.theta[3]), k_inf=th.k_inf),
    )
    assert abs(hamiltonian_K(2, g) - hamiltonian_K(1, swapped)) < 1e-14


def test_hamiltonian_guards():
    g = _go_state()
    bad = GOState(g.t1, g.t2, lam=(0.5, 0.5), mu=g.mu, theta=g.theta)
    with pytest.raises(ConditionIVViolated):
        hamiltonian_K(1, bad)
    with pytest.raises(ValueError):
        hamiltonian_K(3, g)


# ---------------------------------------------------------------------------
# vector field and flow
# ---------------------------------------------------------------------------

def test_field_linear_momentum_coefficient_at_zero_mu():
    # at mu = 0 and kappa = 0, dlambda_k/dt_j is the -M_j M^{k,j} * (pole
    # sum) coefficient of the bracket, written out analytically
    th0 = _theta()
    g = _go_state(mu=(0, 0), k_inf=th0.sum_theta - 2.0)
    vf = go_vector_field(g)
    th = g.theta.theta
    ts = (g.t1, g.t2)
    for j in (1, 2):
        tj, tn = ts[j - 1], ts[j % 2]
        Mj = -((g.lam[0] - tj) * (g.lam[1] - tj)) / ((tj - tn) * (tj - 1) * tj)
        for k in (0, 1):
            lk, lo = g.lam[k], g.lam[1 - k]
            Mkj = (lk - tn) * (lk - 1) * lk / (lk - lo)
            pole = sum((th[m - 1] - (1 if m == j else 0)) / (lk - ts[m - 1]) for m in (1, 2))
            pole += th[2] / (lk - 1) + th[3] / lk
            want = -Mj * Mkj * pole
            assert abs(vf["dlam"][j - 1, k] - want) < 1e-12


def test_field_matches_mpmath_gradient():
    # dlambda_k/dt_j = dK_j/dmu_k and dmu_k/dt_j = -dK_j/dlambda_k against
    # mpmath.diff of K_j at 40 digits, over C3's seeds and beyond
    with mpmath.workdps(40):
        for seed in range(300, 340):
            g = extract_go(shift_normalization(_seeded_b_state(seed), "BtoQ"))
            vf = go_vector_field(g)
            lam = [mpmath.mpc(v) for v in g.lam]
            mu = [mpmath.mpc(v) for v in g.mu]
            for j in (1, 2):
                for k in (0, 1):

                    def k_of_mu(z):
                        m = list(mu)
                        m[k] = z
                        return _k_value(j, g.t1, g.t2, lam, m, g.theta)

                    def k_of_lam(z):
                        lm = list(lam)
                        lm[k] = z
                        return _k_value(j, g.t1, g.t2, lm, mu, g.theta)

                    for got, want in (
                        (vf["dlam"][j - 1, k], complex(mpmath.diff(k_of_mu, mu[k]))),
                        (vf["dmu"][j - 1, k], -complex(mpmath.diff(k_of_lam, lam[k]))),
                    ):
                        assert abs(got - want) <= 1e-12 * abs(want), (seed, j, k)


@pytest.mark.parametrize(
    "t1, lam, err",
    [
        (0.0, None, TimeCollision),
        (1.0, None, TimeCollision),
        (T2, None, TimeCollision),
        (T1, (0.15 + 0.45j, 0.15 + 0.45j), ConditionIVViolated),
    ],
    ids=["t1=0", "t1=1", "t1=t2", "lambda1=lambda2"],
)
def test_field_raises_the_typed_errors_of_k(t1, lam, err):
    g = _go_state()
    bad = GOState(t1, g.t2, lam=lam or g.lam, mu=g.mu, theta=g.theta)
    with pytest.raises(err):
        _k_value(1, bad.t1, bad.t2, bad.lam, bad.mu, bad.theta)
    with pytest.raises(err):
        go_vector_field(bad)


@pytest.mark.parametrize("pole", [T1, T2, 1.0, 0.0], ids=["t1", "t2", "1", "0"])
@pytest.mark.parametrize("k", [0, 1])
def test_k_and_field_raise_pole_evaluation_on_a_pole(pole, k):
    # lambda_k exactly on a pole divides by zero in Python complex arithmetic
    g = _go_state()
    lam = list(g.lam)
    lam[k] = pole
    bad = GOState(g.t1, g.t2, lam=tuple(lam), mu=g.mu, theta=g.theta)
    for evaluate in (lambda: hamiltonian_K(1, bad), lambda: hamiltonian_K(2, bad), lambda: go_vector_field(bad)):
        with pytest.raises(PoleEvaluation):
            evaluate()


def _c3_go_start(frac=0.1):
    """C3's seed-300 state and the first ``frac`` of the first C1 leg from its times."""
    g0 = extract_go(shift_normalization(_seeded_b_state(300), "BtoQ"))
    (t1, t2), (u1, u2) = LONG_T_PATH[:2]
    return g0, PathPlan([(t1, t2), (t1 + frac * (u1 - t1), t2 + frac * (u2 - t2))], 0.05)


def test_go_flow_taylor_step_count():
    # work counter: integrate_go at rtol 1e-12 from C3's seed-300 state along
    # a tenth of the first C1 leg takes exactly 6 Taylor steps (the
    # Dormand-Prince field took 410 calls there); a change in the step rule
    # or the coefficients' decay would change it
    g0, path = _c3_go_start()
    with numerics.count_work() as work:
        integrate_go(g0, path, rtol=1e-12)
    assert work["taylor_steps"] == 6


def test_go_taylor_first_coefficient_is_the_field():
    # c_1 of the recurrence is velocity . go_vector_field at the same point,
    # to rounding (measured <= 2.2e-15 relative over these 200 draws), and
    # the radius is the s-distance to t_i in {0, 1} or t1 = t2
    rng = np.random.default_rng(47)
    for seed in range(300, 340):
        g = extract_go(shift_normalization(_seeded_b_state(seed), "BtoQ"))
        prog = garnier_okamoto._go_program(g.theta)
        for _ in range(5):
            dz = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            t, v = (g.t1 + complex(dz[0]), g.t2 + complex(dz[1])), (complex(dz[2]), complex(dz[3]))
            y = np.array([*g.lam, *g.mu]) * (1 + 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            c, radius = garnier_okamoto._go_taylor(prog, t, v, y)
            assert c.shape == (numerics.TAYLOR_ORDER + 1, 4) and np.array_equal(c[0], y)
            vf = go_vector_field(GOState(t[0], t[1], (y[0], y[1]), (y[2], y[3]), g.theta))
            want = np.concatenate([np.array(v) @ vf["dlam"], np.array(v) @ vf["dmu"]])
            assert np.max(np.abs(c[1] - want)) <= 1e-14 * np.max(np.abs(want)), seed
            w = np.array([t[0] - t[1], t[0], t[0] - 1.0, t[1], t[1] - 1.0])
            e = np.array([v[0] - v[1], v[0], v[0], v[1], v[1]])
            assert radius == pytest.approx(np.min(np.abs(w / e)), rel=1e-14)


def _go_recurrence(prog, point, velocity, y):
    """Every basis coefficient X[n, e] of the chord, order by order from the Cauchy products and the quotient recurrence.

    Per order and level: a_n, b_n of each node by one gather, then q_n = sum_j a_j b_n-j for a product and
    q_n = (a_n - sum_j>=1 b_j q_n-j)/b_0 for a quotient; y_n+1 = (v . dy/dt)_n/(n + 1).
    """
    (t1, t2), (v1, v2) = point, velocity
    p = numerics.TAYLOR_ORDER
    X = np.zeros((p + 1, prog.n_basis), dtype=complex)
    X[0, :3], X[1, 1:3], X[0, 3:7] = (1.0, t1, t2), (v1, v2), y
    L = np.zeros((prog.n_basis, p + 1), dtype=complex)  # per product its a, per quotient its own q
    B = np.zeros((prog.n_basis, p + 1), dtype=complex)  # B[e, p - n] = b_n, reversed
    out = v1 * prog.out[0] + v2 * prog.out[1]
    for n in range(p):
        for lo, hi, m, idx, w, _folded in prog.levels:
            ab = np.einsum("qsw,qsw->qs", w, X[n][idx])
            B[lo:hi, p - n], L[lo : lo + m, n] = ab[:, 1], ab[:m, 0]
            q = np.einsum("qj,qj->q", L[lo:hi, : n + 1], B[lo:hi, p - n :])
            q[m:] = (ab[m:, 0] - q[m:]) / B[lo + m : hi, p]
            X[n, lo:hi], L[lo + m : hi, n] = q, q[m:]
        X[n + 1, 3:7] = np.einsum("rb,b->r", out, X[n]) / (n + 1)
    return X


def test_go_taylor_matches_the_order_by_order_recurrence():
    # the folded evaluator against the recurrence, over C3's states with perturbed y and random
    # velocities: c_0 and c_1 are bit-identical, and an order n >= 2 differs only at the rounding of
    # the largest basis coefficient of order n - 1 that forms it (measured <= 1.6e-15 of it over these
    # 200 draws; bound 1e-14, a 6x margin). Relative to an order's own largest entry the two can
    # differ by O(1): where a draw's high orders cancel far below that scale, both are rounding.
    rng = np.random.default_rng(47)
    for seed in range(300, 340):
        g = extract_go(shift_normalization(_seeded_b_state(seed), "BtoQ"))
        prog = garnier_okamoto._go_program(g.theta)
        for _ in range(5):
            dz = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            t, v = (g.t1 + complex(dz[0]), g.t2 + complex(dz[1])), (complex(dz[2]), complex(dz[3]))
            y = np.array([*g.lam, *g.mu]) * (1 + 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            c, _radius = garnier_okamoto._go_taylor(prog, t, v, y)
            X = _go_recurrence(prog, t, v, y)
            assert np.array_equal(c[:2], X[:2, 3:7]), seed
            gap = np.max(np.abs(c[2:] - X[2:, 3:7]), axis=1) / np.max(np.abs(X[1:-1]), axis=1)
            assert np.max(gap) <= 1e-14, seed


@pytest.mark.parametrize("gap", [0.0, 1e-11])
def test_integrate_go_from_a_lambda_collision_raises_condition_iv(gap):
    # 1e-11 relative passes K_i's own 1e-12 check; the step's 1e-10 guard catches it
    g0, path = _c3_go_start()
    l1 = g0.lam[0]
    bad = GOState(g0.t1, g0.t2, lam=(l1, l1 * (1 + gap)), mu=g0.mu, theta=g0.theta)
    with pytest.raises(ConditionIVViolated):
        integrate_go(bad, path)


@pytest.mark.parametrize("where", ["t1=0", "t1=1", "t2=0", "t2=1", "t1=t2"])
def test_go_taylor_raises_time_collision(where):
    # integrate_go's path check keeps its steps off these sets; the step keeps K_i's check
    g = _go_state()
    t = {"t1=0": (0j, T2), "t1=1": (1 + 0j, T2), "t2=0": (T1, 0j), "t2=1": (T1, 1 + 0j), "t1=t2": (T2, T2)}[where]
    with pytest.raises(TimeCollision):
        garnier_okamoto._go_taylor(garnier_okamoto._go_program(g.theta), t, (1 + 0j, 0j), np.array([*g.lam, *g.mu]))


@pytest.mark.parametrize("pole", ["t1", "t2", "1", "0"])
@pytest.mark.parametrize("k", [0, 1])
def test_integrate_go_from_lambda_on_a_pole_raises_singularity_approach(pole, k):
    # lambda_k = t_m divides by zero in the first coefficient: the driver's
    # finiteness check raises SingularityApproach, never ZeroDivisionError,
    # a bare ValueError or a NaN end state
    g0, path = _c3_go_start()
    lam = list(g0.lam)
    lam[k] = {"t1": g0.t1, "t2": g0.t2, "1": 1.0 + 0j, "0": 0j}[pole]
    bad = GOState(g0.t1, g0.t2, lam=tuple(lam), mu=g0.mu, theta=g0.theta)
    with pytest.raises(SingularityApproach, match="non-finite Taylor coefficient"):
        integrate_go(bad, path)


def test_integrate_go_rejects_a_path_not_starting_at_the_state():
    # a path from t1 + 0.1 would relabel the state's (lambda, mu) as the state there
    g0, _path = _c3_go_start()
    path = PathPlan([(g0.t1 + 0.1, g0.t2), (g0.t1 + 0.1, g0.t2 + 0.05)], 0.05)
    with pytest.raises(ValueError, match="start at the state"):
        integrate_go(g0, path)


@pytest.mark.parametrize("rtol", [0.0, 1.0, -1e-12, 2.0])
def test_integrate_go_rejects_rtol_outside_the_unit_interval(rtol):
    g0, path = _c3_go_start()
    with pytest.raises(ValueError, match="rtol"):
        integrate_go(g0, path, rtol=rtol)


def test_flow_matches_schlesinger_extraction(b_state):
    # cross-picture: integrate both sides, compare endpoints
    q0 = shift_normalization(b_state, "BtoQ")
    g0 = extract_go(q0)
    path = PathPlan([(q0.t1, q0.t2), (q0.t1 + 0.09 + 0.12j, q0.t2 - 0.06 - 0.1j)], 0.03)
    traj = integrate_schlesinger(q0, path, samples=[0.25, 0.5, 0.75])
    for _s, st in traj:
        # back-substitution residual at every stored trajectory point
        l1, l2, _x = extract_lambda(st)
        scale = np.max(np.abs(st.A[:, 0, 1]))
        for lk in (l1, l2):
            q12 = sum(st.A[i, 0, 1] / (lk - st.tvec[i]) for i in range(4))
            assert abs(q12) < 1e-11 * scale
    end_s = extract_go(traj[-1][1])
    end_g = integrate_go(g0, path, rtol=1e-11)[-1][1]
    lam_err = min(
        abs(end_s.lam[0] - end_g.lam[0]) + abs(end_s.lam[1] - end_g.lam[1]),
        abs(end_s.lam[0] - end_g.lam[1]) + abs(end_s.lam[1] - end_g.lam[0]),
    )
    mu_err = min(
        abs(end_s.mu[0] - end_g.mu[0]) + abs(end_s.mu[1] - end_g.mu[1]),
        abs(end_s.mu[0] - end_g.mu[1]) + abs(end_s.mu[1] - end_g.mu[0]),
    )
    scale = max(abs(v) for v in end_s.lam + end_s.mu)
    assert lam_err / scale < 1e-6 and mu_err / scale < 1e-6


@pytest.mark.parametrize("jitter", range(3))
def test_go_flow_matches_the_schlesinger_flow_at_the_benchmark_geometry(jitter):
    # perfbench's flow_paths GO op: C3's seed-300 state along 30% of the first C1 leg at rtol 1e-12,
    # its end moved by up to 0.005. The GO flow and extract_go of the Schlesinger flow differ by
    # 9.6e-13..1.02e-12 of the largest entry (bound 3e-12, a 2.9x margin), and the GO flow takes
    # 24 Taylor steps on each of these three paths; a change in the step rule or the
    # coefficients' decay would change the count.
    q0 = shift_normalization(_seeded_b_state(300), "BtoQ")
    rng = np.random.default_rng(jitter)
    (t1, t2), (u1, u2) = LONG_T_PATH[:2]
    u1, u2 = (u + 0.005 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for u in (u1, u2))
    path = PathPlan([(t1, t2), (t1 + 0.3 * (u1 - t1), t2 + 0.3 * (u2 - t2))], 0.05)
    with numerics.count_work() as work:
        g_end = integrate_go(extract_go(q0), path, rtol=1e-12)[-1][1]
    s_end = extract_go(integrate_schlesinger(q0, path, rtol=1e-12)[-1][1])
    lam, mu = np.array(s_end.lam), np.array(s_end.mu)
    if abs(lam[0] - g_end.lam[0]) > abs(lam[1] - g_end.lam[0]):  # extraction orders the roots
        lam, mu = lam[::-1], mu[::-1]
    want = np.array([*g_end.lam, *g_end.mu])
    gap = np.max(np.abs(np.concatenate([lam, mu]) - want)) / np.max(np.abs(want))
    assert work["taylor_steps"] == 24
    assert gap <= 3e-12


def test_flow_retrace(b_state):
    g0 = extract_go(shift_normalization(b_state, "BtoQ"))
    there = (g0.t1 + 0.08 + 0.1j, g0.t2 - 0.07 - 0.06j)
    loop = PathPlan([(g0.t1, g0.t2), there, (g0.t1, g0.t2)], 0.03)
    end = integrate_go(g0, loop, rtol=1e-11)[-1][1]
    err = max(abs(a - b) for a, b in zip(end.lam + end.mu, g0.lam + g0.mu))
    assert err < 1e-7


def test_flow_single_time_restriction(b_state):
    # a t2-constant segment only engages the K_1 flow
    g0 = extract_go(shift_normalization(b_state, "BtoQ"))
    dt = 0.02 + 0.01j
    path = PathPlan([(g0.t1, g0.t2), (g0.t1 + dt, g0.t2)], 0.03)
    end = integrate_go(g0, path, rtol=1e-11)[-1][1]
    # first-order prediction from the t1-component of the field alone
    vf = go_vector_field(g0)
    pred = np.array(g0.lam) + dt * vf["dlam"][0]
    assert np.max(np.abs(np.array(end.lam) - pred)) < 5e-3 * max(1, abs(dt))


# ---------------------------------------------------------------------------
# scalar-equation coefficients
# ---------------------------------------------------------------------------

def _coeff_fixture(b_state):
    g = extract_go(shift_normalization(b_state, "BtoQ"))
    return g, hamiltonian_K(1, g), hamiltonian_K(2, g)


def test_garx_pole_residues_at_t(b_state):
    g, K1, K2 = _coeff_fixture(b_state)
    eps = 1e-7
    for i in range(4):
        ti = g.tvec[i]
        got = garx_coefficients(g, K1, K2, ti + eps, min_dist=1e-9)[0] * eps
        want = g.theta.theta[i] - 1.0
        assert abs(got - want) < 1e-4, f"pole {i}"


def test_garx_unit_residues_at_apparent_singularities(b_state):
    g, K1, K2 = _coeff_fixture(b_state)
    eps = 1e-7
    for lk in g.lam:
        got = garx_coefficients(g, K1, K2, lk + eps, min_dist=1e-9)[0] * eps
        assert abs(got - 1.0) < 1e-4


def test_garx_large_x_decay(b_state):
    g, K1, K2 = _coeff_fixture(b_state)
    x = 1e6 + 0.7j
    got = garx_coefficients(g, K1, K2, x)[0] * x
    want = sum(t - 1 for t in g.theta.theta) + 2.0
    assert abs(got - want) < 1e-5


def test_go_state_json(b_state):
    g = extract_go(shift_normalization(b_state, "BtoQ"))
    d = g.to_json()
    assert set(d) == {"t1", "t2", "lambda", "mu", "theta", "kappa"}
    assert len(d["lambda"]) == 2 and len(d["mu"]) == 2
