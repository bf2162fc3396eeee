"""Property tests over random inputs: space-variable map, quadratic roots, logs continued
along cleared chords, seeded Schlesinger data, the coordinate bridge, the Taylor series of Phi in x
and the Taylor steps of the Schlesinger, polynomial Garnier and Garnier-Okamoto flows."""

import cmath
import math
from functools import partial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from garnier_lab.errors import GarnierLabError, PathViolation
from garnier_lab.garnier_okamoto import GOState, go_vector_field, integrate_go
from garnier_lab import numerics
from garnier_lab.numerics import PathPlan, check_clearance, ode_integrate, quad_roots
from garnier_lab.poly_garnier import (
    PGState,
    ThetaPG,
    _pg_values,
    bridge_lambda_from_q,
    bridge_q_from_lambda,
    integrate_pg,
)
from garnier_lab.quantization import Frame, PhiNode, TNode, _x_series, zeta_eta_inverse, zeta_eta_map
from garnier_lab.schlesinger import (
    T3,
    T4,
    SchlesingerState,
    ThetaGO,
    _flow_dA,
    gen_schlesinger_b,
    integrate_schlesinger,
    shift_normalization,
    time_constraints,
)


def _complex(lo_re, hi_re, lo_im, hi_im):
    return st.builds(
        complex,
        st.floats(lo_re, hi_re, allow_subnormal=False),
        st.floats(lo_im, hi_im, allow_subnormal=False),
    )


# (x, y) pairs in the upper half-plane where the lab samples, times near the
# real segment (0, 1) like every seeded state
_POINT = _complex(-0.5, 1.5, 0.5, 2.0)
_TIME = _complex(0.1, 0.9, -0.1, 0.1)
_COEF = _complex(-10.0, 10.0, -10.0, 10.0)
_THETA = _complex(-0.7, 0.7, -0.3, 0.3)
_Q = _complex(-0.8, 0.8, -0.4, 0.4)
_ENTRY = _complex(-2.0, 2.0, -2.0, 2.0)
_HOP = _complex(-0.1, 0.1, -0.1, 0.1)

# derandomized: the same examples on every run, nothing written to disk
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(_POINT, _POINT, _TIME, _TIME)
def test_zeta_eta_roundtrip(x, y, t1, t2):
    assume(abs(x - y) > 0.1 and abs(t1 - t2) > 0.1)
    zeta, eta = zeta_eta_map(x, y, t1, t2)
    xx, yy = zeta_eta_inverse(zeta, eta, t1, t2, (x, y))
    assert abs(xx - x) + abs(yy - y) <= 1e-10


@_SETTINGS
@given(_COEF, _COEF, _COEF)
def test_quad_roots_vieta(a, b, c):
    assume(abs(a) > 1e-3)
    r1, r2 = quad_roots(a, b, c)
    eps = np.finfo(float).eps
    assert abs(r1) >= abs(r2)
    # the product is accurate to relative rounding error, the sum to the
    # rounding error of the larger root
    assert abs(r1 * r2 - c / a) <= 16 * eps * abs(c / a)
    assert abs((r1 + r2) + b / a) <= 16 * eps * (abs(r1) + abs(b / a))


# chord ratios w1/w0: anywhere, or close to the negative real axis, where
# the chord passes close to 0 and the principal log of w1 alone would jump
_RATIO = st.one_of(
    _COEF,
    st.builds(lambda a, d: -a * cmath.exp(1j * d), st.floats(0.01, 100.0), st.floats(-0.3, 0.3)),
)


def _log_over_sub_chords(l0, w0, w1):
    """log w continued from (w0, l0) to w1 over sub-chords short enough for principal logs; their count."""
    dw, s, a, parts = w1 - w0, 0.0, w0, []
    while s < 1.0:
        # each sub-chord moves w by at most a quarter of its distance from 0;
        # the inner points' rounding cancels from the sum, the ends are exact
        s = min(1.0, s + 1e-3, s + 0.25 * abs(a) / abs(dw))
        b = w1 if s == 1.0 else w0 + s * dw
        parts.append(cmath.log(b / a))
        a = b
    return l0 + complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts)), len(parts)


@_SETTINGS
@given(_COEF, _RATIO, st.integers(2, 8))
def test_chord_log_matches_the_log_continued_over_sub_chords(w0, ratio, digits):
    # every chord that check_clearance accepts misses 0, so the principal
    # log of the ratio is the whole continuation of log w along it
    w1 = w0 * ratio
    assume(abs(w0) > 1e-2 and abs(w1 - w0) > 1e-6 * abs(w0))
    try:
        check_clearance(w0, w1, 10.0**-digits * max(abs(w0), abs(w1)), ["w = 0"])
    except PathViolation:
        assume(False)
    l0 = cmath.log(w0)
    want, n_sub = _log_over_sub_chords(l0, w0, w1)
    assert n_sub >= 1000
    assert abs(l0 + np.log(w1 / w0) - want) <= 1e-12


@_SETTINGS
@given(st.lists(_THETA, min_size=4, max_size=4), st.integers(0, 2**31 - 1))
def test_gen_schlesinger_b_invariants(theta, seed):
    s = gen_schlesinger_b(theta, seed=seed)
    B = s.A
    size = 1.0 + float(np.max(np.abs(B)))
    for b, th in zip(B, theta):
        assert abs(b[0, 0] + b[1, 1]) <= 1e-13 * size
        assert abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0] + th * th / 4.0) <= 1e-13 * size**2
    k_inf = s.theta.k_inf
    assert np.max(np.abs(B.sum(axis=0) - np.diag([k_inf / 2.0, -k_inf / 2.0]))) <= 1e-13 * size
    assert abs(k_inf) >= 0.05  # the eigenvalue gap of B_inf
    q = shift_normalization(s, "BtoQ")
    assert abs(np.einsum("i,i->", q.tvec, q.A[:, 0, 1])) >= 0.05  # |x_lead|


@_SETTINGS
@given(_Q, _Q, _TIME, _TIME)
def test_bridge_round_trip_off_the_reduction_locus(q1, q2, t1, t2):
    assume(abs(1.0 - q1 - q2) > 0.05 and abs(t1 - t2) > 0.1)
    lam1, lam2 = bridge_lambda_from_q(q1, q2, t1, t2)
    assume(abs(lam1 - 1.0) > 0.05 and abs(lam2 - 1.0) > 0.05)  # poles of the inverse bridge
    qq1, qq2 = bridge_q_from_lambda(lam1, lam2, t1, t2)
    assert abs(qq1 - q1) + abs(qq2 - q2) <= 1e-11 * (1.0 + abs(q1) + abs(q2))


_X_FRAME = Frame(gen_schlesinger_b([0.31 - 0.12j, 0.47 + 0.08j, -0.29 + 0.21j, 0.55 - 0.03j], seed=11), 0.45 + 1.1j)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    _TIME, _TIME, st.lists(_ENTRY, min_size=12, max_size=12), _POINT, _POINT, st.lists(_ENTRY, min_size=4, max_size=4)
)
def test_x_series_matches_ode_integrate_on_the_same_field(t1, t2, abc, x0, x1, y0):
    # Phi_x = M(x) Phi, M = sum_i A_i/(x - t_i) with random traceless A_i, on a
    # hop in the upper half-plane, clear of the times near the real axis:
    # phi_node walks it in Taylor steps at the default rtol (measured <=
    # 3.7e-13 from the reference in 400 draws), and a one-row phi_nodes sums
    # one series within its step (measured <= 2.1e-14)
    assume(abs(t1 - t2) > 0.05 and abs(x1 - x0) > 1e-3)
    t = np.array([t1, t2, 1.0, 0.0])
    A = np.array([[[a, b], [c, -a]] for a, b, c in zip(abc[0::3], abc[1::3], abc[2::3])])
    tnode = TNode(t, A, 0.0j, np.zeros(6, dtype=complex))
    anchor = PhiNode(x0, t, np.reshape(y0, (2, 2)), np.log(x0 - t))
    coeffs = partial(_x_series, t, A)
    h = float(numerics._taylor_step(*coeffs(x0, x1 - x0, anchor.phi.ravel()), numerics.DEFAULT_RTOL, (x0,))[0])
    x_step = x0 + min(1.0, 0.9 * h) * (x1 - x0)

    def field(z, v, y):
        return (v * (np.einsum("i,iab->ab", 1.0 / (z - t), A) @ y.reshape(2, 2))).ravel()

    walked = _X_FRAME.phi_node(x1, tnode, anchor)
    (summed,) = _X_FRAME.phi_nodes([(x_step, tnode, anchor)])
    for x, node, rel in ((x1, walked, numerics.DEFAULT_RTOL), (x_step, summed, 1e-13)):
        ref = ode_integrate(field, anchor.phi.ravel(), PathPlan([x0, x], 0.05), rtol=1e-13)[-1][1].reshape(2, 2)
        assert np.max(np.abs(node.phi - ref)) <= rel * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_TIME, _TIME, st.lists(_ENTRY, min_size=12, max_size=12), _HOP, _HOP)
def test_taylor_flow_matches_dp5_reference(t1, t2, abc, d1, d2):
    # random traceless residues on a short chord clear of the fixed singular
    # sets; reference: ode_integrate over the dA field at rtol 1e-13
    assume(abs(d1) + abs(d2) > 1e-3)
    A = np.array([[[a, b], [c, -a]] for a, b, c in zip(abc[0::3], abc[1::3], abc[2::3])])
    path = PathPlan([(t1, t2), (t1 + d1, t2 + d2)], 0.05)
    try:
        path.validate_against(time_constraints())
    except PathViolation:
        assume(False)

    def field(point, velocity, y):
        return _flow_dA(y.reshape(4, 2, 2), np.array([*point, T3, T4]), np.array([*velocity, 0.0, 0.0]))[0].ravel()

    traj = ode_integrate(field, A.ravel(), path, rtol=1e-13, samples=[k / 8 for k in range(1, 8)])
    # near a movable pole |A| grows and both integrators lose digits as |A|^2;
    # compare where the flow stays within 10x of its start
    assume(max(np.max(np.abs(y)) for _s, y in traj) <= 10 * np.max(np.abs(A)))
    ref = traj[-1][1]
    got = integrate_schlesinger(SchlesingerState(t1, t2, A, "B", ThetaGO((0.0,) * 4, 0.0)), path)[-1][1].A
    # measured: <= 7.1e-13 over 532 such draws
    assert np.max(np.abs(got.ravel() - ref)) <= 1e-11 * np.max(np.abs(ref))


def _pg_field(th, point, velocity, y):
    """d(q1, q2, p1, p2, ln u)/ds at (t1, t2) = point as dt/ds = velocity, from the one body of the right-hand
    sides: the Dormand-Prince reference of the Taylor series, as hop_pg's field was before them."""
    D0, D1, g1, g2 = _pg_values(point[0], point[1], y[0], y[1], y[2], y[3], th)
    v = np.array(velocity, dtype=complex)
    return np.concatenate([v @ np.array([D0, D1], dtype=complex), [v[0] * g1 + v[1] * g2]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_TIME, _TIME, st.lists(_Q, min_size=4, max_size=4), st.lists(_THETA, min_size=5, max_size=5), _HOP, _HOP)
def test_pg_taylor_flow_matches_dp5_reference(t1, t2, qp, thetas, d1, d2):
    # random state and exponents on a short chord clear of the fixed singular
    # sets, with ln u; reference: ode_integrate over the field _pg_field at rtol 1e-13
    assume(abs(d1) + abs(d2) > 1e-3)
    th = ThetaPG(*thetas, -sum(thetas))
    s0 = PGState(t1, t2, *qp, th)
    path = PathPlan([(t1, t2), (t1 + d1, t2 + d2)], 0.05)
    try:
        path.validate_against(time_constraints())
    except PathViolation:
        assume(False)
    y0 = np.array([*qp, 0.0], dtype=complex)
    traj = ode_integrate(partial(_pg_field, th), y0, path, rtol=1e-13, samples=[k / 8 for k in range(1, 8)])
    # the flow has movable poles: compare where it stays within 10x of its start
    assume(max(np.max(np.abs(y)) for _s, y in traj) <= 10 * np.max(np.abs(y0)))
    ref = traj[-1][1]
    _s, end, ln_u = integrate_pg(s0, path, with_lnu=True)[-1]
    got = np.array([end.q1, end.q2, end.p1, end.p2, ln_u])
    # measured: <= 5.6e-13 over 440 such draws, median 5e-14
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


_LAMBDA = _complex(-0.5, 1.5, -0.5, 0.5)
_MU = _complex(-4.0, 4.0, -4.0, 4.0)
_SHORT_HOP = _complex(-0.05, 0.05, -0.05, 0.05)


# 20 examples: the reference takes up to ~0.9 s per example, the Taylor side ~0.05 s
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_TIME, _TIME, st.lists(_LAMBDA, min_size=2, max_size=2), st.lists(_MU, min_size=2, max_size=2),
       st.lists(_THETA, min_size=4, max_size=4), _COEF, _SHORT_HOP, _SHORT_HOP)
def test_go_taylor_flow_matches_dp5_reference(t1, t2, lam, mu, thetas, k_inf, d1, d2):
    # random (lambda, mu) and exponents on a short chord clear of the fixed
    # singular sets, lambda_1, lambda_2 and the poles apart; reference:
    # ode_integrate over go_vector_field at rtol 1e-12
    assume(abs(d1) + abs(d2) > 1e-3)
    assume(abs(lam[0] - lam[1]) > 0.05 and min(abs(lk - t) for lk in lam for t in (t1, t2, 1.0, 0.0)) > 0.05)
    path = PathPlan([(t1, t2), (t1 + d1, t2 + d2)], 0.05)
    try:
        path.validate_against(time_constraints())
    except PathViolation:
        assume(False)
    g0 = GOState(t1, t2, tuple(lam), tuple(mu), ThetaGO(tuple(thetas), k_inf))

    def field(point, velocity, y):
        vf = go_vector_field(GOState(point[0], point[1], (y[0], y[1]), (y[2], y[3]), g0.theta))
        return np.concatenate([np.array(velocity) @ vf["dlam"], np.array(velocity) @ vf["dmu"]])

    y0 = np.array([*lam, *mu], dtype=complex)
    try:
        traj = ode_integrate(field, y0, path, rtol=1e-12, samples=[k / 8 for k in range(1, 8)])
    except GarnierLabError:  # the reference ran into a movable singularity
        assume(False)
    # the flow has movable poles: compare where it stays within 10x of its start
    assume(max(np.max(np.abs(y)) for _s, y in traj) <= 10 * np.max(np.abs(y0)))
    ref = traj[-1][1]
    end = integrate_go(g0, path, rtol=1e-12)[-1][1]
    got = np.array([*end.lam, *end.mu])
    # measured: <= 2.4e-12 over these 20 draws, median 1.7e-13; <= 4.1e-11 with |mu| to 10
    # and hops to 0.1 (40 draws)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
