"""Polynomial Hamiltonians, explicit flows, linearization, bridges, PVI."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from garnier_lab.errors import (
    NotOnReduction,
    PathViolation,
    PoleEvaluation,
    ReductionLocus,
    ResonantInfinity,
    SingularityApproach,
    TimeCollision,
    ZeroGauge,
)
from garnier_lab import garnier_okamoto, numerics, poly_garnier
from garnier_lab.garnier_okamoto import extract_go
from garnier_lab.numerics import FDScheme, PathPlan, combine_stencil, fd_derivative, ode_integrate, stencil_multipliers
from garnier_lab.poly_garnier import (
    PGState,
    ThetaPG,
    ahat_matrices,
    bridge_lambda_from_q,
    bridge_q_from_lambda,
    elem_a,
    find_fixed_point,
    gen_pg,
    hamiltonian_HGar,
    hop_pg,
    integrate_pg,
    mu_p_relations,
    omega_to_t1,
    pg_rhs_explicit,
    pvi_hamiltonian,
    pvi_reduce,
    pvi_rhs,
    random_theta_pg,
    raw_rhs_pair,
    to_schlesinger,
    u_logderiv,
)

from conftest import fixed_step_hop


def _theta(**over):
    base = dict(th0=0.21 - 0.07j, th1=-0.33 + 0.11j, tht1=0.4 + 0.06j, tht2=-0.18 - 0.2j)
    base["thinf1"] = 0.52 + 0.13j
    base["thinf2"] = -(sum(base.values()))
    base.update(over)
    return ThetaPG(**base)


def _state(**over):
    defaults = dict(
        t1=0.28 + 0.03j,
        t2=0.71 - 0.06j,
        q1=0.45 - 0.21j,
        q2=-0.38 + 0.52j,
        p1=0.62 + 0.33j,
        p2=-0.27 - 0.44j,
        params=_theta(),
    )
    defaults.update(over)
    return PGState(**defaults)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_zero_momenta():
    s = _state(p1=0, p2=0)
    th = s.params
    for i, (qi, ti) in enumerate(((s.q1, s.t1), (s.q2, s.t2)), start=1):
        want = th.thinf2 * (th.thinf2 + th.th1) * qi / (ti * (ti - 1))
        assert abs(hamiltonian_HGar(i, s) - want) < 1e-15


def test_hamiltonian_zero_coordinates():
    # the Hamiltonian keeps theta^{t_i}(q_i-1)(q_i-t_i)p_i, which at q = 0
    # leaves t_i theta^{t_i} p_i (the only surviving term)
    s = _state(q1=0, q2=0)
    th = s.params
    for i, (pi, ti, thti) in enumerate(((s.p1, s.t1, th.tht1), (s.p2, s.t2, th.tht2)), start=1):
        want = ti * thti * pi / (ti * (ti - 1))
        assert abs(hamiltonian_HGar(i, s) - want) < 1e-15


def _hamiltonian_oracle(i, s):
    """Independent term-by-term transcription (different grouping)."""
    th = s.params
    if i == 1:
        ti, tn, qi, qn, pi, pn, a, b = s.t1, s.t2, s.q1, s.q2, s.p1, s.p2, th.tht1, th.tht2
    else:
        ti, tn, qi, qn, pi, pn, a, b = s.t2, s.t1, s.q2, s.q1, s.p2, s.p1, th.tht2, th.tht1
    t0, t1c, i2 = th.th0, th.th1, th.thinf2
    terms = [
        qi * (qi - 1) * (qi - ti) * pi * pi,
        (t0 + b + 1) * qi * (qi - 1) * pi,
        -(2 * i2 + t1c + t0 + a + b + 1) * qi * (qi - ti) * pi,
        a * (qi - 1) * (qi - ti) * pi,
        i2 * (i2 + t1c) * qi,
        (2 * qi * pi + qn * pn - t1c - 2 * i2) * qi * qn * pn,
        -ti * (ti - 1) * (pi * qi + a) * pi * qn / (ti - tn),
        ti * (tn - 1) * (2 * pi * qi + a) * pn * qn / (ti - tn),
        -tn * (ti - 1) * qi * (pn * pn * qn + b * (pn - pi)) / (ti - tn),
    ]
    return sum(terms) / (ti * (ti - 1))


def test_hamiltonian_second_implementation_oracle(rng):
    for k in range(25):
        th = random_theta_pg(900 + k)
        s = gen_pg(th, 950 + k)
        for i in (1, 2):
            got = hamiltonian_HGar(i, s)
            want = _hamiltonian_oracle(i, s)
            assert abs(got - want) < 1e-13 * (1 + abs(want))


def test_hamiltonian_time_guards():
    with pytest.raises(TimeCollision):
        hamiltonian_HGar(1, _state(t1=0.0))
    with pytest.raises(TimeCollision):
        hamiltonian_HGar(1, _state(t2=0.28 + 0.03j, t1=0.28 + 0.03j))


# ---------------------------------------------------------------------------
# explicit right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_momentum_free_truncation():
    # with p = 0 only the four momentum-free terms of the q_i equation remain
    s = _state(p1=0, p2=0)
    th = s.params
    t1, t2, q1, q2 = s.t1, s.t2, s.q1, s.q2
    b = th.th1 + 2 * th.thinf2
    want = (
        -b * q1**2
        - (1 + th.th0 + th.tht1 + th.tht2) * q1
        + (1 + b + th.th0 + th.tht2) * t1 * q1
        + t1 * th.tht1
        + (t1 - 1) / (t1 - t2) * (t2 * th.tht2 * q1 - t1 * th.tht1 * q2)
    )
    got = pg_rhs_explicit(s)[0, 0] * (t1 * (t1 - 1))
    assert abs(got - want) < 1e-14


def test_rhs_coinciding_right_parts():
    for k in range(10):
        s = gen_pg(random_theta_pg(20 + k), 60 + k)
        r_opo, r_tqo = raw_rhs_pair(s)
        assert r_opo == r_tqo  # identical expressions, identical floats


def test_rhs_matches_hamiltonian_partials():
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = stencil_multipliers(scheme, (1,))
    for k in range(20):
        s = gen_pg(random_theta_pg(100 + k), 140 + k)
        D = pg_rhs_explicit(s)

        def partial(i, name):
            h = scheme.scaled_step(getattr(s, name))
            vals = {m: hamiltonian_HGar(i, replace(s, **{name: getattr(s, name) + m * h})) for m in mults}
            return combine_stencil(vals, h, scheme, 1)

        for row, i in enumerate((1, 2)):
            ham = np.array([partial(i, "p1"), partial(i, "p2"), -partial(i, "q1"), -partial(i, "q2")])
            scale = np.max(np.abs(D[row])) + 1e-300
            assert np.max(np.abs(D[row] - ham)) / scale < 1e-8, f"flow {i}"


def test_flow_retrace_and_commutation():
    s0 = _state()
    a, b = (s0.t1, s0.t2), (s0.t1 + 0.1 + 0.08j, s0.t2 - 0.09 - 0.05j)
    loop = PathPlan([a, b, a], 0.03)
    end = integrate_pg(s0, loop)[-1][1]
    for name in ("q1", "q2", "p1", "p2"):
        assert abs(getattr(end, name) - getattr(s0, name)) < 1e-8, name
    # t1-then-t2 vs t2-then-t1
    mid1 = (b[0], a[1])
    mid2 = (a[0], b[1])
    e1 = integrate_pg(s0, PathPlan([a, mid1, b], 0.03))[-1][1]
    e2 = integrate_pg(s0, PathPlan([a, mid2, b], 0.03))[-1][1]
    for name in ("q1", "q2", "p1", "p2"):
        assert abs(getattr(e1, name) - getattr(e2, name)) < 1e-7, name


def test_flow_constant_at_fixed_point():
    # t-uniform equilibria need special exponents: theta^{t_i} = 0 and
    # theta_2^inf = 0 put one at the origin of phase space
    th = ThetaPG(th0=0.21 - 0.07j, th1=-0.33 + 0.11j, tht1=0.0, tht2=0.0,
                 thinf1=-(0.21 - 0.07j) - (-0.33 + 0.11j), thinf2=0.0)
    s_star = find_fixed_point(th, 0.28 + 0.03j, 0.71 - 0.06j, seed=11)
    assert s_star is not None, "seeded search found no fixed point"
    assert np.max(np.abs(pg_rhs_explicit(s_star))) < 1e-9
    path = PathPlan(
        [(s_star.t1, s_star.t2), (s_star.t1 + 0.05 + 0.04j, s_star.t2 - 0.05j)], 0.03
    )
    end = integrate_pg(s_star, path)[-1][1]
    for name in ("q1", "q2", "p1", "p2"):
        assert abs(getattr(end, name) - getattr(s_star, name)) < 1e-8, name


def _old_pg_field(s0):
    """integrate_pg's field with ln u before the eight right-hand sides had one body:
    a PGState per call, then pg_rhs_explicit and u_logderiv on it."""

    def field(point, velocity, y):
        st = replace(s0, t1=point[0], t2=point[1], q1=y[0], q2=y[1], p1=y[2], p2=y[3])
        D = pg_rhs_explicit(st)
        v = np.array(velocity, dtype=complex)
        dy = np.zeros(5, dtype=complex)
        dy[:4] = v @ D
        g1, g2 = u_logderiv(st)
        dy[4] = v[0] * g1 + v[1] * g2
        return dy

    return field


def _pg_field(s0, rows=5):
    """d(q1, q2, p1, p2, ln u)/ds at the exponents of s0 from the one body of the right-hand sides, the field
    hop_pg took Dormand-Prince steps on before its Taylor series; with rows=4 its (q1, q2, p1, p2) rows."""

    def field(point, velocity, y):
        D0, D1, g1, g2 = poly_garnier._pg_values(point[0], point[1], y[0], y[1], y[2], y[3], s0.params)
        v = np.array(velocity, dtype=complex)
        dy = np.empty(5, dtype=complex)
        dy[:4] = v @ np.array([D0, D1], dtype=complex)
        dy[4] = v[0] * g1 + v[1] * g2
        return dy[:rows]

    return field


def _c5_start(k=0):
    """Start state and path of criterion C5's k-th trajectory."""
    s0 = gen_pg(random_theta_pg(500 + 3 * k), 500 + 3 * k + 1)
    return s0, PathPlan([(s0.t1, s0.t2), (s0.t1 + 0.10 + 0.16j, s0.t2 - 0.08 - 0.12j)], 0.04)


def test_pg_field_matches_old_field():
    rng = np.random.default_rng(41)
    for k in range(4):
        s0, _path = _c5_start(k)
        field, old = _pg_field(s0), _old_pg_field(s0)
        for _ in range(6):
            dz = 0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            point = (s0.t1 + complex(dz[0]), s0.t2 + complex(dz[1]))
            velocity = (complex(dz[2]), complex(dz[3]))
            y = np.array([s0.q1, s0.q2, s0.p1, s0.p2, 0.3 - 0.1j], dtype=complex)
            y += 0.2 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
            assert np.array_equal(field(point, velocity, y), old(point, velocity, y))


def test_integrate_pg_matches_old_field_on_c5_path():
    # every stored state of C5's first trajectory, Taylor steps against DP5
    # over the PGState-per-call field at rtol 1e-13 (measured: 1.1e-13 here,
    # <= 5.8e-13 over the first 18 of C5's trajectories)
    s0, path = _c5_start()
    got = integrate_pg(s0, path, samples=[0.5], with_lnu=True)
    y0 = np.array([s0.q1, s0.q2, s0.p1, s0.p2, 0.0], dtype=complex)
    ref = ode_integrate(_old_pg_field(s0), y0, path, rtol=1e-13, samples=[0.5])
    assert len(got) == len(ref) == 3
    for (s, st, lnu), (s_ref, y) in zip(got, ref):
        assert s == s_ref
        assert np.max(np.abs(np.array([st.q1, st.q2, st.p1, st.p2, lnu]) - y)) <= 1e-12 * np.max(np.abs(y))


def test_hop_pg_matches_rows_alone_and_old_field_loop():
    # C5's stencil hops (every offset of both directions) from each stored
    # state of its first trajectory: each offset of one series bit for bit
    # as that offset alone, and 24 fixed Dormand-Prince steps of the old
    # field, the hops' former scheme, to rounding (measured <= 7.6e-16 over
    # C5's five trajectories)
    s0, path = _c5_start()
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]
    for _s, st in integrate_pg(s0, path, samples=[0.5]):
        t0 = np.array([st.t1, st.t2])
        old = _old_pg_field(st)
        y0 = np.array([st.q1, st.q2, st.p1, st.p2, 0.0], dtype=complex)
        for d in (0, 1):
            offsets = [m * scheme.scaled_step(t0[d]) for m in mults]
            for m, (st1, dlnu) in zip(offsets, hop_pg(st, d, offsets, 0.005)):
                t_new = t0.copy()
                t_new[d] += m
                assert (st1.t1, st1.t2) == tuple(t_new)
                got = np.array([st1.q1, st1.q2, st1.p1, st1.p2, dlnu])
                ((alone, dlnu_alone),) = hop_pg(st, d, [m], 0.005)
                assert np.array_equal(got, [alone.q1, alone.q2, alone.p1, alone.p2, dlnu_alone])
                ref = fixed_step_hop(lambda t, v, y: old(tuple(t.tolist()), v, y), y0, t0, t_new, 24)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_hop_pg_makes_one_taylor_call_per_stencil(monkeypatch):
    # every offset of a stencil is a Horner sum of one series from its centre
    s0, _path = _c5_start()
    calls = []
    real = poly_garnier._pg_taylor
    monkeypatch.setattr(poly_garnier, "_pg_taylor", lambda *args, **kw: calls.append(args[1:3]) or real(*args, **kw))
    hops = hop_pg(s0, 1, [2e-5, -1e-5, 1e-5j, -2e-5j, 3e-5 - 1e-5j], 0.005)
    assert len(hops) == 5 and calls == [((s0.t1, s0.t2), (0.0, 1.0))]


def test_hop_pg_rejects_an_offset_past_the_taylor_step():
    # the series' radius from C5's start is the distance to its nearest fixed
    # singular set; an offset a tenth of the way there is far past the step
    s0, _path = _c5_start()
    reach = min(abs(s0.t1), abs(s0.t1 - 1.0), abs(s0.t1 - s0.t2))
    with pytest.raises(SingularityApproach, match="past the Taylor step") as info:
        hop_pg(s0, 0, [1e-5, -0.1 * reach], 1e-7)
    assert info.value.location == (s0.t1 - 0.1 * reach, s0.t2)


def test_hop_pg_returns_the_start_at_a_zero_offset():
    # as Frame.shift_t: a zero offset is no hop, so no one-point path is
    # checked for it (PathPlan would reject one); it returns s0 with no ln u
    # gained, and every other offset comes out as it does alone
    s0, _path = _c5_start()
    for d in (0, 1):
        (st0, dlnu0), (st1, dlnu1) = hop_pg(s0, d, [0.0, 1e-3], 1e-7)
        assert st0 is s0 and dlnu0 == 0.0
        assert [(st1, dlnu1)] == hop_pg(s0, d, [1e-3], 1e-7)
        assert hop_pg(s0, d, [0.0], 1e-7) == [(s0, 0.0)]


def test_hop_pg_rejects_a_hop_into_the_collision_disc(monkeypatch):
    def no_integration(*_args, **_kwargs):
        raise AssertionError("integrated before the hop was checked")

    s0, _path = _c5_start()
    monkeypatch.setattr(poly_garnier, "_pg_taylor", no_integration)
    # the second hop ends 0.003 from t1 = t2, inside the 0.005 disc
    with pytest.raises(PathViolation):
        hop_pg(s0, 0, [1e-3, s0.t2 + 0.003j - s0.t1], 0.005)


@pytest.mark.parametrize("where", ["t1=0", "t1=1", "t1=t2"])
def test_pg_field_raises_time_collision(where):
    s0, _path = _c5_start()
    field = _pg_field(s0)
    t1 = {"t1=0": 0j, "t1=1": 1 + 0j, "t1=t2": s0.t2}[where]
    y = np.array([s0.q1, s0.q2, s0.p1, s0.p2, 0.0], dtype=complex)
    with pytest.raises(TimeCollision):
        field((t1, s0.t2), (1 + 0j, 0j), y)


@pytest.mark.parametrize("with_lnu", [False, True], ids=["no_lnu", "lnu"])
def test_pg_taylor_coefficients_match_pg_field(with_lnu):
    # coefficient 1 of the recurrence is the flow's field; coefficient 2 is
    # half the derivative along s of that field on the trajectory, here its
    # own Taylor sum; the radius is the s-distance to t_i in {0, 1} or t1 = t2
    rng = np.random.default_rng(43)
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    for k in range(4):
        s0, _path = _c5_start(k)
        taylor = partial(poly_garnier._pg_taylor, poly_garnier._pg_table(s0.params))
        field = _pg_field(s0, 5 if with_lnu else 4)
        for _ in range(4):
            dz = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            t, v = np.array([s0.t1 + dz[0], s0.t2 + dz[1]]), dz[2:]
            y = np.array([s0.q1, s0.q2, s0.p1, s0.p2, 0.3 - 0.1j][: 5 if with_lnu else 4], dtype=complex)
            y += 0.2 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
            c, radius = taylor(tuple(t), tuple(v), y)
            assert c.shape == (numerics.TAYLOR_ORDER + 1, y.size) and np.array_equal(c[0], y)
            dy = field(tuple(t), tuple(v), y)
            # the table sums expanded monomials, the field the body's factored
            # form: measured <= 2.6e-15 over 1080 draws like these, median 3.8e-16
            assert np.max(np.abs(c[1] - dy)) <= 5e-15 * np.max(np.abs(dy))

            def along(ss):
                return [field(tuple(t + s * v), tuple(v), np.polyval(c[::-1], s)) for s in ss]

            d2 = fd_derivative(along, 0.0, scheme)
            assert np.max(np.abs(2.0 * c[2] - d2)) <= 1e-10 * np.max(np.abs(d2))  # measured <= 2.8e-12
            w = np.array([t[0] - t[1], t[0], t[0] - 1.0, t[1], t[1] - 1.0])
            e = np.array([v[0] - v[1], v[0], v[0], v[1], v[1]])
            assert radius == pytest.approx(np.min(np.abs(w / e)), rel=1e-14)


def test_pg_trace_table_sums_to_the_flows_term_by_term():
    # the monomial table that _pg_polys folds from the tape, evaluated term by
    # term (number, exponent powers, t-monomial, y-monomial) at seeded random
    # times, states and exponents: each of its ten rows is the one body of the
    # flows on numbers, divided by its prefactor, to rounding (measured <= 1.4
    # eps of the sum of the terms' magnitudes over 400 such draws)
    tr = poly_garnier._pg_trace()
    run = np.repeat(np.arange(len(tr.starts)), np.diff([*tr.starts, len(tr.numbers)]))
    rng = np.random.default_rng(53)
    for _ in range(20):
        t1, t2, q1, q2, p1, p2, *ths = rng.uniform(-1.5, 1.5, 11) + 1j * rng.uniform(-1.5, 1.5, 11)
        th = ThetaPG(*ths[:4], -sum(ths), ths[4])
        tvars = np.array([t1, t2, 1 / (t1 - t2), 1 / (t1 * (t1 - 1)), 1 / (t2 * (t2 - 1))])
        y = np.array([q1, q2, p1, p2])
        Y = np.zeros(tr.n_mons, dtype=complex)
        Y[:4], Y[4] = y, 1.0
        for lower, rows, flat in tr.levels:  # each y-monomial of degree k >= 2 from one of degree k - 1
            Y[rows] = np.outer(Y[lower], y).ravel()[flat]
        terms = (tr.numbers * np.prod(np.array(ths) ** tr.powers, axis=1)
                 * np.prod(tvars ** tr.tmons, axis=1)[tr.a] * Y[tr.mons[run]])
        got, size = np.zeros((2, 5), dtype=complex), np.zeros((2, 5))
        np.add.at(got, (tr.j, tr.rows[run]), terms)
        np.add.at(size, (tr.j, tr.rows[run]), np.abs(terms))
        D0, D1, g1, g2 = poly_garnier._divided(poly_garnier._pg_flows(t1, t2, q1, q2, p1, p2, th), t1, t2)
        assert np.all(np.abs(got - [[*D0, g1], [*D1, g2]]) <= 4 * np.finfo(float).eps * size)


def test_pg_and_go_traces_record_on_the_numerics_tape(monkeypatch):
    # one recorder for both Taylor programs: each trace runs its body on a
    # numerics._Tape, and the GO fold reads the entries recorded there
    tapes = []
    real = numerics._Tape.__init__
    monkeypatch.setattr(numerics._Tape, "__init__", lambda self: tapes.append(self) or real(self))
    poly_garnier._pg_trace.__wrapped__()
    ops, _rows = garnier_okamoto._go_trace.__wrapped__()
    assert len(tapes) == 2 and tapes[1].ops == ops
    assert {op for op, _a, _b in tapes[0].ops} == {"in", "num", "+", "-", "*", "/"}


def test_integrate_pg_overflowing_state_is_typed():
    # |y| ~ 1e100 puts the quartic terms past the float range at once; the
    # failure names where the path starts, and no non-finite state reaches
    # PGState, whose fields nothing checks
    s0, path = _c5_start()
    big = replace(s0, q1=1e100 * s0.q1, q2=1e100 * s0.q2, p1=1e100 * s0.p1, p2=1e100 * s0.p2)
    with pytest.raises(SingularityApproach, match="non-finite Taylor coefficient") as info:
        integrate_pg(big, path, with_lnu=True)
    assert info.value.location == path.point(0.0)


# ---------------------------------------------------------------------------
# linearization data
# ---------------------------------------------------------------------------

def test_ahat_at_origin():
    s = _state(q1=0, q2=0, p1=0, p2=0)
    th = s.params
    a0, a1, at1, at2 = ahat_matrices(s)
    assert np.max(np.abs(at1 - np.diag([th.tht1, 0.0]))) < 1e-15
    assert np.max(np.abs(at2 - np.diag([th.tht2, 0.0]))) < 1e-15


def test_ahat_a1_rank_one():
    for k in range(10):
        s = gen_pg(random_theta_pg(300 + k), 330 + k)
        _a0, a1, _at1, _at2 = ahat_matrices(s)
        det = a1[0, 0] * a1[1, 1] - a1[0, 1] * a1[1, 0]
        assert det == 0.0  # rows proportional by construction


def test_ahat_eigenvalues():
    for k in range(10):
        th = random_theta_pg(400 + k)
        s = gen_pg(th, 440 + k)
        names = ("th0", "th1", "tht1", "tht2")
        for m, name in zip(ahat_matrices(s), names):
            target = getattr(th, name)
            ev = sorted(np.linalg.eigvals(m), key=abs)
            assert abs(ev[0]) < 1e-10 and abs(ev[1] - target) < 1e-10, name


def test_elem_a_at_origin():
    # with the matrix-consistent corner entry (see the decisions ledger),
    # p = q = 0 gives theta_2^inf (theta^1 + theta_2^inf)
    s = _state(q1=0, q2=0, p1=0, p2=0)
    th = s.params
    assert abs(elem_a(s) - th.thinf2 * (th.th1 + th.thinf2)) < 1e-15


def test_elem_a_momenta_only():
    s = _state(q1=0, q2=0, params=_theta(thinf2=0.0, thinf1=None))
    # rebuild with thinf2 = 0 and Fuchs re-closed through thinf1
    th = s.params
    th = ThetaPG(th.th0, th.th1, th.tht1, th.tht2, -(th.th0 + th.th1 + th.tht1 + th.tht2), 0.0)
    s = replace(s, params=th)
    want = -s.t1 * s.p1 * th.tht1 - s.t2 * s.p2 * th.tht2
    assert abs(elem_a(s) - want) < 1e-15


def test_elem_a_matches_matrix_corner():
    for k in range(10):
        s = gen_pg(random_theta_pg(500 + k), 540 + k)
        a0, a1, at1, at2 = ahat_matrices(s)
        corner = -(a0 + a1 + at1 + at2)[1, 0]
        assert abs(elem_a(s) - corner) < 1e-12


def test_u_logderiv_zero_coordinates():
    s = _state(q1=0, q2=0)
    g1, g2 = u_logderiv(s)
    assert abs(g1 - s.params.tht1 / (s.t1 - 1)) < 1e-15
    assert abs(g2 - s.params.tht2 / (s.t2 - 1)) < 1e-15


def test_u_logderiv_closedness():
    # mixed partials of ln u agree along the flow
    s0 = _state()
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]

    def g_at(d, offsets):
        return [u_logderiv(st) for st, _dlnu in hop_pg(s0, d, offsets, 0.004)]

    h = scheme.scaled_step(s0.t2)
    d12 = combine_stencil({m: g[0] for m, g in zip(mults, g_at(1, [m * h for m in mults]))}, h, scheme, 1)
    h = scheme.scaled_step(s0.t1)
    d21 = combine_stencil({m: g[1] for m, g in zip(mults, g_at(0, [m * h for m in mults]))}, h, scheme, 1)
    assert abs(d12 - d21) < 1e-6


def test_u_stays_finite_along_flow():
    s0 = _state()
    path = PathPlan([(s0.t1, s0.t2), (s0.t1 + 0.12 + 0.1j, s0.t2 - 0.08 - 0.09j)], 0.03)
    traj = integrate_pg(s0, path, samples=[0.25, 0.5, 0.75], with_lnu=True)
    for _s, _st, lnu in traj:
        assert np.isfinite(lnu.real) and np.isfinite(lnu.imag)
        assert abs(lnu) < 10.0  # u = exp(ln u) bounded away from 0 and inf


def test_to_schlesinger_kills_corner():
    for k in range(10):
        s = gen_pg(random_theta_pg(600 + k), 640 + k)
        q = to_schlesinger(s, u=1.3 - 0.4j)
        total = q.A.sum(axis=0)
        assert abs(total[0, 1]) < 1e-12 and abs(total[1, 0]) < 1e-12
        th = s.params
        assert abs(-total[0, 0] - th.thinf1) < 1e-12
        assert abs(-total[1, 1] - th.thinf2) < 1e-12


def test_to_schlesinger_preserves_spectra():
    s = _state()
    q = to_schlesinger(s, u=0.7 + 0.1j)
    th = s.params
    for m, target in zip(q.A, (th.tht1, th.tht2, th.th1, th.th0)):
        ev = sorted(np.linalg.eigvals(m), key=abs)
        assert abs(ev[0]) < 1e-12 and abs(ev[1] - target) < 1e-12


def test_to_schlesinger_offdiag_numerator_matches_coordinates():
    # entry "12" of sum A^xi/(x - t_xi), cleared of denominators, is the
    # quadratic (1-q1-q2) x^2 + [...] x + [...]; recover it by interpolation
    s = _state()
    q = to_schlesinger(s, u=1.0)
    t = q.tvec

    def numerator(x):
        q12 = sum(q.A[i, 0, 1] / (x - t[i]) for i in range(4))
        return q12 * np.prod([x - t[i] for i in range(4)])

    xs = np.array([2.1 + 0.3j, -1.4 + 0.9j, 0.5 + 2.2j])
    vand = np.vander(xs, 3)
    c2, c1, c0 = np.linalg.solve(vand, np.array([numerator(x) for x in xs]))
    assert abs(c2 - (1 - s.q1 - s.q2)) < 1e-10
    assert abs(c1 - (-s.t1 - s.t2 + s.q2 * (1 + s.t1) + s.q1 * (1 + s.t2))) < 1e-10
    assert abs(c0 - (s.t1 * s.t2 - s.q1 * s.t2 - s.q2 * s.t1)) < 1e-10


def test_to_schlesinger_guards():
    s = _state()
    th = s.params
    resonant = ThetaPG(th.th0, th.th1, th.tht1, th.tht2, 0.25 + 0.1j, 0.25 + 0.1j)
    s_res = replace(
        s, params=ThetaPG(th.th0, th.th1, th.tht1, -(th.th0 + th.th1 + th.tht1 + 0.5 + 0.2j), 0.25 + 0.1j, 0.25 + 0.1j)
    )
    with pytest.raises(ResonantInfinity):
        to_schlesinger(s_res, u=1.0)
    with pytest.raises(ZeroGauge):
        to_schlesinger(s, u=0.0)
    assert resonant is not None


# ---------------------------------------------------------------------------
# bridges and momentum relations
# ---------------------------------------------------------------------------

def test_bridge_q_vanishes_at_coincidence():
    t1, t2 = 0.3 + 0.02j, 0.7 - 0.05j
    lam2 = 1.4 + 0.6j
    q1, _q2 = bridge_q_from_lambda(t1, lam2, t1, t2)
    assert abs(q1) < 1e-15
    _q1, q2 = bridge_q_from_lambda(t2, lam2, t1, t2)
    assert abs(q2) < 1e-15


def test_bridge_symmetry():
    t1, t2 = 0.3 + 0.02j, 0.7 - 0.05j
    l1, l2 = 0.4 + 0.8j, -0.6 + 0.3j
    a = bridge_q_from_lambda(l1, l2, t1, t2)
    b = bridge_q_from_lambda(l2, l1, t1, t2)
    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) < 1e-14
    # (q1, t1) <-> (q2, t2) swaps the lambda formulas into each other
    q1, q2 = 0.3 - 0.1j, 0.5 + 0.2j
    a = bridge_lambda_from_q(q1, q2, t1, t2)
    b = bridge_lambda_from_q(q2, q1, t2, t1)
    assert min(abs(a[0] - b[0]) + abs(a[1] - b[1]), abs(a[0] - b[1]) + abs(a[1] - b[0])) < 1e-12


def test_bridge_zero_coordinates_gives_times():
    t1, t2 = 0.3 + 0.02j, 0.7 - 0.05j
    lam = bridge_lambda_from_q(0.0, 0.0, t1, t2)
    assert min(abs(lam[0] - t1) + abs(lam[1] - t2), abs(lam[0] - t2) + abs(lam[1] - t1)) < 1e-14


def test_bridge_roundtrip():
    t1, t2 = 0.3 + 0.02j, 0.7 - 0.05j
    for k in range(20):
        rng = np.random.default_rng(700 + k)
        q1, q2 = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        if abs(1 - q1 - q2) < 0.05:
            continue
        l1, l2 = bridge_lambda_from_q(q1, q2, t1, t2)
        r1, r2 = bridge_q_from_lambda(l1, l2, t1, t2)
        assert abs(r1 - q1) + abs(r2 - q2) < 1e-10


def test_bridge_matches_extraction():
    for k in range(10):
        s = gen_pg(random_theta_pg(800 + k), 840 + k)
        g = extract_go(to_schlesinger(s, u=1.0))
        lb = bridge_lambda_from_q(s.q1, s.q2, s.t1, s.t2)
        err = min(
            abs(lb[0] - g.lam[0]) + abs(lb[1] - g.lam[1]),
            abs(lb[0] - g.lam[1]) + abs(lb[1] - g.lam[0]),
        )
        assert err < 1e-8


def test_bridge_reduction_locus_guard():
    with pytest.raises(ReductionLocus):
        bridge_lambda_from_q(0.4, 0.6, 0.3, 0.7)


def test_bridge_pole_guard():
    with pytest.raises(PoleEvaluation):
        bridge_q_from_lambda(1.0, 0.5j, 0.3, 0.7)


def test_mu_p_residuals_on_corresponding_pairs():
    for k in range(10):
        s = gen_pg(random_theta_pg(850 + k), 870 + k)
        g = extract_go(to_schlesinger(s, u=1.0))
        r1, r2 = mu_p_relations(s, g)
        assert abs(r1) < 1e-7 and abs(r2) < 1e-7


def test_mu_p_sensitivity_to_momentum():
    s = gen_pg(random_theta_pg(860), 880)
    g = extract_go(to_schlesinger(s, u=1.0))
    r1, _ = mu_p_relations(s, g)
    g2 = replace(g, mu=(g.mu[0] + 1.0, g.mu[1]))
    r1p, _ = mu_p_relations(s, g2)
    l1, l2 = g.lam
    pref = (l1 - 1) * (l2 - 1) / ((s.t1 - 1) * (s.t2 - 1))
    expected = abs(pref * (l1 - 1) * (l1 - s.t2) / (l1 - l2))
    assert abs(abs(r1p - r1) - expected) < 1e-8
    assert expected > 1e-3  # genuinely sensitive


def test_mu_p_relations_swap_into_each_other():
    s = gen_pg(random_theta_pg(861), 881)
    g = extract_go(to_schlesinger(s, u=1.0))
    th = s.params
    s_sw = replace(
        s,
        t1=s.t2, t2=s.t1, q1=s.q2, q2=s.q1, p1=s.p2, p2=s.p1,
        params=ThetaPG(th.th0, th.th1, th.tht2, th.tht1, th.thinf1, th.thinf2),
    )
    g_sw = replace(g, t1=g.t2, t2=g.t1)
    r = mu_p_relations(s, g)
    r_sw = mu_p_relations(s_sw, g_sw)
    assert abs(r[0] - r_sw[1]) < 1e-12 and abs(r[1] - r_sw[0]) < 1e-12


# ---------------------------------------------------------------------------
# Painleve VI reduction
# ---------------------------------------------------------------------------

def test_pvi_hamiltonian_momentum_free():
    th = random_theta_pg(901, kond=True)
    omega, Q = 0.4 + 0.2j, 0.7 - 0.3j
    want = th.thinf2 * (th.thinf2 + th.th1) * Q / (omega * (omega - 1))
    assert abs(pvi_hamiltonian(omega, Q, 0.0, th) - want) < 1e-15


def test_pvi_reduce_requires_locus_and_resonance():
    th = random_theta_pg(902, kond=True)
    s = gen_pg(th, 903, on_reduction=True)
    pv = pvi_reduce(s)
    assert abs(pv.omega - s.t1 * (s.t2 - 1) / (s.t2 - s.t1)) < 1e-14
    assert pv.Q == s.q1 and pv.P == s.p1 - s.p2
    with pytest.raises(NotOnReduction):
        pvi_reduce(replace(s, q1=s.q1 + 0.1))
    th_bad = random_theta_pg(904)  # generic exponents: no resonance
    with pytest.raises(NotOnReduction):
        pvi_reduce(gen_pg(th_bad, 905, on_reduction=True))


def test_pvi_locus_is_invariant():
    th = random_theta_pg(906, kond=True)
    s0 = gen_pg(th, 907, on_reduction=True)
    path = PathPlan([(s0.t1, s0.t2), (s0.t1 + 0.15 + 0.1j, s0.t2)], 0.02)
    for _s, st in integrate_pg(s0, path, samples=[0.3, 0.6]):
        assert abs(st.q1 + st.q2 - 1.0) < 1e-9


def test_pvi_hamilton_system_residual():
    th = random_theta_pg(908, kond=True)
    s0 = gen_pg(th, 909, on_reduction=True)
    pv0 = pvi_reduce(s0)
    scheme = FDScheme(order=4, step=1e-5, richardson=True)
    mults = [m for m in stencil_multipliers(scheme, (1,)) if m != 0.0]
    h = scheme.scaled_step(pv0.omega)
    vq, vp = {}, {}
    hops = hop_pg(s0, 0, [omega_to_t1(pv0.omega + m * h, s0.t2) - s0.t1 for m in mults], 1e-7)
    for m, (st, _dlnu) in zip(mults, hops):
        pvm = pvi_reduce(st, tol=1e-5)
        vq[m], vp[m] = pvm.Q, pvm.P
    dQ = combine_stencil(vq, h, scheme, 1)
    dP = combine_stencil(vp, h, scheme, 1)
    rq, rp = pvi_rhs(pv0.omega, pv0.Q, pv0.P, th)
    assert abs(dQ - rq) < 1e-6 * max(1, abs(dQ))
    assert abs(dP - rp) < 1e-6 * max(1, abs(dP))


# ---------------------------------------------------------------------------
# parameters and serialization
# ---------------------------------------------------------------------------

def test_fuchs_validation():
    with pytest.raises(ValueError):
        ThetaPG(0.1, 0.2, 0.3, 0.4, 0.5, 0.6).validate()
    d = _theta().to_json()
    d["th0"] = [d["th0"][0] + 1e-6, d["th0"][1]]
    with pytest.raises(ValueError):
        ThetaPG.from_json(d)


def test_pg_json_roundtrip():
    s = _state()
    d = s.to_json()
    assert set(d) == {"t1", "t2", "q", "p", "theta"}
    assert set(d["theta"]) == {"th0", "th1", "tht1", "tht2", "thinf1", "thinf2"}
    back = PGState.from_json(d)
    assert back.q1 == s.q1 and back.p2 == s.p2
    assert back.params == s.params


def test_random_theta_satisfies_fuchs():
    for k in range(20):
        assert abs(random_theta_pg(k).fuchs_residual) < 1e-12
        thk = random_theta_pg(k, kond=True)
        assert abs(thk.fuchs_residual) < 1e-12
        assert abs(thk.thinf1 - thk.thinf2 - 1.0) < 1e-12
