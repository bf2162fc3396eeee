"""Core numerics: quadratic roots, path integration, finite differences."""

import cmath
import math
import warnings

import numpy as np
import pytest

from garnier_lab.errors import (
    DegenerateQuadratic,
    PathViolation,
    SingularityApproach,
    StencilFailure,
)
from garnier_lab import numerics
from garnier_lab.numerics import (
    AffineConstraint,
    FDScheme,
    PathPlan,
    SeriesStop,
    TAYLOR_ORDER,
    check_clearance,
    combine_stencil,
    count_work,
    fd_derivative,
    ode_integrate,
    quad_roots,
    stencil_multipliers,
    taylor_integrate,
    taylor_stencil,
    taylor_walk,
)


# ---------------------------------------------------------------------------
# quad_roots
# ---------------------------------------------------------------------------

def test_quad_roots_factorable():
    r1, r2 = quad_roots(1, -5, 6)
    assert sorted([r1, r2], key=lambda z: z.real) == [2, 3]


def test_quad_roots_double_root_origin():
    assert quad_roots(1, 0, 0) == (0, 0)


def test_quad_roots_extreme_ratio_matches_mpmath():
    # extended-precision oracle for the tiny root
    import mpmath

    mpmath.mp.dps = 50
    a, b, c = mpmath.mpf(1), mpmath.mpf(-1e8), mpmath.mpf(1)
    small_exact = (2 * c) / (-b + mpmath.sqrt(b * b - 4 * a * c))
    r1, r2 = quad_roots(1, -1e8, 1)
    assert abs(r2 - complex(small_exact)) / abs(complex(small_exact)) < 1e-10
    assert abs(r1) > abs(r2)


def test_quad_roots_zero_leading_coefficient():
    with pytest.raises(DegenerateQuadratic):
        quad_roots(0, 1, 1)


def test_quad_roots_vieta_property(rng):
    # product and sum recover c/a and -b/a to 1e-12 relative
    for _ in range(1000):
        a, b, c = (complex(*rng.uniform(-2, 2, 2)) for _ in range(3))
        if abs(a) < 1e-3:
            continue
        r1, r2 = quad_roots(a, b, c)
        scale = 1 + abs(b) + abs(c)
        assert abs(a * r1 * r2 - c) < 1e-12 * scale
        assert abs(a * (r1 + r2) + b) < 1e-12 * scale


def test_quad_roots_equal_magnitudes_keep_order():
    # roots +-2.1213i have equal magnitude; the formulas put the larger one
    # second by an ulp unless the order is restored
    r1, r2 = quad_roots(2, 0, 9)
    assert abs(r1) >= abs(r2)
    assert abs(r1 * r2 - 4.5) < 1e-15 * 4.5


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_rejects_repeated_waypoints():
    with pytest.raises(ValueError):
        PathPlan([1.0, 1.0], 0.1)


def test_path_rejects_exclusion_violation():
    path = PathPlan([0.0, 1.0], 0.2)
    with pytest.raises(PathViolation):
        path.validate_against([AffineConstraint((1,), 0.5 + 0.1j, "pole")])
    # the same pole far away is fine
    path.validate_against([AffineConstraint((1,), 0.5 + 0.9j, "pole")])


def test_path_clearance_is_exact_for_affine_sets():
    # |t1 - t2| on the middle segment is least inside it (s = 0.146), at
    # 0.234; dense sampling finds it to ~1e-12 relative, and a radius
    # 1e-9 (relative) either side of it is decided exactly
    corners = [(0.0, 1.0), (0.0, 0.3), (1.0, 0.5 + 1.0j), (1.0, 2.0)]
    con = AffineConstraint((1, -1), 0.0, "diag")
    s = np.linspace(0.0, 1.0, 1_000_001)
    clearance = np.min(np.abs(-0.3 + s * (0.8 - 1.0j)))
    assert 0.1 < s[np.argmin(np.abs(-0.3 + s * (0.8 - 1.0j)))] < 0.9
    PathPlan(corners, clearance * (1.0 - 1e-9)).validate_against([con])
    with pytest.raises(PathViolation, match="segment 1 passes within 2.3.*'diag'"):
        PathPlan(corners, clearance * (1.0 + 1e-9)).validate_against([con])


# ---------------------------------------------------------------------------
# ode_integrate
# ---------------------------------------------------------------------------

def test_integrate_zero_field_is_constant():
    path = PathPlan([0.0, 0.7 + 0.4j], 0.05)
    traj = ode_integrate(lambda z, v, y: 0.0 * y, np.array([3.0 - 1.0j]), path)
    assert traj[-1][1][0] == 3.0 - 1.0j


def test_integrate_exponential():
    rtol = 1e-12
    path = PathPlan([0.0, 1.0], 0.05)
    traj = ode_integrate(lambda z, v, y: v * y, np.array([1.0 + 0j]), path, rtol=rtol)
    assert abs(traj[-1][1][0] - np.e) / np.e < rtol * 100


def test_integrate_residue_loop():
    # contour integral of 1/(z - z*) around a loop = 2 pi i
    zs = 0.5 + 0.5j
    loop = PathPlan([0.0, 1.0, 1.0 + 1.0j, 1.0j, 0.0], 0.2)
    traj = ode_integrate(lambda z, v, y: np.array([v / (z - zs)]), np.array([0j]), loop)
    assert abs(traj[-1][1][0] - 2j * np.pi) < 1e-10


def test_integrate_dense_samples_land_exactly():
    path = PathPlan([0.0, 2.0], 0.05)
    samples = [0.25, 0.5, 0.75]
    traj = ode_integrate(lambda z, v, y: v * y, np.array([1.0 + 0j]), path, samples=samples)
    ss = [s for s, _ in traj]
    assert ss == [0.0, 0.25, 0.5, 0.75, 1.0]
    for s, y in traj:
        assert abs(y[0] - np.exp(2.0 * s)) < 1e-9


def test_integrate_convergence_under_tolerance_tightening():
    # re-integration at rtol/10 moves the endpoint by < 50*rtol*|state|
    rtol = 1e-10
    path = PathPlan([0.0, 1.0 + 0.6j], 0.05)

    def field(z, v, y):
        return v * np.array([y[1], -np.sin(z) * y[0]])

    y0 = np.array([1.0 + 0.2j, 0.1 - 0.3j])
    e1 = ode_integrate(field, y0, path, rtol=rtol)[-1][1]
    e2 = ode_integrate(field, y0, path, rtol=rtol / 10)[-1][1]
    assert np.max(np.abs(e1 - e2)) < 50 * rtol * np.max(np.abs(e1))


def test_integrate_singularity_approach(monkeypatch):
    # the solution C/(z - 1/2) blows up on the path: the step size underflows
    # and the error reports where; a small budget, read at call time, keeps
    # the test short
    monkeypatch.setattr(numerics, "MAX_STEPS", 20000)
    path = PathPlan([0.0, 1.0], 0.05)
    with pytest.raises(SingularityApproach) as exc:
        ode_integrate(lambda z, v, y: np.array([-v * y[0] / (z - 0.5)]), np.array([1.0 + 0j]), path)
    assert exc.value.location is not None


# ---------------------------------------------------------------------------
# taylor_integrate
# ---------------------------------------------------------------------------

def _exp_coeffs(radius):
    """Taylor coefficients c_k = y v^k / k! of dy/ds = v y, and a declared radius."""
    k = np.arange(TAYLOR_ORDER + 1)
    inv_fact = np.array([1.0 / math.factorial(int(j)) for j in k])
    return lambda z, v, y: (y[None, :] * (v**k * inv_fact)[:, None], radius)


def test_taylor_exponential_lands_on_corners_and_samples():
    path = PathPlan([0.0, 1.0, 1.0 + 1.0j], 0.05)
    traj = taylor_integrate(_exp_coeffs(10.0), np.array([1.0 + 0j]), path, samples=[0.25, 0.75])
    assert [s for s, _ in traj] == [0.0, 0.25, 0.75, 1.0]
    for s, y in traj:
        want = np.exp(path.point(s)[0])
        assert abs(y[0] - want) <= 1e-13 * abs(want)


def test_taylor_steps_are_capped_below_the_field_radius():
    # the exponential's series would take [0, 1] in one step; a declared
    # radius of 0.1 caps each step at half of it
    path = PathPlan([0.0, 1.0], 0.05)
    for radius, steps in ((10.0, 1), (0.1, 20)):
        with count_work() as work:
            end = taylor_integrate(_exp_coeffs(radius), np.array([1.0 + 0j]), path)[-1][1]
        assert work["taylor_steps"] == steps
        assert abs(end[0] - math.e) <= 1e-14 * math.e
    # the coefficient-decay radius min((19!)^(1/19), (20!)^(1/20)) over the declared 0.1
    assert work["min_radius_ratio"] == pytest.approx(math.factorial(19) ** (1 / 19) / 0.1, rel=1e-12)


def test_taylor_rejects_rtol_at_or_past_one():
    with pytest.raises(ValueError, match="rtol"):
        taylor_integrate(_exp_coeffs(1.0), np.array([1.0 + 0j]), PathPlan([0.0, 1.0], 0.05), rtol=1.0)


@pytest.mark.parametrize(
    "y0, radius, budget, message",
    [
        (1e308, 10.0, None, "non-finite Taylor sum"),  # e^h * 1e308 overflows
        (1.0, 1e-15, None, "step size underflow"),  # capped at half the radius
        (1.0, 0.1, 5, "step budget exhausted"),
        (np.nan, 10.0, None, "non-finite Taylor coefficient"),
    ],
    ids=["sum_overflow", "underflow", "budget", "nan_start"],
)
def test_taylor_failures_are_typed_with_a_location(monkeypatch, y0, radius, budget, message):
    if budget is not None:
        monkeypatch.setattr(numerics, "MAX_STEPS", budget)
    path = PathPlan([0.0, 1.0], 0.05)
    with np.errstate(all="ignore"), pytest.raises(SingularityApproach, match=message) as info:
        taylor_integrate(_exp_coeffs(radius), np.array([y0 + 0j]), path)
    assert info.value.location is not None


def test_taylor_stencil_sums_one_series_at_every_offset():
    # one coefficient call from the centre, then a Horner sum per complex offset
    calls = []

    def coeffs(point, velocity, y, reach):
        calls.append((point, velocity))
        return _exp_coeffs(10.0)(point[0], velocity[0], y)

    offsets = [0.2, -0.1j, 0.05 - 0.15j, 0.0]
    got = taylor_stencil(coeffs, np.array([2.0 + 0j]), (0.3,), (1.0,), offsets)
    assert calls == [((0.3,), (1.0,))]
    assert got.shape == (4, 1)
    for s, y in zip(offsets, got):
        assert abs(y[0] - 2.0 * np.exp(s)) <= 1e-15 * abs(2.0 * np.exp(s))


def test_taylor_stencil_raises_past_the_step_naming_the_point():
    # the exponential's step at rtol 1e-12 is (1e-12 * 20!)^(1/20) ~ 2.5; a
    # declared radius of 0.1 caps it at 0.05, so the offset 0.06 fails
    offsets = [0.04, -0.06]
    with pytest.raises(SingularityApproach, match="past the Taylor step") as info:
        taylor_stencil(lambda p, v, y, reach: _exp_coeffs(0.1)(p[0], v[0], y), np.array([1.0 + 0j]), (0.3,), (1j,),
                       offsets)
    assert info.value.location == (0.3 - 0.06j,)
    # a non-finite offset fails the same way
    with pytest.raises(SingularityApproach):
        taylor_stencil(lambda p, v, y, reach: _exp_coeffs(10.0)(p[0], v[0], y), np.array([1.0 + 0j]), (0.0,), (1.0,),
                       [np.nan])


def _exp_rows(radius):
    """The rows of dy/ds = v_r y at once, in taylor_walk's form: coefficients (p + 1, r, d) and the radii of
    the given rows, for point and velocity of shape (r, 1); ``radius`` is each row's distance in the plane,
    so its radius in s is radius / |v|; every series has all orders, whatever its reach."""
    k = np.arange(TAYLOR_ORDER + 1)[:, None, None]
    inv_fact = np.array([1.0 / math.factorial(int(j)) for j in k.ravel()])[:, None, None]
    return lambda rows, z, v, y, reach: (y[None] * (v[None] ** k * inv_fact),
                                         np.asarray(radius)[rows] / np.abs(v[:, 0]))


def test_taylor_step_of_rows_is_each_row_alone(rng):
    # the row axis broadcasts through the same arithmetic: bit for bit each row's step and ratio
    c = (rng.normal(size=(TAYLOR_ORDER + 1, 5, 3)) + 1j * rng.normal(size=(TAYLOR_ORDER + 1, 5, 3))) * 0.3 ** np.arange(
        TAYLOR_ORDER + 1
    )[:, None, None]
    radii = rng.uniform(0.5, 20.0, size=5)
    h, ratio = numerics._taylor_step(c, radii, 1e-12, np.zeros((5, 1)))
    for r in range(5):
        h_r, ratio_r = numerics._taylor_step(c[:, r], radii[r], 1e-12, (0.0,))
        assert h[r] == h_r and ratio[r] == ratio_r


_WALK_POINT = np.array([[0.3], [0.1j], [-0.2], [0.5 - 0.5j]])
_WALK_VELOCITY = np.array([[1.0], [1j], [-0.5 + 0.5j], [0.3]])
_WALK_Y0 = np.array([[2.0, 1j], [1.0, -1.0], [0.5j, 3.0], [1.0, 1.0]])
_WALK_RADII = np.array([10.0, 0.1, 0.5**0.5, 0.21])  # a cap of half the radius: 1, 20, 2 and 3 steps


def test_taylor_walk_moves_each_row_as_it_moves_alone():
    # rows of different lengths and radii, each its own group, step in lockstep, each with its own h; a
    # row that lands drops out, and the coefficient function then sees only the rows still moving
    seen = []
    coeffs = _exp_rows(_WALK_RADII)
    with count_work() as work:
        got = taylor_walk(
            lambda rows, *args, **kw: seen.append(rows) or coeffs(rows, *args, **kw),
            _WALK_Y0, _WALK_POINT, _WALK_VELOCITY, np.arange(4),
        )
    assert got.shape == (4, 2)
    assert [rows.tolist() for rows in seen[:3]] == [[0, 1, 2, 3], [1, 2, 3], [1, 3]]
    assert [rows.tolist() for rows in seen[3:]] == [[1]] * 17
    steps, ratio = 0, math.inf
    for r in range(4):
        row = slice(r, r + 1)
        with count_work() as alone:
            (end,) = taylor_walk(
                _exp_rows(_WALK_RADII[row]), _WALK_Y0[row], _WALK_POINT[row], _WALK_VELOCITY[row], np.zeros(1, int)
            )
        assert np.array_equal(got[r], end)
        want = _WALK_Y0[r] * np.exp(_WALK_VELOCITY[r, 0])
        assert np.max(np.abs(got[r] - want)) <= 1e-14 * np.max(np.abs(want))
        steps, ratio = steps + alone["taylor_steps"], min(ratio, alone["min_radius_ratio"])
    # count_work adds every row's steps and keeps the smallest ratio
    assert work["taylor_steps"] == steps == 26 and work["min_radius_ratio"] == ratio


def test_taylor_walk_forms_one_first_series_per_group():
    # rows 0-2 share point, y0 and field (dy/dw = y along any chord), row 3 starts elsewhere: the first
    # round forms one series per group in powers of the displacement (velocity 1); rows within its step
    # (about 2.5 at rtol 1e-12) land by one sum, and row 2 (|v| = 3.2) walks on from that step alone
    point, y0 = np.array([[0.3], [0.3], [0.3], [0.1j]]), np.array([[2.0, 1j]] * 3 + [[1.0, -1.0]])
    velocity = np.array([[0.05], [0.2j], [3.0 - 1.0j], [1j]])
    seen = []
    coeffs = _exp_rows([10.0] * 4)
    with count_work() as work:
        got = taylor_walk(lambda rows, *args, **kw: seen.append((rows, args[1])) or coeffs(rows, *args, **kw), y0,
                          point, velocity, np.array([0, 0, 0, 1]))
    assert [rows.tolist() for rows, _v in seen] == [[0, 3], [2]]
    assert np.all(seen[0][1] == 1.0) and np.array_equal(seen[1][1], velocity[2:3])
    assert (work["taylor_steps"], work["taylor_series"]) == (5, 3)
    for r in range(4):
        want = y0[r] * np.exp(velocity[r, 0])
        assert np.max(np.abs(got[r] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "y0, radius, message",
    [
        (1e308, 0.1, "non-finite Taylor sum"),  # |y| = 1e308 e^s overflows past s = 0.586
        (1.0, 1e-15, "step size underflow"),  # capped at half the radius
        (np.nan, 10.0, "non-finite Taylor coefficient"),
    ],
    ids=["sum_overflow", "underflow", "nan_start"],
)
def test_taylor_walk_raises_at_the_failing_rows_own_point(y0, radius, message):
    # the failing row sits behind a healthy one that walks on: the error is raised at the
    # point where that row fails walked alone
    point, velocity = np.array([[0.3], [-0.2j]]), np.array([[1j], [1.0]])
    y = np.array([[1.0, 2.0], [1.0, y0]], dtype=complex)
    coeffs = _exp_rows([0.1, radius])
    with np.errstate(all="ignore"):
        with pytest.raises(SingularityApproach, match=message) as info:
            taylor_walk(coeffs, y, point, velocity, np.arange(2))
        with pytest.raises(SingularityApproach, match=message) as alone:
            taylor_walk(_exp_rows([radius]), y[1:], point[1:], velocity[1:], np.zeros(1, int))
    assert info.value.location == alone.value.location
    (where,) = info.value.location
    s = (where - point[1, 0]) / velocity[1, 0]
    assert s.imag == 0.0 and 0.0 <= s.real < 1.0
    if message == "non-finite Taylor sum":
        assert s.real == pytest.approx(0.55)


def test_taylor_stencil_of_a_constant_raises_no_warning():
    # an all-zero tail has an infinite Jorba-Zou step: the radius cap decides,
    # with no division warning
    def coeffs(point, velocity, y, reach):
        c = np.zeros((TAYLOR_ORDER + 1, len(y)), dtype=complex)
        c[0] = y
        return c, 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = taylor_stencil(coeffs, np.array([0.0, 1.0 + 1j]), (0.0,), (1.0,), [0.3, -0.5])
    assert np.array_equal(got, [[0.0, 1.0 + 1j], [0.0, 1.0 + 1j]])
    with pytest.raises(SingularityApproach):
        taylor_stencil(coeffs, np.array([1.0 + 0j]), (0.0,), (1.0,), [0.6])


def _pole(rho, power=1):
    """The series at z along v of y(x) = y(z) (1 - (z/rho)^power) / (1 - (x/rho)^power), component by component
    (power > 1 only at z = 0), formed order by order until a SeriesStop at ``reach`` stops it, and the
    s-distance to the nearest pole; z, v and rho broadcast against y, so rows may lead."""

    def coeffs(z, v, y, reach=None):
        q = (v / (rho - z)) ** power
        c = np.zeros((TAYLOR_ORDER + 1,) + np.shape(y), dtype=complex)
        c[0], stop = y, SeriesStop(y, reach)
        for k in range(1, TAYLOR_ORDER + 1):
            c[k] = c[k - power] * q if k >= power else 0.0
            if k == stop.next and stop(lambda j: c[j], k):
                break
        return c[: k + 1], np.min(np.abs((rho - z) / v), axis=-1)

    return coeffs


@pytest.mark.parametrize("offsets", [[1e-3, -2e-3, 0.5e-3], [1e-3j, -1.5e-3 + 1e-3j, 2e-3 - 0.5e-3j]],
                         ids=["real", "complex"])
def test_taylor_stencil_stops_where_the_terms_at_its_largest_offset_are_rounding(offsets):
    # 1/(1 - s/rho) per component: at |s| <= 2.1e-3 its terms fall below 2^-52 of c_0 by order 8 or so, so
    # the series stops well before order 20, and its sum is the order-20 sum to rounding
    rho, y0, s = np.array([0.3, 0.5j, -0.8 + 0.2j]), np.array([1.0, 2.0 - 1j, -0.5j]), np.asarray(offsets)[:, None]
    coeffs = _pole(rho)
    with count_work() as work:
        got = taylor_stencil(lambda p, v, y, reach: coeffs(p[0], v[0], y, reach), y0, (0.0,), (1.0,), offsets)
    assert work["taylor_series"] == 1 and 4 <= work["taylor_orders"] < TAYLOR_ORDER
    full, _radius = coeffs(0.0, 1.0, y0)
    assert len(full) == TAYLOR_ORDER + 1
    bound = 4 * np.finfo(float).eps * np.max(np.abs(y0))
    assert np.max(np.abs(got - numerics._horner(full, s))) <= bound
    assert np.max(np.abs(got - y0 / (1.0 - s / rho))) <= bound


def test_a_series_whose_orders_1_to_3_vanish_keeps_order_4():
    # 1/(1 - s^4) has c_1 = c_2 = c_3 = 0: orders 2 and 3 are within the bounds at any reach, but the rule
    # looks from order 4 on, so the s^4 term (1e-12 at the largest offset) stays in the sum
    coeffs, s = _pole(1.0, power=4), np.array([1e-3, -1e-3j, 0.5e-3])
    with count_work() as work:
        got = taylor_stencil(lambda p, v, y, reach: coeffs(p[0], v[0], y, reach), np.array([1.0 + 0j]), (0.0,),
                             (1.0,), s)
    assert 4 <= work["taylor_orders"] < TAYLOR_ORDER
    assert np.max(np.abs(got[:, 0] - (1.0 + s**4))) <= 2 * np.finfo(float).eps
    assert np.all(np.abs(got[:, 0] - 1.0) >= 0.5 * np.abs(s) ** 4)


def test_taylor_walk_stops_its_first_series_only_where_every_label_has_converged():
    # two labels of a pole row each: label 0's hops are short; label 1's are short too, or its longest is half
    # its radius, where no order up to 20 reaches rounding. The first series stops before order 20 only in the
    # first case, and label 0's rows land bit for bit in both (each row is summed to its own order); every
    # short hop lands by one sum, exact to rounding, and the long one walks on within the step tolerance
    rho, group = np.array([[0.4], [0.4], [0.3j], [0.3j]]), np.array([0, 0, 1, 1])
    y0, point = np.array([[1.0, 2.0j]] * 2 + [[0.5, -1.0]] * 2), np.array([[0.0], [0.0], [0.1], [0.1]])
    formed, ends = [], {}

    def coeffs(rows, z, v, y, reach):
        c, radius = _pole(rho[rows])(z, v, y, reach)
        formed.append(len(c) - 1)
        return c, radius

    for case, far in (("short", 0.5e-3), ("long", 0.15j)):
        velocity = np.array([[1e-3], [-2e-3j], [1e-3j], [far]])
        formed.clear()
        ends[case] = taylor_walk(coeffs, y0, point, velocity, group)
        assert (formed[0] < TAYLOR_ORDER) == (case == "short")
        error = np.max(np.abs(ends[case] - y0 * (rho - point) / (rho - point - velocity)), axis=-1)
        assert np.max(error[:3] if case == "long" else error) <= 8 * np.finfo(float).eps * 2.0
        assert error[3] <= 1e-12 * 2.0
    assert np.array_equal(ends["short"][:2], ends["long"][:2])


def _dp_step_generator_sums(f, s0, y, h, k1):
    """Reference Dormand-Prince step: every stage sum a generator ``sum`` over the full rows."""
    k = [k1]
    for i in range(1, 6):
        acc = y + h * sum(a * kk for a, kk in zip(numerics._DP_A[i], k))
        k.append(f(s0 + numerics._DP_C[i] * h, acc))
    y1 = y + h * sum(a * kk for a, kk in zip(numerics._DP_A[6], k))
    k.append(f(s0 + h, y1))
    err = h * sum(e * kk for e, kk in zip(numerics._DP_E, k))
    return y1, err, k[6]


@pytest.mark.parametrize("batch", [None, 5])
def test_dp_step_matches_generator_sums(rng, batch):
    shape = (3,) if batch is None else (batch, 3)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.03 if batch is None else rng.uniform(0.01, 0.05, size=(batch, 1))
    s0 = 0.2 if batch is None else rng.uniform(0.0, 0.5, size=(batch, 1))

    def rhs(s, yv):
        return np.sin(s) * yv[..., ::-1] + 1j * yv**2

    k1 = rhs(s0, y)
    y1, k = numerics._dp_step(lambda j, acc: rhs(s0 + numerics._DP_C[j] * h, acc), y, h, k1)
    ref_y1, ref_err, ref_k7 = _dp_step_generator_sums(rhs, s0, y, h, k1)
    assert np.array_equal(y1, ref_y1) and np.array_equal(k[6], ref_k7)
    err = numerics._dp_error(h, k)
    assert np.array_equal(err, ref_err)
    # the error norm over the flat state, as np.mean computes it
    for row in np.atleast_2d(err):
        scale = 1e-14 + 1e-12 * np.abs(row)
        want = float(np.sqrt(np.mean(np.abs(row / scale) ** 2)))
        assert numerics._error_norm(row, row, row, 1e-12, 1e-14) == want


def test_ode_integrate_first_stage_overflow_is_typed():
    # a first stage past the float range makes the initial step 0; it is
    # reported where the path starts, not as a ZeroDivisionError
    m = np.array([[1.0, 0.5], [0.0, -1.0]])
    path = PathPlan([0.0, 1.0], 0.1)
    with np.errstate(all="ignore"), pytest.raises(SingularityApproach) as info:
        ode_integrate(lambda z, v, y: 40 * v * (m @ y.reshape(2, 2)).ravel(), np.array([1e305, 0, 0, 1e305]), path)
    assert info.value.location == path.point(0.0)


def _dense_clearance(w0, w1, n=100_001):
    """min over the chord w0 -> w1 of |w|, by sampling n points."""
    s = np.linspace(0.0, 1.0, n)
    return float(np.min(np.abs(w0 + s * (w1 - w0))))


def test_check_clearance_matches_dense_sampling(rng):
    w0 = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))
    w1 = w0 + (rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))) * rng.uniform(0, 2, size=(60, 1))
    w1[0, 0] = w0[0, 0]  # a chord of length zero
    labels = ["a", "b", "c"]
    for start in (w0, w0[7]):  # per-row starts, and one start shared by every row
        start_rows = np.broadcast_to(start, w1.shape)
        sampled = np.array([[_dense_clearance(a, b) for a, b in zip(r0, r1)] for r0, r1 in zip(start_rows, w1)])
        radius = float(np.median(sampled))
        assert np.min(np.abs(sampled / radius - 1.0)[sampled != radius]) > 1e-6  # no chord at the edge
        for k in range(len(w1)):
            if np.min(sampled[k]) <= radius:
                j = int(np.argmax(sampled[k] <= radius))
                with pytest.raises(PathViolation, match=f"segment 0 .* '{labels[j]}'"):
                    check_clearance(start_rows[k], w1[k], radius, labels)
            else:
                check_clearance(start_rows[k], w1[k], radius, labels)
        # all rows at once: the first row that enters a disc, and its first set
        k, j = divmod(int(np.argmax(sampled.ravel() <= radius)), 3)
        with pytest.raises(PathViolation, match=f"segment {k} .* '{labels[j]}'"):
            check_clearance(start, w1, radius, labels)


def test_check_clearance_names_the_set_a_chord_enters():
    # w = x - t on a hop from 2 to -1 + 0.05j at t = (0.5 + 0.04j, 3): the
    # chord passes 0.015 from t1 and stays 1 or more from t2
    t = np.array([0.5 + 0.04j, 3.0])
    w0, w1 = 2.0 - t, -1.0 + 0.05j - t
    check_clearance(w0, w1, 0.01, ["x = t1", "x = t2"])
    with pytest.raises(PathViolation, match=r"within 1\.500e-02 of singular set 'x = t1' \(exclusion radius 0\.04\)"):
        check_clearance(w0, w1, 0.04, ["x = t1", "x = t2"])
    with pytest.raises(PathViolation, match="'x = t1'"):  # a chord through 0
        check_clearance(1.0 + 0j, -1.0 + 0j, 1e-300, ["x = t1"])
    for end in (complex("nan"), complex("inf"), complex(0.5, float("inf"))):  # no clearance to compare
        with pytest.raises(PathViolation, match="within nan of singular set 'x = t2'"):
            check_clearance(w0, [w1[0], end], 0.01, ["x = t1", "x = t2"])


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _pointwise(f):
    """An fd_derivative evaluator that applies f to each stencil point."""
    return lambda zs: [f(z) for z in zs]


def test_fd_square_at_one():
    assert abs(fd_derivative(_pointwise(lambda z: z * z), 1.0, FDScheme(order=4)) - 2.0) < 1e-10


def test_fd_constant_is_zero():
    assert abs(fd_derivative(_pointwise(lambda z: 7.0 + 0j), 0.3)) < 1e-12


def test_fd_exponential_error_model():
    # step chosen where truncation dominates roundoff, so the O(step^4)
    # error model is the binding bound
    scheme = FDScheme(order=4, step=1e-2, richardson=False)
    z = 0.3 + 0.1j
    err = abs(fd_derivative(_pointwise(np.exp), z, scheme) - np.exp(z))
    assert err < scheme.step**4 * 10


def test_fd_polynomial_exactness(rng):
    # degree <= order is exact to 1e-11 relative
    for order in (2, 4):
        coeffs = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)

        def poly(z):
            return sum(c * z**k for k, c in enumerate(coeffs))

        d_exact = sum(k * c * (0.7 + 0.2j) ** (k - 1) for k, c in enumerate(coeffs) if k > 0)
        scheme = FDScheme(order=order, step=1e-3, richardson=False)
        err = abs(fd_derivative(_pointwise(poly), 0.7 + 0.2j, scheme) - d_exact)
        assert err < 1e-11 * (1 + abs(d_exact)), f"order {order}: {err:.2e}"


def test_fd_second_derivative():
    scheme = FDScheme(order=4, step=2e-3, richardson=True)
    z = 0.3 + 0.1j
    err = abs(fd_derivative(_pointwise(np.exp), z, scheme, deriv=2) - np.exp(z))
    assert err < 1e-9


def test_fd_stencil_failure_wraps_exceptions():
    def bad(zs):
        raise ZeroDivisionError("boom")

    with pytest.raises(StencilFailure):
        fd_derivative(bad, 0.0)
    # so does an evaluator that returns too few values
    with pytest.raises(StencilFailure):
        fd_derivative(lambda zs: zs[1:], 0.0)


def test_fd_lets_package_errors_through():
    # a typed failure of the evaluator keeps its type (and its exit code)
    err = PathViolation("hop enters a disc")

    def bad(zs):
        raise err

    with pytest.raises(PathViolation) as info:
        fd_derivative(bad, 0.0)
    assert info.value is err


def test_fd_evaluator_gets_every_stencil_point_at_once():
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    z = 0.3 + 0.1j
    calls = []
    fd_derivative(lambda zs: calls.append(list(zs)) or np.exp(zs), z, scheme)
    h = scheme.scaled_step(z)
    assert calls == [[z + m * h for m in stencil_multipliers(scheme, (1,))]]


def test_fd_vector_evaluator_matches_each_component():
    # one array-valued evaluator gives each component's scalar derivative
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    z = 0.3 + 0.1j
    both = fd_derivative(_pointwise(lambda w: np.array([np.exp(w), np.sin(w)])), z, scheme)
    for got, f in zip(both, (np.exp, np.sin)):
        # same arithmetic: equal up to a few ulp on any platform
        alone = fd_derivative(_pointwise(f), z, scheme)
        assert abs(got - alone) <= 1e-15 * abs(alone)


def test_combine_stencil_shares_offsets():
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    z = 0.2 + 0.5j
    h = scheme.scaled_step(z)
    values = {m: np.exp(z + m * h) for m in stencil_multipliers(scheme, (1, 2))}
    assert abs(combine_stencil(values, h, scheme, 1) - np.exp(z)) < 1e-11
    assert abs(combine_stencil(values, h, scheme, 2) - np.exp(z)) < 1e-8


def test_fd_scheme_validation():
    with pytest.raises(ValueError):
        FDScheme(order=3)
    with pytest.raises(ValueError):
        FDScheme(step=-1.0)


# ---------------------------------------------------------------------------
# logs continued along chords that check_clearance accepts
# ---------------------------------------------------------------------------

def test_chord_log_tracks_winding():
    # half turn around the origin, 5e-10 from it: the imaginary part grows
    # by pi, where the principal log of w1 would jump to -pi
    w0, w1 = 1.0 + 0j, -1.0 + 1e-9j
    check_clearance(w0, w1, 1e-10, ["w = 0"])
    lw = cmath.log(w0) + np.log(w1 / w0)
    assert abs(lw.imag - np.pi) < 1e-6


def test_chord_log_homotopic_routes_agree():
    # two chords via a midpoint, on a triangle that does not contain 0
    w0, w1 = 1.0 + 0j, -2.0 + 1.5j
    mid = 0.5 + 2.0j
    for a, b in ((w0, w1), (w0, mid), (mid, w1)):
        check_clearance(a, b, 0.1, ["w = 0"])
    direct = cmath.log(w0) + np.log(w1 / w0)
    via = cmath.log(w0) + np.log(mid / w0) + np.log(w1 / mid)
    assert abs(direct - via) < 1e-14
