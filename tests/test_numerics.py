"""Core numerics: quadratic roots, path integration, finite differences."""

import cmath

import numpy as np
import pytest

from garnier_lab.errors import (
    DegenerateQuadratic,
    PathViolation,
    PoleEvaluation,
    SingularityApproach,
    StencilFailure,
)
from garnier_lab.numerics import (
    AffineConstraint,
    FDScheme,
    PathPlan,
    combine_stencil,
    continue_log,
    dp_fixed_batch,
    fd_derivative,
    fd_mixed,
    ode_integrate,
    quad_roots,
    stencil_multipliers,
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
    path = PathPlan([(0.0, 0.0), (1.0, 1.0 + 1.0j)], 0.01)
    con = AffineConstraint((1, -1), 0.0, "diag")
    # |t1 - t2| along the segment: endpoint values 0-0=0... use shifted path
    path = PathPlan([(0.0, 0.3), (1.0, 1.3 + 1.0j)], 0.01)
    d = con.segment_min(path.points[0], path.points[1])
    s = np.linspace(0, 1, 2001)
    vals = np.abs((0.0 - 0.3) + s * ((1.0 - 1.3 - 1.0j) - (0.0 - 0.3)))
    assert abs(d - vals.min()) < 1e-4


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


def test_integrate_singularity_approach():
    # the solution C/(z - 1/2) blows up on the path: the step size underflows
    # and the error reports where
    path = PathPlan([0.0, 1.0], 0.05)
    with pytest.raises(SingularityApproach) as exc:
        ode_integrate(
            lambda z, v, y: np.array([-v * y[0] / (z - 0.5)]), np.array([1.0 + 0j]), path,
            max_steps=20000,
        )
    assert exc.value.location is not None


def test_integrate_fixed_steps_deterministic():
    path = PathPlan([0.0, 0.3], 0.05)
    a = ode_integrate(lambda z, v, y: v * y, np.array([1.0 + 0j]), path, fixed_steps=12)[-1][1]
    b = ode_integrate(lambda z, v, y: v * y, np.array([1.0 + 0j]), path, fixed_steps=12)[-1][1]
    assert np.array_equal(a, b)
    assert abs(a[0] - np.exp(0.3)) < 1e-10


def test_dp_fixed_batch_matches_per_row_fixed_steps():
    # rows with different step counts on their own segments, nonlinear field
    starts = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.4 - 0.1j])
    ends = np.array([0.35 + 0.1j, -0.1 + 0.3j, 0.2 + 0.25j])
    n_steps = [6, 17, 9]
    y0 = np.array([[1.0 + 0.5j, 0.2 - 0.1j], [0.7 - 0.2j, 1.1 + 0.3j], [-0.4 + 0.9j, 0.5 + 0.5j]])

    def rhs(z, v, y):
        return v * np.array([y[0] * y[1] + np.sin(z), -y[0] ** 2 + z * y[1]])

    seen = []

    def batch_field(rows, s, y):
        seen.append((rows.copy(), s[:, 0].copy()))
        z = starts[rows] + s[:, 0] * (ends - starts)[rows]
        return rhs(z, (ends - starts)[rows], y.T).T

    got = dp_fixed_batch(batch_field, y0, n_steps)
    for k, n in enumerate(n_steps):
        ref = ode_integrate(
            rhs, y0[k], PathPlan([complex(starts[k]), complex(ends[k])], 0.05), fixed_steps=n
        )[-1][1]
        assert np.max(np.abs(got[k] - ref)) <= 1e-15 * np.max(np.abs(ref))
        # a retired row is never evaluated again: 6 stages per step plus the first
        evals = [s[list(rows).index(k)] for rows, s in seen if k in rows]
        assert len(evals) == 6 * n + 1
        assert max(evals) <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_square_at_one():
    assert abs(fd_derivative(lambda z: z * z, 1.0, FDScheme(order=4)) - 2.0) < 1e-10


def test_fd_constant_is_zero():
    assert abs(fd_derivative(lambda z: 7.0 + 0j, 0.3)) < 1e-12


def test_fd_exponential_error_model():
    # step chosen where truncation dominates roundoff, so the O(step^4)
    # error model is the binding bound
    scheme = FDScheme(order=4, step=1e-2, richardson=False)
    z = 0.3 + 0.1j
    err = abs(fd_derivative(lambda w: np.exp(w), z, scheme) - np.exp(z))
    assert err < scheme.step**4 * 10


def test_fd_polynomial_exactness(rng):
    # degree <= order is exact to 1e-11 relative
    for order in (2, 4):
        coeffs = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)

        def poly(z):
            return sum(c * z**k for k, c in enumerate(coeffs))

        d_exact = sum(k * c * (0.7 + 0.2j) ** (k - 1) for k, c in enumerate(coeffs) if k > 0)
        scheme = FDScheme(order=order, step=1e-3, richardson=False)
        err = abs(fd_derivative(poly, 0.7 + 0.2j, scheme) - d_exact)
        assert err < 1e-11 * (1 + abs(d_exact)), f"order {order}: {err:.2e}"


def test_fd_second_derivative():
    scheme = FDScheme(order=4, step=2e-3, richardson=True)
    z = 0.3 + 0.1j
    err = abs(fd_derivative(lambda w: np.exp(w), z, scheme, deriv=2) - np.exp(z))
    assert err < 1e-9


def test_fd_mixed_derivative():
    scheme = FDScheme(order=4, step=1e-3, richardson=True)
    z, w = 0.4 + 0.1j, -0.2 + 0.3j
    got = fd_mixed(lambda a, b: np.exp(a * b), z, w, scheme)
    want = (1 + z * w) * np.exp(z * w)
    assert abs(got - want) < 1e-9


def test_fd_stencil_failure_wraps_exceptions():
    def bad(z):
        raise ZeroDivisionError("boom")

    with pytest.raises(StencilFailure):
        fd_derivative(bad, 0.0)


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
# continuous logarithm
# ---------------------------------------------------------------------------

def test_continue_log_tracks_winding():
    # half turn around the origin: the imaginary part grows by pi, while the
    # principal branch would jump
    w0 = 1.0 + 0j
    lw = continue_log(cmath.log(w0), w0, -1.0 + 1e-9j)
    assert abs(lw.imag - np.pi) < 1e-6


def test_continue_log_homotopic_routes_agree():
    w0, w1 = 1.0 + 0j, -2.0 + 1.5j
    mid = 0.5 + 2.0j
    direct = continue_log(cmath.log(w0), w0, w1)
    via = continue_log(continue_log(cmath.log(w0), w0, mid), mid, w1)
    assert abs(direct - via) < 1e-10


def test_continue_log_rejects_origin_crossing():
    with pytest.raises(PoleEvaluation):
        continue_log(0.0, 1.0 + 0j, -1.0 + 0j)  # chord passes through 0
