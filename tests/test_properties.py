"""Property tests over random inputs: space-variable map, quadratic roots, continuous log."""

import cmath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from garnier_lab.numerics import continue_log, quad_roots
from garnier_lab.quantization import zeta_eta_inverse, zeta_eta_map


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
    assert abs(r1) >= abs(r2) * (1 - 4 * eps)  # equal-magnitude roots tie to rounding
    # the product is accurate to relative rounding error, the sum to the
    # rounding error of the larger root
    assert abs(r1 * r2 - c / a) <= 16 * eps * abs(c / a)
    assert abs((r1 + r2) + b / a) <= 16 * eps * (abs(r1) + abs(b / a))


@_SETTINGS
@given(_COEF, _COEF, st.integers(-3, 3))
def test_continue_log_is_continuous_along_the_chord(w0, w1, sheet):
    # keep the chord w0 -> w1 away from the branch point at the origin
    d = w1 - w0
    assume(abs(w0) > 1e-2 and abs(w1) > 1e-2 and abs(d) > 1e-6)
    s = -(w0.real * d.real + w0.imag * d.imag) / abs(d) ** 2
    assume(abs(w0 + min(1.0, max(0.0, s)) * d) > 1e-2 * max(abs(w0), abs(w1)))
    l0 = cmath.log(w0) + 2j * cmath.pi * sheet
    l1 = continue_log(l0, w0, w1)
    # lands on a logarithm of w1 ...
    assert abs(cmath.exp(l1 - l0) * w0 - w1) <= 1e-12 * abs(w1)
    # ... on the sheet reached by turning less than pi around the origin ...
    assert abs(l1.imag - l0.imag) < cmath.pi
    # ... and independently of where the chord is split
    mid = w0 + 0.37 * d
    assert abs(continue_log(continue_log(l0, w0, mid), mid, w1) - l1) <= 1e-12 * (1 + abs(l1))
