"""Acceptance gate: every criterion at its documented scale and tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them, or `garnier-lab verify-all` for the CLI equivalent.
"""

import time

import pytest

from garnier_lab.acceptance import (
    CRITERIA,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_5,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)
from garnier_lab.numerics import FDScheme


def _run(cid):
    result = CRITERIA[cid]()
    print(f"[{'PASS' if result.passed else 'FAIL'}] {cid}: {result.detail}")
    assert result.passed, f"{cid}: {result.detail}"
    return result


def test_criterion_01_schlesinger_conservation():
    _run("C1")


def test_criterion_01_reports_its_taylor_work():
    # the work counters are deterministic, so they sit in the byte-identical
    # report: seed 100's path takes 24 Taylor steps, and its coefficients put
    # the nearest singularity at 0.386 of the distance to the nearest t_i = t_j;
    # a path integration is summed at steps it does not know in advance, so
    # every series forms all 20 orders
    first, second = (criterion_1(n_states=1).metrics for _ in range(2))
    assert first == second
    assert first["taylor_steps"] == 24
    assert first["taylor_orders"] == 20 * first["taylor_steps"]
    assert first["min_radius_ratio"] == pytest.approx(0.3857915440447372, rel=1e-9)


def test_criterion_02_zero_curvature_transport():
    _run("C2")


def test_criterion_02_reports_its_taylor_work():
    # as C1: frame 200's two loops take 74 Taylor steps, 60 on their time legs
    # and 14 on their x legs (each loop walks the base transport to x0 itself),
    # each step on a series of its own of all 20 orders, and the t2 loop passes
    # a movable pole at 0.0235 of the distance to the nearest fixed singular
    # set; the counters are deterministic. The closest any checked chord comes
    # to a singular set is the t2 loop's far corner: t2 + dt2 = 0.5 + 0.1i
    # lies |0.2 + 0.05i| from t1
    first, second = (criterion_2(n_frames=1).metrics for _ in range(2))
    assert first == second
    assert set(first) == {"max_loop_defect", "taylor_steps", "taylor_series", "taylor_orders", "min_radius_ratio",
                          "min_clearance"}
    assert first["taylor_steps"] == first["taylor_series"] == 74 and first["taylor_orders"] == 20 * 74
    assert first["min_radius_ratio"] == pytest.approx(0.023508854137585355, rel=1e-9)
    assert first["min_clearance"] == pytest.approx(abs(0.2 + 0.05j), rel=1e-12)


def test_criterion_03_go_cross_picture():
    _run("C3")


@pytest.mark.parametrize("criterion, kwargs, orders, ratio", [
    (criterion_3, {"n_states": 1}, 14, 0.5041722757689349),
    (criterion_11, {}, 12, 0.5108404123820364),
], ids=["C3", "C11"])
def test_criteria_03_and_11_report_their_taylor_work(criterion, kwargs, orders, ratio):
    # their moves are time stencils of bare B-states: one bundle series per
    # direction, summed at every offset, and no walk step; each series stops
    # at the order its largest offset needs (7 and 6 of 20), and the smallest
    # ratio is read from the last two orders formed; all counters are
    # deterministic
    first, second = (criterion(**kwargs).metrics for _ in range(2))
    assert first == second
    assert (first["taylor_steps"], first["taylor_series"], first["taylor_orders"]) == (0, 2, orders)
    assert first["min_radius_ratio"] == pytest.approx(ratio, rel=1e-9)


def test_criterion_04_hamilton_equation_identity():
    _run("C4")


def test_criterion_05_linearization():
    _run("C5")


def test_criterion_05_reports_its_taylor_work():
    # as C1: seed 500's trajectory takes 11 Taylor steps of 20 orders, and its
    # 6 time stencils sum one series each, of 6 orders; the last two orders of
    # a stencil series put the nearest singularity at 0.230 of the distance to
    # the nearest fixed singular set (the trajectory's own steps read 0.305);
    # the counters are deterministic
    first, second = (criterion_5(n_traj=1).metrics for _ in range(2))
    assert first == second
    assert (first["taylor_steps"], first["taylor_series"], first["taylor_orders"]) == (11, 17, 11 * 20 + 6 * 6)
    assert first["min_radius_ratio"] == pytest.approx(0.2300767454744685, rel=1e-9)


def test_criterion_06_bridge_coherence():
    _run("C6")


def test_criterion_07_bpz_verification():
    # the wall time stays out of the report; the budget is checked here too
    t0 = time.perf_counter()
    _run("C7")
    assert time.perf_counter() - t0 <= 300.0


@pytest.mark.parametrize(
    "criterion, keys, steps, series, orders, ratio, counts",
    [
        (criterion_7, {"max_rel", "max_rel_degenerate"}, 64, 26, 300, 0.4971067760661927, {}),
        (criterion_8, {"max_rel", "swap_gap"}, 202, 67, 1051, 0.4971067760661927, {}),
        (criterion_9, {"max_rel", "max_roundtrip"}, 250, 61, 728, 0.47566595081940116,
         {"stencil_steps": 8, "clamped_steps": 8}),
    ],
    ids=["C7", "C8", "C9"],
)
def test_criteria_07_to_09_report_their_taylor_work(criterion, keys, steps, series, orders, ratio, counts):
    # every move of Phi in x walks its chord in Taylor steps, a spatial hop
    # in one, and the hops from one node share its series: at one frame and
    # two grid points, the same counts on every run; the time stencils and
    # the hop series stop at the order their offsets need (at 20 orders each
    # series would form 520, 1340 and 1220); the smallest ratio is a time
    # stencil's, from its last two orders; C9 also counts its stencil steps
    # (4 per point) and those its branch radius clamped
    first, second = (criterion(n_frames=1, grid_points=2).metrics for _ in range(2))
    assert first == second
    assert set(first) == keys | {"taylor_steps", "taylor_series", "taylor_orders", "min_radius_ratio",
                                 "min_clearance"} | set(counts)
    assert (first["taylor_steps"], first["taylor_series"], first["taylor_orders"]) == (steps, series, orders)
    assert first["min_radius_ratio"] == pytest.approx(ratio, rel=1e-9)
    assert {key: first[key] for key in counts} == counts


@pytest.mark.parametrize("step, clamped", [(5e-4, 8), (1e-4, 1), (5e-5, 0)])
def test_criterion_09_reports_how_many_steps_its_branch_radius_clamped(step, clamped):
    # an overridden FD step reaches C9's stencils only where the branch
    # radius leaves room for it; the report says how often it did not
    scheme = FDScheme(order=4, step=step, richardson=True)
    metrics = criterion_9(n_frames=1, grid_points=2, scheme=scheme).metrics
    assert (metrics["stencil_steps"], metrics["clamped_steps"]) == (8, clamped)


def test_criterion_08_quantized_go():
    _run("C8")


def test_criterion_09_quantized_polynomial_garnier():
    _run("C9")


def test_criterion_10_pvi_reduction():
    _run("C10")


def test_criterion_10_reports_its_taylor_work():
    # its trajectory takes 23 Taylor steps of 20 orders, and the Hamilton-system
    # check sums one hop_pg series per inner sample (4), of 23 orders between
    # them; the smallest radius ratio and clearance are the trajectory's; the
    # counters are deterministic
    first, second = (criterion_10().metrics for _ in range(2))
    assert first == second
    assert (first["taylor_steps"], first["taylor_series"], first["taylor_orders"]) == (23, 27, 20 * 23 + 23)
    assert first["min_radius_ratio"] == pytest.approx(0.7677078101303005, rel=1e-9)
    assert first["min_clearance"] == pytest.approx(0.2816025568065745, rel=1e-12)


def test_criterion_11_tau_consistency():
    _run("C11")


def test_criterion_12_determinism():
    _run("C12")
