"""Acceptance gate: every criterion at its documented scale and tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them, or `garnier-lab verify-all` for the CLI equivalent.
"""

import time

import pytest

from garnier_lab.acceptance import CRITERIA


def _run(cid):
    result = CRITERIA[cid]()
    print(f"[{'PASS' if result.passed else 'FAIL'}] {cid}: {result.detail}")
    assert result.passed, f"{cid}: {result.detail}"
    return result


def test_criterion_01_schlesinger_conservation():
    _run("C1")


def test_criterion_02_zero_curvature_transport():
    _run("C2")


def test_criterion_03_go_cross_picture():
    _run("C3")


def test_criterion_04_hamilton_equation_identity():
    _run("C4")


def test_criterion_05_linearization():
    _run("C5")


def test_criterion_06_bridge_coherence():
    _run("C6")


def test_criterion_07_bpz_verification():
    # the wall time stays out of the report; the budget is checked here too
    t0 = time.perf_counter()
    _run("C7")
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_08_quantized_go():
    _run("C8")


def test_criterion_09_quantized_polynomial_garnier():
    _run("C9")


def test_criterion_10_pvi_reduction():
    _run("C10")


def test_criterion_11_tau_consistency():
    _run("C11")


def test_criterion_12_determinism():
    _run("C12")
