"""Seeded inputs, operations and correctness gates of the three workloads.

An operation ("op") is one call into the public entry point its workload
drives, followed by the check against the gate of the matching acceptance
criterion. Op ``i`` of a run with seed ``s`` builds its inputs from ``(s, i)``
(the ``*_inputs`` functions say how) and a fresh :class:`Frame`, so no
per-frame cache carries over between ops. The package is reached only through its
public functions, looked up on the module at call time so that the tracer in
``tracing.py`` can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from garnier_lab import (
    garnier_okamoto,
    numerics,
    poly_garnier,
    quantization,
    schlesinger,
)

# Geometry, seeds and gates are copied from garnier_lab.acceptance rather
# than imported, so that a change to the program cannot change what the
# benchmark feeds it or how it checks the answers.

# the geometry of the README: frozen times at 1 and 0, moving times near
# 0.3 and 0.62, spatial base point and grids in the upper half-plane
BASE_T1 = 0.3 + 0.05j
BASE_T2 = 0.62 - 0.04j
BASE_X = 0.45 + 1.1j
X_DISC = (0.35 + 1.0j, 0.25)
Y_DISC = (1.15 + 1.45j, 0.25)
GOLDEN_ANGLE = 2.399963229728653

# the unit-length (t1, t2) polyline of criterion C1
LONG_T_PATH = (
    (BASE_T1, BASE_T2),
    (0.34 + 0.40j, 0.58 - 0.39j),
    (0.52 + 0.23j, 0.40 - 0.22j),
    (0.40 + 0.42j, 0.52 - 0.41j),
)
T_EXCLUSION = 0.05

# points per op, and ops per cycle of the star grid, of the grid workloads
BPZ_POINTS = 4
BPZ_CYCLE = 8
QPG_POINTS = 1
QPG_CYCLE = 12

# gates, as in the acceptance criteria
BPZ_TOL = 1e-5  # C7
QPG_TOL = 1e-4  # C9
ROUNDTRIP_TOL = 1e-10  # C9
DRIFT_TOL = 1e-9  # C1
EIG_TOL = 1e-10  # C5
GO_TOL = 1e-6  # C3
FLOW_RTOL = 1e-12

# flow_paths rotation. The weights give each kind a comparable share of the
# time at the seed commit (Schlesinger / PG / GO about 25% / 29% / 46%),
# where one GO right-hand side costs ~13x a Schlesinger one and a C5 path is
# ~5x shorter than C1's.
ROTATION = ("schlesinger", "pg", "pg", "pg", "schlesinger", "pg", "pg", "pg", "go")
# one cycle is three rotations; entry e is (kind, k), the k-th start state of that kind
FLOW_SCHEDULE = tuple((kind, (ROTATION * 3)[:e].count(kind)) for e, kind in enumerate(ROTATION * 3))
FLOW_CYCLE = len(FLOW_SCHEDULE)
GO_LEG = 0.3  # share of the first C1 leg that a GO op integrates
GO_JITTER = 0.005


@dataclass
class Verdict:
    """Outcome of one op: the measured quantities and whether the gate held."""

    passed: bool
    detail: str
    max_rel: float = 0.0  # worst residual of a residual-engine op, else 0

    def __post_init__(self):
        self.passed = bool(self.passed)  # gates compare numpy scalars


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _random_theta4(rng: np.random.Generator) -> list[complex]:
    out = []
    for _ in range(4):
        z = complex(rng.uniform(0.15, 0.7), rng.uniform(-0.3, 0.3))
        out.append(z if rng.uniform() < 0.5 else -z)
    return out


def b_state(rng: np.random.Generator) -> schlesinger.SchlesingerState:
    theta = _random_theta4(rng)
    return schlesinger.gen_schlesinger_b(theta, seed=_int_seed(rng), t1=BASE_T1, t2=BASE_T2)


def seeded_b_state(seed: int) -> schlesinger.SchlesingerState:
    """The B-state the acceptance criteria draw for ``seed``."""
    theta = _random_theta4(np.random.default_rng(seed))
    return schlesinger.gen_schlesinger_b(theta, seed=seed + 1, t1=BASE_T1, t2=BASE_T2)


def star_grid(
    rng: np.random.Generator, seed: int, index: int, cycle: int, points: int
) -> list[tuple[complex, complex]]:
    """The ``points`` (x, y) pairs of op ``index`` on its cycle's jittered star grid.

    The ``cycle * points`` pairs of one cycle lie on golden-angle spirals
    filling the x and y discs, both turned by one phase drawn from (seed, cycle),
    with each radius jittered inside its ring by ``rng``. Step
    counts depend on where a point sits in its disc, so a cycle that covers
    both discs evenly costs nearly the same for every seed.
    """
    n = cycle * points
    phase = np.random.default_rng([seed, index // cycle, 0]).uniform(0.0, 2.0 * np.pi)
    out = []
    for j in range(points):
        k = (index % cycle) * points + j
        pair = []
        for center, radius in (X_DISC, Y_DISC):
            r = radius * np.sqrt((k + rng.uniform(0.25, 1.0)) / n)
            pair.append(complex(center + r * np.exp(1j * (phase + GOLDEN_ANGLE * k))))
        out.append(tuple(pair))
    return out


def disc_offset(rng: np.random.Generator, radius: float) -> complex:
    """Uniform random point of the disc of the given radius around 0."""
    return complex(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


# ---------------------------------------------------------------------------
# bpz_grid: criterion C7's traffic
# ---------------------------------------------------------------------------

def bpz_inputs(seed: int, index: int):
    rng = op_rng(seed, index)
    return b_state(rng), star_grid(rng, seed, index, BPZ_CYCLE, BPZ_POINTS)


def bpz_op(inputs) -> Verdict:
    state, grid = inputs
    frame = quantization.Frame(state, base_x=BASE_X)
    reports = quantization.bpz_residual(frame, grid, quantization.LAB_FD)
    worst = max(r.max_rel_residual for r in reports)
    return Verdict(worst <= BPZ_TOL, f"bpz max_rel={worst:.3e} (gate {BPZ_TOL:.0e})", worst)


# ---------------------------------------------------------------------------
# qpg_grid: criterion C9's traffic
# ---------------------------------------------------------------------------

def qpg_inputs(seed: int, index: int):
    rng = op_rng(seed, index)
    state = b_state(rng)
    grid = []
    for x, y in star_grid(rng, seed, index, QPG_CYCLE, QPG_POINTS):
        zeta, eta = quantization.zeta_eta_map(x, y, state.t1, state.t2)
        grid.append((zeta, eta, (x, y)))
    return state, grid


def qpg_op(inputs) -> Verdict:
    state, grid = inputs
    t1, t2 = state.t1, state.t2
    roundtrip = 0.0
    for zeta, eta, (x, y) in grid:
        xx, yy = quantization.zeta_eta_inverse(zeta, eta, t1, t2, (x, y))
        roundtrip = max(roundtrip, abs(xx - x) + abs(yy - y))
    frame = quantization.Frame(state, base_x=BASE_X)
    ab = quantization.solve_alpha_beta(state.theta)
    reports = quantization.quantized_pg_residual(frame, grid, ab, quantization.QPG_FD)
    worst = max(r.max_rel_residual for r in reports)
    passed = worst <= QPG_TOL and roundtrip <= ROUNDTRIP_TOL
    detail = (
        f"qpg max_rel={worst:.3e} (gate {QPG_TOL:.0e}) "
        f"roundtrip={roundtrip:.3e} (gate {ROUNDTRIP_TOL:.0e})"
    )
    return Verdict(passed, detail, worst)


# ---------------------------------------------------------------------------
# flow_paths: the adaptive integrator over long (t1, t2) paths
# ---------------------------------------------------------------------------

def flow_inputs(seed: int, index: int):
    """Op ``index`` of the flow_paths cycle, rotated by an offset drawn from the seed.

    The Schlesinger and polynomial-Garnier ops replay the start states and
    paths of criteria C1 and C5, drawn by the public generators from those
    criteria's seeds. C1 paths moved off them (by up to 0.03 per corner)
    came close enough to a movable pole of the flow to miss C1's gate,
    whatever the rtol, in a few percent of draws; and freshly drawn states
    differ tenfold in step count, which would move a run's mean with the
    seed. The Garnier-Okamoto ops, whose gate has six orders of margin, run
    C3's first state along the first leg of the C1 path with its end moved by
    up to GO_JITTER from (seed, index); a wider jitter moved a GO op's cost by
    +-15% and the run's throughput with it. One state keeps the GO ops, the
    slowest 11% of ops, alike, so op_s.tail (about the 11th slowest op of a
    run) stays among them however many whole cycles a run holds.
    """
    offset = int(np.random.default_rng(seed).integers(FLOW_CYCLE))
    kind, k = FLOW_SCHEDULE[(index + offset) % FLOW_CYCLE]
    if kind == "schlesinger":
        return kind, seeded_b_state(100 + k), LONG_T_PATH
    if kind == "pg":
        s0 = poly_garnier.gen_pg(poly_garnier.random_theta_pg(500 + 3 * k), 500 + 3 * k + 1)
        return kind, s0, [(s0.t1, s0.t2), (s0.t1 + 0.10 + 0.16j, s0.t2 - 0.08 - 0.12j)]
    rng = op_rng(seed, index)
    (t1, t2), (u1, u2) = LONG_T_PATH[:2]
    u1, u2 = u1 + disc_offset(rng, GO_JITTER), u2 + disc_offset(rng, GO_JITTER)
    return kind, seeded_b_state(300), [(t1, t2), (t1 + GO_LEG * (u1 - t1), t2 + GO_LEG * (u2 - t2))]


def _schlesinger_op(state, corners) -> Verdict:
    path = numerics.PathPlan(corners, T_EXCLUSION)
    end = schlesinger.integrate_schlesinger(state, path, rtol=FLOW_RTOL)[-1][1]
    drift = float(np.max(np.abs(end.a_inf - state.a_inf)))
    for m0, m1 in zip(state.A, end.A):
        drift = max(drift, abs(np.trace(m1) - np.trace(m0)), abs(np.linalg.det(m1) - np.linalg.det(m0)))
    return Verdict(drift <= DRIFT_TOL, f"schlesinger drift={drift:.3e} (gate {DRIFT_TOL:.0e})")


def _pg_op(s0, corners) -> Verdict:
    path = numerics.PathPlan(corners, T_EXCLUSION)
    _s, end, ln_u = poly_garnier.integrate_pg(s0, path, rtol=FLOW_RTOL, with_lnu=True)[-1]
    th = s0.params
    worst = 0.0
    for m, target in zip(poly_garnier.to_schlesinger(end, np.exp(ln_u)).A, (th.tht1, th.tht2, th.th1, th.th0)):
        ev = sorted(np.linalg.eigvals(m), key=abs)
        worst = max(worst, abs(ev[0]), abs(ev[1] - target) / (1 + abs(target)))
    return Verdict(worst <= EIG_TOL, f"pg eigenvalue defect={worst:.3e} (gate {EIG_TOL:.0e})")


def _go_op(state, corners) -> Verdict:
    path = numerics.PathPlan(corners, T_EXCLUSION)
    q0 = schlesinger.shift_normalization(state, "BtoQ")
    g0 = garnier_okamoto.extract_go(q0)
    g_ham = garnier_okamoto.integrate_go(g0, path, rtol=FLOW_RTOL)[-1][1]
    q_end = schlesinger.integrate_schlesinger(q0, path, rtol=FLOW_RTOL)[-1][1]
    g_flow = garnier_okamoto.extract_go(q_end)
    lam, mu = np.array(g_flow.lam), np.array(g_flow.mu)
    # extraction labels the pair by root order; match it to the integrated pair
    if abs(lam[0] - g_ham.lam[0]) > abs(lam[1] - g_ham.lam[0]):
        lam, mu = lam[::-1], mu[::-1]
    want = np.concatenate([g_ham.lam, g_ham.mu])
    got = np.concatenate([lam, mu])
    gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return Verdict(gap <= GO_TOL, f"go cross-picture gap={gap:.3e} (gate {GO_TOL:.0e})")


_FLOW_OPS: dict[str, Callable] = {"schlesinger": _schlesinger_op, "pg": _pg_op, "go": _go_op}


def flow_op(inputs) -> Verdict:
    kind, start, corners = inputs
    return _FLOW_OPS[kind](start, corners)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed, op index) -> inputs
    run_op: Callable  # inputs -> Verdict
    cycle: int  # ops per cycle: the timed loop runs whole cycles, a traced pass one cycle


WORKLOADS = {
    "bpz_grid": Workload("bpz_grid", bpz_inputs, bpz_op, BPZ_CYCLE),
    "qpg_grid": Workload("qpg_grid", qpg_inputs, qpg_op, QPG_CYCLE),
    "flow_paths": Workload("flow_paths", flow_inputs, flow_op, FLOW_CYCLE),
}
