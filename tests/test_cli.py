"""Command-line front end: gen, run, verify dispatch, exit codes, formats."""

import functools
import json

import numpy as np
import pytest

from garnier_lab import cli
from garnier_lab.acceptance import BASE_T2, CheckResult, criterion_6
from garnier_lab.cli import MODES, main, run_scenario, write_report
from garnier_lab.errors import ConfigInvalid
from garnier_lab.poly_garnier import PGState, gen_pg, random_theta_pg
from garnier_lab.schlesinger import SchlesingerState


def test_gen_schlesinger_constraints(tmp_path, capsys):
    assert main(["gen", "--kind", "schlesinger-B", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    state = SchlesingerState.from_json(payload)
    for m, th_pair in zip(state.A, (payload["theta"][f"theta{i}"] for i in range(1, 5))):
        th = complex(*th_pair)
        assert abs(np.trace(m)) < 1e-14
        assert abs(np.linalg.det(m) + th * th / 4.0) < 1e-13


def test_gen_is_reproducible(capsys):
    main(["gen", "--kind", "pg", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "--kind", "pg", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_gen_pg_passes_fuchs(capsys):
    assert main(["gen", "--kind", "pg", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    state = PGState.from_json(payload)  # loader enforces the Fuchs relation
    assert state.params is not None


def _zero_state() -> dict:
    return {
        "t1": [0.3, 0.05],
        "t2": [0.62, -0.04],
        "matrices": [[[0.0, 0.0]] * 4 for _ in range(4)],
        "norm": "B",
        "theta": {
            "theta1": [0.0, 0.0],
            "theta2": [0.0, 0.0],
            "theta3": [0.0, 0.0],
            "theta4": [0.0, 0.0],
            "k_inf": [0.0, 0.0],
            "jordan_diagonal": True,
        },
    }


def test_run_zero_matrices_passes(tmp_path):
    # zero residues conserve everything exactly
    cfg = {"spec": 1, "mode": "schlesinger", "initial_state": _zero_state()}
    report = run_scenario(cfg)
    assert report["passed"]
    assert report["checks"][0]["metrics"]["max_drift"] < 1e-13


def test_run_custom_schlesinger_reports_its_taylor_work(capsys):
    # the custom-state check counts the Taylor work of its path as C1 does:
    # seed 3's B-state on the default custom path passes a movable pole at
    # 0.0034 of the distance to the nearest fixed singular set, the sign that
    # its drift (8.1e-7 against the tolerance 1e-9) comes from a pole near
    # the path; a path integration forms all 20 orders of every series
    assert main(["gen", "--kind", "schlesinger-B", "--seed", "3"]) == 0
    cfg = {"spec": 1, "mode": "schlesinger", "initial_state": json.loads(capsys.readouterr().out)}
    metrics = run_scenario(cfg)["checks"][0]["metrics"]
    assert set(metrics) == {"max_drift", "path_length", "taylor_steps", "taylor_series", "taylor_orders",
                            "min_radius_ratio", "min_clearance"}
    assert metrics["taylor_steps"] == metrics["taylor_series"] > 0
    assert metrics["taylor_orders"] == 20 * metrics["taylor_steps"]
    assert metrics["min_radius_ratio"] == pytest.approx(0.003385627564523017, rel=1e-9)


def test_run_detects_check_failure(tmp_path):
    # a sloppy integrator tolerance must surface as a failed verdict (exit 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "spec": 1,
                "mode": "schlesinger",
                "seed": 7,
                "tolerances": {"rtol": 1e-3},
                "scale": {"n_states": 2, "n_frames": 1},
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 1


def test_run_invalid_configs_exit_2(tmp_path):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps({"spec": 1, "mode": "nonsense"}))
    assert main(["run", "--config", str(bad1)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"spec": 2, "mode": "bridge"}))
    assert main(["run", "--config", str(bad2)]) == 2
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"spec": 1, "mode": "bpz", "tolerances": {"fd_order": 3}}))
    assert main(["run", "--config", str(bad3)]) == 2


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (None, {"mode": "bpz", "tolerances": {"rtol": 1e-12}}),
        (None, {"mode": "schlesinger", "tolerances": {"atol": 1e-14}}),
        (None, {"mode": "quantize-pg", "tolerances": {"atol": 1e-14}}),
        (None, {"mode": "schlesinger", "tolerances": {"fd_step": 1e-3}}),
        (None, {"mode": "garnier-go", "tolerances": {"richardson": False}}),
        (None, {"mode": "bpz", "tolerances": {"fd_stepp": 1e-3}}),
        (["--mode", "quantize-go", "--rtol", "1e-10"], None),
        (["--mode", "pvi", "--fd-step", "1e-3"], None),
    ],
    ids=["rtol_in_bpz", "atol", "atol_in_quantize_pg", "fd_step_in_schlesinger", "richardson_in_garnier_go",
         "misspelt_key", "rtol_flag_in_quantize_go", "fd_step_flag_in_pvi"],
)
def test_run_unread_tolerance_exits_2(tmp_path, capsys, argv, cfg):
    # a tolerance the chosen mode never reads would change nothing: it is
    # rejected, naming the field, before any work is done
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spec": 1, **cfg}))
        argv = ["--config", str(path)]
    assert main(["run", *argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "tolerances." in err


_T0 = [[0.3, 0.05], [0.62, -0.04]]  # _zero_state's (t1, t2)


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["--mode", "bpz", "--fd-step", "-1"], None),
        (["--mode", "schlesinger", "--rtol", "0"], None),
        (None, {"mode": "schlesinger", "tolerances": {"rtol": -1.0}}),
        (None, {"mode": "schlesinger", "tolerances": {"rtol": True}}),
        (None, {"mode": "bpz", "tolerances": {"fd_step": True}}),
        (None, {"mode": "bpz", "tolerances": {"fd_order": True}}),
        (None, {"mode": "schlesinger", "seed": True}),
        (None, {"mode": "bpz", "scale": {"grid_points": True}}),
        (None, {"mode": "schlesinger", "initial_state": _zero_state(), "paths": {"t_path": [_T0]}}),
        (None, {"mode": "schlesinger", "initial_state": _zero_state(), "paths": {"t_path": [[1, 2], [3, 4]]}}),
        (None, {"mode": "schlesinger", "initial_state": _zero_state(), "paths": {"t_path": [_T0, _T0]}}),
        (None, {"mode": "schlesinger", "initial_state": _zero_state(), "paths": {"exclusion_radius": 0}}),
        (None, {"mode": "schlesinger", "initial_state": _zero_state(), "paths": {"exclusion_radius": True}}),
    ],
    ids=[
        "fd_step_flag_negative",
        "rtol_flag_zero",
        "rtol_negative",
        "rtol_bool",
        "fd_step_bool",
        "fd_order_bool",
        "seed_bool",
        "scale_bool",
        "t_path_one_waypoint",
        "t_path_not_pairs",
        "t_path_repeated_waypoint",
        "exclusion_radius_zero",
        "exclusion_radius_bool",
    ],
)
def test_run_invalid_values_exit_2(tmp_path, capsys, argv, cfg):
    # invalid values are configuration errors (exit 2), never a traceback,
    # a failed check (1) or a numerical failure (3)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spec": 1, **cfg}))
        argv = ["--config", str(path)]
    assert main(["run", *argv]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--seed", "-1"],
        ["gen", "--kind", "pg", "--seed", "-1"],
        ["gen", "--kind", "schlesinger-B", "--seed", "-1"],
    ],
    ids=["verify_all", "gen_pg", "gen_schlesinger"],
)
def test_negative_seed_exits_2_naming_the_seed(capsys, argv):
    # every verb validates --seed as run does, before any work: exit 2 with
    # the field named, not a traceback or another field
    assert main(argv) == 2
    assert "configuration error: seed: seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["--mode", "schlesinger", "--seed", "42", "--rtol", "10"], None),
        (["--mode", "schlesinger", "--rtol", "1"], None),
        (None, {"mode": "schlesinger", "tolerances": {"rtol": 1.0}}),
    ],
    ids=["flag_ten", "flag_one", "key_one"],
)
def test_run_rtol_at_or_past_one_exits_2_naming_rtol(tmp_path, capsys, argv, cfg):
    # a local tolerance of max|A| or more would let a Taylor step past the
    # radius of its own series: rejected before any work, not exit 3
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spec": 1, **cfg}))
        argv = ["--config", str(path)]
    assert main(["run", *argv]) == 2
    assert "configuration error: tolerances.rtol: rtol must be a number in (0, 1)" in capsys.readouterr().err


def test_run_tiny_rtol_steps_on_the_atol_floor(tmp_path, capsys, b_state):
    # rtol far below rounding still runs: the absolute floor bounds the steps
    cfg = {"spec": 1, "mode": "schlesinger", "initial_state": b_state.to_json()}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--rtol", "1e-30"]) == 0
    assert "[PASS] C1" in capsys.readouterr().out


@pytest.mark.parametrize("defect", ["missing_matrices", "bad_norm", "nan_entry"])
def test_run_malformed_initial_state_exits_2(tmp_path, capsys, defect):
    # a broken state block is a configuration error, not a check failure
    state = _zero_state()
    if defect == "missing_matrices":
        del state["matrices"]
    elif defect == "bad_norm":
        state["norm"] = "C"
    else:
        state["matrices"][1][2] = [float("nan"), 0.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "mode": "schlesinger", "initial_state": state}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "initial_state" in capsys.readouterr().err


def test_run_malformed_pvi_initial_state_exits_2(tmp_path):
    state = gen_pg(random_theta_pg(11), 12).to_json()
    del state["q"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "mode": "pvi", "initial_state": state}))
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_pvi_off_reduction_exits_3(tmp_path):
    # generic exponents violate the resonance: NotOnReduction surfaces
    # before any integration as the numerical-singularity exit code
    th = random_theta_pg(11)
    state = gen_pg(th, 12).to_json()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "mode": "pvi", "initial_state": state}))
    assert main(["run", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("fd_step, code", [(0.012, 0), (0.014, 3)])
def test_run_bpz_time_stencil_past_its_step_exits_3(tmp_path, capsys, fd_step, code):
    # x hops walk, so only a time hop can be too long: at seed 45, one frame
    # and one point, the t2 stencil offset 2 * fd_step * (1 + |t2|) passes
    # the bundle's Taylor step at fd_step 0.014 and not at 0.012
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "mode": "bpz", "scale": {"n_frames": 1, "grid_points": 1}}))
    assert main(["run", "--config", str(cfg), "--seed", "45", "--fd-step", str(fd_step)]) == code
    offset = f"stencil offset {2 * fd_step * (1 + abs(BASE_T2)):.3e} past the Taylor step"
    assert (offset in capsys.readouterr().err) == (code == 3)


def test_run_reports_are_deterministic(tmp_path):
    cfg = {"spec": 1, "mode": "bridge", "seed": 42, "scale": {"n_states": 4}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(run_scenario(dict(cfg)), p1)
    write_report(run_scenario(dict(cfg)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_bpz_reports_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "seed": 5, "scale": {"n_frames": 1, "grid_points": 1}}))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["run", "--mode", "bpz", "--config", str(cfg), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_run_reports_are_byte_identical_in_every_mode(tmp_path, mode):
    # minimal scale; the verdict itself is not the point, the bytes are
    scale = {"n_states": 1, "n_frames": 1, "n_traj": 1, "grid_points": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": 1, "seed": 3, "scale": scale}))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["run", "--mode", mode, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_csv_dump(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "spec": 1,
                "mode": "quantize-go",
                "seed": 3,
                "scale": {"n_frames": 1, "grid_points": 2},
            }
        )
    )
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--csv"])
    assert code == 0
    assert out.exists()
    csv_path = out.with_suffix(".csv")
    header = csv_path.read_text().splitlines()[0]
    assert header == "re_x,im_x,re_y,im_y,equation_id,abs_residual,rel_residual"


def test_timings_only_with_flag(tmp_path):
    cfg = {"spec": 1, "mode": "bridge", "seed": 1, "scale": {"n_states": 2}}
    p1, p2 = tmp_path / "plain.json", tmp_path / "timed.json"
    rep = run_scenario(dict(cfg))
    write_report(rep, p1)
    write_report(rep, p2, timings=True)
    assert "timings_s" not in json.loads(p1.read_text())
    assert "timings_s" in json.loads(p2.read_text())


def test_validate_rejects_initial_state_for_wrong_mode():
    with pytest.raises(ConfigInvalid):
        run_scenario({"spec": 1, "mode": "bridge", "initial_state": {"t1": [0.3, 0]}})


def test_validate_enforces_fuchs_on_theta_block():
    bad = {
        "th0": [0.1, 0.0], "th1": [0.2, 0.0], "tht1": [0.3, 0.0],
        "tht2": [0.4, 0.0], "thinf1": [0.5, 0.0], "thinf2": [0.6, 0.0],
    }
    with pytest.raises(ConfigInvalid):
        run_scenario({"spec": 1, "mode": "garnier-poly", "theta": bad})
    good = dict(bad, thinf2=[-1.5, 0.0])
    cfg = {"spec": 1, "mode": "bridge", "theta": good, "scale": {"n_states": 2}}
    assert run_scenario(cfg)["passed"]


def _failing_check(**_kwargs):
    return CheckResult(criterion="CX", passed=False, detail="fails on purpose")


@pytest.mark.parametrize("failing", [False, True])
def test_verify_all_wiring(tmp_path, monkeypatch, capsys, failing):
    # two cheap criteria stand in for the full set
    cheap = {"C6": functools.partial(criterion_6, n_states=2)}
    if failing:
        cheap["CX"] = _failing_check
    monkeypatch.setattr(cli, "CRITERIA", cheap)
    plain, timed, run = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "run.json"
    code = main(["verify-all", "--out", str(plain), "--csv"])
    assert code == (1 if failing else 0)
    assert main(["verify-all", "--out", str(timed), "--timings"]) == code
    assert main(["run", "--mode", "bridge", "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert f"verify-all: {'FAIL' if failing else 'PASS'} (1/{len(cheap)} criteria)" in out
    report = json.loads(plain.read_text())
    assert list(report) == list(json.loads(run.read_text()))
    assert list(report["verdicts"]) == list(cheap)
    assert report["config"] == {"mode": "verify-all", "seed": None}
    assert "timings_s" in json.loads(timed.read_text())
    assert plain.with_suffix(".csv").read_text().startswith("re_x,im_x,re_y,im_y,")
    assert not timed.with_suffix(".csv").exists()
