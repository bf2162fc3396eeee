"""Command-line front end: gen, run, verify dispatch, exit codes, formats."""

import json

import numpy as np
import pytest

from garnier_lab.cli import main, run_scenario, write_report
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
