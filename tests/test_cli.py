import json
import math
import os
from importlib import resources

import pytest

from mcdesign import cli
from mcdesign.scenarios import SCENARIOS


def test_catalog_has_the_fourteen_scenarios():
    expected = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "transparency",
                "bsec_tails", "resonance_widths", "resonance_tunneling",
                "leftright_asymmetry", "susy_flip", "gap_creation",
                "level_splitting"}
    assert set(SCENARIOS) == expected
    assert len(SCENARIOS) == 14


def test_every_bundled_config_validates():
    for name in SCENARIOS:
        cfg = cli.load_config(name)
        assert cfg["name"] == name
        assert cfg["scenario"] in SCENARIOS


def test_fig4_config_carries_the_degenerate_weights():
    cfg = cli.load_config("fig4")
    assert cfg["params"]["second_weights"][0] == 1.01


def test_list_command_prints_names(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 14


def test_validate_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 2, "name": "x", "scenario": "fig1"}))
    assert cli.main(["validate", str(bad)]) == 2
    bad.write_text(json.dumps({"schema": 1, "name": "x", "scenario": "nope"}))
    assert cli.main(["validate", str(bad)]) == 2
    bad.write_text("{not json")
    assert cli.main(["validate", str(bad)]) == 2
    bad.write_text(json.dumps({"schema": 1, "name": "x", "scenario": "fig6",
                               "assertions": [{"name": "a", "metric": "m",
                                               "op": "~", "value": 1}]}))
    assert cli.main(["validate", str(bad)]) == 2


def test_unknown_reference_is_a_config_error(capsys):
    assert cli.main(["validate", "no_such_scenario"]) == 2


def test_identity_transform_emits_zero_change(tmp_path):
    config = {
        "schema": 1,
        "name": "identity",
        "scenario": "fig1",
        "params": {"width": math.pi, "wall_height": 1.0e6, "swv_ratio": 1.0,
                   "energy_lift": 0.8, "levels": 2},
        "assertions": [
            {"name": "no potential change", "metric": "rake_dv_abs_max",
             "op": "<=", "value": 1e-12},
            {"name": "levels untouched", "metric": "rake_level_shift_max",
             "op": "<=", "value": 1e-9},
        ],
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(config))
    code, manifest = cli.run_scenario(cli.load_config(str(path)),
                                      str(tmp_path / "out"))
    assert code == 0
    csv_path = tmp_path / "out" / "identity_profiles.csv"
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    i_dv = header.index("dV_rake")
    assert all(float(row.split(",")[i_dv]) == 0.0 for row in lines[1:])


def test_run_reports_assertion_failure_with_exit_4(tmp_path):
    cfg = cli.load_config("fig6")
    cfg["assertions"] = [{"name": "impossible", "metric": "monodromy_agreement",
                          "op": "<=", "value": 0.0}]
    code, manifest = cli.run_scenario(cfg, str(tmp_path / "out"))
    assert code == 4
    assert manifest["assertions"][0]["passed"] is False
    assert manifest["passed"] is False


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "name": "degenerate",
        "scenario": "fig4",
        "params": {"energy": -0.5, "second_weights": [1.0]},   # dependent pair
        "assertions": [],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), str(tmp_path / "out")]) == 3


def test_manifest_covers_every_assertion(tmp_path):
    cfg = cli.load_config("fig6")
    code, manifest = cli.run_scenario(cfg, str(tmp_path / "out"))
    assert code == 0
    assert len(manifest["assertions"]) == len(cfg["assertions"])
    for entry in manifest["assertions"]:
        assert {"name", "metric", "op", "value", "measured", "passed"} <= set(entry)
    files = os.listdir(tmp_path / "out")
    assert "fig6_manifest.json" in files
    assert any(f.endswith(".csv") for f in files)


def test_runs_are_byte_identical(tmp_path):
    cfg = cli.load_config("fig6")
    cli.run_scenario(cfg, str(tmp_path / "a"))
    cli.run_scenario(cfg, str(tmp_path / "b"))
    fa = (tmp_path / "a" / "fig6_bands.csv").read_bytes()
    fb = (tmp_path / "b" / "fig6_bands.csv").read_bytes()
    assert fa == fb


def test_grid_step_override_reaches_the_solver(tmp_path):
    cfg = cli.load_config("level_splitting")
    code, manifest = cli.run_scenario(cfg, str(tmp_path / "out"),
                                      {"grid_step": 2e-3})
    assert code == 0
    assert manifest["overrides"]["grid_step"] == 2e-3


def test_each_scenario_has_one_bundled_config():
    files = [f for f in resources.files("mcdesign").joinpath("configs").iterdir()
             if f.name.endswith(".json")]
    assert sorted(f.name[:-len(".json")] for f in files) == sorted(SCENARIOS)
    for f in files:
        cfg = json.loads(f.read_text())
        assert cfg["name"] == cfg["scenario"] == f.name[:-len(".json")]


def test_empty_params_run_on_the_bundled_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "name": "split",
                                "scenario": "level_splitting", "params": {}}))
    code, manifest = cli.run_scenario(cli.load_config(str(path)), str(tmp_path / "out"))
    assert code == 0
    assert manifest["params"]["wall_height"] == 4e6


@pytest.mark.parametrize("scenario, params, field", [
    ("fig6", {"sampels": 2000}, "params.sampels"),
    ("fig6", {"samples": "many"}, "params.samples"),
    ("fig6", {"samples": 2000.5}, "params.samples"),
    ("fig1", {"levels": True}, "params.levels"),
])
def test_bad_params_are_config_errors(tmp_path, capsys, scenario, params, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "name": "bad", "scenario": scenario,
                                "params": params}))
    for argv in (["validate", str(path)], ["run", str(path), str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


@pytest.mark.parametrize("scenario, params", [
    ("fig1", {"levels": 0}),
    ("fig2", {"depth": 0.05}),
])
def test_empty_level_search_is_a_numerical_error(tmp_path, capsys, scenario, params):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "name": "empty", "scenario": scenario,
                                "params": params}))
    assert cli.main(["run", str(path), str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "no bound state" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario, params", [
    ("fig5", {"thresholds": [2, 1]}),
    ("fig4", {"second_weights": []}),
    ("gap_creation", {"branch": 5}),
    ("level_splitting", {"levels": 0}),
])
def test_out_of_range_params_exit_without_traceback(tmp_path, capsys, scenario, params):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "name": "bad", "scenario": scenario,
                                "params": params}))
    assert cli.main(["run", str(path), str(tmp_path / "out")]) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err
