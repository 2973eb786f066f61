"""End-to-end tests of the command-line driver and its exit-code contract."""

import ast
import contextlib
import csv
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grauert
from grauert.cli import RunConfig, load_config, main
from grauert.errors import ConfigError, InvalidParamsError
from grauert.verify import CHECK_NAMES
from test_flow import MERIDIAN_TAU

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def child_env():
    """This environment, with grauert importable from where these tests imported it."""
    src = str(Path(grauert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def write_ini(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    header, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line.rstrip("\r\n"))
            else:
                fh.seek(0)
                body = [l for l in fh if not l.startswith("#")]
                rows = list(csv.DictReader(body))
                break
    return header, rows


# -- configuration ------------------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.model_name == "flat_space"
    assert cfg.seed == 0
    assert cfg.sigma == 1j


def test_unknown_section_rejected(tmp_path):
    path = write_ini(tmp_path, "[modle]\nname = flat_space\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_ini(tmp_path, "[grids]\nn_sample = 10\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_check_name_rejected(tmp_path):
    path = write_ini(tmp_path, "[checks]\nnames = adaptedness, frobnication\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


def test_hash_ignores_output_dir():
    a = RunConfig(out_dir="x")
    b = RunConfig(out_dir="y")
    c = RunConfig(out_dir="x", seed=5)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


# config_hash of each committed config, as written in every output header
CONFIG_HASHES = {
    "broken_sign": "55ba0b87741557b8",
    "default": "4c244a4a9b51da79",
    "sphere": "e6acb68a42394274",
    "surface_breakdown": "31bae89f94c28900",
    "surface_of_revolution": "9c215fa40bd188df",
    "tube_radius_sphere": "430d70beb3d99f05",
}


def test_config_hash_pinned_for_committed_configs():
    assert sorted(p.stem for p in CONFIGS.glob("*.ini")) == sorted(CONFIG_HASHES)
    for name, digest in CONFIG_HASHES.items():
        assert load_config(str(CONFIGS / f"{name}.ini")).hash() == digest, name


@pytest.mark.parametrize("flag, text, message", [
    (["--seed", "-3"], "[grids]\nseed = -3\n", "seed must be non-negative, got -3"),
    (["--seed", "x"], "[grids]\nseed = x\n", "seed must be an integer, got 'x'"),
    (["--tol", "0"], "[checks]\nflow_tol = 0\n", "flow_tol must be positive, got 0.0"),
], ids=["negative seed", "non-integer seed", "zero tol"])
def test_flag_is_checked_as_the_key_it_overrides(tmp_path, capsys, flag, text, message):
    errors = []
    for argv in (["--config", write_ini(tmp_path, text)], flag):
        code, _ = run(tmp_path, "verify", *argv)
        assert code == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"config error: {message}\n"


# (command, config) pairs that must be rejected as configuration errors
BAD_CONFIGS = [
    ("verify", "[grids]\nbogus = 1\n"),
    ("verify", "[grids]\nn_samples = abc\n"),
    ("verify", "[grids]\nseed = 1.5\n"),
    ("verify", "[checks]\ndbar_sign = x\n"),
    ("verify", "[checks]\nflow_tol = tiny\n"),
    ("verify", "[checks]\ntol_nijenhuis = loose\n"),
    ("verify", "[grids]\nrho_min = low\n"),
    ("verify", "[grids]\nrho_max = high\n"),
    ("verify", "[grids]\nrho_max = 0.05\n"),
    ("verify", "[model]\nname = round_sphere\nradius = big\n"),
    ("tube-radius", "[grids]\nsweep_cap = far\n"),
    ("tube-radius", "[grids]\nresolution = fine\n"),
    ("flow", "[model]\nname = round_sphere\n[grids]\nq0 = 0.01, 0.0\n"),
    ("flow", "[model]\nname = round_sphere\n[grids]\nchart = z\n"),
]


def test_exit_code_3_on_bad_config(tmp_path):
    for i, (command, text) in enumerate(BAD_CONFIGS):
        path = write_ini(tmp_path, text, name=f"cfg{i}.ini")
        code, _ = run(tmp_path, command, "--config", path)
        assert code == 3, (command, text)


@pytest.mark.parametrize("text", [
    "[grids]\nseed = 1\nseed = 2\n",
    "[grids]\n[grids]\n",
    "seed = 1\n",
    "[grids]\nseed = 1\nno key here\n",
], ids=["duplicate key", "duplicate section", "no section", "no delimiter"])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, text):
    code, _ = run(tmp_path, "flow", "--config", write_ini(tmp_path, text))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config file")
    assert err.count("\n") == 1


def test_exit_code_3_on_unknown_model(tmp_path):
    code, _ = run(tmp_path, "verify", "--model", "klein_bottle")
    assert code == 3


def test_exit_code_3_on_zero_sweep_cap(tmp_path):
    path = write_ini(tmp_path, "[grids]\nsweep_cap = 0\n")
    code, _ = run(tmp_path, "tube-radius", "--config", path)
    assert code == 3


@pytest.mark.parametrize("command, text, message", [
    ("tube-radius", "[grids]\nsweep_cap = inf\n", "sweep_cap must be finite, got inf"),
    ("flow", "[paths]\nsigma = inf\n", "sigma must be finite, got (inf+0j)"),
    ("flow", "[paths]\nsigma = nanj\n", "sigma must be finite, got nanj"),
    ("flow", "[model]\nname = round_sphere\nradius = inf\n",
     "round_sphere needs a finite radius > 0"),
    ("jtensor", "[model]\nname = flat_torus\nperiods = inf, 1\n",
     "periods must be finite, got inf"),
], ids=["sweep_cap", "sigma", "imaginary sigma", "radius", "periods"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, text, message):
    code, _ = run(tmp_path, command, "--config", write_ini(tmp_path, text))
    assert code == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_tube_radius_resolution_below_cap(tmp_path, capsys):
    # the bisections resolve each radius to within resolution, so it must lie inside the cap
    text = ("[model]\nname = round_sphere\n[grids]\nsweep_cap = 2.0\nresolution = 3.0\n"
            "n_directions = 1\nseed = 7\n")
    code, _ = run(tmp_path, "tube-radius", "--config", write_ini(tmp_path, text))
    assert code == 3
    assert capsys.readouterr().err == "config error: tube-radius needs resolution < sweep_cap\n"
    from grauert.catalog import catalog
    from grauert.verify import estimate_tube_radius
    with pytest.raises(InvalidParamsError, match="^tube-radius needs resolution < sweep_cap$"):
        estimate_tube_radius(catalog("round_sphere"), n_directions=1, sweep_cap=2.0,
                             resolution=3.0)


def test_tube_radius_sweep_cap_above_scan_budget(tmp_path, capsys):
    # the scan reads a frame every 0.05 out to the cap: at most flow.MAX_STEPS per ray
    text = "[model]\nname = flat_torus\n[grids]\nsweep_cap = 1e6\nn_directions = 1\n"
    code, _ = run(tmp_path, "tube-radius", "--config", write_ini(tmp_path, text))
    assert code == 3
    assert capsys.readouterr().err == "config error: sweep_cap must be at most 500, got 1e+06\n"
    from grauert.catalog import catalog
    from grauert.verify import estimate_tube_radius
    with pytest.raises(InvalidParamsError, match="^sweep_cap must be at most 500, got 1e\\+06$"):
        estimate_tube_radius(catalog("flat_torus"), n_directions=1, sweep_cap=1e6)


@pytest.mark.parametrize("command, text", [
    ("verify", "[model]\nname = round_sphere\nradius = 1e-300\n"),
    ("verify", "[model]\nname = surface_of_revolution\nbase = 1e-200\namp = 0\n"),
    ("tube-radius", "[model]\nname = round_sphere\nradius = 1e300\n"),
    ("flow", "[model]\nname = surface_of_revolution\nbase = 1e300\namp = 1\n"),
], ids=["tiny radius", "tiny base", "huge radius", "huge base"])
def test_model_scale_whose_square_leaves_the_floats_is_a_config_error(tmp_path, capsys, command,
                                                                      text):
    text += "[grids]\nn_samples = 2\nn_strips = 1\nn_directions = 1\n"
    code, _ = run(tmp_path, command, "--config", write_ini(tmp_path, text))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", [
    "[model]\nname = flat_torus\n[grids]\np0 = 1e300, 1e300\n",
    "[model]\nname = round_sphere\n[grids]\np0 = 1e160, 0\n",
], ids=["flat_torus", "round_sphere"])
def test_start_point_whose_energy_is_not_finite_is_a_config_error(tmp_path, capsys, text):
    # each momentum is finite, but its square overflows
    code, out = run(tmp_path, "flow", "--config", write_ini(tmp_path, text))
    assert code == 3
    assert capsys.readouterr().err == "config error: the start point's energy is not finite\n"
    assert not list(out.glob("*"))


def test_output_dir_through_a_file_is_a_config_error(tmp_path, capsys):
    path = write_ini(tmp_path, "[grids]\nrows = 3\n")
    code = main(["flow", "--config", path, "--out", str(Path(path, "sub"))])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert err.count("\n") == 1


def test_exit_code_3_on_bad_flag(tmp_path):
    assert main(["verify", "--frobnicate"]) == 3


def test_exit_code_4_on_internal_error(tmp_path, monkeypatch, capsys):
    def broken(cfg, out):
        return 1.0 / 0.0

    monkeypatch.setitem(grauert.cli._COMMANDS, "flow", broken)
    code, _ = run(tmp_path, "flow", "--model", "flat_space")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ZeroDivisionError")
    assert err.count("\n") == 1 and "Traceback" not in err


# -- flow command --------------------------------------------------------------


def test_flow_rows_and_energy_conservation(tmp_path):
    code, out = run(tmp_path, "flow", "--model", "flat_torus")
    assert code == 0
    header, rows = read_rows(out / "flow.csv")
    assert any("toolkit_version" in h for h in header)
    assert any("config_hash" in h for h in header)
    assert len(rows) >= 11
    E = [complex(float(r["E_re"]), float(r["E_im"])) for r in rows]
    assert max(abs(e - E[0]) for e in E) < 1e-12
    # straight path toward i: the final row sits at sigma = i
    assert float(rows[-1]["sigma_im"]) == pytest.approx(1.0)
    assert float(rows[-1]["sigma_re"]) == 0.0


def test_flow_zero_sigma_single_row(tmp_path):
    path = write_ini(tmp_path, "[paths]\nsigma = 0\n")
    code, out = run(tmp_path, "flow", "--config", path)
    assert code == 0
    _, rows = read_rows(out / "flow.csv")
    assert len(rows) == 1
    assert float(rows[0]["q0_re"]) == 0.0


def test_flow_waypoint_path(tmp_path):
    path = write_ini(tmp_path, "[paths]\nwaypoints = 0.5, 0.5+1j, 1j\n")
    code, out = run(tmp_path, "flow", "--config", path)
    assert code == 0
    _, rows = read_rows(out / "flow.csv")
    assert float(rows[-1]["sigma_im"]) == pytest.approx(1.0)
    assert abs(float(rows[-1]["sigma_re"])) < 1e-12


def read_breakdown(out):
    lines = (out / "flow_breakdown.jsonl").read_text().splitlines()
    return json.loads([l for l in lines if not l.startswith("#")][0])


def test_flow_breakdown_exit_2_with_sidecar(tmp_path):
    code, out = run(tmp_path, "flow", "--config", str(CONFIGS / "surface_breakdown.ini"))
    assert code == 2
    rec = read_breakdown(out)
    assert rec["error"] == "singularity"
    # the unit meridian meets the zero of g_11 at tau*
    assert rec["reason"] == "step collapse"
    assert rec["last_good_sigma_re"] == 0.0
    assert abs(rec["last_good_sigma_im"] - MERIDIAN_TAU) < 1e-6


def test_flow_non_finite_series_exit_2(tmp_path, capsys):
    # the series overflows on the first step: one line on stderr, no table
    path = write_ini(tmp_path, "[model]\nname = surface_of_revolution\n\n"
                               "[grids]\nq0 = 0, 0\np0 = 1e150, 0\n\n[paths]\nsigma = 1j\n")
    code, out = run(tmp_path, "flow", "--config", path)
    assert code == 2
    rec = read_breakdown(out)
    assert rec["reason"] == "non-finite series"
    assert (rec["last_good_sigma_re"], rec["last_good_sigma_im"]) == (0.0, 0.0)
    assert not (out / "flow.csv").exists()
    assert capsys.readouterr().err == "flow breakdown: non-finite series at 0j\n"


# -- jtensor command -----------------------------------------------------------


def test_jtensor_flat_torus_standard_structure(tmp_path):
    code, out = run(tmp_path, "jtensor", "--model", "flat_torus")
    assert code == 0
    _, rows = read_rows(out / "jtensor.csv")
    assert len(rows) == 8
    for r in rows:
        J = np.array([[float(r[f"j{a}{b}"]) for b in range(4)] for a in range(4)])
        G = np.array([[float(r[f"metric{a}{b}"]) for b in range(4)] for a in range(4)])
        assert np.allclose(J, np.block([[np.zeros((2, 2)), -np.eye(2)],
                                        [np.eye(2), np.zeros((2, 2))]]), atol=1e-9)
        assert np.allclose(G, np.eye(4), atol=1e-9)
        assert float(r["pos_min_eig"]) > 0.5
        assert float(r["j_imag_max"]) < 1e-9


def test_jtensor_one_kernel_call(tmp_path, kernel_calls):
    # the frames of all points are lanes of one kernel call
    path = write_ini(tmp_path, "[model]\nname = round_sphere\n[grids]\nn_points = 8\n")
    code, out = run(tmp_path, "jtensor", "--config", path)
    assert code == 0
    assert len(read_rows(out / "jtensor.csv")[1]) == 8
    assert kernel_calls == [8]


def test_jtensor_zero_momentum_bounds(tmp_path):
    path = write_ini(tmp_path, "[grids]\nn_points = 3\nrho_min = 0\nrho_max = 0\n")
    code, out = run(tmp_path, "jtensor", "--config", path)
    assert code == 0
    _, rows = read_rows(out / "jtensor.csv")
    assert len(rows) == 3
    for r in rows:
        assert float(r["p0"]) == 0.0 and float(r["p1"]) == 0.0


# -- extend command ------------------------------------------------------------


def test_extend_routes_agree(tmp_path):
    code, out = run(tmp_path, "extend", "--model", "flat_torus")
    assert code == 0
    _, rows = read_rows(out / "extend.csv")
    for r in rows:
        assert float(r["max_pairwise_dev"]) < 1e-10
        assert r["series_re"] and r["flow_re"] and r["exp_map_re"]


def test_extend_sphere_height_function(tmp_path):
    path = write_ini(
        tmp_path,
        "[model]\nname = round_sphere\n[grids]\nn_points = 4\nrho_max = 0.3\n",
    )
    code, out = run(tmp_path, "extend", "--config", path)
    assert code == 0
    _, rows = read_rows(out / "extend.csv")
    assert len(rows) == 4
    for r in rows:
        assert float(r["max_pairwise_dev"]) < 1e-7


def test_extend_constant_function_all_routes_equal(tmp_path):
    path = write_ini(tmp_path, "[grids]\nfunction = const\nn_points = 3\n")
    code, out = run(tmp_path, "extend", "--config", path)
    assert code == 0
    _, rows = read_rows(out / "extend.csv")
    for r in rows:
        assert float(r["series_re"]) == pytest.approx(2.5, abs=1e-12)
        assert float(r["series_im"]) == pytest.approx(0.0, abs=1e-12)
        assert float(r["max_pairwise_dev"]) < 1e-12


def test_extend_breakdown_is_first_failing_point(tmp_path, capsys):
    # the points' series and flows run as lanes of one call per route; the
    # error reported is the one a point-by-point pass meets first. Points 2,
    # 6, 7 and 11 lie beyond the series' reach, and point 11's terms grow
    # soonest
    from grauert.catalog import catalog
    from grauert.errors import GrauertError
    from grauert.extend import extend_by_flow, extend_by_series, torus_trig
    from grauert.verify import sample_tube_points

    path = write_ini(tmp_path, "[model]\nname = surface_of_revolution\n\n[grids]\n"
                               "n_points = 12\nseed = 3\nrho_min = 1.2\nrho_max = 2.2\n"
                               "function = wave\n")
    code, _ = run(tmp_path, "extend", "--config", path)
    assert code == 2
    err = capsys.readouterr().err

    surf = catalog("surface_of_revolution")
    wave = torus_trig("wave", {(1, 0): 1.0})
    failing = []
    for k, z in enumerate(sample_tube_points(surf, 12, 3, 1.2, 2.2)):
        for route in (extend_by_series, extend_by_flow):
            try:
                route(surf, wave, z)
            except GrauertError as e:
                failing.append((k, str(e)))
    assert [k for k, _ in failing] == [2, 6, 7, 11]
    assert err == f"numerical breakdown: {failing[0][1]}\n"


@pytest.mark.parametrize("model", ["round_sphere", "surface_of_revolution"])
def test_extend_overflow_exits_2_with_one_line(tmp_path, capsys, model):
    # both routes' series overflow at this momentum: one typed breakdown, no warning
    path = write_ini(tmp_path, f"[model]\nname = {model}\n\n[grids]\n"
                               "rho_min = 1e200\nrho_max = 1e200\n")
    code, _ = run(tmp_path, "extend", "--config", path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: ") and err.count("\n") == 1, err


def test_extend_rejects_mismatched_function(tmp_path):
    path = write_ini(tmp_path, "[grids]\nfunction = height\n")
    code, _ = run(tmp_path, "extend", "--config", path)
    assert code == 3


def test_extend_wave_needs_a_main_chart(tmp_path, capsys):
    # the wave formula is written for chart main; the sphere's charts are a, b
    path = write_ini(tmp_path, "[model]\nname = round_sphere\n\n[grids]\nfunction = wave\n")
    code, _ = run(tmp_path, "extend", "--config", path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: function 'wave' needs a model with a 'main' chart")
    assert err.count("\n") == 1


# -- verify command ------------------------------------------------------------


def test_verify_default_config_passes(tmp_path):
    code, out = run(tmp_path, "verify", "--config", str(CONFIGS / "default.ini"))
    assert code == 0
    lines = (out / "verify.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines if not l.startswith("#")]
    assert len(recs) == 7
    assert all(r["verdict"] == "pass" for r in recs)
    assert [r["check"] for r in recs] == sorted(r["check"] for r in recs)


def test_verify_broken_sign_fails(tmp_path):
    code, out = run(tmp_path, "verify", "--config", str(CONFIGS / "broken_sign.ini"))
    assert code == 1
    lines = (out / "verify.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines if not l.startswith("#")]
    assert len(recs) == 1
    assert recs[0]["check"] == "kahler_potential"
    assert recs[0]["verdict"] == "fail"
    assert recs[0]["max_residual"] > 0.1


def test_verify_empty_selection_is_empty_pass(tmp_path):
    path = write_ini(tmp_path, "[checks]\nnames =\n")
    code, out = run(tmp_path, "verify", "--config", path)
    assert code == 0
    lines = (out / "verify.jsonl").read_text().splitlines()
    assert all(l.startswith("#") for l in lines)


def test_verify_single_check_subset(tmp_path):
    path = write_ini(tmp_path, "[checks]\nnames = involution\n[grids]\nn_samples = 6\n")
    code, out = run(tmp_path, "verify", "--config", path)
    assert code == 0
    lines = (out / "verify.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines if not l.startswith("#")]
    assert [r["check"] for r in recs] == ["involution"]


def test_verify_outputs_byte_identical(tmp_path):
    path = write_ini(tmp_path, "[checks]\nnames = involution, zero_section\n"
                               "[grids]\nn_samples = 6\n")
    code1, out1 = run(tmp_path / "a", "verify", "--config", path)
    code2, out2 = run(tmp_path / "b", "verify", "--config", path)
    assert code1 == code2 == 0
    assert (out1 / "verify.jsonl").read_bytes() == (out2 / "verify.jsonl").read_bytes()


def test_verify_seed_changes_samples_not_verdicts(tmp_path):
    path = write_ini(tmp_path, "[checks]\nnames = involution\n[grids]\nn_samples = 6\n")
    _, out1 = run(tmp_path / "a", "verify", "--config", path)
    code, out2 = run(tmp_path / "b", "verify", "--config", path, "--seed", "9")
    assert code == 0
    rec1 = json.loads([l for l in (out1 / "verify.jsonl").read_text().splitlines()
                       if not l.startswith("#")][0])
    rec2 = json.loads([l for l in (out2 / "verify.jsonl").read_text().splitlines()
                       if not l.startswith("#")][0])
    assert rec1["verdict"] == rec2["verdict"] == "pass"
    assert rec1["worst"] != rec2["worst"]


# -- tube-radius command -------------------------------------------------------


def test_tube_radius_flat_capped(tmp_path):
    path = write_ini(
        tmp_path,
        "[model]\nname = flat_torus\n"
        "[grids]\nn_directions = 3\nsweep_cap = 0.8\nresolution = 5e-3\n",
    )
    code, out = run(tmp_path, "tube-radius", "--config", path)
    assert code == 0
    lines = (out / "tube_radius.jsonl").read_text().splitlines()
    rec = json.loads([l for l in lines if not l.startswith("#")][0])
    assert rec["radius_continuation"] == pytest.approx(0.8)
    assert rec["no_breakdown"] is True
    assert rec["monotone"] is True


def test_tube_radius_keeps_stderr_clean(tmp_path):
    # numerical warnings of the rational fit must not reach the user
    path = write_ini(
        tmp_path,
        "[model]\nname = round_sphere\nradius = 1.0\n"
        "[grids]\nn_directions = 1\nsweep_cap = 2.0\n",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "grauert.cli", "tube-radius", "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grauert.cli", "flow", "--model", "flat_space",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "flow.csv").exists()


# a child script's first lines: scipy cannot be imported, and loaded() lists
# the scipy modules that are loaded
NO_SCIPY = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "loaded = lambda: sorted(m for m, v in sys.modules.items() if m.startswith('scipy') and v)\n"
)


def test_cli_import_loads_no_scipy(tmp_path):
    # the CLI module loads numpy alone; flow, extend and jtensor run with
    # scipy unimportable, and tube-radius too: its root polish and rational
    # fit are numpy and plain floats
    script = NO_SCIPY + (
        "import grauert.cli\n"
        "print(loaded())\n"
        "code = grauert.cli.main(sys.argv[1:])\n"
        "print(code, loaded())\n"
    )
    default = str(CONFIGS / "default.ini")
    tube = write_ini(tmp_path, "[model]\nname = round_sphere\n"
                               "[grids]\nn_directions = 1\nsweep_cap = 2.0\n")
    for command, config, csv in (("flow", default, "flow.csv"),
                                 ("extend", default, "extend.csv"),
                                 ("jtensor", default, "jtensor.csv"),
                                 ("tube-radius", tube, "tube_radius.jsonl")):
        out = tmp_path / command
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", config, "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        if command == "tube-radius":  # it prints its radii in between
            lines = [lines[0], lines[-1]]
        assert lines == ["[]", "0 []"], command
        assert (out / csv).is_file()


def test_verify_loads_no_scipy_linalg(tmp_path):
    # the battery's principal angles, the sampler's direction numbers and its
    # inverse normal are numpy and plain floats, so verify runs with scipy
    # unimportable; so do tube-radius and flow after it in the same interpreter
    script = NO_SCIPY + (
        "import json\n"
        "import grauert.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = grauert.cli.main(argv)\n"
        "    print(code, loaded())\n"
    )
    tube = write_ini(tmp_path, "[model]\nname = round_sphere\n"
                               "[grids]\nn_directions = 1\nsweep_cap = 2.0\n")
    runs = [["verify", "--config", str(CONFIGS / "sphere.ini"), "--out", str(tmp_path / "v")],
            ["tube-radius", "--config", tube, "--out", str(tmp_path / "t")],
            ["flow", "--model", "flat_space", "--out", str(tmp_path / "f")]]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line[:1].isdigit()] == ["0 []"] * 3
    assert (tmp_path / "v" / "verify.jsonl").is_file()
    assert (tmp_path / "t" / "tube_radius.jsonl").is_file()
    assert (tmp_path / "f" / "flow.csv").is_file()


def test_no_module_imports_scipy():
    # a function-local import that no command reaches escapes the runtime
    # tests above, so the source is read: no import of scipy at any depth
    for path in sorted(Path(grauert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


def test_flat_space_beyond_the_sobol_rows_exits_3(tmp_path, capsys):
    # the sampler's 21 Joe-Kuo rows cover 2 dim + 1 coordinates up to dim 10
    path = write_ini(tmp_path, "[model]\nname = flat_space\ndim = 11\n")
    code, _ = run(tmp_path, "jtensor", "--config", path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: the Sobol sampler covers 21 dimensions")
    assert err.count("\n") == 1


def test_singular_frame_exits_2(tmp_path, monkeypatch, capsys):
    # every frame read finds a step whose jacobian is zero
    from grauert import lagrangian
    from grauert.flow import Segment

    step = Segment("main", 0j, 1.0, 1.0, 0.0, np.zeros((4, 5, 17), dtype=complex))
    monkeypatch.setattr(lagrangian, "segment_at", lambda segments, t: (step, t))
    code, _ = run(tmp_path, "jtensor", "--model", "flat_space")
    assert code == 2
    assert "numerical breakdown: backward jacobian" in capsys.readouterr().err


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(grauert.__path__):
        module = importlib.import_module(f"grauert.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"grauert.{info.name}.__all__ names {name!r}"


def test_verify_breakdown_is_first_failing_point_in_serial_order(tmp_path, capsys):
    # the theta_sigma frames of all points are read from rays flowed as lanes
    # of one kernel call; the error reported is still the one of the first
    # failing frame in the check's serial order (point by point, then its
    # times). On flat_space at these speeds the backward flows to the real
    # times leave the box [-20, 20]^2: point 0 at its second time, though
    # point 2 leaves sooner, and even at its first time
    from grauert.catalog import catalog
    from grauert.errors import SingularityError
    from grauert.lagrangian import distribution_at
    from grauert.verify import THETA_SIGMAS, sample_tube_points

    path = write_ini(tmp_path, "[model]\nname = flat_space\n\n[checks]\nnames = theta_sigma\n\n"
                               "[grids]\nn_samples = 4\nseed = 3\nrho_min = 30\nrho_max = 60\n")
    code, _ = run(tmp_path, "verify", "--config", path)
    assert code == 2
    err = capsys.readouterr().err
    assert "real part left the chart box near" in err
    last_good = complex(err.rsplit("near ", 1)[1].strip())

    # serial reference: a flow of its own per frame, in the check's order
    flat = catalog("flat_space")
    first = None
    for k, z in enumerate(sample_tube_points(flat, 4, 3, 30.0, 60.0)):
        for sigma in THETA_SIGMAS:
            try:
                distribution_at(flat, z, sigma)
            except SingularityError as exc:
                first = exc
                break
        if first is not None:
            break
    assert (k, sigma) == (0, THETA_SIGMAS[1])
    assert first.reason == "chart box"
    assert abs(first.last_good_sigma - last_good) < 1e-12


# -- exit-code contract under generated configs ------------------------------

# model -> its valid parameter lines, and invalid model sections
MODELS = {
    "flat_space": ["dim = 2", "dim = 1"],
    "flat_torus": ["periods = 6.2, 6.2"],
    "round_sphere": ["radius = 1.0", "radius = 1.7"],
    "surface_of_revolution": ["base = 2.0\namp = 1.0"],
}
BAD_MODELS = ["flat_space\ndim = 0", "flat_torus\nperiods = 1.0, -1.0",
              "flat_torus\nperiods = inf, 1", "round_sphere\nradius = 0",
              "round_sphere\nradius = inf", "round_sphere\nradius = nan", "round_sphere\ndim = 3",
              "round_sphere\nradius = 1e-300",
              "surface_of_revolution\nbase = 1.0\namp = 2.0",
              "surface_of_revolution\nbase = inf\namp = 1.0",
              "surface_of_revolution\nbase = 2.0\namp = nan",
              "surface_of_revolution\nbase = 1e300\namp = 1.0", "klein_bottle"]
# (section, key) -> (valid values, invalid values); valid grids stay small
KEYS = {
    ("grids", "n_samples"): ([1, 2], [0]),
    ("grids", "n_strips"): ([1], [-1]),
    ("grids", "n_directions"): ([1], [0]),
    ("grids", "sweep_cap"): ([0.5, 1.0], [0, "inf", "1e6"]),
    # 5 lies above every drawn sweep_cap
    ("grids", "resolution"): ([0.01, 0.1], [-0.1, "nan", 5]),
    ("grids", "n_points"): ([1, 2], [0]),
    ("grids", "rows"): ([2, 3], [0]),
    ("grids", "seed"): ([0, 5], [-3]),
    ("grids", "rho_min"): ([0.1, 0.2], ["low", "nan"]),
    ("grids", "rho_max"): ([0.3, 0.5], ["high", 0.05, "inf"]),
    ("grids", "q0"): (["1.2, 0.3", "0.01, 0.0"], ["x", "0.5, 0.5, 0.5", "nan, 0.3"]),
    ("grids", "p0"): (["0.3, 0.4", "0.0, 0.0"], ["1.0", "inf, 0.4", "1e300, 1e300"]),
    ("grids", "function"): (["auto", "wave", "height", "const"], ["cubic"]),
    ("checks", "names"): (["", "zero_section", "theta_sigma, scaling", "adaptedness",
                            "kahler_potential, involution", "nijenhuis"], ["bogus"]),
    ("checks", "flow_tol"): (["1e-12", "1e-9"], ["0", "inf"]),
    ("checks", "dbar_sign"): (["1.0", "-1.0"], ["minus", "nan"]),
    **{("checks", f"tol_{name}"): (["1e-6", "1.0"], ["0", "loose", "inf"])
       for name in CHECK_NAMES},
    ("paths", "sigma"): (["1j", "0.5", "0.3+0.4j", "2j", "0"], ["oops", "inf", "nanj"]),
    ("paths", "waypoints"): (["0, 0.5, 0.5+0.5j", "0, 1j"], ["0.5, 1j", "0, infj"]),
    # {tmp} is the run's temporary directory, and {tmp}/cfg.ini the config file
    ("output", "dir"): (["{tmp}/from_config", "{tmp}/nested/dir"], ["{tmp}/cfg.ini/sub"]),
}
# flag -> (valid values, invalid values); each is checked as the key it overrides
FLAGS = {
    "--seed": (["0", "4"], ["-3", "x"]),
    "--tol": (["1e-12", "1e-10"], ["0", "tiny"]),
    "--out": (["{tmp}/from_flag"], ["{tmp}/cfg.ini/sub"]),
}


def test_fuzz_keys_cover_the_config_table():
    # a key the generated configs never draw escapes the exit-code contract;
    # [model] keys come from MODELS and BAD_MODELS, chart is drawn per model
    table = {(section, key) for section, keys in grauert.cli._SCHEMA.items()
             if section != "model" for key in keys}
    assert table - {("grids", "chart")} <= set(KEYS)


@st.composite
def generated_runs(draw):
    """One INI file, one command and its flags: small grids, at most one invalid key."""
    command = draw(st.sampled_from(["flow", "jtensor", "extend", "verify", "tube-radius"]))
    model = draw(st.sampled_from(sorted(MODELS)))
    sections = {"model": [f"name = {model}", draw(st.sampled_from(MODELS[model]))],
                "grids": [], "checks": [], "paths": [], "output": []}
    keys = {**KEYS, ("grids", "chart"): (["a", "b"] if model == "round_sphere" else ["main"],
                                         ["zz"])}
    for (section, key), (valid, _) in keys.items():
        if draw(st.booleans()):
            sections[section].append(f"{key} = {draw(st.sampled_from(valid))}")
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["model", *(key for key in keys if keys[key][1])]))
        if bad == "model":
            sections["model"] = [f"name = {draw(st.sampled_from(BAD_MODELS))}"]
        else:
            section, key = bad
            sections[section] = [line for line in sections[section]
                                 if not line.startswith(f"{key} =")]
            sections[section].append(f"{key} = {draw(st.sampled_from(keys[bad][1]))}")
    ini = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                  for name, lines in sections.items())
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=2, unique=True)):
        flags += [flag, draw(st.sampled_from(FLAGS[flag][0] + FLAGS[flag][1]))]
    return command, ini, flags


@settings(derandomize=True, deadline=None, max_examples=20)
@given(generated_runs())
@example(("verify", "[model]\nname = flat_torus\n[grids]\nn_samples = 1\n"
                    "[checks]\nnames = kahler_potential\ndbar_sign = -1.0\n", []))
@example(("extend", "[model]\nname = round_sphere\n[grids]\nn_points = 1\nfunction = wave\n",
          []))
def test_generated_configs_keep_the_exit_code_contract(case):
    # 0 success, 1 a failed verdict of verify, 2 breakdown, 3 configuration
    # error; 4 is a defect of the toolkit, never the answer to a config
    command, ini, flags = case
    if "--out" not in flags and "\ndir = " not in ini:
        flags = [*flags, "--out", "{tmp}/out"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.ini")
        path.write_text(ini.replace("{tmp}", tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            argv = [command, "--config", str(path), *(f.replace("{tmp}", tmp) for f in flags)]
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (command, ini, flags, err)
        if code == 1:
            assert command == "verify", (ini, flags, err)
            [records] = [p.read_text().splitlines() for p in Path(tmp).rglob("verify.jsonl")]
            assert any(json.loads(line)["verdict"] == "fail"
                       for line in records if not line.startswith("#")), ini
        if code != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), (command, ini, flags, err)
            assert "Traceback" not in err


# -- demos -----------------------------------------------------------------------


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
