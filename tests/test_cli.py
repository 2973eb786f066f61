"""End-to-end tests of the command-line driver and its exit-code contract."""

import csv
import importlib
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grauert
from grauert.cli import RunConfig, load_config, main
from grauert.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


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


def test_exit_code_3_on_unknown_model(tmp_path):
    code, _ = run(tmp_path, "verify", "--model", "klein_bottle")
    assert code == 3


def test_exit_code_3_on_zero_sweep_cap(tmp_path):
    path = write_ini(tmp_path, "[grids]\nsweep_cap = 0\n")
    code, _ = run(tmp_path, "tube-radius", "--config", path)
    assert code == 3


def test_exit_code_3_on_bad_flag(tmp_path):
    assert main(["verify", "--frobnicate"]) == 3


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


def test_flow_breakdown_exit_2_with_sidecar(tmp_path):
    code, out = run(tmp_path, "flow", "--config", str(CONFIGS / "sphere_breakdown.ini"))
    assert code == 2
    lines = (out / "flow_breakdown.jsonl").read_text().splitlines()
    rec = json.loads([l for l in lines if not l.startswith("#")][0])
    assert rec["error"] == "singularity"
    # speed-2 geodesic on the unit sphere focuses at pi/4
    assert rec["last_good_sigma_im"] == pytest.approx(math.pi / 4, abs=0.02)


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


def test_extend_rejects_mismatched_function(tmp_path):
    path = write_ini(tmp_path, "[grids]\nfunction = height\n")
    code, _ = run(tmp_path, "extend", "--config", path)
    assert code == 3


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grauert.cli", "flow", "--model", "flat_space",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "flow.csv").exists()


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(grauert.__path__):
        module = importlib.import_module(f"grauert.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"grauert.{info.name}.__all__ names {name!r}"
