import warnings
from fractions import Fraction

import numpy as np
import pytest

from sobolev_mh import golden, verify as verify_mod, zeros as zeros_mod
from sobolev_mh.cli import main
from sobolev_mh.config import parse_config, serialize_config
from sobolev_mh.errors import ConfigError
from sobolev_mh.jacobi import clenshaw_eval, deriv_at_one, norm2
from sobolev_mh.presets import SETUPS, get_preset, preset_names
from sobolev_mh.sobolev import (
    connection_reconstruct,
    mass,
    q_deriv_at_one,
    sobolev_polynomial,
)

LEGENDRE_CFG = """\
[experiment]
id = legendre-check
job = tables
alpha = 0
beta = 0
j = 3
gamma = 2
mass = plain
M = 0
degrees = 10
zero_count = 4

[output]
csv = legendre.csv
"""


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(LEGENDRE_CFG)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert parse_config(serialize_config(again)) == again

    def test_exact_rationals_survive(self):
        text = LEGENDRE_CFG.replace("alpha = 0", "alpha = -9/10").replace(
            "gamma = 2", "gamma = 61/5")
        cfg = parse_config(text)
        assert cfg.setup.params.alpha == Fraction(-9, 10)
        assert cfg.setup.mass.gamma == Fraction(61, 5)
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2.setup.params.alpha == Fraction(-9, 10)

    def test_unknown_key_reports_line(self):
        bad = LEGENDRE_CFG.replace("zero_count = 4", "zero_counts = 4")
        with pytest.raises(ConfigError, match=r"line 11: unknown key 'zero_counts'"):
            parse_config(bad)

    def test_bad_rational_reports_field(self):
        bad = LEGENDRE_CFG.replace("alpha = 0", "alpha = threeish")
        with pytest.raises(ConfigError, match="'alpha' is not a rational"):
            parse_config(bad)

    def test_missing_field(self):
        bad = LEGENDRE_CFG.replace("degrees = 10\n", "")
        with pytest.raises(ConfigError, match="missing required field"):
            parse_config(bad)

    def test_duplicate_key(self):
        bad = LEGENDRE_CFG + "\n[experiment]\nid = twice\n"
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(bad)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("id = x\n")

    def test_custom_values(self):
        text = LEGENDRE_CFG.replace("mass = plain", "mass = custom") + \
            "custom_values = 1:0.5 2:0.25\n"
        # custom_values key belongs to [experiment]; splice it there instead
        text = LEGENDRE_CFG.replace(
            "mass = plain\nM = 0",
            "mass = custom\nM = 0\ncustom_values = 1:0.5 2:0.25")
        cfg = parse_config(text)
        assert cfg.setup.mass.custom_values == {1: 0.5, 2: 0.25}
        assert parse_config(serialize_config(cfg)) == cfg

    def test_preset_names_resolve(self):
        for name in preset_names():
            assert get_preset(name).setup.params.alpha > -1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("table9")

    def test_table_presets_follow_the_golden_tables(self):
        assert preset_names() == [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "table8", "figure-critical-bigM", "figure-critical-smallM",
            "figure-subcritical", "figure-supercritical", "critical-big-mass",
            "critical-small-mass", "subcritical", "supercritical"]
        for tid, table in golden.TABLES.items():
            assert get_preset(tid).setup is SETUPS[table.experiment]


def _write_cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


class TestCliTables:
    def test_legendre_degrees_10(self, tmp_path):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        rc = main(["tables", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "legendre.csv").read_text().splitlines()
        assert lines[0] == "experiment_id,n,index,raw_zero,scaled_zero,limit,abs_error"
        c = np.zeros(11)
        c[10] = 1.0
        ref = np.sort(np.polynomial.legendre.legroots(c))[::-1][:4]
        got = [float(r.split(",")[3]) for r in lines[1:5]]
        np.testing.assert_allclose(got, ref, atol=1e-6)
        assert any(r.split(",")[1] == "limit" for r in lines[1:])

    def test_byte_stable(self, tmp_path):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        main(["tables", "--config", cfg, "--out", str(tmp_path)])
        first = (tmp_path / "legendre.csv").read_bytes()
        main(["tables", "--config", cfg, "--out", str(tmp_path)])
        assert (tmp_path / "legendre.csv").read_bytes() == first

    def test_full_precision_columns(self, tmp_path):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        main(["tables", "--config", cfg, "--out", str(tmp_path), "--full-precision"])
        header = (tmp_path / "legendre.csv").read_text().splitlines()[0]
        assert header.endswith("raw_zero_full,scaled_zero_full")

    def test_env_overrides_out(self, tmp_path, monkeypatch):
        sub = tmp_path / "env-dir"
        monkeypatch.setenv("SOBOLEV_MH_OUT", str(sub))
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        rc = main(["tables", "--config", cfg, "--out", str(tmp_path / "ignored")])
        assert rc == 0
        assert (sub / "legendre.csv").exists()


class TestCliOtherJobs:
    def test_zeros_job(self, tmp_path):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        rc = main(["zeros", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "legendre.csv").read_text().splitlines()
        assert lines[0] == "experiment_id,n,index,zero"
        assert len(lines) == 1 + 10

    def test_high_alpha_zeros_job(self, tmp_path, capsys):
        # alpha = 100, n = 3000: the kernel sums overflowed in linear space
        text = (LEGENDRE_CFG.replace("alpha = 0", "alpha = 100").replace("j = 3", "j = 0")
                .replace("gamma = 2", "gamma = 1").replace("M = 0", "M = 1")
                .replace("degrees = 10", "degrees = 3000"))
        cfg = _write_cfg(tmp_path, text)
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "legendre.csv").read_text().splitlines()) == 1 + 3000

    def test_limits_job(self, tmp_path):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace("csv = legendre.csv",
                                                        "csv = lim.csv"))
        rc = main(["limits", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "lim.csv").read_text()
        assert "regime" in text and "coeff" in text and "zero" in text

    def test_mh_curve_files(self, tmp_path):
        text = LEGENDRE_CFG.replace("degrees = 10", "degrees = 40 80").replace(
            "job = tables", "job = mh-curve").replace("csv = legendre.csv",
                                                      "csv = curve.csv")
        text += "svg = curve.svg\n"
        cfg = _write_cfg(tmp_path, text)
        rc = main(["mh-curve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        csv_lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert csv_lines[0] == "x,limit,q_40,q_80"
        assert len(csv_lines) == 1 + 361
        svg = (tmp_path / "curve.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 3
        assert "n=40" in svg and "n=80" in svg and "legendre-check" in svg

    @pytest.mark.parametrize("job,names", [
        ("tables", ["legendre-check_tables.csv"]),
        ("zeros", ["legendre-check_zeros.csv"]),
        ("limits", ["legendre-check_limits.csv"]),
        ("mh-curve", ["legendre-check_curve.csv", "legendre-check_curve.svg"]),
    ])
    def test_default_output_names(self, tmp_path, capsys, job, names):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace("csv = legendre.csv",
                                                        "csv = none\nsvg = none"))
        out = tmp_path / "out"
        assert main([job, "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(out / n) for n in names]
        assert sorted(p.name for p in out.iterdir()) == names

    def test_curve_sup_distance_shrinks_with_degree(self, supercritical):
        # scaled curves approach the limit curve as the degree grows
        import math

        from sobolev_mh.asymptotics import limit_coeffs, limit_eval
        from sobolev_mh.jacobi import clenshaw_eval
        from sobolev_mh.sobolev import sobolev_polynomial

        xs = np.linspace(0.0, 18.0, 181)
        ref = limit_eval(limit_coeffs(supercritical), xs)
        sups = {}
        for n in (150, 5000):
            series = sobolev_polynomial(supercritical, n)
            vals = math.exp(-3.0 * math.log(n)) * clenshaw_eval(
                series, 1.0 - xs * xs / (2.0 * n * n))
            sups[n] = float(np.max(np.abs(vals - ref)))
        assert sups[5000] < sups[150]


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["tables", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_malformed_config(self, tmp_path):
        cfg = _write_cfg(tmp_path, "not a config\n")
        assert main(["tables", "--config", cfg]) == 2

    def test_job_without_source(self):
        assert main(["tables"]) == 2

    def test_unknown_preset(self):
        assert main(["tables", "--preset", "table99"]) == 2

    @pytest.mark.parametrize("job", ["tables", "zeros", "mh-curve"])
    def test_custom_mass_without_degree_entry(self, tmp_path, capsys, job):
        text = LEGENDRE_CFG.replace(
            "mass = plain\nM = 0",
            "mass = custom\nM = 0\ncustom_values = 1:0.5 2:0.25")
        cfg = _write_cfg(tmp_path, text)
        assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: custom mass sequence has no entry for n=10\n"


    @pytest.mark.parametrize("job, old, new", [
        ("zeros", "degrees = 10", "degrees = 0"),
        ("tables", "degrees = 10", "degrees = 0"),
        ("mh-curve", "degrees = 10", "degrees = 0"),
        ("tables", "degrees = 10", "degrees = 3 10"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\npoints = 0"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\nx_max = nan"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\nx_max = inf"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\nx_max = -1"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\nx_max = 100000"),
        ("mh-curve", "zero_count = 4", "zero_count = 4\nx_max = 1e308"),
        ("mh-curve", "degrees = 10", "degrees = 150 500\nx_max = 300.5"),
    ])
    def test_out_of_domain_config_is_one_line(self, tmp_path, capsys, job, old, new):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace(old, new))
        assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    def test_x_max_at_twice_smallest_degree(self, tmp_path, capsys):
        # x = 2n maps to 1 - x^2/(2n^2) = -1, the edge of the curve's domain
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace("degrees = 10",
                                                        "degrees = 150 500\nx_max = 300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mh-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_numeric_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        from sobolev_mh import zeros

        found = zeros._roots_from_grid
        # a grid that misses a zero, as the exterior zero above 1.5 does
        monkeypatch.setattr(zeros, "_roots_from_grid",
                            lambda series, grid: found(series, grid)[1:])
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: found 9 of 10 zeros")
        assert len(err.splitlines()) == 1

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--threads", "2"])
        assert "--threads" in capsys.readouterr().err

def _orthogonality_loop(setup, n_max):
    # reference: the orthogonality check one degree at a time, each series
    # rebuilt
    worst = 0.0
    j = int(setup.j)
    h = np.array([norm2(m, setup.params) for m in range(n_max)])
    d = np.array([deriv_at_one(m, j, setup.params) for m in range(n_max)])
    for n in range(1, n_max + 1):
        series = sobolev_polynomial(setup, n)
        qj1 = q_deriv_at_one(setup, n, j)
        Mn = mass(setup.mass, n)
        hn = norm2(n, setup.params)
        ip = series.coeffs[:n] * h[:n] + Mn * qj1 * d[:n]
        worst = max(worst, float(np.max(np.abs(ip))) / hn)
    return worst


def _reconstruct_loop(setup, n_max):
    # reference: the connection check one degree at a time, a direct and a
    # connection Clenshaw pass each
    worst = 0.0
    grid = np.linspace(-1.0, 1.0, 21)
    for n in range(setup.j + 1, n_max + 1):
        direct = clenshaw_eval(sobolev_polynomial(setup, n), grid)
        rebuilt = connection_reconstruct(setup, n, grid)
        scale = np.max(np.abs(direct))
        worst = max(worst, float(np.max(np.abs(direct - rebuilt))) / scale)
    return worst


class TestVerifyJob:
    @pytest.mark.parametrize("name", sorted(SETUPS))
    def test_stacked_checks_equal_degree_loops(self, name):
        setup = SETUPS[name]
        stack = verify_mod._series_stack(setup, 100)
        assert verify_mod._orthogonality_worst(setup, stack) == _orthogonality_loop(setup, 100)
        assert (verify_mod._reconstruct_worst(setup, stack, 60)
                == _reconstruct_loop(setup, 60))

    def test_one_connection_pass_per_preset(self, monkeypatch):
        calls = []
        inner = verify_mod.connection_reconstruct

        def counted(setup, n, x):
            calls.append(setup)
            return inner(setup, n, x)

        monkeypatch.setattr(verify_mod, "connection_reconstruct", counted)
        assert all(p.status == "pass" for p in verify_mod.run_properties())
        assert sorted(map(id, calls)) == sorted(map(id, SETUPS.values()))

    def test_only_filter_restricts(self):
        cells = verify_mod.run_golden(only="table5", fast=True)
        assert cells and all(c.table == "table5" for c in cells)

    def test_unknown_only(self):
        with pytest.raises(ConfigError):
            verify_mod.run_golden(only="tableX")

    def test_sabotaged_tolerance_names_cells(self):
        tiny = {"raw": 1e-12, "scaled": 1e-12, "limit": 1e-12}
        cells = verify_mod.run_golden(only="table2", fast=True, tolerances=tiny)
        fails = [c for c in cells if c.status == "fail"]
        assert fails
        assert {(c.table, c.kind) for c in fails} <= {("table2", "scaled"),
                                                      ("table2", "limit")}
        result = verify_mod.VerifyResult(cells=cells, properties=[])
        assert not result.ok

    def test_each_zero_set_is_extracted_once(self, monkeypatch):
        # 4 presets x (25, 50, 150, 250): the zero-shape property reuses the
        # degree-150/250 sets of the golden tables
        calls = []
        inner = zeros_mod.sobolev_zeros

        def counted(setup, n):
            calls.append((setup, n))
            return inner(setup, n)

        monkeypatch.setattr(zeros_mod, "sobolev_zeros", counted)
        monkeypatch.setattr(verify_mod, "sobolev_zeros", counted)
        assert verify_mod.run().ok
        assert len(calls) == len(set(calls)) == 16

    def test_cli_verify_only_exit_zero(self, tmp_path, capsys):
        rc = main(["verify", "--only", "table2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify_report.csv").exists()
        out = capsys.readouterr().out
        assert "cells:" in out
