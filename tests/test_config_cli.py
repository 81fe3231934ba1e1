import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sobolev_mh
from sobolev_mh import golden, verify as verify_mod, zeros as zeros_mod
from sobolev_mh.cli import main
from sobolev_mh.config import _FIELDS, _REQUIRED, parse_config
from sobolev_mh.errors import ConfigError
from sobolev_mh.jacobi import clenshaw_eval, deriv_at_one, norm2
from sobolev_mh.presets import SETUPS, get_preset, preset_names
from sobolev_mh.sobolev import connection_reconstruct, mass, q_deriv_at_one, sobolev_polynomial

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

# LEGENDRE_CFG with every key of config._FIELDS set
FULL_CFG = LEGENDRE_CFG.replace(
    "zero_count = 4", "zero_count = 4\ncustom_values = 10:1/2\nx_max = 12\npoints = 11"
) + "svg = legendre.svg\n"
# a value that each field's parser rejects; id, csv and svg take any text
BAD_VALUES = {
    "job": "tabels", "alpha": "threeish", "beta": "1/0", "j": "3.5", "gamma": "two",
    "mass": "heavy", "M": "1e", "custom_values": "10=1/2", "degrees": "10 twenty",
    "zero_count": "four", "x_max": "far", "points": "11.5",
}
FREE_TEXT = ("id", "csv", "svg")


def _plain_cfg(alpha, gamma, degrees=10):
    # derivative order 0 and the plain mass with M = 1
    return (LEGENDRE_CFG.replace("alpha = 0", f"alpha = {alpha}").replace("j = 3", "j = 0")
            .replace("gamma = 2", f"gamma = {gamma}").replace("M = 0", "M = 1")
            .replace("degrees = 10", f"degrees = {degrees}"))


class TestConfig:
    def test_exact_rationals_survive(self):
        text = LEGENDRE_CFG.replace("alpha = 0", "alpha = -9/10").replace(
            "gamma = 2", "gamma = 61/5")
        cfg = parse_config(text)
        assert cfg.setup.params.alpha == Fraction(-9, 10)
        assert cfg.setup.mass.gamma == Fraction(61, 5)

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

    def test_every_key_is_set_or_rejected(self):
        keys = [k for fields in _FIELDS.values() for k in fields]
        assert sorted(keys) == sorted([*BAD_VALUES, *FREE_TEXT])
        cfg = parse_config(FULL_CFG)
        assert (cfg.x_max, cfg.points, cfg.svg_path) == (12.0, 11, "legendre.svg")
        # a valid table on a plain mass is checked but not kept in the setup
        assert cfg.setup == parse_config(LEGENDRE_CFG).setup
        assert hash(cfg.setup) == hash(parse_config(LEGENDRE_CFG).setup)

    @staticmethod
    def _assert_names_line_and_field(key, value):
        lines = FULL_CFG.splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith(f"{key} = "))
        lines[lineno - 1] = f"{key} = {value}"
        with pytest.raises(ConfigError) as info:
            parse_config("\n".join(lines))
        msg = str(info.value)
        assert msg.startswith(f"line {lineno}: field '{key}' is not ")
        assert msg.endswith(f": '{value}'") and "\n" not in msg

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_bad_value_names_line_and_field(self, key):
        self._assert_names_line_and_field(key, BAD_VALUES[key])

    @pytest.mark.parametrize("key", ["alpha", "beta", "gamma", "M"])
    def test_rational_beyond_double_range_names_line_and_field(self, key):
        # exact as a Fraction, but float() of it overflows
        self._assert_names_line_and_field(key, "1e400")

    def test_omitted_optional_keys_take_defaults(self):
        text = "\n".join(line for line in LEGENDRE_CFG.splitlines()
                         if not line.startswith(("M =", "zero_count =", "[output]", "csv =")))
        cfg = parse_config(text)
        assert cfg.setup.mass.M == 0 and cfg.setup.mass.custom_values is None
        assert (cfg.zero_count, cfg.x_max, cfg.points) == (4, 18.0, 361)
        assert cfg.csv_path is None and cfg.svg_path is None

    def test_preset_names_resolve(self):
        # every preset passes the checks of every job that reads one
        for name in preset_names():
            for job in ("tables", "zeros", "mh-curve", "limits"):
                assert get_preset(name, job).setup.params.alpha > -1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("table9", "tables")

    def test_table_presets_follow_the_golden_tables(self):
        assert preset_names() == [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "table8", "figure-critical-bigM", "figure-critical-smallM",
            "figure-subcritical", "figure-supercritical", "critical-big-mass",
            "critical-small-mass", "subcritical", "supercritical"]
        for tid, table in golden.TABLES.items():
            assert get_preset(tid, "tables").setup is SETUPS[table.experiment]


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    part = readme.split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in part.splitlines() if line.startswith("| `")]
    assert [(r[1], r[0].strip("`"), r[3] == "required") for r in rows] == [
        (section, key, default is _REQUIRED)
        for section, fields in _FIELDS.items()
        for key, (_, _, default) in fields.items()]


def test_exports_resolve_once():
    assert len(set(sobolev_mh.__all__)) == len(sobolev_mh.__all__)
    for name in sobolev_mh.__all__:
        assert hasattr(sobolev_mh, name), name


def test_readme_lists_the_python_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    part = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = part.split("\n\n")[1]  # the list after the opening paragraph
    assert bullets.startswith("- ")
    names = [name for item in bullets.split("\n- ")
             for name in item.split(":", 1)[1].split("`")[1::2]]
    assert len(names) == len(set(names))
    assert set(names) == set(sobolev_mh.__all__)


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

    def test_only_excluded_zero_requested(self, tmp_path, capsys):
        # subcritical: the largest zero is excluded from the scaled rows, so
        # with zero_count = 1 there is no scaled zero and no limit row
        text = (LEGENDRE_CFG.replace("alpha = 0", "alpha = 3")
                .replace("beta = 0", "beta = -1/2").replace("gamma = 2", "gamma = 4")
                .replace("M = 0", "M = 7/2").replace("degrees = 10", "degrees = 150")
                .replace("zero_count = 4", "zero_count = 1"))
        cfg = _write_cfg(tmp_path, text)
        assert main(["tables", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "legendre.csv").read_text().splitlines()
        assert len(lines) == 2
        rec = lines[1].split(",")
        assert rec[:3] == ["legendre-check", "150", "1"] and float(rec[3]) > 1.0
        assert rec[4:] == ["", "", ""]

    def test_limit_row_where_the_limit_function_underflows(self, tmp_path, capsys):
        # alpha = 300, supercritical: L(1e-3) ~ 1/Gamma(301) underflows to 0,
        # which is no sign change of L, so no row leaves out its largest zero;
        # read as a sign change, the 0 dropped the top zero of both rows, and
        # a scan of L found none of the limit zeros
        text = (_plain_cfg(300, 700, "150 300").replace("j = 0", "j = 1")
                .replace("zero_count = 4", "zero_count = 3"))
        cfg = _write_cfg(tmp_path, text)
        assert main(["tables", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        recs = [line.split(",") for line in
                (tmp_path / "legendre.csv").read_text().splitlines()[1:]]
        assert [r[1:3] for r in recs] == [[n, i] for n in ("150", "300", "limit")
                                          for i in ("1", "2", "3")]
        assert all(r[4] != "" for r in recs[:6])  # excluded = 0 on both rows
        assert [r[5] for r in recs] == ["312.577", "322.192", "330.192"] * 3


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
        cfg = _write_cfg(tmp_path, _plain_cfg(100, 1, 3000))
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

    def test_log_ratio_limit_without_M(self, tmp_path):
        # the log-ratio formula fixes its mass limit at 7/2; the config sets no M
        text = (LEGENDRE_CFG.replace("alpha = 0", "alpha = 3").replace("beta = 0", "beta = -1/2")
                .replace("gamma = 2", "gamma = 4").replace("mass = plain\nM = 0\n",
                                                           "mass = log-ratio\n"))
        assert main(["limits", "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "legendre.csv").read_text().splitlines()]
        zeros = [float(r[3]) for r in rows if r[1] == "zero"]
        assert zeros[:3] == pytest.approx(golden.TABLES["table4"].limit, rel=1e-6)

    def test_exp_rational_limit_ignores_M(self, tmp_path):
        # critical at gamma = 2(alpha + 2j + 1); the formula's mass limit is 1/2
        base = (LEGENDRE_CFG.replace("alpha = 0", "alpha = -9/10")
                .replace("beta = 0", "beta = -9/10").replace("j = 3", "j = 1")
                .replace("gamma = 2", "gamma = 21/5").replace("mass = plain\nM = 0\n",
                                                              "mass = exp-rational\n"))
        texts = []
        for text in (base, base.replace("degrees", "M = 1/2\ndegrees")):
            assert main(["limits", "--config", _write_cfg(tmp_path, text),
                         "--out", str(tmp_path)]) == 0
            texts.append((tmp_path / "legendre.csv").read_text())
        assert "critical" in texts[0] and texts[0] == texts[1]

    @pytest.mark.parametrize("full", [[], ["--full-precision"]])
    @pytest.mark.parametrize("job", ["tables", "zeros", "limits"])
    def test_every_row_has_the_header_columns(self, tmp_path, job, full):
        # subcritical at j = 3: blank scaled cells, limit rows, a regime row
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        assert main([job, "--config", cfg, "--out", str(tmp_path), *full]) == 0
        lines = (tmp_path / "legendre.csv").read_text().splitlines()
        assert {line.count(",") for line in lines} == {lines[0].count(",")}
        assert lines[0].endswith("_full") == bool(full)

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

    @pytest.mark.parametrize("argv", [
        pytest.param(["tables", "--config", "{tmp}/nope.cfg"], id="missing-config"),
        pytest.param(["zeros", "--config", "{tmp}"], id="config-is-a-directory"),
        pytest.param(["zeros", "--config", "{cfg}", "--out", "{file}"], id="out-is-a-file"),
        pytest.param(["verify", "--out", "{file}"], id="verify-out-is-a-file"),
        pytest.param(["zeros", "--config", "{cfg}", "--out", "{file}/sub"],
                     id="out-below-a-file"),
    ])
    def test_path_error_is_one_line(self, tmp_path, capsys, argv):
        # a path that cannot be read or written is exit 2 with one line,
        # before any job runs (verify prints no report)
        paths = {"tmp": str(tmp_path), "cfg": _write_cfg(tmp_path, LEGENDRE_CFG),
                 "file": str(tmp_path / "a-file")}
        (tmp_path / "a-file").write_text("")
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("path error: [Errno ") and len(err.splitlines()) == 1

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
        ("tables", "mass = plain", "mass = custom"),
        ("zeros", "M = 0", "M = 0\ncustom_values = 10=1/2"),
        ("zeros", "mass = plain", "mass = custom\ncustom_values = 10:-5"),
        ("limits", "mass = plain", "mass = custom\ncustom_values = 10:-5"),
        ("zeros", "M = 0", "M = 1e400"),
        ("limits", "M = 0", "M = 1e400"),
    ])
    def test_out_of_domain_config_is_one_line(self, tmp_path, capsys, job, old, new):
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("own, other, old, new", [
        ("tables", "limits", "degrees = 10", "degrees = 2"),
        ("mh-curve", "zeros", "zero_count = 4", "zero_count = 4\nx_max = 100"),
    ])
    def test_file_job_checks_only_its_own_job(self, tmp_path, capsys, own, other, old, new):
        # the command line's job replaces the file's before any job check
        text = LEGENDRE_CFG.replace("job = tables", f"job = {own}").replace(old, new)
        cfg = _write_cfg(tmp_path, text)
        assert main([other, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert main([own, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1

    def test_x_max_at_twice_smallest_degree(self, tmp_path, capsys):
        # x = 2n maps to 1 - x^2/(2n^2) = -1, the edge of the curve's domain
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace("degrees = 10",
                                                        "degrees = 150 500\nx_max = 300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mh-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_numeric_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        from sobolev_mh import kernels

        found = kernels.grid_roots
        # a grid that misses a zero, as the exterior zero above 1.5 does
        monkeypatch.setattr(kernels, "grid_roots",
                            lambda f, grid, vals: found(f, grid, vals)[1:])
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG)
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: found 9 of 10 zeros")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("job", ["limits", "mh-curve", "tables"])
    def test_critical_limit_beyond_the_double_range_is_computed(self, tmp_path, capsys,
                                                                job):
        # critical: the constant G of the limit coefficients is above the
        # double range at alpha = 91 and 100, and M = 1e308 is; the limit
        # needs only log G - log M
        for text in [_plain_cfg(alpha, 2 * (alpha + 1)) for alpha in (91, 100)] + [
                _plain_cfg(1, 4, "150 500").replace("M = 1", "M = 1e308")]:
            cfg = _write_cfg(tmp_path, text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("job", ["mh-curve", "tables", "zeros"])
    def test_overflow_is_one_line(self, tmp_path, capsys, job):
        # the power n ** gamma of a mass family overflows or underflows into a
        # divisor (the first four), or the product or quotient overflows
        masses = [(LEGENDRE_CFG.replace("alpha = 0", f"alpha = {alpha}")
                   .replace("j = 3", f"j = {j}").replace("M = 0", f"M = {M}")
                   .replace("mass = plain", f"mass = {kind}")
                   .replace("gamma = 2", f"gamma = {gamma}")
                   .replace("degrees = 10", f"degrees = {n}"),
                   f"the {kind} mass at n = {n}, gamma = {shown} is beyond the double range")
                  for kind, alpha, j, M, gamma, n, shown in (
                      ("log-ratio", 1, 3, 1, -400, 10, "-400"),
                      ("exp-rational", 1, 3, 1, -400, 700, "-400"),
                      ("plain", 1, 3, 1, -1e300, 10, "-1e+300"),
                      ("poly-ratio", 1, 3, 1, 1e300, 10, "1e+300"),
                      ("plain", 2, 0, 1e300, -5, 100, "-5"),
                      ("exp-rational", 1, 1, 1, -320, 10, "-320"))]
        for text, message in masses:
            cfg = _write_cfg(tmp_path, text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 3
            assert capsys.readouterr().err == f"numeric failure: {message}\n"

    @pytest.mark.parametrize("job", ["mh-curve", "zeros", "tables"])
    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_huge_exponent_is_one_line(self, tmp_path, capsys, job, key):
        # at 1e300 the recurrence coefficients are not doubles; mh-curve used
        # to exit 0 with an empty q_10 column after overflow warnings
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace(f"{key} = 0", f"{key} = 1e300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([job, "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ")
        a, b = ("1e+300", "0") if key == "alpha" else ("0", "1e+300")
        assert err == (f"numeric failure: the Jacobi recurrence at alpha = {a}, "
                       f"beta = {b} is not finite in double precision\n")

    def test_grid_overflow_is_one_line(self, tmp_path, capsys):
        # alpha = 300, n = 3000: P_n(1) is above the double range, so the
        # series overflows on the bracket grid
        cfg = _write_cfg(tmp_path, _plain_cfg(300, 1, 3000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numeric failure: degree 3000: the series "
                                           "overflows a double on the bracket grid\n")

    def test_grid_overflow_of_the_closed_form_at_one_is_one_line(self, tmp_path, capsys):
        # at j = 1 the closed form of Q_n(1), which the grid takes at 1, is
        # above the double range too; the grid check still names the overflow
        cfg = _write_cfg(tmp_path, _plain_cfg(300, 1, 3000).replace("j = 0", "j = 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numeric failure: degree 3000: the series "
                                           "overflows a double on the bracket grid\n")

    @pytest.mark.parametrize("alpha, n", [(300, 3000), (10000, 150)])
    def test_curve_overflow_is_one_line(self, tmp_path, capsys, alpha, n):
        # the scaled series is not a double on the curve grid; mh-curve used
        # to exit 0 with an empty q_n column after overflow warnings
        cfg = _write_cfg(tmp_path, _plain_cfg(alpha, 1, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mh-curve", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"numeric failure: degree {n}: the scaled "
                                           f"series overflows a double\n")

    @pytest.mark.parametrize("alpha", [200])
    def test_curve_underflow_is_one_line(self, tmp_path, capsys, alpha):
        # the scaled series is below the double range at n = 150, so every
        # q_150 cell was 0; mh-curve used to exit 0 with that column
        cfg = _write_cfg(tmp_path, _plain_cfg(alpha, 1, 150).replace("j = 0", "j = 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mh-curve", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numeric failure: degree 150: the scaled "
                                           "series underflows a double\n")

    @pytest.mark.parametrize("alpha, rc", [(50, 0), (90, 0), (300, 0)])
    def test_limit_zero_scan_is_one_pass(self, tmp_path, capsys, monkeypatch, alpha, rc):
        # the limit zeros come from one scan pass, also at alpha = 300, where
        # the limit function L underflows to 0 on the whole grid but the
        # Bessel sum S = (x/2)^alpha L that is scanned does not
        from sobolev_mh import kernels

        passes = 0
        found = kernels.grid_roots

        def counted(*args):
            nonlocal passes
            passes += 1
            return found(*args)

        monkeypatch.setattr(kernels, "grid_roots", counted)
        cfg = _write_cfg(tmp_path, _plain_cfg(alpha, 1))
        assert main(["limits", "--config", cfg, "--out", str(tmp_path)]) == rc
        assert passes == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alpha", ["1e6", "1e10", "1e20", "1e100"])
    def test_huge_alpha_limit_scan_is_one_line(self, tmp_path, capsys, alpha):
        # the limit-zero scan up to McMahon's estimate would need 5.9e7 to
        # 5.9e21 grid points, and at 1e100 the estimate is not a double; it
        # used to exit 1 with an allocation traceback at 1e10 and 2 with
        # numpy's "Maximum allowed size exceeded" at 1e20 and 1e100
        cfg = _write_cfg(tmp_path, LEGENDRE_CFG.replace("alpha = 0", f"alpha = {alpha}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        if alpha == "1e100":
            assert err == ("numeric failure: McMahon's estimate of zero 9 of the Bessel "
                           "function of order 1e+100 is beyond the double range\n")
        else:
            assert err.startswith("numeric failure: the zero scan below ")
            assert err.endswith(" needs more than 100000 grid points\n")

    def test_limit_zeros_where_the_limit_function_is_subnormal(self, tmp_path, capsys):
        # alpha = 160, j = 3: L is below 1e-308 between its zeros; the zeros
        # were printed 4.8e-4 off with exit 0, and then refused with exit 3
        cfg = _write_cfg(tmp_path, _plain_cfg(160, 1).replace("j = 0", "j = 3"))
        assert main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

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
        stack = sobolev_polynomial(setup, np.arange(101)).coeffs
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

    def test_sabotaged_tolerance_names_cells(self, monkeypatch):
        tiny = {"raw": 1e-12, "scaled": 1e-12, "limit": 1e-12}
        monkeypatch.setattr(golden, "TOLERANCES", tiny)
        cells = verify_mod.run_golden(only="table2", fast=True)
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
