"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

import filecmp
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import check, limit_terms  # noqa: E402
from oracle import comrade_zeros  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _config(path):
    from sobolev_mh.config import parse_config

    with open(path) as f:
        return parse_config(f.read())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, workload):
    a = jobs.build(workload, 7, str(tmp_path / "a"))
    b = jobs.build(workload, 7, str(tmp_path / "b"))
    assert [j.id for j in a] == [j.id for j in b]
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert not mismatch and not errors


def test_other_seed_gives_other_configs(tmp_path):
    jobs.build("zeros-high-degree", 1, str(tmp_path / "a"))
    jobs.build("zeros-high-degree", 2, str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch


@pytest.mark.parametrize("seed", range(5))
def test_every_job_list_is_stratified(tmp_path, seed):
    zero_jobs = jobs.build("zeros-high-degree", seed, str(tmp_path / "z"))
    regimes = set()
    for job in zero_jobs:
        cfg = _config(job.argv[2])
        s = cfg.setup
        assert -1 < s.params.alpha <= 10 and -1 < s.params.beta <= 5
        assert 0 <= s.j <= 6 and 1 <= s.mass.M <= 10 ** 6
        assert isinstance(s.mass.gamma, Fraction)
        threshold = 2 * (s.params.alpha + 2 * s.j + 1)
        regimes.add((s.mass.gamma > threshold) - (s.mass.gamma < threshold))
    assert regimes == {-1, 0, 1}
    assert sorted(job.expect["degrees"][0] for job in zero_jobs) == sorted(jobs.ZERO_DEGREES)

    limit_jobs = jobs.build("limit-functions", seed, str(tmp_path / "l"))
    sides = []
    for job in limit_jobs[::2]:
        cfg = _config(job.argv[2])
        s = cfg.setup
        if job.expect["regime"] == "critical":
            V = jobs.critical_threshold(s.params.alpha, s.params.beta, s.j)
            sides.append(float(s.mass.M) > V)
    assert sorted(sides) == [False, False, True, True]
    assert {job.job for job in limit_jobs} == {"limits", "mh-curve"}
    assert sorted(j.expect["zero_count"] for j in limit_jobs[::2]) == sorted(
        slot[3] for slot in jobs.LIMIT_SLOTS)


def _module_functions():
    return {(name, attr): val for name, m in sys.modules.items()
            if name == "sobolev_mh" or name.startswith("sobolev_mh.")
            for attr, val in vars(m).items() if callable(val)}


def test_wrappers_count_calls_and_restore_the_originals(tmp_path):
    import sobolev_mh
    import sobolev_mh.special_functions as sf

    for name in tracer.TARGETS:  # install() imports every layer
        importlib.import_module(f"sobolev_mh.{name}")

    before = _module_functions()
    t = tracer.Tracer(job_id=3).install()
    try:
        assert sobolev_mh.log_gamma is not before[("sobolev_mh", "log_gamma")]
        assert sf.log_gamma is sobolev_mh.log_gamma
        sobolev_mh.log_gamma(0.25)  # reflection: the inner call is a child span
    finally:
        t.restore()
    after = _module_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not t.absent
    t.save(str(tmp_path / "spans.npz"))
    metrics, absent = tracer.summarize([str(tmp_path / "spans.npz")], 1.0, 1.0)
    assert metrics["special_functions.log_gamma.calls"] == 2
    assert metrics["special_functions.log_gamma.self_s"] > 0.0
    assert list(t.parent) == [-1, 0] and list(t.job) == [3, 3]


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    import sobolev_mh.kernels

    monkeypatch.delattr(sobolev_mh.kernels, "jacobi_recurrence")
    t = tracer.Tracer().install()
    t.restore()
    assert t.absent == ["kernels.jacobi_recurrence"]
    t.save(str(tmp_path / "spans.npz"))
    metrics, absent = tracer.summarize([str(tmp_path / "spans.npz")], 1.0, 1.0)
    assert absent == ["kernels.jacobi_recurrence"]
    assert "kernels.jacobi_recurrence.self_s" not in metrics
    assert "kernels.clenshaw_batch.calls" in metrics


def test_traced_counts_repeat_exactly(tmp_path):
    job = jobs.build("limit-functions", 0, str(tmp_path / "cfg"))[1]  # an mh-curve job
    counts = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        result = str(tmp_path / f"r{k}.json")
        argv = [os.path.join(HERE, "tracer.py"), "trace", result, "0", "--",
                *job.argv, "--out", str(out)]
        _, rc, _, stdout, stderr = run.spawn(argv, str(tmp_path), str(out))
        assert rc == 0, stderr
        assert check(job, str(out), rc, stdout, stderr) is None
        metrics, _ = tracer.summarize([result + ".spans.npz"], 1.0, 1.0)
        counts.append({name: metrics[name] for name, unit, _ in tracer.METRICS
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.clenshaw_batch.point_terms"] > 0
    assert counts[0]["special_functions.bessel_j.calls"] > 0


def test_comrade_oracle_matches_gauss_jacobi_nodes():
    for a, b, n in ((0.0, 0.0, 30), (-0.9, 2.5, 41), (7.3, -0.5, 60)):
        c = np.zeros(n + 1)
        c[n] = 1.0
        expected = np.sort(roots_jacobi(n, a, b)[0])[::-1]
        assert np.max(np.abs(comrade_zeros(c, a, b) - expected)) < 1e-13


def test_limit_terms_take_the_limit_at_zero():
    b = np.array([0.7, -0.2, 0.05])
    near, at = limit_terms(b, 1.5, np.array([1e-7, 0.0])).sum(axis=0)
    assert at == pytest.approx(near, rel=1e-9)


def test_run_imports_no_numpy():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracer.METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_the_command_prints_exactly_the_declared_metrics(trace, section):
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify-battery",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit-functions",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
