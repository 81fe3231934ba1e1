"""The command line as a process: what it starts with and how it ends.

Importing the package keeps numpy's OpenBLAS to one thread, and
``cli.run`` ends the process with ``os._exit`` once the job's output is
flushed.  These checks spawn fresh interpreters, since neither shows
inside the test process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sobolev_mh.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sobolev_mh"


def _python(args, env_update=None, **kwargs):
    """A fresh interpreter on ``args``, with the checkout's sources first on
    the path and OPENBLAS_NUM_THREADS unset unless ``env_update`` sets it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)  # importing sobolev_mh here set it
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_update or {})
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("preset, expect", [(None, "1"), ("3", "3")])
def test_import_keeps_openblas_to_one_thread_unless_set(preset, expect):
    code = "import os, sobolev_mh\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    proc = _python(["-c", code], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expect]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_import_starts_no_thread():
    # numpy's OpenBLAS would start a worker per core at import, which spins
    # for about 130 ms of CPU in every job process
    code = "import os, sobolev_mh.cli\nprint(len(os.listdir('/proc/self/task')))\n"
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_zeros_job_output_survives_the_fast_exit(tmp_path):
    proc = _python(["-m", "sobolev_mh.cli", "zeros", "--preset", "table1",
                    "--out", str(tmp_path / "sub")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    printed = proc.stdout.splitlines()
    assert printed and all(Path(p).exists() for p in printed)
    assert main(["zeros", "--preset", "table1", "--out", str(tmp_path / "in")]) == 0
    for p in printed:
        assert Path(p).read_bytes() == (tmp_path / "in" / Path(p).name).read_bytes()


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
def test_closed_stdout_at_start_still_exits_zero(tmp_path):
    # with fd 1 closed at start-up sys.stdout is None: the paths are not
    # printed, and the job still writes its files and exits 0
    proc = _python(["-m", "sobolev_mh.cli", "zeros", "--preset", "table1",
                    "--out", str(tmp_path / "sub")], preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main(["zeros", "--preset", "table1", "--out", str(tmp_path / "in")]) == 0
    written = sorted(p.name for p in (tmp_path / "in").iterdir())
    assert written and sorted(p.name for p in (tmp_path / "sub").iterdir()) == written


def test_missing_config_exits_two_with_one_line(tmp_path):
    proc = _python(["-m", "sobolev_mh.cli", "limits", "--config", "does-not-exist.cfg",
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("path error: ")


def test_numeric_failure_exits_three_with_one_line(tmp_path):
    # the grid of test_numeric_failure_is_one_line, which misses a zero
    from test_config_cli import LEGENDRE_CFG

    cfg = tmp_path / "legendre.cfg"
    cfg.write_text(LEGENDRE_CFG)
    code = ("import sys\nfrom sobolev_mh import kernels\nfrom sobolev_mh.cli import run\n"
            "found = kernels.grid_roots\n"
            "kernels.grid_roots = lambda f, grid, vals: found(f, grid, vals)[1:]\n"
            "run(sys.argv[1:])\n")
    proc = _python(["-c", code, "zeros", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure: found 9 of 10 zeros")
    assert len(proc.stderr.splitlines()) == 1


def test_profiler_gets_the_normal_exit(tmp_path):
    proc = _python(["-m", "cProfile", "-m", "sobolev_mh.cli", "limits", "--preset", "table1",
                    "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert Path(lines[0]).exists()
    assert any("function calls" in line for line in lines)
    assert any("ncalls" in line for line in lines)


def test_monitoring_tool_gets_the_normal_exit(tmp_path):
    # from Python 3.12 cProfile and coverage may register through
    # sys.monitoring and leave sys.getprofile() and sys.gettrace() unset
    code = ("import sys, types\n"
            "sys.monitoring = types.SimpleNamespace(get_tool=lambda i: 'prof' if i == 2 else None)\n"
            "from sobolev_mh.cli import run\n"
            "print('returned', run(sys.argv[1:]))\n")
    proc = _python(["-c", code, "limits", "--config", "does-not-exist.cfg",
                    "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["returned 2"]


# numpy routes these to BLAS or LAPACK
_BLAS_ATTRS = {"linalg", "dot", "matmul", "einsum", "inner", "tensordot", "vdot"}


def test_sources_call_no_blas():
    # the one-thread OpenBLAS costs nothing only while no module calls it
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_ATTRS:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []
