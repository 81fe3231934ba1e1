#!/usr/bin/env python3
"""Benchmark for the sobolev-mh command line, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  The seeded job list of the
workload (see jobs.py) runs again and again, one CLI subprocess at a time:
at least two whole passes over the list, then as many more as fit in S
seconds.  Bare imports of the CLI sample the set-up cost: a burst before
the first pass and after the last, and one between jobs whenever
``SETUP_EVERY_S`` seconds have passed since the previous one, so that the
set-up samples span the whole run as the job samples do.  The program
sees only the generated config files and writes to a scratch ``--out``
directory, which is checked after the timed region.

``--trace 0`` reports the end-to-end metrics, each a median over the run:

- ``setup_s``: median wall time of a subprocess that only imports
  ``sobolev_mh.cli`` (at least ``2 * SETUP_BURST`` samples); every CLI
  job pays it.
- ``wall_s``: median over the passes of one pass's job wall times, summed
  (the set-up samples taken between jobs are left out).
- ``job_s.p50``: median wall time of a job execution, from spawn to exit.
- ``peak_rss_mb``: largest max-RSS of any job's process (``os.wait4``).
- ``pass_ratio``: jobs that passed their check / jobs attempted.  The
  result line carries the fail ratio as ``failed`` / ``attempted``.

``--trace 1`` runs one pass in-process (``tracer.py``), once plain and once
with every layer's public functions wrapped, and reports the per-layer
metrics of ``tracer.METRICS``, tracing overhead included.

The last line of standard output is the JSON result; the lines before it
describe the environment, sample counts and any failed job.
"""

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import jobs as jobs_mod

# numpy, scipy and the modules that use them (checks, tracer) are imported
# only after the last timed job: a child spawned from this process reports
# this process's peak RSS as its own floor (it is recorded at exec), so the
# process must stay smaller than any CLI job while jobs are measured.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_BURST = 8
SETUP_EVERY_S = 1.0
MIN_PASSES = 2
# (metric, unit) of the --trace 0 result, in BENCHMARK.json's order
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"),
              ("peak_rss_mb", "MiB"), ("pass_ratio", "ratio")]


def _env():
    env = dict(os.environ)
    env.pop("SOBOLEV_MH_OUT", None)  # would redirect --out outside the checkout
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd, log_prefix):
    """Run ``python3 argv`` to completion; return (wall_s, returncode,
    max RSS in MB, stdout, stderr).  Output goes to files, not pipes, so
    the child is reaped with ``os.wait4`` and its rusage is kept."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + list(argv), cwd=cwd, env=_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        stdout = f.read()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


class Checker:
    """Checks each execution; identical outputs of one job are checked once."""

    def __init__(self):
        self.cache = {}
        self.attempted = 0
        self.failures = []

    def __call__(self, job, out_dir, rc, stdout, stderr):
        stdout = stdout.replace(out_dir, "<out>")
        h = hashlib.sha1(f"{job.id}\0{rc}\0{stdout}\0{stderr}".encode())
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
        key = h.hexdigest()
        if key not in self.cache:
            from checks import check

            self.cache[key] = check(job, out_dir, rc, stdout, stderr)
        self.attempted += 1
        if self.cache[key] is not None:
            self.failures.append(f"{job.id}: {self.cache[key]}")


def _import_cli(work, n, samples):
    """Time ``n`` subprocesses that only import the CLI; append to ``samples``."""
    argv = ["-c", "import sobolev_mh.cli"]
    for _ in range(n):
        wall, rc, _, _, stderr = spawn(argv, work, os.path.join(work, "setup"))
        if rc != 0:
            raise RuntimeError(f"importing sobolev_mh.cli failed:\n{stderr}")
        samples.append(wall)


def run_end_to_end(job_list, seconds, work, checker):
    """Return (set-up samples, per-job wall samples, peak RSS in MB)."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is loaded: peak_rss_mb would read this process's size")
    _import_cli(work, 1, [])  # warm the bytecode cache; users do not pay this
    setup, passes, outputs = [], [], []  # passes: budgeting only
    job_walls = [[] for _ in job_list]
    peak_rss = 0.0
    _import_cli(work, SETUP_BURST, setup)
    t_start = t_setup = time.perf_counter()
    # at least two passes, then another only if it should end within budget
    while len(passes) < MIN_PASSES or (time.perf_counter() - t_start
                                       + statistics.fmean(passes) <= seconds):
        t_pass = time.perf_counter()
        for i, job in enumerate(job_list):
            if time.perf_counter() - t_setup >= SETUP_EVERY_S:
                _import_cli(work, 1, setup)
                t_setup = time.perf_counter()
            out_dir = os.path.join(work, "out", f"p{len(passes)}-j{i}")
            os.makedirs(out_dir)
            # logs go to out_dir + ".out"/".err", beside the checked outputs
            wall, rc, rss, stdout, stderr = spawn(
                ["-m", "sobolev_mh.cli", *job.argv, "--out", out_dir], work, out_dir)
            job_walls[i].append(wall)
            peak_rss = max(peak_rss, rss)
            outputs.append((job, out_dir, rc, stdout, stderr))
        passes.append(time.perf_counter() - t_pass)
    _import_cli(work, SETUP_BURST, setup)
    for job, out_dir, rc, stdout, stderr in outputs:
        checker(job, out_dir, rc, stdout, stderr)
    return setup, job_walls, peak_rss


def run_traced(job_list, work, checker):
    import tracer

    plain_wall = traced_wall = 0.0
    span_files = []
    for i, job in enumerate(job_list):
        for mode in ("plain", "trace"):
            out_dir = os.path.join(work, "out", f"{mode}-j{i}")
            os.makedirs(out_dir)
            result = os.path.join(work, f"{mode}-j{i}.json")
            _, rc, _, stdout, stderr = spawn(
                [os.path.join(ROOT, "perfbench", "tracer.py"), mode, result, str(i),
                 "--", *job.argv, "--out", out_dir], work, out_dir)
            checker(job, out_dir, rc, stdout, stderr)
            if not os.path.exists(result):
                continue  # the child died before main(); counted as failed
            with open(result) as f:
                wall = json.load(f)["wall_s"]
            if mode == "plain":
                plain_wall += wall
            else:
                traced_wall += wall
                span_files.append(result + ".spans.npz")
    values, absent = tracer.summarize(span_files, traced_wall, plain_wall)
    return values, absent, {name: unit for name, unit, _ in tracer.METRICS}


def environment(seed):
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
            "seed": seed, "commit": commit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running job is killed, scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "sobolev_mh", "cli.py")):
        print(f"error: no sobolev_mh package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks import the package under test

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        job_list = jobs_mod.build(args.workload, args.seed, os.path.join(work, "configs"))
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} jobs/pass={len(job_list)}")
        print("env " + json.dumps(environment(args.seed)))
        checker = Checker()
        if args.trace:
            values, absent, units = run_traced(job_list, work, checker)
            if absent:
                print("absent (target no longer exists): " + ", ".join(absent))
        else:
            setup, job_walls, peak_rss = run_end_to_end(
                job_list, args.seconds, work, checker)
            pass_walls = [math.fsum(walls) for walls in zip(*job_walls)]
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(pass_walls),
                "job_s.p50": statistics.median([w for walls in job_walls for w in walls]),
                "peak_rss_mb": peak_rss,
                "pass_ratio": 1.0 - len(checker.failures) / checker.attempted,
            }
            units = dict(END_TO_END)
            print(f"samples: setup_s {len(setup)} imports, wall_s {len(pass_walls)} passes, "
                  f"job_s.p50 {len(pass_walls) * len(job_list)} jobs")
            print("setup walls " + " ".join(f"{w:.4f}" for w in setup))
            for job, walls in zip(job_list, job_walls):
                print(f"job walls {job.id} " + " ".join(f"{w:.4f}" for w in walls))
        failed = len(checker.failures)
        print(f"fail_ratio {failed}/{checker.attempted} = {failed / checker.attempted:.4g}")
        for line in checker.failures:
            print("FAILED " + line)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": checker.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
