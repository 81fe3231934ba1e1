"""Command line front end.

    sobolev-mh <job> [--preset NAME | --config FILE] [--out DIR] [--only ID]
               [--full-precision] [--slow]

Jobs: tables, zeros, mh-curve, limits, verify.  Exit codes: 0 ok, 1
verification failure, 2 configuration error, other ValueError or path error
(--config or --out; checked before the job runs), 3 numeric failure.

``main`` runs one job and returns its exit code.  ``run``, the entry of the
console script and of ``python -m sobolev_mh.cli``, calls ``main``, flushes
stdout and stderr and ends the process with ``os._exit``: no job needs the
interpreter's final garbage collection and module teardown.  Under a tracer
or profiler (coverage, ``python -m cProfile``) it returns normally instead,
so they can write their results at exit.
"""

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from .asymptotics import limit_coeffs, limit_eval
from .config import JOBS, parse_config
from .errors import ConfigError, NumericError
from .jacobi import scaled_eval
from .sobolev import sobolev_polynomial
from .zeros import convergence_table, limit_zeros, sobolev_zeros

# verify (with golden), presets and svg are imported by the jobs that use
# them, so that the other jobs do not load them at start-up


def _fmt(v, full=False):
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return ""
    return f"{v:.17g}" if full else f"{v:.6g}"


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# job implementations
# ---------------------------------------------------------------------------

def _csv(header, full_header, records, full):
    """CSV text of ``records``, each (label: the leading cells joined, values,
    full-precision values); with ``full`` one ``full_header`` column each."""
    lines = [header + full_header if full else header]
    for label, values, full_values in records:
        cells = [label]
        # append loops: a comprehension costs a call per record
        for v in values:
            cells.append(_fmt(v))
        if full:
            for v in full_values:
                cells.append(_fmt(v, True))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_tables(cfg, full_precision):
    tb = convergence_table(cfg.setup, cfg.degrees, cfg.zero_count)
    records = []
    for row in tb.rows:
        for i, raw in enumerate(row.raw):
            pos = i - row.excluded
            scaled = row.scaled[pos] if 0 <= pos < len(row.scaled) else None
            lim = tb.limit[pos] if 0 <= pos < len(tb.limit) else None
            err = abs(scaled - lim) if scaled is not None and lim is not None else None
            records.append((f"{cfg.id},{row.n},{i + 1}", (raw, scaled, lim, err),
                            (raw, scaled)))
    records += [(f"{cfg.id},limit,{pos + 1}", (None, None, lim, None), (None, None))
                for pos, lim in enumerate(tb.limit)]
    return (_csv("experiment_id,n,index,raw_zero,scaled_zero,limit,abs_error",
                 ",raw_zero_full,scaled_zero_full", records, full_precision),)


def _csv_zeros(cfg, full_precision):
    # tolist: a Python float formats faster than a numpy scalar, same text
    records = ((f"{cfg.id},{n},{i}", (z,), (z,)) for n in cfg.degrees
               for i, z in enumerate(sobolev_zeros(cfg.setup, n).zeros.tolist(), start=1))
    return (_csv("experiment_id,n,index,zero", ",zero_full", records, full_precision),)


def _csv_limits(cfg, full_precision):
    lf = limit_coeffs(cfg.setup)
    values = [("threshold", 0, float(lf.regime.threshold))]
    values += [("coeff", i, b) for i, b in enumerate(lf.b)]
    values += [("zero", i, z)
               for i, z in enumerate(limit_zeros(lf, cfg.zero_count), start=1)]
    records = [(f"{cfg.id},regime,0,{lf.regime.kind.value}", (), (None,))]
    records += [(f"{cfg.id},{kind},{i}", (v,), (v,)) for kind, i, v in values]
    return (_csv("experiment_id,kind,index,value", ",value_full", records, full_precision),)


def _mh_curve(cfg, full_precision):
    from .svg import line_chart

    xs = np.linspace(0.0, cfg.x_max, cfg.points)
    lf = limit_coeffs(cfg.setup)
    ref = limit_eval(lf, xs)
    cols = {n: scaled_eval(sobolev_polynomial(cfg.setup, n), xs) for n in cfg.degrees}
    header = ["x", "limit"] + [f"q_{n}" for n in cfg.degrees]
    lines = [",".join(header)]
    for i, x in enumerate(xs):
        rec = [_fmt(x, full_precision), _fmt(ref[i], full_precision)]
        rec += [_fmt(cols[n][i], full_precision) for n in cfg.degrees]
        lines.append(",".join(rec))
    series_list = [("limit", xs, ref)] + [(f"n={n}", xs, cols[n]) for n in cfg.degrees]
    svg = line_chart(series_list, title=cfg.id)
    return "\n".join(lines) + "\n", svg


def _csv_verify(result):
    lines = ["table,n,index,kind,reference,computed,abs_error,tolerance,status"]
    for c in result.cells:
        lines.append(f"{c.table},{c.n},{c.position + 1},{c.kind},{_fmt(c.reference)},"
                     f"{_fmt(c.computed)},{c.abs_err:.3e},{c.tol:.1e},{c.status}")
    for p in result.properties:
        lines.append(f"property,,,{p.name},,{p.worst:.3e},,{p.bound:.1e},{p.status}")
    return "\n".join(lines) + "\n"


def _run_verify(args):
    from . import verify as verify_mod

    result = verify_mod.run(only=args.only, fast=not args.slow)
    n_pass = sum(1 for c in result.cells if c.status == "pass")
    n_flag = sum(1 for c in result.cells if c.status == "flagged")
    fails = [c for c in result.cells if c.status == "fail"]
    for c in fails:
        print(f"FAIL {c.table} n={c.n} col={c.position + 1} "
              f"ref={_fmt(c.reference)} got={_fmt(c.computed)} "
              f"|err|={c.abs_err:.2e} > {c.tol:.0e}")
    for c in result.cells:
        if c.status == "flagged":
            print(f"NOTE {c.table} n={c.n} col={c.position + 1} "
                  f"printed={_fmt(c.reference)} recomputed={_fmt(c.computed)} "
                  f"|diff|={c.abs_err:.2e} (known source discrepancy)")
    for p in result.properties:
        mark = "ok" if p.status == "pass" else "FAIL"
        print(f"{mark:4s} {p.name}: worst={p.worst:.3e} bound={p.bound:.1e}")
    print(f"cells: {n_pass} pass, {len(fails)} fail, {n_flag} flagged; "
          f"properties: {sum(p.status == 'pass' for p in result.properties)}"
          f"/{len(result.properties)} pass")
    atomic_write_text(os.path.join(args.out, "verify_report.csv"), _csv_verify(result))
    return 0 if result.ok else 1


# job -> (writer returning the CSV text, then the SVG text of a curve; file suffix)
_WRITERS = {
    "tables": (_csv_tables, "tables"),
    "zeros": (_csv_zeros, "zeros"),
    "limits": (_csv_limits, "limits"),
    "mh-curve": (_mh_curve, "curve"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="sobolev-mh",
        description="Varying-mass Jacobi-Sobolev polynomials: zero tables, "
                    "endpoint limit curves and verification against the "
                    "embedded reference tables.")
    p.add_argument("job", choices=JOBS)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--preset", help="named experiment preset (e.g. table2)")
    g.add_argument("--config", help="experiment configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--only", help="verify: restrict to one table id")
    p.add_argument("--full-precision", action="store_true",
                   help="add full-precision columns to CSV output")
    p.add_argument("--slow", action="store_true",
                   help="verify: include the degree-500 rows")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        if args.job == "verify":
            return _run_verify(args)
        if args.preset:
            from .presets import get_preset

            cfg = get_preset(args.preset, args.job)
        elif args.config:
            with open(args.config) as f:
                cfg = parse_config(f.read(), args.job)
        else:
            raise ConfigError(f"job '{args.job}' needs --preset or --config")

        writer, suffix = _WRITERS[args.job]
        names = (cfg.csv_path or f"{cfg.id}_{suffix}.csv",
                 cfg.svg_path or f"{cfg.id}_{suffix}.svg")
        for name, text in zip(names, writer(cfg, args.full_precision)):
            path = os.path.join(args.out, name)
            atomic_write_text(path, text)
            print(path)
        return 0
    except OSError as e:
        if e.filename is None:  # no path, such as a closed stdout
            raise
        print(f"path error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericError, OverflowError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


def run(argv=None):
    """``main`` and the fast exit of the module docstring."""
    code = main(argv)
    # a tracer or profiler (coverage, cProfile) writes its results at exit;
    # from Python 3.12 it may hook in through sys.monitoring instead
    mon = getattr(sys, "monitoring", None)
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or (mon is not None and any(mon.get_tool(i) for i in range(6)))):
        return code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the fd was closed at start-up
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
