"""In-process traced run of one CLI job, and the per-layer summary.

Run as a child process, one per job so that every job starts with cold
caches, exactly like the CLI subprocess it mirrors:

    python3 perfbench/tracer.py {plain|trace} RESULT_JSON JOB_ID -- ARGV...

``plain`` times ``sobolev_mh.cli.main(ARGV)``.  ``trace`` first wraps the
public functions in ``TARGETS`` in every ``sobolev_mh.*`` namespace that
holds them (``from .x import f`` binds f into each importing module),
records one span per call (name, start, end, parent, job id) in memory,
and writes the spans out next to RESULT_JSON when the job ends.
Targets that no longer exist are reported as absent.
"""

import hashlib
import importlib
import json
import sys
import time
import warnings
from array import array

import numpy as np

TARGETS = {
    "special_functions": ("bessel_j", "bessel_j_zero", "log_gamma"),
    "asymptotics": ("limit_eval", "limit_coeffs"),
    "zeros": ("limit_zeros", "sobolev_zeros"),
    "kernels": ("clenshaw_batch", "refine_brackets", "jacobi_recurrence"),
    "jacobi": ("clenshaw_eval", "jacobi_eval"),
    "sobolev": ("sobolev_polynomial", "connection_reconstruct"),
    "verify": ("run_golden", "run_properties"),
    "cli": ("main",),
    "svg": ("line_chart",),
}

# (metric, unit, better): every per-layer metric the traced run reports.
# "calls" counts spans, "self_s" is span time minus child-span time, "s" is
# inclusive span time; the rest are counters defined in summarize().
METRICS = [
    ("special_functions.bessel_j.calls", "count", "lower"),
    ("special_functions.bessel_j.self_s", "s", "lower"),
    ("special_functions.bessel_j_zero.calls", "count", "lower"),
    ("special_functions.bessel_j_zero.self_s", "s", "lower"),
    ("special_functions.log_gamma.calls", "count", "lower"),
    ("special_functions.log_gamma.self_s", "s", "lower"),
    ("asymptotics.limit_eval.calls", "count", "lower"),
    ("asymptotics.limit_eval.points", "count", "lower"),
    ("asymptotics.limit_eval.self_s", "s", "lower"),
    ("asymptotics.limit_coeffs.self_s", "s", "lower"),
    ("zeros.limit_zeros.calls", "count", "lower"),
    ("zeros.limit_zeros.self_s", "s", "lower"),
    ("kernels.clenshaw_batch.calls", "count", "lower"),
    ("kernels.clenshaw_batch.self_s", "s", "lower"),
    ("kernels.clenshaw_batch.point_terms", "count", "lower"),
    ("kernels.refine_brackets.calls", "count", "lower"),
    ("kernels.refine_brackets.self_s", "s", "lower"),
    ("kernels.refine_brackets.roots", "count", "lower"),
    ("kernels.jacobi_recurrence.self_s", "s", "lower"),
    ("jacobi.clenshaw_eval.calls", "count", "lower"),
    ("jacobi.clenshaw_eval.self_s", "s", "lower"),
    ("jacobi.jacobi_eval.calls", "count", "lower"),
    ("jacobi.jacobi_eval.self_s", "s", "lower"),
    ("sobolev.sobolev_polynomial.calls", "count", "lower"),
    ("sobolev.sobolev_polynomial.distinct", "count", "lower"),
    ("sobolev.sobolev_polynomial.self_s", "s", "lower"),
    ("sobolev.connection_reconstruct.self_s", "s", "lower"),
    ("zeros.sobolev_zeros.calls", "count", "lower"),
    ("zeros.sobolev_zeros.distinct", "count", "lower"),
    ("zeros.sobolev_zeros.self_s", "s", "lower"),
    ("zeros.sobolev_zeros.first_pass_ratio", "ratio", "higher"),
    ("zeros.sobolev_zeros.overflow_warnings", "count", "lower"),
    ("verify.run_golden.s", "s", "lower"),
    ("verify.run_properties.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("svg.line_chart.self_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _key(args, kwargs):
    text = repr(args) + repr(sorted(kwargs.items()))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Tracer:
    """Wraps the target functions; restores them on ``restore()``."""

    def __init__(self, job_id=0):
        self.job_id = job_id
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}
        self.keys = {}
        self.absent = []
        self._patched = []

    def _count(self, metric, k):
        self.counters[metric] = self.counters.get(metric, 0) + k

    def _extra(self, name):
        """Counter hook run after each call of ``name``, or None."""
        if name == "asymptotics.limit_eval":
            return lambda a, kw, r: self._count(
                name + ".points", int(np.size(_arg(a, kw, 1, "x"))))
        if name == "kernels.clenshaw_batch":
            return lambda a, kw, r: self._count(
                name + ".point_terms",
                len(_arg(a, kw, 0, "c")) * int(np.size(_arg(a, kw, 4, "x"))))
        if name == "kernels.refine_brackets":
            return lambda a, kw, r: self._count(name + ".roots", len(r))
        if name in ("sobolev.sobolev_polynomial", "zeros.sobolev_zeros"):
            keys = self.keys.setdefault(name, set())
            return lambda a, kw, r: keys.add(_key(a, kw))
        return None

    def _counting_warnings(self, name, fn):
        metric = name + ".overflow_warnings"

        def call(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._count(metric, sum(issubclass(w.category, RuntimeWarning)
                                            for w in caught))
        return call

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        extra = self._extra(name)
        inner = self._counting_warnings(name, fn) if name == "zeros.sobolev_zeros" else fn
        span_name, parent, job = self.span_name, self.parent, self.job
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every ``sobolev_mh`` namespace holding it."""
        importlib.import_module("sobolev_mh.cli")
        for modname, funcs in TARGETS.items():
            try:
                mod = importlib.import_module(f"sobolev_mh.{modname}")
            except ImportError:
                self.absent += [f"{modname}.{f}" for f in funcs]
                continue
            for fname in funcs:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    self.absent.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for mname, m in list(sys.modules.items()):
                    if mname != "sobolev_mh" and not mname.startswith("sobolev_mh."):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        return self

    def restore(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def save(self, path):
        """Write the spans and counters out (one ``.npz`` file)."""
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps({
                     "names": self.names, "counters": self.counters,
                     "keys": {k: sorted(v) for k, v in self.keys.items()},
                     "absent": self.absent})))


def summarize(span_files, traced_wall, untraced_wall):
    """Per-layer metrics from the span files of one traced pass.

    Returns (metrics, absent): ``metrics`` maps each name of ``METRICS`` to
    its value; metrics of absent targets are left out and listed.
    """
    calls, self_s, incl = {}, {}, {}
    counters, keys, absent = {}, {}, set()
    zero_sets = first_pass = 0
    for path in span_files:
        with np.load(path) as f:
            meta = json.loads(str(f["meta"]))
            names = meta["names"]
            name, parent = f["name"], f["parent"]
            dur = f["end"] - f["start"]
        absent.update(meta["absent"])
        for k, v in meta["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in meta["keys"].items():
            keys.setdefault(k, set()).update(v)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        m = len(names)
        for total, weights in ((calls, None), (self_s, own), (incl, dur)):
            for target, v in zip(names, np.bincount(name, weights, minlength=m).tolist()):
                total[target] = total.get(target, 0) + v
        # a zero set is found on the first pass when its sobolev_zeros span
        # holds exactly one refine_brackets span
        if "zeros.sobolev_zeros" in names and "kernels.refine_brackets" in names:
            zid = names.index("zeros.sobolev_zeros")
            rid = names.index("kernels.refine_brackets")
            refines = {}
            for idx in np.flatnonzero(name == rid):
                p = int(parent[idx])
                while p >= 0 and name[p] != zid:
                    p = int(parent[p])
                refines[p] = refines.get(p, 0) + 1
            sets = np.flatnonzero(name == zid).tolist()
            zero_sets += len(sets)
            first_pass += sum(refines.get(s, 0) == 1 for s in sets)

    metrics = {}
    for metric, _unit, _better in METRICS:
        target, _, kind = metric.rpartition(".")
        if target == "trace":
            continue
        if target in absent:
            continue
        if kind == "calls":
            v = calls.get(target, 0)
        elif kind == "self_s":
            v = self_s.get(target, 0.0)
        elif kind == "s":
            v = incl.get(target, 0.0)
        elif kind == "distinct":
            v = len(keys.get(target, ()))
        elif kind == "first_pass_ratio":
            # vacuously 1 when the workload extracts no zero sets
            v = first_pass / zero_sets if zero_sets else 1.0
        else:
            v = counters.get(metric, 0)
        metrics[metric] = v
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics, sorted(absent)


def _child(argv):
    mode, result_path, job_id = argv[0], argv[1], int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: tracer.py {plain|trace} RESULT_JSON JOB_ID -- ARGV...")
    cli_argv = argv[4:]
    import sobolev_mh.cli as cli

    tracer = Tracer(job_id).install() if mode == "trace" else None
    t0 = time.perf_counter()
    try:
        return cli.main(cli_argv)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
            tracer.save(result_path + ".spans.npz")
        with open(result_path, "w") as f:
            json.dump({"wall_s": wall}, f)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
