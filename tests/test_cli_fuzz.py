"""In-process fuzz of ``cli.main`` over the declared input box: alpha, beta in
(-1, 30], j <= 10, every mass family, M in [0, 1e6] and degrees <= 300, in
all three regimes.  Every accepted config either gives its result (for
``zeros``, n zeros per degree, at most one above 1) or exits 2 or 3 with one
stderr line; none warns."""

import contextlib
import io
import tempfile
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sobolev_mh.cli import main
from sobolev_mh.sobolev import MassKind


@st.composite
def configs(draw):
    job = draw(st.sampled_from(("zeros", "tables", "limits", "mh-curve")))
    alpha, beta = (Fraction(draw(st.integers(-9, 300)), 10) for _ in range(2))
    j = draw(st.integers(0, 10))
    # gamma below, at or above the critical 2 (alpha + 2j + 1)
    sign = draw(st.sampled_from((-1, 0, 1)))
    gamma = 2 * (alpha + 2 * j + 1) + sign * Fraction(draw(st.integers(1, 40)), 4)
    kind = draw(st.sampled_from([k.value for k in MassKind]))
    M = draw(st.floats(0.0, 1e6))
    degrees = sorted(draw(st.lists(st.integers(1, 300), min_size=1, max_size=2,
                                   unique=True)))
    lines = ["[experiment]", "id = fuzz", f"job = {job}", f"alpha = {alpha}",
             f"beta = {beta}", f"j = {j}", f"gamma = {gamma}", f"mass = {kind}",
             f"M = {M!r}", f"degrees = {' '.join(map(str, degrees))}",
             f"zero_count = {draw(st.integers(1, min(degrees[0], 6)))}",
             f"x_max = {min(18, 2 * degrees[0])}", "points = 21"]
    if kind == "custom":
        values = [draw(st.floats(0.0, 1e6)) for _ in degrees]
        lines.append("custom_values = "
                     + " ".join(f"{n}:{v!r}" for n, v in zip(degrees, values)))
    return job, degrees, "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(configs())
def test_every_accepted_config_gives_a_result_or_one_line(case):
    job, degrees, text = case
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "fuzz.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main([job, "--config", str(cfg), "--out", d])
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
        if job == "zeros" and rc == 0:
            rows = [r.split(",") for r in (Path(d) / "fuzz_zeros.csv")
                    .read_text().splitlines()[1:]]
            assert Counter(int(r[1]) for r in rows) == {n: n for n in degrees}
            above = Counter(int(r[1]) for r in rows if float(r[3]) > 1.0)
            assert max(above.values(), default=0) <= 1
