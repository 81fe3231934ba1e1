"""Regenerate ``output_digests.txt``, the SHA-256 of every output file of the
preset jobs and of ``verify``:

    PYTHONPATH=src python tests/make_digests.py

The jobs are ``tables``, ``zeros`` and ``limits`` on table1-table8 and
``mh-curve`` (CSV and SVG) on the four figures, each at default precision
(``default/``) and with ``--full-precision`` (``full/``), plus the report of
a fast ``verify`` (``verify/``).  They run in process through ``cli.main``.

Full-precision digits and the verify report's error magnitudes carry
rounding noise, which moves with the numpy build and the SIMD extensions it
dispatches to, so the header records that stamp; ``test_output_digests``
compares ``default/`` everywhere and the other two only on the same stamp.
A change that moves an output regenerates this file and names the changed
files, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import platform
import tempfile
from pathlib import Path

import numpy as np

from sobolev_mh import cli, golden
from sobolev_mh.presets import preset_names

DIGESTS = Path(__file__).with_name("output_digests.txt")
FIGURES = [p for p in preset_names() if p.startswith("figure-")]


def stamp():
    """numpy version, machine and the SIMD extensions numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return " ".join([f"numpy-{np.__version__}", platform.machine(), *simd])


def write_outputs(root):
    """Run every job into ``root`` (a ``Path``), one directory per group."""
    jobs = [(job, name) for name in sorted(golden.TABLES)
            for job in ("tables", "zeros", "limits")]
    jobs += [("mh-curve", name) for name in FIGURES]
    with contextlib.redirect_stdout(io.StringIO()):
        for group, flags in (("default", []), ("full", ["--full-precision"])):
            for job, name in jobs:
                argv = [job, "--preset", name, "--out", str(root / group), *flags]
                if cli.main(argv) != 0:
                    raise RuntimeError(f"sobolev-mh {' '.join(argv)} failed")
        if cli.main(["verify", "--out", str(root / "verify")]) != 0:
            raise RuntimeError("sobolev-mh verify failed")


def digests(root):
    """{relative path: SHA-256} of every file under ``root``."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_digests(path=DIGESTS):
    """(stamp, {relative path: SHA-256}) of a digest file."""
    lines = path.read_text().splitlines()
    head = lines[0].removeprefix("# stamp: ")
    return head, {name: sha for sha, name in (line.split("  ", 1) for line in lines[1:])}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        found = digests(Path(tmp))
    text = "".join(f"{sha}  {name}\n" for name, sha in found.items())
    DIGESTS.write_text(f"# stamp: {stamp()}\n" + text)
    print(f"{DIGESTS}: {len(found)} files")


if __name__ == "__main__":
    main()
