"""The preset-job and verify outputs against ``output_digests.txt``.

Default-precision files are compared on every platform; full-precision
files and the verify report only where the stamp of the digest file
matches this platform's (see ``make_digests``).  A change that moves an
output on purpose regenerates the file with ``tests/make_digests.py``.
"""

import pytest

import make_digests


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    make_digests.write_outputs(root)
    return make_digests.digests(root)


def _differing(regenerated, committed, groups):
    names = sorted(set(regenerated) | set(committed))
    return [name for name in names if name.split("/")[0] in groups
            and regenerated.get(name) != committed.get(name)]


def test_default_precision_outputs_match_the_digests(regenerated):
    _, committed = make_digests.read_digests()
    differ = _differing(regenerated, committed, {"default"})
    assert not differ, f"outputs differ from output_digests.txt: {', '.join(differ)}"


def test_full_precision_outputs_match_the_digests(regenerated):
    stamp, committed = make_digests.read_digests()
    if stamp != make_digests.stamp():
        pytest.skip(f"full-precision digests are for {stamp!r}, "
                    f"this platform is {make_digests.stamp()!r}")
    differ = _differing(regenerated, committed, {"full", "verify"})
    assert not differ, f"outputs differ from output_digests.txt: {', '.join(differ)}"
