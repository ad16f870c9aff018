"""Pinned sha256 digests of CLI output that reads the Ext basis.

`build homog:<k>` reads it through the homogeneous family, whose members
are extensions of the regular pair along combinations of its Ext basis;
`gr-check` through that family, the GR inclusions and the hom/ext
pattern of the submodule and quotient.  The digests were recorded from
the dense Hom system that the sparse one replaced.  `python
tests/test_golden_ext.py` prints them afresh.
"""

import contextlib
import hashlib
import io

import pytest

from tamehall import gf
from tamehall.cli import main
from tamehall.homreg import build_homogeneous_simples
from tamehall.quiver import preset_quiver

HOMOG_CASES = [(name, q) for name in ("kronecker", "dtilde:4", "e6tilde") for q in (3, 4, 5)]
GR_CHECK_CASES = [(name, q) for name in ("dtilde:4", "dtilde:5", "dtilde:6", "e6tilde")
                  for q in (3, 4, 5)]

HOMOG_DIGESTS = {
    ("kronecker", 3): "5f53c290650517abbf7bde990614f2fef113e0ec95219ebb780fa9c2b3d012d4",
    ("kronecker", 4): "6ef07fe11e25f0eda1b3a7dff1ec265888244d3609f77b83097c539e5ee131fa",
    ("kronecker", 5): "fe5ef12a71bd43859ef10d01d5da51eddd58202897539379211a9002fe7e7e42",
    ("dtilde:4", 3): "ef4116cfa5cf32b04c3b3888dcd344071c033a4f4d57d5bb7f9b106624faf9b3",
    ("dtilde:4", 4): "069fa401f64d3edbb60bf24d412bad72d3c7eb918026c310aea85709a1de9d0d",
    ("dtilde:4", 5): "dac3f3360c629831a21f9a9cdfbcc3996a3cb7cb8118685f0031aeea35233873",
    ("e6tilde", 3): "0904296ae6cf20248ffe76d469504ad6958a33759c0e75331fef62bb53448f85",
    ("e6tilde", 4): "6cd641f8518cb812ae82b7e09fe5732186b13b437ddf97eff372b8aa8676d217",
    ("e6tilde", 5): "abed4e94db5e483bcb1132ffe2edc168d8ddcfb69bcc68f61529823f152bd663",
}
GR_CHECK_DIGESTS = {
    ("dtilde:4", 3): "0af6c2cba78edaf87e8e24242e5a5012b4a718c8dca4f742b2e4feabc8394d18",
    ("dtilde:4", 4): "34921093dab639d04d4fb886e483fb12440b22a4fa31cc9175c802a1048cda2a",
    ("dtilde:4", 5): "8dfc1bac7eb09be6dae6eb347499ab2ec39a4c1260859a9f4aeb2f7b825081a6",
    ("dtilde:5", 3): "251c6712fe743c8de9723087fdc9131ea70cc383f9be9b34a59bb8cef19d027a",
    ("dtilde:5", 4): "7c43eb61be5ed4ef7a45e7baa19975e78113fff65a5d90d41b2589d13b0d54f1",
    ("dtilde:5", 5): "0702423ee49e29f6279119dff5c3ec04ed84e942eb089c93cdf9f07cd9448f1f",
    ("dtilde:6", 3): "e503c68f89d62d7cfc9e3c7b8ed5a93a515756e698f97d1911ca73c5959ac571",
    ("dtilde:6", 4): "755a471631e0d3fa2f4c466bbb1ce268fca61ee42e92d297dae599629a17fc42",
    ("dtilde:6", 5): "c2bd62788c4a13e7756ab8c73a636989f195da9718c363a905587e60d18a1437",
    ("e6tilde", 3): "382a44573ce96c7fa8e8005387db12819d8fafca8ac8bf97bcb7c467fd79f569",
    ("e6tilde", 4): "63b634d5f6fc07978e64b2f4891bce30b9b3013d5e2ee10e7b7274aad2d92914",
    ("e6tilde", 5): "f84e08a7905b932900d37014a10bbcdec2fc2921f55821153f3cb7c1f14d07bf",
}


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue().encode()


def homog_digest(name: str, q: int) -> str:
    """One digest over `build --format json homog:<k>` for every k, in order."""
    size = len(build_homogeneous_simples(preset_quiver(name), gf.field(q)))
    h = hashlib.sha256()
    for k in range(1, size + 1):
        h.update(_stdout(["build", "--preset", name, "--field", str(q), "--format", "json",
                          f"homog:{k}"]))
    return h.hexdigest()


def gr_check_digest(name: str, q: int) -> str:
    return hashlib.sha256(_stdout(["gr-check", "--preset", name, "--field", str(q),
                                   "--format", "json"])).hexdigest()


@pytest.mark.parametrize("name,q", HOMOG_CASES)
def test_build_homog_matches_pinned_digest(name, q):
    assert homog_digest(name, q) == HOMOG_DIGESTS[name, q]


@pytest.mark.parametrize("name,q", GR_CHECK_CASES)
def test_gr_check_matches_pinned_digest(name, q):
    assert gr_check_digest(name, q) == GR_CHECK_DIGESTS[name, q]


if __name__ == "__main__":
    for table, digest in ((HOMOG_CASES, homog_digest), (GR_CHECK_CASES, gr_check_digest)):
        for name, q in table:
            print(f'    ("{name}", {q}): "{digest(name, q)}",')
