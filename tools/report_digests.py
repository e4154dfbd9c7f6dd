"""Print one digest line per command of a fixed statwintgen CLI battery.

Run from the repository root as

    PYTHONPATH=src python tools/report_digests.py

Every command runs in-process through ``statwintgen.cli.main`` inside a
temporary directory and writes its report to a relative path there.  Each
output line is ``sha256  exit  argv``, where the digest covers the report
bytes followed by the command's stdout and then its stderr, so error
messages are pinned too.  Instance files are written by ``random_instance``
(plus the RP^2 counterexample, an exact-equality instance whose rhs rounds
a few ulps below 0, an asymmetric instance that every command must
reject, and one whose finite f and f' make xi = -f'/f overflow), plus two
files written by hand, with a JSON ``true`` and the integer 10^20 in ``h``,
and passed as relative paths, so reports that echo the path
compare equal between checkouts; so are the ``--config`` files, a valid one
and one whose ``null`` value every checkout must reject.  Two
checkouts produce the same behaviour on the battery exactly when their
outputs are equal line for line, e.g.

    diff <(cd old && PYTHONPATH=src python ../new/tools/report_digests.py) \\
         <(cd new && PYTHONPATH=src python tools/report_digests.py)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from statwintgen import cli, legendrian, wintgen

OUT = "report.out"
SEED = ["--seed", "11"]
INSTANCES = {f"n{n}.json": wintgen.random_instance(n, seed=11, index=n) for n in (2, 3, 5, 8)}
INSTANCES["rp2.json"] = legendrian.LegendrianPointInstance(
    n=2, c=4.0, f_val=1.0, f_prime=0.0, h=np.zeros((3, 2, 2)), h_star=np.zeros((3, 2, 2))
)
# Exact equality (c = f' = 0, h = h* umbilic in every phi-slice) at |h| ~ 10^3, where
# rounding puts the rhs a few ulps below 0: verify and chain must give one verdict.
_EQ = np.zeros((4, 3, 3))
_EQ[:3] = np.multiply.outer([886.1122111447353, 22.65510562872319, 952.4874114154082], np.eye(3))
INSTANCES["eq.json"] = legendrian.LegendrianPointInstance(
    n=3, c=0.0, f_val=1.0, f_prime=0.0, h=_EQ, h_star=_EQ.copy()
)
_BAD = legendrian.umbilic_instance(n=2).to_dict()
_BAD["h"][2][0][1] = 0.5  # not mirrored: asymmetric, and off-diagonal in the xi-slice
INSTANCES["bad.json"] = legendrian.LegendrianPointInstance.from_dict(_BAD)
# every value finite, but xi = -f'/f overflows: verify and chain must name the overflow
INSTANCES["xi-overflow.json"] = legendrian.LegendrianPointInstance.from_dict(
    {**legendrian.umbilic_instance(n=2).to_dict(), "f": 1e-320, "f_prime": 1.0}
)
# The instance files' text; two more are written by hand: every number of a file follows one rule, a leaf of
# h included, so a JSON true in h is refused as it is for c, and 10^20 in h is read as 1e+20.
FILES = {name: inst.to_json() for name, inst in INSTANCES.items()}
_ZERO = [[0, 0], [0, 0]]
for _name, _leaf in (("h-true.json", True), ("h-1e20.json", 10**20)):
    FILES[_name] = json.dumps({"n": 2, "c": 0, "f": 1, "f_prime": 0, "h": [[[_leaf, 0], [0, 0]], _ZERO, _ZERO],
                               "h_star": [_ZERO] * 3})
CONFIGS = {"axioms-h3.json": {"chart": "h3", "samples": 3}, "out-null.json": {"out": None}}


def battery() -> list[list[str]]:
    geometry = [
        ["reproduce", "example-r2"],
        ["reproduce", "example-h3"],
        *(["axioms", "--chart", chart, *perturb] for chart in ("r2", "h3")
          for perturb in ([], ["--perturb-gamma", "0.01"])),
        ["curvature", "--chart", "r2"],
        ["curvature", "--chart", "h3"],
        # more samples than one stacked chunk holds (173 at dimension 3, 819 at dimension 2)
        ["axioms", "--chart", "h3", "--samples", "300"],
        ["curvature", "--chart", "h3", "--samples", "300"],
        ["curvature", "--chart", "r2", "--samples", "1500"],
        # three chunks with a breach at nearly every sample, and two non-finite residual tables
        ["axioms", "--chart", "r2", "--perturb-gamma", "0.01", "--samples", "2000"],
        ["axioms", "--chart", "r2", "--perturb-gamma", "1e200"],
        ["classify", "--warp", "const", "--const-value", "1e200"],
        *(["classify", "--warp", warp, "--fiber", fiber] for warp in ("exp", "const", "cosh")
          for fiber in ("flat", "r2", "twisted")),
        ["classify", "--warp", "exp", "--fiber", "flat", "--residual-tol", "1e-12"],
        ["classify", "--warp", "cosh", "--fiber", "twisted", "--samples", "7", "--residual-tol", "1"],
    ]
    wintgen_cmds = [
        *(["wintgen", sub, name] for name in FILES for sub in ("verify", "chain")),
        ["wintgen", "sweep", "--n", "3", "--count", "300"],
        ["wintgen", "sweep", "--n", "2", "--count", "50", "--format", "json"],
        ["wintgen", "sweep", "--n", "5", "--count", "100"],
        ["wintgen", "sweep", "--n", "8", "--count", "40", "--format", "json"],
        ["wintgen", "sweep", "--n", "2", "--count", "3900"],  # 2.5 stacked chunks of 1560
        ["wintgen", "sweep", "--n", "3", "--count", "500", "--magnitude", "1000"],
    ]
    sharpness = [
        ["wintgen", "sharpness", "--n", "2", "--iterations", "3000", "--seed", "5"],
        ["wintgen", "sharpness", "--n", "2", "--iterations", "3000", "--seed", "5", "--c", "4", "--f", "1"],
        ["wintgen", "sharpness", "--n", "3", "--iterations", "1500", "--seed", "2"],
        # tree passes one level deep (n = 5), one-trial passes with no tree (n = 8), and a mixed family
        ["wintgen", "sharpness", "--n", "5", "--iterations", "400", "--seed", "3"],
        ["wintgen", "sharpness", "--n", "8", "--iterations", "120", "--seed", "3"],
        ["wintgen", "sharpness", "--n", "3", "--iterations", "700", "--seed", "4", "--c", "-3", "--f", "0.7",
         "--fprime", "0.4"],
    ]
    configs = [
        ["--config", "axioms-h3.json", "axioms", *SEED],
        ["--config", "out-null.json", "reproduce", "example-r2", *SEED],
    ]
    return [argv + SEED for argv in geometry + wintgen_cmds] + sharpness + configs


def digest(argv: list[str]) -> tuple[str, int]:
    out = Path(OUT)
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", OUT])
    report = out.read_bytes() if out.exists() else b""
    return hashlib.sha256(report + (stdout.getvalue() + stderr.getvalue()).encode()).hexdigest(), code


def main() -> int:
    os.environ.pop("STATWINTGEN_OUTDIR", None)
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
            for name, config in CONFIGS.items():
                Path(name).write_text(json.dumps(config))
            for argv in battery():
                sha, code = digest(argv)
                print(f"{sha}  {code}  {' '.join(argv)}", flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
