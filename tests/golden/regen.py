"""Record the golden outputs that ``tests/test_golden.py`` compares against.

Each case runs ``hestonstab.cli.main`` in process and writes, into a
directory named after the case, its standard output (``stdout.txt``), its
standard error (``stderr.txt``), its exit code (``exit_code.txt``) and every
file it was told to write.  In both streams the case's directory reads as
``<case>``, and argparse formats usage for an 80-column terminal, so the
text does not depend on where or in which terminal the case runs.

Usage, from the root of a checkout:

    python3 tests/golden/regen.py            # rewrite tests/golden/<case>/
    python3 tests/golden/regen.py OUTDIR     # write the cases under OUTDIR instead

Regenerate only when a change is meant to move outputs, and say by how much
in the change's notes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

GOLDEN_DIR = Path(__file__).resolve().parent

# Grids of the single-grid commands: the defaults, m1 != 2 m2, and rho = -1 with a barrier.
_GRIDS = {
    "m2_4": ["--m2", "4"],
    "m2_4_m1_6": ["--m2", "4", "--m1", "6"],
    "m2_5_rho-1_L10_sigma0.1": ["--m2", "5", "--rho", "-1", "--L", "10", "--sigma", "0.1"],
}
_OPERATORS = ("full", "diffusion", "adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv")

#: Case name -> argv.  The values of ``--out`` and ``--plot-dir`` are names
#: inside the case's directory.
CASES = {
    **{f"check-{g}": ["check", *argv, "--out", "check.csv"] for g, argv in _GRIDS.items()},
    **{f"certificate-{g}": ["certificate", *argv, "--out", "certificate.txt"]
       for g, argv in _GRIDS.items()},
    **{f"operators-{w}": ["operators", "--which", w, "--rho", "0.7", "--L", "10", "--m2", "4"]
       for w in _OPERATORS},
    "sweep": ["sweep", "--m2-values", "5,7", "--sigma-values", "0.2", "--rho-values=-1,1",
              "--L-values", "0,10", "--out", "sweep.csv", "--plot-dir", "series"],
    # t_argmax = 2.625: the first refinement level starts from a coarse sample, not from I
    "sweep-m2_9_sigma0.1_rho1_V1": ["sweep", "--m2-values", "9", "--sigma-values", "0.1",
                                    "--rho-values", "1", "--L-values", "0", "--V", "1",
                                    "--out", "sweep.csv"],
    # n = 338: the scan's Lanczos path, above the order where it leaves dense norms
    "sweep-m2_13_sigma0.1_rho1_L0": ["sweep", "--m2-values", "13", "--sigma-values", "0.1",
                                     "--rho-values", "1", "--L-values", "0", "--out", "sweep.csv"],
    "operators-diffusion-out": ["operators", "--which", "diffusion", "--m2", "4",
                                "--out", "diffusion.txt"],
    # error paths: a validation error (2), an I/O failure (3)
    "check-m2_4_rho1.5": ["check", "--m2", "4", "--rho", "1.5"],
    "check-m2_4_out-missing": ["check", "--m2", "4", "--out", "missing/check.csv"],
    # an overflowing assembly is a numerical failure (3), and in a sweep a failed case
    "check-m2_3_sigma1e154": ["check", "--m2", "3", "--sigma", "1e154"],
    "sweep-m2_3_sigma0.1_1e154": ["sweep", "--m2-values", "3", "--sigma-values", "0.1,1e154",
                                  "--rho-values", "0", "--L-values", "0", "--out", "sweep.csv"],
    # so is a finite operator whose D-similarity or block-Toeplitz reduction overflows
    "check-m2_3_sigma3e153": ["check", "--m2", "3", "--sigma", "3e153"],
    "certificate-m2_3_sigma3e153": ["certificate", "--m2", "3", "--sigma", "3e153"],
    "sweep-m2_3_sigma0.1_3e153": ["sweep", "--m2-values", "3", "--sigma-values", "0.1,3e153",
                                  "--rho-values", "0", "--L-values", "0", "--out", "sweep.csv"],
}

PLACEHOLDER = "<case>"


def run_case(name: str, workdir: Path) -> None:
    """Run case ``name`` with its outputs, stdout, stderr and exit code in ``workdir``."""
    # imported here so that running this file as a script can put src/ on the path first
    from hestonstab.cli import main

    workdir.mkdir(parents=True)
    argv = list(CASES[name])
    for i, flag in enumerate(argv[:-1]):
        if flag in ("--out", "--plot-dir"):
            argv[i + 1] = str(workdir / argv[i + 1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    (workdir / "stdout.txt").write_text(out.getvalue().replace(str(workdir), PLACEHOLDER))
    (workdir / "stderr.txt").write_text(err.getvalue().replace(str(workdir), PLACEHOLDER))
    (workdir / "exit_code.txt").write_text(f"{code}\n")


def main(out_dir: Path) -> None:
    for name in CASES:
        shutil.rmtree(out_dir / name, ignore_errors=True)
        run_case(name, out_dir / name)
        print(f"wrote {out_dir / name}")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_DIR.parent.parent / "src"))
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
