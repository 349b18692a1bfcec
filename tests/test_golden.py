"""Golden digests of the full-size analytic outputs.

Every analytic command runs in process with the default configuration, and
the sha256 of each CSV (and of ``selfcheck``'s standard output) must equal
the one recorded in ``tests/golden/analytic.sha256``.  The bytes depend on
numpy's floating-point kernels, so on a numpy version other than the
recorded one the test is skipped, never compared loosely.

To record the digests again after a deliberate change of an output::

    PYTHONPATH=src python tests/test_golden.py --overwrite

Without ``--overwrite`` the script prints the digests and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from steerdist.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "analytic.sha256"

# output name -> (CLI argv, file the command writes, extra INI text)
COMMANDS = {
    "fig3a_table.csv": (["fig3a"], "fig3a.csv", ""),
    "fig3a_search.csv": (["fig3a"], "fig3a.csv", "[filter]\ncutoff_source = search\n"),
    "fig3b.csv": (["fig3b"], "fig3b.csv", ""),
    "regions_c.csv": (["regions-c"], "regions_c.csv", ""),
    "regions_d.csv": (["regions-d"], "regions_d.csv", ""),
    "fig4.csv": (["fig4"], "fig4.csv", ""),
    "fig_s1.csv": (["fig-s1"], "fig_s1.csv", ""),
    "fig_s2.csv": (["fig-s2"], "fig_s2.csv", ""),
    "fig_s4.csv": (["fig-s4"], "fig_s4.csv", ""),
    "table_s1.csv": (["table-s1"], "table_s1.csv", ""),
}


def compute_digests(work: Path) -> dict[str, str]:
    """Run every analytic command under ``work``; name -> sha256 of its output."""
    digests = {}
    for name, (argv, written, ini) in COMMANDS.items():
        out = work / name
        config = work / f"{name}.ini"
        config.write_text("[run]\nmode = analytic\n" + ini)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")
        digests[name] = hashlib.sha256((out / written).read_bytes()).hexdigest()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["selfcheck", "--out", str(work / "selfcheck")])
    if code != 0:
        raise RuntimeError(f"selfcheck exited with {code}")
    digests["selfcheck.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def read_golden() -> tuple[str, dict[str, str]]:
    """(numpy version, name -> digest) from the golden file."""
    version, digests = None, {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# numpy "):
            version = line.split()[2]
        elif line and not line.startswith("#"):
            digest, name = line.split()
            digests[name] = digest
    return version, digests


def test_analytic_outputs_match_golden_digests(tmp_path, monkeypatch):
    version, want = read_golden()
    if np.__version__ != version:
        pytest.skip(f"golden digests were recorded with numpy {version}; "
                    f"this is numpy {np.__version__}")
    for var in [v for v in os.environ if v.startswith("STEERDIST_")]:
        monkeypatch.delenv(var)
    got = compute_digests(tmp_path)
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"outputs differ from the golden digests: {moved}"


if __name__ == "__main__":
    import tempfile

    if any(v.startswith("STEERDIST_") for v in os.environ):
        sys.exit("unset the STEERDIST_* environment variables first")
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    text = f"# numpy {np.__version__}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in digests.items())
    if "--overwrite" in sys.argv[1:]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        print(text, end="")
