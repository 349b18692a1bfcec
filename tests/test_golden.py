"""Golden outputs of the commands.

Every analytic command runs in process with the default configuration
(the plotting ones once more with ``--svg``), and so do ``selfcheck``,
pinned small Monte Carlo runs and an ``ingest`` of a seeded raw export.
The small outputs (the small analytic CSVs, ``selfcheck``'s standard output,
and every Monte Carlo output and standard error) must equal, byte for byte, the files of the
same name in ``tests/golden/``; the sha256 of every other file (the large
analytic CSVs and the SVGs) must equal the one recorded in
``tests/golden/outputs.sha256``.  A moved CSV is reported by the largest
relative move of each numeric column, a moved ``covmatrix v1`` file by its
largest relative entry move and that entry, any other moved file by a
unified diff.  The bytes depend on numpy's floating-point kernels and, for the
Monte Carlo runs, on its random streams, so on a numpy version other than
the recorded one the tests are skipped, never compared loosely.

To record the golden files and digests again after a deliberate change of
an output::

    PYTHONPATH=src python tests/test_golden.py --overwrite

Without ``--overwrite`` the script prints the digests, the report of every
moved golden file, then a comment line naming every output whose digest or
golden file differs from the recorded one, and writes nothing: check those
moves before overwriting.
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerdist.channels import ChannelSpec
from steerdist.cli import main
from steerdist.config import ExperimentConfig
from steerdist.experiments import model_state
from steerdist.measurement import sample_batch, write_batch_csv

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "outputs.sha256"

# Each run is (CLI argv, extra INI text, {golden name: file the command
# writes}); the INI always sets the analytic mode, which ``--mode`` overrides.
ANALYTIC = [
    (["fig3a"], "", {"fig3a_table.csv": "fig3a.csv"}),
    (["fig3a"], "[filter]\ncutoff_source = search\n", {"fig3a_search.csv": "fig3a.csv"}),
    (["fig3b"], "", {"fig3b.csv": "fig3b.csv"}),
    (["regions-c"], "", {"regions_c.csv": "regions_c.csv"}),
    (["regions-d"], "", {"regions_d.csv": "regions_d.csv"}),
    # the SVG each ``--svg`` command writes next to its CSV
    (["fig3a", "--svg"], "", {"fig3a.svg": "fig3a.svg"}),
    (["fig3b", "--svg"], "", {"fig3b.svg": "fig3b.svg"}),
    (["regions-c", "--svg"], "", {"regions_c.svg": "regions_c.svg"}),
    (["regions-d", "--svg"], "", {"regions_d.svg": "regions_d.svg"}),
    (["fig4", "--svg"], "", {"fig4.svg": "fig4.svg"}),
]

# The small analytic CSVs, kept as golden files like ``selfcheck``'s standard
# output and every Monte Carlo output.
PLAIN = [
    (["fig4"], "", {"fig4.csv": "fig4.csv"}),
    (["fig-s1"], "", {"fig_s1.csv": "fig_s1.csv"}),
    (["fig-s2"], "", {"fig_s2.csv": "fig_s2.csv"}),
    (["fig-s4"], "", {"fig_s4.csv": "fig_s4.csv"}),
    (["table-s1"], "", {"table_s1.csv": "table_s1.csv"}),
]

# ``{input}`` is the seeded raw export written by :func:`write_ingest_input`.
# A file of None is the command's standard error, which names every grid
# point left empty and why.
MONTE_CARLO = [
    (["fig3a", "--mode", "both", "--samples", "250000"],
     "[grids]\nloss_grid = 0.51:0.97:0.23\n",
     {"fig3a_both.csv": "fig3a.csv", "fig3a_both.stderr": None}),
    # the amplified ensembles of losses 0.2 and 0.4 are too small to reconstruct
    (["fig3a", "--mode", "both", "--samples", "20000"],
     "[grids]\nloss_grid = 0.97,0.2,0.74,0.4,0.9\n",
     {"fig3a_both_empty_cells.csv": "fig3a.csv", "fig3a_both_empty_cells.stderr": None}),
    (["fig3a", "--mode", "monte_carlo", "--samples", "20000"],
     "[grids]\nloss_grid = 0.97,0.2,0.74,0.4,0.9\n",
     {"fig3a_monte_carlo_empty_cells.csv": "fig3a.csv",
      "fig3a_monte_carlo_empty_cells.stderr": None}),
    (["fig4", "--mode", "both", "--samples", "400000"], "",
     {"fig4_both.csv": "fig4.csv", "fig4_both.stderr": None}),
    (["fig4", "--mode", "monte_carlo", "--samples", "400000"], "",
     {"fig4_monte_carlo.csv": "fig4.csv", "fig4_monte_carlo.stderr": None}),
    (["fig-s2", "--mode", "monte_carlo", "--samples", "400000"], "",
     {"fig_s2_monte_carlo.csv": "fig_s2.csv", "fig_s2_monte_carlo.stderr": None}),
    (["fig-s4", "--mode", "monte_carlo", "--samples", "400000"], "",
     {"fig_s4_monte_carlo.csv": "fig_s4.csv", "fig_s4_monte_carlo.stderr": None}),
    (["ingest", "{input}"], "[filter]\ngain = 1.2\ncutoff = 3.0\n",
     {"ingest_report.csv": "ingest_report.csv", "ingest_cov.txt": "ingest_cov.txt",
      "ingest.stderr": None}),
]

INGEST_LOSS = 0.3
INGEST_RECORDS = 100_000
INGEST_SEED = 20230817


def write_ingest_input(path: Path) -> Path:
    """Raw records of the model state after a pure loss of ``INGEST_LOSS``."""
    state = ChannelSpec(INGEST_LOSS).apply(model_state(ExperimentConfig()))
    write_batch_csv(sample_batch(state, INGEST_RECORDS, INGEST_SEED), path)
    return path


def run_commands(work: Path, runs, input_path: Path | None = None) -> dict[str, str]:
    """Run each command under ``work``; golden name -> sha256 of its output."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in run_outputs(work, runs, input_path).items()}


def run_outputs(work: Path, runs, input_path: Path | None = None) -> dict[str, bytes]:
    """Run each command under ``work``; golden name -> bytes of its output."""
    outputs_by_name = {}
    for argv, ini, outputs in runs:
        out = work / next(iter(outputs))
        config = work / f"{out.name}.ini"
        config.write_text("[run]\nmode = analytic\n" + ini)
        argv = [arg.format(input=input_path) for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}: {stderr.getvalue()}")
        for name, written in outputs.items():
            outputs_by_name[name] = (stderr.getvalue().encode() if written is None
                                     else (out / written).read_bytes())
    return outputs_by_name


def small_analytic_outputs(work: Path) -> dict[str, bytes]:
    """The ``PLAIN`` outputs and ``selfcheck``'s standard output."""
    outputs = run_outputs(work, PLAIN)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["selfcheck", "--out", str(work / "selfcheck")])
    if code != 0:
        raise RuntimeError(f"selfcheck exited with {code}")
    outputs["selfcheck.stdout"] = stdout.getvalue().encode()
    return outputs


def monte_carlo_outputs(work: Path) -> dict[str, bytes]:
    return run_outputs(work, MONTE_CARLO, write_ingest_input(work / "ingest_input.csv"))


def _relative_move(want: str, got: str) -> float:
    if want == got:
        return 0.0
    try:
        x, y = float(want), float(got)
    except ValueError:
        return np.inf
    return abs(y - x) / abs(x) if x else np.inf


def column_moves(want: bytes, got: bytes) -> str:
    """Largest relative move of each numeric column of a CSV that moved (inf
    where a cell was 0, empty or text and changed)."""
    old, new = (list(csv.reader(io.StringIO(data.decode()))) for data in (want, got))
    if old[0] != new[0] or len(old) != len(new):
        return "  the header or the number of rows differs"
    return "\n".join(
        f"  {column}: {max(_relative_move(a[j], b[j]) for a, b in zip(old, new)):.3g}"
        for j, column in enumerate(old[0]))


def covmatrix_move(want: bytes, got: bytes) -> str:
    """Largest relative move of an entry of a ``covmatrix v1`` file that
    moved, and which entry it is (inf where an entry was 0 or text and
    changed)."""
    old, new = ([line.split() for line in data.decode().splitlines()] for data in (want, got))
    if old[0] != new[0] or [len(row) for row in old] != [len(row) for row in new]:
        return "  the header or the matrix shape differs"
    move, i, j = max(((_relative_move(a, b), i, j)
                      for i, (row_a, row_b) in enumerate(zip(old[1:], new[1:]))
                      for j, (a, b) in enumerate(zip(row_a, row_b))), key=lambda m: m[0])
    return f"  entry [{i}, {j}]: {move:.3g}"


def golden_moves(outputs: dict[str, bytes]) -> dict[str, str]:
    """Name -> report of each output that differs from its file in ``tests/golden/``."""
    reports = {}
    for name, got in outputs.items():
        path = GOLDEN_DIR / name
        want = path.read_bytes() if path.is_file() else b""
        if got == want:
            continue
        if name.endswith(".csv") and want:
            reports[name] = f"{name}: largest relative move per column\n{column_moves(want, got)}"
        elif want.startswith(b"covmatrix v1 "):
            reports[name] = f"{name}: largest relative entry move\n{covmatrix_move(want, got)}"
        else:
            reports[name] = "".join(difflib.unified_diff(
                want.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
                f"tests/golden/{name}", f"{name} (this run)"))
    return reports


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


def _same_numpy_clean_env(monkeypatch) -> dict[str, str]:
    """Skip on a numpy version other than the recorded one and unset the
    ``STEERDIST_*`` variables; returns the recorded digests."""
    version, want = read_golden()
    if np.__version__ != version:
        pytest.skip(f"golden outputs were recorded with numpy {version}; "
                    f"this is numpy {np.__version__}")
    for var in [v for v in os.environ if v.startswith("STEERDIST_")]:
        monkeypatch.delenv(var)
    return want


def test_golden_file_lists_every_output():
    _, want = read_golden()
    assert sorted(want) == sorted(n for _, _, out in ANALYTIC for n in out)


def test_golden_directory_holds_every_plain_output():
    names = [n for runs in (PLAIN, MONTE_CARLO) for _, _, out in runs for n in out]
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(
        [*names, "selfcheck.stdout", GOLDEN.name])


def test_small_analytic_outputs_match_golden_files(tmp_path, monkeypatch):
    _same_numpy_clean_env(monkeypatch)
    moved = golden_moves(small_analytic_outputs(tmp_path))
    assert not moved, "outputs differ from the golden files:\n" + "\n".join(moved.values())


def test_analytic_outputs_match_golden_digests(tmp_path, monkeypatch):
    want = _same_numpy_clean_env(monkeypatch)
    got = run_commands(tmp_path, ANALYTIC)
    assert set(got) <= set(want), f"no golden digest for {sorted(set(got) - set(want))}"
    moved = [name for name in got if got[name] != want[name]]
    assert not moved, f"outputs differ from the golden digests: {moved}"


def test_monte_carlo_outputs_match_golden_files(tmp_path, monkeypatch):
    _same_numpy_clean_env(monkeypatch)
    moved = golden_moves(monte_carlo_outputs(tmp_path))
    assert not moved, "outputs differ from the golden files:\n" + "\n".join(moved.values())


def test_ingest_bytes_do_not_depend_on_blas_threads(tmp_path):
    # BLAS ddot's summation order changes with its thread count from about
    # 2e4 values up, so a reduction through it wrote other bytes with
    # OPENBLAS_NUM_THREADS=1 than with 2.
    code = """
import sys
from pathlib import Path
from test_golden import MONTE_CARLO, run_outputs
work, input_path = map(Path, sys.argv[1:])
out = run_outputs(work, [run for run in MONTE_CARLO if run[0][0] == "ingest"], input_path)
print(out["ingest_cov.txt"].hex(), out["ingest_report.csv"].hex())
"""
    input_path = write_ingest_input(tmp_path / "ingest_input.csv")
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / f"blas_{threads}"
        work.mkdir()
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("STEERDIST_")}
        env.update(OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(Path(__file__).parent), *sys.path]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", code, str(work), str(input_path)], capture_output=True,
            text=True, env=env, check=True, timeout=300).stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    import tempfile

    if any(v.startswith("STEERDIST_") for v in os.environ):
        sys.exit("unset the STEERDIST_* environment variables first")
    with tempfile.TemporaryDirectory() as tmp:
        plain = {**small_analytic_outputs(Path(tmp)), **monte_carlo_outputs(Path(tmp))}
        digests = run_commands(Path(tmp), ANALYTIC)
    text = f"# numpy {np.__version__}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in digests.items())
    if "--overwrite" in sys.argv[1:]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
        for name, data in plain.items():
            (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN} and {len(plain)} files beside it")
    else:
        _, want = read_golden()
        reports = golden_moves(plain)
        moved = [name for name, digest in digests.items() if want.get(name) != digest]
        print(text, end="")
        for report in reports.values():
            print(report.rstrip("\n"))
        print(f"# differ from the recorded outputs: {', '.join([*moved, *reports]) or 'none'}")
