"""The benchmark's workloads: one INI config and a list of CLI calls each.

Every workload runs in one process with at most 2 threads.  Sizes are
scaled so that one repetition takes 0.3-0.6 s on the machine the
benchmark was built on, which lets a run interleave a dozen or more
repetitions of the program with as many of the frozen reference copy and
report medians of their ratios.  Why each workload was chosen is said
in ``BENCHMARK.json`` and ``bench/README.md``.

The functions here that import ``steerdist`` run in the harness process,
which imports the frozen copy in ``bench/baseline`` (see ``check.py``): the
ingest input is written by the frozen writer, so its bytes do not change
with the program under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20230817

# Set-up time of the frozen reference copy (``bench/baseline``): median over
# ten 25-second runs per workload on a 2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1.  It only fixes the scale of ``setup_s``; each
# workload's ``ref_wall_s`` (the reference's median repetition on the same
# machine) fixes the scale of ``wall_s``.
REF_SETUP_S = 1.30

# ingest input: records drawn from the model state after a pure loss of 0.3
INGEST_LOSS = 0.3
INGEST_RECORDS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    ini: str                 # INI text; ``{seed}`` is filled in
    commands: tuple          # CLI argv lists; ``{config}``, ``{out}``, ``{input}``
    records: Callable        # resolved config -> raw records sampled or ingested per repetition
    ref_wall_s: float        # reference copy's median repetition, in seconds
    needs_input: bool = False

    def config_text(self, seed: int) -> str:
        return self.ini.format(seed=seed)

    def argv(self, config: str, out: str, input_path: str | None) -> list[list[str]]:
        fill = {"config": config, "out": out, "input": input_path or ""}
        return [[arg.format(**fill) for arg in cmd] for cmd in self.commands]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="analytic_sweep",
            ini=("[filter]\ncutoff_source = search\n"
                 "[run]\nseed = {seed}\n"
                 "[grids]\nloss_grid = 0:0.98:0.14\n"),
            commands=(("regions-c", "--config", "{config}", "--out", "{out}"),
                      ("fig3a", "--config", "{config}", "--out", "{out}")),
            records=lambda config: 0,
            ref_wall_s=0.30,
        ),
        Workload(
            name="mc_sweep",
            ini=("[run]\nmode = both\nsamples = 250000\nthreads = 1\nseed = {seed}\n"
                 "[grids]\nloss_grid = 0.51:0.97:0.23\n"),
            commands=(("fig3a", "--config", "{config}", "--out", "{out}"),),
            records=lambda config: config.samples * len(config.loss_grid),
            ref_wall_s=0.56,
        ),
        Workload(
            name="mc_refilter",
            ini=("[filter]\ncutoff = 4.5\n"
                 "[run]\nmode = both\nsamples = 2000000\nthreads = 2\nseed = {seed}\n"
                 "[grids]\nfig4_g_grid = 1.08:1.24:0.08\n"),
            commands=(("fig4", "--config", "{config}", "--out", "{out}"),),
            records=lambda config: config.samples,   # one batch, refiltered per gain
            ref_wall_s=0.62,
        ),
        Workload(
            name="ingest_file",
            ini=("[filter]\ngain = 1.2\ncutoff = 3.0\n"
                 "[run]\nseed = {seed}\n"),
            commands=(("ingest", "{input}", "--config", "{config}", "--out", "{out}"),),
            records=lambda config: INGEST_RECORDS,
            ref_wall_s=0.35,
            needs_input=True,
        ),
    )
}


def ingest_state():
    """Channel output the ingest records are drawn from."""
    from steerdist.channels import ChannelSpec
    from steerdist.config import ExperimentConfig
    from steerdist.experiments import model_state
    return ChannelSpec(INGEST_LOSS).apply(model_state(ExperimentConfig()))


def make_ingest_input(seed: int, path: str, records: int = INGEST_RECORDS) -> str:
    """Write the seeded ingest CSV with the frozen copy's writer; returns its sha256."""
    from steerdist.measurement import sample_batch, write_batch_csv
    write_batch_csv(sample_batch(ingest_state(), records, seed), path)
    return file_sha256(path)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
