"""steerdist benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload mc_sweep --seed 20230817 --seconds 26 --trace 0

Run from the root of a checkout.  A worker process (``bench/child.py``)
writes the workload's INI config, imports ``steerdist.cli`` and
``steerdist.experiments`` and resolves the config, as a user's process does
before it runs a command; the time this takes is one set-up sample.  Each
repetition of the workload then runs in a fresh fork of that worker, which
calls ``steerdist.cli.main``, so every repetition starts from the state a
user's process has after set-up.  Every repetition's outputs are checked
(``bench/check.py``) outside the timed region.

This process imports only the frozen copy of the package in
``bench/baseline``: it resolves the config, writes the seeded inputs and
computes the check targets with it, so none of these moves with the program
under test in ``src/``, which only the workers import.

``--trace 0`` pairs each repetition of the program under test with one of
the frozen reference copy in ``bench/baseline`` (order A B, B A, A B, ...).
This host's speed drifts by up to 2x over minutes, so times are reported as
the median ratio within pairs, which cancels the drift; the raw times are
printed too.  A run has ``ROUNDS`` rounds, each with a fresh worker of each
kind, which gives the set-up pairs.  ``--trace 1`` pairs untraced with
traced repetitions of the program and reports per-layer metrics from the
traced ones (``bench/spans.py``) plus the tracing overhead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_SRC = os.path.join(HERE, "baseline")
sys.path[:0] = [HERE, BASELINE_SRC]

import check  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, REF_SETUP_S, WORKLOADS, file_sha256, make_ingest_input)

ROUNDS = 3               # fresh workers, so set-up samples, per run
MIN_PAIRS = 2            # pairs of repetitions per round, whatever --seconds says
MAX_RUN_S = 100.0        # start no pair after this
CHILD_TIMEOUT_S = 30.0   # for one set-up or one repetition
CLOSE_TIMEOUT_S = 5.0    # a worker exits at once at the end of its input

# setup_s and wall_s are reference-calibrated: the median ratio to the paired
# reference worker or repetition, times the reference's recorded time
# (REF_SETUP_S, ref_wall_s)
END_TO_END = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.ms_p50": "ms", f"{name}.ms_p90": "ms"})
    units["experiments.self_s"] = "s"
    for name in spans.COUNT_NAMES:
        units[name] = "B" if "bytes" in name else "count"
    units.update({"measurement.post_select.accept_ratio": "ratio",
                  "trace_overhead_s": "s", "raw.wall_s": "s", "raw.points_per_s": "1/s",
                  "records_per_s": "1/s", "failed_frac": "ratio"})
    return units


def child_env() -> dict:
    """The caller's environment without config overrides, BLAS pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEERDIST_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Worker:
    """One ``bench/child.py`` process: sets up once, then runs jobs in forks."""

    def __init__(self, kind: str, spec: dict, root: str, env: dict, log_path: str):
        self.kind = kind
        self.config = spec["config"]
        self.log = open(log_path, "w")
        self._buffer = b""
        t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True)   # its forks share its group
        ready = self._read()
        self.setup_s = ready["t_setup"] - t_spawn if ready else None

    def _read(self) -> dict | None:
        """The worker's next protocol line, or None if it died or timed out."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def run(self, job: dict) -> int | None:
        """Run one job; the fork's exit status, or None if the worker failed."""
        try:
            self.proc.stdin.write((json.dumps(job) + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            return None
        reply = self._read()
        return reply["status"] if reply else None

    def log_tail(self) -> str:
        self.log.flush()
        with open(self.log.name) as fh:
            return fh.read()[-2000:]

    def close(self) -> None:
        """End the worker and wait for it.  A worker that does not exit at the
        end of its input is stuck on a fork: kill its whole process group and
        wait until no process of the group is left."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            deadline = time.monotonic() + CLOSE_TIMEOUT_S
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        self.proc.stdout.close()
        self.log.close()


class Run:
    """One benchmark invocation: a work directory, its inputs, its workers and
    the repetitions they ran."""

    def __init__(self, root: str, workload, seed: int):
        from steerdist.config import load_config

        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work", f"{workload.name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        config_path = os.path.join(self.work, "config.ini")
        with open(config_path, "w") as fh:
            fh.write(workload.config_text(seed))
        self.config = load_config(config_path, env={})
        self.input_path = self.input_sha = None
        if workload.needs_input:
            self.input_path = os.path.join(self.work, "ingest.csv")
            self.input_sha = make_ingest_input(seed, self.input_path)
        self.env = child_env()
        self.setups: list[dict] = []     # {kind: set-up seconds} per round
        self.reps: list[dict] = []   # one per repetition, in the order run
        self.problems: list[str] = []    # failures outside any repetition
        self._workers = 0

    def start_worker(self, kind: str) -> Worker:
        """kind: "program", "reference" (frozen copy) or "traced" (program)."""
        index = self._workers
        self._workers += 1
        spec = {
            "src": BASELINE_SRC if kind == "reference" else self.src,
            "trace": kind == "traced",
            "ini": self.workload.config_text(self.seed),
            "config": os.path.join(self.work, f"worker{index}.ini"),
        }
        return Worker(kind, spec, self.root, self.env,
                      os.path.join(self.work, f"worker{index}.log"))

    def run_rep(self, worker: Worker) -> dict:
        """One repetition of the workload in a fork of ``worker``, checked."""
        index = len(self.reps)
        out = os.path.join(self.work, f"rep{index}")
        os.makedirs(out, exist_ok=True)
        job = {
            "run_id": f"{self.workload.name}/{self.seed}/{index}",
            "commands": self.workload.argv(worker.config, out, self.input_path),
            "result": os.path.join(out, "result.json"),
        }
        rep = {"kind": worker.kind, "problems": []}
        if self.input_path and file_sha256(self.input_path) != self.input_sha:
            rep["problems"].append("ingest input changed since it was generated")
        status = worker.run(job)
        result = None
        if status == 0:
            with open(job["result"]) as fh:
                result = json.load(fh)
        if result is None or result["codes"] != [0] * len(job["commands"]):
            rep["problems"].append(
                f"{worker.kind} repetition: fork status {status}, CLI codes "
                f"{result and result['codes']}:\n{worker.log_tail()}")
            outcome = check.CheckResult(
                attempted=check.expected_points(self.workload.name, self.config))
            outcome.failed = set(range(outcome.attempted))
        else:
            outcome = check.check_outputs(self.workload.name, out, self.config)
            rep.update(wall_s=result["t_end"] - result["t_start"],
                       peak_rss_mb=result["maxrss_mb"], trace=result["trace"])
        rep["problems"] += outcome.problems
        rep.update(attempted=outcome.attempted, failed=len(outcome.failed),
                   empty=outcome.empty)
        rep["ok"] = not rep["problems"]
        shutil.rmtree(out, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def run(self, seconds: float, trace: bool) -> None:
        """``ROUNDS`` rounds, each with a fresh worker of each kind; within a
        round, pairs of repetitions until the round's share of ``seconds``
        is used.  Which kind goes first alternates from round to round and
        from pair to pair."""
        other = "traced" if trace else "reference"
        start = time.perf_counter()
        for round_index in range(ROUNDS):
            round_end = start + seconds * (round_index + 1) / ROUNDS
            kinds = ("program", other) if round_index % 2 == 0 else (other, "program")
            workers = {}
            try:
                for kind in kinds:
                    workers[kind] = self.start_worker(kind)
                    if workers[kind].setup_s is None:
                        self.problems.append(f"{kind} worker failed to set up:\n"
                                             f"{workers[kind].log_tail()}")
                        return
                self.setups.append({k: w.setup_s for k, w in workers.items()})
                pairs = 0
                while True:
                    t_pair = time.perf_counter()
                    for kind in kinds if pairs % 2 == 0 else kinds[::-1]:
                        if not self.run_rep(workers[kind])["ok"]:
                            return
                    pairs += 1
                    now = time.perf_counter()
                    per_pair = now - t_pair
                    if now - start + per_pair > MAX_RUN_S:
                        return
                    if pairs >= MIN_PAIRS and now + per_pair / 2 > round_end:
                        break
            finally:
                for worker in workers.values():
                    worker.close()

    def pairs(self):
        """(program repetition, other repetition) for each completed pair."""
        for i in range(0, len(self.reps) - 1, 2):
            a, b = self.reps[i], self.reps[i + 1]
            yield (a, b) if a["kind"] == "program" else (b, a)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}; quartiles {q1:.5g} .. {q3:.5g}"


def failed_frac(reps) -> float:
    """Grid points left empty or failing, over points attempted."""
    attempted = sum(r["attempted"] for r in reps)
    return sum(r["empty"] + r["failed"] for r in reps) / attempted


def report(run: Run, trace: bool) -> tuple[bool, dict]:
    reps = run.reps
    correct = bool(reps) and not run.problems and all(r["ok"] for r in reps)
    for problem in run.problems:
        print(problem)
    for i, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"repetition {i}: {problem}")
    metrics = {}
    if correct:
        pairs = list(run.pairs())
        program = [p for p, _ in pairs]
        other = pairs[0][1]["kind"]
        walls = [c["wall_s"] for c in program]
        points = program[0]["attempted"]
        values = {
            "raw.setup_s": [s["program"] for s in run.setups],
            "raw.wall_s": walls,
            "paired.setup_s": [s[other] for s in run.setups],
            "paired.wall_s": [o["wall_s"] for _, o in pairs],
            "setup_ratio": [s["program"] / s[other] for s in run.setups],
            "wall_ratio": [p["wall_s"] / o["wall_s"] for p, o in pairs],
            "peak_rss_mb": [c["peak_rss_mb"] for c in program],
        }
        print(f"workload {run.workload.name}, seed {run.seed}: {len(run.setups)} rounds, "
              f"{len(pairs)} pairs of program and {other} repetitions")
        for name, v in values.items():
            print(f"  {name:<15} {median(v):12.5g}  ({quartiles(v)})")
        raw_wall = median(walls)
        found = {
            "raw.points_per_s": points / raw_wall,
            "records_per_s": run.workload.records(run.config) / raw_wall,
            "failed_frac": failed_frac(program),
        }
        if trace:
            found.update(spans.layer_metrics([o["trace"] for _, o in pairs]))
            found["raw.wall_s"] = raw_wall
            found["trace_overhead_s"] = median(values["paired.wall_s"]) - raw_wall
            units = per_layer_units()
        else:
            found["setup_s"] = REF_SETUP_S * median(values["setup_ratio"])
            found["wall_s"] = run.workload.ref_wall_s * median(values["wall_ratio"])
            found["points_per_s"] = points / found["wall_s"]
            found["peak_rss_mb"] = median(values["peak_rss_mb"])
            units = END_TO_END
        for name in ("raw.points_per_s", "records_per_s", "failed_frac"):
            print(f"  {name:<15} {found[name]:12.5g}")
        metrics = {k: {"value": found[k], "unit": units[k]} for k in units}
    return correct, {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "steerdist", "__init__.py")):
        print(f"error: no steerdist sources under {src}; run from the root of a "
              f"steerdist checkout", file=sys.stderr)
        return 2
    # users compile bytecode once per install, so no timed run pays for it
    for path in (src, HERE):
        if not compileall.compile_dir(path, quiet=1):
            print(f"error: cannot byte-compile {path}", file=sys.stderr)
            return 2

    run = Run(root, WORKLOADS[args.workload], args.seed)
    try:
        run.run(args.seconds, bool(args.trace))
        correct, result = report(run, bool(args.trace))
    finally:
        run.close()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
