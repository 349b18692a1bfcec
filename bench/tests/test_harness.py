"""Tests of the benchmark harness itself (run with ``pytest bench/tests``)."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

import check
import run as run_module
import spans
from conftest import BENCH, ROOT
from run import END_TO_END, Run, Worker, child_env, per_layer_units
from workloads import WORKLOADS, make_ingest_input


# --- self time -------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans_ = [
        [0, -1, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "a.inner", 2.0, 3.0],
        [3, 0, "b", 3.0, 6.0],      # overlaps a, as a sibling on another thread would
        [4, 0, "late", 9.0, 12.0],  # runs past its parent: only [9, 10] is covered
    ]
    selfs = spans.self_times(spans_)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)   # covered: [1, 6] and [9, 10]
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_per_layer():
    dump = {"spans": [
        [0, -1, "experiments.run_fig4", 0.0, 1.0],
        [1, 0, "measurement.sample_batch", 0.1, 0.3],
        [2, 0, "measurement.post_select", 0.4, 0.5],
        [3, 2, "gaussian.from_cov", 0.45, 0.46],
    ], "counts": {"measurement.post_select.records": 10.0,
                  "measurement.post_select.accepted": 4.0}}
    m = spans.layer_metrics([dump, dump])
    assert m["experiments.self_s"] == pytest.approx(0.7)
    assert m["measurement.post_select.self_s"] == pytest.approx(0.09)
    assert m["measurement.sample_batch.calls"] == 1
    assert m["measurement.sample_batch.ms_p50"] == pytest.approx(200.0)
    assert m["measurement.post_select.accept_ratio"] == pytest.approx(0.4)
    assert m["nla.nla_single_mode.calls"] == 0


# --- the percentile rule -----------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert spans.tail_percentile(range(1, 101)) == 90        # 10 samples above 90
    assert spans.tail_percentile(range(1, 51)) == 40         # capped: 10 above 40
    assert spans.tail_percentile(range(1, 16)) == 8          # never below the median
    assert spans.tail_percentile([5.0]) == 5.0
    assert spans.tail_percentile([]) == 0.0


# --- pairing ------------------------------------------------------------------------

def test_pairs_put_the_program_repetition_first_whatever_the_order():
    reps = [{"kind": k, "i": i} for i, k in enumerate(
        ["program", "reference", "reference", "program", "program"])]
    run = type("FakeRun", (), {"reps": reps})()
    pairs = [(p["i"], o["i"]) for p, o in Run.pairs(run)]
    assert pairs == [(0, 1), (3, 2)]   # the unpaired last child is left out


# --- output checks -----------------------------------------------------------------

def _copy_reference(tmp_path, workload):
    ref = os.path.join(check.REFERENCE_DIR, workload)
    for name in os.listdir(ref):
        shutil.copy(os.path.join(ref, name), tmp_path / name)


def _edit_csv(path, row, column, transform):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = transform(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_reference_passes_and_perturbed_rows_fail(tmp_path):
    _copy_reference(tmp_path, "analytic_sweep")
    regions = len(check.read_rows(tmp_path / "regions_c.csv"))
    result = check.check_outputs("analytic_sweep", str(tmp_path), None)
    assert result.attempted == regions + len(check.read_rows(tmp_path / "fig3a.csv"))
    assert not result.failed

    _edit_csv(tmp_path / "fig3a.csv", 5, "g_a2b_nla", lambda v: repr(float(v) * (1 + 1e-5)))
    _edit_csv(tmp_path / "regions_c.csv", 7, "region", lambda v: "none")
    result = check.check_outputs("analytic_sweep", str(tmp_path), None)
    assert result.failed == {7, regions + 5}


@pytest.fixture(scope="module")
def mc_sweep_output(tmp_path_factory):
    """A real mc_sweep output, produced through the frozen copy's CLI."""
    from steerdist import cli
    from steerdist.config import load_config

    out = tmp_path_factory.mktemp("mc_sweep")
    config = str(out / "config.ini")
    workload = WORKLOADS["mc_sweep"]
    with open(config, "w") as fh:
        fh.write(workload.config_text(7))
    for argv in workload.argv(config, str(out), None):
        assert cli.main(argv) == 0
    return out, load_config(config, env={})


def test_mc_sweep_output_passes(mc_sweep_output):
    out, config = mc_sweep_output
    result = check.check_outputs("mc_sweep", str(out), config)
    assert result.attempted == len(config.loss_grid)
    assert not result.failed and not result.problems


@pytest.mark.parametrize("column, transform", [
    ("mc_g_a2b_raw", lambda v: ""),                       # an extra empty point
    ("mc_g_b2a_raw", lambda v: repr(float(v) + 0.5)),     # far outside k SE
    ("g_a2b_raw", lambda v: repr(float(v) * (1 + 1e-5))),  # analytic column off
])
def test_mc_sweep_rejects_bad_rows(mc_sweep_output, tmp_path, column, transform):
    out, config = mc_sweep_output
    shutil.copy(out / "fig3a.csv", tmp_path / "fig3a.csv")
    _edit_csv(tmp_path / "fig3a.csv", 2, column, transform)
    result = check.check_outputs("mc_sweep", str(tmp_path), config)
    assert result.failed == {2}


def test_mc_sweep_rejects_empty_amplified_point(mc_sweep_output, tmp_path):
    out, config = mc_sweep_output
    shutil.copy(out / "fig3a.csv", tmp_path / "fig3a.csv")
    for column in ("mc_g_a2b_nla", "se_g_a2b_nla"):
        _edit_csv(tmp_path / "fig3a.csv", 2, column, lambda v: "")
    result = check.check_outputs("mc_sweep", str(tmp_path), config)
    assert result.failed == {2}


def test_empty_allowed_only_where_reconstruction_may_fail(mc_sweep_output):
    _, config = mc_sweep_output
    n = config.samples
    cov = np.diag([3.0, 3.0, 2.0, 2.0])           # bona fide, well inside both gates
    assert check.MC_MIN_ACCEPTED == 200
    assert check.may_be_empty(cov, 59 / n, n)     # too few accepted (mc_sweep, loss 0)
    assert check.may_be_empty(cov, 250 / n, n)    # may fall short of 200 by chance
    assert not check.may_be_empty(cov, 5000 / n, n)
    near_singular = np.diag([3.0, 3.0, 2.0, 0.05])
    assert check.may_be_empty(near_singular, 5000 / n, n)
    # at the benchmark's size the high-loss amplified points must be filled
    allowed = [check.may_be_empty(t["cov"], t["mc_acceptance_rate"], n)
               for t in (check.fig3a_targets(config, float(x)) for x in config.loss_grid)]
    assert allowed == [True, False, False]


def test_targets_come_from_the_frozen_copy():
    import steerdist
    assert os.path.dirname(steerdist.__file__) == os.path.join(BENCH, "baseline", "steerdist")


def test_missing_output_fails_every_point(tmp_path, mc_sweep_output):
    _, config = mc_sweep_output
    result = check.check_outputs("mc_sweep", str(tmp_path), config)
    assert result.failed == set(range(len(config.loss_grid)))


# --- inputs come from the seed -------------------------------------------------------

def test_seed_reaches_generated_inputs(tmp_path):
    a1 = make_ingest_input(11, str(tmp_path / "a1.csv"), records=2000)
    a2 = make_ingest_input(11, str(tmp_path / "a2.csv"), records=2000)
    b = make_ingest_input(12, str(tmp_path / "b.csv"), records=2000)
    assert a1 == a2 != b
    for workload in WORKLOADS.values():
        assert "seed = 12345\n" in workload.config_text(12345)


# --- tracing, end to end through a child -------------------------------------------

def test_traced_worker_records_nested_layer_spans(tmp_path):
    spec = {"src": os.path.join(ROOT, "src"), "trace": True,
            "ini": "[grids]\nloss_grid = 0:0.5:0.25\ng_grid = 1.0,1.2\n",
            "config": str(tmp_path / "config.ini")}
    worker = Worker("traced", spec, ROOT, child_env(), str(tmp_path / "worker.log"))
    dumps = []
    try:
        assert worker.setup_s > 0
        for rep in range(2):
            result = str(tmp_path / f"result{rep}.json")
            commands = [["regions-c", "--config", spec["config"], "--out", str(tmp_path)]]
            assert worker.run({"run_id": f"test/{rep}", "commands": commands,
                               "result": result}) == 0
            with open(result) as fh:
                dumps.append(json.load(fh)["trace"])
    finally:
        worker.close()
    assert worker.proc.returncode == 0
    dump = dumps[0]
    names = {sid: name for sid, _, name, _, _ in dump["spans"]}
    parents = {names[parent] for _, parent, name, _, _ in dump["spans"]
               if name == "steering.steerability"}
    assert parents == {"steering.classify"}
    m = spans.layer_metrics([dump])
    assert m["steering.classify.calls"] == 6
    assert m["nla.nla_single_mode.calls"] == 3   # g = 1 skips the amplifier
    assert m["channels.apply.calls"] == 6
    # each repetition runs in a fresh fork: nothing is left over from the first
    assert [d["run_id"] for d in dumps] == ["test/0", "test/1"]
    assert len(dumps[1]["spans"]) == len(dump["spans"])


def test_hung_repetition_is_killed_with_its_worker(tmp_path, monkeypatch):
    package = tmp_path / "src" / "steerdist"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "experiments.py").write_text("")
    (package / "config.py").write_text("def load_config(path):\n    return None\n")
    (package / "cli.py").write_text("import time\n\ndef main(argv):\n    time.sleep(600)\n")
    spec = {"src": str(tmp_path / "src"), "trace": False, "ini": "",
            "config": str(tmp_path / "config.ini")}
    monkeypatch.setattr(run_module, "CHILD_TIMEOUT_S", 1.0)
    worker = Worker("program", spec, ROOT, child_env(), str(tmp_path / "worker.log"))
    assert worker.setup_s is not None
    assert worker.run({"run_id": "hung", "commands": [["fig3a"]],
                       "result": str(tmp_path / "result.json")}) is None
    worker.close()
    with pytest.raises(ProcessLookupError):   # the fork is gone too
        os.killpg(worker.proc.pid, 0)


def test_worker_failure_is_reported_not_hung(tmp_path):
    spec = {"src": str(tmp_path / "missing"), "trace": False, "ini": "",
            "config": str(tmp_path / "config.ini")}
    worker = Worker("program", spec, ROOT, child_env(), str(tmp_path / "worker.log"))
    worker.close()
    assert worker.setup_s is None and worker.proc.returncode != 0


# --- BENCHMARK.json names what the harness prints -------------------------------------

def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
