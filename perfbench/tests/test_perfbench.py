"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import tracer as tracer_mod
import workloads as wl
from aeonsim import benchmarking, calibration, cli, device, hilbert, rotations

ROOT = harness.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (n, harness.unit_of(n)) for n in harness.PER_LAYER]
    assert list(wl.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_equal_benchmark_json(trace):
    proc = run_bench("--workload", "calibrate-channel", "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"] if trace == "0" else ():
        # the readable block prints each metric with its unit too
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), m["name"]


def test_wrappers_cover_every_binding_and_leave_none_behind():
    originals = {
        (benchmarking, "compose"): rotations.compose,
        (benchmarking, "match_element"): rotations.match_element,
        (benchmarking, "so3_matrix"): rotations.so3_matrix,
        (benchmarking, "sample_noise"): device.sample_noise,
        (benchmarking, "rng_stream"): device.rng_stream,
        (calibration, "exchange_to_rotation"): rotations.exchange_to_rotation,
        (cli, "measure_p0"): hilbert.measure_p0,
        (device.DeviceModel, "simulate_pulse"): vars(device.DeviceModel)["simulate_pulse"],
    }
    assert tracer_mod.leftover_wrappers() == []
    tr = tracer_mod.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            for (owner, attr), fn in originals.items():
                wrapped = vars(owner)[attr]
                assert wrapped is not fn and wrapped.__wrapped__ is fn, attr
            raise RuntimeError("restore must run on the way out")
    assert tracer_mod.leftover_wrappers() == []
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, attr


def test_traced_run_writes_identical_bytes_and_nested_spans(tmp_path):
    argv = ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "2",
            "--shots", "3", "--seed", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    tr = tracer_mod.Tracer()
    with tr:
        tr.experiment = "rb"
        assert cli.main(argv + ["--out", str(tmp_path / "traced.json")]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    summary = tracer_mod.span_summary(tr.spans, 0, len(tr.spans))
    assert summary["cli.main"]["calls"] == 1
    assert summary["device.simulate_pulse"]["calls"] > 0
    assert "benchmarking.sample_noise" not in summary  # recorded under its home name
    assert summary["device.sample_noise"]["calls"] > 0
    root = next(s for s in tr.spans if s[3] == "cli.main")
    assert root[1] == -1 and all(s[2] == "rb" for s in tr.spans)
    total_self = sum(s["self_ns"] for s in summary.values())
    assert total_self == root[5] - root[4]  # self times partition the root span


def test_uncaught_exception_is_a_failure_not_a_crash(tmp_path):
    # calibrate --grid 1 divides by zero in the seed commit; the gate must
    # count it and carry on with the next experiment
    bad = wl.Experiment("grid1", ("calibrate", "--phi-star", "0", "--theta-star",
                                  "3.141592653589793", "--grid", "1"), "grid1.json")
    good = wl.Experiment("irb", ("irb", "--engine", "channel", "--gate-phi",
                                 "-1.5707963267948966", "--gate-theta", "3.141592653589793",
                                 "--gate-depol", "1e-3", "--depths", "1,2,4,8,16,32",
                                 "--sequences", "20", "--seed", "13"), "irb.json")
    runner = harness.Runner([bad, good], tmp_path, {None: device.default_device()},
                            seed=1, reference_dir=None)
    runner.run_pass("warmup")
    assert runner.attempted == 2
    assert len(runner.failures) == 1
    assert "grid1" in runner.failures[0] and "ZeroDivisionError" in runner.failures[0]


def test_reference_comparison_admits_last_ulp_only(tmp_path):
    ref = ROOT / "perfbench" / "reference" / "rb-channel.json"
    doc = json.loads(ref.read_text())
    doc["fit"]["p"] *= 1.0 + 4e-16
    ulp = tmp_path / "ulp.json"
    ulp.write_text(json.dumps(doc))
    checks.compare_to_reference(str(ulp), str(ref))
    doc["fit"]["p"] *= 1.0 + 1e-5
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed):
        checks.compare_to_reference(str(moved), str(ref))


def test_inputs_follow_the_seed(tmp_path):
    for name in wl.WORKLOADS:
        same = wl.experiments(name, 7, str(tmp_path))
        assert same == wl.experiments(name, 7, str(tmp_path))
        assert same != wl.experiments(name, 8, str(tmp_path))
        # a workload's groups get the same inputs as when run alone
        assert same == [e for g in wl.groups_of(name) for e in wl.experiments(g, 7, str(tmp_path))]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "calibrate-channel", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, wl.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_default_and_held_out_seed_pass_the_gate(workload, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
