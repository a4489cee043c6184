"""Command-line interface: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from aeonsim import benchmarking as bench
from aeonsim import cli
from aeonsim import device as dev
from aeonsim import rotations as rot


def run(argv):
    return cli.main(argv)


def test_spectrum_csv_output(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--j12", "40e6", "--j23", "40e6", "--j13", "40e6",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level (1),energy (rad/s)"
    assert len(lines) == 9
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    gap = energies[4] - energies[3]
    assert gap == pytest.approx(3 * math.pi * 40e6, rel=1e-10)


def test_fingerpinch_csv(tmp_path):
    out = tmp_path / "fp.csv"
    code = run(["fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:5",
                "--v2", "0.05:0.08:5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "v_x12 (V),v_x23 (V),p0 (1)"
    assert len(lines) == 26


def test_rabi_json_and_plot_data(tmp_path):
    out = tmp_path / "rabi.json"
    plot = tmp_path / "rabi.csv"
    code = run(["rabi", "--pair", "12", "--v", "0.0738",
                "--times", "0:100e-9:50", "--out", str(out),
                "--emit-plot-data", str(plot)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["fit"]["frequency_hz"] == pytest.approx(49.906207808511235e6, rel=1e-6)
    assert doc["fit"]["t_decay_s"] is None  # noiseless: no decay
    header, *rows = plot.read_text().splitlines()
    assert header == "time (s),p0 (1)"
    # the fit object is fit_oscillation_decay's of the plotted data
    t, p0 = zip(*(map(float, row.split(",")) for row in rows))
    assert doc["fit"] == bench.fit_oscillation_decay(t, p0)


def test_calibrate_round_trips_and_is_deterministic(tmp_path):
    args = ["calibrate", "--phi-star", "-1.5707963267948966",
            "--theta-star", "3.141592653589793",
            "--schedule", "1,2,4", "--grid", "13"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["pairs"] == ["12", "23"]
    assert len(doc["stages"]) == 3


def test_rb_channel_json(tmp_path):
    out = tmp_path / "rb.json"
    code = run(["rb", "--engine", "channel", "--inject-depol", "1e-3",
                "--depths", "1,2,4,8,16", "--sequences", "8", "--out", str(out),
                "--emit-plot-data", str(tmp_path / "rb.csv")])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["fit"]["error_per_pulse"] == pytest.approx(1e-3, rel=0.25)
    header = (tmp_path / "rb.csv").read_text().splitlines()[0]
    assert header == "depth (1),survival_identity (1),survival_flip (1)"


def test_irb_channel_json(tmp_path):
    out = tmp_path / "irb.json"
    code = run(["irb", "--engine", "channel", "--gate-depol", "1e-3",
                "--gate-phi", "-1.5707963267948966",
                "--gate-theta", "3.141592653589793",
                "--depths", "1,2,4,8,16,32", "--sequences", "12",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["gate_error"] == pytest.approx(1e-3, abs=3e-4)


def test_json_keys_are_sorted(tmp_path):
    out = tmp_path / "rb.json"
    run(["rb", "--engine", "channel", "--depths", "1,2,4", "--sequences", "3",
         "--out", str(out)])
    doc = out.read_text()
    assert json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n" == doc


@pytest.mark.parametrize("argv", [
    ["rabi", "--pair", "12", "--v", "0.0738", "--shots", "50", "--times", "0:200e-9:20"],
    ["rb", "--engine", "device", "--shots", "3", "--depths", "1,2,4", "--sequences", "2"],
], ids=["rabi", "rb"])
def test_shot_runs_are_byte_identical_across_processes(argv, tmp_path):
    # fresh interpreters with different string hashing: no shot draw may
    # depend on set or dict order, nor on state left by an earlier run
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("AEON_")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outs = [tmp_path / f"{seed}.json" for seed in "01"]
    procs = [subprocess.Popen([sys.executable, "-m", "aeonsim.cli", *argv, "--out", str(out)],
                              env=dict(env, PYTHONHASHSEED=out.stem))
             for out in outs]
    assert [p.wait(timeout=60) for p in procs] == [0, 0]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["rb", "--engine", "channel", "--inject-depol", "1e-3",
            "--depths", "1,4,8,16", "--sequences", "4", "--shots", "25"]
    monkeypatch.setenv("AEON_SEED", "1")
    run(args + ["--out", str(out1)])
    monkeypatch.setenv("AEON_SEED", "2")
    run(args + ["--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()
    # explicit flag wins over the environment
    out3 = tmp_path / "c.json"
    run(args + ["--seed", "1", "--out", str(out3)])
    assert out3.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize("argv", [
    ["rb", "--engine", "channel", "--seed", "-1"],
    ["calibrate", "--phi-star", "0", "--theta-star", "3.14", "--seed", "-7"],
    ["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--seed", "-2"],
])
def test_negative_seed_is_a_usage_error_at_parse_time(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "must be a non-negative integer" in err


def test_negative_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("AEON_SEED", "-3")
    assert run(["rb", "--engine", "channel", "--depths", "1,2", "--sequences", "2"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "AEON_SEED" in err and "non-negative" in err
    # the flag still wins over the environment
    assert cli.build_parser().parse_args(["rb", "--seed", "0"]).seed == 0


@pytest.mark.parametrize("depths", ["1", "4,4"])
def test_rb_with_one_distinct_depth_is_a_numeric_failure(depths, tmp_path, capsys):
    out = tmp_path / "rb.json"
    assert run(["rb", "--engine", "channel", "--depths", depths, "--out", str(out)]) == 3
    assert "at least 3 distinct depths" in capsys.readouterr().err


@pytest.mark.parametrize("inject", [[], ["--inject-depol", "1e-3", "--inject-leak", "1e-3"]])
def test_rb_with_two_distinct_depths_is_a_numeric_failure(inject, tmp_path, capsys):
    # three sum-curve parameters (c0, c1, lambda) cannot be fitted to two
    # depths: noise-free this used to report p = 1, injected a failed fit
    out = tmp_path / "rb.json"
    argv = ["rb", "--engine", "channel", "--depths", "1,2", "--out", str(out)] + inject
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "at least 3 distinct depths" in err and "got [1, 2]" in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert run(["rabi", "--pair", "99", "--v", "0.07", "--times", "0:1e-7:20"]) == 2
    assert run(["fingerpinch", "--pairs", "12,23", "--v1", "oops",
                "--v2", "0:1:5"]) == 2
    assert run(["no-such-command"]) == 2
    # flags are not abbreviated
    for argv in (["spectrum", "--f-uni", "3e4"], ["spectrum", "--f-uni=-3e4"],
                 ["spectrum", "--f-uni", "-3e4"],
                 ["rb", "--eng", "channel", "--depths", "1,2,4", "--seq", "2"]):
        capsys.readouterr()
        assert run(argv) == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err
    # a calibration target that the swept pairs cannot reach, or that lies
    # on a single-coupling axis with no --pairs, is the flags' fault
    for argv in (["--phi-star", "0", "--theta-star", "3.141592653589793", "--pairs", "12,23"],
                 ["--phi-star", "1.5707963267948966", "--theta-star", "3.141592653589793"]):
        capsys.readouterr()
        assert run(["calibrate", *argv]) == 2
        err = capsys.readouterr().err
        assert "--phi-star" in err and "--pairs" in err


@pytest.mark.parametrize("argv", [
    ["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--shots", "0"],
    ["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--shots", "-3"],
    ["rb", "--engine", "device", "--shots", "0"],
    ["rb", "--engine", "channel", "--shots", "0"],
    ["rb", "--sequences", "0"],
    ["irb", "--gate-phi", "0", "--gate-theta", "3.14", "--sequences", "-1"],
    ["irb", "--gate-phi", "0", "--gate-theta", "3.14", "--shots", "0"],
    ["calibrate", "--phi-star", "0", "--theta-star", "3.14", "--shots", "0"],
])
def test_non_positive_counts_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rb", "--engine", "channel", "--inject-depol", "0.7"],
    ["rb", "--engine", "channel", "--inject-depol", "-0.001"],
    ["rb", "--engine", "channel", "--inject-depol", "nan"],
    ["rb", "--engine", "channel", "--inject-leak", "1.5"],
    ["rb", "--engine", "channel", "--inject-leak", "-0.1"],
    ["irb", "--engine", "channel", "--gate-phi", "0", "--gate-theta", "3.14",
     "--gate-depol", "0.51"],
    ["irb", "--engine", "channel", "--gate-phi", "0", "--gate-theta", "3.14",
     "--inject-depol", "inf"],
])
def test_injected_rates_out_of_range_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    assert "must lie in [0, " in capsys.readouterr().err


def test_injected_rate_bounds_are_accepted():
    args = cli.build_parser().parse_args(
        ["irb", "--inject-depol", "0.5", "--inject-leak", "1", "--gate-depol", "0",
         "--gate-phi", "0", "--gate-theta", "0"])
    assert (args.inject_depol, args.inject_leak, args.gate_depol) == (0.5, 1.0, 0.0)


RB_SMALL = ["--depths", "1,2,4", "--sequences", "2"]


@pytest.mark.parametrize("argv,flag", [
    (["rb", "--engine", "channel", "--cross"], "--cross"),
    (["rb", "--engine", "channel", "--idle", "1e-9"], "--idle"),
    (["rb", "--engine", "device", "--inject-depol", "0.1"], "--inject-depol"),
    (["rb", "--engine", "device", "--inject-leak", "0.1"], "--inject-leak"),
    (["irb", "--engine", "device", "--gate-depol", "0.4", "--gate-phi", "0", "--gate-theta",
      "3.141592653589793"], "--gate-depol"),
    (["rb", "--engine", "channel", "--gate-depol", "0.4"], "--gate-depol"),  # an irb flag
])
def test_a_flag_the_engine_ignores_is_refused(argv, flag, tmp_path, capsys):
    # each of these used to run, and record or report the flag as if applied
    out = tmp_path / "out.json"
    assert run(argv + RB_SMALL + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_unset_engine_flags_are_not_refused(tmp_path):
    # zero is each flag's default, so an explicit zero is not refused
    for argv in (["rb", "--engine", "channel", "--idle", "0"],
                 ["irb", "--engine", "device", "--inject-depol", "0", "--inject-leak", "0",
                  "--gate-depol", "0", "--gate-phi", "0", "--gate-theta", "3.141592653589793"]):
        assert run(argv + RB_SMALL + ["--out", str(tmp_path / "out.json")]) == 0


def test_irb_artifact_is_the_interleaved_rb_document(tmp_path):
    out = tmp_path / "irb.json"
    assert run(["irb", "--engine", "channel", "--inject-depol", "1e-3", "--gate-depol", "2e-3",
                "--gate-phi", "-1.5707963267948966", "--gate-theta", "3.141592653589793",
                "--shots", "30", "--seed", "5", "--out", str(out)] + RB_SMALL) == 0
    cfg = bench.RbConfig(depths=(1, 2, 4), n_sequences=2, shots=30, seed=5)
    doc = bench.interleaved_rb(None, cfg, rot.AxisAngle(-math.pi / 2, math.pi), engine="channel",
                               inject=bench.InjectedError(depol_per_pulse=1e-3, gate_depol=2e-3))
    assert out.read_text() == cli._json_doc(doc)


CAL = ["calibrate", "--phi-star", "0", "--theta-star", "3.14"]
# a target that calibrates (3.14 has no germ exponent)
CAL_PI = ["calibrate", "--phi-star", "0", "--theta-star", "3.141592653589793"]


@pytest.mark.parametrize("argv", [
    CAL + ["--schedule", "-1"],
    CAL + ["--schedule", "0"],
    CAL + ["--schedule", "1,2,0"],
    CAL + ["--window", "0"],
    CAL + ["--window", "-0.03"],
    CAL + ["--window", "nan"],
    ["calibrate", "--phi-star", "nan", "--theta-star", "3.14"],
    ["calibrate", "--phi-star", "0", "--theta-star", "inf"],
    ["rb", "--engine", "device", "--idle", "nan"],
    ["rb", "--engine", "device", "--idle", "-1"],
    ["rb", "--engine", "device", "--idle", "inf"],
    ["irb", "--gate-phi", "nan", "--gate-theta", "3.14"],
    ["irb", "--gate-phi", "0", "--gate-theta", "inf"],
    ["rabi", "--pair", "12", "--v", "0.07", "--times", "0:0:20"],
    ["rabi", "--pair", "12", "--v", "0.07", "--times", "3e-9:3e-9:5"],
])
def test_out_of_range_flags_are_usage_errors(argv, tmp_path, capsys):
    # --schedule -1 used to run a stage with N = -1, --idle nan to write
    # "idle_s": NaN, and --phi-star nan to exit as a config error
    argv = argv + ["--out", str(tmp_path / "out.json")]
    if argv[0] in ("rabi", "rb"):
        argv += ["--emit-plot-data", str(tmp_path / "plot.csv")]
    assert run(argv) == 2
    assert "must " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_flag_range_edges_are_accepted():
    args = cli.build_parser().parse_args(CAL + ["--schedule", "1", "--window", "1e-300"])
    assert (args.schedule, args.window) == ((1,), 1e-300)
    assert cli.build_parser().parse_args(["rb", "--idle", "0"]).idle == 0.0


def test_numeric_failure_exit_code(tmp_path, capsys):
    # too few samples for the oscillation fit
    code = run(["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:100e-9:5",
                "--out", str(tmp_path / "x.json")])
    assert code == 3
    # an irb gate that is not a Clifford element names its flags
    out = tmp_path / "irb.json"
    for engine in ("channel", "device"):
        capsys.readouterr()
        assert run(["irb", "--engine", engine, "--gate-phi", "-1.5707963267948966",
                    "--gate-theta", "1.0", "--depths", "1,2,4", "--sequences", "2",
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("aeonsim: --gate-phi/--gate-theta: rotation is not an element")
        assert not out.exists()


def test_config_error_exit_code(tmp_path):
    assert run(["spectrum", "--config", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["spectrum", "--config", str(bad)]) == 4


@pytest.mark.parametrize("doc", [
    [1, 2],
    "noise",
    {"compensation": [[1.0] * 6] * 6},
    {"noise": {"voltage_sigma_v": 1e-4}, "dss_location_v": [0, 0, 0]},
])
def test_config_must_be_an_object_of_known_keys(tmp_path, doc, capsys):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(doc))
    assert run(["spectrum", "--config", str(cfg)]) == 4
    assert "config error" in capsys.readouterr().err


def test_null_cross_matrix_is_no_cross_talk(tmp_path):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"cross_matrix": None}))
    argv = ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1",
            "--config", str(cfg)]
    docs, plots = [], []
    for flags in ([], ["--cross"]):
        out, plot = tmp_path / "rb.json", tmp_path / "plot.csv"
        assert run(argv + flags + ["--out", str(out), "--emit-plot-data", str(plot)]) == 0
        doc = json.loads(out.read_text())
        del doc["config"], doc["config_hash"]  # they record the flag itself
        docs.append(doc)
        plots.append(plot.read_bytes())
    assert docs[0] == docs[1] and plots[0] == plots[1]


@pytest.mark.parametrize("doc,where", [
    ({"noise": 5}, "noise"),
    ({"noise": {"voltage_sigma_v": "high"}}, "noise"),
    ({"noise": {"gradient_sigma_hz": [1]}}, "noise"),
    ({"dss": [1, 2]}, "dss"),
    ({"dss": {"curvature": {"12": 3}}}, "dss.curvature.12"),
    ({"dss": {"curvature": [[1, 2]]}}, "dss.curvature"),
    ({"fields": {"gradients_hz": 5}}, "fields.gradients_hz"),
    ({"exchange_law": [1]}, "exchange_law"),
    ({"exchange_law": {"12": 5}}, "exchange_law.12"),
    ({"fields": "none"}, "fields"),
    ({"pulse_s": [1e-8]}, "config"),
    ({"cross_matrix": "low"}, "config"),
])
def test_nested_config_values_of_the_wrong_type_are_config_errors(tmp_path, doc, where, capsys):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(doc))
    assert run(["spectrum", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "config error" in err and where in err


@pytest.mark.parametrize("doc,where", [
    ({"pulse_s": 0}, "pulse_s"),
    ({"pulse_s": -1e-9}, "pulse_s"),
    ({"pulse_s": float("nan")}, "pulse_s"),
    ({"pulse_s": float("inf")}, "pulse_s"),
    ({"noise": {"voltage_sigma_v": -1e-4}}, "noise.voltage_sigma_v"),
    ({"noise": {"voltage_sigma_v": [0, 0, 0, 0, 0, float("inf")]}}, "noise.voltage_sigma_v"),
    ({"noise": {"gradient_sigma_hz": [1e3, -1.0, 0]}}, "noise.gradient_sigma_hz"),
    ({"noise": {"gradient_sigma_hz": float("nan")}}, "noise.gradient_sigma_hz"),
    ({"noise": {"voltage_sigma_v": [1e-4, 1e-4]}}, "noise"),
])
def test_out_of_range_pulse_and_noise_are_config_errors(tmp_path, doc, where, capsys):
    # {"pulse_s": 0} used to crash `rb --engine device` with ZeroDivisionError
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(doc))
    argv = ["rb", "--engine", "device", "--config", str(cfg), "--depths", "1,2,4",
            "--sequences", "1", "--out", str(tmp_path / "rb.json")]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "config error" in err and where in err


@pytest.mark.parametrize("doc,path", [
    ({"noise": {"voltage_sigma": 1e-4}}, "noise.voltage_sigma"),
    ({"fields": {"f_uniform": 1e6}}, "fields.f_uniform"),
    ({"exchange_law": {"12": {"A_hz": 1e6, "B_per_v": 52.983, "c": 0.3}}}, "exchange_law.12.c"),
    ({"dss": {"curvatures": {"12": [2e3, 8e2]}}}, "dss.curvatures"),
    # keys that no command read, accepted and ignored by earlier versions
    ({"noise": {"seed": 9}}, "noise.seed"),
    ({"dss": {"location_v": [0.0, 0.0, 0.0]}}, "dss.location_v"),
    ({"idle_v": -0.5}, "idle_v"),
    ({"compensation_matrix": [[float(i == k) for k in range(6)] for i in range(6)]},
     "compensation_matrix"),
    # an unknown leaf under a known pair
    ({"exchange_law": {"12": {"D": 1.0}}}, "exchange_law.12.D"),
], ids=lambda v: repr(v.rsplit(".", 1)[-1]) if isinstance(v, str) else None)  # the key's own name
def test_unknown_nested_config_keys_are_config_errors(tmp_path, doc, path, capsys):
    # each of these used to run with the key dropped; the message names
    # the key by its full path
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(doc))
    argv = ["rabi", "--pair", "12", "--v", "0.07", "--times", "0:1e-7:20",
            "--config", str(cfg), "--out", str(tmp_path / "rabi.json")]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown device config key(s) {path!r};" in err
    assert not (tmp_path / "rabi.json").exists()


def test_known_nested_config_keys_are_accepted():
    d = dev.device_from_dict({
        "exchange_law": {"12": {"A_hz": 2e6, "B_per_v": 50.0, "C": 0.1}},
        "dss": {"curvature": {"12": [1.0, 2.0]}},
        "noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4},
        "fields": {"f_uniform_hz": 1e9, "gradients_hz": [1.0, 0.0, -1.0]},
    })
    assert d.laws["12"].c == 0.1 and d.noise.gradient_sigma_hz == 3e4
    # a given dss.curvature leaves the pairs it omits with none; an absent one keeps the default
    assert d.curvature.tolist() == [[1, 2], [0, 0], [0, 0]]
    assert dev.device_from_dict({}).curvature.tolist() == [[2e3, 8e2], [5e2, 2e3], [2e3, 8e2]]


def test_flat_rabi_trace_reports_no_oscillation(tmp_path):
    # J13 alone leaves the outer-pair singlet in place, so p0 stays at 1
    out = tmp_path / "rabi.json"
    assert run(["rabi", "--pair", "13", "--v", "0.07", "--times", "0:100e-9:20",
                "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["amplitude"] == fit["frequency_hz"] == fit["phase_rad"] == 0.0
    assert fit["t_decay_s"] is None and fit["n_oscillations"] is None
    assert fit["baseline"] == pytest.approx(1.0, abs=1e-12)


def test_range_edges_of_pulse_and_noise_are_accepted():
    d = dev.device_from_dict({"pulse_s": 1e-300, "noise": {
        "voltage_sigma_v": [0, 1e-4, 0, 0, 0, 0], "gradient_sigma_hz": 0}})
    assert d.pulse_s == 1e-300
    assert d.noise.sigmas[1] == 1e-4 and not d.noise.sigmas[6:].any()


def test_custom_device_config(tmp_path):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"exchange_law": {
        "12": {"A_hz": 1e6, "B_per_v": 52.983, "C": 0.05}}}))
    out = tmp_path / "fp.csv"
    code = run(["fingerpinch", "--config", str(cfg), "--pairs", "12,23",
                "--v1", "0.05:0.08:5", "--v2", "0.05:0.08:5", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("argv,flag", [
    (["rabi", "--pair", "12", "--v", "nan", "--times", "0:1e-7:10"], "--v"),
    (["rabi", "--pair", "12", "--v", "inf", "--times", "0:1e-7:10"], "--v"),
    (["rabi", "--pair", "12", "--v", "20", "--times", "0:1e-7:10"], "--v"),
    (["rabi", "--pair", "12", "--v", "0.07", "--times", "0:nan:10"], "--times"),
    (["spectrum", "--j12", "nan"], "--j12"),
    (["spectrum", "--j23", "inf"], "--j23"),
    (["spectrum", "--j13=-inf"], "--j13"),
    (["fingerpinch", "--pairs", "12,23", "--v1", "0:1e300:3", "--v2", "0:0.1:3"], "--v1"),
    (["fingerpinch", "--pairs", "12,23", "--v1", "0:0.1:3", "--v2", "0:inf:3"], "--v2"),
    (["fingerpinch", "--pairs", "12,23", "--v1", "0:0.1:3", "--v2=-1e3:0:3", "--cross"],
     "--v1/--v2 with --cross"),
    (["fingerpinch", "--pairs", "12,14", "--v1", "0:0.1:3", "--v2", "0:0.1:3"], "--pairs"),
    (["fingerpinch", "--pairs", "12,23", "--v1", "0:0.1:3", "--v2", "0:0.1:3",
      "--duration", "nan"], "--duration"),
    (CAL_PI + ["--pairs", "12"], "--pairs"),
    (CAL_PI + ["--pairs", "12,12"], "--pairs"),
    (CAL_PI + ["--pairs", "12,14"], "--pairs"),
    (["rabi", "--pair", "14", "--v", "0.07", "--times", "0:1e-7:20"], "--pair"),
])
def test_device_experiment_inputs_are_usage_errors(argv, flag, tmp_path, capsys):
    # these used to exit through "Hamiltonian is not Hermitian" and leak
    # overflow warnings; calibrate --pairs 12, 12,12 and 12,14 used to exit
    # 4 with "unknown pair combination"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Hermitian" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--j12", "--j23", "--j13", "--f-uniform", "--b1", "--b2", "--b3"])
@pytest.mark.parametrize("value", ["1e308", "-1e308", "1e301"])
def test_spectrum_overflowing_couplings_and_fields_are_usage_errors(flag, value, tmp_path, capsys):
    # these used to overflow in build_hamiltonian, leak RuntimeWarnings and
    # exit through "Hamiltonian is not Hermitian"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["spectrum", f"{flag}={value}", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "1e+300" in err and "Hermitian" not in err
    assert not any(tmp_path.iterdir())


def test_spectrum_takes_every_input_at_its_bound(tmp_path):
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--j12=1e300", "--j23=1e300", "--j13=1e300", "--f-uniform=1e300",
            "--b1=1e300", "--b2=-1e300", "--b3=1e300", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 0
    energies = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(energies) == 8 and all(math.isfinite(e) for e in energies)


@pytest.mark.parametrize("argv", [
    ["fingerpinch", "--pairs", "12,23", "--v1", "-0.01:0.08:5", "--v2", "0.05:0.08:5"],
    ["spectrum", "--b1", "-3e4"],
    ["rabi", "--pair", "12", "--v", "-5e-3", "--times", "0:1e-7:10"],
    ["irb", "--engine", "channel", "--gate-phi", "-1.6e0", "--gate-theta", "3.141592653589793"],
])
def test_a_value_starting_with_a_dash_may_follow_its_flag(argv, tmp_path, capsys):
    # each exited 2 ("expected one argument") and now runs as its --flag=value
    # form does; a flag right after a flag is still no value
    k = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[1:2].isdigit())
    out, seen = tmp_path / "out", []
    for form in (argv, argv[:k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1:]):
        code = run(form + ["--out", str(out)])
        seen.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert seen[0] == seen[1] and seen[0][0] in (0, 3)
    assert run(argv[:k] + ["--out", str(out)] + argv[k + 1:]) == 2
    assert f"argument {argv[k - 1]}: expected one argument" in capsys.readouterr().err


def test_json_documents_refuse_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_doc({"x": math.nan})


RABI = ["rabi", "--pair", "12", "--v", "0.0738"]


@pytest.mark.parametrize("argv,flag", [
    (RABI + ["--times=-1e-9:1e-7:20"], "--times"),
    (RABI + ["--times", "1e-7:-1e-9:20"], "--times"),
    (RABI + ["--times", "0:1e300:20"], "--times"),
    (RABI + ["--times", "0:1.5:20"], "--times"),
    (["rb", "--engine", "channel", "--depths", ""], "--depths"),
    (["rb", "--engine", "channel", "--depths", "1,-2,4"], "--depths"),
    (["rb", "--engine", "channel", "--depths", "1,,2"], "--depths"),
    (["rb", "--engine", "device", "--depths=-1,2,4"], "--depths"),
    (["irb", "--gate-phi", "0", "--gate-theta", "3.14", "--depths", "1,2.5,4"], "--depths"),
    (["rb", "--engine", "channel", "--depths", "1,2,1000000000"], "--depths"),
    (["irb", "--gate-phi", "0", "--gate-theta", "3.14", "--depths", f"1,2,{cli.MAX_DEPTH + 1}"],
     "--depths"),
    (["fingerpinch", "--pairs", "12,23", "--v1", "0:0.1:3", "--v2", "0:0.1:100000000"], "--v2"),
    (["fingerpinch", "--pairs", "12,23", "--v1", f"0:0.1:{cli.MAX_SWEEP_POINTS + 1}",
      "--v2", "0:0.1:3"], "--v1"),
    (RABI + ["--times", "0:1e-7:1000000000000"], "--times"),
    (CAL_PI + ["--grid", "100000"], "--grid"),
    (CAL_PI + ["--grid", f"{cli.MAX_SWEEP_POINTS + 1}"], "--grid"),
    (CAL_PI + ["--grid", "0"], "--grid"),
    (CAL_PI + ["--grid", "-3"], "--grid"),
])
def test_bad_durations_and_depths_are_usage_errors_naming_the_flag(argv, flag, tmp_path, capsys):
    # --times=-1e-9:... used to fail inside the propagator, 0:1e300:20 to
    # leak overflow warnings and exit 3, and --depths '' or 1,-2,4 to
    # print int()'s or numpy's message without the flag; rb --depths
    # 1,2,1000000000 and fingerpinch --v2 0:0.1:100000000 asked for
    # gigabytes and ended in a MemoryError, and are now refused before
    # anything of that size is allocated; calibrate --grid 100000 asked for
    # 224 GiB, and --grid 0 or -3 exited with numpy's messages
    argv = argv + ["--out", str(tmp_path / "out.json")]
    if argv[0] in ("rabi", "rb"):
        argv += ["--emit-plot-data", str(tmp_path / "plot.csv")]
    cli._parser()  # built once per process, outside the traced allocations
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "must " in err
    assert not any(tmp_path.iterdir())


def test_duration_and_depth_edges_are_accepted(tmp_path):
    parser = cli.build_parser()
    times = parser.parse_args(RABI + ["--times", f"{cli.MAX_TIME_S!r}:0:5"]).times
    assert (times[0], times[-1]) == (cli.MAX_TIME_S, 0.0)
    assert parser.parse_args(["rb", "--depths", "0,1,2"]).depths == (0, 1, 2)
    assert parser.parse_args(["rb", "--depths", f"0,{cli.MAX_DEPTH}"]).depths == (0, cli.MAX_DEPTH)
    args = parser.parse_args(["fingerpinch", "--pairs", "12,23", "--v1", "0:1:2",
                              "--v2", f"0:1:{cli.MAX_SWEEP_POINTS}"])
    assert args.v2.size == cli.MAX_SWEEP_POINTS
    assert parser.parse_args(["irb", "--gate-phi", "0", "--gate-theta", "1"]).depths == (
        1, 2, 4, 8, 12, 16, 24)
    # the longest durations run through the kernel and the fit without
    # an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(RABI + ["--times", "0:1:40", "--out", str(tmp_path / "rabi.json")])
    assert code in (0, 3)


def test_theta_star_without_a_germ_exponent_is_a_usage_error(tmp_path, capsys):
    # used to exit 4 as a config error that did not name the flag
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--phi-star", "0", "--theta-star", "3.14159", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--theta-star" in err and "germ exponent" in err
    assert not out.exists()
    # an angle without a germ exponent is named before an axis with no pairs
    assert run(["calibrate", "--phi-star", "1.5707963267948966", "--theta-star", "1.0",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("aeonsim: --theta-star: ") and "--pairs" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "", "1.5", "-3"])
def test_env_seed_is_checked_as_the_flag_is(value, monkeypatch, capsys):
    # AEON_SEED=abc used to exit 4 as a config error
    monkeypatch.setenv("AEON_SEED", value)
    assert run(["spectrum"]) == 2
    err = capsys.readouterr().err
    assert "--seed (from AEON_SEED): must be a non-negative integer" in err
    monkeypatch.setenv("AEON_SEED", "7")
    assert run(["spectrum", "--out", os.devnull]) == 0


STAGE_0 = "stage 0 (N=1): the exchange of pair 12 is not finite over the sweep window centred"


@pytest.mark.parametrize("argv,doc,message", [
    (CAL_PI + ["--window", "1e300"], None, f"{STAGE_0} at 0.0765503 V"),
    (CAL_PI, {"exchange_law": {"12": {"A_hz": 1e-308}}}, f"{STAGE_0} at inf V"),
    (["calibrate", "--phi-star", "2", "--theta-star", "1.5707963267948966", "--grid", "5",
      "--schedule", "1,2", "--shots", "2"],
     {"exchange_law": {"23": {"A_hz": 1e300, "B_per_v": 1e10, "C": 1e300},
                       "13": {"A_hz": 1e-10, "B_per_v": 1e-300, "C": 700}}},
     "the peak's spread overflows"),
    (["calibrate", "--grid", "9", "--schedule", "1,2", "--phi-star", "0",
      "--theta-star", "3.141592653589793"],
     {"exchange_law": {"12": {"A_hz": 9.991457049459439e+299, "C": 0.0},
                       "13": {"B_per_v": 2.2250738585072014e-308}}},
     "the peak's spread overflows"),
])
def test_calibration_sweep_that_overflows_fails_without_warnings(argv, doc, message, tmp_path,
                                                                 capsys):
    # the first two used to leak five RuntimeWarnings before the fidelity
    # map's check, the third to write a stage stderr of Infinity and exit 0,
    # the fourth to leak an overflow warning from the peak centroid's sums
    if doc is not None:
        (tmp_path / "dev.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(tmp_path / "dev.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "cal.json")]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert not (tmp_path / "cal.json").exists()


@pytest.mark.parametrize("argv", [
    ["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--shots", "2"],
    ["rb", "--engine", "device", "--shots", "2", "--depths", "1,2,4", "--sequences", "2"],
])
def test_noise_draw_that_overflows_is_a_numeric_failure_naming_the_noise(argv, tmp_path, capsys):
    # used to exit 2, a usage error, with "Hamiltonian is not finite" alone
    (tmp_path / "dev.json").write_text(json.dumps({"noise": {"voltage_sigma_v": 1.0}}))
    argv = argv + ["--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    err = capsys.readouterr().err
    assert "noise.voltage_sigma_v" in err and "noise.gradient_sigma_hz" in err
    assert not (tmp_path / "out.json").exists()


HUGE_LAW = {"exchange_law": {"12": {"A_hz": 1e300, "B_per_v": 1}}}


def test_rabi_coupling_that_overflows_the_kernel_is_a_usage_error_naming_v(tmp_path, capsys):
    # J = 4e307 Hz is finite, but its phase over the pulse is not: this used
    # to exit 3 with "evolution phase (energy times duration) is not finite"
    (tmp_path / "dev.json").write_text(json.dumps(HUGE_LAW))
    argv = ["rabi", "--pair", "12", "--v", "17.5", "--times", "0:200e-9:20",
            "--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "rabi.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--v: the exchange of pair 12 at this barrier voltage" in err and "overflows the pulse kernel" in err
    assert not (tmp_path / "rabi.json").exists()
    # a voltage the kernel can play still runs
    assert run(argv[:4] + ["1"] + argv[5:]) in (0, 3)
    assert "--v" not in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--shots", "2"]])
def test_cross_talk_that_overflows_the_kernel_names_cross_and_the_laws(extra, tmp_path, capsys):
    # cross-talk from the -673 V barrier of pair 12 overflows another pair's
    # law; this used to exit 3 with "Hamiltonian is not finite" alone
    (tmp_path / "dev.json").write_text(json.dumps(HUGE_LAW))
    argv = ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "2",
            "--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "rb.json")] + extra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--cross"]) == 3
        err = capsys.readouterr().err
        assert "--cross" in err and "exchange_law" in err and "noise" not in err
        assert not (tmp_path / "rb.json").exists()
        assert run(argv) == 0  # the same laws without cross-talk


@pytest.mark.parametrize("argv,flag", [
    (["fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3",
      "--duration", "1e300"], "--duration: evolution phase"),
])
def test_kernel_side_usage_errors_name_the_flag(argv, flag, tmp_path, capsys):
    # used to exit 2 with a message that named no flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


GATE_PI = ["--gate-phi", "0", "--gate-theta", "3.141592653589793"]


@pytest.mark.parametrize("argv", [
    ["rb"], ["irb"] + GATE_PI, ["irb", "--shots", "2"] + GATE_PI, ["rb", "--cross"],
])
def test_device_idle_that_overflows_the_kernel_names_idle(argv, tmp_path, capsys):
    # the idle plays with every barrier off, so its phase is the gradients'
    # Zeeman energy over --idle: this used to exit 3 naming no input
    (tmp_path / "dev.json").write_text(json.dumps({"fields": {"gradients_hz": [1e20, 0, 0]}}))
    argv = argv + ["--engine", "device", "--depths", "1,2,4", "--sequences", "1",
                   "--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "rb.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--idle", "1e300"]) == 2
        assert capsys.readouterr().err.startswith(
            "aeonsim: --idle: evolution phase (energy times duration) is not finite")
        assert not (tmp_path / "rb.json").exists()
        assert run(argv + ["--idle", "1e-30"]) == 0  # an idle the kernel can play


@pytest.mark.parametrize("extra", [["--duration", "1e-9"], []])
def test_fingerpinch_coupling_that_overflows_the_kernel_names_the_voltages(extra, tmp_path,
                                                                           capsys):
    # the couplings at the sweep corners overflow the kernel at any duration:
    # this used to blame --duration (exit 2), or without it to exit 3
    # naming no input
    laws = {"exchange_law": dict.fromkeys(("12", "23"), {"A_hz": 1e300, "B_per_v": 1})}
    (tmp_path / "dev.json").write_text(json.dumps(laws))
    argv = ["fingerpinch", "--pairs", "12,23", "--v1", "17:17.5:3", "--v2", "17:17.5:3",
            "--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "fp.csv")] + extra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("aeonsim: --v1/--v2: the exchange of pairs 12 and 23 at these barrier "
                          "voltages overflows the pulse kernel")
    assert "--duration" not in err
    assert not (tmp_path / "fp.csv").exists()


def test_fingerpinch_config_pulse_that_overflows_the_kernel_names_pulse_s(tmp_path, capsys):
    # couplings the kernel plays at zero duration, over a 1e300 s pulse
    (tmp_path / "dev.json").write_text(json.dumps({"pulse_s": 1e300}))
    argv = ["fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3",
            "--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "fp.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
        assert "config pulse_s: evolution phase" in capsys.readouterr().err
        assert run(argv + ["--duration", "1e-8"]) == 0  # the flag wins over the config


@pytest.mark.parametrize("argv", [
    ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1"],
    ["calibrate", "--phi-star", "0", "--theta-star", "1.5707963267948966"],
])
def test_exchange_law_inverse_that_underflows_names_the_law_and_pulse_s(argv, tmp_path, capsys):
    # J = theta / (2 pi pulse_s) over A_hz underflows to 0 for pair 13: this
    # used to exit 2 with "math domain error" from the law's logarithm
    (tmp_path / "dev.json").write_text(json.dumps(
        {"exchange_law": {"13": {"A_hz": 1e24}}, "pulse_s": 1e299}))
    argv = argv + ["--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("aeonsim: exchange_law.13: ") and "pulse_s" in err
    assert not (tmp_path / "out.json").exists()


DEVICE_RB = ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1"]
DEVICE_IRB = ["irb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1",
              "--gate-phi", "0", "--gate-theta", "3.141592653589793"]


@pytest.mark.parametrize("argv,doc,name", [
    (DEVICE_RB, {"exchange_law": {"12": {"A_hz": 5e-324}}}, "exchange_law.12"),
    (DEVICE_IRB, {"exchange_law": {"12": {"A_hz": 5e-324}}}, "exchange_law.12"),
    (DEVICE_RB, {"pulse_s": 5e-324}, "pulse_s"),
    (DEVICE_IRB, {"pulse_s": 5e-324}, "pulse_s"),
    (CAL_PI, {"pulse_s": 5e-324}, "pulse_s"),
    (DEVICE_RB, {"exchange_law": {"12": {"B_per_v": 1e-300, "C": 1e300}}}, "exchange_law.12"),
])
def test_exchange_that_overflows_names_the_config_key(argv, doc, name, tmp_path, capsys):
    # J / A_hz, or the rate theta / (2 pi pulse_s), overflows to inf: device
    # RB and IRB used to exit 3 with "Hamiltonian is not finite" alone, and
    # calibrate to exit 2 with "exchange must be positive to invert the law".
    # A law inverse of -inf used to switch the coupling off and exit 0
    (tmp_path / "dev.json").write_text(json.dumps(doc))
    argv = argv + ["--config", str(tmp_path / "dev.json"), "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"aeonsim: {name}: ")
    assert ("A_hz" if name.startswith("exchange_law") else "lengthen pulse_s") in err
    assert not (tmp_path / "out.json").exists()


def test_sum_curve_fit_at_the_depth_cap_ignores_the_warning_filter(tmp_path):
    # a trial lambda above 1 overflows lambda^N at depth 100,000: the fit
    # used to leak overflow warnings, and under -W error to fail
    argv = ["irb", "--engine", "channel", "--depths", f"0,1,{cli.MAX_DEPTH}", "--sequences", "1",
            "--shots", "2", "--gate-depol", "0.5", "--gate-phi", "0", "--gate-theta", "0", "--out"]
    for action, name in (("error", "a.json"), ("ignore", "b.json")):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert run(argv + [str(tmp_path / name)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


IRB = ["irb", "--depths", "1,2,4", "--sequences", "2"]


@pytest.mark.parametrize("phi,theta,code", [
    # pi/2 about +z: the w and z components move by 0.354 of the angle offset
    (math.pi / 2, math.pi / 2, 0),
    (math.pi / 2, math.pi / 2 + 1e-9, 0),  # 3.5e-10 from the element; used to exit 3
    (math.pi / 2, math.pi / 2 + 2.5e-9, 0),  # 8.8e-10
    (math.pi / 2, math.pi / 2 + 3.2e-9, 3),  # 1.13e-9
    (math.pi / 2, math.pi / 2 + 1e-6, 3),
    # pi about -z: w moves by half the offset
    (-math.pi / 2, math.pi + 1e-9, 0),  # 5e-10
    (-math.pi / 2, math.pi + 1.9e-9, 0),  # 9.5e-10
    (-math.pi / 2, math.pi + 2.2e-9, 3),  # 1.1e-9
])
def test_interleaved_gate_is_a_clifford_within_1e_9(phi, theta, code, tmp_path):
    argv = IRB + ["--engine", "channel", "--gate-depol", "1e-3", f"--gate-phi={phi!r}",
                  f"--gate-theta={theta!r}", "--out", str(tmp_path / "irb.json")]
    assert run(argv) == code


@pytest.mark.parametrize("phi,theta", [
    (math.pi / 2, math.pi / 2), (0.0, math.pi / 2), (-math.pi / 2, math.pi), (math.pi, 1.5 * math.pi),
])
def test_both_engines_play_a_gate_of_either_sign(phi, theta, tmp_path):
    # a negative angle is the positive one about the opposite axis
    d = dev.default_device()
    assert bench.realize_pulse(d, rot.AxisAngle(phi, -theta)) == bench.realize_pulse(
        d, rot.AxisAngle(phi + math.pi, theta))
    # --gate-depol is the channel engine's alone
    for engine in (["device"], ["channel", "--gate-depol", "1e-3"]):
        for sign in (1.0, -1.0):
            out = tmp_path / f"{engine[0]}{sign}.json"
            argv = IRB + ["--engine", *engine, f"--gate-phi={phi!r}",
                          f"--gate-theta={sign * theta!r}", "--out", str(out)]
            assert run(argv) == 0, (engine, sign)
            assert json.loads(out.read_text())["gate"] == [phi, sign * theta]


@pytest.mark.parametrize("argv,flag", [
    (["spectrum", "--out", "{bad}"], "--out"),
    (["rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--out", "{ok}",
      "--emit-plot-data", "{bad}"], "--emit-plot-data"),
    (["rb", "--engine", "channel", "--depths", "1,2,4", "--sequences", "2", "--out", "{ok}",
      "--emit-plot-data", "{bad}"], "--emit-plot-data"),
])
def test_unwritable_output_names_its_flag(argv, flag, tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x.csv")
    argv = [a.format(bad=bad, ok=tmp_path / "ok.json") for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aeonsim: {flag}: ") and bad in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--j12", "1e6"],
    ["fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3"],
    CAL_PI + ["--grid", "5", "--schedule", "1"],
    IRB + ["--engine", "channel", "--gate-phi", "0", "--gate-theta", "3.141592653589793"],
])
def test_plot_data_is_refused_where_it_is_not_written(argv, tmp_path, capsys):
    # each of these used to exit 0 and write no plot file
    argv = argv + ["--out", str(tmp_path / "out"), "--emit-plot-data", str(tmp_path / "plot.csv")]
    assert run(argv) == 2
    assert "--emit-plot-data" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
