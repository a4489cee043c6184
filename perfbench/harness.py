"""The benchmark's run loop, correctness tally and metrics.

A run measures set-up in fresh interpreters, then runs the workload's
experiments serially through ``cli.main(argv)`` in this process: a warm-up
pass whose artifacts go through the correctness gate, then timed passes
until the run's seconds have gone by.  With tracing on, untraced and traced
passes alternate and the per-layer metrics come from the traced ones.
Every pass after the first must write the same bytes as the first.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import checks
import tracer as tracer_mod
import workloads as wl
from aeonsim import cli
from aeonsim import device as dev

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3  # per kind of pass: untraced, and traced with --trace 1

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
    ("cal_rot_margin", "1"),
    ("rb_epp_margin", "1"),
    ("rabi_freq_margin", "1"),
)
# margin metric -> the accuracy figure it is computed from
MARGINS = {
    "cal_rot_margin": ("cal_rot_err_rad", "rad"),
    "rb_epp_margin": ("rb_epp_rel_err", "1"),
    "rabi_freq_margin": ("rabi_freq_rel_err", "1"),
}


def _per_layer():
    out = []
    for fn in ("build_hamiltonian", "eigenspectrum", "propagator", "evolve_piecewise",
               "evolve_const", "measure_p0"):
        out += [f"hilbert.{fn}.calls", f"hilbert.{fn}.self_s"]
    out.append("hilbert.propagator.distinct_ratio")
    out += [f"device.simulate_pulse.{s}" for s in ("calls", "self_s", "p50_us", "p99_us",
                                                   "wall_share")]
    for fn in ("exchange_from_voltages", "sample_noise", "rng_stream"):
        out += [f"device.{fn}.calls", f"device.{fn}.self_s"]
    out.append("device.fingerpinch_map.self_s")
    for fn in ("compose", "match_element", "so3_matrix", "exchange_to_rotation"):
        out += [f"rotations.{fn}.calls", f"rotations.{fn}.self_s"]
    out.append("rotations.canonical_clifford_group.self_s")
    out += [f"calibration.sweep_fidelity.{s}" for s in ("calls", "self_s", "cells")]
    for fn in ("germ_net_quaternion", "analytic_fidelity", "find_peak"):
        out += [f"calibration.{fn}.calls", f"calibration.{fn}.self_s"]
    out += [f"calibration.fit_final.{s}" for s in ("calls", "self_s", "restarts_used")]
    out += ["benchmarking.run_rb.self_s", "benchmarking.realize_pulse.calls"]
    for fn in ("fit_rb", "fit_oscillation_decay"):
        out += [f"benchmarking.{fn}.calls", f"benchmarking.{fn}.self_s"]
    out += ["benchmarking.fit.failures", "cli.main.self_s", "trace.overhead_s"]
    return tuple(out)


PER_LAYER = _per_layer()
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
              "distinct_ratio": "1", "wall_share": "1", "cells": "count",
              "restarts_used": "count", "failures": "count", "overhead_s": "s"}


def unit_of(name: str) -> str:
    return STAT_UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# Provenance


def _openblas_info() -> list[str]:
    """Config string and thread count of each OpenBLAS numpy/scipy loaded."""
    out = []
    site = Path(numpy.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            get_config = getattr(handle, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                out.append(f"{Path(lib).name}: {get_config().decode().strip()}, "
                           f"threads={get_threads()}")
                break
    return out


def provenance(loadavg) -> dict:
    sha = "none (not a git checkout)"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aeonsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_info() or ["unknown"],
    }


# ---------------------------------------------------------------------------
# Running experiments


class Runner:
    """Runs passes of a workload's experiments and keeps the tally."""

    def __init__(self, experiments, workdir: Path, devices: dict, seed: int, reference_dir):
        self.experiments = experiments
        self.workdir = workdir
        self.devices = devices
        self.reference_dir = reference_dir if seed == wl.DEFAULT_SEED else None
        self.attempted = 0
        self.failures: list[str] = []
        self.figures: dict[str, float] = {}
        self.first: dict[str, tuple] = {}  # name -> (bytes, verdict) of the first pass

    def run_pass(self, tag: str, tracer=None) -> float:
        """One pass; returns the host seconds spent inside ``cli.main``."""
        outdir = self.workdir / tag
        outdir.mkdir(exist_ok=True)
        total = 0.0
        outcomes = []
        with tracer if tracer is not None else contextlib.nullcontext():
            for exp in self.experiments:
                path = outdir / exp.out
                if path.exists():
                    path.unlink()
                argv = list(exp.argv) + ["--out", str(path)]
                if tracer is not None:
                    tracer.experiment = exp.name
                error = None
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # an uncaught exception fails the experiment
                    code, error = None, f"raised {type(exc).__name__}: {exc}"
                total += time.perf_counter() - t0
                if code not in (0, None):
                    error = f"exit code {code}"
                outcomes.append((exp, path, error))
        for exp, path, error in outcomes:
            self.attempted += 1
            if error is None:
                error = self._check(exp, path)
            if error is not None:
                self.failures.append(f"{tag}/{exp.name}: {error}")
        return total

    def _check(self, exp, path: Path) -> str | None:
        data = path.read_bytes() if path.exists() else None
        if exp.name in self.first:
            # every later pass, traced or not, must write the same bytes,
            # which then get the first pass's verdict
            first_data, verdict = self.first[exp.name]
            return verdict if data == first_data else "artifact bytes differ from the first pass"
        verdict = self._gate(exp, path)
        self.first[exp.name] = (data, verdict)
        return verdict

    def _gate(self, exp, path: Path) -> str | None:
        try:
            figures = checks.check_artifact(exp, str(path), self.devices[exp.option("--config")])
            for key, value in figures.items():
                self.figures[key] = max(value, self.figures.get(key, 0.0))
            problem = checks.exceeded(figures)
            if problem:
                return problem
            if self.reference_dir is not None:
                checks.compare_to_reference(str(path), str(self.reference_dir / exp.out))
        except checks.CheckFailed as exc:
            return f"check failed: {exc}"
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"check failed: malformed artifact ({type(exc).__name__}: {exc})"
        return None


def measure_setup(first_argv: list[str]) -> list[float]:
    """Seconds from spawning a fresh interpreter to the first experiment
    being ready, once per probe."""
    out = []
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT / "src"), json.dumps(first_argv)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate()
            finally:
                watchdog.cancel()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        out.append(elapsed)
    return out


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(runner: Runner, walls: list[float], setups: list[float]) -> dict:
    failed = len(runner.failures)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / runner.attempted,
    }
    produced = {key for exp in runner.experiments for key in checks.figures_of(exp)}
    for name, (figure, _unit) in MARGINS.items():
        if figure not in produced:
            values[name] = 1.0  # the workload runs no experiment with this figure
        elif figure in runner.figures:
            values[name] = 1.0 - runner.figures[figure] / checks.TOLERANCE[figure]
        else:
            values[name] = 0.0  # the experiment failed before its figure was read
    return values


def per_layer(tracer, traced: list[tuple[int, int, float, dict]], walls: list[float]) -> dict:
    summaries = [tracer_mod.span_summary(tracer.spans, lo, hi) for lo, hi, _w, _s in traced]
    values = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        per_pass = [s.get(span, {"calls": 0, "self_ns": 0, "durations": [], "errors": 0})
                    for s in summaries]
        if stat == "calls":
            values[name] = statistics.mean(p["calls"] for p in per_pass)
        elif stat == "self_s":
            values[name] = statistics.median(p["self_ns"] for p in per_pass) / 1e9
        elif stat in ("p50_us", "p99_us"):
            durs = sorted(d for p in per_pass for d in p["durations"])
            q = 0.50 if stat == "p50_us" else 0.99
            values[name] = durs[min(len(durs) - 1, int(q * len(durs)))] / 1e3 if durs else 0.0
        elif stat == "distinct_ratio":
            ratios = [len(st.get("hilbert.propagator.keys", ())) / p["calls"]
                      for (_lo, _hi, _w, st), p in zip(traced, per_pass) if p["calls"]]
            values[name] = statistics.median(ratios) if ratios else 0.0
        elif stat == "wall_share":
            values[name] = statistics.median(
                tracer_mod.outermost_ns(tracer.spans, lo, hi, span) / 1e9 / wall
                for lo, hi, wall, _st in traced)
        elif stat in ("cells", "restarts_used"):
            values[name] = statistics.mean(st.get(name, 0) for _lo, _hi, _w, st in traced)
        elif name == "benchmarking.fit.failures":
            values[name] = statistics.mean(
                sum(s.get(f, {}).get("errors", 0) for f in tracer_mod.BENCH_FITS)
                for s in summaries)
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(w for _lo, _hi, w, _st in traced)
                            - statistics.median(walls))
        else:
            raise KeyError(name)
    return values


# ---------------------------------------------------------------------------
# A run


def run(workload: str, seed: int, seconds: float, trace: int, workdir: Path, loadavg):
    """Run one workload; returns the result object and the readable lines."""
    experiments = wl.experiments(workload, seed, str(workdir))
    setups = measure_setup(list(experiments[0].argv) + ["--out", str(workdir / "probe.out")])
    devices = {None: dev.default_device()}
    for exp in experiments:
        config = exp.option("--config")
        if config not in devices:
            devices[config] = dev.load_device(config)
    runner = Runner(experiments, workdir, devices, seed, HERE / "reference")

    runner.run_pass("warmup")
    walls: list[float] = []
    traced: list[tuple[int, int, float, dict]] = []
    tracer = tracer_mod.Tracer() if trace else None
    t_start = time.perf_counter()
    # stop when the next round would end nearer after the deadline than before
    while (len(walls) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
           or time.perf_counter() + (time.perf_counter() - t_start) / (2 * len(walls))
           < t_start + seconds):
        walls.append(runner.run_pass("pass"))
        if trace:
            lo = len(tracer.spans)
            tracer.stats = {}
            wall = runner.run_pass("traced", tracer)
            traced.append((lo, len(tracer.spans), wall, tracer.stats))

    lines = [f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={trace}"]
    for key, val in provenance(loadavg).items():
        lines.append(f"# provenance {key}: {val}")
    for exp in experiments:
        lines.append(f"# experiment {exp.name}: aeonsim {' '.join(exp.argv)}")
    for failure in runner.failures:
        lines.append(f"# FAILED {failure}")
    failed = len(runner.failures)
    lines.append(f"fail_ratio {failed / runner.attempted:.6g} ({failed}/{runner.attempted})")
    for figure, unit in MARGINS.values():
        value = runner.figures.get(figure)
        lines.append(f"{figure} " + ("n/a" if value is None else f"{value:.6g} {unit}"))
    if trace:
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in per_layer(tracer, traced, walls).items()}
        spans_path = workdir.parent / f"trace-{workload}-s{seed}.jsonl.gz"
        tracer.write_jsonl(spans_path)
        lines.append(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        lines.append(f"# untraced passes {len(walls)}, traced passes {len(traced)}")
    else:
        e2e = end_to_end(runner, walls, setups)
        units = dict(END_TO_END)
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}
        lines.append(f"# wall_s is the median of {len(walls)} timed passes; "
                     f"setup_s the median of {len(setups)} fresh interpreters")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return result, lines
