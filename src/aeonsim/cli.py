"""Command-line interface.

Commands: spectrum, fingerpinch, rabi, calibrate, rb, irb.  Outputs are
CSV with a unit-annotated header row or JSON with sorted keys; runs with
the same inputs and seed are byte-identical.  Exit codes: 0 success,
2 usage error, 3 numeric or fit failure, 4 configuration error.

Environment overrides (flags win over them): AEON_CONFIG, AEON_SEED,
AEON_OUT.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import benchmarking as bench
from . import calibration as cal
from . import device as dev
from .errors import (
    CalibrationDiverged,
    ConfigError,
    DetectionError,
    FitError,
    ProtocolError,
)
from .hilbert import (  # noqa: F401 - measure_p0 stays bound for perfbench's tracer
    ExchangeVector,
    FieldConfig,
    build_hamiltonian,
    eigenspectrum,
    measure_p0,
)
from .rotations import AxisAngle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

# Largest magnitude (Hz) of a spectrum coupling or field: with all seven at
# this size, 2*pi times their sum stays far inside the float range, so the
# Hamiltonian, its Hermiticity check and its spectrum stay finite.
MAX_SPECTRUM_HZ = 1e300

# Longest rabi duration (s).  The oscillation fit scales each squared
# duration by a decay rate of at most exp(700) ~ 1e304, which stays finite
# up to here.
MAX_TIME_S = 1.0

# Largest ``--depths`` entry and most points of one sweep: caps far above
# any experiment (depths up to 512, sweeps up to 100 points) that keep a
# typo from asking for gigabytes.
MAX_DEPTH = 100_000
MAX_SWEEP_POINTS = 1001


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} value {raw!r}: {exc}") from exc


def parse_linspace(text: str) -> np.ndarray:
    """Parse an inclusive sweep 'start:stop:npoints' into a grid of at most
    :data:`MAX_SWEEP_POINTS` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:npoints, got {text!r}")
    start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep endpoints must be finite, got {text!r}")
    if n < 2:
        raise ValueError(f"sweep needs at least 2 points, got {n}")
    if n > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep must have at most {MAX_SWEEP_POINTS} points, got {n}")
    return np.linspace(start, stop, n)


def _sweep(text: str) -> np.ndarray:
    """Argument type for an inclusive sweep ``start:stop:npoints``."""
    try:
        return parse_linspace(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _span(text: str) -> np.ndarray:
    """Argument type for a sweep ``start:stop:npoints`` over a range of
    nonzero width."""
    grid = _sweep(text)
    if grid[0] == grid[-1]:
        raise argparse.ArgumentTypeError(f"sweep endpoints must differ, got {text!r}")
    return grid


def _times(text: str) -> np.ndarray:
    """Argument type for the ``rabi`` duration sweep: a :func:`_span` with
    both endpoints in [0, :data:`MAX_TIME_S`]."""
    grid = _span(text)
    if not (0.0 <= min(grid[0], grid[-1]) and max(grid[0], grid[-1]) <= MAX_TIME_S):
        raise argparse.ArgumentTypeError(
            f"durations must lie in [0, {MAX_TIME_S:g}] s, got {text!r}"
        )
    return grid


def _int(lo: int, hi: int | None = None):
    """Argument type for an integer >= ``lo`` and, given ``hi``, <= ``hi``."""
    names = {0: "a non-negative integer", 1: "a positive integer"}
    want = names.get(lo, f"an integer >= {lo}") if hi is None else f"an integer in [{lo}, {hi}]"

    def integer(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < lo or (hi is not None and n > hi):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return n

    return integer


def _ints(lo: int, hi: int | None = None):
    """Argument type for a comma-separated list of integers >= ``lo`` and,
    given ``hi``, <= ``hi``."""
    want = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def ints(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(x) for x in text.split(","))
        except ValueError:
            values = ()
        if not values or min(values) < lo or (hi is not None and max(values) > hi):
            raise argparse.ArgumentTypeError(
                f"must be a comma-separated list of integers {want}, got {text!r}"
            )
        return values

    return ints


def _real(lo: float = -math.inf, hi: float = math.inf, *, open_lo: bool = False):
    """Argument type for a finite float in [``lo``, ``hi``], or in
    (``lo``, ``hi``] with ``open_lo``."""
    left = "(" if open_lo else "["
    right = "]" if math.isfinite(hi) else ")"
    want = f"lie in {left}{lo:g}, {hi:g}{right}" if math.isfinite(lo) else "be finite"

    def real(text: str) -> float:
        x = float(text)
        if not (math.isfinite(x) and lo <= x <= hi) or (open_lo and x == lo):
            raise argparse.ArgumentTypeError(f"must {want}, got {text}")
        return x

    return real


def _two_pairs(text: str) -> tuple[str, str]:
    """Argument type for two distinct exchange pairs, e.g. ``12,23``."""
    pairs = tuple(text.split(","))
    if len(pairs) != 2 or pairs[0] == pairs[1] or not set(pairs) <= set(dev.PAIR_ORDER):
        raise argparse.ArgumentTypeError(
            f"must be two distinct pairs of {', '.join(dev.PAIR_ORDER)}, got {text!r}"
        )
    return pairs


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_exchange(device: dev.DeviceModel, v_x, names: dict, apply_cross: bool = False) -> None:
    """Usage error if an exchange law overflows at barrier voltages
    ``v_x`` (pair order, shape ``(..., 3)``); ``names`` gives, per swept
    pair, the argument that sets its voltage.

    Each coupling is monotone in each barrier voltage, with or without
    cross-talk, so the corners of a voltage grid bound it.
    """
    j = device.exchange_from_voltages(v_x, apply_cross=apply_cross)
    for pair, name in names.items():
        if not np.all(np.isfinite(getattr(j, f"j{pair}"))):
            raise ValueError(
                f"{name}: the exchange law of pair {pair} overflows at these barrier voltages"
            )


# ---------------------------------------------------------------------------
# Commands


def _cmd_spectrum(args, device: dev.DeviceModel) -> int:
    j = ExchangeVector(j12=args.j12, j23=args.j23, j13=args.j13)
    fields = FieldConfig(
        f_uniform_hz=args.f_uniform,
        gradients_hz=(args.b1, args.b2, args.b3),
    )
    h = build_hamiltonian(j, fields)
    energies, _ = eigenspectrum(h)
    rows = [(k, float(e)) for k, e in enumerate(energies)]
    _write_text(args.out, _csv(["level (1)", "energy (rad/s)"], rows))
    return EXIT_OK


def _cmd_fingerpinch(args, device: dev.DeviceModel) -> int:
    pairs, v1, v2 = args.pairs, args.v1, args.v2
    corners = np.full((2, 2, 3), -np.inf)
    corners[..., dev.PAIR_ORDER.index(pairs[0])] = v1[[0, -1]][:, None]
    corners[..., dev.PAIR_ORDER.index(pairs[1])] = v2[[0, -1]]
    names = {pairs[0]: "--v1", pairs[1]: "--v2"}
    if args.cross:
        names = dict.fromkeys(pairs, "--v1/--v2 with --cross")
    _check_exchange(device, corners, names, args.cross)
    p0 = dev.fingerpinch_map(
        device,
        pairs,
        v1,
        v2,
        hadamard=args.hadamard,
        duration_s=args.duration,
        apply_cross=args.cross,
    )
    v1_cells = v1.tolist()
    rows = [(a, b, p) for b, row in zip(v2.tolist(), p0.tolist()) for a, p in zip(v1_cells, row)]
    header = [f"v_x{pairs[0]} (V)", f"v_x{pairs[1]} (V)", "p0 (1)"]
    _write_text(args.out, _csv(header, rows))
    return EXIT_OK


def _cmd_rabi(args, device: dev.DeviceModel) -> int:
    times = args.times
    v_x = np.full(3, -np.inf)
    v_x[dev.PAIR_ORDER.index(args.pair)] = args.v
    _check_exchange(device, v_x, {args.pair: "--v"})
    # one single-pulse train per duration
    pulses = [dev.PulseSpec(v_x=tuple(v_x), duration_s=float(t)) for t in times]
    trains = np.arange(times.size)[:, None]
    p0 = device.survival(pulses, trains, times.shape, args.shots, args.seed, (101,))
    fit = bench.fit_oscillation_decay(times, p0)
    doc = {
        "pair": args.pair,
        "v_x": args.v,
        "fit": {
            "baseline": fit.baseline,
            "amplitude": fit.amplitude,
            "frequency_hz": fit.omega / (2.0 * math.pi),
            "phase_rad": fit.phase,
            "t_decay_s": fit.t_decay_s if math.isfinite(fit.t_decay_s) else None,
            "n_oscillations": (
                fit.n_oscillations if math.isfinite(fit.n_oscillations) else None
            ),
        },
    }
    _write_text(args.out, _json_doc(doc))
    if args.emit_plot_data:
        rows = [(float(t), float(p)) for t, p in zip(times, p0)]
        _write_text(args.emit_plot_data, _csv(["time (s)", "p0 (1)"], rows))
    return EXIT_OK


def _cmd_calibrate(args, device: dev.DeviceModel) -> int:
    try:
        cal.choose_germ_exponent(args.theta_star)
    except ConfigError as exc:
        raise ValueError(f"--theta-star: {exc}") from exc
    options = cal.CalibrationOptions(
        schedule=args.schedule,
        grid_points=args.grid,
        window0_v=args.window,
        shots=args.shots,
        seed=args.seed,
    )
    result = cal.run_calibration(
        device, args.phi_star, args.theta_star, options=options, pairs=args.pairs
    )
    _write_text(args.out, result.to_json() + "\n")
    return EXIT_OK


def _rb_common(args, device, interleaved: AxisAngle | None):
    cfg = bench.RbConfig(
        depths=args.depths,
        n_sequences=args.sequences,
        shots=args.shots,
        seed=args.seed,
        idle_s=args.idle,
        apply_cross=args.cross,
    )
    inject = bench.InjectedError(
        depol_per_pulse=args.inject_depol,
        leak_per_pulse=args.inject_leak,
        gate_depol=args.gate_depol,
    )
    if interleaved is None:
        data = bench.run_rb(device, cfg, engine=args.engine, inject=inject)
        fit = bench.fit_rb(data)
        out = bench.rb_report(data, fit)
    else:
        res = bench.interleaved_rb(
            device, cfg, interleaved, engine=args.engine, inject=inject
        )
        doc = {
            "gate": [interleaved.phi, interleaved.theta],
            "gate_error": res["gate_error"],
            "gate_leakage": res["gate_leakage"],
            "reference": {
                "p": res["reference"].p,
                "error_per_clifford": res["reference"].err_per_clifford,
                "leakage_per_clifford": res["reference"].leak_per_clifford,
            },
            "interleaved": {
                "p": res["interleaved"].p,
                "error_per_clifford": res["interleaved"].err_per_clifford,
                "leakage_per_clifford": res["interleaved"].leak_per_clifford,
            },
        }
        out = _json_doc(doc)
    _write_text(args.out, out if out.endswith("\n") else out + "\n")
    if args.emit_plot_data and interleaved is None:
        rows = [
            (int(n), float(np.mean(data.surv_identity[i])), float(np.mean(data.surv_flip[i])))
            for i, n in enumerate(data.depths)
        ]
        _write_text(
            args.emit_plot_data,
            _csv(["depth (1)", "survival_identity (1)", "survival_flip (1)"], rows),
        )
    return EXIT_OK


def _cmd_rb(args, device: dev.DeviceModel) -> int:
    return _rb_common(args, device, None)


def _cmd_irb(args, device: dev.DeviceModel) -> int:
    gate = AxisAngle(args.gate_phi, args.gate_theta)
    return _rb_common(args, device, gate)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeonsim",
        description="Simulation and calibration toolchain for exchange-only "
        "triple-dot spin qubits.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="device config JSON")
    common.add_argument("--seed", type=_int(0), default=None, help="sampling seed (>= 0)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--emit-plot-data", default=None, help="also write tidy plot CSV here"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="triple-dot energy levels")
    hz = _real(-MAX_SPECTRUM_HZ, MAX_SPECTRUM_HZ)
    p.add_argument("--j12", type=hz, default=0.0, help="J12 in Hz")
    p.add_argument("--j23", type=hz, default=0.0, help="J23 in Hz")
    p.add_argument("--j13", type=hz, default=0.0, help="J13 in Hz")
    p.add_argument("--f-uniform", type=hz, default=0.0, help="uniform Zeeman (Hz)")
    p.add_argument("--b1", type=hz, default=0.0, help="dot-1 gradient (Hz)")
    p.add_argument("--b2", type=hz, default=0.0, help="dot-2 gradient (Hz)")
    p.add_argument("--b3", type=hz, default=0.0, help="dot-3 gradient (Hz)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "fingerpinch", parents=[common], help="two-barrier survival map"
    )
    p.add_argument("--pairs", type=_two_pairs, required=True, help="swept pairs, e.g. 12,23")
    p.add_argument("--v1", type=_sweep, required=True, help="first sweep start:stop:n (V)")
    p.add_argument("--v2", type=_sweep, required=True, help="second sweep start:stop:n (V)")
    p.add_argument("--hadamard", action="store_true", help="sandwich with Hadamards")
    p.add_argument("--duration", type=_real(0.0), default=None, help="pulse length (s)")
    p.add_argument("--cross", action="store_true", help="apply barrier cross-talk")
    p.set_defaults(func=_cmd_fingerpinch)

    p = sub.add_parser("rabi", parents=[common], help="single-pair duration sweep")
    p.add_argument("--pair", choices=dev.PAIR_ORDER, required=True, help="driven pair")
    p.add_argument("--v", type=_real(), required=True, help="barrier voltage (V)")
    p.add_argument("--times", type=_times, required=True,
                   help=f"duration sweep start:stop:n (s), within [0, {MAX_TIME_S:g}]")
    p.add_argument("--shots", type=_int(1), default=None)
    p.set_defaults(func=_cmd_rabi)

    p = sub.add_parser("calibrate", parents=[common], help="germ peak tracking")
    p.add_argument("--phi-star", type=_real(), required=True, help="target axis (rad)")
    p.add_argument("--theta-star", type=_real(), required=True, help="target angle (rad)")
    p.add_argument("--schedule", type=_ints(1), default="1,2,4,8,16,24")
    p.add_argument("--grid", type=_int(1, MAX_SWEEP_POINTS), default=21,
                   help="points per sweep axis")
    p.add_argument("--window", type=_real(0.0, open_lo=True), default=0.030,
                   help="first window (V)")
    p.add_argument("--shots", type=_int(1), default=None)
    p.add_argument("--pairs", type=_two_pairs, default=None,
                   help="swept pairs override, e.g. 12,23")
    p.set_defaults(func=_cmd_calibrate)

    def add_rb_args(p):
        p.add_argument("--depths", type=_ints(0, MAX_DEPTH), default="1,2,4,8,12,16,24",
                       help=f"sequence depths, comma-separated integers in [0, {MAX_DEPTH}]")
        p.add_argument("--sequences", type=_int(1), default=20)
        p.add_argument("--shots", type=_int(1), default=None)
        p.add_argument("--idle", type=_real(0.0), default=0.0, help="idle between Cliffords (s)")
        p.add_argument("--cross", action="store_true")
        p.add_argument("--engine", choices=("device", "channel"), default="device")
        # a depolarizing rate above 0.5 gives a negative Bloch shrink factor
        p.add_argument("--inject-depol", type=_real(0.0, 0.5), default=0.0)
        p.add_argument("--inject-leak", type=_real(0.0, 1.0), default=0.0)
        p.add_argument("--gate-depol", type=_real(0.0, 0.5), default=0.0)

    p = sub.add_parser("rb", parents=[common], help="blind randomized benchmarking")
    add_rb_args(p)
    p.set_defaults(func=_cmd_rb)

    p = sub.add_parser("irb", parents=[common], help="interleaved benchmarking")
    add_rb_args(p)
    p.add_argument("--gate-phi", type=_real(), required=True)
    p.add_argument("--gate-theta", type=_real(), required=True)
    p.set_defaults(func=_cmd_irb)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.config is None:
            args.config = _env_default("AEON_CONFIG", str, None)
        if args.seed is None:
            args.seed = _env_default("AEON_SEED", int, 0)
            if args.seed < 0:
                raise ValueError(
                    f"--seed (from AEON_SEED) must be a non-negative integer, got {args.seed}"
                )
        if args.out is None:
            args.out = _env_default("AEON_OUT", str, None)
        device = (
            dev.default_device() if args.config is None else dev.load_device(args.config)
        )
        return args.func(args, device)
    except ConfigError as exc:
        print(f"aeonsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, DetectionError, CalibrationDiverged, ProtocolError) as exc:
        print(f"aeonsim: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"aeonsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
