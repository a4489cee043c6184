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
    NonFiniteError,
    ProtocolError,
)
from .hilbert import (  # noqa: F401 - measure_p0 stays bound for perfbench's tracer
    ExchangeVector,
    FieldConfig,
    energy_levels,
    measure_p0,
    sector_propagator,
)
from .rotations import AxisAngle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

# Largest magnitude (Hz) of a spectrum coupling or field: with all seven at
# this size, 2*pi times their sum stays far inside the float range, so the
# Hamiltonian's entries and its levels stay finite.
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


# One row per argument: the commands that take it ("*": all), its flag,
# kind, range, default (``...``: required), the environment variable that
# stands in for an absent flag, and help.  The range is the allowed values
# of a choice, or an interval for a number, each entry of an integer list
# or both endpoints of a sweep (a "span" is a sweep whose endpoints differ).
# :func:`_convert` is every row's argparse ``type``.
FINITE = "(-inf, inf)"
ARGV_SCHEMA = (
    ("*", "--config", "path", None, None, "AEON_CONFIG", "device config JSON"),
    ("*", "--seed", "integer", "[0, inf)", 0, "AEON_SEED", "sampling seed"),
    ("*", "--out", "path", None, None, "AEON_OUT", "output path (default stdout)"),
    ("rabi rb", "--emit-plot-data", "path", None, None, None, "also write tidy plot CSV here"),
    *(("spectrum", flag, "real", f"[-{MAX_SPECTRUM_HZ:g}, {MAX_SPECTRUM_HZ:g}]", 0.0, None, text)
      for flag, text in (("--j12", "J12 (Hz)"), ("--j23", "J23 (Hz)"), ("--j13", "J13 (Hz)"),
                         ("--f-uniform", "uniform Zeeman (Hz)"), ("--b1", "dot-1 gradient (Hz)"),
                         ("--b2", "dot-2 gradient (Hz)"), ("--b3", "dot-3 gradient (Hz)"))),
    ("fingerpinch", "--pairs", "pairs", None, ..., None, "swept pairs, e.g. 12,23"),
    ("fingerpinch", "--v1", "sweep", FINITE, ..., None, "first barrier sweep (V)"),
    ("fingerpinch", "--v2", "sweep", FINITE, ..., None, "second barrier sweep (V)"),
    ("fingerpinch", "--hadamard", "switch", None, False, None, "sandwich with Hadamards"),
    ("fingerpinch", "--duration", "real", "[0, inf)", None, None,
     "pulse length (s), default the device's"),
    ("fingerpinch rb irb", "--cross", "switch", None, False, None, "apply barrier cross-talk"),
    ("rabi", "--pair", "choice", dev.PAIR_ORDER, ..., None, "driven pair"),
    ("rabi", "--v", "real", FINITE, ..., None, "barrier voltage (V)"),
    ("rabi", "--times", "span", f"[0, {MAX_TIME_S:g}]", ..., None, "duration sweep (s)"),
    ("rabi calibrate rb irb", "--shots", "integer", "[1, inf)", None, None,
     "shots per point, default exact probabilities"),
    ("calibrate", "--phi-star", "real", FINITE, ..., None, "target axis (rad)"),
    ("calibrate", "--theta-star", "real", FINITE, ..., None, "target angle (rad)"),
    ("calibrate", "--schedule", "integers", "[1, inf)", "1,2,4,8,16,24", None,
     "germ repetitions per stage"),
    ("calibrate", "--grid", "integer", f"[1, {MAX_SWEEP_POINTS}]", 21, None,
     "points per sweep axis"),
    ("calibrate", "--window", "real", "(0, inf)", 0.030, None, "first window (V)"),
    ("calibrate", "--pairs", "pairs", None, None, None,
     "swept pairs, needed only on a single-coupling axis"),
    ("rb irb", "--depths", "integers", f"[0, {MAX_DEPTH}]", "1,2,4,8,12,16,24", None,
     "sequence depths"),
    ("rb irb", "--sequences", "integer", "[1, inf)", 20, None, "random sequences per depth"),
    ("rb irb", "--idle", "real", "[0, inf)", 0.0, None, "idle between Cliffords (s)"),
    ("rb irb", "--engine", "choice", ("device", "channel"), "device", None,
     "pulses on the device model, or injected channels"),
    # a depolarizing rate above 0.5 gives a negative Bloch shrink factor
    ("rb irb", "--inject-depol", "real", "[0, 0.5]", 0.0, None,
     "injected depolarizing rate per pulse"),
    ("rb irb", "--inject-leak", "real", "[0, 1]", 0.0, None, "injected leakage rate per pulse"),
    ("irb", "--gate-depol", "real", "[0, 0.5]", 0.0, None,
     "injected depolarizing rate of the interleaved gate"),
    ("irb", "--gate-phi", "real", FINITE, ..., None, "interleaved gate axis (rad)"),
    ("irb", "--gate-theta", "real", FINITE, ..., None, "interleaved gate angle (rad)"),
)


def _want(kind: str, rng) -> str:
    """What an argument of ``kind`` and range ``rng`` must be, as its usage
    error (``must <this>, got <text>``) and README.md word it."""
    within = "finite" if rng == FINITE else f"in {rng}"
    if kind == "integer":
        return {"[0, inf)": "be a non-negative integer",
                "[1, inf)": "be a positive integer"}.get(rng, f"be an integer {within}")
    if kind == "integers":
        return f"be a comma-separated list of integers {within}"
    if kind == "real":
        return "be finite" if rng == FINITE else f"lie in {rng}"
    if kind in ("sweep", "span"):
        return (f"be a sweep start:stop:n of 2 to {MAX_SWEEP_POINTS} points whose endpoints are "
                f"{'distinct and ' if kind == 'span' else ''}{within}")
    if kind == "pairs":
        return f"be two distinct pairs of {', '.join(dev.PAIR_ORDER)}"
    if kind == "choice":
        return f"be one of {', '.join(rng)}"
    return "take no value" if kind == "switch" else "be a path"


def _convert(kind: str, rng, text: str):
    """The value of an argument of ``kind`` and range ``rng`` from its
    text: the argparse ``type`` of its row, bound by ``functools.partial``.

    Raises:
        argparse.ArgumentTypeError: ``must <want>, got <text>``, with the
            words of :func:`_want`.
    """
    if kind == "path":
        return text
    lo, hi = map(float, rng[1:-1].split(",")) if rng else (0.0, 0.0)

    def inside(x) -> bool:
        return (lo < x if rng[0] == "(" else lo <= x) and (x < hi if rng[-1] == ")" else x <= hi)

    try:
        if kind == "integers":
            value = tuple(map(int, text.split(",")))
            ok = all(map(inside, value))
        elif kind == "pairs":
            value = tuple(text.split(","))
            ok = len(value) == 2 and value[0] != value[1] and set(value) <= set(dev.PAIR_ORDER)
        elif kind in ("sweep", "span"):  # refused before its grid is allocated
            start, stop, n = text.split(":")
            start, stop, n = float(start), float(stop), int(n)
            ok = (inside(start) and inside(stop) and 2 <= n <= MAX_SWEEP_POINTS
                  and (kind == "sweep" or start != stop))
            value = np.linspace(start, stop, n) if ok else None
        else:
            value = (int if kind == "integer" else float)(text)
            ok = inside(value)
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must {_want(kind, rng)}, got {text!r}")
    return value


def _write_text(path: str | None, text: str, flag: str = "--out") -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_exchange(device: dev.DeviceModel, v_x, names: dict, apply_cross: bool,
                    duration_s: float, duration_flag: str | None):
    """Raise an error naming the input that makes the pulse kernel overflow
    at barrier voltages ``v_x`` (pair order, shape ``(..., 3)``); ``names``
    gives, per swept pair, the argument that sets its voltage.

    An exchange law that overflows, or a kernel Hamiltonian that does at
    zero duration, is a usage error naming ``names``.  A kernel phase that
    overflows only over ``duration_s`` is a usage error naming
    ``duration_flag``, or a numeric failure naming the config's ``pulse_s``
    when that is None.  Each coupling is monotone in each barrier voltage,
    with or without cross-talk, so the corners of a voltage grid bound it.
    """
    j = device.exchange_from_voltages(v_x, apply_cross=apply_cross)
    for pair, name in names.items():
        if not np.all(np.isfinite(getattr(j, f"j{pair}"))):
            raise ValueError(
                f"{name}: the exchange law of pair {pair} overflows at these barrier voltages"
            )
    try:
        sector_propagator(j, device.fields, duration_s)
    except NonFiniteError as exc:
        try:  # couplings that fail at zero duration too are to blame
            sector_propagator(j, device.fields, 0.0)
        except NonFiniteError:
            many = len(names) > 1
            raise ValueError(
                f"{'/'.join(dict.fromkeys(names.values()))}: the exchange of "
                f"{'pairs' if many else 'pair'} {' and '.join(names)} at "
                f"{'these barrier voltages' if many else 'this barrier voltage'} "
                f"overflows the pulse kernel ({exc})"
            ) from None
        if duration_flag is None:
            raise NonFiniteError(f"config pulse_s: {exc}") from None
        raise ValueError(f"{duration_flag}: {exc}") from None


# ---------------------------------------------------------------------------
# Commands


def _cmd_spectrum(args, device: dev.DeviceModel) -> int:
    j = ExchangeVector(j12=args.j12, j23=args.j23, j13=args.j13)
    fields = FieldConfig(
        f_uniform_hz=args.f_uniform,
        gradients_hz=(args.b1, args.b2, args.b3),
    )
    rows = [(k, float(e)) for k, e in enumerate(energy_levels(j, fields))]
    _write_text(args.out, _csv(["level (1)", "energy (rad/s)"], rows))
    return EXIT_OK


def _cmd_fingerpinch(args, device: dev.DeviceModel) -> int:
    pairs, v1, v2 = args.pairs, args.v1, args.v2
    corners = dev.barrier_grid(pairs, v1[[0, -1]], v2[[0, -1]])
    names = {pairs[0]: "--v1", pairs[1]: "--v2"}
    if args.cross:
        names = dict.fromkeys(pairs, "--v1/--v2 with --cross")
    duration = device.pulse_s if args.duration is None else args.duration
    _check_exchange(device, corners, names, apply_cross=args.cross, duration_s=duration,
                    duration_flag=None if args.duration is None else "--duration")
    p0 = dev.fingerpinch_map(device, pairs, v1, v2, hadamard=args.hadamard,
                             duration_s=duration, apply_cross=args.cross)
    v1_cells = v1.tolist()
    rows = [(a, b, p) for b, row in zip(v2.tolist(), p0.tolist()) for a, p in zip(v1_cells, row)]
    header = [f"v_x{pairs[0]} (V)", f"v_x{pairs[1]} (V)", "p0 (1)"]
    _write_text(args.out, _csv(header, rows))
    return EXIT_OK


def _cmd_rabi(args, device: dev.DeviceModel) -> int:
    times = args.times
    v_x = np.full(3, -np.inf)
    v_x[dev.PAIR_ORDER.index(args.pair)] = args.v
    _check_exchange(device, v_x, {args.pair: "--v"}, apply_cross=False,
                    duration_s=float(times.max()), duration_flag="--times")
    # one single-pulse train per duration
    pulses = [dev.PulseSpec(v_x=tuple(v_x), duration_s=float(t)) for t in times]
    trains = np.arange(times.size)[:, None]
    p0 = device.survival(pulses, trains, times.shape, args.shots, args.seed, (101,))
    doc = {"pair": args.pair, "v_x": args.v, "fit": bench.fit_oscillation_decay(times, p0)}
    _write_text(args.out, _json_doc(doc))
    if args.emit_plot_data:
        rows = [(float(t), float(p)) for t, p in zip(times, p0)]
        _write_text(args.emit_plot_data, _csv(["time (s)", "p0 (1)"], rows), "--emit-plot-data")
    return EXIT_OK


def _cmd_calibrate(args, device: dev.DeviceModel) -> int:
    try:
        doc = cal.run_calibration(device, args.phi_star, args.theta_star, args.pairs,
                                  schedule=args.schedule, grid_points=args.grid,
                                  window0_v=args.window, shots=args.shots, seed=args.seed)
    except ConfigError as exc:
        # the angle's fault if it has one (checked first), else the axis's or the pairs'
        flags = "--phi-star/--pairs"
        try:
            cal.choose_germ_exponent(args.theta_star)
        except ConfigError:
            flags = "--theta-star"
        raise ValueError(f"{flags}: {exc}") from exc
    _write_text(args.out, _json_doc(doc))
    return EXIT_OK


def _rb_inputs(args, gate_depol: float):
    """The run geometry and injected channels of an rb or irb command.

    Raises:
        ValueError: naming a set flag that only the other engine reads.
    """
    unread = {"channel": {"--cross": args.cross, "--idle": args.idle},
              "device": {"--inject-depol": args.inject_depol, "--inject-leak": args.inject_leak,
                         "--gate-depol": gate_depol}}[args.engine]
    for flag, value in unread.items():
        if value:
            raise ValueError(f"{flag}: does not apply to --engine {args.engine}")
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
        gate_depol=gate_depol,
    )
    return cfg, inject


def _cmd_rb(args, device: dev.DeviceModel) -> int:
    cfg, inject = _rb_inputs(args, 0.0)
    data = bench.run_rb(device, cfg, engine=args.engine, inject=inject)
    doc = bench.rb_report(data, bench.fit_rb(data))
    _write_text(args.out, _json_doc(doc))
    if args.emit_plot_data:
        rows = [(d["N"], d["identity_mean"], d["flip_mean"]) for d in doc["per_depth"]]
        _write_text(
            args.emit_plot_data,
            _csv(["depth (1)", "survival_identity (1)", "survival_flip (1)"], rows),
            "--emit-plot-data",
        )
    return EXIT_OK


def _cmd_irb(args, device: dev.DeviceModel) -> int:
    cfg, inject = _rb_inputs(args, args.gate_depol)
    gate = AxisAngle(args.gate_phi, args.gate_theta)
    try:  # the one protocol fault of an irb run is a gate outside the group
        doc = bench.interleaved_rb(device, cfg, gate, engine=args.engine, inject=inject)
    except ProtocolError as exc:
        raise ProtocolError(f"--gate-phi/--gate-theta: {exc}") from exc
    _write_text(args.out, _json_doc(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


# The commands: function and help.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "triple-dot energy levels"),
    "fingerpinch": (_cmd_fingerpinch, "two-barrier survival map"),
    "rabi": (_cmd_rabi, "single-pair duration sweep"),
    "calibrate": (_cmd_calibrate, "germ peak tracking"),
    "rb": (_cmd_rb, "blind randomized benchmarking"),
    "irb": (_cmd_irb, "interleaved benchmarking"),
}


class _Parser(argparse.ArgumentParser):
    """argparse, but the token after a flag that takes a value is that value
    even when it starts with ``-`` (argparse alone passes only plain
    negative numbers such as ``-3``, so ``--b1 -3e4`` would be two flags),
    unless it is a flag of the same parser, ``-h`` and ``--help`` included.
    Subparsers are of this class too, and ``parse_args`` and subparsers
    pass ``args`` (None for ``sys.argv``)."""

    def parse_known_args(self, args, namespace=None):
        flags, tokens = self._option_string_actions, []
        for token in sys.argv[1:] if args is None else args:
            if tokens and token[:1] == "-" and token not in flags \
                    and getattr(flags.get(tokens[-1]), "nargs", 0) is None:
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The argv parser: one subcommand per command, each taking the rows of
    :data:`ARGV_SCHEMA` that name it.  An argument with an environment
    variable parses to None when its flag is absent."""
    parser = _Parser(
        prog="aeonsim", allow_abbrev=False,
        description="Simulation and calibration toolchain for exchange-only "
        "triple-dot spin qubits.",
    )
    arguments = {name: [] for name in ("*", *_COMMANDS)}
    for names, flag, kind, rng, default, env, text in ARGV_SCHEMA:
        options = {"help": text}
        if kind == "switch":
            options["action"] = "store_true"
        elif kind == "choice":
            options["choices"] = rng
        else:
            options["type"] = functools.partial(_convert, kind, rng)
        if default is ...:
            options["required"] = True
        else:
            options["default"] = None if env else default
        for name in names.split():
            arguments[name].append((flag, options))
    # the arguments of every command go in once, and each command copies them
    common = argparse.ArgumentParser(add_help=False)
    for flag, options in arguments["*"]:
        common.add_argument(flag, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        command = sub.add_parser(name, help=text, parents=[common], allow_abbrev=False)
        for flag, options in arguments[name]:
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
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
        for _, flag, kind, rng, default, env, _ in ARGV_SCHEMA:
            dest = flag[2:].replace("-", "_")
            if env is not None and getattr(args, dest) is None:
                raw = os.environ.get(env)
                try:
                    setattr(args, dest, default if raw is None else _convert(kind, rng, raw))
                except argparse.ArgumentTypeError as exc:
                    raise ValueError(f"{flag} (from {env}): {exc}") from None
        device = (
            dev.default_device() if args.config is None else dev.load_device(args.config)
        )
        return args.func(args, device)
    except ConfigError as exc:
        print(f"aeonsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, DetectionError, CalibrationDiverged, ProtocolError, NonFiniteError) as exc:
        print(f"aeonsim: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"aeonsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
