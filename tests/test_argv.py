"""The argv layer: a fuzz test over every command's argv and the AEON_*
environment, and README's list of the arguments."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aeonsim import benchmarking as bench
from aeonsim import calibration as cal
from aeonsim import cli

# Value pools per flag, written out here rather than read from
# cli.ARGV_SCHEMA: values that parse, then values that do not.  Together
# they hold NaN, +-inf, 0, 1, negatives, empty and malformed lists, and
# sizes at and just beyond each cap; sizes stay tiny wherever a run starts.
REAL = (["0", "1", "-1", "0.5", "1e300"], ["nan", "inf", "-inf", "", "abc"])
HZ = (["0", "1", "-1", "40e6", "1e300", "-1e300"], ["1e301", "-1e308", "nan", "inf", "-inf", ""])
ANGLE = (["0", "3.141592653589793", "-1.5707963267948966", "1.5707963267948966", "3.14",
          "-3.141592653589793", "1", "1e300"], ["nan", "inf", "-inf", ""])
COUNT = (["1", "2"], ["0", "-1", "", "1.5", "nan", "abc"])
PAIRS = (["12,23", "12,13", "13,23"], ["12", "12,12", "12,14", "12,23,13", "12,", ""])
SWEEP = (["0.05:0.08:3", "0.05:0.05:2", "0:0.1:2", "0.08:0.05:3", "0:1e300:3", "-1e3:0:3",
          "0:0.1:1001"],
         ["0:nan:3", "0:inf:3", "0:0.1:1", "0:0.1:0", "0:0.1", "0:0.1:2.5", "0:0.1:1002", ""])
DURATION = (["1e-9", "0", "1e-300", "1", "1e300"], ["-1", "nan", "inf", ""])
TIMES = (["0:1e-7:20", "0:1e-7:5", "1e-7:0:8", "0:1:1001"],
         ["0:1:1002", "0:0:20", "3e-9:3e-9:5", "-1e-9:1e-7:20", "0:1.5:20", "0:1e300:20",
          "0:nan:10", "0:1e-7:1", "0:1e-7", ""])
DEPOL = (["0", "1e-3", "0.5"], ["0.51", "1", "-0.001", "nan", "inf", ""])
LEAK = (["0", "1e-3", "1"], ["1.5", "-0.1", "nan", ""])
SWITCH = ([True], [])
COMMON = {"--seed": (["0", "7", "4294967296"], ["-1", "1e3", "abc", ""]),
          "--config": (["<noisy>", "<huge-noise>", "<tiny-law>", "<huge-law>"],
                       ["<missing>", "<broken>"])}
FLAGS = {
    "spectrum": {f: HZ for f in ("--j12", "--j23", "--j13", "--f-uniform", "--b1", "--b2", "--b3")},
    "fingerpinch": {"--pairs": PAIRS, "--v1": SWEEP, "--v2": SWEEP, "--hadamard": SWITCH,
                    "--duration": DURATION, "--cross": SWITCH},
    "rabi": {"--pair": (["12", "23", "13"], ["14", ""]), "--v": (["0.0738", "0.07", "20"], []),
             "--times": TIMES, "--shots": COUNT},
    # calibrate --grid 1 is left out: it still ends in an uncaught
    # ZeroDivisionError, the crash perfbench's self-test
    # test_uncaught_exception_is_a_failure_not_a_crash counts; a grid at the
    # cap (1,001) would sweep a million cells per stage
    "calibrate": {"--phi-star": ANGLE, "--theta-star": ANGLE,
                  "--schedule": (["1", "1,2", "2,1"], ["0", "-1", "1,2,0", "1,,2", ""]),
                  "--grid": (["5", "3", "2"], ["0", "-3", "1002", "nan", ""]),
                  "--window": (["0.03", "1e-300", "1e300"], ["0", "-0.03", "nan", "inf", ""]),
                  "--shots": COUNT, "--pairs": PAIRS},
    "rb": {"--depths": (["1,2,4", "0,1,2", "1,2", "4,4", "1", "0,1,100000"],
                        ["1,,2", "1,-2,4", "1,2.5,4", "1,2,100001", ""]),
           "--sequences": COUNT, "--shots": COUNT, "--idle": DURATION, "--cross": SWITCH,
           "--engine": (["device", "channel"], ["qpu", ""]),
           "--inject-depol": DEPOL, "--inject-leak": LEAK},
}
FLAGS["rabi"]["--v"] = (REAL[0] + FLAGS["rabi"]["--v"][0], REAL[1])
FLAGS["irb"] = {**FLAGS["rb"], "--gate-depol": DEPOL, "--gate-phi": ANGLE, "--gate-theta": ANGLE}
# only rabi and rb write plot data; the other commands refuse the flag
for command in ("rabi", "rb"):
    FLAGS[command]["--emit-plot-data"] = (["<plot>"], [])
ALWAYS = {"spectrum": (), "fingerpinch": ("--pairs", "--v1", "--v2"),
          "rabi": ("--pair", "--v", "--times"),
          "calibrate": ("--phi-star", "--theta-star", "--schedule", "--grid"),
          "rb": ("--depths", "--sequences"), "irb": ("--depths", "--sequences", "--gate-phi",
                                                     "--gate-theta")}
ENV = {"AEON_SEED": (["3"], ["-3", "abc", "", "1.5"]),
       "AEON_CONFIG": (["<noisy>"], ["<missing>"])}
CONFIGS = {
    "noisy": '{"noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4}}',
    "huge-noise": '{"noise": {"voltage_sigma_v": 1.0}}',
    "tiny-law": '{"exchange_law": {"12": {"A_hz": 1e-308}}}',
    "huge-law": '{"exchange_law": {"23": {"A_hz": 1e300, "B_per_v": 1e10, "C": 1e300}, '
                '"13": {"A_hz": 1e-10, "B_per_v": 1e-300, "C": 700}}}',
    "broken": "{not json",
}
JSON_COMMANDS = {"rabi", "calibrate", "rb", "irb"}
CAL_PI = ("calibrate", "--phi-star", "0", "--theta-star", "3.141592653589793")


@st.composite
def argv_cases(draw):
    """A command's argv (without --out) and the AEON_* environment."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    pools = {**FLAGS[command], **COMMON, **ENV}
    # at most one required flag dropped, and at most one value that does not parse
    drop = draw(st.sampled_from([None, None, None, *ALWAYS[command]]))
    bad = draw(st.sampled_from([f for f, pool in pools.items() if pool[1]]))
    bad = bad if draw(st.booleans()) else None
    values = {}
    for flag, (good, invalid) in pools.items():
        if flag == bad:
            values[flag] = draw(st.sampled_from(invalid))
        elif flag != drop and (flag in ALWAYS[command] or draw(st.booleans())):
            values[flag] = draw(st.sampled_from(good))
    # a size at its cap is drawn only where the run stays cheap: --depths
    # 100,000 takes ~0.05 s on the channel engine and seconds on the device
    # engine, and one 1,001-point fingerpinch sweep is cheap but two are not
    if values.get("--depths") == "0,1,100000":
        values["--engine"] = "channel"
    if values.get("--v1") == values.get("--v2") == "0:0.1:1001":
        values["--v2"] = "0.05:0.08:3"
    env = {name: values.pop(name) for name in ENV if name in values}
    argv = [command]
    for flag, value in values.items():
        # a value that starts with "-" goes as its own token or as --flag=value
        if value is True:
            argv.append(flag)
        else:
            argv += [f"{flag}={value}"] if value[:1] == "-" and draw(st.booleans()) else [flag, value]
    return tuple(argv), env


@contextlib.contextmanager
def _environment(env):
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("AEON_")}
    os.environ.update(env)
    try:
        yield
    finally:
        for k in list(os.environ):
            if k.startswith("AEON_"):
                del os.environ[k]
        os.environ.update(saved)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv_cases())
# each case below failed before this test: AEON_SEED=abc exited 4 as a
# config error, the two overflowing calibration sweeps leaked five
# RuntimeWarnings, and the noise and duration overflows exited 2 with a
# message that named no input
@example((("spectrum",), {"AEON_SEED": "abc"}))
@example((CAL_PI + ("--window", "1e300"), {}))
@example((CAL_PI + ("--config", "<tiny-law>"), {}))
@example((("rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--shots", "2",
           "--config", "<huge-noise>"), {}))
@example((("rb", "--engine", "device", "--shots", "2", "--depths", "1,2,4", "--sequences", "2",
           "--config", "<huge-noise>"), {}))
@example((("fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3",
           "--duration", "1e300"), {}))
# found by this test: an interleaved gate of negative angle exited 2 on the
# device engine naming no flag (it now plays about the opposite axis), and
# the sum-curve fit at the depth cap leaked overflow warnings (and failed
# under -W error; none of its starts converges, so it reports no leakage)
@example((("irb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1", "--gate-phi",
           "1.5707963267948966", "--gate-theta=-1.5707963267948966"), {}))
@example((("irb", "--engine", "channel", "--depths", "0,1,100000", "--sequences", "1", "--shots",
           "2", "--gate-depol", "0.5", "--gate-phi", "0", "--gate-theta", "0"), {}))
def test_fuzzed_argv_exits_with_a_documented_code(case):
    argv, env = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            Path(tmp, f"{name}.json").write_text(text)
        out = Path(tmp, "out")

        def path(value):
            return str(Path(tmp, value[1:-1] + ".json")) if value.startswith("<") else value

        argv = [path(a) for a in argv]
        env = {k: path(v) for k, v in env.items()}
        if len(argv) % 2:  # alternate between --out and AEON_OUT
            argv += ["--out", str(out)]
        else:
            env["AEON_OUT"] = str(out)
        err = io.StringIO()
        with _environment(env), warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (argv, env, code, err)
        assert not caught, (argv, env, [str(w.message) for w in caught])
        if out.exists() and argv[0] in JSON_COMMANDS:
            _strict_json(out.read_text())
        named = set(re.findall(r"--[\w-]+", err)) & {*FLAGS[argv[0]], *COMMON, "--out"}
        variables = re.findall(r"AEON_\w+", err)
        if code == 2:
            assert named or variables, (argv, env, err)
        # an environment value is checked as its flag's value would be
        for name in variables:
            assert code == 2 and f"--{name[5:].lower()}" in err, (argv, env, err)


def _words(default) -> str:
    if default is ...:
        return "required"
    if default is None:
        return "none"
    if default is False:
        return "off"
    return str(default)


def test_readme_documents_exactly_the_argv_schema():
    # one table row per schema row, in the schema's order, each giving the
    # row's commands, range (in the words of its usage error), default,
    # environment variable and help
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = [tuple(line[2:-2].split(" | ")) for line in section.splitlines()
                  if line.startswith("| `--")]
    expected = [
        (f"`{flag}`", "all" if names == "*" else ", ".join(names.split()), cli._want(kind, rng),
         _words(default), f"`{env}`" if env else "", text)
        for names, flag, kind, rng, default, env, text in cli.ARGV_SCHEMA
    ]
    assert documented == expected


def test_cli_run_defaults_equal_the_library_defaults():
    # an argv that leaves these flags out sends, through ARGV_SCHEMA's
    # defaults, what the library's own defaults are
    parse = cli.build_parser().parse_args
    args = parse(["calibrate", "--phi-star", "0", "--theta-star", "3.14"])
    cal_defaults = {k: p.default for k, p in
                    inspect.signature(cal.run_calibration).parameters.items()}
    assert (args.schedule, args.grid, args.window) == (
        cal_defaults["schedule"], cal_defaults["grid_points"], cal_defaults["window0_v"])
    args = parse(["irb", "--gate-phi", "0", "--gate-theta", "3.14"])
    rb_cfg = bench.RbConfig()
    assert (args.depths, args.sequences, args.idle) == (
        rb_cfg.depths, rb_cfg.n_sequences, rb_cfg.idle_s)
    assert (args.inject_depol, args.inject_leak, args.gate_depol) == dataclasses.astuple(
        bench.InjectedError())
    assert args.engine == inspect.signature(bench.run_rb).parameters["engine"].default
