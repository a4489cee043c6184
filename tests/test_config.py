"""Device config: every leaf of the schema, malformed leaves, and a fuzz
test over config documents."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aeonsim import cli
from aeonsim import device as dev
from aeonsim.errors import ConfigError

NAN, INF = math.nan, math.inf
EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# Every config leaf, written out: a valid value, values of a wrong length
# or shape, and numbers outside its range.
LEAVES = {
    "cross_matrix": (EYE3, [EYE3[:2], [row[:2] for row in EYE3], [1.0, 1.0, 1.0]], []),
    "exchange_law.12.A_hz": (1e6, [[1e6]], [0, -1e6]),
    "exchange_law.12.B_per_v": (52.983, [[52.983]], [0, -1.0]),
    "exchange_law.12.C": (0.0, [[0.0]], []),
    "exchange_law.13.A_hz": (1e6, [[1e6]], [0, -1e6]),
    "exchange_law.13.B_per_v": (52.983, [[52.983]], [0, -1.0]),
    "exchange_law.13.C": (0.0, [[0.0]], []),
    "exchange_law.23.A_hz": (1e6, [[1e6]], [0, -1e6]),
    "exchange_law.23.B_per_v": (52.983, [[52.983]], [0, -1.0]),
    "exchange_law.23.C": (0.0, [[0.0]], []),
    "dss.curvature.12": ([2e3, 8e2], [[2e3], [2e3, 8e2, 1.0]], []),
    "dss.curvature.13": ([5e2, 2e3], [[5e2], [5e2, 2e3, 1.0]], []),
    "dss.curvature.23": ([2e3, 8e2], [[2e3], [2e3, 8e2, 1.0]], []),
    "noise.voltage_sigma_v": (1e-4, [[1e-4] * 5, [1e-4] * 7], [-1e-4, [0, 0, 0, 0, 0, -1e-4]]),
    "noise.gradient_sigma_hz": (3e4, [[3e4] * 2, [3e4] * 4], [-1.0, [1e3, -1.0, 0]]),
    "fields.f_uniform_hz": (1e9, [[1e9]], []),
    "fields.gradients_hz": ([100.0, 0.0, -50.0], [[1, 2], [0.0] * 4], []),
    "pulse_s": (10e-9, [[10e-9]], [0, -1e-9]),
}


def _nested(path, value):
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


def _with_first(value, x):
    """``value`` (a list, or a list of lists) with its first number set to ``x``."""
    if isinstance(value[0], list):
        return [_with_first(value[0], x)] + value[1:]
    return [x] + value[1:]


def _bad_values(path):
    valid, wrong_shape, out_of_range = LEAVES[path]
    bad = ["x", True, [], NAN, INF, -INF] + ([] if path == "cross_matrix" else [None])
    if isinstance(valid, list):
        bad += [_with_first(valid, x) for x in (NAN, INF, -INF, "1", False, None)]
    return bad + wrong_shape + out_of_range


CASES = [(path, value) for path in LEAVES for value in _bad_values(path)]


def test_every_leaf_is_in_the_schema_and_its_valid_value_is_accepted():
    assert set(LEAVES) == set(dev.CONFIG_SCHEMA) == set(VALID)
    for path, (valid, _, _) in LEAVES.items():
        dev.device_from_dict(_nested(path, valid))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


def _run_config(text, argv, workdir, capsys):
    cfg, out = workdir / "dev.json", workdir / "out"
    cfg.write_text(text)
    out.unlink(missing_ok=True)
    code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    return code, err


@pytest.mark.parametrize("path,value", CASES, ids=[f"{p}={v!r}" for p, v in CASES])
def test_malformed_leaf_is_a_config_error_naming_its_path(path, value, workdir, capsys):
    code, err = _run_config(json.dumps(_nested(path, value)), ["spectrum"], workdir, capsys)
    assert code == 4
    assert err.startswith(f"aeonsim: config error: {path} must be ")
    assert "Traceback" not in err and err.count("\n") == 1


RABI_SHOTS = ["rabi", "--pair", "12", "--v", "0.07", "--times", "0:1e-7:20", "--shots", "5"]
RB = ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "2"]
CAL = ["calibrate", "--phi-star", "-1.5707963267948966", "--theta-star", "3.141592653589793"]


@pytest.mark.parametrize("text,path,argv", [
    ('{"exchange_law": {"12": {"A_hz": "abc", "B_per_v": 52.983}}}', "exchange_law.12.A_hz", RB),
    ('{"exchange_law": {"12": {"A_hz": 1e6, "B_per_v": "52"}}}', "exchange_law.12.B_per_v", CAL),
    ('{"dss": {"curvature": {"12": ["a", "b"]}}}', "dss.curvature.12", RABI_SHOTS),
    ('{"exchange_law": {"12": {"A_hz": 0, "B_per_v": 52.983}}}', "exchange_law.12.A_hz", RB),
    ('{"exchange_law": {"12": {"A_hz": 1e6, "B_per_v": 0}}}', "exchange_law.12.B_per_v", CAL),
    ('{"exchange_law": {"12": {"A_hz": -1e6, "B_per_v": 52.983}}}', "exchange_law.12.A_hz", RB),
    ('{"fields": {"gradients_hz": [1, 2]}}', "fields.gradients_hz", RABI_SHOTS),
    ('{"fields": {"gradients_hz": "abc"}}', "fields.gradients_hz", RABI_SHOTS),
    ('{"fields": {"gradients_hz": [NaN, 0, 0]}}', "fields.gradients_hz", RABI_SHOTS),
    ('{"fields": {"f_uniform_hz": 1e309}}', "fields.f_uniform_hz", RABI_SHOTS),
    ('{"pulse_s": true}', "pulse_s", RB),
    ('{"cross_matrix": [[1, NaN, 0], [0, 1, 0], [0, 0, 1]]}', "cross_matrix", RB),
    ('{"exchange_law": {"12": {"A_hz": 1e6, "B_per_v": 52.983, "C": 1e400}}}',
     "exchange_law.12.C", RB),
])
def test_malformed_configs_exit_4_on_the_commands_they_used_to_break(text, path, argv, workdir,
                                                                     capsys):
    # each of these used to end in a traceback, a usage error at run time
    # or a run with the value dropped, truncated or read as 1 s
    code, err = _run_config(text, argv, workdir, capsys)
    assert code == 4 and f"config error: {path} must be " in err and "Traceback" not in err


@pytest.mark.parametrize("text", [b'{"pulse_s": 1e-8, "fields": "\xff"}', b"[" * 100_000],
                         ids=["invalid-utf8", "deep-nesting"])
def test_unreadable_config_files_are_config_errors(text, workdir, capsys):
    # invalid UTF-8 used to exit 2 as a usage error, and nesting too deep
    # for the JSON parser to end in a RecursionError traceback
    cfg = workdir / "dev.json"
    cfg.write_bytes(text)
    assert cli.main(["spectrum", "--config", str(cfg)]) == 4
    assert "cannot read device config" in capsys.readouterr().err


def test_structural_matrix_checks_are_reported_under_their_key():
    with pytest.raises(ConfigError, match="^cross_matrix: "):
        dev.device_from_dict({"cross_matrix": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]})


# -- fuzz over config documents -------------------------------------------

# numbers of every magnitude up to the config's cap of 1e300
FINITE = st.one_of(st.floats(-1e300, 1e300), st.integers(-10**6, 10**6))
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
NON_NEGATIVE = st.floats(0.0, 1e300)


def _vec(n, elem=FINITE):
    return st.lists(elem, min_size=n, max_size=n)


VALID = {
    "cross_matrix": st.one_of(st.none(), _vec(6).map(
        lambda o: [[1, o[0], o[1]], [o[2], 1, o[3]], [o[4], o[5], 1]])),
    **{f"exchange_law.{p}.{k}": s for p in ("12", "13", "23")
       for k, s in (("A_hz", POSITIVE), ("B_per_v", POSITIVE), ("C", FINITE))},
    **{f"dss.curvature.{p}": _vec(2) for p in ("12", "13", "23")},
    "noise.voltage_sigma_v": st.one_of(NON_NEGATIVE, _vec(6, NON_NEGATIVE)),
    "noise.gradient_sigma_hz": st.one_of(NON_NEGATIVE, _vec(3, NON_NEGATIVE)),
    "fields.f_uniform_hz": FINITE,
    "fields.gradients_hz": _vec(3),
    "pulse_s": POSITIVE,
}
# values no leaf takes: no leaf is a list of 1 or 7 numbers
INVALID = st.sampled_from(["x", True, [], {}, NAN, INF, -INF, 1e301, -1e301, [NAN], [1.0] * 7])
SECTIONS = ["", "exchange_law", "exchange_law.12", "dss", "dss.curvature", "noise", "fields"]


def _put(doc, path, value):
    *head, last = path.split(".")
    for key in head:
        doc = doc.setdefault(key, {})
    doc[last] = value


@st.composite
def config_docs(draw):
    """A config document, whether it is broken, and the path of its unknown
    key if it has one: valid leaves under known keys, and in a broken one
    an invalid leaf, an unknown key, or a section that is not an object."""
    doc = {}
    for path, valid in VALID.items():
        if draw(st.booleans()):
            _put(doc, path, draw(valid))
    broken = draw(st.sampled_from([None, None, "leaf", "key", "section"]))
    unknown = None
    if broken == "leaf":
        path = draw(st.sampled_from(sorted(VALID)))
        _put(doc, path, draw(INVALID))
    elif broken == "key":
        section = draw(st.sampled_from(SECTIONS))
        prefix = f"{section}." if section else ""
        known = {p[len(prefix):].split(".")[0] for p in VALID if p.startswith(prefix)}
        key = draw(st.text(min_size=1, max_size=3).filter(lambda k: k not in known))
        target = doc
        for part in filter(None, section.split(".")):
            target = target.setdefault(part, {})
        target[key] = 1.0
        unknown = prefix + key
    elif broken == "section":
        section = draw(st.sampled_from(SECTIONS[1:]))
        _put(doc, section, draw(st.sampled_from([1.0, [], "x", None])))
    return doc, broken, unknown


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


# every command, with small inputs
COMMANDS = (
    ["rabi", "--pair", "12", "--v", "0.07", "--times", "0:1e-7:8", "--shots", "2"],
    ["fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3"],
    ["calibrate", "--grid", "9", "--schedule", "1,2", "--phi-star", "0",
     "--theta-star", "3.141592653589793"],
    ["rb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1"],
    ["irb", "--engine", "device", "--depths", "1,2,4", "--sequences", "1",
     "--gate-phi", "0", "--gate-theta", "1.5707963267948966"],
    ["spectrum"],
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_docs())
def test_fuzzed_config_documents_fail_cleanly_or_run(case):
    doc, broken, unknown = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dev.device_from_dict(doc)
        except ConfigError as exc:
            assert broken, f"valid config refused: {exc}"
            if broken == "key":
                assert f"key(s) {unknown!r};" in str(exc), (unknown, str(exc))
            return
        assert broken is None, f"broken ({broken}) config accepted: {doc!r}"
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "dev.json"), Path(tmp, "out")
            cfg.write_text(json.dumps(doc))
            for argv in COMMANDS:
                code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
                assert code in (0, 2, 3), (argv[0], doc)
                if code == 0 and argv[0] not in ("fingerpinch", "spectrum"):
                    _strict_json(out.read_text())
