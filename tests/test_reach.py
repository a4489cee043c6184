"""Every function that src defines runs in some command: code that no
command reaches belongs in the tests (``tests/oracles.py``), not in the
package.

A fresh interpreter imports ``aeonsim.cli`` and runs :data:`RUNS` through
``cli.main`` under ``sys.setprofile``; it must be fresh because functions
behind ``functools.cache`` that this process has already called would
not be entered again.  The runs reach every command on both RB engines,
with shots on and off, every switch, ``--emit-plot-data``, a config file,
and a failure of each exit code.  Every ``def`` in ``src/aeonsim/*.py``,
found by ``ast``, must be entered by them, apart from :data:`ALLOWED`.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# qualified name -> why src keeps it though no command calls it
ALLOWED = {
    "hilbert.measure_p0": "perfbench's tracer binds it as cli.measure_p0",
    "rotations.match_element": "perfbench's tracer binds it as benchmarking.match_element",
}

PI = repr(math.pi)
RB = ("--depths", "1,2,4", "--sequences", "2")
GATE = ("--gate-phi", repr(-math.pi / 2), "--gate-theta", PI)
# (exit code, argv); "<dir>" stands for a scratch directory, which holds
# the device configs of CONFIGS
RUNS = (
    (0, ("spectrum", "--j12", "1e6", "--b1=-3e4")),  # to stdout
    (0, ("fingerpinch", "--pairs", "12,23", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3",
         "--out", "<dir>/fp.csv")),
    (0, ("fingerpinch", "--pairs", "12,13", "--v1", "0.05:0.08:3", "--v2", "0.05:0.08:3",
         "--hadamard", "--cross", "--duration", "2e-9", "--out", "<dir>/fp.csv")),
    (0, ("rabi", "--pair", "12", "--v", "0.0738", "--times", "0:1e-7:20", "--out",
         "<dir>/rabi.json")),
    (0, ("rabi", "--pair", "23", "--v", "0.0738", "--times", "0:1e-7:20", "--shots", "400",
         "--out", "<dir>/rabi.json", "--emit-plot-data", "<dir>/rabi.csv")),
    (0, ("calibrate", "--phi-star", "0", "--theta-star", PI, "--grid", "7", "--schedule", "1,2",
         "--out", "<dir>/cal.json")),
    (0, ("calibrate", "--phi-star", "0", "--theta-star", PI, "--grid", "7", "--schedule", "1,2",
         "--shots", "50", "--pairs", "12,13", "--window", "0.03", "--out", "<dir>/cal.json")),
    (0, ("rb", "--engine", "device", "--shots", "5", "--cross", "--idle", "1e-9", *RB,
         "--config", "<dir>/noisy.json", "--out", "<dir>/rb.json",
         "--emit-plot-data", "<dir>/rb.csv")),
    (0, ("rb", "--engine", "channel", "--inject-depol", "1e-3", "--inject-leak", "1e-3",
         "--shots", "50", *RB, "--out", "<dir>/rb.json")),
    (0, ("irb", "--engine", "device", *GATE, *RB, "--out", "<dir>/irb.json")),
    (0, ("irb", "--engine", "channel", "--gate-depol", "1e-3", *GATE, *RB,
         "--out", "<dir>/irb.json")),
    (2, ("rb", "--engine", "channel", "--sequences", "0")),
    (3, ("rb", "--engine", "channel", "--depths", "1,2", "--out", "<dir>/rb.json")),
    (4, ("rb", "--engine", "channel", *RB, "--config", "<dir>/bad-key.json")),
    (4, ("rb", "--engine", "channel", *RB, "--config", "<dir>/bad-type.json")),
)
CONFIGS = {
    "noisy.json": {"noise": {"voltage_sigma_v": 1e-4, "gradient_sigma_hz": 3e4}},
    "bad-key.json": {"idle_v": -0.5},
    "bad-type.json": {"pulse_s": "short"},
}

CHILD = r"""
import contextlib, io, json, os, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


tmp, runs = sys.argv[1], json.loads(sys.argv[2])
sys.setprofile(profile)
from aeonsim import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        codes.append(cli.main([a.replace("<dir>", tmp) for a in argv]))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    (os.path.realpath(c.co_filename), c.co_name, c.co_firstlineno) for c in entered)}))
"""


def _defs():
    """Qualified name of every ``def`` in ``src/aeonsim``, keyed by (file,
    name, first line): the first line is that of its first decorator, as
    ``co_firstlineno`` gives it."""
    out = {}
    for path in sorted((SRC / "aeonsim").glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[(str(path.resolve()), child.name, first)] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return out


def test_every_src_function_runs_in_a_command(tmp_path):
    for name, doc in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps([argv for _, argv in RUNS])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120, check=True)
    report = json.loads(child.stdout)
    assert report["codes"] == [code for code, _ in RUNS]
    entered = {tuple(key) for key in report["entered"]}
    unreached = sorted(name for key, name in _defs().items() if key not in entered)
    assert unreached == sorted(ALLOWED), unreached
