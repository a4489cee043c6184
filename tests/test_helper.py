"""The helper process that takes half of a shot sweep's cells and half of
the starts of a large fit that runs every start: it leaves no process
behind, whether its parent exits or is killed, a dead helper changes no
result, and none is forked on one CPU or by a shot-free calibration.
Linux only: processes are read from ``/proc``."""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "sched_getaffinity"),
    reason="reads processes from /proc")

SRC = Path(__file__).resolve().parents[1] / "src"
TWO_CPUS = pytest.mark.skipif(
    hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
    reason="no helper runs on one CPU")
# 17 x 17 cells: 289 residuals, so the surface fit of a map with shots
# splits too
EXACT = ("calibrate", "--phi-star", "0", "--theta-star", repr(math.pi), "--grid", "17")
CALIBRATE = EXACT + ("--shots", "50")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _in_session(sid):
    """The live processes (zombies have exited) of session ``sid``."""
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", pid, "stat").read_text()
        except OSError:  # gone meanwhile
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2 :].split()[:4]
        if state != "Z" and int(session) == sid:
            out.append(int(pid))
    return out


def _run(argv, cwd, **kw):
    return subprocess.Popen([sys.executable, *argv], cwd=cwd, env=_env(), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)


# the children of this process, zombies included, for the scripts below
CHILDREN = r"""
import os


def children():
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = open(f"/proc/{pid}/stat").read()
        except OSError:  # gone meanwhile
            continue
        if stat[stat.rindex(")") + 2 :].split()[1] == str(os.getpid()):
            out.append(int(pid))
    return out
"""

# argv: "1" to run on one CPU or "2", the output path, then the command
FORKS = CHILDREN + r"""
import sys
from aeonsim import cli

if sys.argv[1] == "1":
    os.sched_setaffinity(0, {0})
code = cli.main(sys.argv[3:] + ["--out", sys.argv[2]])
print(code, len(children()))
"""


def _forks(cpus, out, argv, cwd):
    """The exit code of a command run through ``cli.main`` in a fresh
    interpreter, and the number of processes it forked."""
    done = subprocess.run([sys.executable, "-c", FORKS, cpus, out, *argv], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stderr == ""
    return done.stdout.split()


def test_calibrate_leaves_no_process_and_one_cpu_writes_the_same_bytes(tmp_path):
    proc = _run(["-m", "aeonsim.cli", *CALIBRATE, "--out", "cal.json"], tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and out == "" and err == ""
    assert _in_session(proc.pid) == []
    # on one CPU no helper is forked, and the artifact is the same bytes
    assert _forks("1", "one.json", CALIBRATE, tmp_path) == ["0", "0"]
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "cal.json").read_bytes()
    assert json.loads((tmp_path / "cal.json").read_text())["fit"]["residual_rms"] < 0.05


@TWO_CPUS
def test_only_a_calibration_with_shots_forks_a_helper(tmp_path):
    # the exact map's surface fit may stop at its first start, so it runs
    # in one process, and its sweeps have no shots to split
    assert _forks("2", "exact.json", EXACT, tmp_path) == ["0", "0"]
    assert _forks("2", "shots.json", CALIBRATE, tmp_path) == ["0", "1"]


@TWO_CPUS
def test_killed_parent_leaves_no_helper(tmp_path):
    # a 101 x 101 sweep: the helper appears at the first stage's shots
    proc = _run(["-m", "aeonsim.cli", *EXACT[:-1], "101", "--shots", "50", "--out", "cal.json"],
                tmp_path)
    try:
        deadline = time.monotonic() + 60
        while len(_in_session(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no helper was forked"
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.communicate()
    deadline = time.monotonic() + 2
    while _in_session(proc.pid):
        assert time.monotonic() < deadline, _in_session(proc.pid)
        time.sleep(0.02)


KILLED_HELPER = CHILDREN + r"""
import functools, math, signal, time
import numpy as np
from aeonsim import benchmarking as bench, calibration as cal, device as dev

d, cfg = dev.default_device(), cal.GermConfig.for_target(0.0, math.pi)
v = np.linspace(0.0725, 0.0745, 21)
t = np.linspace(0.0, 2e-7, 300)
y = np.random.default_rng(3).binomial(50, 0.5 + 0.4 * np.cos(2 * math.pi * 4e7 * t)) / 50


def results():
    fmap = cal.sweep_fidelity(d, cfg, ("12", "13"), v, v, 4, shots=50, seed=1)
    return fmap.f.tobytes(), bench.fit_oscillation_decay(t, y)


def tagged(tag, delay=0.0, then=None):
    time.sleep(delay)
    if then is not None:
        then()
    return tag, os.getpid()


def raises(*args):
    try:
        dev.split_calls(tagged, *args)
    except ValueError:
        return True
    return False


first = results()
(helper,) = children()
me = os.getpid()
assert dev.split_calls(tagged, ("a",), ("b",)) == (("a", me), ("b", helper))
# a call that raises, here or in the helper, leaves no reply on the pipe
fail = functools.partial(int, "x")
assert raises(("c", 0.0, fail), ("d", 0.2)) and raises(("e",), ("f", 0.0, fail))
assert dev.split_calls(tagged, ("g",), ("h",)) == (("g", me), ("h", helper))
# killed while it runs a call: the call runs again in this process
kill = functools.partial(os.kill, helper, signal.SIGKILL)
assert dev.split_calls(tagged, ("i", 0.1, kill), ("j", 0.5)) == (("i", me), ("j", me))
assert dev._serial
# killed between calls: the next splits run here, with the same results
assert results() == first
assert children() == [helper]  # the dead helper, not reaped before exit; none forked since
print("ok")
"""


@TWO_CPUS
def test_dead_helper_changes_no_result(tmp_path):
    done = subprocess.run([sys.executable, "-c", KILLED_HELPER], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
