"""Spans around the public functions of aeonsim's layer modules, timed from
outside the package.

``Tracer.install()`` replaces every public function of the six layer
modules, and every public plain method of the classes they define, with a
wrapper that records a span: name, start, end, parent span and experiment
id.  The wrapper goes in at every module binding that holds the function,
not only at its home module, so ``benchmarking.compose`` is traced as well
as ``rotations.compose``.  ``Tracer.restore()`` puts every original back.
Spans stay in memory until ``write_jsonl``.

A few layers also get a counter read from the call's arguments or result
(``STAT_HOOKS``), because these counts are where the work can be wasted.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = ("hilbert", "device", "rotations", "calibration", "benchmarking", "cli")

SPAN_FIELDS = ("id", "parent", "experiment", "name", "start_ns", "end_ns", "error")

# Fits whose failures count toward ``benchmarking.fit.failures``.
BENCH_FITS = ("benchmarking.fit_rb", "benchmarking.fit_oscillation_decay")


def _propagator_key(bound, result, stats):
    h = bound.arguments["h"]
    stats.setdefault("hilbert.propagator.keys", set()).add(
        (hash(h.tobytes()), float(bound.arguments["tau_s"]))
    )


def _sweep_cells(bound, result, stats):
    key = "calibration.sweep_fidelity.cells"
    stats[key] = stats.get(key, 0) + len(bound.arguments["v1"]) * len(bound.arguments["v2"])


def _fit_restarts(bound, result, stats):
    key = "calibration.fit_final.restarts_used"
    stats[key] = stats.get(key, 0) + result.n_restarts_used


STAT_HOOKS = {
    "hilbert.propagator": _propagator_key,
    "calibration.sweep_fidelity": _sweep_cells,
    "calibration.fit_final": _fit_restarts,
}


def package_modules():
    """The aeonsim modules that are loaded, by short name."""
    return {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "aeonsim" or name.startswith("aeonsim."))
    }


def public_callables(layer: str, module):
    """(span name, function) for each public function of ``module`` and each
    public plain method of a class it defines, named ``<layer>.<name>``."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found = [(attr, obj)]
        elif inspect.isclass(obj):
            found = [(m, f) for m, f in vars(obj).items()
                     if not m.startswith("_") and inspect.isfunction(f)]
        else:
            continue
        for name, fn in found:
            if f"{layer}.{name}" in out:
                raise ValueError(f"two public callables named {layer}.{name}")
            out[f"{layer}.{name}"] = fn
    return out


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []  # tuples in SPAN_FIELDS order; parent -1 at the root
        self.stats: dict = {}
        self.experiment = ""
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_callables(layer, mods[layer]).items():
                wrappers[id(fn)] = self._wrap(fn, name)
        # rebind at every module binding and class attribute holding one
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patch(mod, attr, obj, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        w = wrappers.get(id(meth))
                        if w is not None and w.__wrapped__ is meth:
                            self._patch(obj, mattr, meth, w)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        hook = STAT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.experiment, name, t0, t1, error)
            if hook is not None:
                hook(sig.bind(*args, **kwargs), result, self.stats)
            return result

        traced.__perfbench_traced__ = True
        return traced

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


def leftover_wrappers() -> list[str]:
    """Bindings in aeonsim that still hold a tracing wrapper."""
    found = []
    for mname, mod in package_modules().items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__perfbench_traced__", False):
                found.append(f"{mname}.{attr}")
            elif inspect.isclass(obj):
                for mattr, meth in vars(obj).items():
                    if getattr(meth, "__perfbench_traced__", False):
                        found.append(f"{mname}.{attr}.{mattr}")
    return found


def span_summary(spans, lo: int, hi: int) -> dict:
    """Per span name over ``spans[lo:hi]``: call count, self time, inclusive
    durations (both in ns) and calls that raised.  Self time is a span's
    duration minus that of its direct children."""
    child_ns: dict[int, int] = {}
    for sid, parent, _exp, _name, t0, t1, _err in spans[lo:hi]:
        if parent >= lo:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict[str, dict] = {}
    for sid, _parent, _exp, name, t0, t1, err in spans[lo:hi]:
        s = out.setdefault(name, {"calls": 0, "self_ns": 0, "durations": [], "errors": 0})
        s["calls"] += 1
        s["self_ns"] += (t1 - t0) - child_ns.get(sid, 0)
        s["durations"].append(t1 - t0)
        s["errors"] += err is not None
    return out


def outermost_ns(spans, lo: int, hi: int, name: str) -> int:
    """Summed duration of ``name`` spans in ``spans[lo:hi]`` that have no
    ``name`` ancestor: the share of wall time spent in it and its children."""
    names = {sid: (n, parent) for sid, parent, _e, n, _a, _b, _r in spans[lo:hi]}
    total = 0
    for sid, parent, _exp, n, t0, t1, _err in spans[lo:hi]:
        if n != name:
            continue
        p = parent
        while p in names and names[p][0] != name:
            p = names[p][1]
        if p not in names:
            total += t1 - t0
    return total
