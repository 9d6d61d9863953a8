"""Spans around the public functions of each ``qfel`` layer.

The wrappers are installed from outside the package.  The modules bind
each other's functions with ``from ... import``, so a wrapper replaces
the function under every name that refers to it in every ``qfel``
module, including dict tables such as ``cli._COMMANDS``.

A span is one call: name, start, end, parent span and job id.  Spans are
kept in flat integer arrays and written out when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "beamfield", "kinematics", "amplitudes", "physcore",
          "emission", "tube")
_COLUMNS = ("parent", "name", "start_ns", "end_ns", "job", "flag", "aux")

# flag values
OK, CLOSED, RAISED = 0, 1, 2


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans while installed; ``install``/``remove`` bracket a round."""

    def __init__(self):
        errors = importlib.import_module("qfel.errors")
        self._closed = getattr(errors, "ClosedChannelError", ())
        self.names = []
        self.cols = {c: array("q") for c in _COLUMNS}
        self.job = -1
        self._stack = [-1]
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qfel.{layer}")
            for fname, fn in public_functions(module).items():
                self._wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        self._patched = []

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        cols, stack = self.cols, self._stack
        parent_c, name_c, start_c, end_c = (cols["parent"], cols["name"],
                                            cols["start_ns"], cols["end_ns"])
        job_c, flag_c, aux_c = cols["job"], cols["flag"], cols["aux"]
        closed = self._closed
        aux_of = self._aux_reader(name, fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_c)
            parent_c.append(stack[-1])
            name_c.append(idx)
            job_c.append(self.job)
            flag_c.append(OK)
            aux_c.append(0)
            end_c.append(0)
            stack.append(sid)
            start_c.append(clock())
            try:
                result = fn(*args, **kwargs)
            except closed:
                end_c[sid] = clock()
                flag_c[sid] = CLOSED
                raise
            except BaseException:
                end_c[sid] = clock()
                flag_c[sid] = RAISED
                raise
            finally:
                stack.pop()
            end_c[sid] = clock()
            if aux_of is not None:
                aux_c[sid] = aux_of(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _aux_reader(name, fn):
        """For the harmonic sum: the highest harmonic used, negated when it
        equals the cutoff it was given (the sum stopped at the cap)."""
        if name != "emission.averaged_cross_section":
            return None
        signature = inspect.signature(fn)

        def read(args, kwargs, result):
            used = getattr(result, "harmonic", None)
            if not isinstance(used, int):
                return 0
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            cap = bound.arguments.get("harmonic_max")
            return -used if used == cap else used

        return read

    def install(self):
        """Replace every binding of a wrapped function in the qfel modules."""
        wrappers = self._wrappers
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qfel" and not mod_name.startswith("qfel."):
                continue
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((vars(module), key, value))
                    setattr(module, key, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if inspect.isfunction(v) and v in wrappers:
                            self._patched.append((value, k, v))
                            value[k] = wrappers[v]

    def remove(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def arrays(self):
        return {c: np.frombuffer(self.cols[c], dtype=np.int64).copy()
                for c in _COLUMNS}

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_totals(spans, names, jobs):
    """Per span name over the given job ids: calls, self seconds, calls
    that ended in ClosedChannelError, summed aux and aux < 0 count."""
    keep = np.isin(spans["job"], list(jobs))
    n = spans["name"].size
    dur = (spans["end_ns"] - spans["start_ns"]).astype(float)
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_s = (dur - child) * 1e-9
    name = spans["name"][keep]
    m = len(names)

    def total(weights):
        return np.bincount(name, weights=weights, minlength=m)

    aux = spans["aux"][keep]
    calls = total(None)
    selfs = total(self_s[keep])
    closed = total((spans["flag"][keep] == CLOSED).astype(float))
    harmonics = total(np.abs(aux).astype(float))
    capped = total((aux < 0).astype(float))
    return {nm: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                 "closed": int(closed[i]), "harmonics": int(harmonics[i]),
                 "capped": int(capped[i])}
            for i, nm in enumerate(names)}
