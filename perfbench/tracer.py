"""Per-layer tracing of mirrorlab from outside the package.

The tracer wraps the public callables of each layer (module functions and
class methods) with timing spans and puts the originals back afterwards.  A
module-level function is replaced in every ``mirrorlab`` module that holds a
reference to it, because modules import each other's functions by name
(``cli`` does ``from .flow import run_param_flow``).  A method is replaced
only on the class that defines it, so subclasses that inherit it are traced
once.

Self time of a span is its duration minus the time covered by traced spans
it caused, so the self times of all layers sum to at most the traced wall
time.  All state lives on the ``Tracer`` object; nothing is patched until
``install`` is called.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

from mirrorlab import (cli, commute, core, experiments, flow, legendre,
                       reparam)

# layer -> (owner, attribute names) pairs.  A module owner means module
# functions; a class owner means the methods of the class and of every
# subclass that defines them itself.
CALL_LAYERS = {
    "core.schedule": [(core.Schedule, ("alpha", "alpha_left", "a"))],
    "reparam.flow_rhs": [(reparam.Parameterization, ("flow_rhs",))],
    "reparam.jac_g": [(reparam.Parameterization, ("jac_g",))],
    "reparam.g": [(reparam.Parameterization, ("g", "h", "grad_h"))],
    "legendre.dual_map": [(legendre.LegendreFamily, ("dual_map",))],
    "legendre.grad": [(legendre.LegendreFamily, ("grad",))],
    "legendre.dual_jacobian": [(legendre.LegendreFamily, ("dual_jacobian",))],
    "flow.loss": [(flow.QuadraticLoss, ("value", "grad")),
                  (flow.LinearRegressionLoss, ("value", "grad"))],
    "flow.run": [(flow, ("run_param_flow", "run_mirror_flow"))],
    "experiments.loss": [(experiments.SensingLoss, ("value", "grad")),
                         (experiments.DictionaryLoss, ("value", "grad"))],
    "experiments.run": [(experiments, ("matrix_sensing_run", "diagonal_network_run",
                                       "sparse_coding_run"))],
    "experiments.argmin": [(experiments, ("constrained_argmin",))],
    "commute.check": [(commute, ("check_commuting", "lie_bracket"))],
    "cli.main": [(cli, ("main",))],
    "cli.emit": [(cli, ("write_trajectory_csv", "write_summary"))],
}

# event counters reported next to the per-layer calls and self times
COUNTERS = ("flow.early_exits", "experiments.records", "experiments.diverged",
            "experiments.argmin.newton_iters", "experiments.argmin.residual_evals",
            "cli.emit.bytes")
# layers whose self time is not reported (calls only)
CALLS_ONLY = ("legendre.dual_jacobian",)
# dual-map layer -> counter it feeds while constrained_argmin is running:
# Newton iterations take one dual Jacobian, residual evaluations one dual map
ARGMIN_COUNTERS = {"legendre.dual_jacobian": "experiments.argmin.newton_iters",
                   "legendre.dual_map": "experiments.argmin.residual_evals"}


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer not in CALLS_ONLY:
            units[f"{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def _with_subclasses(root):
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Timing spans and counters around mirrorlab's layer boundaries."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._stack = []        # child-time accumulators of the open spans
        self._open = Counter()  # layer -> number of open spans
        self._patches = []      # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------
    def _hook_for(self, layer):
        """Counter update run after each call of `layer`, or None."""
        counters, opened = self.counters, self._open
        if layer == "experiments.run":
            def hook(result, exc):
                if result is not None:
                    counters["experiments.records"] += len(result.steps)
                    counters["experiments.diverged"] += bool(result.diverged)
        elif layer == "flow.run":
            def hook(result, exc):
                if isinstance(exc, (core.DivergedError, core.DomainExitError)):
                    counters["flow.early_exits"] += 1
        elif layer == "cli.emit":
            def hook(result, exc):
                if result is not None:
                    counters["cli.emit.bytes"] += os.path.getsize(result)
        elif layer in ARGMIN_COUNTERS:
            # dual-map work done on behalf of the Newton oracle
            name = ARGMIN_COUNTERS[layer]

            def hook(result, exc):
                if opened["experiments.argmin"]:
                    counters[name] += 1
        else:
            hook = None
        return hook

    def wrap(self, layer, fn):
        """`fn` inside a timing span charged to `layer`."""
        stack, opened, calls, self_s = self._stack, self._open, self.calls, self.self_s
        hook = self._hook_for(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            opened[layer] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                opened[layer] -= 1
                calls[layer] += 1
                self_s[layer] += dt - child
                if stack:
                    stack[-1] += dt
                if hook is not None:
                    hook(result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching ------------------------------------------------------------
    def install(self):
        """Wrap every traced callable; call ``restore`` to undo.

        Returns the (owner, attribute, original) triples that were patched.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mirrorlab" or name.startswith("mirrorlab."))]
        for layer, targets in CALL_LAYERS.items():
            for owner, names in targets:
                for name in names:
                    if inspect.ismodule(owner):
                        self._patch_function(layer, modules, getattr(owner, name))
                    else:
                        for cls in _with_subclasses(owner):
                            original = cls.__dict__.get(name)
                            if inspect.isfunction(original):
                                self._patches.append((cls, name, original))
                                setattr(cls, name, self.wrap(layer, original))
        return list(self._patches)

    def _patch_function(self, layer, modules, original):
        wrapper = self.wrap(layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------
    def metrics(self, traced_wall_s, overhead_frac):
        out = {}
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            if layer not in CALLS_ONLY:
                out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTERS:
            out[name] = self.counters[name]
        out["trace.wall_s"] = traced_wall_s
        out["trace.overhead_frac"] = overhead_frac
        return out
