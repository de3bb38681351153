"""Span tracing of hierfw's layers from outside the package.

The layers are the modules ``cli``, ``params``, ``hiergeo``, ``forward``,
``dual`` and ``renorm``.  ``Tracer.instrument`` wraps every public function
of those modules, and the constructor and every public method of their public
classes.  It rebinds each wrapped name wherever a hierfw module looks it up:
as a module attribute (``forward.simulate``), as a name imported into another
module (``dual.ensemble_reduce``) or as a value of a module-level dispatch
table (``cli._COMMANDS``).  Private helpers are not wrapped, so the package
can rename them without breaking the benchmark; counts of work are derived
from the arguments and results of public entry points.

Each call records a span (name, start, end, parent).  Spans stay in memory
and are written out once, when the traced process ends (``dump``).
``layer_metrics`` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "params", "hiergeo", "forward", "dual", "renorm")

# Metrics computed by ``layer_metrics``, with their units.  A layer that a
# workload does not call reports 0 for each of its metrics.
UNITS = {
    "forward.busy_s": "s", "forward.colony_steps": "count",
    "forward.ns_per_colony_step": "ns", "forward.clip_fraction": "1",
    "dual.mc_s": "s", "dual.exact_s": "s", "dual.generator_s": "s",
    "dual.states": "count", "dual.events": "count", "dual.us_per_event": "us",
    "renorm.busy_s": "s", "renorm.pair_steps": "count",
    "renorm.ns_per_pair_step": "ns", "renorm.F_evals": "count",
    "renorm.flagged_nodes": "count",
    "cli.parse_s": "s", "cli.write_s": "s",
    "params.busy_s": "s", "params.calls": "count",
    "hiergeo.busy_s": "s", "hiergeo.calls": "count",
}


class Tracer:
    """Records spans and the work counts observed at layer boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]; parent -1 = root
        self.counts = defaultdict(float)
        self._stack = []
        self._observers = {
            "forward.simulate": self._observe_simulate,
            "forward.ensemble_reduce": self._observe_ensemble,
            "dual.simulate_dual": self._observe_dual_events,
            "dual.enumerate_count_states": self._observe_states,
            "renorm.mv_equilibrium_batch": self._observe_equilibria,
            "renorm.mv_equilibrium": self._observe_equilibria,
            "renorm.evaluate_F": self._observe_F,
        }
        self._default_dt = None

    # -- instrumentation ------------------------------------------------

    def instrument(self):
        """Wrap the public API of every layer module of the imported package."""
        modules = {name: sys.modules[f"hierfw.{name}"] for name in LAYERS}
        self._default_dt = modules["forward"].default_dt
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod in [m for n, m in sys.modules.items() if n.startswith("hierfw")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_methods(self, prefix, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{prefix}.{name}", attr.__func__)
                setattr(cls, name, type(attr)(wrapped))

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(qualname)
        signature = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        return traced

    # -- work counts observed at the boundaries ---------------------------

    def _steps(self, arguments, last_time):
        dt = arguments.get("dt") or self._default_dt(arguments["params"])
        return int(round(last_time / dt))

    def _observe_simulate(self, arguments, rec):
        steps = self._steps(arguments, max(arguments["plan"].times))
        colony_steps = steps * arguments["params"].n_colonies
        self.counts["forward.colony_steps"] += colony_steps
        self.counts["forward.clipped"] += rec.clip_fraction * colony_steps

    def _observe_ensemble(self, arguments, result):
        steps = self._steps(arguments, max(arguments["times"]))
        colony_steps = (steps * arguments["n_replicas"]
                        * arguments["params"].n_colonies)
        self.counts["forward.colony_steps"] += colony_steps
        self.counts["forward.clipped"] += result[2] * colony_steps

    def _observe_dual_events(self, arguments, result):
        self.counts["dual.events"] += len(result[0])

    def _observe_states(self, arguments, states):
        self.counts["dual.states"] = max(self.counts["dual.states"], len(states))

    def _observe_equilibria(self, arguments, result):
        estimates = result if isinstance(result, list) else [result]
        self.counts["renorm.pair_steps"] += sum(e.total_steps for e in estimates)
        self.counts["renorm.flagged_nodes"] += sum(bool(e.flagged)
                                                   for e in estimates)

    def _observe_F(self, arguments, result):
        self.counts["renorm.F_evals"] += len(arguments["theta_grid"]) - 2

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _inclusive(spans, names):
    """Total time inside calls of ``names``, not counting nested repeats."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process, from its dumped spans."""
    spans, counts = trace["spans"], defaultdict(float, trace["counts"])
    own = _self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        layer = name.split(".", 1)[0]
        busy[layer] += t
        calls[layer] += 1
        self_by_name[name] += t
    colony_steps = counts["forward.colony_steps"]
    pair_s = _inclusive(spans, {"renorm.mv_equilibrium_batch",
                                "renorm.mv_equilibrium"})
    gillespie_s = _inclusive(spans, {"dual.simulate_dual"})
    return {
        "forward.busy_s": busy["forward"],
        "forward.colony_steps": colony_steps,
        "forward.ns_per_colony_step": _ratio(busy["forward"], colony_steps, 1e9),
        "forward.clip_fraction": _ratio(counts["forward.clipped"], colony_steps),
        "dual.mc_s": self_by_name["dual.duality_estimate"],
        "dual.exact_s": _inclusive(spans, {"dual.exact_dual_moment"}),
        "dual.generator_s": _inclusive(spans, {"dual.dual_generator"}),
        "dual.states": counts["dual.states"],
        "dual.events": counts["dual.events"],
        "dual.us_per_event": _ratio(gillespie_s, counts["dual.events"], 1e6),
        "renorm.busy_s": busy["renorm"],
        "renorm.pair_steps": counts["renorm.pair_steps"],
        "renorm.ns_per_pair_step": _ratio(pair_s, counts["renorm.pair_steps"], 1e9),
        "renorm.F_evals": counts["renorm.F_evals"],
        "renorm.flagged_nodes": counts["renorm.flagged_nodes"],
        "cli.parse_s": _inclusive(spans, {"cli.load_config", "cli.build_model"}),
        "cli.write_s": _inclusive(spans, {"cli.write_csv", "cli.write_json",
                                          "cli.write_manifest"}),
        "params.busy_s": busy["params"],
        "params.calls": calls["params"],
        "hiergeo.busy_s": busy["hiergeo"],
        "hiergeo.calls": calls["hiergeo"],
    }
