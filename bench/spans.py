"""In-memory span recorder for the traced benchmark run.

``Recorder.install`` wraps every public module-level function of the
``alphagames`` layers (plus ``ControlProfile.evaluate``) and rebinds
the wrapper on every module attribute that held the original, because
``app``, ``alpha``, ``bsde`` and ``derivatives`` import these functions
by name.  Each call records one span: name, start, end, parent span,
the process peak RSS at start and end, and, for the calls the
per-layer metrics count, a few attributes taken from the call's
arguments.  Attributes are computed after the call and the time spent
on them is recorded as a ``trace.bookkeeping`` sibling span, so it
never inflates a layer's self time.

``layer_metrics`` turns the span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import resource
import sys
from time import perf_counter

LAYERS = ("rng", "presets", "model", "sim", "bsde", "derivatives", "alpha",
          "app")
BOOKKEEPING = "trace.bookkeeping"


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _labels(profile) -> tuple:
    return tuple(c.label for c in profile.controls)


def _estimate_count(result) -> int:
    # imported here: the parent process aggregates spans without the package
    from alphagames.derivatives import DerivativeEstimate
    if isinstance(result, DerivativeEstimate):
        return 1
    if isinstance(result, tuple) and result and isinstance(
            result[0], DerivativeEstimate):
        return 1                      # (estimate, pathwise) form
    if isinstance(result, list):
        return sum(isinstance(e, DerivativeEstimate) for e in result)
    if isinstance(result, dict):
        return sum(_estimate_count(v) for v in result.values())
    return 0


def _line_integral_key(args, profile) -> str:
    anchor = args.get("anchor")
    anchor_labels = (_labels(anchor) if anchor is not None
                     else ("0",) * len(profile))
    return _digest(anchor_labels, _labels(profile), args.get("order"))


# Per-call attributes, keyed on span name; each takes the bound
# arguments (defaults applied) and the return value.
def _describe_normal_grid(a, _):
    return {"normals": int(a["n_paths"]) * int(a["n_steps"])
            * int(a["n_drivers"])}


def _describe_cost_batch(a, _):
    return {"legs": len(a["profiles"]),
            "key": _digest([_labels(p) for p in a["profiles"]])}


def _describe_sensitivities(a, _):
    return {"targets": [_digest(h, d.label) for h, d in a["targets"]]}


def _describe_variational(a, _):
    return {"key": _digest(float(a["t"]), a["x"], a["u"])}


def _describe_first_adjoints(a, _):
    labels = _labels(a["controls"])
    return {"systems": [_digest(p, labels) for p in a["players"]]}


def _describe_potential_value(a, _):
    return {"line_integrals": [_line_integral_key(a, a["profile"])]}


def _describe_deviation_gap(a, _):
    deviated = a["profile"].with_player(a["i"], a["deviation"])
    return {"line_integrals": [_line_integral_key(a, deviated),
                               _line_integral_key(a, a["profile"])]}


def _describe_estimates(_, result):
    return {"estimates": _estimate_count(result)}


_DESCRIBE = {
    "rng.normal_grid": _describe_normal_grid,
    "sim.simulate_cost_batch": _describe_cost_batch,
    "sim.propagate_sensitivities": _describe_sensitivities,
    "sim.assemble_variational": _describe_variational,
    "bsde.solve_first_adjoints": _describe_first_adjoints,
    "alpha.potential_value": _describe_potential_value,
    "alpha.potential_deviation_gap": _describe_deviation_gap,
}
for _name in ("first_derivative_fd", "first_derivative_fd_sweep",
              "first_derivative_fd_table", "first_derivative_table",
              "first_derivative_sens", "first_derivative_bsde",
              "second_derivative_fd", "second_derivative_fd_sweep",
              "second_derivative_z_oracle", "second_derivative_bsde"):
    _DESCRIBE[f"derivatives.{_name}"] = _describe_estimates


class Recorder:
    """Collects spans as ``[name, start, end, parent, rss0, rss1, attrs]``
    lists; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        describe = _DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, perf_counter(), None, parent, _peak_rss_mib(),
                    None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[5] = _peak_rss_mib()
                stack.pop()
            if describe is not None:
                b0 = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = describe(bound.arguments, result)
                spans.append([BOOKKEEPING, b0, perf_counter(), parent,
                              None, None, None])
            return result

        return wrapper

    def install(self):
        """Wrap the layers' public functions wherever they are bound."""
        import alphagames
        from alphagames import model

        modules = [sys.modules[f"alphagames.{layer}"] for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    layer = mod.__name__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}",
                                               obj)
        for mod in modules + [alphagames]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        evaluate = model.ControlProfile.evaluate
        self._restore.append((model.ControlProfile, "evaluate", evaluate))
        model.ControlProfile.evaluate = self._wrap(
            "model.ControlProfile.evaluate", evaluate)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# Per-layer time metrics: self time summed over spans with these names
# (a trailing "*" matches every span of that layer).
TIME_METRICS = {
    "rng.normal_grid_s": ("rng.*",),
    "presets.build_s": ("presets.*",),
    "model.control_eval_s": ("model.ControlProfile.evaluate",),
    "sim.cost_batch_s": ("sim.simulate_cost_batch",),
    "sim.simulate_paths_s": ("sim.simulate_paths",),
    "sim.sensitivities_s": ("sim.propagate_sensitivities",
                            "sim.propagate_sensitivity"),
    "sim.second_sensitivity_s": ("sim.propagate_second_sensitivity",
                                 "sim.second_order_sources"),
    "sim.variational_s": ("sim.assemble_variational",),
    "bsde.first_adjoint_s": ("bsde.solve_first_adjoints",
                             "bsde.solve_first_adjoint"),
    "bsde.second_adjoint_s": ("bsde.solve_second_adjoint",
                              "bsde.coefficient_hessians"),
    "derivatives.fd_s": ("derivatives.first_derivative_fd",
                         "derivatives.first_derivative_fd_sweep",
                         "derivatives.first_derivative_fd_table",
                         "derivatives.second_derivative_fd",
                         "derivatives.second_derivative_fd_sweep"),
    "derivatives.first_contract_s": ("derivatives.first_derivative_sens",
                                     "derivatives.first_derivative_bsde",
                                     "derivatives.first_derivative_table"),
    "derivatives.second_contract_s": ("derivatives.second_derivative_z_oracle",
                                      "derivatives.second_derivative_bsde",
                                      "sim.second_order_cross_sources"),
    "alpha.pairwise_s": ("alpha.pairwise_quadratic_asymmetry",),
    "alpha.potential_s": ("alpha.potential_value",
                          "alpha.potential_deviation_gap"),
}
RSS_LAYERS = ("rng", "sim", "bsde", "alpha")


def _matches(name, patterns) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns)


def _ratio(keys) -> float:
    # no calls means no repeated work
    return len(set(keys)) / len(keys) if keys else 1.0


def layer_metrics(spans) -> dict:
    """Per-layer numbers (unit-free values) from one traced run."""
    n = len(spans)
    child_time = [0.0] * n
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    # spans are appended at call start, so a parent precedes its children
    outer_in_layer = [True] * n
    ancestors = [frozenset()] * n
    for idx, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            ancestors[idx] = ancestors[parent] | {layer_of[parent]}
            outer_in_layer[idx] = layer_of[idx] not in ancestors[idx]
    self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]

    out = {}
    for metric, patterns in TIME_METRICS.items():
        out[metric] = sum(self_time[i] for i, s in enumerate(spans)
                          if _matches(s[0], patterns))

    def calls(name):
        return [s for s in spans if s[0] == name]

    def attr_list(name, key):
        return [k for s in calls(name) for k in s[6][key]]

    out["rng.normals"] = sum(s[6]["normals"] for s in calls("rng.normal_grid"))
    out["model.control_eval_calls"] = len(calls("model.ControlProfile.evaluate"))
    batches = calls("sim.simulate_cost_batch")
    out["sim.cost_batch_calls"] = len(batches)
    out["sim.cost_batch_legs"] = sum(s[6]["legs"] for s in batches)
    out["sim.cost_batch_distinct_ratio"] = _ratio([s[6]["key"]
                                                   for s in batches])
    out["sim.simulate_paths_calls"] = len(calls("sim.simulate_paths"))
    targets = attr_list("sim.propagate_sensitivities", "targets")
    out["sim.sensitivity_calls"] = len(calls("sim.propagate_sensitivities"))
    out["sim.sensitivity_targets"] = len(targets)
    out["sim.sensitivity_distinct_ratio"] = _ratio(targets)
    slices = [s[6]["key"] for s in calls("sim.assemble_variational")]
    out["sim.variational_calls"] = len(slices)
    out["sim.variational_distinct_ratio"] = _ratio(slices)
    systems = attr_list("bsde.solve_first_adjoints", "systems")
    out["bsde.first_adjoint_systems"] = len(systems)
    out["bsde.first_adjoint_distinct_ratio"] = _ratio(systems)
    out["bsde.second_adjoint_calls"] = len(calls("bsde.solve_second_adjoint"))
    out["derivatives.estimates"] = sum(
        s[6]["estimates"] for i, s in enumerate(spans)
        if layer_of[i] == "derivatives" and outer_in_layer[i]
        and s[6] is not None and "estimates" in s[6])
    integrals = (attr_list("alpha.potential_value", "line_integrals")
                 + attr_list("alpha.potential_deviation_gap",
                             "line_integrals"))
    out["alpha.line_integrals"] = len(integrals)
    out["alpha.line_integral_distinct_ratio"] = _ratio(integrals)
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_rise_mib"] = sum(
            s[5] - s[4] for i, s in enumerate(spans)
            if layer_of[i] == layer and outer_in_layer[i])
    return out
