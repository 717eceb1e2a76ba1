"""Spans around nrtbounds' public functions, installed from outside the package.

`install` wraps every public function of the library modules, except the
leaf helpers in LEAVES, and rebinds each wrapper under every name an
nrtbounds module bound it to (`delsarte` and `scheme` import
`krawtchouk_table` and `shapes_of_length` directly, `cli` imports most of
the API).  `restore` puts every original back.  The leaves are called
hundreds of thousands of times per op at microseconds each, so a span per
call would cost more than it measures; their time counts as self time of
the wrapped function that called them.

A span is (name, op id, parent span index, start, end); spans stay in
memory and are summarised, or written out, after the last op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("space", "krawtchouk", "scheme", "delsarte", "simplex", "bounds", "asymptotics")

LEAVES = {
    "space": {
        "blocks", "delta_crit", "ordered_distance", "ordered_weight", "shape_bar_of",
        "shape_count", "shape_length", "shape_of", "shape_weight", "validate_shape",
        "validate_vector", "vector_sub",
    },
    "krawtchouk": {"binom_general", "eval_linear", "gamma", "k_uni", "weight_w"},
    "scheme": {"L_coeff", "P_eval"},
    "asymptotics": {"H", "h_q", "lambda_expression"},
}

# Per-layer metrics reported by the traced run, besides the layer shares.
SELF_TIMES = (
    "simplex.simplex_solve", "delsarte.solve_code_lp", "delsarte.solve_ooa_lp",
    "delsarte.check_certificate", "krawtchouk.krawtchouk_table", "krawtchouk.K_multi",
    "krawtchouk.k_root_min", "bounds.r2_bound", "bounds.r2_ooa_bound",
    "bounds.r2_certificate", "bounds.spectral_bound", "bounds.bassalygo_elias",
    "scheme.build_blocks", "scheme.build_operator", "scheme.spectral_radius",
    "space.shapes_of_length", "space.sphere_size", "space.ball_size",
    "asymptotics.lambda_asym", "asymptotics.phi_r2", "asymptotics.phi_r2_with_witness",
)
CALLS = (
    "simplex.simplex_solve", "delsarte.check_certificate", "krawtchouk.K_multi",
    "krawtchouk.k_root_min", "bounds.spectral_bound", "scheme.build_operator",
    "scheme.spectral_radius", "space.shapes_of_length", "space.enumerate_shapes",
    "asymptotics.lambda_asym", "asymptotics.phi_r2", "asymptotics.z0_solve",
)
ROOT = "cli.main"


class Tracer:
    """Span and call-count store for one client process."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.op = ""
        self.calls: dict[str, int] = defaultdict(int)
        self.lp_cells = 0

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span and counts a call."""
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self.op, parent, start, end)

        return _like(traced, fn)

    def counted(self, name: str, fn):
        """Wrap a generator function: a span would end before any work runs,
        so only the call is counted."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return _like(counted, fn)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], op, parent, start, end] for n, op, parent, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "op", "parent", "start", "end"],
                       "spans": rows}, fh)


def _like(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    # lru_cache exposes these on the C wrapper type, not in its __dict__
    for attr in ("cache_info", "cache_clear", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _wrapped_functions():
    """(span name, function) for every public library function to trace."""
    for layer in LAYERS:
        mod = importlib.import_module(f"nrtbounds.{layer}")
        for attr, fn in vars(mod).items():
            if (
                attr.startswith("_")
                or attr in LEAVES.get(layer, ())
                or inspect.isclass(fn)
                or not callable(fn)
                or getattr(fn, "__module__", None) != mod.__name__
            ):
                continue
            yield f"{layer}.{attr}", fn


def install(tracer: Tracer) -> dict[tuple[str, str], object]:
    """Rebind every traced function in every loaded nrtbounds module.

    Returns {(module name, attribute): original} for `restore`.
    """
    importlib.import_module("nrtbounds.cli")
    wrappers = {}
    for name, fn in _wrapped_functions():
        if inspect.isgeneratorfunction(fn):
            wrappers[id(fn)] = (fn, tracer.counted(name, fn))
        elif name == "simplex.simplex_solve":
            wrappers[id(fn)] = (fn, tracer.span(name, _counting_cells(tracer, fn)))
        else:
            wrappers[id(fn)] = (fn, tracer.span(name, fn))
    originals = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "nrtbounds" and not modname.startswith("nrtbounds."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                originals[(modname, attr)] = value
                setattr(mod, attr, hit[1])
    return originals


def restore(originals: dict[tuple[str, str], object]) -> None:
    for (modname, attr), value in originals.items():
        setattr(sys.modules[modname], attr, value)


def _counting_cells(tracer: Tracer, fn):
    """simplex_solve, also summing rows x columns of every program solved."""

    def solve(lp):
        tracer.lp_cells += len(lp.constraints) * len(lp.objective)
        return fn(lp)

    return functools.update_wrapper(solve, fn)


def layer_metrics(tracer: Tracer, table_cache) -> dict[str, float]:
    """Per-layer metrics of one traced client process."""
    self_s = tracer.self_times()
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.s"] = self_s.get(name, 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
    info = table_cache.cache_info()
    lookups = info.hits + info.misses
    out["krawtchouk.krawtchouk_table.misses"] = info.misses
    out["krawtchouk.krawtchouk_table.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["simplex.lp_cells"] = tracer.lp_cells
    out["cli.self_s"] = self_s.get(ROOT, 0.0)
    for layer in LAYERS + ("cli",):
        layer_s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"share.{layer}"] = layer_s / total if total else 0.0
    return out
