"""Per-layer tracing from outside the program.

The layers are treebet's modules.  Installing the tracer wraps the public
functions and methods of each module and rebinds every name that points at
an original, including the names importing modules bound at import time
(``treebet.expectation.cut_status``, the package re-exports, the CLI's
command table).  Calls on hot per-node paths are leaves: they only bump a
counter and add to their layer's self time.  Every other call records a span
(name, start, end, parent, op id); a layer's self time is derived from the
spans afterwards.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from enum import Enum
from time import perf_counter

LAYERS = ("tree", "forecast", "local", "expectation", "martingale", "randtest",
          "growth", "sampling", "formats", "cli")

# Called once per tree node or per step: counted, never recorded as spans.
LEAVES = {
    "tree": {"bits", "cut_status", "relation", "require_situation", "parse_situation",
             "format_situation", "is_antichain", "situations_up_to"},
    "forecast": {"Stationary.at", "Table.at", "Markov.at", "ForecastCursor.current",
                 "ForecastCursor.push", "IntervalForecast.__post_init__",
                 "IntervalForecast.within", "interval", "local_scale"},
    "local": {"gamble", "precise_expectation", "upper_expectation", "lower_expectation",
              "LocalGamble.__neg__"},
    "expectation": {"DepthGamble.at"},
    "martingale": {"kelly_gamble", "Process.at", "Process.delta"},
    "growth": {"GrowthFunction.__call__", "affine"},
    "sampling": {"splitmix64", "BitSampler.draw"},
    "formats": {"parse_rational"},
}
WRAPPED_DUNDERS = {"__init__", "__post_init__", "__call__", "__neg__"}

COUNTERS = ("local.operand_bits", "expectation.dense_nodes", "expectation.cut_members",
            "tree.cut_status_calls", "tree.situations_yielded", "tree.antichain_in",
            "tree.antichain_out", "forecast.lookups", "martingale.nodes_checked",
            "randtest.scan_nodes", "randtest.level_members", "sampling.bits",
            "formats.bytes_in", "formats.bytes_out", "cli.rows_out", "cli.bytes_out")


def _rational_bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


# Spans whose work the counters below attribute to a layer: one-step
# evaluations inside the dense sweeps, interior nodes whose one-step
# condition a supermartingale check evaluates, and situations the level
# builders scan.
DENSE_SWEEPS = {"expectation.cut_value_map", "expectation.cond_upper", "expectation.cond_lower"}
CHECKS = {"martingale.check_supermartingale"}
LEVEL_SCANS = {"randtest.martingale_to_test", "randtest.schnorr_test_from_martingale"}


def _cut_arg(args, kwargs):
    return kwargs["cut"] if "cut" in kwargs else args[1]


# A hook sees the counters, the name of the innermost open span, and the call.

def _hook_precise(c, span, args, kwargs, result):
    p, f = args
    c["local.operand_bits"] += _rational_bits(p) + _rational_bits(f.on1) + _rational_bits(f.on0)


def _hook_one_step(c, span, args, kwargs, result):
    if span in DENSE_SWEEPS:
        c["expectation.dense_nodes"] += 1


def _hook_cut_members(c, span, args, kwargs, result):
    c["expectation.cut_members"] += len(_cut_arg(args, kwargs))


def _hook_antichain(c, span, args, kwargs, result):
    c["tree.antichain_in"] += len(args[0])
    c["tree.antichain_out"] += len(result)


def _hook_cut_status(c, span, args, kwargs, result):
    c["tree.cut_status_calls"] += 1


def _hook_lookup(c, span, args, kwargs, result):
    c["forecast.lookups"] += 1


def _hook_delta(c, span, args, kwargs, result):
    if span in CHECKS:
        c["martingale.nodes_checked"] += 1


def _hook_levels(c, span, args, kwargs, result):
    c["randtest.level_members"] += sum(len(cut) for cut in result.levels)


def _hook_sample(c, span, args, kwargs, result):
    c["sampling.bits"] += len(result)


def _hook_parse(c, span, args, kwargs, result):
    c["formats.bytes_in"] += len(args[0])


def _hook_dump(c, span, args, kwargs, result):
    c["formats.bytes_out"] += len(result)


HOOKS = {
    "local.precise_expectation": _hook_precise,
    "local.upper_expectation": _hook_one_step,
    "local.lower_expectation": _hook_one_step,
    "expectation.cut_upper_prob": _hook_cut_members,
    "expectation.cut_lower_prob": _hook_cut_members,
    "expectation.cut_value_map": _hook_cut_members,
    "tree.minimal_antichain": _hook_antichain,
    "tree.cut_status": _hook_cut_status,
    "forecast.Stationary.at": _hook_lookup,
    "forecast.Table.at": _hook_lookup,
    "forecast.Markov.at": _hook_lookup,
    "forecast.ForecastCursor.current": _hook_lookup,
    "martingale.Process.delta": _hook_delta,
    "randtest.martingale_to_test": _hook_levels,
    "randtest.schnorr_test_from_martingale": _hook_levels,
    "sampling.sample_path": _hook_sample,
    "formats.parse_forecasting_system": _hook_parse,
    "formats.parse_process": _hook_parse,
    "formats.parse_test": _hook_parse,
    "formats.parse_sequence": _hook_parse,
    "formats.parse_growth": _hook_parse,
    "formats.dump_process": _hook_dump,
    "formats.dump_test": _hook_dump,
    "formats.dump_forecasting_system": _hook_dump,
    "formats.dump_growth": _hook_dump,
}

# span record fields
NAME, LAYER, START, END, PARENT, OP, LEAF_S = range(7)


class Tracer:
    """Wraps treebet's layers; ``on`` gates recording so checks can run untraced."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.leaf_self: defaultdict = defaultdict(float)
        self.counters: Counter = Counter({name: 0 for name in COUNTERS})
        self.op_id = -1
        # frames: [index of the innermost open span, time of finished children]
        self._stack: list[list] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"treebet.{layer}")
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapper = self._wrap(value, layer, name)
                    replaced[id(value)] = wrapper
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and not issubclass(value, (Enum, BaseException))):
                    self._wrap_class(value, layer, module.__file__)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "treebet" and not mod_name.startswith("treebet."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    def _wrap_class(self, cls, layer: str, source: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(value, classmethod):
                setattr(cls, name, classmethod(self._wrap(value.__func__, layer, qual)))
            elif isinstance(value, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(value.__func__, layer, qual)))
            elif inspect.isfunction(value) and value.__code__.co_filename == source:
                # generated dataclass methods (__init__, __eq__) are skipped
                setattr(cls, name, self._wrap(value, layer, qual))

    def _wrap(self, fn, layer: str, name: str):
        full = f"{layer}.{name}"
        leaf = name in LEAVES.get(layer, ())
        hook = HOOKS.get(full)
        situations = full == "tree.situations_up_to"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            if leaf:
                frame = [parent[0], 0.0]
            else:
                frame = [len(tracer.spans), 0.0]
                tracer.spans.append([full, layer, 0.0, 0.0, parent[0], tracer.op_id, 0.0])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.calls[layer] += 1
                parent[1] += end - start
                if leaf:
                    own = end - start - frame[1]
                    tracer.leaf_self[layer] += own
                    tracer.spans[frame[0]][LEAF_S] += own
                else:
                    record = tracer.spans[frame[0]]
                    record[START] = start
                    record[END] = end
            if hook is not None:
                hook(tracer.counters, tracer.spans[parent[0]][NAME], args, kwargs, result)
            if situations:
                return tracer._situations(result)
            return result

        return wrapper

    def _situations(self, gen):
        """Counts the situations a ``situations_up_to`` generator yields, and
        those a level builder consumes, when they are consumed."""
        counters = self.counters
        for item in gen:
            counters["tree.situations_yielded"] += 1
            if self.spans[self._stack[-1][0]][NAME] in LEVEL_SCANS:
                counters["randtest.scan_nodes"] += 1
            yield item

    # ------------------------------------------------------------- ops

    def begin_op(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        self._stack = [[len(self.spans), 0.0]]
        self.spans.append([name, "harness", perf_counter(), 0.0, -1, op_id, 0.0])

    def end_op(self) -> None:
        self.spans[self._stack[0][0]][END] = perf_counter()

    # ---------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their child spans and
        leaf calls, plus the leaf calls' own time."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        totals = defaultdict(float, self.leaf_self)
        for i, record in enumerate(self.spans):
            totals[record[LAYER]] += record[END] - record[START] - child[i] - record[LEAF_S]
        return totals

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        self_s = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (self.calls[layer], "count")
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        units = {"local.operand_bits": "bit", "formats.bytes_in": "B",
                 "formats.bytes_out": "B", "cli.bytes_out": "B"}
        for name in COUNTERS:
            metrics[name] = (self.counters[name], units.get(name, "count"))
        scanned = self.counters["randtest.scan_nodes"]
        kept = self.counters["randtest.level_members"]
        metrics["randtest.scan_yield"] = (kept / scanned if scanned else 0.0, "ratio")
        return metrics

    def write_spans(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, r in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": r[NAME], "layer": r[LAYER],
                    "start": round(r[START] - origin, 9), "end": round(r[END] - origin, 9),
                    "parent": r[PARENT], "op": r[OP], "leaf_s": round(r[LEAF_S], 9),
                }) + "\n")
