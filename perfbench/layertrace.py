"""Outside-in layer trace: wrap public functions through their module attributes.

Calls inside the package reach these functions as module attributes
(``ps.pow``, ``species.coefficients``, ...) or as globals of their own
module, and both lookups go through the module dictionary, so replacing
the attribute traces internal calls as well as the benchmark's own.  Spans
(name, start, end, parent) stay in memory and are written out when the run
ends; self time is a span's duration minus the time its child spans cover.
"""

import functools
import importlib
import json
import time

# (module, function, reported fields), in the order of BENCHMARK.json's per_layer
TRACED = (
    ("powerseries", "mul", ("self_s", "calls")),
    ("powerseries", "pow", ("self_s", "calls")),
    ("powerseries", "exp", ("self_s",)),
    ("powerseries", "solve_fixed_point_with_composer", ("self_s", "calls")),
    ("species", "y_series", ("self_s", "calls")),
    ("species", "coefficients", ("self_s", "calls")),
    ("species", "builtin", ("self_s",)),
    ("asymptotics", "recipe_constants", ("self_s",)),
    ("exact", "count", ("self_s",)),
    ("exact", "count_table", ("self_s",)),
    ("exact", "total_count", ("self_s",)),
    ("exact", "count_log", ("self_s",)),
    ("asymptotics", "lambda_star", ("self_s", "calls")),
    ("asymptotics", "solve_supercritical", ("self_s", "calls")),
    ("asymptotics", "estimate", ("self_s",)),
    ("sampler", "size_distribution", ("self_s", "calls", "table_len")),
    ("sampler", "sample_forest", ("self_s", "calls")),
    ("sampler", "sample_partition", ("self_s",)),
    ("sampler", "sample_set", ("self_s", "calls")),
    ("cli", "main", ("self_s", "calls")),
)

# resolving classes is set-up work: these are reported per set-up, from the
# set-up spans alone; every other function is reported per traced round
SETUP_FUNCTIONS = ("species.builtin", "asymptotics.recipe_constants")

LAYER_METRICS = tuple(f"{m}.{f}.{field}" for m, f, fields in TRACED for field in fields)


class Recorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, table_len]
        self._stack = []
        self._originals = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            n_max = getattr(out, "n_max", None)
            if isinstance(n_max, int):
                span[4] = n_max
            return out

        return traced

    def install(self):
        """Replace every TRACED function of setcensus by its traced wrapper."""
        for mod_name, fn_name, _fields in TRACED:
            mod = importlib.import_module(f"setcensus.{mod_name}")
            fn = self._originals.setdefault((mod_name, fn_name), getattr(mod, fn_name))
            setattr(mod, fn_name, self.wrap(f"{mod_name}.{fn_name}", fn))

    def uninstall(self):
        """Put the original functions back; spans recorded so far stay."""
        for (mod_name, fn_name), fn in self._originals.items():
            setattr(importlib.import_module(f"setcensus.{mod_name}"), fn_name, fn)

    def take(self):
        """The spans recorded so far, which are then forgotten; call between queries."""
        spans = list(self.spans)
        self.spans.clear()  # in place: the wrappers hold this list
        return spans

    def dump(self, path):
        write_spans(path, self.spans)


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "table_len"], "spans": spans}, fh)


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def aggregate(span_lists):
    """{span name: {"self_s", "calls", "table_len"}} summed over several span lists."""
    agg = {f"{m}.{f}": {"self_s": 0.0, "calls": 0, "table_len": 0} for m, f, _ in TRACED}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _n in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, n_max) in enumerate(spans):
            a = agg[name]
            a["self_s"] += (end - start) - child_time[i]
            a["calls"] += 1
            a["table_len"] += n_max
    return agg


def layer_metrics(setup_spans, round_span_lists, rounds, speed):
    """The per-layer metric values named in BENCHMARK.json.

    Set-up functions are summed over the set-up spans; every other function
    over the spans of the traced rounds, divided by their number, so that a
    value does not depend on how many rounds fit in a run.  Self times are
    multiplied by speed.
    """
    per_setup = aggregate([setup_spans])
    per_run = aggregate(round_span_lists)
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        value = per_setup[span][field] if span in SETUP_FUNCTIONS else per_run[span][field] / rounds
        if field == "self_s":
            value *= speed
        out[metric] = {"value": value, "unit": "s" if field == "self_s" else "count"}
    return out
