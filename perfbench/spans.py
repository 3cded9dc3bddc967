"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of each ts_groups module from the
outside (nothing in ``src/`` changes) and records, per span
``<module>.<function>``, the number of calls, the total time and the
self time: the span's duration minus the time covered by child spans.
A few deterministic counts are recorded at the same boundaries.

Spans are installed for the duration of a ``with Tracer() as tracer:``
block and the original functions are restored on exit, so untimed and
untraced code never pays for them.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from pathlib import Path

_ROOT = str(Path(__file__).resolve().parent.parent)

# (span name, module, attribute).  "Class.method" wraps that class's
# method; "*.method" wraps the method on every class of the module that
# defines it (each oracle type has its own length and multiply).
SPANS = (
    ("words.is_k_aperiodic", "ts_groups.words", "is_k_aperiodic"),
    ("words.reduce", "ts_groups.words", "reduce"),
    ("cancellation.satisfies_small_cancellation", "ts_groups.cancellation",
     "satisfies_small_cancellation"),
    ("trees.path_between", "ts_groups.trees", "PlaneTernaryTree.path_between"),
    ("sequences.path_labels", "ts_groups.sequences", "LabeledTree.path_labels"),
    ("sequences.label_tree_three_letters", "ts_groups.sequences", "label_tree_three_letters"),
    ("sequences.label_tree_adversarial", "ts_groups.sequences", "label_tree_adversarial"),
    ("sequences.label_ray_adversarial", "ts_groups.sequences", "label_ray_adversarial"),
    ("groups.distance", "ts_groups.groups", "GroupOracle.distance"),
    ("groups.length", "ts_groups.groups", "*.length"),
    ("groups.multiply", "ts_groups.groups", "*.multiply"),
    ("tours.sample_related_set", "ts_groups.tours", "sample_related_set"),
    ("tours.tsp_exact", "ts_groups.tours", "tsp_exact"),
    ("tours.tsp_heuristic", "ts_groups.tours", "tsp_heuristic"),
    ("tours.mst_bounds", "ts_groups.tours", "mst_bounds"),
    ("tours.l_prime", "ts_groups.tours", "l_prime"),
    ("forests.build_forest_p", "ts_groups.forests", "build_forest_p"),
    ("forests.build_forest_p10", "ts_groups.forests", "build_forest_p10"),
    ("forests.verify_forest", "ts_groups.forests", "verify_forest"),
    ("testers.construct_xi", "ts_groups.testers", "construct_xi"),
    ("testers.verify_product_aperiodicity", "ts_groups.testers",
     "verify_product_aperiodicity"),
)

# Counts and ratios measured at the span boundaries, with their units.
EXTRAS = (
    ("words.is_k_aperiodic.letters", "count"),
    ("trees.paths", "count"),
    ("sequences.engine_observe.calls", "count"),
    ("tours.tsp_exact.dp_states", "count"),
    ("groups.f2xz.repeat_ratio", "ratio"),
    ("forests.advisory_ratio", "ratio"),
    ("testers.construct_xi.attempts", "count"),
    ("testers.product_letters", "count"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Installs the spans on enter and restores the originals on exit."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}  # calls, total, self
        self.counts = dict.fromkeys(
            ("letters", "paths", "observe", "dp_states", "f2xz_calls", "f2xz_repeats",
             "forests", "advisory", "attempts", "product_letters"), 0)
        self._stack = []  # child time accumulated by each open span
        self._open = dict.fromkeys(self.stats, 0)  # open spans per name
        self._undo = []
        self._seen = weakref.WeakKeyDictionary()  # F2xZ oracle -> arguments seen
        self._f2xz = sys.modules["ts_groups.groups"].F2xZOracle

    # -- installation -----------------------------------------------------

    def __enter__(self):
        groups = sys.modules["ts_groups.groups"]
        arg_hooks = {
            "words.is_k_aperiodic": self._count_letters,
            "tours.tsp_exact": self._count_dp_states,
            "groups.length": self._count_f2xz,
        }
        for name, module, attr in SPANS:
            self._wrap(sys.modules[module], attr,
                       lambda fn, n=name: self._span(n, fn, arg_hooks.get(n),
                                                     _RESULT_HOOKS.get(n)))
        self._wrap(groups, "F2xZOracle.geodesic_steps",
                   lambda fn: self._counter(fn, self._count_f2xz))
        self._wrap(sys.modules["ts_groups.sequences"], "InadmissibleEngine.observe",
                   lambda fn: self._counter(fn, self._count_observe))
        self._wrap(sys.modules["ts_groups.trees"], "enumerate_simple_paths", self._path_counter)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap(self, module, attr, make):
        owner_name, _, method = attr.rpartition(".")
        if not owner_name:
            self._replace_everywhere(getattr(module, attr), make)
            return
        if owner_name == "*":
            owners = [c for c in vars(module).values()
                      if isinstance(c, type) and c.__module__ == module.__name__
                      and method in vars(c)]
        else:
            owners = [getattr(module, owner_name)]
        for owner in owners:
            original = vars(owner)[method]
            setattr(owner, method, make(original))
            self._undo.append((owner, method, original))

    def _replace_everywhere(self, original, make):
        """Rebind a module-level function in every module of the checkout
        that holds it, including the names other modules imported."""
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__file__", None) or not mod.__file__.startswith(_ROOT):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, arg_hook, result_hook):
        stat = self.stats[name]
        stack = self._stack
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                arg_hook(args)
            open_spans[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                open_spans[name] -= 1
                stat[0] += 1
                stat[2] += elapsed - child
                if not open_spans[name]:  # nested calls of one span count once
                    stat[1] += elapsed
                if stack:
                    stack[-1] += elapsed
            if result_hook is not None:
                result_hook(counts, result)
            return result

        return wrapper

    @staticmethod
    def _counter(fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook(args)
            return fn(*args, **kwargs)

        return wrapper

    def _path_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for path in fn(*args, **kwargs):
                counts["paths"] += 1
                yield path

        return wrapper

    # -- boundary counts --------------------------------------------------

    def _count_letters(self, args):
        self.counts["letters"] += len(args[0])

    def _count_dp_states(self, args):
        n = args[0].size
        self.counts["dp_states"] += n * 2 ** (n - 1)

    def _count_f2xz(self, args):
        oracle, g = args[0], args[1]
        if not isinstance(oracle, self._f2xz):
            return
        seen = self._seen.setdefault(oracle, set())
        key = (g[0].letters, g[1])
        self.counts["f2xz_calls"] += 1
        if key in seen:
            self.counts["f2xz_repeats"] += 1
        else:
            seen.add(key)

    def _count_observe(self, args):
        self.counts["observe"] += 1

    # -- report -----------------------------------------------------------

    def metrics(self, overhead_frac):
        """Every per-layer metric as name -> (value, unit)."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_time, "s")
        c = self.counts
        values = {
            "words.is_k_aperiodic.letters": c["letters"],
            "trees.paths": c["paths"],
            "sequences.engine_observe.calls": c["observe"],
            "tours.tsp_exact.dp_states": c["dp_states"],
            "groups.f2xz.repeat_ratio": _ratio(c["f2xz_repeats"], c["f2xz_calls"]),
            "forests.advisory_ratio": _ratio(c["advisory"], c["forests"]),
            "testers.construct_xi.attempts": c["attempts"],
            "testers.product_letters": c["product_letters"],
            "trace.overhead_frac": overhead_frac,
        }
        for name, unit in EXTRAS:
            out[name] = (values[name], unit)
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _forest_result(counts, forest):
    counts["forests"] += 1
    counts["advisory"] += bool(forest.advisory)


def _attempts_result(counts, report):
    counts["attempts"] += report.attempts


def _product_result(counts, result):
    counts["product_letters"] += result[1]["product_length"]


_RESULT_HOOKS = {
    "forests.build_forest_p": _forest_result,
    "forests.build_forest_p10": _forest_result,
    "testers.construct_xi": _attempts_result,
    "testers.verify_product_aperiodicity": _product_result,
}
