"""Spans around dropconf's public functions, installed from outside.

``Tracer.install`` replaces every binding of each target function in every
loaded ``dropconf`` module with a wrapper that records a span: name, start,
end, parent span and repetition id, plus a count taken from the return
value. Modules import each other's functions by name (``runner.train``,
``conformal.mc_dropout_predict``, ...), so patching only the defining module
would miss those calls. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _bytes_written(result, args):
    return os.path.getsize(args[0])


# (span name, defining module, function, (count name, count from the return
# value and arguments) or None, binding modules or None for all).
# forward_batch gets one name per caller: the dropout passes reach it through
# ensemble's binding, the validation RMSE inside train through net's.
TARGETS = (
    ("config.parse_config", "dropconf.config", "parse_config", None, None),
    ("data.load_table", "dropconf.data", "load_table", ("rows", lambda r, a: r.n_rows), None),
    ("data.make_synthetic", "dropconf.data", "make_synthetic",
     ("rows", lambda r, a: r.n_rows), None),
    ("forest.fit_cart", "dropconf.forest", "fit_cart", ("nodes", lambda r, a: r.n_nodes), None),
    ("forest.fit_forest", "dropconf.forest", "fit_forest", None, None),
    ("forest.forest_predict", "dropconf.forest", "forest_predict", None, None),
    ("forest.oof_calibration", "dropconf.forest", "oof_calibration", None, None),
    ("net.train", "dropconf.net", "train", ("epochs", lambda r, a: r[1].n_epochs), None),
    ("net.compute_gradients", "dropconf.net", "compute_gradients", None, None),
    ("net.forward_batch", "dropconf.net", "forward_batch", None, ("dropconf.net",)),
    ("ensemble.forward_batch", "dropconf.net", "forward_batch", None, ("dropconf.ensemble",)),
    ("ensemble.mc_dropout_predict", "dropconf.ensemble", "mc_dropout_predict",
     ("row_passes", lambda r, a: len(r.means) * r.n_members), None),
    ("conformal.build_calibration", "dropconf.conformal", "build_calibration", None, None),
    ("conformal.intervals_for", "dropconf.conformal", "intervals_for",
     ("intervals", lambda r, a: sum(len(ivs) for ivs in r.values())), None),
    ("conformal.dropout_icp", "dropconf.conformal", "dropout_icp", None, None),
    ("conformal.rf_ccp", "dropconf.conformal", "rf_ccp", None, None),
    ("evaluate.evaluate_model", "dropconf.evaluate", "evaluate_model", None, None),
    ("evaluate.aggregate_runs", "dropconf.evaluate", "aggregate_runs", None, None),
    ("runner.write_csv", "dropconf.runner", "write_csv", ("bytes", _bytes_written), None),
    ("runner.write_json", "dropconf.runner", "write_json", ("bytes", _bytes_written), None),
    ("runner.build_manifest", "dropconf.runner", "build_manifest", None, None),
    ("runner.run_single", "dropconf.runner", "run_single", None, None),
    ("runner.run_experiment", "dropconf.runner", "run_experiment", None, None),
)

class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, rep, count]
        self.spans = []
        self.rep = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count[1](result, args)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target; fail if one is left unwrapped."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "dropconf" or n.startswith("dropconf.")}
        originals = {}
        for name, home, attr, count, bindings in TARGETS:
            fn = originals.setdefault((home, attr), getattr(modules[home], attr))
            wrapper = self._wrap(name, fn, count)
            for mod_name, mod in modules.items():
                if bindings is not None and mod_name not in bindings:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))
        for (home, attr), fn in originals.items():
            left = [n for n, m in modules.items() for v in vars(m).values() if v is fn]
            if left:
                raise RuntimeError(f"{home}.{attr} is still reachable unwrapped through {left}")

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "rep", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


def rep_totals(spans, rep) -> dict:
    """Per span name: total seconds, self seconds, call count and summed count.

    Self time is a span's duration minus the time its child spans cover.
    Calls run on one thread, so children never overlap and their union is
    their sum.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[4] == rep and s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
    for i, s in enumerate(spans):
        if s[4] != rep:
            continue
        agg = out[s[0]]
        agg["s"] += s[2] - s[1]
        agg["self_s"] += s[2] - s[1] - child_time[i]
        agg["calls"] += 1
        agg["count"] += s[5]
    return dict(out)
