"""Outside-in tracer: wraps missdiag's public functions and records spans.

The tracer never edits the package. While installed it replaces every
attribute of a loaded `missdiag` module that *is* one of the listed
function objects with a timing wrapper, so aliases made by
`from .protocol import generate_mask_matrix` are traced too. Private
helpers are not wrapped; their time counts toward their public caller's
self time. A listed function that no longer exists reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions whose calls are timed, in report order.
LAYERS = {
    "cli": ("main",),
    "config": ("resolve_config",),
    "protocol": (
        "generate_mask_matrix",
        "write_mask_matrix",
        "read_mask_matrix",
        "divergence",
        "pattern_distribution",
        "all_patterns",
        "pattern_probability",
    ),
    "equity": (
        "read_ablation_tables",
        "write_ablation_tables",
        "mei_from_table",
        "perf_drops",
    ),
    "learning": (
        "read_grad_samples",
        "read_agg_trace",
        "write_grad_samples",
        "write_agg_trace",
        "assemble_trace",
        "aggregate_G",
        "mli",
    ),
    "simtrainer": (
        "run_experiment",
        "gen_synthetic",
        "train_step",
        "module_grad_norms",
        "ablation_table",
        "evaluate_under_combination",
    ),
    "report": ("file_sha256", "write_report"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _n_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _mask_rows(args, kwargs, result):
    return result[1].shape[0]


def _result_len(args, kwargs, result):
    return len(result)


def _samples_arg_len(args, kwargs, result):
    return len(args[0] if args else kwargs["samples"])


# Work counted per call for the rate metrics: function -> count(args, kwargs, result).
WORK = {
    "protocol.generate_mask_matrix": _n_arg,
    "protocol.read_mask_matrix": _mask_rows,
    "learning.read_grad_samples": _result_len,
    "learning.assemble_trace": _samples_arg_len,
}


class Tracer:
    """Keeps spans in memory: (function, parent span, op, start, end, ok, work)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        targets = {}
        for fid, name in enumerate(FUNCTIONS):
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules.get(f"missdiag.{mod_name}"), fn_name, None)
            if callable(fn):
                targets[id(fn)] = (fn, self._wrap(fid, fn, WORK.get(name)))
        modules = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "missdiag" or mod_name.startswith("missdiag."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = targets.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, fid: int, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[span] = (fid, parent, self.op, start, end, ok, None)
            if count is not None:
                try:
                    work = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    work = None
                spans[span] = spans[span][:6] + (work,)
            return result

        return traced

    def summary(self, n_ops: int) -> dict[str, dict[str, float]]:
        """Per-function calls, self/total seconds, errors and work, per operation."""
        child_time = [0.0] * len(self.spans)
        for fid, parent, _op, start, end, _ok, _work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "work": 0}
                 for name in FUNCTIONS}
        for i, (fid, _parent, _op, start, end, ok, work) in enumerate(self.spans):
            entry = stats[FUNCTIONS[fid]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["errors"] += not ok
            entry["work"] += work or 0
        return {name: {key: value / n_ops for key, value in entry.items()}
                for name, entry in stats.items()}

    def write_csv(self, path) -> None:
        """Write the spans, times in microseconds from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,op,function,start_us,end_us,ok\n")
            for i, (fid, parent, op, start, end, ok, _work) in enumerate(self.spans):
                f.write(f"{i},{parent},{op},{FUNCTIONS[fid]},{(start - t0) * 1e6:.1f},"
                        f"{(end - t0) * 1e6:.1f},{int(ok)}\n")
