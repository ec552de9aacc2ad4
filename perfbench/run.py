"""missdiag benchmark: closed-loop CLI operations, one client, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload sim-mask --seed 1 --seconds 30 --trace 0

Each operation calls `missdiag.cli.main(argv)` in-process; the next
operation starts when the previous one has returned. Outputs are checked
against `tests/oracles.py` references after the timed loop.

--trace 0 times the operations untraced and reports the end-to-end
metrics. Operation times are given as a cost: each command's wall time
divided by the time of a fixed reference task run just before and just
after it, summed over the operation's commands (unit `ref`). On a shared
virtual machine the processors' speed can change by 1.5-2x for seconds
at a time, which moves raw times between runs by more than the bounds;
the reference task slows with them, so the cost moves far less. Of the
operation times only the median cost is an end-to-end metric. The tail
cost (op_cost_tail) and the raw
wall times (op_s_p50, op_s_tail, ops_per_s) are printed with the metadata:
a run holds 5 to 15 operations, so the tail is the lowest one or close to
it, and that moves with any single operation the reference task misjudged.

--trace 1 alternates untraced operations with operations run under the
outside-in tracer (spans.py), and reports per-layer metrics;
its spans are written to .perfbench_work/spans/. The last stdout line
is the JSON result; the line before it holds the run's metadata.
--toy shrinks every input, for the smoke check (smoke.py).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
REFERENCE_REPEATS = 3
# A tail is the highest percentile with this many operations above it.
TAIL_BEYOND = 10

END_TO_END = {
    "op_cost_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for smoke.py")
    return parser.parse_args(argv)


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    text = ",".join(repr(0.1 * i + 1e-7 * i * i) for i in range(8000))
    return text, rng.random(20_000), rng.random((256, 256))


def _reference_s() -> float:
    """Seconds a fixed reference task takes now: the fastest of a few runs.

    The task is work of the kinds the program does: it parses numbers from
    text into lists of rows, sorts an array and multiplies matrices, which
    numpy's BLAS spreads over the cores as it does the trainer's products.
    """
    text, array, matrix = _reference_inputs()
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t = time.perf_counter()
        values = [float(x) for x in text.split(",")]
        rows = [[i, v, v * 0.5] for i, v in enumerate(values)]
        array.copy().sort()
        for _ in range(4):
            matrix @ matrix
        best = min(best, time.perf_counter() - t)
        del rows
    return best


class Op:
    """One operation's outputs and times."""

    def __init__(self) -> None:
        self.outputs: list[tuple[str, str]] = []
        self.error: str | None = None
        self.wall_s = self.cpu_s = self.cost = 0.0


def _run_op(cli, commands: list[list[str]]) -> Op:
    """Run one operation's commands, with the reference task before each and after the last.

    Each command's wall time, divided by the mean of the reference task's
    times just before and just after it, adds to the operation's cost.
    """
    op = Op()
    reference = _reference_s()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        cpu, t = _cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop must go on; the failure is counted and shown
            op.error = f"{argv[:2]} raised:\n{traceback.format_exc()}"
        command_s = time.perf_counter() - t
        op.wall_s += command_s
        op.cpu_s += _cpu_seconds() - cpu
        after = _reference_s()
        op.cost += command_s / (0.5 * (reference + after))
        reference = after
        if op.error is not None:
            return op
        op.outputs.append((out.getvalue(), err.getvalue()))
        if code != 0:
            op.error = f"{argv[:2]} exited {code}: {err.getvalue().strip()}"
            return op
    return op


class Loop:
    """Closed loop of operations; keeps each one's times and outputs for checking."""

    def __init__(self, cli, workload, work: Path) -> None:
        self.cli, self.workload, self.work = cli, workload, work
        self.records: list[tuple[int, Path, Op]] = []

    def run(self, seconds: float, tracer=None) -> tuple[list[Op], list[Op]]:
        """Run operations until `seconds` have passed, at least one of each kind.

        With a tracer, every second operation runs with it installed, so that
        both halves see the same machine. Returns the untraced and the traced
        operations.
        """
        untraced, traced_ops = [], []
        start = time.perf_counter()
        elapsed = 0.0
        while not untraced or (tracer is not None and not traced_ops) or elapsed < seconds:
            n = len(self.records)
            out = self.work / f"op{n}"
            commands = self.workload.commands(n, out)
            traced = tracer is not None and len(untraced) > len(traced_ops)
            if traced:
                tracer.op = n
                tracer.install()
            try:
                op = _run_op(self.cli, commands)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_ops if traced else untraced).append(op)
            self.records.append((n, out, op))
            elapsed = time.perf_counter() - start
        return untraced, traced_ops

    def check(self) -> list[str]:
        """Check every operation's outputs; returns one line per failed operation."""
        failures = []
        for n, out, op in self.records:
            error = op.error
            if error is None:
                try:
                    problems = self.workload.check(n, out, op.outputs)
                except Exception:  # malformed output fails this operation, not the run
                    problems = [f"output check raised:\n{traceback.format_exc()}"]
                if problems:
                    error = "; ".join(problems)
            if error is not None:
                failures.append(f"op {n}: {error}")
            shutil.rmtree(out, ignore_errors=True)
        return failures


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it: the percentile,
    its value and the number of samples above it.

    With TAIL_BEYOND or fewer samples no percentile qualifies and the lowest
    sample stands in, with fewer samples above it.
    """
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "missdiag").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "missdiag" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no missdiag checkout (src/missdiag, tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    from missdiag import cli

    import workloads
    import_s = time.perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, cli, workloads.WORKLOADS[args.workload], work, import_s,
                      np.__version__)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, cli, workload_cls, work: Path, import_s: float,
           numpy_version: str) -> int:
    # Set-up, several times: inputs, references, one checked warm-up operation.
    setup_times, setup_failures = [], []
    for r in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workload_cls(args.seed, args.toy)
        inputs = work / f"setup{r}"
        inputs.mkdir(parents=True)
        workload.prepare(inputs)
        warmup = Loop(cli, workload, inputs / "warmup")
        warmup.run(0.0)
        setup_failures += [f"warm-up {r}: {f}" for f in warmup.check()]
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    loop = Loop(cli, workload, work / "ops")
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = loop.run(args.seconds, tracer)
    times = [op.wall_s for op in untraced]
    traced_times = [op.wall_s for op in traced]
    costs = [op.cost for op in untraced]
    op_failures = loop.check()
    n_ops, failed = len(loop.records), len(op_failures)
    for line in (setup_failures + op_failures)[:5]:
        print(f"check failed: {line}", file=sys.stderr)

    percentile, tail, beyond = _tail(times)
    _, cost_tail, _ = _tail(costs)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "loop": "closed loop, 1 client, in-process missdiag.cli.main(argv)",
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy_version, "blas": _blas(),
        "nproc": os.cpu_count(), "untraced_ops": len(times), "traced_ops": len(traced_times),
        "op_s_p50": _metric(statistics.median(times), "s"),
        "op_s_tail": _metric(tail, "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "op_cost_tail": _metric(cost_tail, "ref"),
        "tail_percentile": percentile, "tail_beyond": beyond,
        "failed_ratio": failed / n_ops,
        "setup_repeats_s": setup_times, "import_s": import_s, "op_s": times,
        "op_cost": costs,
    }

    if args.trace == 0:
        metrics = {
            "op_cost_p50": statistics.median(costs),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - failed / n_ops,
        }
        result_metrics = {name: _metric(metrics[name], unit)
                          for name, unit in END_TO_END.items()}
    else:
        cpu_per_wall = sum(op.cpu_s for op in untraced) / sum(times)
        result_metrics = _layer_metrics(tracer, traced_times, times, cpu_per_wall)
        span_dir = WORK_ROOT / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        span_path = span_dir / f"{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(span_path)
        self_total = sum(v["value"] for k, v in result_metrics.items() if k.endswith(".self_s"))
        meta["span_coverage"] = self_total / statistics.mean(traced_times)
        meta["spans"] = str(span_path.relative_to(ROOT))

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not setup_failures and not op_failures,
        "attempted": n_ops,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def _layer_metrics(tracer, traced_times, times, cpu_per_wall) -> dict:
    """Per-function counts and times per traced operation, plus derived rates."""
    summary = tracer.summary(len(traced_times))
    metrics = {}
    for name in spans.FUNCTIONS:
        entry = summary[name]
        metrics[f"{name}.calls"] = _metric(entry["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(entry["self_s"], "s")
        metrics[f"{name}.total_s"] = _metric(entry["total_s"], "s")
        metrics[f"{name}.errors"] = _metric(entry["errors"], "count")

    def per(name: str, numerator: str, denominator: str, scale: float = 1.0) -> float:
        den = summary[name][denominator]
        return scale * summary[name][numerator] / den if den else 0.0

    for name, key in (("protocol.generate_mask_matrix", "rows_per_s"),
                      ("protocol.read_mask_matrix", "rows_per_s"),
                      ("learning.read_grad_samples", "rows_per_s"),
                      ("learning.assemble_trace", "samples_per_s")):
        metrics[f"{name}.{key}"] = _metric(per(name, "work", "total_s"), "1/s")
    metrics["simtrainer.train_step.us_per_call"] = _metric(
        per("simtrainer.train_step", "total_s", "calls", 1e6), "us")
    metrics["simtrainer.ablation_table.ms_per_call"] = _metric(
        per("simtrainer.ablation_table", "total_s", "calls", 1e3), "ms")
    metrics["process.cpu_per_wall"] = _metric(cpu_per_wall, "ratio")
    metrics["process.tracing_overhead"] = _metric(
        statistics.median(traced_times) / statistics.median(times) - 1.0, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
