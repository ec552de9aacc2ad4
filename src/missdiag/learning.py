"""Gradient-trace diagnostics for cross-modal learning balance.

A trainer logs, at every step t and for every modality m, the L2 norm
of the gradient of the modality-m-restricted loss with respect to each
of K model modules. These norms travel as one (T, M, K) float64 array
with a (T, M) flag grid marking the logged cells; `trace_from_norms`
reduces it to G_m(t), the mean over modules, summed in module order so
that the same norms always give the same bits. Logged norms travel as
rows too, in one columnar form: a structured array of `GRAD_SAMPLE_DTYPE`
(fields step, modality, module, grad_l2), whose indices are nonnegative
and whose norms are finite and >= 0. The `gradtrace-v1` reader and
writer, `RunLog.grad_samples()` and `assemble_trace`, which scatters the
rows back into the (T, M, K) array, all use it, and one row check names
the first row that breaks those rules. The step-to-step variation
delta_m(t) = |G_m(t) - G_m(t-1)| is compared across modalities:

    raw_inner = sum_t sum_m |mean_delta(t) - delta_m(t)|
                / (max_t mean_delta(t) * (T - 1) * M)
    index     = clamp(raw_inner ** (1/M), 0, 1)

Zero means every modality's gradient magnitude moves in lockstep;
higher values indicate asynchronous, unstable per-modality updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import textformat
from .errors import (
    DimensionError,
    DuplicateSampleError,
    FileFormatError,
    InsufficientTraceError,
    InvalidTraceError,
)


# The columnar form of gradient-norm rows: step t, modality m, module k, ||g||_2.
GRAD_SAMPLE_DTYPE = np.dtype(
    [("step", np.int64), ("modality", np.int64), ("module", np.int64), ("grad_l2", np.float64)]
)


def _row_error(
    step: np.ndarray, modality: np.ndarray, module: np.ndarray, grad_l2: np.ndarray
) -> str | None:
    """Why the first row of these equal-length columns is not a gradient-norm row, if any.

    Indices must be nonnegative and grad_l2 finite and >= 0. Index
    columns may hold Python ints beyond int64 (an object array).
    """
    negative = (step < 0) | (modality < 0) | (module < 0)
    bad = negative | ~np.isfinite(grad_l2) | (grad_l2 < 0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if negative[i]:
        return (f"step/modality/module must be nonnegative, got "
                f"({int(step[i])}, {int(modality[i])}, {int(module[i])})")
    return f"grad_l2 must be finite and >= 0, got {float(grad_l2[i])}"


def samples_from_norms(
    steps: Sequence[int], norms: np.ndarray, defined: np.ndarray
) -> np.ndarray:
    """Rows of the defined cells of a (T, M, K) norm array, in (step, modality, module) order.

    The inverse of `assemble_trace`'s scatter; undefined cells give no rows.
    """
    norms = np.asarray(norms, dtype=np.float64)
    K = norms.shape[2]
    t, m = np.nonzero(defined)
    out = np.empty(t.size * K, dtype=GRAD_SAMPLE_DTYPE)
    out["step"] = np.repeat(np.asarray(steps, dtype=np.int64)[t], K)
    out["modality"] = np.repeat(m, K)
    out["module"] = np.tile(np.arange(K), t.size)
    out["grad_l2"] = norms[t, m].reshape(-1)
    return out


@dataclass(frozen=True)
class GradTrace:
    """Per-step, per-modality aggregated gradient magnitudes G_m(t).

    `values` is a (T, M) grid with steps re-indexed to 1..T; `defined`
    flags which cells came from actual log entries (False = imputed).
    `warnings` records re-indexing and imputation performed during
    assembly.
    """

    values: np.ndarray
    defined: np.ndarray | None = None
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionError(f"trace grid must be 2-dimensional, got shape {values.shape}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise InvalidTraceError("trace contains negative or non-finite gradient values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        defined = self.defined
        if defined is None:
            defined = np.ones(values.shape, dtype=bool)
        else:
            defined = np.asarray(defined, dtype=bool)
            if defined.shape != values.shape:
                raise DimensionError(
                    f"defined flags of shape {defined.shape} do not match grid {values.shape}"
                )
            defined = defined.copy()
        defined.setflags(write=False)
        object.__setattr__(self, "defined", defined)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradTrace):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and np.array_equal(self.defined, other.defined)
            and self.warnings == other.warnings
        )

    @property
    def T(self) -> int:
        return int(self.values.shape[0])

    @property
    def M(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class MLIResult:
    """Learning-balance index with its pre-root, pre-clamp intermediates."""

    value: float
    raw_inner: float
    clamped: bool
    T: int
    M: int
    max_mean_delta: float


def trace_from_norms(
    steps: Sequence[int], norms: np.ndarray, defined: np.ndarray
) -> GradTrace:
    """G_m(t) from a (T, M, K) array of per-module gradient norms.

    `steps` holds the T increasing step numbers; they are re-indexed to
    1..T (a warning records any gaps). `defined` is (T, M) and marks the
    cells that were logged; the norms of other cells are ignored. Each
    defined cell is the mean of its K module norms, summed one after
    another in module order. Undefined cells take the last defined value
    of their modality (backfilling at the start); a modality with no
    defined cell at all is an error.
    """
    norms = np.asarray(norms, dtype=np.float64)
    defined = np.asarray(defined, dtype=bool)
    if norms.ndim != 3 or defined.shape != norms.shape[:2] or len(steps) != norms.shape[0]:
        raise DimensionError(
            f"{len(steps)} steps, norms of shape {norms.shape} and defined flags of "
            f"shape {defined.shape} do not form a (T, M, K) trace"
        )
    T, M, K = norms.shape
    if T < 1 or M < 1 or K < 1:
        raise InsufficientTraceError(f"empty gradient trace of shape {norms.shape}")
    warnings: list[str] = []
    first, last = int(steps[0]), int(steps[-1])
    if last - first + 1 != T:
        warnings.append(
            f"steps are not contiguous ({T} distinct steps spanning "
            f"{first}..{last}); re-indexed to 1..{T}"
        )

    # Left to right, not norms.sum(-1): numpy's pairwise sum splits 8 or
    # more terms across separate accumulators, which changes the last bits.
    with np.errstate(over="ignore", invalid="ignore"):
        total = norms[:, :, 0].copy()
        for k in range(1, K):
            total += norms[:, :, k]

    unlogged = ~defined.any(axis=0)
    if unlogged.any():
        raise _unlogged(int(np.argmax(unlogged)))
    overflow = defined & ~np.isfinite(total)
    if overflow.any():
        t, m = np.argwhere(overflow)[0].tolist()
        raise InvalidTraceError(
            f"the {K} module norms at step {int(steps[t])}, modality {m} "
            "do not sum to a finite value"
        )
    # Row of the last defined cell at or before t; leading gaps take the first.
    rows = np.where(defined, np.arange(T)[:, None], -1)
    np.maximum.accumulate(rows, axis=0, out=rows)
    rows = np.where(rows < 0, defined.argmax(axis=0), rows)
    values = (total / K)[rows, np.arange(M)]
    for m, n_imputed in enumerate((~defined).sum(axis=0).tolist()):
        if n_imputed:
            warnings.append(f"modality {m}: imputed {n_imputed} undefined step(s)")
    return GradTrace(values=values, defined=defined, warnings=tuple(warnings))


def assemble_trace(
    samples: np.ndarray, M: int | None = None, module_count: int | None = None
) -> GradTrace:
    """Build a contiguous (T, M) grid of G_m(t) from gradient-norm rows.

    `samples` is a `GRAD_SAMPLE_DTYPE` array. Arrival order is
    irrelevant. Exact duplicate rows are tolerated; rows that disagree on
    the same (step, modality, module) raise. Every logged (step,
    modality) cell needs one row per module. Cells with no rows — the
    modality was absent from that step's batch — are imputed as
    `trace_from_norms` describes. When M or
    module_count is omitted it is inferred from the rows. Errors name the
    first offending row in arrival order.
    """
    rows = np.asarray(samples, dtype=GRAD_SAMPLE_DTYPE)
    step, modality, module, value = (rows[name] for name in GRAD_SAMPLE_DTYPE.names)
    reason = _row_error(step, modality, module, value)
    if reason is not None:
        raise InvalidTraceError(reason)

    # Every writer emits rows in strictly increasing key order: those rows are
    # already the sorted unique keys. Any other order, exact duplicates
    # included, is sorted. Indices are nonnegative, so the differences fit.
    d_step, d_modality, d_module = np.diff(step), np.diff(modality), np.diff(module)
    in_key_order = bool((
        (d_step > 0) | ((d_step == 0) & ((d_modality > 0) | ((d_modality == 0) & (d_module > 0))))
    ).all())
    if not in_key_order:
        # A stable sort groups equal keys in arrival order; the first row of
        # a group holds the value that later rows of the group must repeat.
        order = np.lexsort((module, modality, step))
        keys = np.stack((step[order], modality[order], module[order]))
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        first = order[np.maximum.accumulate(np.where(starts, np.arange(order.size), 0))]
        clash = value[order] != value[first]
        if clash.any():
            j = int(order[clash].min())
            i = int(first[order == j][0])
            s, m, k = rows[j].tolist()[:3]
            raise DuplicateSampleError(
                f"conflicting grad_l2 at step {s}, modality {m}, module {k}: "
                f"{value[i].tolist()} vs {value[j].tolist()}"
            )
    if not rows.size:
        raise InsufficientTraceError("empty gradient sample stream")
    M = int(modality.max()) + 1 if M is None else M
    module_count = int(module.max()) + 1 if module_count is None else module_count
    if M < 1:
        raise DimensionError(f"modality count must be >= 1, got {M}")
    if module_count < 1:
        raise DimensionError(f"module count must be >= 1, got {module_count}")
    out_of_range = (modality >= M) | (module >= module_count)
    if out_of_range.any():
        s, m, k, _ = rows[np.argmax(out_of_range)].tolist()
        if m >= M:
            raise DimensionError(f"modality index {m} out of range for M={M}")
        raise InvalidTraceError(
            f"module index {k} out of range for module count {module_count}"
        )

    # Completeness and unlogged modalities are checked on the rows, before
    # the (T, M, K) grid exists, so that a huge index fails with its
    # message rather than with the allocation. Cells are the runs of equal
    # (step, modality) among the sorted unique keys.
    if not in_key_order:
        unique = order[starts]
        step, modality, module, value = (c[unique] for c in (step, modality, module, value))
    step_starts = np.ones(step.size, dtype=bool)
    step_starts[1:] = step[1:] != step[:-1]
    cell_starts = step_starts.copy()
    cell_starts[1:] |= modality[1:] != modality[:-1]
    bounds = np.append(np.flatnonzero(cell_starts), step.size)
    incomplete = np.flatnonzero(np.diff(bounds) < module_count)
    if incomplete.size:
        lo, hi = bounds[incomplete[0]], bounds[incomplete[0] + 1]
        raise InvalidTraceError(
            f"missing module entries: {_absent(module[lo:hi], module_count)} "
            f"at step {step[lo]}, modality {modality[lo]}"
        )
    # n cells leave a gap among modalities 0..n whenever M > n, so flags for
    # the first min(M, n + 1) modalities find the first unlogged one.
    cell_modality = modality[bounds[:-1]]
    logged = np.zeros(min(M, cell_modality.size + 1), dtype=bool)
    logged[cell_modality[cell_modality < logged.size]] = True
    if not logged.all():
        raise _unlogged(int(np.argmin(logged)))

    steps, t = step[step_starts], np.cumsum(step_starts) - 1
    norms = np.zeros((steps.size, M, module_count))
    norms[t, modality, module] = value
    defined = np.zeros((steps.size, M), dtype=bool)
    defined[t, modality] = True
    return trace_from_norms(steps, norms, defined)


def _absent(present: np.ndarray, count: int, limit: int = 20) -> str:
    """The indices below `count` missing from the sorted `present`, listed up to `limit`."""
    candidates = np.arange(min(count, limit + present.size + 1))
    missing = np.setdiff1d(candidates, present, assume_unique=True)[:limit].tolist()
    total = count - present.size
    if total <= limit:
        return str(missing)
    return f"[{', '.join(map(str, missing))}, ...] ({total} in all)"


def _unlogged(m: int) -> InvalidTraceError:
    return InvalidTraceError(f"modality {m} has no defined gradient values")


def check_stride(stride: int) -> None:
    """Raise `DimensionError` unless `stride` is a usable subsampling stride (>= 1)."""
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")


def mli(trace: GradTrace, stride: int = 1) -> MLIResult:
    """Learning-balance index of a gradient trace.

    With `stride` > 1 the trace is subsampled to every stride-th step
    before the difference series is formed. A perfectly static trace
    (max_t mean_delta = 0) scores 0 by convention.
    """
    check_stride(stride)
    values = trace.values[::stride]
    T, M = values.shape
    if M < 2:
        raise DimensionError(f"at least 2 modalities are required, got M={M}")
    if T < 2:
        raise InsufficientTraceError(
            f"at least 2 steps are required after subsampling, got T={T}"
        )
    # Finite values can still overflow in their differences and sums, and an
    # infinite normaliser would turn any spread into raw_inner 0.0: such a
    # trace is rejected rather than scored.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.abs(np.diff(values, axis=0))
        mean_delta = delta.mean(axis=1)
        max_mean = float(mean_delta.max())
        if max_mean == 0.0:
            return MLIResult(value=0.0, raw_inner=0.0, clamped=False, T=T, M=M,
                             max_mean_delta=0.0)
        normaliser = max_mean * (T - 1) * M
        raw_inner = float(np.abs(mean_delta[:, None] - delta).sum() / normaliser)
    if not (math.isfinite(normaliser) and math.isfinite(raw_inner)):
        raise InvalidTraceError(
            f"step-to-step changes of the trace overflow float64: max_mean_delta "
            f"{max_mean!r}, max_mean_delta * (T - 1) * M {normaliser!r}, "
            f"raw_inner {raw_inner!r}"
        )
    root = raw_inner ** (1.0 / M)
    clamped = root > 1.0
    return MLIResult(
        value=min(1.0, max(0.0, root)),
        raw_inner=raw_inner,
        clamped=clamped,
        T=T,
        M=M,
        max_mean_delta=max_mean,
    )


# ---------------------------------------------------------------------------
# gradtrace-v1 / gradagg-v1 file formats


def write_grad_samples(samples: np.ndarray, path: str | Path) -> None:
    """Write a `GRAD_SAMPLE_DTYPE` array as a `gradtrace-v1` CSV, sorted by (step, modality, module).

    A row that `read_grad_samples` would refuse raises `InvalidTraceError`,
    worded as `assemble_trace` words it, and no file is written.
    """
    from .report import atomic_write_text

    rows = np.asarray(samples, dtype=GRAD_SAMPLE_DTYPE)
    reason = _row_error(*(rows[name] for name in GRAD_SAMPLE_DTYPE.names))
    if reason is not None:
        raise InvalidTraceError(reason)
    rows = rows[np.lexsort((rows["module"], rows["modality"], rows["step"]))]
    columns = [rows[name] for name in GRAD_SAMPLE_DTYPE.names]
    body = textformat.format_rows("%d,%d,%d,%r\n", columns)
    atomic_write_text(Path(path), "step,modality,module,grad_l2\n" + body)


_TRACE_FIELDS = (textformat.INT, textformat.INT, textformat.INT, textformat.FLOAT)
_AGG_FIELDS = (textformat.INT, textformat.INT, textformat.FLOAT)
_AGG_DTYPE = np.dtype([("step", np.int64), ("modality", np.int64), ("G", np.float64)])


def read_grad_samples(path: str | Path) -> np.ndarray:
    """Read a `gradtrace-v1` CSV into a `GRAD_SAMPLE_DTYPE` array.

    The first malformed row raises `FileFormatError` with its line number.
    """
    return _read_trace_rows(path, _TRACE_FIELDS, GRAD_SAMPLE_DTYPE)


def write_agg_trace(trace: GradTrace, path: str | Path) -> None:
    """Write a `gradagg-v1` CSV of the already-aggregated G_m(t) grid."""
    from .report import atomic_write_text

    T, M = trace.values.shape
    steps = np.repeat(np.arange(1, T + 1), M)
    modalities = np.tile(np.arange(M), T)
    body = textformat.format_rows("%d,%d,%r\n", [steps, modalities, trace.values.reshape(-1)])
    atomic_write_text(Path(path), "step,modality,G\n" + body)


def read_agg_trace(path: str | Path) -> GradTrace:
    """Read a `gradagg-v1` CSV into a trace (one module per cell implied)."""
    cells = _read_trace_rows(path, _AGG_FIELDS, _AGG_DTYPE)
    rows = np.zeros(cells.size, dtype=GRAD_SAMPLE_DTYPE)
    rows["step"], rows["modality"], rows["grad_l2"] = cells["step"], cells["modality"], cells["G"]
    try:
        return assemble_trace(rows, module_count=1)
    except InsufficientTraceError:
        raise FileFormatError(f"{path}: no trace rows") from None


def sniff_trace_format(path: str | Path) -> str:
    """Return 'gradtrace-v1' or 'gradagg-v1' from a file's header line."""
    path = Path(path)
    with path.open("rb") as f:
        header = ",".join(textformat.read_header(path, f.readline()))
    if header == "step,modality,module,grad_l2":
        return "gradtrace-v1"
    if header == "step,modality,G":
        return "gradagg-v1"
    raise FileFormatError(f"{path}: unrecognised trace header {header!r}")


def _read_trace_rows(path: str | Path, fields: tuple[str, ...], dtype: np.dtype) -> np.ndarray:
    """Rows of a trace file whose header is `dtype`'s field names."""
    header, body = textformat.read_text(path)
    if tuple(header) != dtype.names:
        raise FileFormatError(f"{path}: expected header {','.join(dtype.names)!r}")
    rows = textformat.parse_rows(body, fields, dtype)
    if rows is None or not np.isfinite(rows[dtype.names[-1]]).all():
        raise textformat.first_bad_line(path, body, dtype.names, fields, _trace_row_error)
    return rows


def _trace_row_error(k: int, cells: list[str]) -> str | None:
    """Why a row's cells do not form a gradient-norm row (module 0 when absent), if they do not."""
    try:
        ints = [int(v) for v in cells[:-1]]
        value = float(cells[-1])
    except ValueError:
        return "non-numeric field"
    module = ints[2] if len(ints) > 2 else 0
    return _row_error(*(np.atleast_1d(v) for v in (ints[0], ints[1], module, value)))
