"""Gradient-trace diagnostics for cross-modal learning balance.

A trainer logs, at every step t and for every modality m, the L2 norm
of the gradient of the modality-m-restricted loss with respect to each
of K model modules. These norms travel as one (T, M, K) float64 array
with a (T, M) flag grid marking the logged cells; `trace_from_norms`
reduces it to G_m(t), the mean over modules, summed in module order so
that the same norms always give the same bits. Logged norms travel as
rows too, in one columnar form: a structured array of `GRAD_SAMPLE_DTYPE`
(fields step, modality, module, grad_l2). The `gradtrace-v1` reader and
writer, `RunLog.grad_samples()` and `assemble_trace`, which scatters the
rows back into the (T, M, K) array, all use it; `GradSample` objects are
built only on request, by `grad_sample_list`. The step-to-step
variation delta_m(t) = |G_m(t) - G_m(t-1)| is compared across
modalities:

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
from typing import Iterable, Sequence

import numpy as np

from . import textformat
from .errors import (
    DimensionError,
    DuplicateSampleError,
    FileFormatError,
    InsufficientTraceError,
    InvalidTraceError,
)


@dataclass(frozen=True)
class GradSample:
    """One logged gradient norm: step t, modality m, module k, ||g||_2."""

    step: int
    modality: int
    module: int
    grad_l2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", int(self.step))
        object.__setattr__(self, "modality", int(self.modality))
        object.__setattr__(self, "module", int(self.module))
        object.__setattr__(self, "grad_l2", float(self.grad_l2))
        if self.step < 0 or self.modality < 0 or self.module < 0:
            raise InvalidTraceError(
                f"step/modality/module must be nonnegative, got "
                f"({self.step}, {self.modality}, {self.module})"
            )
        if not math.isfinite(self.grad_l2) or self.grad_l2 < 0:
            raise InvalidTraceError(f"grad_l2 must be finite and >= 0, got {self.grad_l2}")


# The columnar form of gradient-norm rows: one record per GradSample.
GRAD_SAMPLE_DTYPE = np.dtype(
    [("step", np.int64), ("modality", np.int64), ("module", np.int64), ("grad_l2", np.float64)]
)


def grad_sample_array(samples: Iterable[GradSample] | np.ndarray) -> np.ndarray:
    """Rows as a `GRAD_SAMPLE_DTYPE` array; an array is cast, GradSample objects are read."""
    if isinstance(samples, np.ndarray):
        return samples.astype(GRAD_SAMPLE_DTYPE, copy=False)
    return np.array(
        [(s.step, s.modality, s.module, s.grad_l2) for s in samples], dtype=GRAD_SAMPLE_DTYPE
    )


def grad_sample_list(samples: np.ndarray) -> list[GradSample]:
    """The rows of a `GRAD_SAMPLE_DTYPE` array as validated GradSample objects."""
    return [GradSample(*row) for row in samples.tolist()]


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


def modality_loss(per_sample_losses: Sequence[float] | np.ndarray,
                  mask_column: Sequence[int] | np.ndarray) -> float | None:
    """Mean loss over the samples where the modality is observed.

    Returns None when the modality is absent from every sample (the
    restricted loss is undefined for that batch, not zero).
    """
    losses = np.asarray(per_sample_losses, dtype=np.float64)
    mask = np.asarray(mask_column, dtype=np.float64)
    if losses.shape != mask.shape or losses.ndim != 1:
        raise DimensionError(
            f"losses and mask column must be equal-length vectors, got "
            f"shapes {losses.shape} and {mask.shape}"
        )
    if losses.size == 0:
        raise DimensionError("at least one sample is required")
    total = mask.sum()
    if total == 0:
        return None
    return float((losses * mask).sum() / total)


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
    total = norms[:, :, 0].copy()
    for k in range(1, K):
        total += norms[:, :, k]

    unlogged = ~defined.any(axis=0)
    if unlogged.any():
        raise InvalidTraceError(
            f"modality {int(np.argmax(unlogged))} has no defined gradient values"
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
    samples: np.ndarray | Iterable[GradSample],
    M: int | None = None,
    module_count: int | None = None,
) -> GradTrace:
    """Build a contiguous (T, M) grid of G_m(t) from gradient-norm rows.

    `samples` is a `GRAD_SAMPLE_DTYPE` array, or GradSample objects that
    are converted to one. Arrival order is irrelevant. Exact duplicate
    rows are tolerated; rows that disagree on the same (step, modality,
    module) raise. Every logged (step, modality) cell needs one row per
    module. Cells with no rows — the modality was absent from that step's
    batch — are imputed as `trace_from_norms` describes. When M or
    module_count is omitted it is inferred from the rows. Errors name the
    first offending row in arrival order.
    """
    rows = grad_sample_array(samples)
    step, modality, module, value = (rows[name] for name in GRAD_SAMPLE_DTYPE.names)
    bad = (step < 0) | (modality < 0) | (module < 0) | ~np.isfinite(value) | (value < 0)
    if bad.any():
        GradSample(*rows[np.argmax(bad)].tolist())  # raises with the row's reason

    # A stable sort groups equal keys in arrival order; the first row of a
    # group holds the value that later rows of the group must repeat.
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

    unique = order[starts]
    steps, t = np.unique(step[unique], return_inverse=True)
    cell = (t, modality[unique], module[unique])
    norms = np.zeros((steps.size, M, module_count))
    norms[cell] = value[unique]
    seen = np.zeros(norms.shape, dtype=bool)
    seen[cell] = True
    counts = seen.sum(axis=2)
    incomplete = np.argwhere((counts > 0) & (counts < module_count))
    if incomplete.size:
        t, m = incomplete[0].tolist()
        raise InvalidTraceError(
            f"missing module entries: {np.flatnonzero(~seen[t, m]).tolist()} "
            f"at step {steps[t]}, modality {m}"
        )
    return trace_from_norms(steps, norms, counts > 0)


def delta_series(trace: GradTrace) -> tuple[np.ndarray, np.ndarray]:
    """Step-to-step variation grid and its per-step cross-modal mean.

    delta[t, m] = |G_m(t+1) - G_m(t)| (shape (T-1, M));
    mean_delta[t] = mean over m of delta[t, m].
    """
    if trace.T < 2:
        raise InsufficientTraceError(
            f"at least 2 steps are required for a difference series, got T={trace.T}"
        )
    delta = np.abs(np.diff(trace.values, axis=0))
    return delta, delta.mean(axis=1)


def mli(trace: GradTrace, stride: int = 1) -> MLIResult:
    """Learning-balance index of a gradient trace.

    With `stride` > 1 the trace is subsampled to every stride-th step
    before the difference series is formed. A perfectly static trace
    (max_t mean_delta = 0) scores 0 by convention.
    """
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    values = trace.values[::stride]
    T, M = values.shape
    if M < 2:
        raise DimensionError(f"at least 2 modalities are required, got M={M}")
    if T < 2:
        raise InsufficientTraceError(
            f"at least 2 steps are required after subsampling, got T={T}"
        )
    delta = np.abs(np.diff(values, axis=0))
    mean_delta = delta.mean(axis=1)
    max_mean = float(mean_delta.max())
    if max_mean == 0.0:
        return MLIResult(value=0.0, raw_inner=0.0, clamped=False, T=T, M=M,
                         max_mean_delta=0.0)
    raw_inner = float(
        np.abs(mean_delta[:, None] - delta).sum() / (max_mean * (T - 1) * M)
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


def write_grad_samples(samples: np.ndarray | Iterable[GradSample], path: str | Path) -> None:
    """Write a `gradtrace-v1` CSV, rows sorted by (step, modality, module)."""
    from .report import atomic_write_text

    rows = grad_sample_array(samples)
    rows = rows[np.lexsort((rows["module"], rows["modality"], rows["step"]))]
    lines = ["step,modality,module,grad_l2"]
    lines += [f"{t},{m},{k},{g!r}" for t, m, k, g in rows.tolist()]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


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

    lines = ["step,modality,G"]
    for t in range(trace.T):
        for m in range(trace.M):
            lines.append(f"{t + 1},{m},{float(trace.values[t, m])!r}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


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
    """The reason a row's cells do not form a GradSample (module 0 when absent), if any."""
    try:
        ints = [int(v) for v in cells[:-1]]
        value = float(cells[-1])
    except ValueError:
        return "non-numeric field"
    try:
        GradSample(ints[0], ints[1], ints[2] if len(ints) > 2 else 0, value)
    except InvalidTraceError as exc:
        return str(exc)
    return None
