"""Gradient-trace diagnostics for cross-modal learning balance.

A trainer logs, at every step t and for every modality m, the L2 norm
of the gradient of the modality-m-restricted loss with respect to each
of K model modules. These norms travel as one (T, M, K) float64 array
with a (T, M) flag grid marking the logged cells; `trace_from_norms`
reduces it to G_m(t), the mean over modules, summed in module order so
that the same norms always give the same bits. `GradSample` rows exist
only at the file and public-API boundary (`gradtrace-v1`), and
`assemble_trace` scatters them into the same arrays. The step-to-step
variation delta_m(t) = |G_m(t) - G_m(t-1)| is compared across
modalities:

    raw_inner = sum_t sum_m |mean_delta(t) - delta_m(t)|
                / (max_t mean_delta(t) * (T - 1) * M)
    index     = clamp(raw_inner ** (1/M), 0, 1)

Zero means every modality's gradient magnitude moves in lockstep;
higher values indicate asynchronous, unstable per-modality updates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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
    samples: Iterable[GradSample],
    M: int | None = None,
    module_count: int | None = None,
) -> GradTrace:
    """Build a contiguous (T, M) grid of G_m(t) from a sample stream.

    Arrival order is irrelevant. Exact duplicate rows are tolerated;
    rows that disagree on the same (step, modality, module) raise. Every
    logged (step, modality) cell needs one row per module. Cells with no
    rows — the modality was absent from that step's batch — are imputed
    as `trace_from_norms` describes. When M or module_count is omitted
    it is inferred from the stream.
    """
    by_key: dict[tuple[int, int, int], float] = {}
    for sample in samples:
        key = (sample.step, sample.modality, sample.module)
        prev = by_key.get(key)
        if prev is None:
            by_key[key] = sample.grad_l2
        elif prev != sample.grad_l2:
            raise DuplicateSampleError(
                f"conflicting grad_l2 at step {key[0]}, modality {key[1]}, "
                f"module {key[2]}: {prev} vs {sample.grad_l2}"
            )
    if not by_key:
        raise InsufficientTraceError("empty gradient sample stream")
    if M is None:
        M = max(k[1] for k in by_key) + 1
    if module_count is None:
        module_count = max(k[2] for k in by_key) + 1
    if M < 1:
        raise DimensionError(f"modality count must be >= 1, got {M}")
    if module_count < 1:
        raise DimensionError(f"module count must be >= 1, got {module_count}")

    steps = sorted({k[0] for k in by_key})
    row_of = {s: t for t, s in enumerate(steps)}
    norms = np.zeros((len(steps), M, module_count))
    counts = np.zeros((len(steps), M), dtype=np.int64)
    for (step, modality, module), norm in by_key.items():
        if modality >= M:
            raise DimensionError(f"modality index {modality} out of range for M={M}")
        if module >= module_count:
            raise InvalidTraceError(
                f"module index {module} out of range for module count {module_count}"
            )
        norms[row_of[step], modality, module] = norm
        counts[row_of[step], modality] += 1
    incomplete = np.argwhere((counts > 0) & (counts < module_count))
    if incomplete.size:
        t, m = incomplete[0].tolist()
        missing = [k for k in range(module_count) if (steps[t], m, k) not in by_key]
        raise InvalidTraceError(
            f"missing module entries: {missing} at step {steps[t]}, modality {m}"
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


def write_grad_samples(samples: Sequence[GradSample], path: str | Path) -> None:
    """Write a `gradtrace-v1` CSV, rows sorted by (step, modality, module)."""
    from .report import atomic_write_text

    lines = ["step,modality,module,grad_l2"]
    for s in sorted(samples, key=lambda s: (s.step, s.modality, s.module)):
        lines.append(f"{s.step},{s.modality},{s.module},{s.grad_l2!r}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_grad_samples(path: str | Path) -> list[GradSample]:
    """Read a `gradtrace-v1` CSV; malformed rows raise with their line number."""
    rows = _read_numeric_csv(path, ("step", "modality", "module", "grad_l2"))
    samples = []
    for lineno, (step, modality, module, grad_l2) in rows:
        try:
            samples.append(
                GradSample(step=step, modality=modality, module=module, grad_l2=grad_l2)
            )
        except InvalidTraceError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return samples


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
    rows = _read_numeric_csv(path, ("step", "modality", "G"))
    samples = []
    for lineno, (step, modality, g) in rows:
        try:
            samples.append(GradSample(step=step, modality=modality, module=0, grad_l2=g))
        except InvalidTraceError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    try:
        return assemble_trace(samples, module_count=1)
    except InsufficientTraceError:
        raise FileFormatError(f"{path}: no trace rows") from None


def sniff_trace_format(path: str | Path) -> str:
    """Return 'gradtrace-v1' or 'gradagg-v1' from a file's header line."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        header = f.readline().strip()
    if header == "step,modality,module,grad_l2":
        return "gradtrace-v1"
    if header == "step,modality,G":
        return "gradagg-v1"
    raise FileFormatError(f"{path}: unrecognised trace header {header!r}")


def _read_numeric_csv(
    path: str | Path, expected_header: tuple[str, ...]
) -> list[tuple[int, tuple]]:
    """(line number, parsed row) pairs; leading columns int, last float."""
    path = Path(path)
    n_int = len(expected_header) - 1
    out: list[tuple[int, tuple]] = []
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty file") from None
        if tuple(header) != expected_header:
            raise FileFormatError(
                f"{path}: expected header {','.join(expected_header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise FileFormatError(
                    f"{path}:{lineno}: expected {len(expected_header)} fields"
                )
            try:
                ints = [int(v) for v in row[:n_int]]
                value = float(row[-1])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: non-numeric field") from None
            out.append((lineno, tuple([*ints, value])))
    return out
