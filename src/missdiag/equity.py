"""Modality equity diagnostics from ablation tables.

Given a task-metric score for every nonempty modality subset, each
modality's contribution is summarised by the performance drops observed
whenever it is removed:

    s_m  = drops over the 2^(M-1) - 1 combinations excluding m
    mu_m = mean(s_m),  sigma_m = population std(s_m)
    zeta_m = mu_m / (sigma_m + eps)            (signal-to-noise ratio)
    p_m  = |zeta_m| / (sum_m' |zeta_m'| + eps)

The equity index is the order-2 Renyi entropy of p, H2 = -ln sum p_m^2,
normalised by ln M. Two orientations of the normalised index are
provided; they sum to 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateContributionError,
    DimensionError,
    FileFormatError,
    IncompleteTableError,
)
from .protocol import (
    MAX_ENUMERATED_MODALITIES,
    MaskPattern,
    pattern_bits,
    pattern_bitstrings,
    pattern_index,
)
from .textformat import FLOAT, NAME, read_text

DEFAULT_EPSILON = 1e-8

# Index orientation: with BALANCED_IS_ONE (the default) a perfectly even
# contribution profile scores 1 and single-modality dominance scores ~0;
# DOMINANCE_IS_ONE is the complementary convention (the two always sum
# to 1 before clamping).
BALANCED_IS_ONE = "balanced-is-one"
DOMINANCE_IS_ONE = "dominance-is-one"
MEI_MODES = (BALANCED_IS_ONE, DOMINANCE_IS_ONE)

HIGHER_BETTER = "higher-better"
LOWER_BETTER = "lower-better"

# Error-style metrics are lower-better; everything else we emit is a
# score. Used when reading tables whose files carry no orientation.
DEFAULT_ORIENTATIONS: dict[str, str] = {
    "UA": HIGHER_BETTER,
    "WA": HIGHER_BETTER,
    "F1": HIGHER_BETTER,
    "Acc-2": HIGHER_BETTER,
    "Corr": HIGHER_BETTER,
    "MAE": LOWER_BETTER,
}


@dataclass(frozen=True)
class PerfMetric:
    """A named task metric with an explicit orientation."""

    name: str
    orientation: str = HIGHER_BETTER

    def __post_init__(self) -> None:
        if self.orientation not in (HIGHER_BETTER, LOWER_BETTER):
            raise DimensionError(
                f"orientation must be {HIGHER_BETTER!r} or {LOWER_BETTER!r}, "
                f"got {self.orientation!r}"
            )

    @property
    def higher_is_better(self) -> bool:
        return self.orientation == HIGHER_BETTER

    @classmethod
    def named(cls, name: str, orientations: Mapping[str, str] | None = None) -> "PerfMetric":
        """Metric with orientation looked up by name (default: higher-better)."""
        table = dict(DEFAULT_ORIENTATIONS)
        if orientations:
            table.update(orientations)
        return cls(name, table.get(name, HIGHER_BETTER))


@dataclass(frozen=True, eq=False)
class AblationTable:
    """Metric scores for the full configuration and every strict nonempty subset.

    `scores` is a read-only float64 vector of the 2^M - 1 scores in
    canonical pattern order (`protocol.pattern_bits`): the score of the
    pattern with code c is `scores[c - 1]`, and the all-ones score is last.
    """

    M: int
    metric: PerfMetric
    scores: np.ndarray

    def __post_init__(self) -> None:
        if self.M < 2:
            raise DimensionError(f"at least 2 modalities are required, got M={self.M}")
        scores = np.array(self.scores, dtype=np.float64)
        if scores.shape != ((1 << self.M) - 1,):
            raise DimensionError(
                f"ablation table for {self.metric.name!r} needs 2^{self.M}-1 scores "
                f"in canonical order, got an array of shape {scores.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise DimensionError(
                f"score for combination {pattern_bitstrings(self.M)[bad[0]]} must be "
                f"finite, got {scores[bad[0]]}"
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AblationTable):
            return NotImplemented
        same_shape = (self.M, self.metric) == (other.M, other.metric)
        return same_shape and bool((self.scores == other.scores).all())

    @property
    def perf_full(self) -> float:
        return float(self.scores[-1])

    def score(self, pattern: MaskPattern) -> float:
        if len(pattern) != self.M:
            raise DimensionError(
                f"no score for combination {pattern.bitstring()} in a "
                f"{self.M}-modality table"
            )
        return float(self.scores[pattern_index(pattern) - 1])


@dataclass(frozen=True)
class ContributionProfile:
    """Per-modality drop statistics and the normalised contribution weights.

    `mu`/`sigma` are None when the profile was built from bare
    signal-to-noise ratios rather than from an ablation table.
    """

    zeta: tuple[float, ...]
    p: tuple[float, ...]
    epsilon: float
    mu: tuple[float, ...] | None = None
    sigma: tuple[float, ...] | None = None

    @property
    def M(self) -> int:
        return len(self.zeta)

    def dominant_modality(self) -> int:
        """Index of the largest contribution weight (ties: lowest index)."""
        return int(np.argmax(self.p))


@dataclass(frozen=True)
class MEIResult:
    """Normalised Renyi-entropy equity index with its intermediates."""

    value: float
    mode: str
    h2: float
    profile: ContributionProfile


def _excluding(M: int, m: int) -> np.ndarray:
    """Rows of `pattern_bits(M)` with modality m missing, as a bool selector."""
    if not 0 <= m < M:
        raise DimensionError(f"modality index {m} out of range for M={M}")
    return ~pattern_bits(M)[:, m]


def combos_excluding(M: int, m: int) -> tuple[MaskPattern, ...]:
    """All 2^(M-1) - 1 patterns with modality m missing, canonical order.

    Canonical order sorts patterns as binary integers with modality 0
    as the most significant bit.
    """
    rows = pattern_bits(M)[_excluding(M, m)]
    return tuple(MaskPattern(tuple(bits)) for bits in rows.tolist())


def perf_drops(table: AblationTable, m: int) -> np.ndarray:
    """Sign-normalised performance drops over the combinations excluding m.

    Positive always means degradation: higher-better metrics use
    perf_full - score, lower-better metrics use score - perf_full.
    Entries follow the canonical combination order.
    """
    scores = table.scores[_excluding(table.M, m)]
    if table.metric.higher_is_better:
        return table.perf_full - scores
    return scores - table.perf_full


def contribution(s_m: Sequence[float] | np.ndarray, epsilon: float = DEFAULT_EPSILON) -> tuple[float, float, float]:
    """(mean, population std, signal-to-noise ratio) of a drop vector."""
    s = np.asarray(s_m, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DimensionError("drop vector must be non-empty and one-dimensional")
    if not epsilon > 0:
        raise DimensionError(f"epsilon must be positive, got {epsilon}")
    mu = float(s.mean())
    sigma = float(s.std(ddof=0))
    return mu, sigma, mu / (sigma + epsilon)


def _entropy_index(
    zetas: np.ndarray, epsilon: float, mode: str
) -> tuple[tuple[float, ...], float, float]:
    """Shared core: contribution weights, H2, and the normalised index."""
    M = zetas.size
    if M < 2:
        raise DimensionError(f"at least 2 modalities are required, got {M}")
    if not epsilon > 0:
        raise DimensionError(f"epsilon must be positive, got {epsilon}")
    if mode not in MEI_MODES:
        raise DimensionError(f"mode must be one of {MEI_MODES}, got {mode!r}")
    mags = np.abs(zetas)
    if not mags.any():
        raise DegenerateContributionError(
            "all modality contributions are zero; the contribution "
            "distribution is undefined beyond the epsilon term"
        )
    p = mags / (mags.sum() + epsilon)
    h2 = -math.log(float((p * p).sum()))
    ratio = h2 / math.log(M)
    value = ratio if mode == BALANCED_IS_ONE else 1.0 - ratio
    return tuple(float(x) for x in p), h2, min(1.0, max(0.0, value))


def mei(
    zetas: Sequence[float] | np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    mode: str = BALANCED_IS_ONE,
) -> MEIResult:
    """Equity index from per-modality signal-to-noise ratios.

    p_m = |zeta_m| / (sum |zeta| + epsilon); H2 = -ln sum p_m^2. The
    default mode returns H2 / ln M (1 = perfectly balanced); the
    complementary mode returns (ln M - H2) / ln M (1 = one modality
    dominates). The result is clamped to [0, 1].
    """
    z = np.asarray(zetas, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError("zeta vector must be one-dimensional")
    p, h2, value = _entropy_index(z, epsilon, mode)
    profile = ContributionProfile(zeta=tuple(float(x) for x in z), p=p, epsilon=epsilon)
    return MEIResult(value=value, mode=mode, h2=h2, profile=profile)


def mei_from_table(
    table: AblationTable,
    epsilon: float = DEFAULT_EPSILON,
    mode: str = BALANCED_IS_ONE,
) -> MEIResult:
    """Full pipeline: drops -> contribution statistics -> equity index."""
    mus, sigmas, zetas = [], [], []
    for m in range(table.M):
        mu, sigma, zeta = contribution(perf_drops(table, m), epsilon)
        mus.append(mu)
        sigmas.append(sigma)
        zetas.append(zeta)
    p, h2, value = _entropy_index(np.asarray(zetas), epsilon, mode)
    profile = ContributionProfile(
        zeta=tuple(zetas), p=p, epsilon=epsilon, mu=tuple(mus), sigma=tuple(sigmas)
    )
    return MEIResult(value=value, mode=mode, h2=h2, profile=profile)


# ---------------------------------------------------------------------------
# abltable-v1 file format


def _table_rows(table: AblationTable) -> list[str]:
    rows = zip(pattern_bitstrings(table.M), table.scores.tolist())
    return [f"{combo},{table.metric.name},{score!r}" for combo, score in rows]


def write_ablation_tables(tables: Sequence[AblationTable], path: str | Path) -> None:
    """Write one or more `abltable-v1` tables (all with the same M) to a CSV.

    Rows are grouped by metric in the given order; within a metric,
    combinations appear in canonical order with the all-ones row last.
    Scores are written in full `repr` precision so they round-trip.
    """
    from .report import atomic_write_text

    if not tables:
        raise DimensionError("at least one ablation table is required")
    if len({t.M for t in tables}) != 1:
        raise DimensionError("all tables in one file must share the modality count")
    if len({t.metric.name for t in tables}) != len(tables):
        raise DimensionError("tables in one file must have distinct metric names")
    lines = ["combination,metric,value"]
    for table in tables:
        lines.extend(_table_rows(table))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_ablation_table(table: AblationTable, path: str | Path) -> None:
    write_ablation_tables([table], path)


_COMBINATION = re.compile(r"[01]+")
_VALUE = re.compile(f"-?(?:{FLOAT})")
_ROW = re.compile(f"([01]+),({NAME}),(-?(?:{FLOAT}))")


def _combination_error(combo: str, M: int | None) -> str | None:
    if M is not None and len(combo) != M:
        return f"combination length {len(combo)} != {M}"
    if not 2 <= len(combo) <= MAX_ENUMERATED_MODALITIES:
        return (f"combination length {len(combo)}: a table covers 2 to "
                f"{MAX_ENUMERATED_MODALITIES} modalities")
    if "1" not in combo:
        return "all-missing combination"
    return None


def _row_error(line: str, M: int | None) -> str:
    """Why a line outside the row grammar does not read; the csv-era checks come first."""
    if line.endswith("\r"):
        return "CRLF line ending, expected LF"
    if not line:
        return "blank line"
    cells = line.split(",")
    if len(cells) != 3:
        return f"expected 3 fields, got {len(cells)}"
    combo, metric_name, value_text = cells
    if not _COMBINATION.fullmatch(combo):
        return f"bad combination {combo!r}"
    reason = _combination_error(combo, M)
    if reason is not None:
        return reason
    if not _VALUE.fullmatch(value_text):
        try:
            value = float(value_text)
        except ValueError:
            return f"bad value {value_text!r}"
        if not math.isfinite(value):
            return f"non-finite value {value_text!r}"
        return f"value {value_text!r} is not a float in repr form"
    return f"bad metric name {metric_name!r}"


def read_ablation_tables(
    path: str | Path, orientations: Mapping[str, str] | None = None
) -> dict[str, AblationTable]:
    """Read an `abltable-v1` CSV into one AblationTable per metric.

    Every body line is `combination,metric,value`: a 0/1 bitstring, a
    metric name without commas or double quotes, and a float as `repr`
    writes it, with an optional minus sign. A line outside that grammar,
    or a bad row, raises `FileFormatError` naming its line. Metric
    orientations are looked up by name (MAE is lower-better by default,
    unknown names higher-better) unless overridden.
    """
    header, body = read_text(path)
    if header != ["combination", "metric", "value"]:
        raise FileFormatError(f"{path}: expected header 'combination,metric,value'")
    lines = body.split("\n")
    M: int | None = None
    # metric -> (scores, seen flags), both indexed by code - 1
    scores: dict[str, tuple[list[float], list[bool]]] = {}
    for k, line in enumerate(lines if lines[-1] else lines[:-1]):
        row = _ROW.fullmatch(line)
        if row is None:
            reason = _row_error(line, M)
        else:
            combo, metric_name, value_text = row.groups()
            value = float(value_text)
            reason = _combination_error(combo, M)
            if reason is None and not math.isfinite(value):
                reason = f"non-finite value {value_text!r}"
            elif reason is None and k == len(lines) - 1:
                reason = "no newline at end of file"
        if reason is not None:
            raise FileFormatError(f"{path}:{k + 2}: {reason}")
        if M is None:
            M = len(combo)
            n_patterns = len(pattern_bits(M))
        if metric_name not in scores:
            scores[metric_name] = ([0.0] * n_patterns, [False] * n_patterns)
        values, seen = scores[metric_name]
        index = int(combo, 2) - 1
        if seen[index]:
            raise FileFormatError(
                f"{path}:{k + 2}: duplicate combination {combo} for {metric_name!r}"
            )
        values[index] = value
        seen[index] = True
    if M is None:
        raise FileFormatError(f"{path}: no table rows")
    tables = {}
    combos = pattern_bitstrings(M)
    for metric_name, (values, seen) in scores.items():
        if not seen[-1]:
            raise IncompleteTableError(
                f"{path}: table for {metric_name!r} is missing the all-ones "
                f"combination {combos[-1]}"
            )
        if not all(seen):
            names = ", ".join(c for c, ok in zip(combos, seen) if not ok)
            raise IncompleteTableError(
                f"ablation table for {metric_name!r} is missing combinations: {names}"
            )
        tables[metric_name] = AblationTable(
            M=M, metric=PerfMetric.named(metric_name, orientations), scores=values
        )
    return tables


def sorted_tables(tables: Mapping[str, AblationTable]) -> list[AblationTable]:
    """Tables in deterministic (metric-name) order, e.g. for re-serialisation."""
    return [tables[name] for name in sorted(tables)]
