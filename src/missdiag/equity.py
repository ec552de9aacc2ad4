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
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateContributionError,
    DimensionError,
    FileFormatError,
    IncompleteTableError,
)
from .protocol import (
    MAX_ENUMERATED_MODALITIES,
    pattern_bits,
    pattern_bitstrings,
    pattern_code,
)
from .textformat import BITS, NAME, SFLOAT, first_bad_line, format_rows, read_columns, read_text

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
    """A named task metric with an explicit orientation.

    The name is an `abltable-v1` metric cell, so it is a `NAME`.
    """

    name: str
    orientation: str = HIGHER_BETTER

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not re.fullmatch(NAME, self.name):
            raise ConfigError(
                f"metric name {self.name!r} must be nonempty, without commas, "
                "double quotes or line breaks"
            )
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

    def score(self, bits: Sequence) -> float:
        """Score of one 0/1 pattern, such as a row of `pattern_bits(M)`."""
        return float(self.scores[pattern_code(bits, self.M) - 1])


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


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DimensionError(f"epsilon must be finite and positive, got {epsilon}")


def contribution(s_m: Sequence[float] | np.ndarray, epsilon: float = DEFAULT_EPSILON) -> tuple[float, float, float]:
    """(mean, population std, signal-to-noise ratio) of a drop vector."""
    s = np.asarray(s_m, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DimensionError("drop vector must be non-empty and one-dimensional")
    _check_epsilon(epsilon)
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
    _check_epsilon(epsilon)
    if mode not in MEI_MODES:
        raise DimensionError(f"mode must be one of {MEI_MODES}, got {mode!r}")
    mags = np.abs(zetas)
    if not mags.any():
        raise DegenerateContributionError(
            "all modality contributions are zero; the contribution "
            "distribution is undefined beyond the epsilon term"
        )
    with np.errstate(over="ignore"):
        total = mags.sum()
    if not math.isfinite(total):
        raise DimensionError(f"modality contributions |zeta| sum to {total}, beyond float64")
    p = mags / (total + epsilon)
    concentration = float((p * p).sum())
    if concentration == 0.0:
        raise DegenerateContributionError(
            "all contribution weights p_m underflow to zero against epsilon; "
            "the contribution distribution is undefined"
        )
    h2 = -math.log(concentration)
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
        # Finite scores far apart can overflow the drops or their statistics
        # (an infinite drop makes mu non-finite); such a table is rejected
        # rather than scored.
        with np.errstate(over="ignore", invalid="ignore"):
            mu, sigma, zeta = contribution(perf_drops(table, m), epsilon)
        if not all(map(math.isfinite, (mu, sigma, zeta))):
            raise DimensionError(
                f"contribution of modality {m} to {table.metric.name!r} overflows "
                f"float64: mu={mu!r}, sigma={sigma!r}, zeta={zeta!r}"
            )
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
    # The text columns are lists: a numpy string array drops a trailing NUL.
    combos = pattern_bitstrings(tables[0].M)
    body = "".join(format_rows("%s,%s,%r\n", [combos, [table.metric.name] * len(combos),
                                              table.scores]) for table in tables)
    atomic_write_text(Path(path), "combination,metric,value\n" + body)


def write_ablation_table(table: AblationTable, path: str | Path) -> None:
    write_ablation_tables([table], path)


_TABLE_FIELDS = (BITS, NAME, SFLOAT)


def _row_check(body: str) -> Callable[[int, list[str]], str | None]:
    """`first_bad_line`'s check of the rows of `body`, called in file order; row 0 fixes M.

    A repeat is named on its second row, but an unterminated last line's missing LF first.
    """
    M = len(body.partition(",")[0])  # row 0's combination, once the walk checks row 0
    unterminated = -1 if body.endswith("\n") else body.count("\n")
    seen: set[tuple[str, str]] = set()
    is_bits, is_sfloat, is_name = (re.compile(field).fullmatch for field in (BITS, SFLOAT, NAME))

    def check(k: int, cells: list[str]) -> str | None:
        combo, metric_name, value_text = cells
        if not is_bits(combo):
            return f"bad combination {combo!r}"
        if len(combo) != M:
            return f"combination length {len(combo)} != {M}"
        if not 2 <= M <= MAX_ENUMERATED_MODALITIES:
            return (f"combination length {M}: a table covers 2 to "
                    f"{MAX_ENUMERATED_MODALITIES} modalities")
        if "1" not in combo:
            return "all-missing combination"
        try:
            value = float(value_text)
        except ValueError:
            return f"bad value {value_text!r}"
        in_form = is_sfloat(value_text) is not None
        if in_form and not is_name(metric_name):
            return f"bad metric name {metric_name!r}"
        if not math.isfinite(value):
            return f"non-finite value {value_text!r}"
        if not in_form:
            return f"value {value_text!r} is not a float in repr form"
        if (metric_name, combo) in seen and k != unterminated:
            return f"duplicate combination {combo} for {metric_name!r}"
        seen.add((metric_name, combo))
        return None

    return check


def _tables(path: str | Path, orientations: Mapping[str, str] | None, combos: list[str],
            names: list[str], values: list[str]) -> dict[str, AblationTable] | None:
    """Each metric's table from the body's columns, or None on a row `_row_check` names.

    Such a row has a bad combination length or no 1, a non-finite value, or a repeat.
    """
    M, n = len(combos[0]), len(combos)
    if not 2 <= M <= MAX_ENUMERATED_MODALITIES or set(map(len, combos)) != {M}:
        return None
    codes = np.fromiter((int(c, 2) for c in combos), np.int64, n)
    scores = np.fromiter(map(float, values), np.float64, n)
    if not codes.all() or not np.isfinite(scores).all():
        return None
    metrics = {name: i for i, name in enumerate(dict.fromkeys(names))}
    P = (1 << M) - 1
    keys = np.fromiter(map(metrics.__getitem__, names), np.int64, n) * P + codes - 1
    counts = np.bincount(keys, minlength=len(metrics) * P)
    if counts.max() > 1:
        return None
    grid = np.zeros((len(metrics), P))
    grid.flat[keys] = scores
    tables = {}
    for (name, row), seen in zip(metrics.items(), counts.reshape(-1, P) == 1):
        if not seen[-1]:
            raise IncompleteTableError(f"{path}: table for {name!r} is missing "
                                       f"the all-ones combination {'1' * M}")
        if not seen.all():
            missing = ", ".join(c for c, ok in zip(pattern_bitstrings(M), seen) if not ok)
            raise IncompleteTableError(f"ablation table for {name!r} is missing "
                                       f"combinations: {missing}")
        tables[name] = AblationTable(M, PerfMetric.named(name, orientations), grid[row])
    return tables


def read_ablation_tables(
    path: str | Path, orientations: Mapping[str, str] | None = None
) -> dict[str, AblationTable]:
    """Read an `abltable-v1` CSV into one AblationTable per metric.

    Every body line is `combination,metric,value` in the `textformat`
    grammars `BITS`, `NAME` and `SFLOAT`. The first bad line raises
    `FileFormatError` naming it. Metric orientations are looked up by name
    (MAE is lower-better by default, unknown names higher-better) unless
    overridden.
    """
    header, body = read_text(path)
    if header != ["combination", "metric", "value"]:
        raise FileFormatError(f"{path}: expected header 'combination,metric,value'")
    if not body:
        raise FileFormatError(f"{path}: no table rows")
    columns = read_columns(body, _TABLE_FIELDS)
    tables = None if columns is None else _tables(path, orientations, *columns)
    if tables is None:
        raise first_bad_line(path, body, header, _TABLE_FIELDS, _row_check(body))
    return tables
