"""Missing-modality masking protocols.

A mask pattern over M modalities is a binary vector e with e[m] = 1 when
modality m is observed. Modality m goes missing independently with
probability r_m, except that the all-missing pattern is excluded and its
mass renormalised over the remaining 2^M - 1 patterns:

    p(e) = prod_m (1 - r_m)^e[m] * r_m^(1 - e[m]) / (1 - prod_m r_m)

The shared-rate regime (SMR) is the special case r_m = r_sh for all m;
the imbalanced regime (IMR) allows arbitrary per-modality rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptyDatasetError,
    FileFormatError,
    InvalidPatternError,
)

# Divergences and normalisation checks enumerate the full 2^M - 1 support;
# beyond this the enumeration is refused rather than approximated.
MAX_ENUMERATED_MODALITIES = 20

KL = "kl"
JS = "js"
DIVERGENCE_KINDS = (KL, JS)


@dataclass(frozen=True)
class RateVector:
    """Per-modality missing probabilities, each in [0, 1).

    A rate of exactly 1 is rejected: a modality that must always be
    missing should be dropped from the modality list instead.
    """

    modality_names: tuple[str, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modality_names", tuple(str(n) for n in self.modality_names))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.modality_names) != len(self.rates):
            raise DimensionError(
                f"got {len(self.modality_names)} modality names but {len(self.rates)} rates"
            )
        if len(self.rates) < 2:
            raise DimensionError("at least 2 modalities are required")
        if len(set(self.modality_names)) != len(self.modality_names):
            raise DimensionError(f"modality names must be unique: {self.modality_names}")
        for name, r in zip(self.modality_names, self.rates):
            if not math.isfinite(r) or not 0.0 <= r < 1.0:
                raise DimensionError(f"rate for {name!r} must lie in [0, 1), got {r}")

    @property
    def M(self) -> int:
        return len(self.rates)

    @classmethod
    def shared(cls, modality_names: Sequence[str], rate: float) -> "RateVector":
        """Shared-rate (SMR) vector: every modality gets the same rate."""
        return cls(tuple(modality_names), (float(rate),) * len(modality_names))

    def mean_matched(self) -> "RateVector":
        """Shared-rate vector with the same expected missing count per sample."""
        return RateVector.shared(self.modality_names, mean_match_shared(self))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=np.float64)


@dataclass(frozen=True)
class MaskPattern:
    """Binary observation indicator; bit m = 1 means modality m observed.

    At least one modality must be observed.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.bits:
            raise DimensionError("empty mask pattern")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidPatternError(f"mask bits must be 0 or 1: {self.bits}")
        if not any(self.bits):
            raise InvalidPatternError("all-missing mask pattern is not allowed")

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def full(cls, M: int) -> "MaskPattern":
        return cls((1,) * M)

    @classmethod
    def from_bitstring(cls, s: str) -> "MaskPattern":
        if any(c not in "01" for c in s):
            raise InvalidPatternError(f"bitstring may only contain 0/1: {s!r}")
        return cls(tuple(int(c) for c in s))

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def observed(self) -> tuple[int, ...]:
        """Indices of observed modalities."""
        return tuple(m for m, b in enumerate(self.bits) if b)


def pattern_index(pattern: MaskPattern) -> int:
    """Canonical integer encoding: modality 0 is the most significant bit."""
    idx = 0
    for b in pattern.bits:
        idx = (idx << 1) | b
    return idx


def all_patterns(M: int) -> tuple[MaskPattern, ...]:
    """All 2^M - 1 non-all-missing patterns in canonical (integer) order."""
    if M < 2:
        raise DimensionError(f"at least 2 modalities are required, got {M}")
    if M > MAX_ENUMERATED_MODALITIES:
        raise DimensionError(
            f"support of 2^{M}-1 patterns exceeds the enumeration cap "
            f"(M <= {MAX_ENUMERATED_MODALITIES})"
        )
    out = []
    for idx in range(1, 1 << M):
        bits = tuple((idx >> (M - 1 - j)) & 1 for j in range(M))
        out.append(MaskPattern(bits))
    return tuple(out)


def pattern_probability(rates: RateVector, pattern: MaskPattern) -> float:
    """Probability of one mask pattern under the truncated product measure.

    Equals prod_m (1-r_m)^e[m] r_m^(1-e[m]) / (1 - prod_m r_m); the
    denominator removes the excluded all-missing pattern. Summing over
    the full support yields 1 to within 1e-12.
    """
    if len(pattern) != rates.M:
        raise DimensionError(f"pattern length {len(pattern)} != modality count {rates.M}")
    num = 1.0
    all_missing = 1.0
    for r, e in zip(rates.rates, pattern.bits):
        num *= (1.0 - r) if e else r
        all_missing *= r
    return num / (1.0 - all_missing)


@dataclass(frozen=True)
class PatternDistribution:
    """Exact distribution over the 2^M - 1 valid patterns, canonical order."""

    rates: RateVector
    patterns: tuple[MaskPattern, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidPatternError(f"pattern probabilities sum to {total}, not 1")

    def probability_of(self, pattern: MaskPattern) -> float:
        return float(self.probabilities[pattern_index(pattern) - 1])


def pattern_distribution(rates: RateVector) -> PatternDistribution:
    patterns = all_patterns(rates.M)
    probs = np.array([pattern_probability(rates, p) for p in patterns])
    return PatternDistribution(rates=rates, patterns=patterns, probabilities=probs)


def sample_pattern(rates: RateVector, rng: np.random.Generator) -> MaskPattern:
    """Draw one pattern by rejection of the all-missing outcome.

    Each modality is retained with probability 1 - r_m; an all-missing
    draw is rejected and redrawn, which realises the truncated
    distribution exactly. Terminates almost surely since every r_m < 1.
    """
    r = rates.as_array()
    while True:
        bits = rng.random(rates.M) >= r
        if bits.any():
            return MaskPattern(tuple(int(b) for b in bits))


def sample_patterns(rates: RateVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorised batch of `sample_pattern` draws from one sequential stream.

    Returns an (n, M) int8 array. Distributionally identical to n calls
    of `sample_pattern`; use `generate_mask_matrix` when per-row
    reproducibility is required.
    """
    if n < 1:
        raise EmptyDatasetError(f"sample count must be >= 1, got {n}")
    r = rates.as_array()
    out = np.empty((n, rates.M), dtype=np.int8)
    pending = np.arange(n)
    while pending.size:
        draw = rng.random((pending.size, rates.M)) >= r
        ok = draw.any(axis=1)
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return out


@dataclass(frozen=True)
class MaskMatrix:
    """Per-sample mask patterns plus the generation provenance.

    Regenerating with the same (rates, N, seed) is bit-identical; every
    row satisfies the not-all-missing invariant.
    """

    rates: RateVector
    seed: int
    masks: np.ndarray  # (N, M) int8, 1 = observed

    def __post_init__(self) -> None:
        masks = np.asarray(self.masks, dtype=np.int8)
        if masks.ndim != 2 or masks.shape[1] != self.rates.M:
            raise DimensionError(
                f"mask array of shape {masks.shape} does not match M={self.rates.M}"
            )
        if masks.shape[0] < 1:
            raise EmptyDatasetError("mask matrix must contain at least one row")
        if not np.isin(masks, (0, 1)).all():
            raise InvalidPatternError("mask entries must be 0 or 1")
        if not masks.any(axis=1).all():
            raise InvalidPatternError("mask matrix contains an all-missing row")
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    @property
    def N(self) -> int:
        return int(self.masks.shape[0])

    @property
    def M(self) -> int:
        return int(self.masks.shape[1])

    def pattern(self, i: int) -> MaskPattern:
        return MaskPattern(tuple(int(b) for b in self.masks[i]))


def _row_generator(seed: int, row: int) -> np.random.Generator:
    # Counter-based stream: row i owns Philox counter block [i * 2^64, (i+1) * 2^64),
    # so each row is a pure function of (seed, i) regardless of generation order.
    return np.random.Generator(np.random.Philox(key=seed, counter=row << 64))


def _generate_rows(rates: RateVector, start: int, stop: int, seed: int) -> np.ndarray:
    r = rates.as_array()
    out = np.empty((stop - start, rates.M), dtype=np.int8)
    for i in range(start, stop):
        rng = _row_generator(seed, i)
        while True:
            bits = rng.random(rates.M) >= r
            if bits.any():
                break
        out[i - start] = bits
    return out


def generate_mask_matrix(rates: RateVector, n: int, seed: int) -> MaskMatrix:
    """Generate n mask rows; row i depends only on (rates, seed, i).

    Rows are sampled by per-row rejection from independent counter-based
    streams, so generation is order-independent, parallelisable, and
    reproducible across platforms.
    """
    if n < 1:
        raise EmptyDatasetError(f"sample count must be >= 1, got {n}")
    if not 0 <= int(seed) < 2**64:
        raise DimensionError(f"seed must be an unsigned 64-bit integer, got {seed}")
    masks = _generate_rows(rates, 0, n, int(seed))
    return MaskMatrix(rates=rates, seed=int(seed), masks=masks)


def empirical_rates(matrix: MaskMatrix | np.ndarray) -> np.ndarray:
    """Observed missing fraction per modality: mean over rows of (1 - e[m])."""
    masks = matrix.masks if isinstance(matrix, MaskMatrix) else np.asarray(matrix)
    if masks.ndim != 2 or masks.shape[0] < 1:
        raise DimensionError("expected a non-empty (N, M) mask array")
    return 1.0 - masks.mean(axis=0)


def marginal_missing_rate(rates: RateVector, m: int) -> float:
    """Exact marginal P(e[m] = 0) under the truncated distribution.

    Excluding the all-missing pattern makes the marginal

        r_m * (1 - prod_{m' != m} r_m') / (1 - prod_m' r_m'),

    which equals r_m when any other rate is 0 and is strictly smaller
    than r_m when all rates are positive. Evaluated in exact rational
    arithmetic and rounded once, so the result is the correctly rounded
    value of the marginal and agrees bit-for-bit with any exact
    enumeration over the pattern support.
    """
    if not 0 <= m < rates.M:
        raise DimensionError(f"modality index {m} out of range for M={rates.M}")
    others = Fraction(1)
    for j, r in enumerate(rates.rates):
        if j != m:
            others *= Fraction(r)
    r_m = Fraction(rates.rates[m])
    return float(r_m * (1 - others) / (1 - others * r_m))


def marginal_missing_rates(rates: RateVector) -> np.ndarray:
    return np.array([marginal_missing_rate(rates, m) for m in range(rates.M)])


def mean_match_shared(rates: RateVector) -> float:
    """Shared rate with the same expected missing-modality count: mean(r)."""
    return sum(rates.rates) / rates.M


def divergence(rates_a: RateVector, rates_b: RateVector, kind: str = JS) -> float:
    """KL or Jensen-Shannon divergence between two pattern distributions.

    Computed exactly over the explicit 2^M - 1 support. KL uses the
    0*log(0) = 0 convention and returns math.inf when a pattern has
    positive mass under `rates_a` but zero mass under `rates_b`. JS is
    symmetric and bounded by ln 2.
    """
    if rates_a.M != rates_b.M:
        raise DimensionError(f"modality counts differ: {rates_a.M} vs {rates_b.M}")
    if kind not in DIVERGENCE_KINDS:
        raise DimensionError(f"divergence kind must be one of {DIVERGENCE_KINDS}, got {kind!r}")
    p = pattern_distribution(rates_a).probabilities
    q = pattern_distribution(rates_b).probabilities
    if kind == KL:
        return _kl(p, q)
    mix = 0.5 * (p + q)
    return max(0.0, 0.5 * _kl(p, mix) + 0.5 * _kl(q, mix))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    total = 0.0
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    # Round-off can leave a tiny negative residue when p ~ q.
    return max(0.0, total)


# ---------------------------------------------------------------------------
# maskmatrix-v1 file format


def write_mask_matrix(matrix: MaskMatrix, path: str | Path) -> None:
    """Write a `maskmatrix-v1` CSV: sample_id column then one 0/1 column per modality."""
    from .report import atomic_write_text

    lines = ["sample_id," + ",".join(matrix.rates.modality_names)]
    for i in range(matrix.N):
        lines.append(f"{i}," + ",".join(str(int(b)) for b in matrix.masks[i]))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_mask_matrix(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a `maskmatrix-v1` CSV; returns (modality names, (N, M) int8 array)."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "sample_id":
            raise FileFormatError(f"{path}: expected header 'sample_id,<modalities...>'")
        names = tuple(header[1:])
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FileFormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                sample_id = int(row[0])
                bits = [int(v) for v in row[1:]]
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: non-integer field") from None
            # Mask row i is applied to training sample i, so ids must count from 0.
            if sample_id != len(rows):
                raise FileFormatError(
                    f"{path}:{lineno}: sample_id {sample_id}, expected {len(rows)}")
            if any(b not in (0, 1) for b in bits):
                raise FileFormatError(f"{path}:{lineno}: mask values must be 0 or 1")
            rows.append(bits)
    if not rows:
        raise FileFormatError(f"{path}: no mask rows")
    masks = np.array(rows, dtype=np.int8)
    if not masks.any(axis=1).all():
        raise FileFormatError(f"{path}: contains an all-missing row")
    return names, masks
