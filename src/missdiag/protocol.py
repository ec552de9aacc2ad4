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

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import textformat
from .errors import (
    ConfigError,
    DimensionError,
    EmptyDatasetError,
    FileFormatError,
    InvalidPatternError,
)
from .report import atomic_write_bytes

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
        for name in self.modality_names:
            if not re.fullmatch(textformat.NAME, name):
                raise ConfigError(
                    f"modality name {name!r} must be nonempty, without commas, "
                    "double quotes or line breaks"
                )
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


def _code_weights(M: int) -> np.ndarray:
    """The canonical encoding: bit m of a pattern is worth 2^(M-1-m).

    Modality 0 is the most significant bit, the codes of the valid
    patterns run 1 .. 2^M - 1, and a pattern's index in canonical order
    is its code - 1.
    """
    return 1 << np.arange(M - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=8)
def pattern_bits(M: int) -> np.ndarray:
    """All 2^M - 1 valid patterns as a read-only (2^M - 1, M) bool matrix.

    Row i holds the bits of code i + 1, so rows are in canonical order
    and the all-ones pattern is last.
    """
    if M < 2:
        raise DimensionError(f"at least 2 modalities are required, got {M}")
    if M > MAX_ENUMERATED_MODALITIES:
        raise DimensionError(
            f"support of 2^{M}-1 patterns exceeds the enumeration cap "
            f"(M <= {MAX_ENUMERATED_MODALITIES})"
        )
    bits = (np.arange(1, 1 << M, dtype=np.int64)[:, None] & _code_weights(M)) != 0
    bits.setflags(write=False)
    return bits


def pattern_bitstrings(M: int) -> list[str]:
    """Bitstrings of the 2^M - 1 valid patterns in canonical order."""
    return ["".join(row) for row in np.where(pattern_bits(M), "1", "0").tolist()]


def _integer_masks(masks, rows: int = 0) -> np.ndarray:
    """An (N, M) mask array of integer or bool dtype, with at least `rows` rows."""
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[0] < rows:
        raise DimensionError(f"expected {'a non-empty' if rows else 'an'} (N, M) mask array")
    if masks.dtype.kind not in "biu":
        raise DimensionError(f"mask arrays hold integers or bools, got dtype {masks.dtype}")
    return masks


def pattern_counts(masks: np.ndarray) -> np.ndarray:
    """Occurrences of each valid pattern among the rows of an (N, M) 0/1 array.

    Counts are in canonical order; all-missing rows are not counted. Each
    row's code is built one column at a time, modality 0 first, as
    code * 2 + e[m].
    """
    masks = _integer_masks(masks)
    M = masks.shape[1]
    codes = np.zeros(masks.shape[0], dtype=np.int64)
    for m in range(M):
        codes <<= 1
        np.add(codes, masks[:, m], out=codes, dtype=np.int64, casting="unsafe")
    return np.bincount(codes, minlength=len(pattern_bits(M)) + 1)[1:]


def pattern_code(bits: Sequence, M: int) -> int:
    """Canonical code of one pattern over M modalities, given as a 0/1 sequence.

    A row of `pattern_bits(M)` qualifies; the pattern with code c is row
    c - 1. A length other than M raises `DimensionError`; a value other
    than 0 or 1, or the all-missing pattern, raises `InvalidPatternError`.
    """
    if len(bits) != M:
        raise DimensionError(f"pattern length {len(bits)} != M={M}")
    values = np.asarray(bits).tolist()
    if any(b not in (0, 1) for b in values):
        raise InvalidPatternError(f"mask bits must be 0 or 1: {tuple(values)}")
    if not any(values):
        raise InvalidPatternError("all-missing mask pattern is not allowed")
    # Modality 0 is the most significant bit, as in `_code_weights`; a Python
    # int keeps the code exact beyond 62 modalities, where int64 weights wrap.
    return int("".join("1" if b else "0" for b in values), 2)


@dataclass(frozen=True)
class PatternDistribution:
    """Exact distribution over the 2^M - 1 valid patterns, canonical order."""

    rates: RateVector
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidPatternError(f"pattern probabilities sum to {total}, not 1")

    def probability_of(self, bits: Sequence) -> float:
        """Probability of one 0/1 pattern under the truncated product measure."""
        return float(self.probabilities[pattern_code(bits, self.rates.M) - 1])


def pattern_distribution(rates: RateVector) -> PatternDistribution:
    """p(e) = prod_m (1-r_m)^e[m] r_m^(1-e[m]) / (1 - prod_m r_m) over the support.

    The product runs in modality order for every pattern at once, so each
    probability has the bits of the scalar product taken in that order.
    """
    bits = pattern_bits(rates.M)
    num = np.ones(bits.shape[0])
    all_missing = 1.0
    for m, r in enumerate(rates.rates):
        num *= np.where(bits[:, m], 1.0 - r, r)
        all_missing *= r
    return PatternDistribution(rates=rates, probabilities=num / (1.0 - all_missing))


def _any_column(masks: np.ndarray) -> np.ndarray:
    """Whether each row of a 0/1 int or bool array has a 1 along its last axis.

    The columns are ORed one at a time: `masks.any(axis=-1)` walks the
    short rows one by one and is some 50x slower at M = 3.
    """
    observed = masks[..., 0].copy()
    for m in range(1, masks.shape[-1]):
        observed |= masks[..., m]
    return observed


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
        masks = np.asarray(self.masks)
        if masks.ndim != 2 or masks.shape[1] != self.rates.M:
            raise DimensionError(
                f"mask array of shape {masks.shape} does not match M={self.rates.M}"
            )
        if masks.shape[0] < 1:
            raise EmptyDatasetError("mask matrix must contain at least one row")
        # Checked before the int8 cast, which would wrap 256 to 0 and cut 0.5 to 0.
        if not ((masks == 0) | (masks == 1)).all():
            raise InvalidPatternError("mask entries must be 0 or 1")
        masks = masks.astype(np.int8, copy=False)
        if not _any_column(masks).all():
            raise InvalidPatternError("mask matrix contains an all-missing row")
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskMatrix):
            return NotImplemented
        return (
            (self.rates, self.seed) == (other.rates, other.seed)
            and np.array_equal(self.masks, other.masks)
        )

    @property
    def N(self) -> int:
        return int(self.masks.shape[0])

    @property
    def M(self) -> int:
        return int(self.masks.shape[1])


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
# SC'11): round multipliers and Weyl key increments of the Random123 family,
# as used by numpy's Philox bit generator.
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
_LO32 = 0xFFFFFFFF
# The multipliers and their 32-bit halves, one per lane of `_mulhilo`.
_MUL = np.array(_PHILOX_MULTIPLIERS, dtype=np.uint64)[:, None, None]
_MUL_LO, _MUL_HI = _MUL & np.uint64(_LO32), _MUL >> np.uint64(32)
# Rows sampled per array step. It bounds the uint64 temporaries to a few
# MiB whatever the row count.
_ROW_CHUNK = 1 << 14
# Row attempts per kernel call once only rejected rows are left (see `_sample_rows`).
_ATTEMPT_ROWS = 1 << 11


def _mulhilo(a: np.ndarray, hi: np.ndarray, t: np.ndarray) -> None:
    """128-bit products a * _PHILOX_MULTIPLIERS, lane by lane: low words over a, high into hi.

    `a` and `hi` are (2, ...) uint64 arrays whose lanes take the two
    multipliers, and `t` a (3, 2, ...) uint64 scratch buffer. The high
    word is the schoolbook sum of the four 32-bit partial products; no
    partial sum can wrap.
    """
    a_lo, ll, mid = t
    np.bitwise_and(a, _LO32, out=a_lo)
    np.right_shift(a, 32, out=hi)  # a_hi
    np.multiply(a, _MUL, out=a)
    np.multiply(a_lo, _MUL_LO, out=ll)
    ll >>= 32
    np.multiply(hi, _MUL_LO, out=mid)
    mid += ll
    np.bitwise_and(mid, _LO32, out=ll)
    mid >>= 32
    a_lo *= _MUL_HI
    a_lo += ll
    a_lo >>= 32
    hi *= _MUL_HI
    hi += mid
    hi += a_lo


def _philox_words(seed: int, rows: np.ndarray, first: int, count: int) -> np.ndarray:
    """Raw words of blocks first..first+count-1 of each row's stream.

    Row i's stream is numpy's `Philox(key=seed, counter=i << 64)`. numpy
    bumps counter word 0 before each 4-word block, so block k is
    Philox4x64-10 of the counter (k + 1, i, 0, 0) under the key
    (seed mod 2^64, seed >> 64). Returns a (len(rows), 4 * count) uint64
    array, the words in stream order.

    The rounds run in place in one buffer per call. The counter words
    are held as two lane pairs, `mul` = (c0, c2), which a round
    multiplies, and `xor` = (c1, c3), which it xors with the high words
    and the key. The new (c0, c2) is then `xor`, and the new (c1, c3)
    the low words, `mul` in reverse lane order.
    """
    buf = np.empty((6, 2, rows.size, count), dtype=np.uint64)
    mul, xor, hi = buf[:3]
    mul[0] = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    xor[0] = rows[:, None]
    mul[1] = xor[1] = 0
    # Round keys stay Python ints: numpy warns when a uint64 scalar sum wraps.
    k0, k1 = seed & _U64, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        _mulhilo(mul, hi, buf[3:])
        xor ^= hi[::-1]
        xor ^= np.array([k0, k1], dtype=np.uint64)[:, None, None]
        mul, xor = xor, mul[::-1]
        k0, k1 = (k0 + _PHILOX_WEYL[0]) & _U64, (k1 + _PHILOX_WEYL[1]) & _U64
    words = np.stack((mul[0], xor[0], mul[1], xor[1]), axis=-1)
    return words.reshape(rows.size, 4 * count)


def _sample_rows(r: np.ndarray, rows: np.ndarray, seed: int) -> np.ndarray:
    """Rejection-sample one mask row per stream in `rows`: (len(rows), M) bool.

    A row's j-th attempt reads uniforms j*M .. j*M+M-1 of its stream, each
    `(word >> 11) * 2^-53` as in numpy's `Generator.random`, and the row
    keeps its first attempt with an observed modality. All rows make the
    first attempt together. The rows still rejected then make their next
    attempts several at a time, as many as keep one kernel call near
    `_ATTEMPT_ROWS` row attempts, so a long tail of a few rejected rows
    costs a few calls rather than one per attempt.
    """
    M = r.size
    # x * 2^-53 >= r_m exactly when the integer x >= ceil(r_m * 2^53): the
    # scaling by 2^53 is exact, and so is the compare.
    thresholds = np.ceil(r * 2.0**53).astype(np.uint64)
    bits = np.empty((rows.size, M), dtype=bool)
    pending = np.arange(rows.size)
    attempt, attempts = 0, 1
    while pending.size:
        word, end = attempt * M, (attempt + attempts) * M
        block = word // 4
        words = _philox_words(seed, rows[pending], block, (end - 1) // 4 - block + 1)
        skip = word - 4 * block
        draws = (words[:, skip : skip + attempts * M] >> 11).reshape(-1, attempts, M)
        draws = draws >= thresholds
        accepted = _any_column(draws)
        if attempts == 1:  # plain indexing: no gather over the many rows of a first attempt
            done = accepted[:, 0]
            bits[pending] = draws[:, 0]  # a rejected row's draw is overwritten later
        else:
            first = accepted.argmax(axis=1)
            done = accepted[np.arange(pending.size), first]
            bits[pending[done]] = draws[done, first[done]]
        pending = pending[~done]
        attempt += attempts
        attempts = max(1, _ATTEMPT_ROWS // max(pending.size, 1))
    return bits


def _generate_rows(rates: RateVector, start: int, stop: int, seed: int) -> np.ndarray:
    r = rates.as_array()
    out = np.empty((stop - start, rates.M), dtype=np.int8)
    for lo in range(start, stop, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, stop)
        out[lo - start : hi - start] = _sample_rows(r, np.arange(lo, hi, dtype=np.uint64), seed)
    return out


def generate_mask_matrix(rates: RateVector, n: int, seed: int) -> MaskMatrix:
    """Generate n mask rows; row i depends only on (rates, seed, i).

    Rows are sampled by per-row rejection from a counter-based stream:
    row i reads the Philox4x64-10 stream of numpy's
    `Philox(key=seed, counter=i << 64)`, computed for many rows at once
    in vectorised array steps. Generation is therefore order-independent
    and reproducible across platforms, and a row's bits do not depend on
    how many rows are generated.
    """
    if n < 1:
        raise EmptyDatasetError(f"sample count must be >= 1, got {n}")
    if not 0 <= int(seed) < 2**64:
        raise DimensionError(f"seed must be an unsigned 64-bit integer, got {seed}")
    masks = _generate_rows(rates, 0, n, int(seed))
    return MaskMatrix(rates=rates, seed=int(seed), masks=masks)


def empirical_rates(matrix: MaskMatrix | np.ndarray) -> np.ndarray:
    """Observed missing fraction per modality: 1 - (observed count) / N, counted exactly."""
    masks = _integer_masks(matrix.masks if isinstance(matrix, MaskMatrix) else matrix, rows=1)
    counts = np.array([masks[:, m].sum(dtype=np.int64) for m in range(masks.shape[1])])
    return 1.0 - counts / masks.shape[0]


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
    """sum p * ln(p / q) over the patterns with p > 0, added left to right.

    The logs come from `math.log`, whose bits `np.log` does not always
    match, and `np.add.accumulate` adds one term after another where
    `np.sum` would add pairwise.
    """
    kept = p != 0.0
    p, q = p[kept], q[kept]
    if not p.size:
        return 0.0
    if (q == 0.0).any():
        return math.inf
    ratios = p / q
    logs = np.fromiter(map(math.log, ratios.tolist()), dtype=np.float64, count=ratios.size)
    total = float(np.add.accumulate(p * logs)[-1])
    # Round-off can leave a tiny negative residue when p ~ q.
    return max(0.0, total)


# ---------------------------------------------------------------------------
# maskmatrix-v1 file format


def _id_runs(n: int):
    """(first, stop, digits) for each run of the sample ids 0..n-1 that share a digit count."""
    first, digits = 0, 1
    while first < n:
        stop = min(10**digits, n)
        yield first, stop, digits
        first, digits = stop, digits + 1


def _mask_body(masks: np.ndarray) -> bytes:
    """The body of a `maskmatrix-v1` file, the lines after its header, for an (N, M) 0/1 array.

    Line k is the sample id k in decimal, M ",b" pairs and LF. The
    lines of each run of ids with one digit count have one length, so
    each run is built as one uint8 block.
    """
    n, M = masks.shape
    blocks = []
    for first, stop, digits in _id_runs(n):
        block = np.empty((stop - first, digits + 2 * M + 1), dtype=np.uint8)
        # The narrowest unsigned type divides fastest; ids - 10 * tens is
        # ids % 10, which numpy computes slower.
        ids = np.arange(first, stop, dtype=np.min_scalar_type(stop))
        for j in range(digits - 1, -1, -1):
            tens = ids // 10
            block[:, j] = ids - 10 * tens + ord("0")
            ids = tens
        block[:, digits:-1:2] = ord(",")
        block[:, digits + 1 :: 2] = masks[first:stop] + ord("0")
        block[:, -1] = ord("\n")
        blocks.append(block.tobytes())
    return b"".join(blocks)


def _mask_bits(body: bytes, M: int) -> np.ndarray | None:
    """The (N, M) int8 bits of a body that is `_mask_body` of its own bits, else None.

    The body's length fixes N, each line's length fixes where its bits
    sit. Those bytes must be 0 or 1, and the body rebuilt from them must
    equal the body byte for byte: that checks every comma, LF and id.
    Mask row k is applied to training sample k, so the ids must count
    from 0.
    """
    n, size, digits = 0, len(body), 1
    while size:
        line = digits + 2 * M + 1
        run = 10**digits - n
        if size < run * line:
            if size % line:
                return None
            n, size = n + size // line, 0
        else:
            n, size, digits = n + run, size - run * line, digits + 1
    data = np.frombuffer(body, dtype=np.uint8)
    bits = np.empty((n, M), dtype=np.uint8)
    pos = 0
    for first, stop, digits in _id_runs(n):
        end = pos + (stop - first) * (digits + 2 * M + 1)
        bits[first:stop] = data[pos:end].reshape(stop - first, -1)[:, digits + 1 :: 2]
        pos = end
    bits -= ord("0")
    if (bits > 1).any() or _mask_body(bits) != body:
        return None
    return bits.view(np.int8)


def write_mask_matrix(matrix: MaskMatrix, path: str | Path) -> None:
    """Write a `maskmatrix-v1` CSV: sample_id column then one 0/1 column per modality."""
    header = "sample_id," + ",".join(matrix.rates.modality_names) + "\n"
    atomic_write_bytes(Path(path), header.encode("utf-8") + _mask_body(matrix.masks))


def read_mask_matrix(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a `maskmatrix-v1` CSV; returns (modality names, (N, M) int8 array).

    A body in the grammar has one form, the one `_mask_body` writes, so
    the body is read by checking it against that form. Otherwise the
    first malformed row raises `FileFormatError` with its line number.
    """
    header, body = textformat.read_text(path)
    if len(header) < 3 or header[0] != "sample_id":
        raise FileFormatError(f"{path}: expected header 'sample_id,<modalities...>'")
    names = header[1:]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise FileFormatError(f"{path}:1: duplicate modality name {repeated!r}")
    masks = _mask_bits(body.encode("utf-8"), len(names))
    if masks is None:
        fields = (textformat.INT,) + (textformat.BIT,) * len(names)
        raise textformat.first_bad_line(path, body, header, fields, _mask_row_error)
    if not masks.shape[0]:
        raise FileFormatError(f"{path}: no mask rows")
    if not _any_column(masks).all():
        raise FileFormatError(f"{path}: contains an all-missing row")
    return tuple(names), masks


def _mask_row_error(k: int, cells: list[str]) -> str | None:
    """The reason data row k is not a mask row with sample_id k, if any."""
    try:
        sample_id = int(cells[0])
        bits = [int(v) for v in cells[1:]]
    except ValueError:
        return "non-integer field"
    if sample_id != k:
        return f"sample_id {sample_id}, expected {k}"
    if any(b not in (0, 1) for b in bits):
        return "mask values must be 0 or 1"
    return None
