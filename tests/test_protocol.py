"""Tests for the missingness protocol: patterns, sampling, marginals."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from missdiag import (
    JS,
    KL,
    DimensionError,
    EmptyDatasetError,
    InvalidPatternError,
    MaskMatrix,
    RateVector,
    divergence,
    empirical_rates,
    generate_mask_matrix,
    marginal_missing_rate,
    marginal_missing_rates,
    mean_match_shared,
    pattern_bits,
    pattern_distribution,
)
from missdiag.protocol import (
    _ROW_CHUNK,
    _generate_rows,
    _kl,
    _philox_words,
    _sample_rows,
    pattern_bitstrings,
    pattern_code,
    pattern_counts,
)

from oracles import (
    alloc_philox_words,
    bit_tuples,
    enum_marginal,
    enum_pattern_probs,
    loop_kl,
    matmul_pattern_counts,
    mean_empirical_rates,
    per_attempt_sample_rows,
    philox_mask_rows,
    random_rate_vector,
    scalar_pattern_probability,
)


def _rv(*rates: float) -> RateVector:
    return RateVector(tuple(f"m{i}" for i in range(len(rates))), rates)


class TestRateVector:
    def test_basic_fields(self):
        rv = _rv(0.1, 0.2, 0.6)
        assert rv.M == 3
        assert rv.rates == (0.1, 0.2, 0.6)
        np.testing.assert_array_equal(rv.as_array(), [0.1, 0.2, 0.6])

    def test_shared_constructor(self):
        rv = RateVector.shared(("a", "v", "t"), 0.3)
        assert rv.rates == (0.3, 0.3, 0.3)

    def test_mean_matched(self):
        rv = _rv(0.1, 0.2, 0.6).mean_matched()
        assert rv.rates == (rv.rates[0],) * 3
        assert abs(rv.rates[0] - 0.3) < 1e-15

    def test_rate_one_rejected(self):
        with pytest.raises(DimensionError):
            _rv(0.4, 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(DimensionError):
            _rv(0.4, -0.1)

    def test_single_modality_rejected(self):
        with pytest.raises(DimensionError):
            RateVector(("a",), (0.5,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError):
            RateVector(("a", "a"), (0.1, 0.2))

    def test_name_rate_length_mismatch(self):
        with pytest.raises(DimensionError):
            RateVector(("a", "b", "c"), (0.1, 0.2))

    def test_zero_rates_allowed(self):
        assert _rv(0.0, 0.0).rates == (0.0, 0.0)


class TestPatternCode:
    def test_msb_is_modality_zero(self):
        assert pattern_code((1, 0, 0), 3) == 4
        assert pattern_code((0, 0, 1), 3) == 1
        assert pattern_code((1, 1, 1), 3) == 7
        assert pattern_code((1,) + (0,) * 63, 64) == 2**63

    def test_all_missing_rejected(self):
        with pytest.raises(InvalidPatternError, match="all-missing"):
            pattern_code((0, 0, 0), 3)

    @pytest.mark.parametrize("bits", [(1, 2), (1, 0.5), (1, -1), ("1", "0"), (1, math.nan)])
    def test_non_binary_rejected(self, bits):
        # No value is cut or wrapped to a bit: (1, 0.5) is not (1, 0).
        with pytest.raises(InvalidPatternError, match="mask bits must be 0 or 1"):
            pattern_code(bits, 2)

    @pytest.mark.parametrize("bits", [(), (1,), (1, 1, 1)])
    def test_length_rejected(self, bits):
        with pytest.raises(DimensionError, match=f"pattern length {len(bits)} != M=2"):
            pattern_code(bits, 2)

    def test_bools_and_arrays_accepted(self):
        assert pattern_code((True, False), 2) == 2
        assert pattern_code(np.array([0, 1], dtype=np.int8), 2) == 1
        assert pattern_code([1.0, 1.0], 2) == 3


class TestPatternBits:
    @pytest.mark.parametrize("M", [2, 3, 5, 9])
    def test_rows_are_the_canonical_order(self, M):
        bits = pattern_bits(M)
        assert bits.shape == (2**M - 1, M) and bits.dtype == bool
        assert [tuple(int(b) for b in row) for row in bits.tolist()] == bit_tuples(M)
        assert pattern_bitstrings(M) == ["".join(map(str, b)) for b in bit_tuples(M)]

    @pytest.mark.parametrize("M", [2, 4])
    def test_row_index_is_code_minus_one(self, M):
        assert [pattern_code(row, M) for row in pattern_bits(M)] == list(range(1, 2**M))

    def test_read_only(self):
        with pytest.raises(ValueError):
            pattern_bits(3)[0, 0] = True

    @pytest.mark.parametrize("M", [1, 21])
    def test_modality_count_validated(self, M):
        with pytest.raises(DimensionError):
            pattern_bits(M)

    def test_counts_follow_the_canonical_order(self):
        masks = np.array([[0, 0, 1], [1, 1, 1], [0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=np.int8)
        assert pattern_counts(masks).tolist() == [2, 0, 0, 1, 0, 0, 1]


class TestPatternProbability:
    def test_deterministic_rates_give_certain_full_pattern(self):
        dist = pattern_distribution(_rv(0.0, 0.0, 0.0))
        assert dist.probability_of((1, 1, 1)) == 1.0
        assert dist.probability_of((1, 0, 1)) == 0.0

    def test_full_pattern_mass_frozen_value(self):
        # prod(1 - r) / (1 - prod r) = 0.12 / 0.88 for rates (0.4, 0.5, 0.6)
        p = pattern_distribution(_rv(0.4, 0.5, 0.6)).probability_of((1, 1, 1))
        assert p == 0.13636363636363635
        assert p == 0.12 / 0.88

    @pytest.mark.parametrize("bits", [(0, 0, 1), (1, 0, 1), (1,) * 3, (1,) * 8])
    def test_length_mismatch_rejected(self, bits):
        # A longer pattern once read another pattern's probability or ran
        # off the end of the vector with an IndexError.
        dist = pattern_distribution(_rv(0.4, 0.5))
        with pytest.raises(DimensionError, match="pattern length"):
            dist.probability_of(bits)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            M = int(rng.integers(2, 6))
            rv = _rv(*random_rate_vector(rng, M))
            dist = pattern_distribution(rv)
            assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12
            assert (dist.probabilities >= 0.0).all()

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            M = int(rng.integers(2, 6))
            rv = _rv(*random_rate_vector(rng, M))
            exact = enum_pattern_probs(rv.rates)
            got = pattern_distribution(rv).probabilities.tolist()
            for p, bits in zip(got, bit_tuples(M)):
                assert p == pytest.approx(float(exact[bits]), abs=1e-14)

    @pytest.mark.parametrize("M", range(2, 15))
    @pytest.mark.parametrize("kind", ["uniform", "zeros", "near_one"])
    def test_equals_scalar_loop(self, M, kind):
        rng = np.random.default_rng([M, len(kind)])
        if kind == "near_one":
            rates = random_rate_vector(rng, M, 0.97, 0.999999)
        else:
            rates = list(random_rate_vector(rng, M))
            if kind == "zeros":
                for m in rng.choice(M, size=max(1, M // 3), replace=False):
                    rates[m] = 0.0
        got = pattern_distribution(_rv(*rates)).probabilities.tolist()
        want = [scalar_pattern_probability(rates, bits) for bits in bit_tuples(M)]
        assert got == want

    def test_probability_of_lookup(self):
        rv = _rv(0.2, 0.7)
        dist = pattern_distribution(rv)
        for row in pattern_bits(2):
            assert dist.probability_of(row) == scalar_pattern_probability(rv.rates, row)


class TestGenerateMaskMatrix:
    def test_deterministic_regeneration(self):
        rv = _rv(0.3, 0.5, 0.7)
        a = generate_mask_matrix(rv, 500, seed=42)
        b = generate_mask_matrix(rv, 500, seed=42)
        np.testing.assert_array_equal(a.masks, b.masks)
        assert a.seed == 42

    def test_seed_changes_output(self):
        rv = _rv(0.3, 0.5, 0.7)
        a = generate_mask_matrix(rv, 500, seed=1)
        b = generate_mask_matrix(rv, 500, seed=2)
        assert (a.masks != b.masks).any()

    def test_rows_independent_of_chunking(self):
        # Row i is a pure function of (rates, seed, i): generating the
        # matrix in two chunks reproduces the single-shot result.
        rv = _rv(0.2, 0.6, 0.8)
        whole = _generate_rows(rv, 0, 400, seed=7)
        parts = np.vstack([
            _generate_rows(rv, 0, 150, seed=7),
            _generate_rows(rv, 150, 400, seed=7),
        ])
        np.testing.assert_array_equal(whole, parts)

    def test_prefix_stability_under_growth(self):
        rv = _rv(0.4, 0.5)
        small = generate_mask_matrix(rv, 100, seed=9)
        large = generate_mask_matrix(rv, 300, seed=9)
        np.testing.assert_array_equal(large.masks[:100], small.masks)

    def test_no_all_missing_rows(self):
        matrix = generate_mask_matrix(_rv(0.9, 0.9), 5_000, seed=5)
        assert matrix.masks.any(axis=1).all()

    def test_zero_rates_always_full(self):
        matrix = generate_mask_matrix(_rv(0.0, 0.0), 20, seed=0)
        assert (matrix.masks == 1).all()

    def test_pattern_frequencies_track_distribution(self):
        rv = _rv(0.4, 0.5, 0.6)
        n = 100_000
        counts = pattern_counts(generate_mask_matrix(rv, n, seed=3).masks)
        for observed, prob in zip(counts.tolist(), pattern_distribution(rv).probabilities):
            sigma = math.sqrt(n * prob * (1.0 - prob))
            assert abs(observed - n * prob) < 4.5 * sigma

    def test_empirical_rates_near_exact_marginals(self):
        rv = _rv(0.1, 0.2, 0.6)
        n = 40_000
        matrix = generate_mask_matrix(rv, n, seed=13)
        observed = empirical_rates(matrix)
        for m in range(3):
            p = marginal_missing_rate(rv, m)
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(observed[m] - p) < 4.5 * sigma

    @pytest.mark.parametrize("M, n, seed", [(2, 1, 0), (3, 100_000, 1), (5, 999, 2),
                                            (12, 4_096, 3)])
    def test_counted_statistics_equal_the_mean_and_matmul_forms(self, M, n, seed):
        # Integer counts give the bits of 1 - mean and of the int64 code
        # product, for sampled int8 masks, their bool and int64 forms, and
        # integers other than 0/1 (which the statistics do not reject).
        rng = np.random.default_rng(seed)
        rv = RateVector(tuple(f"m{m}" for m in range(M)),
                        tuple(rng.uniform(0.0, 0.9, M).tolist()))
        masks = generate_mask_matrix(rv, n, seed=seed).masks
        odd = rng.integers(0, 4, size=(n, M)).astype(np.int16)
        for form in (masks, masks.astype(bool), masks.astype(np.int64), odd):
            assert empirical_rates(form).tolist() == mean_empirical_rates(form).tolist()
            assert pattern_counts(form).tolist() == matmul_pattern_counts(form).tolist()
        negative = odd - 2
        assert empirical_rates(negative).tolist() == mean_empirical_rates(negative).tolist()
        matrix = generate_mask_matrix(rv, n, seed=seed)
        assert empirical_rates(matrix).tolist() == mean_empirical_rates(masks).tolist()

    @pytest.mark.parametrize("masks", [np.ones((3, 2)), np.ones((3, 2), dtype=np.float32),
                                       np.full((3, 2), "1")], ids=["float64", "float32", "str"])
    def test_statistics_reject_non_integer_masks(self, masks):
        for statistic in (empirical_rates, pattern_counts):
            with pytest.raises(DimensionError, match="^mask arrays hold integers or bools, got "):
                statistic(masks)

    def test_statistics_reject_other_shapes(self):
        for masks in (np.ones(3, dtype=np.int8), np.ones((2, 2, 2), dtype=np.int8)):
            with pytest.raises(DimensionError, match=r"\(N, M\) mask array"):
                empirical_rates(masks)
            with pytest.raises(DimensionError, match=r"^expected an \(N, M\) mask array$"):
                pattern_counts(masks)
        with pytest.raises(DimensionError, match="^expected a non-empty"):
            empirical_rates(np.ones((0, 2), dtype=np.int8))
        assert pattern_counts(np.ones((0, 2), dtype=np.int8)).tolist() == [0, 0, 0]

    def test_zero_rows_rejected(self):
        with pytest.raises(EmptyDatasetError):
            generate_mask_matrix(_rv(0.1, 0.2), 0, seed=0)

    def test_seed_range_validated(self):
        with pytest.raises(DimensionError):
            generate_mask_matrix(_rv(0.1, 0.2), 5, seed=-1)
        with pytest.raises(DimensionError):
            generate_mask_matrix(_rv(0.1, 0.2), 5, seed=2**64)

    def test_matrix_validation(self):
        rv = _rv(0.1, 0.2)
        with pytest.raises(InvalidPatternError):
            MaskMatrix(rates=rv, seed=0, masks=np.array([[1, 1], [0, 0]]))
        with pytest.raises(InvalidPatternError):
            MaskMatrix(rates=rv, seed=0, masks=np.array([[1, 2]]))
        with pytest.raises(DimensionError):
            MaskMatrix(rates=rv, seed=0, masks=np.ones((4, 3), dtype=np.int8))

    @pytest.mark.parametrize("masks", [np.array([[1, 256], [257, 1]]), np.array([[1.0, 0.5]]),
                                       np.array([[1, -255]])])
    def test_matrix_rejects_values_before_the_int8_cast(self, masks):
        # As int8 these would read as valid rows: [[1, 0], [1, 1]], [[1, 0]], [[1, 1]].
        with pytest.raises(InvalidPatternError, match="mask entries must be 0 or 1"):
            MaskMatrix(rates=_rv(0.1, 0.2), seed=0, masks=masks)

    def test_value_equality(self):
        rv = _rv(0.3, 0.4, 0.5)
        matrix = generate_mask_matrix(rv, 50, seed=0)
        assert matrix == generate_mask_matrix(rv, 50, seed=0)
        assert matrix != generate_mask_matrix(rv, 50, seed=1)  # other masks, other seed
        assert matrix != generate_mask_matrix(rv, 49, seed=0)
        flipped = matrix.masks.copy()
        flipped[0] = [0, 1, 1] if matrix.masks[0].tolist() == [1, 1, 1] else [1, 1, 1]
        assert matrix != MaskMatrix(rates=rv, seed=0, masks=flipped)  # one row differs
        assert matrix != MaskMatrix(rates=rv, seed=1, masks=matrix.masks)
        assert matrix != MaskMatrix(rates=_rv(0.3, 0.4, 0.6), seed=0, masks=matrix.masks)
        assert matrix != matrix.masks.tolist()

    def test_masks_are_read_only(self):
        matrix = generate_mask_matrix(_rv(0.1, 0.2), 10, seed=0)
        with pytest.raises(ValueError):
            matrix.masks[0, 0] = 0


def first_uniforms(seed: int, row: int, M: int) -> np.ndarray:
    """The M uniforms of the first attempt at mask row `row`, from numpy's own Philox."""
    return np.random.Generator(np.random.Philox(key=seed, counter=row << 64)).random(M)


class TestSamplerOracle:
    # Near-1 rates reject most first attempts, so later attempts read words
    # that straddle the stream's 4-word blocks for every M here.
    @pytest.mark.parametrize("M", [2, 3, 5, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, _ROW_CHUNK - 100, 10**6, 2**40])
    @pytest.mark.parametrize("near_one", [False, True])
    def test_rows_equal_numpy_philox(self, M, seed, start, near_one):
        rng = np.random.default_rng([M, seed % 1000, start % 1000, near_one])
        low, high = (0.9, 0.99) if near_one else (0.0, 0.95)
        rates = random_rate_vector(rng, M, low, high)
        rows = _generate_rows(_rv(*rates), start, start + 200, seed)
        assert rows.dtype == np.int8
        assert (rows == philox_mask_rows(rates, start, start + 200, seed)).all()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_ties_with_the_rate_count_as_observed(self, seed):
        # Rate m is uniform m of row m's stream, so rows 0..M-1 each meet one
        # exact tie. `>=` keeps that modality, and the tie pins every bit of
        # the uniform, down to the lowest.
        M = 4
        rates = tuple(float(first_uniforms(seed, m, M)[m]) for m in range(M))
        rows = _generate_rows(_rv(*rates), 0, M, seed)
        assert rows.diagonal().all()
        assert (rows == philox_mask_rows(rates, 0, M, seed)).all()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rates_one_ulp_above_a_draw_count_as_missing(self, seed):
        # Rate m is the next float above the first uniform m below 0.5 among
        # rows m, m + M, ...: r * 2^53 is then not an integer, and only its
        # ceiling, not its floor, keeps that draw below the rate.
        M = 4
        rates, rows = [], []
        for m in range(M):
            i = m
            while (u := first_uniforms(seed, i, M)[m]) >= 0.5:
                i += M
            rates.append(float(np.nextafter(u, 1.0)))
            rows.append(i)
        got = _generate_rows(_rv(*rates), 0, max(rows) + 1, seed)
        assert (got == philox_mask_rows(rates, 0, max(rows) + 1, seed)).all()
        assert not got[rows, range(M)].all()

    def test_no_runtime_warnings(self):
        # The largest key makes every round-key addition wrap around 2^64.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_mask_matrix(_rv(*[0.95] * 12), 3_000, seed=2**64 - 1)
            generate_mask_matrix(_rv(0.1, 0.2, 0.6), 3_000, seed=0)


class TestSeveralAttemptsPerCall:
    """Rows drawn several attempts per kernel call equal the one-call-per-attempt loop."""

    @pytest.mark.parametrize("M", [2, 3, 5, 12])
    @pytest.mark.parametrize("rate", [0.85, 0.93, 0.99])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 37, _ROW_CHUNK + 5])
    def test_rows_equal_the_per_attempt_loop(self, M, rate, seed, n):
        rng = np.random.default_rng([M, int(rate * 100), seed % 7, n])
        r = np.minimum(rate + rng.uniform(0.0, 0.0099, M), 0.99)
        # Stream ids from both ends of the 64-bit counter word.
        rows = np.arange(n, dtype=np.uint64)
        rows[n // 2 :] = np.uint64(2**64 - 1) - rows[n // 2 :]
        got = _sample_rows(r, rows, seed)
        assert got.dtype == bool and got.shape == (n, M)
        assert (got == per_attempt_sample_rows(r, rows, seed)).all()

    @pytest.mark.parametrize("n", [_ROW_CHUNK - 1, _ROW_CHUNK, 2 * _ROW_CHUNK + 3])
    def test_generated_rows_span_chunks(self, n):
        rates = _rv(0.97, 0.95, 0.9)
        want = np.concatenate([
            per_attempt_sample_rows(rates.as_array(),
                                    np.arange(lo, min(lo + _ROW_CHUNK, n), dtype=np.uint64), 5)
            for lo in range(0, n, _ROW_CHUNK)
        ])
        assert (_generate_rows(rates, 0, n, 5) == want).all()

    def test_fewer_kernel_calls(self, monkeypatch):
        # M = 5 at rates 0.85 rejects 44% of attempts: one call per attempt
        # took 12 calls on one chunk of rows.
        from missdiag import protocol

        calls = []

        def counted(seed, rows, first, count):
            calls.append(rows.size)
            return _philox_words(seed, rows, first, count)

        monkeypatch.setattr(protocol, "_philox_words", counted)
        rows = _generate_rows(_rv(*[0.85] * 5), 0, _ROW_CHUNK, 3)
        assert len(calls) <= 6
        monkeypatch.undo()
        want = per_attempt_sample_rows(np.full(5, 0.85), np.arange(_ROW_CHUNK, dtype=np.uint64), 3)
        assert (rows == want).all()


class TestPhiloxKernel:
    """The in-place kernel against the allocate-per-operation kernel it replaced."""

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("first, count", [(0, 1), (0, 2), (1, 2), (3, 1)])
    @pytest.mark.parametrize("n", [0, 1, 5, _ROW_CHUNK - 1, _ROW_CHUNK + 1])
    def test_words_equal_the_allocating_kernel(self, seed, first, count, n):
        # Stream ids at both ends of the 64-bit counter word.
        rows = np.arange(n, dtype=np.uint64)
        rows[n // 2 :] = np.uint64(2**64 - 1) - rows[n // 2 :]
        words = _philox_words(seed, rows, first, count)
        want = alloc_philox_words(seed, rows, first, count)
        assert words.dtype == want.dtype == np.uint64
        assert words.shape == want.shape == (n, 4 * count)
        assert (words == want).all()


class TestMarginals:
    def test_zero_other_rate_makes_marginal_equal_rate(self):
        # With some other modality never missing, truncation removes
        # nothing that involves modality 0 and the marginal is exact.
        assert marginal_missing_rate(_rv(0.5, 0.0, 0.0), 0) == 0.5

    def test_frozen_shared_half(self):
        # r (1 - r^2) / (1 - r^3) = 0.375 / 0.875 at r = 0.5
        got = marginal_missing_rate(_rv(0.5, 0.5, 0.5), 0)
        assert got == 0.42857142857142855

    def test_frozen_imbalanced(self):
        got = marginal_missing_rate(_rv(0.4, 0.5, 0.6), 2)
        assert got == 0.5454545454545454

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            M = int(rng.integers(2, 7))
            rv = _rv(*random_rate_vector(rng, M))
            m = int(rng.integers(M))
            assert marginal_missing_rate(rv, m) == enum_marginal(rv.rates, m)

    def test_truncation_shrinks_marginal(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            rv = _rv(*random_rate_vector(rng, M, low=0.05, high=0.9))
            for m in range(M):
                assert marginal_missing_rate(rv, m) < rv.rates[m]

    def test_vector_helper(self):
        rv = _rv(0.4, 0.5, 0.6)
        got = marginal_missing_rates(rv)
        assert got.tolist() == [marginal_missing_rate(rv, m) for m in range(3)]

    def test_index_validated(self):
        with pytest.raises(DimensionError):
            marginal_missing_rate(_rv(0.1, 0.2), 2)


class TestMeanMatch:
    def test_frozen_pairings(self):
        cases = [
            ((0.4, 0.5, 0.6), 0.5),
            ((0.1, 0.2, 0.6), 0.3),
            ((0.2, 0.5, 0.8), 0.5),
            ((0.4, 0.8, 0.9), 0.7),
        ]
        for rates, expected in cases:
            assert abs(mean_match_shared(_rv(*rates)) - expected) < 1e-15

    def test_idempotent_on_shared_vectors(self):
        rv = RateVector.shared(("a", "b", "c"), 0.25)
        assert mean_match_shared(rv) == 0.25

    def test_expected_missing_count_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            M = int(rng.integers(2, 6))
            rv = _rv(*random_rate_vector(rng, M))
            shared = rv.mean_matched()
            assert abs(sum(rv.rates) - sum(shared.rates)) < 1e-12


class TestDivergence:
    def test_self_divergence_is_zero(self):
        rv = _rv(0.4, 0.5, 0.6)
        assert divergence(rv, rv, kind=KL) == 0.0
        assert divergence(rv, rv, kind=JS) == 0.0

    def test_js_symmetric_and_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            M = int(rng.integers(2, 6))
            a = _rv(*random_rate_vector(rng, M))
            b = _rv(*random_rate_vector(rng, M))
            ab = divergence(a, b, kind=JS)
            ba = divergence(b, a, kind=JS)
            assert abs(ab - ba) < 1e-12
            assert 0.0 <= ab <= math.log(2.0) + 1e-12

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            M = int(rng.integers(2, 5))
            a = _rv(*random_rate_vector(rng, M, low=0.05, high=0.9))
            b = _rv(*random_rate_vector(rng, M, low=0.05, high=0.9))
            assert divergence(a, b, kind=KL) >= 0.0

    def test_kl_infinite_on_support_mismatch(self):
        # rates_b never drops modality 0, so patterns missing it have
        # zero mass under b but positive mass under a.
        a = _rv(0.3, 0.5)
        b = _rv(0.0, 0.5)
        assert divergence(a, b, kind=KL) == math.inf
        assert divergence(b, a, kind=KL) < math.inf

    def test_js_finite_on_support_mismatch(self):
        a = _rv(0.3, 0.5)
        b = _rv(0.0, 0.5)
        assert math.isfinite(divergence(a, b, kind=JS))

    def test_kl_matches_direct_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            M = int(rng.integers(2, 5))
            a = _rv(*random_rate_vector(rng, M, low=0.05, high=0.9))
            b = _rv(*random_rate_vector(rng, M, low=0.05, high=0.9))
            expected = 0.0
            for bits, pa in enum_pattern_probs(a.rates).items():
                pb = enum_pattern_probs(b.rates)[bits]
                if pa > 0:
                    expected += float(pa) * math.log(float(pa) / float(pb))
            assert divergence(a, b, kind=KL) == pytest.approx(expected, abs=1e-12)

    def test_kl_and_js_bits_match_the_pattern_loop(self):
        rng = np.random.default_rng(1603)
        for M in range(2, 15):
            for _ in range(4 if M < 11 else 1):
                a, b = (np.array(random_rate_vector(rng, M)) for _ in range(2))
                a[rng.random(M) < 0.25] = 0.0  # patterns without mass under a: skipped
                if rng.random() < 0.5:  # b may share a's zeros, and has no others
                    b[a == 0.0] = 0.0
                p, q = (pattern_distribution(_rv(*r)).probabilities for r in (a, b))
                mix = 0.5 * (p + q)
                assert _kl(p, q) == loop_kl(p, q)
                assert divergence(_rv(*a), _rv(*b), kind=KL) == loop_kl(p, q)
                assert divergence(_rv(*a), _rv(*b), kind=JS) == max(
                    0.0, 0.5 * loop_kl(p, mix) + 0.5 * loop_kl(q, mix))

    def test_kl_infinite_with_a_zero_rate_in_b_only(self):
        a, b = _rv(0.2, 0.4, 0.1, 0.6), _rv(0.2, 0.0, 0.1, 0.6)
        p, q = (pattern_distribution(r).probabilities for r in (a, b))
        assert loop_kl(p, q) == math.inf
        assert divergence(a, b, kind=KL) == math.inf
        assert math.isfinite(divergence(b, a, kind=KL))

    @pytest.mark.parametrize("case", ["zeros", "equal", "tiny", "none kept"])
    def test_kl_of_crafted_vectors(self, case):
        rng = np.random.default_rng(1604)
        p, q = rng.dirichlet(np.ones(500)), rng.dirichlet(np.ones(500))
        if case == "zeros":
            p[rng.random(500) < 0.3] = 0.0
        elif case == "equal":  # round-off may leave a negative residue
            q = p.copy()
        elif case == "tiny":
            p[::7] = 5e-324
            q[::11] = 1e-300
        else:
            p[:] = 0.0
        assert _kl(p, q) == loop_kl(p, q)

    def test_kl_of_one_kept_pattern_keeps_the_bits_of_its_log(self):
        # Among many terms a last-bit change of one log is rounded away;
        # alone, p * ln(p / q) shows it.
        rng = np.random.default_rng(1605)
        p = rng.uniform(0.0, 1.0, size=4000)
        q = p * rng.uniform(0.001, 1.0, size=4000)
        for pi, qi in zip(p, q):
            pair = (np.array([pi, 0.0]), np.array([qi, 0.5]))
            assert _kl(*pair) == loop_kl(*pair)

    def test_mismatched_m_rejected(self):
        with pytest.raises(DimensionError):
            divergence(_rv(0.1, 0.2), _rv(0.1, 0.2, 0.3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionError):
            divergence(_rv(0.1, 0.2), _rv(0.2, 0.1), kind="tv")
