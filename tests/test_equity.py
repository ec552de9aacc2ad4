"""Tests for ablation tables, contribution scores, and the balance index."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from missdiag import (
    BALANCED_IS_ONE,
    DOMINANCE_IS_ONE,
    AblationTable,
    ConfigError,
    DegenerateContributionError,
    DimensionError,
    PerfMetric,
    contribution,
    mei,
    mei_from_table,
    perf_drops,
)
from missdiag.equity import DEFAULT_EPSILON
from missdiag.protocol import pattern_bits, pattern_code

from oracles import bit_tuples, brute_mei, plain_drops

UA = PerfMetric.named("UA")
MAE = PerfMetric.named("MAE")


def make_table(M: int, scores: dict[tuple[int, ...], float],
               metric: PerfMetric = UA) -> AblationTable:
    """Build a table from a bits -> score map that includes all-ones."""
    return AblationTable(M=M, metric=metric, scores=[scores[b] for b in bit_tuples(M)])


def random_table(rng: np.random.Generator, M: int,
                 metric: PerfMetric = UA) -> AblationTable:
    scores = {bits: float(rng.uniform(0.0, 1.0)) for bits in bit_tuples(M)}
    return make_table(M, scores, metric)


def table_scores(table: AblationTable) -> dict[tuple[int, ...], float]:
    return dict(zip(bit_tuples(table.M), table.scores.tolist()))


class TestPerfMetric:
    def test_known_orientations(self):
        assert PerfMetric.named("UA").higher_is_better
        assert PerfMetric.named("WA").higher_is_better
        assert PerfMetric.named("F1").higher_is_better
        assert PerfMetric.named("Corr").higher_is_better
        assert PerfMetric.named("Acc-2").higher_is_better
        assert not PerfMetric.named("MAE").higher_is_better

    def test_unknown_name_defaults_to_higher_better(self):
        assert PerfMetric.named("RMSE").higher_is_better
        metric = PerfMetric.named("RMSE", {"RMSE": "lower-better"})
        assert not metric.higher_is_better

    def test_invalid_orientation_rejected(self):
        with pytest.raises(DimensionError):
            PerfMetric(name="X", orientation="sideways")

    # Each would write an `abltable-v1` file that its reader refuses.
    @pytest.mark.parametrize("name", ["a,b", "", 'say "UA"', "UA\n", "UA\r", 5, None])
    def test_name_outside_the_table_grammar_rejected(self, name):
        with pytest.raises(ConfigError, match=f"^metric name {re.escape(repr(name))} must be "
                                              "nonempty, without commas, double quotes or "
                                              "line breaks$"):
            PerfMetric(name)


class TestAblationTable:
    def test_score_lookup(self):
        table = make_table(2, {(1, 1): 0.9, (1, 0): 0.7, (0, 1): 0.5})
        assert table.score((1, 1)) == 0.9
        assert table.score((1, 0)) == 0.7
        assert table.score((0, 1)) == 0.5

    def test_scores_in_canonical_order_with_full_last(self):
        table = AblationTable(M=2, metric=UA, scores=[0.5, 0.7, 0.9])
        assert table.perf_full == 0.9
        assert table.score((0, 1)) == 0.5
        assert table.scores.dtype == np.float64
        with pytest.raises(ValueError):
            table.scores[0] = 0.0

    def test_equality_compares_scores(self):
        table = AblationTable(M=2, metric=UA, scores=[0.5, 0.7, 0.9])
        assert table == AblationTable(M=2, metric=UA, scores=np.array([0.5, 0.7, 0.9]))
        assert table != AblationTable(M=2, metric=UA, scores=[0.5, 0.7, 0.8])
        assert table != AblationTable(M=2, metric=MAE, scores=[0.5, 0.7, 0.9])
        assert table != AblationTable(M=3, metric=UA, scores=[0.5] * 7)
        assert table != [0.5, 0.7, 0.9]

    def test_scores_are_copied(self):
        given = np.array([0.5, 0.7, 0.9])
        table = AblationTable(M=2, metric=UA, scores=given)
        given[0] = 0.0
        assert table.scores[0] == 0.5

    @pytest.mark.parametrize("scores", [[0.5, 0.9], [0.1] * 4, [[0.5, 0.7, 0.9]], []])
    def test_wrong_score_count_rejected(self, scores):
        with pytest.raises(DimensionError, match="2\\^2-1 scores"):
            AblationTable(M=2, metric=UA, scores=scores)

    def test_single_modality_rejected(self):
        with pytest.raises(DimensionError):
            AblationTable(M=1, metric=UA, scores=[0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DimensionError, match="combination 10 "):
            make_table(2, {(1, 1): 0.9, (1, 0): bad, (0, 1): 0.5})

    @pytest.mark.parametrize("bits", [(1, 0, 1), (0, 0, 1), (1,) * 8])
    def test_unknown_pattern_lookup_rejected(self, bits):
        table = make_table(2, {(1, 1): 0.9, (1, 0): 0.7, (0, 1): 0.5})
        with pytest.raises(DimensionError, match=f"pattern length {len(bits)} != M=2"):
            table.score(bits)

    def test_rows_of_pattern_bits_look_up_their_scores(self):
        table = AblationTable(M=3, metric=UA, scores=np.arange(7) / 10.0)
        assert [table.score(row) for row in pattern_bits(3)] == table.scores.tolist()


class TestPerfDrops:
    def test_higher_better_drop_is_full_minus_ablated(self):
        table = make_table(2, {(1, 1): 0.9, (1, 0): 0.7, (0, 1): 0.5})
        np.testing.assert_allclose(perf_drops(table, 1), [0.9 - 0.7])
        np.testing.assert_allclose(perf_drops(table, 0), [0.9 - 0.5])

    def test_lower_better_sign_flips(self):
        # For an error metric, removing a useful modality raises the
        # score, and that increase must count as a positive drop.
        table = make_table(2, {(1, 1): 0.2, (1, 0): 0.5, (0, 1): 0.3},
                           metric=MAE)
        np.testing.assert_allclose(perf_drops(table, 1), [0.5 - 0.2])
        np.testing.assert_allclose(perf_drops(table, 0), [0.3 - 0.2])

    @pytest.mark.parametrize("M", [2, 3, 6, 10])
    @pytest.mark.parametrize("metric", [UA, MAE], ids=["higher", "lower"])
    def test_equals_plain_loop(self, M, metric):
        table = random_table(np.random.default_rng(M), M, metric)
        for m in range(M):
            got = perf_drops(table, m)
            assert got.tolist() == plain_drops(table_scores(table),
                                               metric.higher_is_better, m)

    def test_equal_scores_give_positive_zero_drops(self):
        for metric in (UA, MAE):
            drops = perf_drops(make_table(2, dict.fromkeys(bit_tuples(2), 0.5), metric), 0)
            assert math.copysign(1.0, drops[0]) == 1.0

    def test_index_validated(self):
        table = make_table(2, {(1, 1): 0.9, (1, 0): 0.7, (0, 1): 0.5})
        for m in (-1, 2):
            with pytest.raises(DimensionError):
                perf_drops(table, m)

    def test_canonical_order_m3(self):
        scores = {bits: float(pattern_code(bits, 3)) / 10.0
                  for bits in bit_tuples(3)}
        table = make_table(3, scores)
        # combos excluding modality 0: 001, 010, 011 -> indices 1, 2, 3
        np.testing.assert_allclose(perf_drops(table, 0),
                                   [0.7 - 0.1, 0.7 - 0.2, 0.7 - 0.3])


class TestContribution:
    def test_zero_drops(self):
        mu, sigma, zeta = contribution([0.0, 0.0, 0.0])
        assert (mu, sigma, zeta) == (0.0, 0.0, 0.0)

    def test_hand_computed_values(self):
        mu, sigma, zeta = contribution([0.1, 0.3])
        assert mu == pytest.approx(0.2, abs=1e-15)
        assert sigma == pytest.approx(0.1, abs=1e-15)
        assert zeta == pytest.approx(0.2 / (0.1 + DEFAULT_EPSILON), rel=1e-12)

    def test_population_std_not_sample_std(self):
        _, sigma, _ = contribution([0.0, 2.0])
        assert sigma == pytest.approx(1.0, abs=1e-15)

    def test_epsilon_caps_constant_drops(self):
        # Identical nonzero drops have zero spread; epsilon keeps the
        # stability ratio finite instead of dividing by zero.
        _, _, zeta = contribution([0.25, 0.25, 0.25], epsilon=1e-8)
        assert zeta == pytest.approx(0.25 / 1e-8, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            contribution([])

    @pytest.mark.parametrize("epsilon", [0.0, -1e-8, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # An infinite epsilon once passed here and zeroed every zeta, which
        # then read as a degenerate profile.
        for call in (lambda: contribution([0.1], epsilon=epsilon),
                     lambda: mei((1.0, 2.0), epsilon=epsilon)):
            with pytest.raises(DimensionError, match="epsilon must be finite and positive"):
                call()


class TestMEI:
    def test_uniform_contributions_score_one(self):
        # Epsilon in the normaliser leaves sum(p) just under 1, so H2
        # sits a hair above ln M; the value is clamped back to 1.
        result = mei((1.0, 1.0, 1.0), mode=BALANCED_IS_ONE)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.h2 == pytest.approx(math.log(3.0), abs=1e-7)
        dom = mei((1.0, 1.0, 1.0), mode=DOMINANCE_IS_ONE)
        assert dom.value == pytest.approx(0.0, abs=1e-7)

    def test_single_dominant_modality_scores_zero(self):
        result = mei((5.0, 0.0, 0.0), mode=BALANCED_IS_ONE)
        assert result.value == pytest.approx(0.0, abs=1e-6)
        dom = mei((5.0, 0.0, 0.0), mode=DOMINANCE_IS_ONE)
        assert dom.value == pytest.approx(1.0, abs=1e-6)

    def test_frozen_fixture_2_1_1(self):
        # Stability ratios (2, 1, 1): p = (1/2, 1/4, 1/4) up to epsilon,
        # H2 = -ln(3/8), value = H2 / ln 3.
        result = mei((2.0, 1.0, 1.0), mode=BALANCED_IS_ONE)
        assert result.value == pytest.approx(0.8927892652655685, abs=1e-12)
        assert result.h2 == pytest.approx(0.9808292580117264, abs=1e-12)

    def test_signs_do_not_matter(self):
        a = mei((2.0, -1.0, 1.0))
        b = mei((2.0, 1.0, 1.0))
        assert a.value == b.value

    def test_modes_sum_to_one(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            zetas = tuple(float(z) for z in rng.uniform(0.5, 5.0, size=M))
            bal = mei(zetas, mode=BALANCED_IS_ONE).value
            dom = mei(zetas, mode=DOMINANCE_IS_ONE).value
            assert bal + dom == 1.0
            assert 0.0 <= bal <= 1.0

    def test_value_always_clamped_to_unit_interval(self):
        # Tiny ratios comparable to epsilon push sum(p) below 1 and the
        # entropy slightly above ln M; the value must still be <= 1.
        result = mei((1e-9, 1e-9), epsilon=1e-8)
        assert 0.0 <= result.value <= 1.0

    def test_profile_probabilities(self):
        result = mei((2.0, 1.0, 1.0), epsilon=1e-12)
        assert result.profile.p == pytest.approx((0.5, 0.25, 0.25), abs=1e-9)
        assert np.argmax(result.profile.p) == 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            M = int(rng.integers(2, 6))
            zetas = rng.uniform(0.1, 3.0, size=M)
            perm = rng.permutation(M)
            base = mei(tuple(zetas))
            shuffled = mei(tuple(zetas[perm]))
            assert shuffled.value == pytest.approx(base.value, abs=1e-12)
            np.testing.assert_allclose(
                np.asarray(shuffled.profile.p),
                np.asarray(base.profile.p)[perm],
                atol=1e-12,
            )

    def test_all_zero_ratios_degenerate(self):
        with pytest.raises(DegenerateContributionError):
            mei((0.0, 0.0, 0.0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DimensionError):
            mei((1.0, 2.0), mode="sideways")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("zetas", [(1.7e308, 1.7e308), (math.inf, 1.0), (math.nan, 1.0)])
    def test_overflowing_ratios_rejected(self, zetas):
        with pytest.raises(DimensionError, match="sum to"):
            mei(zetas)

    def test_weights_underflowing_to_zero_degenerate(self):
        # p_m ~ 1e-284 squares to 0.0: H2 would be -ln 0.
        with pytest.raises(DegenerateContributionError, match="underflow"):
            mei((1e-292, 1e-292))

    def test_single_modality_rejected(self):
        with pytest.raises(DimensionError):
            mei((1.0,))


class TestMEIFromTable:
    def test_symmetric_table_is_balanced(self):
        # Score depends only on how many modalities remain: perfectly
        # exchangeable, so every modality contributes equally.
        scores = {bits: 0.3 + 0.2 * sum(bits) for bits in bit_tuples(3)}
        result = mei_from_table(make_table(3, scores))
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_sole_contributor_dominates(self):
        # Only modality 0 moves the score.
        scores = {bits: 0.2 + 0.6 * bits[0] for bits in bit_tuples(3)}
        result = mei_from_table(make_table(3, scores))
        assert result.value == pytest.approx(0.0, abs=1e-6)
        assert np.argmax(result.profile.p) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", [UA, MAE], ids=["higher", "lower"])
    @pytest.mark.parametrize("scores, reading", [
        ([-1.7e308, 1.0, 1.7e308], "mu=inf, sigma=nan, zeta=nan"),
        ([0.0, 0.0, 1e301], "mu=1e+301, sigma=0.0, zeta=inf"),
    ], ids=["drops", "zeta"])
    def test_overflowing_contribution_rejected(self, metric, scores, reading):
        # Such tables once read as h2 nan and mei 0.0 in both modes. Negated
        # scores under the flipped orientation give the same drops.
        sign = 1.0 if metric.higher_is_better else -1.0
        table = AblationTable(M=2, metric=metric, scores=[sign * v for v in scores])
        with pytest.raises(DimensionError) as info:
            mei_from_table(table)
        assert str(info.value) == (f"contribution of modality 0 to {metric.name!r} "
                                   f"overflows float64: {reading}")

    def test_constant_table_degenerate(self):
        scores = {bits: 0.5 for bits in bit_tuples(3)}
        with pytest.raises(DegenerateContributionError):
            mei_from_table(make_table(3, scores))

    def test_orientation_invariance_through_negation(self):
        # Negating scores and flipping the orientation leaves every
        # drop, and hence the index, unchanged.
        rng = np.random.default_rng(61)
        scores = {bits: float(rng.uniform(0.0, 1.0)) for bits in bit_tuples(3)}
        neg = {bits: -v for bits, v in scores.items()}
        a = mei_from_table(make_table(3, scores, metric=UA))
        b = mei_from_table(make_table(3, neg, metric=MAE))
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_scale_invariance(self):
        # Rescaling all scores by a positive constant rescales mu and
        # sigma alike, so the ratios move only through epsilon.
        rng = np.random.default_rng(62)
        for _ in range(20):
            M = int(rng.integers(2, 5))
            scores = {bits: float(rng.uniform(0.0, 1.0)) for bits in bit_tuples(M)}
            scale = float(rng.uniform(0.5, 20.0))
            scaled = {bits: scale * v for bits, v in scores.items()}
            a = mei_from_table(make_table(M, scores))
            b = mei_from_table(make_table(M, scaled))
            assert b.value == pytest.approx(a.value, abs=1e-6)

    def test_result_carries_mu_sigma(self):
        rng = np.random.default_rng(63)
        table = random_table(rng, 3)
        result = mei_from_table(table)
        for m in range(3):
            drops = perf_drops(table, m)
            assert result.profile.mu[m] == pytest.approx(float(drops.mean()), abs=1e-15)
            assert result.profile.sigma[m] == pytest.approx(float(drops.std()), abs=1e-15)

    def test_probability_monotone_in_ratio_magnitude(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            M = int(rng.integers(2, 6))
            zetas = rng.uniform(0.1, 4.0, size=M)
            result = mei(tuple(zetas))
            order_zeta = np.argsort(np.abs(zetas))
            order_p = np.argsort(np.asarray(result.profile.p))
            np.testing.assert_array_equal(order_zeta, order_p)

    def test_oracle_equivalence_random_tables(self):
        rng = np.random.default_rng(65)
        for i in range(100):
            M = int(rng.integers(2, 5))
            metric = UA if i % 2 == 0 else MAE
            table = random_table(rng, M, metric)
            for mode, oracle_mode in ((BALANCED_IS_ONE, "balanced"),
                                      (DOMINANCE_IS_ONE, "dominance")):
                got = mei_from_table(table, mode=mode)
                want_value, want_h2, want_p = brute_mei(
                    table_scores(table), metric.higher_is_better,
                    DEFAULT_EPSILON, oracle_mode,
                )
                assert got.value == pytest.approx(want_value, abs=1e-12)
                assert got.h2 == pytest.approx(want_h2, abs=1e-12)
                np.testing.assert_allclose(got.profile.p, want_p, atol=1e-12)
