"""Tests for gradient traces, trace assembly, and the learning-balance index."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from missdiag import (
    DimensionError,
    DuplicateSampleError,
    FileFormatError,
    GradTrace,
    InsufficientTraceError,
    InvalidTraceError,
    MissdiagError,
    assemble_trace,
    mli,
    trace_from_norms,
)

from missdiag.learning import GRAD_SAMPLE_DTYPE, read_grad_samples, samples_from_norms

from oracles import brute_mli, brute_trace_grid, dict_assemble_error


def grad_rows(*tuples) -> np.ndarray:
    """(step, modality, module, grad_l2) tuples as a `GRAD_SAMPLE_DTYPE` array."""
    return np.array(list(tuples), dtype=GRAD_SAMPLE_DTYPE)


def samples_from_grid(grid: np.ndarray, modules: int = 1) -> np.ndarray:
    """Expand a (T, M) grid of G values into per-module sample rows.

    Each cell becomes `modules` rows whose mean recovers the cell value.
    """
    return grad_rows(*[(t + 1, m, k, float(grid[t, m])) for t in range(grid.shape[0])
                       for m in range(grid.shape[1]) for k in range(modules)])


# Rows that break the row rules, and the message naming the first of them.
ROW_FAULTS = [
    ((-1, 0, 0, 1.0), "step/modality/module must be nonnegative, got (-1, 0, 0)"),
    ((1, 0, -2, 1.0), "step/modality/module must be nonnegative, got (1, 0, -2)"),
    ((1, -3, 0, -1.0), "step/modality/module must be nonnegative, got (1, -3, 0)"),
    ((1, 0, 0, -0.5), "grad_l2 must be finite and >= 0, got -0.5"),
    ((1, 0, 0, math.inf), "grad_l2 must be finite and >= 0, got inf"),
    ((1, 0, 0, math.nan), "grad_l2 must be finite and >= 0, got nan"),
]


class TestRowCheck:
    """Assembly and the trace readers name a bad row with the same message."""

    @pytest.mark.parametrize("row, message", ROW_FAULTS)
    def test_assembly_names_the_first_bad_row(self, row, message):
        array = grad_rows((1, 0, 0, 1.0), row, (-5, 0, 0, -1.0))
        with pytest.raises(InvalidTraceError) as info:
            assemble_trace(array)
        assert str(info.value) == message

    @pytest.mark.parametrize("row, message", ROW_FAULTS + [
        ((-2**70, 0, 0, 0.5), f"step/modality/module must be nonnegative, got ({-2**70}, 0, 0)"),
    ])
    def test_file_row_gives_the_same_message(self, tmp_path, row, message):
        path = tmp_path / "trace.csv"
        path.write_text("step,modality,module,grad_l2\n1,0,0,1.0\n"
                        + ",".join(map(repr, row)) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as info:
            read_grad_samples(path)
        assert str(info.value) == f"{path}:3: {message}"


class TestGradTrace:
    def test_grid_is_read_only(self):
        trace = GradTrace(values=np.ones((3, 2)))
        with pytest.raises(ValueError):
            trace.values[0, 0] = 2.0
        assert trace.T == 3 and trace.M == 2

    def test_negative_values_rejected(self):
        with pytest.raises(InvalidTraceError):
            GradTrace(values=np.array([[1.0, -1.0]]))

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionError):
            GradTrace(values=np.ones(4))

    def test_defined_shape_checked(self):
        with pytest.raises(DimensionError):
            GradTrace(values=np.ones((2, 2)), defined=np.ones((3, 2), dtype=bool))


class TestAssembleTrace:
    def test_grid_reconstruction(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        trace = assemble_trace(samples_from_grid(grid, modules=2))
        np.testing.assert_array_equal(trace.values, grid)
        assert trace.defined.all()
        assert trace.warnings == ()

    def test_arrival_order_irrelevant(self):
        rng = np.random.default_rng(72)
        grid = rng.uniform(0.0, 3.0, size=(5, 3))
        samples = samples_from_grid(grid, modules=4)
        shuffled = samples[rng.permutation(samples.size)]
        a = assemble_trace(samples)
        b = assemble_trace(shuffled)
        np.testing.assert_array_equal(a.values, b.values)

    def test_mean_over_modules(self):
        samples = grad_rows((1, 0, 0, 1.0), (1, 0, 1, 2.0))
        assert assemble_trace(samples).values.tolist() == [[1.5]]

    def test_module_mean_ignores_arrival_order(self):
        # Summed in arrival order, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1
        # differ in the last bit; the module-order sum gives one value.
        cells = [(1, 0, k, v) for k, v in enumerate((0.1, 0.2, 0.3))]
        values = {
            float(assemble_trace(grad_rows(*order)).values[0, 0])
            for order in itertools.permutations(cells)
        }
        assert values == {(0.1 + 0.2 + 0.3) / 3}

    def test_matches_module_order_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            k = int(rng.integers(1, 12))
            samples = [
                (t, m, i, float(v))
                for t in (3, 4)
                for m in range(2)
                for i, v in enumerate(rng.uniform(0.0, 5.0, size=k))
            ]
            shuffled = grad_rows(*samples)[rng.permutation(len(samples))]
            trace = assemble_trace(shuffled, M=2, module_count=k)
            assert trace.values.tolist() == brute_trace_grid(samples, 2, k)

    def test_out_of_range_module_rejected(self):
        with pytest.raises(InvalidTraceError, match="out of range"):
            assemble_trace(grad_rows((1, 0, 3, 1.0)), module_count=2)

    def test_out_of_range_modality_rejected(self):
        with pytest.raises(DimensionError):
            assemble_trace(grad_rows((1, 2, 0, 1.0)), M=2)

    def test_step_gaps_reindexed_with_warning(self):
        cells = [(t, m, 0, float(m + t)) for t in (1, 2, 4) for m in range(2)]
        trace = assemble_trace(grad_rows(*cells))
        assert trace.T == 3
        np.testing.assert_array_equal(trace.values[:, 0], [1.0, 2.0, 4.0])
        assert any("not contiguous" in w for w in trace.warnings)

    def test_exact_duplicates_tolerated(self):
        samples = samples_from_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        trace = assemble_trace(np.concatenate((samples, samples[:1])))
        np.testing.assert_array_equal(trace.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_conflicting_duplicates_rejected(self):
        samples = samples_from_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(DuplicateSampleError):
            assemble_trace(np.concatenate((samples, grad_rows((1, 0, 0, 9.0)))))

    def test_undefined_cells_carried_forward(self):
        # Modality 1 unlogged at steps 2 and 3: carry 20.0 forward.
        trace = assemble_trace(grad_rows((1, 0, 0, 1.0), (1, 1, 0, 20.0), (2, 0, 0, 2.0),
                                    (3, 0, 0, 3.0)))
        np.testing.assert_array_equal(trace.values[:, 1], [20.0, 20.0, 20.0])
        np.testing.assert_array_equal(trace.defined[:, 1], [True, False, False])
        assert any("imputed 2" in w for w in trace.warnings)

    def test_undefined_leading_cells_backfilled(self):
        trace = assemble_trace(grad_rows((1, 0, 0, 1.0), (2, 0, 0, 2.0), (2, 1, 0, 30.0)))
        np.testing.assert_array_equal(trace.values[:, 1], [30.0, 30.0])

    def test_fully_undefined_modality_rejected(self):
        with pytest.raises(InvalidTraceError, match="modality 1"):
            assemble_trace(grad_rows((1, 0, 0, 1.0), (2, 0, 0, 2.0)), M=2)

    def test_incomplete_module_set_rejected(self):
        with pytest.raises(InvalidTraceError, match="missing module"):
            assemble_trace(grad_rows((1, 0, 0, 1.0), (1, 0, 1, 2.0), (2, 0, 0, 3.0)))

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientTraceError):
            assemble_trace(grad_rows())


class TestAssembleTraceColumns:
    """The array path keeps the dict-based assembly's results and first errors."""

    @staticmethod
    def _random_rows(rng):
        T, M, K = (int(v) for v in rng.integers(1, 5, size=3))
        rows = [(int(t), m, k, float(rng.choice([0.5, 1.0, 0.1 + 0.2, 2.0])))
                for t in rng.choice(np.arange(1, 12), size=T, replace=False)
                for m in range(M) for k in range(K) if rng.random() > 0.1]
        for _ in range(int(rng.integers(0, 3))):  # repeats and clashes
            step, m, k, value = rows[int(rng.integers(len(rows)))]
            rows.append((step, m, k, value if rng.random() < 0.5 else value + 1.0))
        if rng.random() < 0.2:
            rows.append((1, M + int(rng.integers(0, 2)), K + int(rng.integers(0, 2)), 1.0))
        order = rng.permutation(len(rows))
        return [rows[i] for i in order]

    def test_first_error_and_grid_match_dict_assembly(self):
        rng = np.random.default_rng(23)
        outcomes = set()
        for _ in range(400):
            rows = self._random_rows(rng)
            M = None if rng.random() < 0.5 else int(rng.integers(0, 5))
            K = None if rng.random() < 0.5 else int(rng.integers(0, 5))
            want = dict_assemble_error(rows, M, K)
            array = np.array(rows, dtype=GRAD_SAMPLE_DTYPE)
            try:
                trace = assemble_trace(array, M=M, module_count=K)
            except MissdiagError as exc:
                got = (type(exc).__name__, str(exc))
                if want is None:  # a modality with no logged cell at all
                    assert got[1].endswith("has no defined gradient values")
                else:
                    assert got == want
                outcomes.add(got[0])
                continue
            assert want is None
            width = array["modality"].max() + 1 if M is None else M
            modules = array["module"].max() + 1 if K is None else K
            assert trace.values.tolist() == brute_trace_grid(rows, width, modules)
            outcomes.add("ok")
        assert outcomes == {"ok", "DuplicateSampleError", "DimensionError",
                            "InvalidTraceError", "InsufficientTraceError"}

    @pytest.mark.parametrize("M", [None, 2**62])
    def test_huge_index_names_the_first_gap(self, M):
        # The message a small gap gives; a grid as wide as the index would
        # fail on its allocation instead.
        huge = 2**62
        cells = [(1, 0), (2, 0), (1, huge - 1)]
        rows = np.array([(t, m, k, 0.5) for t, m in cells for k in range(3)],
                        dtype=GRAD_SAMPLE_DTYPE)
        small = rows.copy()
        small["modality"][-3:] = 5
        for trace_rows, width in ((rows, M), (small, None)):
            with pytest.raises(InvalidTraceError) as info:
                assemble_trace(trace_rows, M=width)
            assert str(info.value) == "modality 1 has no defined gradient values"

    def test_huge_module_index_lists_the_first_missing(self):
        huge = 2**62
        rows = np.array([(1, 0, k, 0.5) for k in (0, 1, 2, 9)], dtype=GRAD_SAMPLE_DTYPE)
        with pytest.raises(InvalidTraceError) as info:
            assemble_trace(rows)
        assert str(info.value) == ("missing module entries: [3, 4, 5, 6, 7, 8] "
                                   "at step 1, modality 0")
        rows["module"][-1] = huge
        with pytest.raises(InvalidTraceError) as info:
            assemble_trace(rows)
        assert str(info.value) == (
            "missing module entries: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, "
            f"17, 18, 19, 20, 21, 22, ...] ({huge - 3} in all) at step 1, modality 0")

    def test_samples_from_norms_inverts_the_scatter(self):
        rng = np.random.default_rng(4)
        norms = rng.uniform(0.1, 2.0, size=(5, 3, 4))
        defined = rng.random((5, 3)) < 0.7
        defined[0] = True
        rows = samples_from_norms([2, 3, 5, 8, 9], norms, defined)
        assert rows.dtype == GRAD_SAMPLE_DTYPE
        assert rows.tolist() == sorted(rows.tolist())
        assert rows.size == defined.sum() * 4
        assert assemble_trace(rows, M=3, module_count=4) == trace_from_norms(
            [2, 3, 5, 8, 9], norms, defined)

class TestGradTraceEquality:
    def test_value_equality(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        defined = np.array([[True, False], [True, True]])
        trace = GradTrace(values=values, defined=defined, warnings=("w",))
        assert trace == GradTrace(values=values.copy(), defined=defined.copy(), warnings=("w",))
        assert trace != GradTrace(values=values + 1.0, defined=defined, warnings=("w",))
        assert trace != GradTrace(values=values, warnings=("w",))
        assert trace != GradTrace(values=values, defined=defined)
        assert trace != GradTrace(values=values[:1], defined=defined[:1], warnings=("w",))
        assert trace != "trace"


class TestTraceFromNorms:
    def test_module_mean_and_carry_forward(self):
        norms = np.zeros((3, 2, 2))
        norms[:, 0] = [[1.0, 3.0], [2.0, 4.0], [5.0, 7.0]]
        norms[1, 1] = [8.0, 10.0]
        defined = np.array([[True, False], [True, True], [True, False]])
        trace = trace_from_norms([1, 2, 3], norms, defined)
        assert trace.values.tolist() == [[2.0, 9.0], [3.0, 9.0], [6.0, 9.0]]
        np.testing.assert_array_equal(trace.defined, defined)
        assert trace.warnings == ("modality 1: imputed 2 undefined step(s)",)

    def test_gapped_steps_warn(self):
        trace = trace_from_norms([1, 4], np.ones((2, 2, 1)), np.ones((2, 2), dtype=bool))
        assert trace.warnings == (
            "steps are not contiguous (2 distinct steps spanning 1..4); "
            "re-indexed to 1..2",
        )

    @pytest.mark.parametrize("steps, shape, defined_shape", [
        ([1, 2], (2, 2), (2, 2)),
        ([1, 2], (2, 2, 3), (2, 3)),
        ([1], (2, 2, 3), (2, 2)),
    ])
    def test_shapes_checked(self, steps, shape, defined_shape):
        with pytest.raises(DimensionError):
            trace_from_norms(steps, np.ones(shape), np.ones(defined_shape, dtype=bool))

    def test_empty_trace_rejected(self):
        with pytest.raises(InsufficientTraceError):
            trace_from_norms([], np.ones((0, 2, 3)), np.ones((0, 2), dtype=bool))

    @pytest.mark.filterwarnings("error")
    def test_module_sum_overflow_rejected(self):
        # Finite norms whose module sum overflows once ended in a numpy
        # warning and "trace contains negative or non-finite gradient values".
        norms = np.ones((2, 2, 3))
        norms[1, 1, :2] = 1.7e308
        with pytest.raises(InvalidTraceError) as info:
            trace_from_norms([4, 5], norms, np.ones((2, 2), dtype=bool))
        assert str(info.value) == ("the 3 module norms at step 5, modality 1 do not "
                                   "sum to a finite value")

    def test_modality_never_logged_rejected(self):
        defined = np.array([[True, False], [True, False]])
        with pytest.raises(InvalidTraceError, match="modality 1"):
            trace_from_norms([1, 2], np.ones((2, 2, 3)), defined)


class TestMLI:
    def test_hand_fixture(self):
        # M = 2, G_0 = (1, 2, 4), G_1 = (1, 1, 1): raw inner term 3/4,
        # value sqrt(3)/2.
        trace = GradTrace(values=np.array([[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]]))
        result = mli(trace)
        assert result.raw_inner == pytest.approx(0.75, abs=1e-15)
        assert result.value == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
        assert not result.clamped
        assert result.max_mean_delta == pytest.approx(1.0, abs=1e-15)

    def test_identical_series_score_zero(self):
        # Both modalities move, but identically: perfectly synchronised.
        trace = GradTrace(values=np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 2.0]]))
        result = mli(trace)
        assert result.value == 0.0
        assert not result.clamped

    def test_static_trace_scores_zero(self):
        result = mli(GradTrace(values=3.0 * np.ones((5, 3))))
        assert result.value == 0.0
        assert result.max_mean_delta == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(81)
        values = rng.uniform(0.0, 4.0, size=(8, 3))
        base = mli(GradTrace(values=values))
        for scale in (1e-3, 7.0, 1e4):
            scaled = mli(GradTrace(values=scale * values))
            assert scaled.value == pytest.approx(base.value, abs=1e-12)

    def test_modality_permutation_invariance(self):
        rng = np.random.default_rng(82)
        values = rng.uniform(0.0, 4.0, size=(6, 4))
        base = mli(GradTrace(values=values))
        for _ in range(5):
            perm = rng.permutation(4)
            shuffled = mli(GradTrace(values=values[:, perm]))
            assert shuffled.value == pytest.approx(base.value, abs=1e-12)

    def test_time_reversal_invariance(self):
        rng = np.random.default_rng(83)
        values = rng.uniform(0.0, 4.0, size=(7, 3))
        forward = mli(GradTrace(values=values))
        backward = mli(GradTrace(values=values[::-1]))
        assert backward.value == pytest.approx(forward.value, abs=1e-12)

    def test_raw_inner_analytic_bound(self):
        # sum_m |mean - delta_m| <= 2 (M-1)/M * max mean per step row.
        rng = np.random.default_rng(84)
        for _ in range(50):
            T = int(rng.integers(2, 10))
            M = int(rng.integers(2, 6))
            result = mli(GradTrace(values=rng.uniform(0.0, 3.0, size=(T, M))))
            assert result.raw_inner <= 2.0 * (M - 1) / M + 1e-12
            assert 0.0 <= result.value <= 1.0

    def test_extreme_one_hot_deltas_hit_bound(self):
        # One modality jumps while the others freeze, in a single step:
        # the inner term reaches its maximum 2 (M - 1) / M.
        values = np.zeros((2, 4))
        values[1, 0] = 1.0
        result = mli(GradTrace(values=values))
        assert result.raw_inner == pytest.approx(2.0 * 3.0 / 4.0, abs=1e-12)

    def test_oracle_equivalence_random_traces(self):
        rng = np.random.default_rng(85)
        for _ in range(100):
            T = int(rng.integers(2, 11))
            M = int(rng.integers(2, 5))
            values = rng.uniform(0.0, 5.0, size=(T, M))
            got = mli(GradTrace(values=values))
            want_value, want_raw = brute_mli(values.tolist())
            assert got.value == pytest.approx(want_value, abs=1e-12)
            assert got.raw_inner == pytest.approx(want_raw, abs=1e-12)

    def test_stride_subsamples_steps(self):
        rng = np.random.default_rng(86)
        values = rng.uniform(0.0, 4.0, size=(9, 3))
        strided = mli(GradTrace(values=values), stride=2)
        direct = mli(GradTrace(values=values[::2]))
        assert strided.value == direct.value
        assert strided.T == 5

    def test_stride_validated(self):
        trace = GradTrace(values=np.ones((4, 2)))
        with pytest.raises(DimensionError):
            mli(trace, stride=0)

    def test_too_few_steps_rejected(self):
        with pytest.raises(InsufficientTraceError):
            mli(GradTrace(values=np.ones((1, 2))))
        with pytest.raises(InsufficientTraceError):
            mli(GradTrace(values=np.ones((3, 2))), stride=3)

    def test_single_modality_rejected(self):
        with pytest.raises(DimensionError):
            mli(GradTrace(values=np.ones((4, 1))))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, reading", [
        ([[0.0, 0.0], [1.7e308, 1.7e308], [0.0, 1.0]], "inf, max_mean_delta * (T - 1) * M "
         "inf, raw_inner nan"),
        ([[0.0, 0.0], [1e308, 0.0], [1e308, 0.0], [1e308, 0.0]], "5e+307, max_mean_delta * "
         "(T - 1) * M inf, raw_inner 0.0"),
        ([[0.0, 0.0, 0.0], [1.5e308, 0.0, 0.0]], "5e+307, max_mean_delta * (T - 1) * M "
         "1.5e+308, raw_inner inf"),
    ], ids=["mean-delta", "normaliser", "spread"])
    def test_overflowing_changes_rejected(self, values, reading):
        # Each once scored 0.0 or 1.0 where raw_inner is nan, 1/3 and 4/3.
        with pytest.raises(InvalidTraceError) as info:
            mli(GradTrace(values=np.array(values)))
        assert str(info.value).endswith(f"overflow float64: max_mean_delta {reading}")
