"""Tests for the synthetic data generator, the toy trainer, and evaluation."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from missdiag import (
    CLASSIFICATION,
    REGRESSION,
    ConfigError,
    DimensionError,
    InvalidPatternError,
    MissdiagError,
    TrainingDivergedError,
    PerfMetric,
    RateVector,
    SynthSpec,
    ToyModel,
    TrainConfig,
    ablation_table,
    default_metrics,
    forward,
    gen_synthetic,
    assemble_trace,
    pattern_bits,
    pattern_distribution,
    run_arms,
)
from missdiag import simtrainer
from missdiag.simtrainer import (
    _acc2,
    _confusion,
    _corr,
    _f1_weighted,
    _mae,
    _ua,
    _wa,
    describe_run,
    init_model,
    loss_and_grads,
)

import oracles
from oracles import (
    LABEL_METRICS,
    StepLog,
    backward_batch,
    brute_trace_grid,
    dataset_loss,
    fd_gradient,
    indexed_losses,
    masked_forward_cache,
    per_arm_train_step,
    per_metric_ablation_table,
    per_module_backward,
    per_weighting_grad_norms,
    sequential_run,
    take,
    zero_imputed_forward,
)


def small_spec(task: str = CLASSIFICATION, **overrides) -> SynthSpec:
    base = dict(
        task=task,
        dims=(5, 4),
        informativeness=(1.0, 1.0),
        n_train=64,
        n_valid=32,
        n_test=32,
        seed=100,
        n_classes=3,
    )
    base.update(overrides)
    return SynthSpec(**base)


def small_model(task: str = CLASSIFICATION, dims=(5, 4), hidden=6,
                n_classes=3, seed=0):
    return init_model(dims, hidden, task, n_classes, np.random.default_rng(seed))


def copy_model(model) -> ToyModel:
    """A plain model with its own copy of `model`'s parameters."""
    return ToyModel(model.enc_W, model.enc_b, model.fus_W, model.fus_b, model.task)


def step_batch(model, features, mask, labels, learning_rate, log_grads=True):
    """One gradient-descent step on one batch through `simtrainer._step`, as `run_arms` takes it.

    The batch's flags, sample weights and targets are formed as the
    batch plan forms them, in a fresh workspace. A model with an arm
    axis takes an (A, B, M) mask, one mask per arm; a plain model is the
    case A = 1 with a (B, M) mask, and its results drop the arm axis.
    Returns the task losses (A,), the modality losses (A, M), 0 where a
    modality is absent from the batch, the (A, M) flags of the
    modalities present in it, and the (A, M, M + 1) norms,
    `norms[a, m, k]` for module k's gradient of L_m, or None when not
    `log_grads`.
    """
    plain = model.arms is None
    mask = np.asarray(mask, dtype=np.float64)
    if plain:
        model, mask = simtrainer._lockstep(model), mask[None]
    B = labels.shape[0]
    present = mask.transpose(0, 2, 1)
    counts, divisors, weights = simtrainer._batch_weights(present, np.array([0]), np.array([B]))
    targets = simtrainer._targets(model.task, labels, model.fus_W.shape[-1], np.arange(B))
    xs = simtrainer._masked(model, simtrainer._grouped(model, features), present)
    weights = weights if log_grads else weights[:, -1:]
    task, modality, grads = simtrainer._step(model, xs, present, divisors[..., 0], weights,
                                             targets, learning_rate,
                                             simtrainer._Workspace(model, B, weights.shape[1]))
    norms = None
    if grads is not None:
        # A block of one step: the arms are the leading axis.
        norms = np.sqrt(simtrainer._squared_norms(model, np.square(grads)))
    columns = (task, modality, counts[..., 0] > 0, norms)
    return tuple(None if c is None else c[0] for c in columns) if plain else columns


class TestSynthSpec:
    def test_task_validated(self):
        with pytest.raises(ConfigError):
            small_spec(task="ranking")

    def test_dims_and_weights_must_align(self):
        with pytest.raises(ConfigError):
            small_spec(informativeness=(1.0,))

    def test_all_zero_informativeness_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(informativeness=(0.0, 0.0))

    def test_negative_informativeness_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(informativeness=(1.0, -0.5))

    def test_split_sizes_validated(self):
        with pytest.raises(ConfigError):
            small_spec(n_train=0)

    def test_single_modality_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(dims=(5,), informativeness=(1.0,))

    def test_n_classes_validated(self):
        with pytest.raises(ConfigError):
            small_spec(n_classes=1)

    def test_negative_label_noise_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(label_noise=-0.1)


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(small_spec())
        b = gen_synthetic(small_spec())
        for fa, fb in zip(a.train.features, b.train.features):
            np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_seed_changes_data(self):
        a = gen_synthetic(small_spec(seed=1))
        b = gen_synthetic(small_spec(seed=2))
        assert (a.train.features[0] != b.train.features[0]).any()

    def test_split_shapes(self):
        data = gen_synthetic(small_spec(n_train=50, n_valid=20, n_test=30))
        assert data.train.features[0].shape == (50, 5)
        assert data.train.features[1].shape == (50, 4)
        assert data.valid.n == 20 and data.test.n == 30
        assert data.train.labels.dtype == np.int64

    def test_splits_are_distinct(self):
        data = gen_synthetic(small_spec(n_train=32, n_valid=32, n_test=32))
        assert (data.train.features[0] != data.valid.features[0]).any()
        assert (data.valid.features[0] != data.test.features[0]).any()

    def test_classification_labels_balanced(self):
        # Class scores are exchangeable, so argmax labels are uniform.
        spec = small_spec(n_train=20_000, n_classes=4, label_noise=0.3)
        labels = gen_synthetic(spec).train.labels
        n = labels.shape[0]
        for c in range(4):
            count = int((labels == c).sum())
            sigma = math.sqrt(n * 0.25 * 0.75)
            assert abs(count - n * 0.25) < 4.5 * sigma

    def test_label_noise_perturbs_labels_only(self):
        clean = gen_synthetic(small_spec(task=REGRESSION, label_noise=0.0))
        noisy = gen_synthetic(small_spec(task=REGRESSION, label_noise=0.5))
        for fc, fn in zip(clean.train.features, noisy.train.features):
            np.testing.assert_array_equal(fc, fn)
        residual = noisy.train.labels - clean.train.labels
        assert residual.std() == pytest.approx(0.5, rel=0.5)

    def test_regression_labels_are_floats(self):
        data = gen_synthetic(small_spec(task=REGRESSION))
        assert data.train.labels.dtype == np.float64

    def test_narrow_modality_supported(self):
        # Feature width below the latent width uses unit-norm columns.
        spec = small_spec(dims=(2, 16), n_classes=8)
        data = gen_synthetic(spec)
        assert data.train.features[0].shape == (64, 2)


class TestForward:
    def test_output_shapes(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        out = forward(model, data.test.features, (1, 1))
        assert out.shape == (32, 3)
        reg = small_model(task=REGRESSION)
        out = forward(reg, data.test.features, (1, 1))
        assert out.shape == (32,)

    def test_masking_equals_zero_imputation(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        direct = forward(model, data.test.features, (1, 0))
        imputed = zero_imputed_forward(model, data.test.features, (1, 0))
        np.testing.assert_array_equal(direct, imputed)

    def test_zeroed_encoder_is_inert(self):
        # With encoder 1 zeroed, masking modality 1 changes nothing.
        model = small_model()
        model.enc_W[1][:] = 0.0
        model.enc_b[1][:] = 0.0
        data = gen_synthetic(small_spec())
        full = forward(model, data.test.features, (1, 1))
        without = forward(model, data.test.features, (1, 0))
        np.testing.assert_allclose(full, without, atol=1e-15)

    def test_ragged_feature_blocks_rejected(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        feats = [data.test.features[0][:3], data.test.features[1][:4]]
        with pytest.raises(DimensionError, match="rows"):
            forward(model, feats, (1, 1))

    def test_module_count(self):
        assert small_model().module_count == 3


def _pattern_callers():
    data = gen_synthetic(small_spec())
    (table,) = ablation_table(small_model(), data.test, [PerfMetric.named("UA")])
    dist = pattern_distribution(RateVector(("a", "b"), (0.2, 0.5)))
    return {
        "forward": lambda bits: forward(small_model(), data.test.features, bits),
        "score": table.score,
        "probability_of": dist.probability_of,
    }


@pytest.mark.parametrize("caller", ["forward", "score", "probability_of"])
@pytest.mark.parametrize("bits, error, message", [
    ((1, 0, 1), DimensionError, "pattern length 3 != M=2"),
    ((1, 2), InvalidPatternError, r"mask bits must be 0 or 1: \(1, 2\)"),
    ((0, 0), InvalidPatternError, "all-missing mask pattern is not allowed"),
], ids=["wrong-length", "two", "all-zeros"])
def test_pattern_arguments_share_one_check(caller, bits, error, message):
    # forward, AblationTable.score and PatternDistribution.probability_of
    # validate through protocol.pattern_code, with one message per fault.
    with pytest.raises(error, match=f"^{message}$"):
        _pattern_callers()[caller](bits)


class TestTrainStep:
    def _batch(self, n=8, task=CLASSIFICATION):
        data = gen_synthetic(small_spec(task=task, n_train=n))
        feats, labels = take(data.train, np.arange(n))
        return feats, labels

    def test_zero_learning_rate_leaves_parameters(self):
        model = small_model()
        before = model.flat.copy()
        feats, labels = self._batch()
        task, _, observed, _ = step_batch(model, feats, np.ones((8, 2)), labels,
                                          learning_rate=0.0)
        np.testing.assert_array_equal(model.flat, before)
        assert task > 0.0
        assert observed.tolist() == [True, True]

    def test_update_is_plain_gradient_descent(self):
        model = small_model()
        feats, labels = self._batch()
        mask = np.ones((8, 2))
        reference = copy_model(model)
        _, grads = loss_and_grads(
            reference, feats, mask, labels, np.full(8, 1.0 / 8.0)
        )
        step_batch(model, feats, mask, labels, learning_rate=0.1)
        for m in range(2):
            np.testing.assert_allclose(
                model.enc_W[m], reference.enc_W[m] - 0.1 * grads["enc_W"][m],
                atol=1e-15,
            )
        np.testing.assert_allclose(
            model.fus_W, reference.fus_W - 0.1 * grads["fus_W"], atol=1e-15
        )

    def test_absent_modality_yields_none_and_no_samples(self):
        model = small_model()
        feats, labels = self._batch()
        mask = np.ones((8, 2))
        mask[:, 1] = 0.0
        _, modality, observed, norms = step_batch(model, feats, mask, labels,
                                                  learning_rate=0.01)
        assert observed.tolist() == [True, False] and modality[1] == 0.0
        # one norm per module for modality 0; modality 1's row is unused
        assert norms.shape == (2, 3)
        assert (norms[0, [0, 2]] > 0).all()
        assert (norms[1] == 0).all()

    def test_modality_loss_restricted_to_observed_rows(self):
        model = small_model()
        feats, labels = self._batch()
        mask = np.ones((8, 2))
        mask[:4, 1] = 0.0
        task, modality, observed, _ = step_batch(model, feats, mask, labels, learning_rate=0.0)
        assert observed[1]
        assert modality[1] != pytest.approx(task)

    def test_log_grads_flag_suppresses_samples(self):
        model = small_model()
        feats, labels = self._batch()
        _, _, observed, norms = step_batch(model, feats, np.ones((8, 2)), labels,
                                           learning_rate=0.01, log_grads=False)
        assert norms is None
        assert observed[0]


class TestGradients:
    def _check_model(self, task: str, seed: int, probes: int = 40):
        rng = np.random.default_rng(seed)
        model = small_model(task=task, seed=seed)
        # Zero-imputed rows would otherwise sit exactly on the rectifier
        # kink (u = 0), where the loss is not differentiable and central
        # differences measure half the one-sided slope. Nonzero biases
        # move every pre-activation off the kink.
        for m in range(2):
            model.enc_b[m][:] = rng.uniform(0.05, 0.25, size=model.enc_b[m].shape)
        data = gen_synthetic(small_spec(task=task, n_train=12, seed=seed))
        feats, labels = take(data.train, np.arange(12))
        mask = (rng.random((12, 2)) < 0.8).astype(np.float64)
        mask[:, 0] = np.maximum(mask[:, 0], 1.0 - mask[:, 1])
        for m in range(2):
            u = (feats[m] * mask[:, m : m + 1]) @ model.enc_W[m] + model.enc_b[m]
            assert np.abs(u).min() > 1e-3  # all probes are differentiable
        weights = rng.uniform(0.05, 0.3, size=12)
        _, grads = loss_and_grads(model, feats, mask, labels, weights)
        flat_grads = {
            "enc_W0": grads["enc_W"][0], "enc_W1": grads["enc_W"][1],
            "enc_b0": grads["enc_b"][0], "enc_b1": grads["enc_b"][1],
            "fus_W": grads["fus_W"], "fus_b": grads["fus_b"],
        }
        params = {
            "enc_W0": model.enc_W[0], "enc_W1": model.enc_W[1],
            "enc_b0": model.enc_b[0], "enc_b1": model.enc_b[1],
            "fus_W": model.fus_W, "fus_b": model.fus_b,
        }
        names = sorted(params)
        checked = 0
        for i in range(probes):
            name = names[i % len(names)]
            arr = params[name]
            index = tuple(int(rng.integers(s)) for s in arr.shape)

            def loss_at(values: np.ndarray, arr=arr) -> float:
                saved = arr.copy()
                arr[...] = values
                loss, _ = loss_and_grads(model, feats, mask, labels, weights)
                arr[...] = saved
                return loss

            numeric = fd_gradient(loss_at, arr, index, step=1e-5)
            analytic = float(flat_grads[name][index])
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-4
            checked += 1
        assert checked == probes

    def test_classification_backprop_matches_finite_differences(self):
        self._check_model(CLASSIFICATION, seed=7)

    def test_regression_backprop_matches_finite_differences(self):
        self._check_model(REGRESSION, seed=8)


def _oracle_batch(task: str, M: int, B: int, seed: int, absent: int | None = None,
                  dims: tuple[int, ...] | None = None, hidden: int = 6, classes: int = 4):
    """A model whose biases take both signs, one batch, and a mask with no empty row.

    The input widths are `dims`, or M random widths from 1 to 8; a
    classifier has `classes` outputs.
    """
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(1, 9, size=M))
    model = init_model(dims, hidden, task, classes, rng)
    for b in model.enc_b:
        b[:] = rng.normal(0.0, 0.3, size=b.shape)
    feats = [rng.standard_normal((B, d)) for d in dims]
    if task == CLASSIFICATION:
        labels = rng.integers(0, classes, size=B)
    else:
        labels = rng.standard_normal(B)
    mask = (rng.random((B, M)) < 0.6).astype(np.float64)
    if absent is not None:
        mask[:, absent] = 0.0
    mask[mask.sum(axis=1) == 0, 0 if absent == M - 1 else M - 1] = 1.0
    return model, feats, labels, mask


def _descend(model, grads, learning_rate: float) -> None:
    for m in range(model.M):
        model.enc_W[m] -= learning_rate * grads["enc_W"][m]
        model.enc_b[m] -= learning_rate * grads["enc_b"][m]
    model.fus_W -= learning_rate * grads["fus_W"]
    model.fus_b -= learning_rate * grads["fus_b"]


def _step_log(columns, step: int, a: int | None = None) -> StepLog:
    """`step_batch`'s arrays as the oracle's `StepLog` of `step`, for arm a of a model with arms."""
    task, modality, observed, norms = (c if a is None or c is None else c[a] for c in columns)
    return StepLog(step, float(task),
                   tuple(loss if seen else None
                         for loss, seen in zip(modality.tolist(), observed.tolist())),
                   norms)


def _assert_same_parameters(model, reference) -> None:
    assert np.array_equal(model.flat, reference.flat)


class TestOneBackward:
    """One stacked backward pass equals one backward pass per weighting, bit for bit."""

    LR = 0.005
    # Mixed group sizes, one group of two, all singletons, the README shape.
    WIDTHS = [(4, 7, 4, 7, 3), (5, 5), (3, 9), (16, 16, 16)]
    # Classifiers of 4 and of 2 classes, and regression's single output.
    TASKS = [pytest.param(CLASSIFICATION, 4, id=CLASSIFICATION),
             pytest.param(CLASSIFICATION, 2, id=f"{CLASSIFICATION}-2"),
             pytest.param(REGRESSION, 1, id=REGRESSION)]

    @pytest.mark.parametrize("task, C", TASKS)
    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("B", [1, 7, 48])
    def test_norms_and_update_equal_per_weighting_oracle(self, task, C, M, B):
        model, feats, labels, mask = _oracle_batch(task, M, B, seed=10 * M + B, classes=C)
        reference = copy_model(model)
        for _ in range(3):
            expected = per_weighting_grad_norms(reference, feats, mask, labels)
            out, cache = masked_forward_cache(reference, feats, mask)
            full = backward_batch(reference, cache, out, labels, np.full(B, 1.0 / B))
            norms = step_batch(model, feats, mask, labels, self.LR)[3]
            assert np.isfinite(norms).all()
            assert np.array_equal(norms, expected)
            _descend(reference, full, self.LR)
            _assert_same_parameters(model, reference)

    @pytest.mark.parametrize("task, C", TASKS)
    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("B", [1, 7, 48])
    @pytest.mark.parametrize("log_grads", [True, False])
    def test_update_equals_loss_and_grads(self, task, C, M, B, log_grads):
        model, feats, labels, mask = _oracle_batch(task, M, B, seed=10 * M + B + 1, classes=C)
        reference = copy_model(model)
        _, grads = loss_and_grads(reference, feats, mask, labels, np.full(B, 1.0 / B))
        norms = step_batch(model, feats, mask, labels, self.LR, log_grads=log_grads)[3]
        assert (norms is None) == (not log_grads)
        _descend(reference, grads, self.LR)
        _assert_same_parameters(model, reference)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("M", [2, 3, 8])
    def test_absent_modality_keeps_zero_row(self, task, M):
        absent = 1
        model, feats, labels, mask = _oracle_batch(task, M, 7, seed=M, absent=absent)
        expected = per_weighting_grad_norms(model, feats, mask, labels)
        _, _, observed, norms = step_batch(model, feats, mask, labels, self.LR)
        assert observed.tolist() == [m != absent for m in range(M)]
        assert (norms[absent] == 0.0).all()
        assert np.array_equal(norms, expected)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("dims", WIDTHS, ids=lambda dims: "x".join(map(str, dims)))
    @pytest.mark.parametrize("A", [1, 2, 4])
    @pytest.mark.parametrize("hidden, B, C", [
        pytest.param(1, 19, 4, id="1"), pytest.param(6, 19, 4, id="6"),
        pytest.param(2, 19, 2, id="2-C2"), pytest.param(1, 1, 2, id="1-B1-C2"),
        pytest.param(2, 1, 2, id="2-B1-C2"),
    ])
    def test_width_groups_equal_per_arm_oracle(self, task, dims, A, hidden, B, C):
        # Encoders of equal width share one stacked array and one matmul
        # per group; every arm must still equal one plain model stepped by
        # the per-weighting oracle, norms and parameters bit for bit. Two
        # classes (or regression's one output), one sample and H = 2 give
        # the smallest batch sums that `einsum` takes; H = 1 keeps `sum`.
        M = len(dims)
        seed = 1000 * A + 10 * M + hidden
        model, feats, labels, mask = _oracle_batch(task, M, B, seed, dims=dims, hidden=hidden,
                                                   classes=C)
        assert model.dims == dims
        rng = np.random.default_rng(seed)
        masks = np.stack([mask] + [(rng.random(mask.shape) < 0.5).astype(np.float64)
                                   for _ in range(A - 1)])
        masks[:, :, 0] = np.maximum(masks[:, :, 0], masks.sum(axis=2) == 0)
        if A > 1:
            masks[1, :, M - 1] = 0.0  # the last modality is absent from arm 1's batch
            masks[1, :, 0] = 1.0
        stacked = simtrainer._lockstep(model, A)
        plain = [copy_model(model) for _ in range(A)]
        for step in range(1, 4):
            log_grads = step != 2
            columns = step_batch(stacked, feats, masks, labels, self.LR, log_grads=log_grads)
            for a in range(A):
                expected = per_weighting_grad_norms(plain[a], feats, masks[a], labels)
                out, cache = masked_forward_cache(plain[a], feats, masks[a])
                full = backward_batch(plain[a], cache, out, labels, np.full(B, 1.0 / B))
                reference = copy_model(plain[a])
                want = per_arm_train_step(plain[a], feats, masks[a], labels, self.LR, step,
                                          log_grads)
                assert _step_log(columns, step, a) == want
                if log_grads:
                    assert np.array_equal(columns[3][a], expected)
                _descend(reference, full, self.LR)
                _assert_same_parameters(plain[a], reference)
                _assert_same_parameters(stacked.arm(a), plain[a])

    @pytest.mark.parametrize("dims", WIDTHS, ids=lambda dims: "x".join(map(str, dims)))
    def test_modality_views_share_the_group_arrays(self, dims):
        model = small_model(dims=dims)
        assert [m for group in model.groups for m in group] == sorted(
            range(len(dims)), key=lambda m: (dims.index(dims[m]), m))
        for group, W in zip(model.groups, model.group_W):
            assert W.shape == (len(group), dims[group[0]], 6)
            for j, m in enumerate(group):
                assert np.shares_memory(model.enc_W[m], W)
                assert np.array_equal(model.enc_W[m], W[j])
        for m, b in enumerate(model.enc_b):
            assert np.shares_memory(b, model.enc_bias)
            assert np.array_equal(b, model.enc_bias[model.slots[m]])
        model.enc_W[-1][0, 0] = 7.0
        model.enc_b[-1][0] = 8.0
        clone, arm = copy_model(model), simtrainer._lockstep(model, 2).arm(1)
        model.enc_W[-1][0, 0] = 0.0
        assert clone.enc_W[-1][0, 0] == 7.0 and clone.enc_b[-1][0] == 8.0
        assert arm.enc_W[-1][0, 0] == 7.0 and arm.enc_b[-1][0] == 8.0

    @pytest.mark.parametrize("B", [1, 7, 48])
    @pytest.mark.parametrize("C", [1, 4])
    def test_stacked_matmul_equals_per_slice(self, B, C):
        # The stacked backward relies on np.matmul giving each slice of a
        # stack the bits of the 2-D product, for the shapes it uses; the
        # (R, B, 1) stack is a stride-0 view, as in regression.
        rng = np.random.default_rng(B * 10 + C)
        R, H, d = 4, 6, 5
        s, x, fus_W = (rng.standard_normal(shape) for shape in ((B, H), (B, d), (H, C)))
        dout = rng.standard_normal((R, B))[:, :, None]
        if C > 1:
            dout = dout * rng.standard_normal((B, C))
        du = rng.standard_normal((R, B, H))
        for stacked, single in (
            (np.matmul(s.T, dout), lambda r: s.T @ dout[r]),
            (np.matmul(dout, fus_W.T), lambda r: dout[r] @ fus_W.T),
            (np.matmul(x.T, du), lambda r: x.T @ du[r]),
        ):
            for r in range(R):
                assert np.array_equal(stacked[r], single(r))

    @pytest.mark.parametrize("A", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 7, 48])
    @pytest.mark.parametrize("C", [1, 4])
    def test_arm_stacked_matmul_equals_per_slice(self, A, B, C):
        # The same for the (A, R, ...) shapes of lockstep arms: every
        # product of `_encode`, `_fuse` and `_backward`, with the arm
        # axis leading and the row axis broadcast where they broadcast it.
        rng = np.random.default_rng(100 * A + 10 * B + C)
        R, H, d = 4, 6, 5
        s, x = rng.standard_normal((A, B, H)), rng.standard_normal((A, B, d))
        enc_W, fus_W = rng.standard_normal((A, d, H)), rng.standard_normal((A, H, C))
        dout = rng.standard_normal((A, R, B))[..., None]
        if C > 1:
            dout = dout * rng.standard_normal((A, 1, B, C))
        du = rng.standard_normal((A, R, B, H))
        for stacked, single in (
            (np.matmul(x, enc_W), lambda a, r: x[a] @ enc_W[a]),
            (np.matmul(s, fus_W), lambda a, r: s[a] @ fus_W[a]),
            (np.matmul(s.transpose(0, 2, 1)[:, None], dout), lambda a, r: s[a].T @ dout[a, r]),
            (np.matmul(dout, fus_W.transpose(0, 2, 1)[:, None]),
             lambda a, r: dout[a, r] @ fus_W[a].T),
            (np.matmul(x.transpose(0, 2, 1)[:, None], du), lambda a, r: x[a].T @ du[a, r]),
        ):
            for a in range(A):
                for r in range(R if stacked.ndim == 4 else 1):
                    got = stacked[a, r] if stacked.ndim == 4 else stacked[a]
                    assert np.array_equal(got, single(a, r))


def _same_bits(mine: np.ndarray, theirs: np.ndarray) -> bool:
    return mine.shape == theirs.shape and np.array_equal(
        np.ascontiguousarray(mine).view(np.uint64), np.ascontiguousarray(theirs).view(np.uint64))


class TestFlatParameters:
    """One flat array per arm holds the parameters, and one per row their gradients."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("dims", [(4, 7, 4, 7, 3), (16, 16, 16), (5, 3)],
                             ids=lambda dims: "x".join(map(str, dims)))
    @pytest.mark.parametrize("hidden", [1, 6])
    @pytest.mark.parametrize("A", [1, 2, 16])
    @pytest.mark.parametrize("rows", ["update", "all"])
    def test_backward_equals_per_module_oracle(self, task, dims, hidden, A, rows):
        # Each module's gradient, written into its view of one (A, R, P)
        # buffer, has the bits of the per-module arrays it replaced: width
        # groups of two, two and one, one group of three, two singletons;
        # H = 1; regression's single output (C = 1); R = 1 and R = M + 1.
        M, B = len(dims), 19
        seed = 100 * A + 10 * M + hidden
        model, feats, labels, mask = _oracle_batch(task, M, B, seed, dims=dims, hidden=hidden)
        stacked = simtrainer._lockstep(model, A)
        rng = np.random.default_rng(seed)
        stacked.flat[...] += rng.normal(0.0, 0.1, size=stacked.flat.shape)
        masks = (rng.random((A, B, M)) < 0.6).astype(np.float64)
        masks[:, :, 0] = np.maximum(masks[:, :, 0], masks.sum(axis=2) == 0)
        present = np.ascontiguousarray(masks.transpose(0, 2, 1))
        _, _, weights = simtrainer._batch_weights(present, np.array([0]), np.array([B]))
        if rows == "update":
            weights = weights[:, M:]
        ws = simtrainer._Workspace(stacked, B, weights.shape[1])
        xs = simtrainer._masked(stacked, simtrainer._grouped(model, feats), present)
        simtrainer._encode(stacked, xs, ws.h)
        out = simtrainer._fuse(stacked, ws.hs, ws.s, ws.out)
        classes = stacked.fus_W.shape[-1]
        targets = simtrainer._targets(task, labels, classes, np.arange(B))
        resid = simtrainer._losses(stacked, out, targets, ws)[1]
        grads = simtrainer._backward(xs, resid, weights, ws)
        want = per_module_backward(stacked, (xs, ws.h, ws.s), resid, weights)
        assert grads.shape == weights.shape[:2] + stacked.flat.shape[-1:]
        *enc_W, enc_b, fus_W, fus_b = stacked.segments(grads)
        assert len(enc_W) == len(want["enc_W"]) == len(model.groups)
        for mine, theirs in zip(enc_W, want["enc_W"]):
            assert _same_bits(mine, theirs)
        assert _same_bits(enc_b, want["enc_b"])
        assert _same_bits(fus_W, want["fus_W"])
        assert _same_bits(fus_b, want["fus_b"])

    @pytest.mark.parametrize("dims", [(4, 7, 4, 7, 3), (16, 16, 16), (5, 3)],
                             ids=lambda dims: "x".join(map(str, dims)))
    @pytest.mark.parametrize("A", [None, 3])
    def test_every_view_is_a_segment_of_flat(self, dims, A):
        model = small_model(dims=dims)
        if A is not None:
            model = simtrainer._lockstep(model, A)
        flat = model.flat
        lead, (H, C), M = flat.shape[:-1], model.fus_W.shape[-2:], len(dims)
        assert flat.flags.c_contiguous
        assert flat.shape[-1] == H * sum(dims) + M * H + H * C + C
        # The layout: each width group's weights, the biases in slot order,
        # the head weight, the head bias.
        flat[...] = np.arange(flat.size).reshape(flat.shape)
        start = 0

        def segment(*shape):
            nonlocal start
            start += math.prod(shape)
            return flat[..., start - math.prod(shape):start].reshape(lead + shape)

        for group, W in zip(model.groups, model.group_W):
            block = segment(len(group), dims[group[0]], H)
            assert np.array_equal(W, block)
            for j, m in enumerate(group):
                assert np.array_equal(model.enc_W[m], block[..., j, :, :])
        bias = segment(M, H)
        assert np.array_equal(model.enc_bias, bias)
        for m in range(M):
            assert np.array_equal(model.enc_b[m], bias[..., model.slots[m], :])
        assert np.array_equal(model.fus_W, segment(H, C))
        assert np.array_equal(model.fus_b, segment(C))
        assert start == flat.shape[-1]
        # A write through any view lands in flat, and one into flat in every view.
        for view in [*model.enc_W, *model.enc_b, model.fus_W, model.fus_b]:
            before = flat.copy()
            view[...] = -1.0
            assert (flat == -1.0).sum() == view.size
            assert (flat != before).sum() == view.size
            flat[...] = before
        flat[...] = 2.0
        for view in [*model.enc_W, *model.enc_b, model.fus_W, model.fus_b]:
            assert (view == 2.0).all()

    def test_arm_keeps_its_aliasing(self):
        model = small_model(dims=(4, 7, 4))
        stacked = simtrainer._lockstep(model, 3)
        arm = stacked.arm(1)
        assert arm.arms is None and stacked.arms == 3
        assert np.shares_memory(arm.flat, stacked.flat)
        assert not np.shares_memory(stacked.flat, model.flat)
        arm.enc_W[2][0, 0] = 5.0
        arm.fus_b[0] = 6.0
        assert stacked.enc_W[2][1, 0, 0] == 5.0 and stacked.flat[1, -3] == 6.0
        assert stacked.enc_W[2][0, 0, 0] != 5.0 and model.enc_W[2][0, 0] != 5.0
        stacked.flat[1] = 0.0
        assert not arm.fus_W.any() and stacked.fus_W[0].any()
        # One arm of views into a plain model: its updates reach the model.
        single = simtrainer._lockstep(model)
        assert np.shares_memory(single.flat, model.flat)
        single.flat -= 1.0
        assert np.array_equal(single.flat[0], model.flat)


# Signed zeros, subnormals, the smallest normal, infinities and values
# near the float64 range's ends; the rest of a pool are normal draws
# scaled by 10^k, |k| <= 300.
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     np.inf, -np.inf, 1.5e300, -1.5e300, 1e-300, -1e-300])


def _adversarial(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    pool = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 301, size=4096)
    spots = rng.random(4096) < 0.3
    pool[spots] = rng.choice(_SPECIAL, size=int(spots.sum()))
    pool[:len(_SPECIAL)] = _SPECIAL
    return rng.choice(pool, size=shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBatchSumsAndProducts:
    """`_backward`'s copy-then-scale products and `einsum` batch sums keep every bit.

    The oracles are the two-operand `np.multiply` and the `sum` they
    replaced. Bytes are compared, since `==` hides the sign of a zero.
    Each case runs H in {1, 2, 16} and C in {2, 8} on three encoders
    whose widths make groups of two and one.
    """

    DIMS = (4, 7, 4)
    SHAPES = [(H, C) for H in (1, 2, 16) for C in (2, 8)]

    def _model(self, rng, A: int, H: int, C: int) -> ToyModel:
        return simtrainer._lockstep(init_model(self.DIMS, H, CLASSIFICATION, C, rng), A)

    @pytest.mark.parametrize("A", [1, 2, 16])
    @pytest.mark.parametrize("rows", ["update", "all"])
    @pytest.mark.parametrize("B", [1, 2, 47, 48, 1100])  # 1100 rows pass numpy's 8192-element buffer
    def test_batch_sums_equal_axis_sum(self, A, rows, B):
        # Into the strided views of one (A, R, P) array that
        # `ToyModel.segments` cuts, writing nothing else.
        rng = np.random.default_rng(1000 * A + B)
        M = len(self.DIMS)
        R = 1 if rows == "update" else M + 1
        for H, C in self.SHAPES:
            model = self._model(rng, A, H, C)
            dout, du = _adversarial(rng, (A, R, B, C)), _adversarial(rng, (A, R, M, B, H))
            mine = _adversarial(rng, (A, R, model.flat.shape[-1]))
            theirs = mine.copy()
            *_, enc_b, _, fus_b = model.segments(mine)
            assert simtrainer._batch_sum(dout, fus_b) is fus_b
            assert simtrainer._batch_sum(du, enc_b) is enc_b
            *_, enc_b, _, fus_b = model.segments(theirs)
            oracles.axis_batch_sum(dout, fus_b)
            oracles.axis_batch_sum(du, enc_b)
            assert mine.tobytes() == theirs.tobytes(), (H, C)

    @pytest.mark.parametrize("A", [1, 2, 16])
    @pytest.mark.parametrize("rows", ["update", "all"])
    @pytest.mark.parametrize("B", [1, 2, 47, 48, 1100])
    def test_backward_equals_two_operand_oracle(self, A, rows, B):
        # The products `_backward` leaves in its workspace, and the bias
        # gradients summed from them.
        rng = np.random.default_rng(2000 * A + B)
        M = len(self.DIMS)
        R = 1 if rows == "update" else M + 1
        for H, C in self.SHAPES:
            model = self._model(rng, A, H, C)
            ws = simtrainer._Workspace(model, B, R)
            xs = [_adversarial(rng, x.shape) for x in ws.xs]
            # `_backward` reads the forward pass's h and s from the workspace.
            ws.h[...], ws.s[...] = _adversarial(rng, ws.h.shape), _adversarial(rng, ws.s.shape)
            resid, weights = _adversarial(rng, (A, B, C)), _adversarial(rng, (A, R, B))
            grads = simtrainer._backward(xs, resid, weights, ws)
            gate = np.greater(ws.h, 0.0).astype(np.float64)
            dout, du = oracles.two_operand_products(weights, resid, ws.ds, gate)
            assert ws.dout.tobytes() == dout.tobytes(), (H, C)
            assert ws.du.tobytes() == du.tobytes(), (H, C)
            *_, enc_b, _, fus_b = model.segments(grads)
            assert fus_b.tobytes() == oracles.axis_batch_sum(dout, np.empty(fus_b.shape)).tobytes()
            assert enc_b.tobytes() == oracles.axis_batch_sum(du, np.empty(enc_b.shape)).tobytes()

    @pytest.mark.parametrize("A", [1, 2, 16])
    @pytest.mark.parametrize("rows", ["update", "all"])
    @pytest.mark.parametrize("B", [1, 2, 47, 48, 1100])
    def test_single_output_sums_as_a_row(self, A, rows, B):
        # Regression's (A, B, 1) residuals take the classification path and
        # keep the bits of the row product and row sum it had of its own.
        rng = np.random.default_rng(3000 * A + B)
        M = len(self.DIMS)
        R = 1 if rows == "update" else M + 1
        for H in (1, 2, 16):
            model = simtrainer._lockstep(init_model(self.DIMS, H, REGRESSION, 1, rng), A)
            ws = simtrainer._Workspace(model, B, R)
            xs = [_adversarial(rng, x.shape) for x in ws.xs]
            ws.h[...], ws.s[...] = _adversarial(rng, ws.h.shape), _adversarial(rng, ws.s.shape)
            resid, weights = _adversarial(rng, (A, B, 1)), _adversarial(rng, (A, R, B))
            grads = simtrainer._backward(xs, resid, weights, ws)
            scaled = resid[:, None, :, 0] * weights
            assert ws.dout.tobytes() == scaled.tobytes(), H
            *_, fus_b = model.segments(grads)
            assert fus_b.tobytes() == scaled.sum(axis=-1)[..., None].tobytes(), H

    def test_readme_step_buffers_no_broadcast_operand_pair(self):
        # numpy buffers each broadcast operand of a ufunc call, `out=` or
        # not. At README shapes (A = 2, M = 3, d = H = 16, C = 8, B = 48)
        # a steady-state logged step whose calls take at most one such
        # operand each peaks at ~57 KB; two-operand products in
        # `_backward` put it at ~112 KB.
        rng = np.random.default_rng(24)
        A, M, B = 2, 3, 48
        model = simtrainer._lockstep(init_model((16,) * M, 16, CLASSIFICATION, 8, rng), A)
        feats = [rng.standard_normal((B, 16)) for _ in range(M)]
        labels = rng.integers(0, 8, size=B)
        present = (rng.random((A, M, B)) < 0.6).astype(np.float64)
        _, divisors, weights = simtrainer._batch_weights(present, np.array([0]), np.array([B]))
        targets = simtrainer._targets(CLASSIFICATION, labels, 8, np.arange(B))
        xs = simtrainer._masked(model, simtrainer._grouped(model, feats), present)
        ws = simtrainer._Workspace(model, B, M + 1)
        args = (model, xs, present, divisors[..., 0], weights, targets, 1e-3, ws)
        for _ in range(3):
            simtrainer._step(*args)
        tracemalloc.start()
        try:
            simtrainer._step(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestMetrics:
    def test_classification_hand_case(self):
        confusion = _confusion(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 1]), 3)
        assert confusion == [[1, 1, 0], [0, 1, 0], [0, 1, 0]]
        assert _wa(confusion) == 0.5
        assert _ua(confusion) == pytest.approx((0.5 + 1.0 + 0.0) / 3.0)
        # class F1: 2/3 for class 0 (p=1, r=1/2), 1/2 for class 1
        # (p=1/3, r=1), 0 for class 2; supports 2, 1, 1.
        expected = (2 / 4) * (2 / 3) + (1 / 4) * 0.5 + (1 / 4) * 0.0
        assert _f1_weighted(confusion) == pytest.approx(expected)

    def test_perfect_prediction(self):
        y = np.array([2, 0, 1, 1])
        confusion = _confusion(y, y, 3)
        assert _ua(confusion) == 1.0
        assert _wa(confusion) == 1.0
        assert _f1_weighted(confusion) == pytest.approx(1.0)

    def test_ua_ignores_absent_classes(self):
        # Class 2 never occurs in y_true, so it has no recall term.
        confusion = _confusion(np.array([0, 0, 1, 1]), np.array([0, 2, 1, 2]), 3)
        assert _ua(confusion) == 0.5

    @pytest.mark.parametrize("seed", range(40))
    def test_counts_equal_label_vector_metrics(self, seed):
        # Scores from one confusion count equal the label-vector forms bit
        # for bit, including classes absent from the labels or predictions.
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 13))
        n = int(rng.choice([1, 2, 7, 50, 600]))
        y_true = rng.integers(0, max(1, C - seed % 3), size=n)
        y_pred = rng.integers(0, C, size=n)
        confusion = _confusion(y_true, y_pred, C)
        for name, fun in (("UA", _ua), ("WA", _wa), ("F1", _f1_weighted)):
            assert fun(confusion) == LABEL_METRICS[name](y_true, y_pred), name

    def test_regression_metrics(self):
        y_true = np.array([1.0, -1.0, 2.0, 0.0])
        y_pred = np.array([1.5, -1.0, 1.0, -1.0])
        assert _mae(y_true, y_pred) == pytest.approx(0.625)
        assert _corr(y_true, y_true) == pytest.approx(1.0)
        assert _corr(y_true, -y_true) == pytest.approx(-1.0)
        assert _corr(y_true, np.zeros(4)) == 0.0
        assert _acc2(y_true, y_pred) == 0.75  # zero counts as nonnegative

    def test_acc2_zero_is_nonnegative(self):
        assert _acc2(np.array([0.0]), np.array([0.0])) == 1.0
        assert _acc2(np.array([0.0]), np.array([-0.1])) == 0.0


class TestEvaluation:
    def test_metric_task_mismatch_rejected(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        with pytest.raises(ConfigError):
            ablation_table(model, data.test, [PerfMetric.named("UA"), PerfMetric.named("MAE")])

    def test_ablation_table_complete_and_consistent(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        metric = PerfMetric.named("WA")
        (table,) = ablation_table(model, data.test, [metric])
        assert table.M == 2
        assert table.scores.shape == (3,)
        full = forward(model, data.test.features, (1, 1))
        assert table.perf_full == LABEL_METRICS["WA"](data.test.labels, full.argmax(axis=1))

    def test_evaluation_is_clean_of_training_protocol(self):
        # Ablation scores depend only on (model, split, pattern).
        model = small_model()
        data = gen_synthetic(small_spec())
        metric = PerfMetric.named("UA")
        a = ablation_table(model, data.test, [metric])
        b = ablation_table(model, data.test, [metric])
        assert a[0].score((0, 1)) == b[0].score((0, 1))

    def test_one_table_per_metric_in_order(self):
        model = small_model()
        data = gen_synthetic(small_spec())
        metrics = [PerfMetric.named(name) for name in ("F1", "UA", "F1")]
        tables = ablation_table(model, data.test, metrics)
        assert [table.metric for table in tables] == metrics
        assert tables[0] == tables[2]
        assert ablation_table(model, data.test, []) == ()


def trained_model(task: str, M: int, hidden: int = 6):
    """A model after a few masked training steps, so its biases are nonzero."""
    dims = (5, 4, 3, 6, 2, 4, 3, 5)[:M]
    spec = small_spec(task=task, dims=dims, informativeness=(1.0,) * M,
                      n_train=96, n_test=64)
    data = gen_synthetic(spec)
    rng = np.random.default_rng(5)
    model = init_model(dims, hidden, task, spec.n_classes, rng)
    for _ in range(30):
        feats, labels = take(data.train, rng.choice(spec.n_train, 32, replace=False))
        mask = rng.integers(0, 2, size=(32, M))
        mask[mask.sum(axis=1) == 0, 0] = 1
        step_batch(model, feats, mask.astype(np.float64), labels, 0.05, log_grads=False)
    if hidden == 1:
        # Training leaves every bias negative at H = 1; every other slot's
        # turned positive makes relu(b_m) > 0 for some missing modality.
        np.abs(model.enc_bias[::2], out=model.enc_bias[::2])
    return model, data


@pytest.mark.parametrize("M", [2, 3, 5])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
class TestZeroImputationOracle:
    """The relu(b_m) shortcut against actually zero-filling the inputs.

    Evaluation also runs at hidden width 1, where s and out are (n, 1)
    arrays and a regression prediction is the view out[:, 0].
    """

    @pytest.mark.parametrize("hidden", [1, 6])
    def test_biases_are_nonzero_and_mixed_in_sign(self, task, M, hidden):
        model, _ = trained_model(task, M, hidden)
        biases = np.concatenate(model.enc_b)
        assert (biases > 0).any() and (biases < 0).any()

    @pytest.mark.parametrize("hidden", [1, 6])
    def test_forward_equals_oracle_for_every_pattern(self, task, M, hidden):
        model, data = trained_model(task, M, hidden)
        for bits in pattern_bits(M):
            expected = zero_imputed_forward(model, data.test.features, bits)
            if task == REGRESSION:
                expected = expected[:, 0]
            got = forward(model, data.test.features, bits)
            assert got.shape == expected.shape
            assert (got == expected).all(), bits.tolist()

    @pytest.mark.parametrize("hidden", [1, 6])
    def test_ablation_scores_equal_forward(self, task, M, hidden):
        model, data = trained_model(task, M, hidden)
        for table in ablation_table(model, data.test, default_metrics(task)):
            for bits in pattern_bits(M):
                out = forward(model, data.test.features, bits)
                predictions = out.argmax(axis=1) if task == CLASSIFICATION else out
                expected = LABEL_METRICS[table.metric.name](data.test.labels, predictions)
                assert table.score(bits) == expected, (table.metric.name, bits.tolist())

    @pytest.mark.parametrize("hidden", [1, 6])
    def test_ablation_scores_equal_oracle(self, task, M, hidden):
        model, data = trained_model(task, M, hidden)
        for table in ablation_table(model, data.test, default_metrics(task)):
            for bits in pattern_bits(M):
                out = zero_imputed_forward(model, data.test.features, bits)
                predictions = out.argmax(axis=1) if task == CLASSIFICATION else out[:, 0]
                expected = LABEL_METRICS[table.metric.name](data.test.labels, predictions)
                assert table.score(bits) == expected, (table.metric.name, bits.tolist())


class TestOneEvaluationPass:
    """Every metric's table from one prediction per pattern equals the per-metric loop."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("hidden", [1, 6])
    def test_tables_equal_per_metric_oracle(self, task, M, hidden):
        model, data = trained_model(task, M, hidden)
        for split in (data.valid, data.test):
            tables = ablation_table(model, split, default_metrics(task))
            assert [table.metric for table in tables] == list(default_metrics(task))
            for table in tables:
                assert table == per_metric_ablation_table(model, split, table.metric)

    @pytest.mark.parametrize("M", [2, 3, 8])
    def test_classes_absent_from_the_labels(self, M):
        # Class 2 is relabelled away, so it has no support, yet the model
        # still predicts it under some pattern; class 1 keeps one sample.
        model, data = trained_model(CLASSIFICATION, M)
        labels = data.test.labels.copy()
        labels[labels == 2] = 0
        labels[labels == 1] = 0
        labels[0] = 1
        split = simtrainer.Split(features=data.test.features, labels=labels)
        predicted = {int(c) for bits in pattern_bits(M)
                     for c in forward(model, split.features, bits).argmax(axis=1)}
        assert 2 in predicted and 2 not in labels
        for table in ablation_table(model, split, default_metrics(CLASSIFICATION)):
            assert table == per_metric_ablation_table(model, split, table.metric)

    def test_at_most_two_split_sized_arrays_live(self):
        # README shapes: the 6000-row test split, three width-16 encoders,
        # H = 16, C = 8. The stacked inputs and the rectified outputs are
        # the two (M, n, H) arrays an evaluation needs, with one (n, C)
        # array beside them. A third (M, n, H) array, such as the
        # pre-activations kept beside their rectified copy, fails this, and
        # so does an (n, H) and an (n, C) array made while the inputs live.
        spec = SynthSpec(task=CLASSIFICATION, dims=(16, 16, 16), informativeness=(1.0,) * 3,
                         n_train=48, n_valid=8, n_test=6000, seed=1, n_classes=8)
        data = gen_synthetic(spec)
        model = init_model(spec.dims, 16, CLASSIFICATION, 8, np.random.default_rng(0))
        array_bytes = 3 * 6000 * 16 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ablation_table(model, data.test, default_metrics(CLASSIFICATION))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * array_bytes <= peak - before < 2 * array_bytes + 6000 * 8 * 8

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_labels_outside_the_classes_rejected(self, bad):
        model, data = trained_model(CLASSIFICATION, 2)
        labels = data.test.labels.copy()
        labels[5] = bad
        split = simtrainer.Split(features=data.test.features, labels=labels)
        with pytest.raises(DimensionError, match=r"^class labels must lie in \[0, 3\) "):
            ablation_table(model, split, default_metrics(CLASSIFICATION))


# The step columns of a RunLog.
COLUMNS = ("task_losses", "modality_losses", "observed", "logged_steps", "grad_norms")


def _assert_columns(run, want) -> None:
    """`run`'s columns are read-only and equal `want`'s, built from the oracle's step logs."""
    for name in COLUMNS:
        column = getattr(run, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[...] = column
        assert column.dtype == getattr(want, name).dtype, name
        assert np.array_equal(column, getattr(want, name)), name


def quick_config(rates=(0.0, 0.0), **overrides) -> TrainConfig:
    base = dict(
        protocol=RateVector(tuple(f"m{i}" for i in range(len(rates))), rates),
        epochs=4,
        batch_size=16,
        learning_rate=0.05,
        seed=9,
        hidden=6,
        mei_epoch_stride=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestRunExperiment:
    def test_protocol_width_must_match_data(self):
        spec = small_spec()
        config = quick_config(protocol=RateVector(("a", "b", "c"), (0.1, 0.1, 0.1)))
        with pytest.raises(DimensionError):
            run_arms(spec, [config])[0]

    @pytest.mark.parametrize("spec, config, message", [
        (small_spec(), quick_config(metrics=(PerfMetric.named("MAE"),)),
         "metric 'MAE' is not defined for classification"),
        (small_spec(dims=(2,) * 21, informativeness=(1.0,) * 21),
         quick_config(rates=(0.1,) * 21), "exceeds the enumeration cap"),
    ], ids=["metric-for-another-task", "M=21"])
    def test_rejected_before_the_first_step(self, monkeypatch, spec, config, message):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(simtrainer, "_step", no_step)
        monkeypatch.setattr(simtrainer, "gen_synthetic", no_step)
        with pytest.raises(MissdiagError, match=message):
            run_arms(spec, [config])[0]

    def test_sizes_have_an_upper_bound(self):
        for name in ("n_train", "n_valid", "n_test"):
            with pytest.raises(ConfigError, match=rf"^{name} must be in \[1, 2\^24\]"):
                small_spec(**{name: simtrainer.MAX_SIZE + 1})
        with pytest.raises(ConfigError, match=r"^dims\[1\] must be in \[1, 2\^24\]"):
            small_spec(dims=(5, 2**63 - 1))
        with pytest.raises(ConfigError, match=r"^n_classes must be in \[2, 2\^24\]"):
            small_spec(n_classes=simtrainer.MAX_SIZE + 1)
        for name in ("epochs", "batch_size", "hidden"):
            with pytest.raises(ConfigError, match=rf"^{name} must be in \[1, 2\^24\]"):
                quick_config(**{name: simtrainer.MAX_SIZE + 1})
        small_spec(n_train=simtrainer.MAX_SIZE, dims=(simtrainer.MAX_SIZE, 1))

    def test_deterministic_replay(self):
        spec = small_spec()
        config = quick_config(rates=(0.2, 0.4))
        a = run_arms(spec, [config])[0]
        b = run_arms(spec, [config])[0]
        np.testing.assert_array_equal(a.trace.values, b.trace.values)
        np.testing.assert_array_equal(
            a.mask_matrices[0].masks, b.mask_matrices[0].masks
        )
        assert a.task_losses.tolist() == b.task_losses.tolist()
        assert a.mli_result == b.mli_result
        assert a.config_hash == b.config_hash
        for (na, ra), (nb, rb) in zip(a.mei_results, b.mei_results):
            assert na == nb and ra.value == rb.value

    def test_step_and_table_bookkeeping(self):
        spec = small_spec(n_train=64)
        config = quick_config(epochs=4, batch_size=16, mei_epoch_stride=2)
        run = run_arms(spec, [config])[0]
        assert run.task_losses.shape == (4 * 4,)
        assert run.modality_losses.shape == run.observed.shape == (16, 2)
        assert run.logged_steps.tolist() == list(range(1, 17))
        # validation tables at epochs 2 and 4; one table per metric
        assert [epoch for epoch, _ in run.valid_tables] == [2, 4]
        assert len(run.test_tables) == 3
        assert {t.metric.name for t in run.test_tables} == {"UA", "WA", "F1"}
        # both index modes computed per metric
        assert len(run.mei_results) == 6

    def test_module_accounting(self):
        spec = small_spec()
        config = quick_config(rates=(0.3, 0.6), batch_size=4)
        run = run_arms(spec, [config])[0]
        samples = run.grad_samples()
        assert run.grad_norms.shape == (64, 2, 3)
        assert not run.grad_norms.flags.writeable
        for step in run.logged_steps.tolist():
            for m, seen in enumerate(run.observed[step - 1].tolist()):
                cell = (samples["step"] == step) & (samples["modality"] == m)
                modules = samples["module"][cell].tolist()
                assert modules == ([0, 1, 2] if seen else [])
        assert not run.observed.all()

    def test_value_equality(self):
        spec, config = small_spec(), quick_config(rates=(0.3, 0.6), batch_size=4)
        run = run_arms(spec, [config])[0]
        again = run_arms(spec, [config])[0]
        assert run == again
        assert np.array_equal(run.task_losses, again.task_losses) and run.trace == again.trace
        other = run_arms(spec, [quick_config(rates=(0.3, 0.6), batch_size=4, seed=10)])[0]
        assert run != other
        assert not np.array_equal(run.task_losses, other.task_losses)
        assert run.trace != other.trace
        assert run.mask_matrices != other.mask_matrices

    def test_run_log_equality_compares_the_columns(self):
        # The columns are arrays: equality compares them by value, and any
        # one differing column, or another field, makes two runs unequal.
        run = run_arms(small_spec(), [quick_config(rates=(0.3, 0.6), batch_size=4)])[0]
        copies = {name: getattr(run, name).copy() for name in COLUMNS}
        assert run == dataclasses.replace(run, **copies)
        for name, column in copies.items():
            changed = column.copy()
            changed.flat[0] = not changed.flat[0] if changed.dtype == bool else changed.flat[0] + 1
            assert run != dataclasses.replace(run, **{name: changed}), name
        assert run != dataclasses.replace(run, config_hash="0" * 64)
        assert run.__eq__(object()) is NotImplemented

    def test_step_log_equality(self):
        norms = np.ones((2, 3))
        log = StepLog(step=1, task_loss=0.5, modality_losses=(0.5, None), grad_norms=norms)
        assert log == StepLog(1, 0.5, (0.5, None), norms.copy())
        assert log != StepLog(1, 0.5, (0.5, None), norms * 2.0)
        assert log != StepLog(1, 0.5, (0.5, None), None)
        assert StepLog(1, 0.5, (0.5, None), None) == StepLog(1, 0.5, (0.5, None), None)
        assert log != StepLog(2, 0.5, (0.5, None), norms)
        assert log != StepLog(1, 0.5, (0.5, 0.5), norms)

    def test_mask_matrix_fixed_across_epochs_by_default(self):
        run = run_arms(small_spec(), [quick_config(rates=(0.3, 0.3))])[0]
        assert len(run.mask_matrices) == 1

    def test_mask_resampling_per_epoch(self):
        config = quick_config(rates=(0.3, 0.3), resample_masks_per_epoch=True)
        run = run_arms(small_spec(), [config])[0]
        assert len(run.mask_matrices) == 4
        assert (run.mask_matrices[0].masks != run.mask_matrices[1].masks).any()

    def test_loss_decreases_without_masking(self):
        spec = small_spec(n_train=128)
        config = quick_config(epochs=6, batch_size=16, learning_rate=0.05)
        run = run_arms(spec, [config])[0]
        first_epoch = run.task_losses[:8]
        last_epoch = run.task_losses[-8:]
        assert np.mean(last_epoch) < np.mean(first_epoch)

    def test_grad_log_stride_thins_trace(self):
        spec = small_spec(n_train=64)
        config = quick_config(grad_log_stride=2)
        run = run_arms(spec, [config])[0]
        assert run.logged_steps.tolist() == list(range(1, 17, 2))
        assert run.grad_norms.shape == (8, 2, 3)

    def test_uninformative_modality_scores_at_chance(self):
        # Modality 1 carries no label signal: an ablation that keeps
        # only modality 1 performs at chance level, while keeping only
        # modality 0 stays well above it.
        spec = small_spec(
            dims=(8, 8),
            informativeness=(1.0, 0.0),
            n_train=1200,
            n_test=2500,
            n_classes=4,
            seed=5,
        )
        config = quick_config(epochs=6, batch_size=32, learning_rate=0.1)
        run = run_arms(spec, [config])[0]
        ua = next(t for t in run.test_tables if t.metric.name == "UA")
        only_informative = ua.score((1, 0))
        only_noise = ua.score((0, 1))
        assert abs(only_noise - 0.25) < 0.06
        assert only_informative > 0.45

    def test_exposure_counts_follow_marginals(self):
        # With batch size 4 a modality is absent from a step's batch
        # with probability marginal^4, so high-rate modalities produce
        # markedly fewer defined cells.
        rates = RateVector(("a", "b", "c"), (0.1, 0.2, 0.9))
        spec = small_spec(
            dims=(4, 4, 4), informativeness=(1.0, 1.0, 1.0), n_train=400
        )
        config = quick_config(protocol=rates, epochs=1, batch_size=4,
                              learning_rate=0.01)
        run = run_arms(spec, [config])[0]
        from missdiag import marginal_missing_rate

        n_steps = run.task_losses.size
        assert n_steps == 100
        undefined = (~run.observed).sum(axis=0).tolist()
        for m in range(3):
            p_gap = marginal_missing_rate(rates, m) ** 4
            sigma = math.sqrt(n_steps * p_gap * (1.0 - p_gap))
            assert abs(undefined[m] - n_steps * p_gap) < 4.5 * sigma + 1.0
        assert undefined[2] > undefined[0]

    def test_describe_run_is_stable(self):
        spec = small_spec()
        config = quick_config()
        assert describe_run(spec, config) == describe_run(spec, config)

    def test_dataset_loss_drops_after_training(self):
        spec = small_spec(n_train=128)
        data = gen_synthetic(spec)
        model = init_model(spec.dims, 6, spec.task, spec.n_classes,
                           np.random.default_rng(3))
        before = dataset_loss(model, data.train)
        for _ in range(5):
            feats, labels = take(data.train, np.arange(128))
            step_batch(model, feats, np.ones((128, 2)), labels, learning_rate=0.2)
        assert dataset_loss(model, data.train) < before


class TestGradTraceOracle:
    """The trainer's trace equals a plain-loop reduction of its own norms."""

    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_trace_equals_brute_grid(self, M, stride):
        spec = small_spec(dims=(3,) * M, informativeness=(1.0,) * M)
        rates = tuple(np.linspace(0.5, 0.9, M).tolist())
        config = quick_config(rates=rates, batch_size=2, epochs=2,
                              grad_log_stride=stride)
        run = run_arms(spec, [config])[0]
        assert not run.trace.defined.all()  # some modality absent from a batch
        samples = run.grad_samples()
        assert run.trace.values.tolist() == brute_trace_grid(samples.tolist(), M, M + 1)
        assembled = assemble_trace(samples, M=M, module_count=M + 1)
        assert assembled.values.tolist() == run.trace.values.tolist()
        np.testing.assert_array_equal(assembled.defined, run.trace.defined)
        assert assembled.warnings == run.trace.warnings
        assert any("not contiguous" in w for w in run.trace.warnings) == (stride > 1)

    def test_samples_come_in_file_order(self):
        run = run_arms(small_spec(), [quick_config(rates=(0.3, 0.6), batch_size=4)])[0]
        keys = [row[:3] for row in run.grad_samples().tolist()]
        assert keys == sorted(keys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergenceGuard:
    def test_non_finite_loss_names_step_and_epoch(self):
        spec = small_spec(task=REGRESSION, label_noise=1e154)
        with pytest.raises(TrainingDivergedError,
                           match=r"at step 1 \(epoch 1\): task loss is inf; "
                                 r"last finite loss: none"):
            run_arms(spec, [quick_config()])[0]

    def test_non_finite_grad_norms(self, monkeypatch):
        backward = simtrainer._backward

        def poisoned(*args):
            grads = backward(*args)
            # The fus_b segment of the L_m rows; the update row stays finite.
            args[-1].model.segments(grads)[-1][:, :-1] = math.inf
            return grads
        monkeypatch.setattr("missdiag.simtrainer._backward", poisoned)
        with pytest.raises(TrainingDivergedError, match="gradient norms"):
            run_arms(small_spec(), [quick_config(grad_log_stride=3)])[0]

    def test_non_finite_parameters_after_last_step(self):
        # One step whose loss is finite but whose update overflows.
        spec = small_spec(task=REGRESSION, label_noise=1e10)
        config = quick_config(epochs=1, batch_size=spec.n_train, learning_rate=1e300)
        with pytest.raises(TrainingDivergedError,
                           match=r"at step 1 \(epoch 1\): parameters are not finite; "
                                 r"last finite loss: \S+ at step 1"):
            run_arms(spec, [config])[0]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            quick_config(epochs=0)
        with pytest.raises(ConfigError):
            quick_config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            quick_config(batch_size=0)
        with pytest.raises(ConfigError):
            quick_config(epsilon=0.0)

    @pytest.mark.parametrize("epsilon, shown", [(math.inf, "inf"), (math.nan, "nan"),
                                                (-1e-8, "-1e-08")])
    def test_epsilon_must_be_finite_and_positive(self, monkeypatch, epsilon, shown):
        # Refused when the config is made, before any data or training step.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(simtrainer, "_step", no_work)
        monkeypatch.setattr(simtrainer, "gen_synthetic", no_work)
        with pytest.raises(ConfigError,
                           match=rf"^epsilon must be finite and positive, got {shown}$"):
            run_arms(small_spec(), [quick_config(epsilon=epsilon)])[0]


def _lockstep_case(task: str, M: int, stride: int = 1, resample: bool = False,
                   arms: int = 2, **overrides):
    """A spec and `arms` configs that differ in protocol only: IMR, its SMR, then shared rates.

    50 training samples in batches of 16 leave a short final batch of 2.
    """
    spec = SynthSpec(task=task, dims=tuple(2 + m % 3 for m in range(M)),
                     informativeness=(1.0,) * M, n_train=50, n_valid=16, n_test=24,
                     seed=40 + M, n_classes=3)
    names = tuple(f"m{m}" for m in range(M))
    imr = RateVector(names, tuple(np.linspace(0.2, 0.7, M).tolist()))
    protocols = [imr, imr.mean_matched(), RateVector(names, (0.0,) * M)][:arms]
    base = dict(epochs=3, batch_size=16, learning_rate=0.05, seed=7, hidden=5,
                mei_epoch_stride=2, grad_log_stride=stride,
                resample_masks_per_epoch=resample)
    base.update(overrides)
    return spec, [TrainConfig(protocol=p, **base) for p in protocols]


def _scores(tables) -> list[list[float]]:
    return [table.scores.tolist() for table in tables]


def _poison_steps(monkeypatch, poison: dict[int, set[int]]) -> list[int]:
    """Make `_step` set arm a's head to 1e300 after each step in poison[a]; returns the steps run.

    `run_arms` calls `_step` once per step, so the n-th call is step n.
    """
    real = simtrainer._step
    seen: list[int] = []

    def poisoned(model, *args, **kwargs):
        columns = real(model, *args, **kwargs)
        seen.append(len(seen) + 1)
        for a in range(model.arms):
            if seen[-1] in poison.get(a, ()):
                model.fus_W[a] = 1e300
        return columns

    monkeypatch.setattr(simtrainer, "_step", poisoned)
    return seen


def _poison_groups(monkeypatch, poison: dict[tuple[int, int], set[int]]) -> list[int]:
    """Make `_step` set arm a of group g's head to 1e300 after each of its steps in poison[g, a].

    Each group trains a model of its own; returns the steps each group ran.
    """
    real = simtrainer._step
    models: list = []
    steps: list[int] = []

    def poisoned(model, *args, **kwargs):
        columns = real(model, *args, **kwargs)
        if not models or models[-1] is not model:
            models.append(model)
            steps.append(0)
        steps[-1] += 1
        for a in range(model.arms):
            if steps[-1] in poison.get((len(models) - 1, a), ()):
                model.fus_W[a] = 1e300
        return columns

    monkeypatch.setattr(simtrainer, "_step", poisoned)
    return steps


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls of each named `simtrainer` function; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(simtrainer, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(simtrainer, name, counted)
    return calls


def _sequential_error(spec, config, steps: set[int]) -> str:
    def after_step(step, model):
        if step in steps:
            model.fus_W[...] = 1e300

    with pytest.raises(TrainingDivergedError) as info:
        sequential_run(spec, config, after_step)
    return str(info.value)


class TestLockstep:
    """Arms trained in lockstep equal the pre-lockstep sequential loop, bit for bit."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("resample", [False, True])
    def test_every_field_equals_the_sequential_loop(self, task, M, stride, resample):
        spec, configs = _lockstep_case(task, M, stride, resample)
        runs = run_arms(spec, configs)
        assert len(runs) == len(configs)
        for run, config in zip(runs, configs):
            want = sequential_run(spec, config)
            assert run.config == config and run.config_hash == want.config_hash
            _assert_columns(run, want)
            assert run.task_losses.shape == (12,)
            assert run.logged_steps.tolist() == list(range(1, 13, stride))
            assert run.mask_matrices == want.mask_matrices
            assert len(run.mask_matrices) == (3 if resample else 1)
            assert [(e, _scores(t)) for e, t in run.valid_tables] == \
                [(e, _scores(t)) for e, t in want.valid_tables]
            assert _scores(run.test_tables) == _scores(want.test_tables)
            assert run.trace.values.tolist() == want.trace.values.tolist()
            assert np.array_equal(run.trace.defined, want.trace.defined)
            assert run.trace.warnings == want.trace.warnings
            assert run.mli_result == want.mli_result
            assert run.mei_results == want.mei_results
            assert run == want
        # The arms' masks differ.
        assert not np.array_equal(runs[0].modality_losses, runs[1].modality_losses)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_repeated_widths_equal_the_sequential_loop(self, task):
        # Width groups of two, two and one encoders, trained in lockstep.
        dims = (4, 7, 4, 7, 3)
        spec = SynthSpec(task=task, dims=dims, informativeness=(1.0, 0.5, 1.0, 0.25, 1.0),
                         n_train=60, n_valid=20, n_test=30, seed=17, n_classes=4)
        imr = RateVector(tuple(f"m{m}" for m in range(5)), (0.1, 0.3, 0.5, 0.2, 0.6))
        configs = [TrainConfig(protocol=p, epochs=3, batch_size=16, learning_rate=0.05,
                               seed=3, hidden=5, mei_epoch_stride=2)
                   for p in (imr, imr.mean_matched())]
        runs = run_arms(spec, configs)
        for run, config in zip(runs, configs):
            assert run == sequential_run(spec, config)

    def test_three_arms_and_one_arm(self):
        spec, configs = _lockstep_case(REGRESSION, 3, arms=3)
        runs = run_arms(spec, configs)
        assert runs == tuple(run_arms(spec, [config])[0] for config in configs)
        assert run_arms(spec, configs[2:]) == runs[2:]

    @pytest.mark.parametrize("task, n_train, batch_size, resample", [
        (CLASSIFICATION, 37, 8, False),    # a short last batch of 5
        (CLASSIFICATION, 49, 16, False),   # a last batch of one sample
        (CLASSIFICATION, 50, 64, False),   # one batch, larger than the split
        (CLASSIFICATION, 50, 50, True),    # one batch, the whole split, masks resampled
        (REGRESSION, 45, 8, True),
        (REGRESSION, 50, 64, False),
    ], ids=["short-last", "last-of-one", "single", "single-resampled", "regression-resampled",
            "regression-single"])
    def test_batch_plans_equal_the_sequential_loop(self, task, n_train, batch_size, resample):
        spec, configs = _lockstep_case(task, 3, stride=2, resample=resample,
                                       batch_size=batch_size)
        spec = dataclasses.replace(spec, n_train=n_train)
        runs = run_arms(spec, configs)
        n_batches = -(-n_train // batch_size)
        for run, config in zip(runs, configs):
            assert run.task_losses.shape == (3 * n_batches,)
            assert run == sequential_run(spec, config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_arm_1_diverging_on_an_unlogged_step(self, monkeypatch, capfd):
        # Norms are logged at steps 1, 4, 7, 10. Arm 1's head is set to 1e300
        # after step 4: its equal huge logits keep step 5's loss at ln 3, and
        # the loss is first not finite at step 6, which logs no norms.
        spec, configs = _lockstep_case(CLASSIFICATION, 3, stride=3)
        steps = _poison_steps(monkeypatch, {1: {4}})
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        assert str(info.value) == _sequential_error(spec, configs[1], {4})
        assert str(info.value).startswith("training diverged at step 6 (epoch 2): task loss is nan; ")
        assert steps == list(range(1, 13))
        monkeypatch.undo()
        assert run_arms(spec, configs[:1])[0] == sequential_run(spec, configs[0])
        assert capfd.readouterr().err == ""

    def test_arm_1_parameters_not_finite_at_an_epoch_end(self, monkeypatch):
        # Arm 1's head becomes inf after step 4, the last of epoch 1, whose
        # loss was finite: the end-of-epoch test of that arm's parameters
        # names it, and arm 0 still trains to the end first.
        spec, configs = _lockstep_case(REGRESSION, 3)
        real = simtrainer._step
        seen: list[int] = []

        def poisoned(model, *args, **kwargs):
            columns = real(model, *args, **kwargs)
            seen.append(len(seen) + 1)
            if seen[-1] == 4:
                model.fus_W[1] = math.inf
            return columns

        def after_step(step, model):
            if step == 4:
                model.fus_W[...] = math.inf

        monkeypatch.setattr(simtrainer, "_step", poisoned)
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        with pytest.raises(TrainingDivergedError) as want:
            sequential_run(spec, configs[1], after_step)
        assert str(info.value) == str(want.value)
        assert str(info.value).startswith(
            "training diverged at step 4 (epoch 1): parameters are not finite; ")
        assert seen == list(range(1, 13))

    def test_one_data_draw_one_init_one_step_per_batch(self, monkeypatch):
        spec, configs = _lockstep_case(CLASSIFICATION, 3)
        calls = _count_calls(monkeypatch, "gen_synthetic", "init_model")
        steps = _poison_steps(monkeypatch, {})
        run_arms(spec, configs)
        assert calls == {"gen_synthetic": 1, "init_model": 1}
        assert steps == list(range(1, 13))

    def test_stacked_step_equals_plain_steps(self):
        rng = np.random.default_rng(5)
        model, feats, labels, mask = _oracle_batch(CLASSIFICATION, 3, 7, seed=5)
        masks = np.stack([mask, (rng.random(mask.shape) < 0.5).astype(np.float64), mask])
        masks[1, :, 0] = 0.0  # modality 0 absent from arm 1's batch
        plain = [copy_model(model) for _ in masks]
        stacked = simtrainer._lockstep(model, len(masks))
        assert stacked.arms == 3 and model.arms is None
        columns = step_batch(stacked, feats, masks, labels, 0.01)
        for a, arm_mask in enumerate(masks):
            alone = step_batch(plain[a], feats, arm_mask, labels, 0.01)
            assert _step_log(columns, 4, a) == _step_log(alone, 4)
            _assert_same_parameters(stacked.arm(a), plain[a])
        assert not columns[2][1, 0]

    def test_stacked_model_shapes_checked(self):
        model = simtrainer._lockstep(small_model(), 2)
        feats, labels = [np.ones((4, 5)), np.ones((4, 4))], np.zeros(4, dtype=np.int64)
        with pytest.raises(DimensionError, match=r"^mask of shape \(4, 3\) does not match "
                                                 r"batch \(4, 2\)$"):
            loss_and_grads(small_model(), feats, np.ones((4, 3)), labels, np.full(4, 0.25))
        with pytest.raises(DimensionError, match="one arm at a time"):
            forward(model, feats, (1, 1))
        # Both evaluation entries refuse an arm axis, after the feature
        # checks and before the class labels are read.
        metrics = default_metrics(CLASSIFICATION)
        with pytest.raises(DimensionError, match="one arm at a time"):
            ablation_table(model, simtrainer.Split(features=feats, labels=labels), metrics)
        with pytest.raises(DimensionError, match="one arm at a time"):
            ablation_table(model, simtrainer.Split(features=feats, labels=labels + 7), metrics)
        with pytest.raises(DimensionError, match="^modality 0: features of shape"):
            ablation_table(model, simtrainer.Split(features=feats[::-1], labels=labels), metrics)
        with pytest.raises(DimensionError, match="^a plain model has no arm axis"):
            small_model().arm(0)
        # The constructor takes one model's plain arrays; an arm axis is refused.
        with pytest.raises(DimensionError, match=r"^the fusion weight must be \(H, C\), "
                                                 r"got shape \(2, 6, 3\)$"):
            ToyModel(model.enc_W, model.enc_b, model.fus_W, model.fus_b, CLASSIFICATION)
        with pytest.raises(DimensionError, match="inconsistent"):
            ToyModel(model.enc_W, [b[0] for b in model.enc_b], model.fus_W[0],
                     model.fus_b[0], CLASSIFICATION)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 4), ("learning_rate", 0.01), ("seed", 8), ("grad_log_stride", 2),
        ("resample_masks_per_epoch", True), ("metrics", (PerfMetric.named("UA"),)),
    ])
    def test_configs_differing_beyond_protocol_run_in_groups(self, monkeypatch, field, value):
        spec, configs = _lockstep_case(CLASSIFICATION, 2)
        configs[1] = dataclasses.replace(configs[1], **{field: value})
        calls = _count_calls(monkeypatch, "gen_synthetic", "init_model")
        runs = run_arms(spec, configs)
        assert calls == {"gen_synthetic": 1, "init_model": 2}
        for run, config in zip(runs, configs):
            assert run == sequential_run(spec, config)
        with pytest.raises(ConfigError, match="at least one"):
            run_arms(spec, [])

    def test_interleaved_groups_equal_the_sequential_loop(self, monkeypatch):
        # Seeds 7, 8, 7 with different protocols, then a batch size and a
        # stride of their own: four groups, the first of two arms.
        spec, configs = _lockstep_case(REGRESSION, 3, arms=3)
        configs[1] = dataclasses.replace(configs[1], seed=8)
        configs += [dataclasses.replace(configs[0], batch_size=8),
                    dataclasses.replace(configs[1], grad_log_stride=3)]
        real, arms = simtrainer._step, []

        def recorded(model, *args):
            arms.append(model.arms)
            return real(model, *args)

        monkeypatch.setattr(simtrainer, "_step", recorded)
        runs = run_arms(spec, configs)
        assert arms == [2] * 12 + [1] * 12 + [1] * 21 + [1] * 12
        assert len(runs) == len(configs)
        for run, config in zip(runs, configs):
            assert run.config == config
            assert run == sequential_run(spec, config)
            assert run == run_arms(spec, [config])[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seeds, poison, raised, group_steps", [
        # Config 1 diverges as group 0's second arm, so group 0 trains to
        # the end, and config 2's group 1 never starts.
        ((7, 7, 8), {(0, 1): {2}, (1, 0): {2}}, (0, 1), [12]),
        # Config 1 diverges as group 1's first arm, raised at once, before
        # config 2's error as group 0's second arm.
        ((7, 8, 7), {(0, 1): {2}, (1, 0): {3}}, (1, 0), [12, 4]),
    ], ids=["group-0-error-waits", "group-1-raises-at-once"])
    def test_errors_across_groups_in_config_order(self, monkeypatch, capfd, seeds, poison,
                                                  raised, group_steps):
        spec, configs = _lockstep_case(REGRESSION, 3, arms=3)
        configs = [dataclasses.replace(c, seed=seed) for c, seed in zip(configs, seeds)]
        steps = _poison_groups(monkeypatch, poison)
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        assert str(info.value) == _sequential_error(spec, configs[1], poison[raised])
        assert steps == group_steps
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_arm_0_diverging_later_is_raised_first(self, monkeypatch, capfd):
        spec, configs = _lockstep_case(REGRESSION, 3)
        steps = _poison_steps(monkeypatch, {0: {7}, 1: {2}})
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        assert str(info.value) == _sequential_error(spec, configs[0], {7})
        assert "(epoch 2)" in str(info.value)
        assert steps[-1] < 12
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_arm_1_alone_raised_after_arm_0_trains(self, monkeypatch, capfd, task):
        spec, configs = _lockstep_case(task, 3, arms=3)
        evaluated = []
        real_table = simtrainer.ablation_table

        def table(model, split, metrics):
            evaluated.append(float(model.fus_W[0, 0]))
            return real_table(model, split, metrics)

        monkeypatch.setattr(simtrainer, "ablation_table", table)
        steps = _poison_steps(monkeypatch, {1: {2}, 2: {1}})
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        assert str(info.value) == _sequential_error(spec, configs[1], {2})
        assert "(epoch 1)" in str(info.value)
        assert steps == list(range(1, 13))
        # Arm 0 alone was evaluated, every metric in one call: validation at
        # epochs 2 and 3, then test.
        assert len(evaluated) == 3
        assert all(math.isfinite(w) for w in evaluated)
        assert capfd.readouterr().err == ""


def _row_bytes(spec: SynthSpec, hidden: int, arms: int) -> int:
    """Bytes of one logged step's squared modality rows in the trainer's block.

    Per arm and modality loss: every encoder weight, the M encoder biases,
    and the head's weight and bias.
    """
    H, C, M = hidden, spec.out_dim, spec.M
    return 8 * arms * M * (H * sum(spec.dims) + M * H + H * C + C)


def _count_blocks(monkeypatch, arms: int) -> list[int]:
    """Record the steps of each block `_squared_norms` reduces; returns that list."""
    real = simtrainer._squared_norms
    reduced: list[int] = []

    def counted(model, squares):
        reduced.append(squares.shape[0] // arms)
        return real(model, squares)

    monkeypatch.setattr(simtrainer, "_squared_norms", counted)
    return reduced


def _force_blocks(monkeypatch, steps: int, spec: SynthSpec, hidden: int, arms: int) -> list[int]:
    """Shrink the block budget to `steps` logged steps; returns the steps of each reduction."""
    monkeypatch.setattr(simtrainer, "_NORM_BLOCK_BYTES", steps * _row_bytes(spec, hidden, arms))
    return _count_blocks(monkeypatch, arms)


def _expected_blocks(epochs: int, n_batches: int, stride: int, steps: int) -> list[int]:
    """Block sizes: each epoch's logged steps in runs of `steps`, the last run cut short."""
    sizes = []
    for epoch in range(epochs):
        first = epoch * n_batches
        logged = sum(s % stride == 0 for s in range(first, first + n_batches))
        sizes += [steps] * (logged // steps) + ([logged % steps] if logged % steps else [])
    return sizes


def _poison_norms(monkeypatch, poison: dict[int, set[int]]) -> None:
    """Make arm a's modality gradients infinite at each step in poison[a].

    `run_arms` calls `_backward` once per step, so the n-th call is step n.
    As in `test_non_finite_grad_norms`, the update row stays finite.
    """
    real = simtrainer._backward
    calls: list[int] = []

    def poisoned(*args):
        grads = real(*args)
        model = args[-1].model  # the workspace's
        calls.append(len(calls) + 1)
        for a in range(model.arms):
            if calls[-1] in poison.get(a, ()):
                model.segments(grads)[-1][a, :-1] = math.inf  # the L_m rows of fus_b
        return grads

    monkeypatch.setattr(simtrainer, "_backward", poisoned)


def _oracle_error(spec, config, norm_steps=(), head_steps=()) -> str:
    """The sequential loop's error with infinite norms at `norm_steps` and a 1e300 head
    set after each step of `head_steps`."""
    real = oracles.per_arm_train_step

    def poisoned(model, *args):
        log = real(model, *args)
        if log.step in norm_steps:
            assert log.grad_norms is not None
            log = dataclasses.replace(log, grad_norms=np.full_like(log.grad_norms, math.inf))
        return log

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "per_arm_train_step", poisoned)
        return _sequential_error(spec, config, set(head_steps))


# Shapes a training step's workspace must serve: (task, dims, hidden,
# classes, n_train, batch_size, arms). The README shapes leave a last batch
# of 32, every other case one of 2 (4 from 60).
WORKSPACE_CASES = {
    "readme": (CLASSIFICATION, (16, 16, 16), 16, 8, 2000, 48, 2),
    "regression": (REGRESSION, (3, 4, 2), 5, 3, 50, 16, 2),
    "h1": (CLASSIFICATION, (3, 2, 4, 3), 1, 3, 50, 16, 2),
    "width-groups": (CLASSIFICATION, (4, 7, 4, 7, 3), 5, 4, 60, 16, 2),
    "one-arm": (CLASSIFICATION, (2, 3, 4), 4, 3, 50, 16, 1),
    "16-arms": (CLASSIFICATION, (2, 3, 4), 4, 3, 50, 16, 16),
    # Two classes, H = 2 and a last batch of one row (49 = 3 x 16 + 1).
    "two-classes": (CLASSIFICATION, (2, 3, 4), 2, 2, 49, 16, 2),
}


def _workspace_case(case: str, stride: int):
    task, dims, hidden, classes, n_train, batch_size, arms = WORKSPACE_CASES[case]
    M = len(dims)
    spec = SynthSpec(task=task, dims=dims, informativeness=(1.0,) * M, n_train=n_train,
                     n_valid=40, n_test=60, seed=70 + M, n_classes=classes)
    rng = np.random.default_rng(M * 100 + arms)
    names = tuple(f"m{m}" for m in range(M))
    protocols = [RateVector(names, tuple(rng.uniform(0.0, 0.7, M).tolist())) for _ in range(arms)]
    return spec, [TrainConfig(protocol=p, epochs=2, batch_size=batch_size, learning_rate=0.05,
                              seed=9, hidden=hidden, mei_epoch_stride=1,
                              grad_log_stride=stride) for p in protocols]


class TestWorkspace:
    """A step writes into one workspace per batch size, and its bits stay those of fresh arrays."""

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("case", list(WORKSPACE_CASES))
    def test_runs_equal_the_sequential_loop(self, case, stride):
        # Stride 3 also takes the backward pass over one row (R = 1) on
        # the steps that log no norms, from a second set of arrays.
        spec, configs = _workspace_case(case, stride)
        runs = run_arms(spec, configs)
        for run, config in zip(runs, configs):
            want = sequential_run(spec, config)
            _assert_columns(run, want)
            assert _scores(run.test_tables) == _scores(want.test_tables)
            assert run == want

    @pytest.mark.parametrize("n_train, shapes", [(50, [(16, 4), (16, 1), (2, 1)]),
                                                 (48, [(16, 4), (16, 1)])])
    def test_one_workspace_per_step_shape(self, monkeypatch, n_train, shapes):
        # At stride 2 a logged step backpropagates M + 1 = 4 losses and an
        # unlogged one the full loss alone.
        spec, configs = _lockstep_case(CLASSIFICATION, 3, stride=2)
        spec = dataclasses.replace(spec, n_train=n_train)
        made, seen = [], []

        class Counted(simtrainer._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        real = simtrainer._step

        def recording(*args):
            columns = real(*args)
            seen.append((args[-1], columns))
            return columns

        monkeypatch.setattr(simtrainer, "_Workspace", Counted)
        monkeypatch.setattr(simtrainer, "_step", recording)
        run_arms(spec, configs)
        assert [(ws.B, ws.R) for ws in made] == shapes
        assert len(seen) == 3 * -(-n_train // 16)
        for ws, (task, modality, grads) in seen:
            # The step returns the workspace's own arrays: the same objects,
            # overwritten step after step.
            assert ws is made[shapes.index((ws.B, ws.R))]
            assert task is ws.task_losses and modality is ws.modality_losses
            assert (grads is None) == (ws.R == 1)
            if grads is not None:
                assert grads.base is ws.grads
        for i, first in enumerate(made):
            for second in made[i + 1:]:
                for mine, theirs in zip(vars(first).values(), vars(second).values()):
                    if isinstance(mine, np.ndarray) and mine is not first.fus_W_T:
                        assert not np.shares_memory(mine, theirs)

    def test_loss_and_grads_arrays_outlive_the_next_call(self):
        model, feats, labels, mask = _oracle_batch(REGRESSION, 3, 7, seed=6)
        _, first = loss_and_grads(model, feats, mask, labels, np.full(7, 1.0 / 7))
        kept = {name: [g.copy() for g in grads] if isinstance(grads, list) else grads.copy()
                for name, grads in first.items()}
        _, second = loss_and_grads(model, feats, mask, labels, np.arange(7.0))
        for name, grads in first.items():
            pairs = zip(grads, kept[name]) if isinstance(grads, list) else [(grads, kept[name])]
            for mine, copy in pairs:
                assert np.array_equal(mine, copy), name
        assert not np.array_equal(first["fus_W"], second["fus_W"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNormBlocks:
    """Norms reduced once per block of logged steps equal the per-step sequential loop."""

    # 50 samples in batches of 8: seven steps per epoch, the last of 2 samples.
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("M, stride, hidden, steps", [
        (2, 1, 5, 1), (2, 3, 1, 2), (3, 2, 1, 3), (3, 1, 5, 2), (5, 3, 5, 1), (5, 2, 1, 3),
        (5, 1, 1, 2),
    ])
    def test_blocks_equal_the_sequential_loop(self, monkeypatch, task, M, stride, hidden,
                                              steps):
        # M = 5 has widths (2, 3, 4, 2, 3): groups of two, two and one.
        spec, configs = _lockstep_case(task, M, stride, batch_size=8, hidden=hidden)
        reduced = _force_blocks(monkeypatch, steps, spec, hidden, len(configs))
        runs = run_arms(spec, configs)
        assert reduced == _expected_blocks(3, 7, stride, steps)
        assert max(reduced) == steps
        for run, config in zip(runs, configs):
            assert run.task_losses.shape == (21,)
            assert run == sequential_run(spec, config)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_default_budget_equals_the_sequential_loop(self, monkeypatch, task):
        spec, configs = _lockstep_case(task, 3, 1, batch_size=4, hidden=5)
        reduced = _count_blocks(monkeypatch, len(configs))
        runs = run_arms(spec, configs)
        assert reduced == [13] * 3  # an epoch's 13 steps fit in one block
        for run, config in zip(runs, configs):
            assert run == sequential_run(spec, config)

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("stride, poisoned", [(1, 5), (2, 11)])
    def test_norm_divergence_inside_a_block(self, monkeypatch, capfd, arm, stride, poisoned):
        # Blocks of three logged steps; the poisoned step sits in the middle of one.
        spec, configs = _lockstep_case(REGRESSION, 3, stride, batch_size=8)
        _force_blocks(monkeypatch, 3, spec, 5, len(configs))
        _poison_norms(monkeypatch, {arm: {poisoned}})
        steps = _poison_steps(monkeypatch, {})
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        want = _oracle_error(spec, configs[arm], norm_steps={poisoned})
        assert str(info.value) == want
        assert want.startswith(f"training diverged at step {poisoned} (epoch ")
        assert "gradient norms are not finite" in want
        # Arm 0 is raised when its block is reduced, one logged step later
        # here; arm 1 only after arm 0 has trained to the end.
        assert steps[-1] == (poisoned + stride if arm == 0 else 21)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("norm_step, named", [(4, "gradient norms are not finite"),
                                                  (5, "task loss is inf")])
    def test_task_divergence_after_norms_in_the_same_block(self, monkeypatch, capfd, arm,
                                                           norm_step, named):
        # Blocks of three steps: 4, 5, 6. The head set to 1e300 after step 4
        # makes step 5's loss inf. Non-finite norms at step 4, still in the
        # block, are the error named; at step 5 itself the task loss comes first.
        spec, configs = _lockstep_case(REGRESSION, 3, 1, batch_size=8)
        _force_blocks(monkeypatch, 3, spec, 5, len(configs))
        _poison_norms(monkeypatch, {arm: {norm_step}})
        steps = _poison_steps(monkeypatch, {arm: {4}})
        with pytest.raises(TrainingDivergedError) as info:
            run_arms(spec, configs)
        want = _oracle_error(spec, configs[arm], norm_steps={norm_step}, head_steps={4})
        assert str(info.value) == want
        assert want.startswith(f"training diverged at step {norm_step} (epoch 1): {named}")
        assert steps[-1] == (5 if arm == 0 else 21)
        assert capfd.readouterr().err == ""


class TestLosses:
    """The flat-index loss equals the fancy-indexed one, bit for bit."""

    POOL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 2.5, math.inf, -math.inf, math.nan, 1e308,
                     -1e308, 5e-324])

    @pytest.mark.parametrize("C", [2, 3, 5, 8])
    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    def test_adversarial_logits_equal_the_indexed_loss(self, C, lead):
        rng = np.random.default_rng(C * 10 + len(lead))
        model = small_model(CLASSIFICATION, hidden=2, n_classes=C)
        with np.errstate(over="ignore", invalid="ignore"):
            for trial in range(200):
                B = int(rng.integers(1, 9))
                out = rng.choice(self.POOL, size=lead + (B, C))
                if trial % 2:
                    out = np.where(rng.random(out.shape) < 0.5, out,
                                   rng.standard_normal(out.shape))
                labels = rng.integers(0, C, size=B)
                targets = simtrainer._targets(CLASSIFICATION, labels, C, np.arange(B))
                arms = simtrainer._lockstep(model, lead[0]) if lead else model
                got = simtrainer._losses(arms, out, targets, simtrainer._Workspace(arms, B, 1))
                for mine, theirs in zip(got, indexed_losses(out, labels)):
                    assert mine.shape == theirs.shape
                    assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_labels_outside_the_classes_rejected(self, bad):
        with pytest.raises(DimensionError, match=r"^class labels must lie in \[0, 3\) "):
            simtrainer._targets(CLASSIFICATION, np.array([0, bad]), 3, np.arange(2))

    def test_regression_targets_are_the_labels(self):
        labels = np.array([0.5, -1.0])
        assert simtrainer._targets(REGRESSION, labels, 1, np.arange(2)) == [labels]
