"""Desk-scale multimodal trainer on synthetic data.

The model is deliberately tiny: one affine encoder with a rectifier per
modality, outputs summed and passed through one affine fusion head
(so there are exactly M + 1 parameter modules for gradient logging).
Training is plain gradient descent with hand-written backpropagation in
float64; every run is a pure function of its seeds. Missing modalities
are zero-imputed at the encoder input, with per-sample masks drawn from
a missingness protocol. A zero input gives encoder m the pre-activation
0 W_m + b_m = b_m exactly, so a missing modality adds exactly relu(b_m)
to the fused sum; evaluation runs each encoder once per batch and
re-fuses its outputs for every observed-modality pattern, and scores
every metric from that one prediction. Encoders of equal input width are
stored as one stacked array and run as one matmul. The arms of a paired
run differ only in their masks, so `run_arms` trains them in lockstep:
one model with a leading arm axis, one step per shared batch.

The trainer exists to emit gradient traces and ablation tables for the
equity/learning diagnostics, not to reach competitive accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .equity import (
    DEFAULT_EPSILON,
    MEI_MODES,
    AblationTable,
    MEIResult,
    PerfMetric,
    mei_from_table,
)
from .errors import ConfigError, DimensionError, EmptyDatasetError, TrainingDivergedError
from .learning import (
    GradTrace,
    MLIResult,
    mli,
    samples_from_norms,
    trace_from_norms,
)
from .protocol import (
    MaskMatrix,
    RateVector,
    generate_mask_matrix,
    pattern_bits,
    pattern_code,
)
from .report import config_hash

CLASSIFICATION = "classification"
REGRESSION = "regression"
TASKS = (CLASSIFICATION, REGRESSION)

CLASSIFICATION_METRICS = ("UA", "WA", "F1")
REGRESSION_METRICS = ("MAE", "Corr", "Acc-2")

# Every size (samples, feature and hidden widths, classes, epochs, batch) is
# at most 2^24, far above the largest benchmark dataset (MOSEI, ~23k
# samples), so no array a run allocates can overflow numpy's byte count.
MAX_SIZE = 2**24


def _check_size(name: str, value: int, low: int = 1) -> None:
    if not low <= value <= MAX_SIZE:
        raise ConfigError(f"{name} must be in [{low}, 2^24], got {value}")


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic multimodal dataset description.

    Features are standard normal per modality; a hidden linear map per
    modality produces latent class scores (classification) or a latent
    scalar (regression), combined with the `informativeness` weights.
    Labels are the argmax of the noisy latent scores, or the weighted
    latent sum plus noise. Classification labels are balanced by
    construction (argmax of exchangeable scores).
    """

    task: str
    dims: tuple[int, ...]
    informativeness: tuple[float, ...]
    n_train: int
    n_valid: int
    n_test: int
    seed: int
    n_classes: int = 4
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "informativeness", tuple(float(a) for a in self.informativeness)
        )
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if len(self.dims) < 2:
            raise ConfigError("at least 2 modalities are required")
        if len(self.informativeness) != len(self.dims):
            raise ConfigError(
                f"{len(self.informativeness)} informativeness weights for "
                f"{len(self.dims)} modalities"
            )
        for m, d in enumerate(self.dims):
            _check_size(f"dims[{m}]", d)
        if any(a < 0 for a in self.informativeness) or not any(self.informativeness):
            raise ConfigError(
                "informativeness weights must be nonnegative with at least one positive"
            )
        for name in ("n_train", "n_valid", "n_test"):
            _check_size(name, getattr(self, name))
        if self.task == CLASSIFICATION:
            _check_size("n_classes", self.n_classes, low=2)
        if self.label_noise < 0 or not math.isfinite(self.label_noise):
            raise ConfigError(f"label_noise must be finite and >= 0, got {self.label_noise}")

    @property
    def M(self) -> int:
        return len(self.dims)

    @property
    def out_dim(self) -> int:
        return self.n_classes if self.task == CLASSIFICATION else 1


@dataclass(frozen=True)
class Split:
    """One dataset split: per-modality feature blocks plus labels."""

    features: tuple[np.ndarray, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = []
        n = self.labels.shape[0]
        for block in self.features:
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != n:
                raise DimensionError(
                    f"feature block of shape {block.shape} does not match {n} labels"
                )
            block.setflags(write=False)
            feats.append(block)
        labels = np.asarray(self.labels)
        labels.setflags(write=False)
        object.__setattr__(self, "features", tuple(feats))
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def take(self, idx: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        return [f[idx] for f in self.features], self.labels[idx]


@dataclass(frozen=True)
class SynthDataset:
    spec: SynthSpec
    train: Split
    valid: Split
    test: Split


def gen_synthetic(spec: SynthSpec) -> SynthDataset:
    """Generate the dataset; identical specs give identical datasets."""
    map_ss, train_ss, valid_ss, test_ss = np.random.SeedSequence(spec.seed).spawn(4)
    map_rng = np.random.default_rng(map_ss)
    # Orthonormal map columns make each modality's latent contribution
    # exactly isotropic unit-variance, so equal informativeness weights
    # mean exactly equal signal strength (no per-seed channel asymmetry).
    # When the feature width is below the latent width, orthonormality is
    # impossible; columns are unit-normalised instead.
    hidden_maps = []
    for d in spec.dims:
        raw = map_rng.standard_normal((d, spec.out_dim))
        if d >= spec.out_dim:
            q, r = np.linalg.qr(raw)
            hidden_maps.append(q * np.sign(np.diag(r)))
        else:
            hidden_maps.append(raw / np.linalg.norm(raw, axis=0))

    def make_split(n: int, ss: np.random.SeedSequence) -> Split:
        rng = np.random.default_rng(ss)
        feats = [rng.standard_normal((n, d)) for d in spec.dims]
        latent = np.zeros((n, spec.out_dim))
        for a, x, w in zip(spec.informativeness, feats, hidden_maps):
            latent += a * (x @ w)
        if spec.task == CLASSIFICATION:
            scores = latent + spec.label_noise * rng.standard_normal(latent.shape)
            labels = scores.argmax(axis=1).astype(np.int64)
        else:
            labels = latent[:, 0] + spec.label_noise * rng.standard_normal(n)
        return Split(features=tuple(feats), labels=labels)

    return SynthDataset(
        spec=spec,
        train=make_split(spec.n_train, train_ss),
        valid=make_split(spec.n_valid, valid_ss),
        test=make_split(spec.n_test, test_ss),
    )


def _width_groups(dims: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Modalities grouped by input width, in order of each width's first modality."""
    groups: dict[int, list[int]] = {}
    for m, d in enumerate(dims):
        groups.setdefault(d, []).append(m)
    return tuple(tuple(group) for group in groups.values())


class ToyModel:
    """Per-modality affine encoders + rectifier, summed into an affine head.

    Parameter modules for gradient logging: module m (< M) is encoder m
    (weights and bias), module M is the fusion head.

    Encoders of equal input width d form one group (`groups`, in order of
    each width's first modality), whose weights are one (G, d, H) array in
    `group_W`; the M biases are one (M, H) array, `enc_bias`. Both hold
    the modalities group by group: modality m sits at `slots[m]` of the M
    axis. `enc_W[m]` and `enc_b[m]` are views of modality m's slices, so
    an update through either form reaches both.

    Every array may carry one leading arm axis of length A: group weights
    (A, G, d, H), biases (A, M, H), head weight (A, H, C) and bias (A, C).
    Such a model holds A models that `train_step` trains in lockstep on
    one shared batch; `arm(a)` is arm a as a plain model of views, for
    evaluation.
    """

    def __init__(
        self,
        enc_W: Sequence[np.ndarray],
        enc_b: Sequence[np.ndarray],
        fus_W: np.ndarray,
        fus_b: np.ndarray,
        task: str,
    ):
        enc_W = [np.asarray(w, dtype=np.float64) for w in enc_W]
        enc_b = [np.asarray(b, dtype=np.float64) for b in enc_b]
        fus_W = np.asarray(fus_W, dtype=np.float64)
        fus_b = np.asarray(fus_b, dtype=np.float64)
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        if len(enc_W) != len(enc_b) or len(enc_W) < 2:
            raise DimensionError("need one (W, b) pair per modality, at least 2")
        if fus_W.ndim not in (2, 3):
            raise DimensionError("the fusion weight must be (H, C), or (A, H, C) with an arm axis")
        lead, hidden = fus_W.shape[:-2], fus_W.shape[-2]
        for w, b in zip(enc_W, enc_b):
            if (w.ndim != fus_W.ndim or w.shape[:-2] != lead or w.shape[-1] != hidden
                    or b.shape != lead + (hidden,)):
                raise DimensionError("encoder shapes are inconsistent with the fusion head")
        if fus_b.shape != lead + fus_W.shape[-1:]:
            raise DimensionError("fusion bias does not match the fusion weight")
        groups = _width_groups([w.shape[-2] for w in enc_W])
        self._bind(
            groups,
            [np.stack([enc_W[m] for m in group], axis=-3) for group in groups],
            np.stack([enc_b[m] for group in groups for m in group], axis=-2),
            fus_W,
            fus_b,
            task,
        )

    def _bind(self, groups, group_W, enc_bias, fus_W, fus_b, task) -> None:
        self.groups = groups
        self.group_W = group_W
        self.enc_bias = enc_bias
        self.fus_W = fus_W
        self.fus_b = fus_b
        self.task = task
        self.order = np.array([m for group in groups for m in group])
        self.slots = np.argsort(self.order)
        ends = np.cumsum([len(group) for group in groups]).tolist()
        self.spans = tuple(slice(end - len(group), end) for group, end in zip(groups, ends))
        self.enc_W = self.per_modality(group_W)
        self.enc_b = [enc_bias[..., s, :] for s in self.slots]

    def per_modality(self, group_arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Modality m's slice of per-group arrays whose group axis is third from last."""
        views = [None] * self.M
        for group, arr in zip(self.groups, group_arrays):
            for j, m in enumerate(group):
                views[m] = arr[..., j, :, :]
        return views

    def _map(self, fn) -> "ToyModel":
        """The model whose every parameter array is `fn` of this model's."""
        model = object.__new__(ToyModel)
        model._bind(self.groups, [fn(w) for w in self.group_W], fn(self.enc_bias),
                    fn(self.fus_W), fn(self.fus_b), self.task)
        return model

    @property
    def M(self) -> int:
        return len(self.order)

    @property
    def module_count(self) -> int:
        return self.M + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.shape[-2] for w in self.enc_W)

    @property
    def arms(self) -> int | None:
        """The length A of the arm axis, or None for a plain model."""
        return self.fus_W.shape[0] if self.fus_W.ndim == 3 else None

    def arm(self, a: int) -> "ToyModel":
        """Arm a of a model with an arm axis, as a plain model of views into its arrays."""
        if self.arms is None:
            raise DimensionError("a plain model has no arm axis to take an arm from")
        return self._map(lambda p: p[a])

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays, mutated in place by updates."""
        named = []
        for m in range(self.M):
            named.append((f"enc_W[{m}]", self.enc_W[m]))
            named.append((f"enc_b[{m}]", self.enc_b[m]))
        named.append(("fus_W", self.fus_W))
        named.append(("fus_b", self.fus_b))
        return named

    def clone(self) -> "ToyModel":
        return self._map(np.copy)


def _lockstep(model: ToyModel, arms: int | None = None) -> ToyModel:
    """A plain `model` with an arm axis: one arm of views into it, or `arms` copies."""
    if arms is None:
        return model._map(lambda p: p[None])
    return model._map(lambda p: np.repeat(p[None], arms, axis=0))


def init_model(
    dims: Sequence[int],
    hidden: int,
    task: str,
    n_classes: int,
    rng: np.random.Generator,
) -> ToyModel:
    """Scaled normal weights, zero biases."""
    if hidden < 1:
        raise ConfigError(f"hidden width must be >= 1, got {hidden}")
    out_dim = n_classes if task == CLASSIFICATION else 1
    enc_W = [rng.standard_normal((d, hidden)) * math.sqrt(2.0 / d) for d in dims]
    enc_b = [np.zeros(hidden) for _ in dims]
    fus_W = rng.standard_normal((hidden, out_dim)) * math.sqrt(1.0 / hidden)
    fus_b = np.zeros(out_dim)
    return ToyModel(enc_W, enc_b, fus_W, fus_b, task)


def _encode(model: ToyModel, features: Sequence[np.ndarray], present: np.ndarray | None = None):
    """Grouped inputs x and encoder outputs h = relu(x W + b).

    x is one (..., G, B, d) array per width group; h is an (..., M, B, H)
    array in slot order (`ToyModel.slots`), rectified in place, so no
    second array of its size is made. Evaluation
    passes a plain model and no `present`. Training passes a model with
    an arm axis and the (A, M, B) observed flags `present`, in modality
    order, which zero each arm's missing inputs; the features are shared.
    """
    if len(features) != model.M:
        raise DimensionError(f"got {len(features)} feature blocks for M={model.M}")
    if present is None and model.arms is not None:
        raise DimensionError("evaluate a model with an arm axis one arm at a time")
    feats = []
    for m in range(model.M):
        x = np.asarray(features[m], dtype=np.float64)
        width = model.enc_W[m].shape[-2]
        if x.ndim != 2 or x.shape[1] != width:
            raise DimensionError(
                f"modality {m}: features of shape {x.shape} do not match encoder "
                f"input width {width}"
            )
        if feats and x.shape[0] != feats[0].shape[0]:
            raise DimensionError(
                f"modality {m}: {x.shape[0]} feature rows, modality 0 has {feats[0].shape[0]}"
            )
        feats.append(x)
    if present is not None:
        present = present[:, model.order, :, None]
    u = np.empty(model.enc_bias.shape[:-1] + (feats[0].shape[0], model.fus_W.shape[-2]))
    xs = []
    for group, span, W in zip(model.groups, model.spans, model.group_W):
        x = np.array([feats[m] for m in group])
        if present is not None:
            x = x * present[:, span]
        np.matmul(x, W, out=u[..., span, :, :])
        xs.append(x)
    u += model.enc_bias[..., None, :]
    return xs, np.maximum(u, 0.0, out=u)


def _fuse(model: ToyModel, hs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sum encoder outputs in modality order, then apply the head; returns (sum, output)."""
    s = hs[0]
    for h in hs[1:]:
        s = s + h
    return s, np.matmul(s, model.fus_W) + model.fus_b[..., None, :]


def _forward_batch(
    model: ToyModel, features: Sequence[np.ndarray], present: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Masked forward pass for training; returns (output, cache for backprop)."""
    xs, h = _encode(model, features, present)
    s, out = _fuse(model, [h[:, slot] for slot in model.slots])
    return out, (xs, h, s)


def _predict(model: ToyModel, h: np.ndarray, bits: Sequence) -> np.ndarray:
    """Output under one bit row from slot-order encoder outputs `h`; a missing modality adds relu(b_m)."""
    hs = [h[slot] if bit else np.maximum(b, 0.0)
          for slot, b, bit in zip(model.slots, model.enc_b, bits)]
    _, out = _fuse(model, hs)
    return out if model.task == CLASSIFICATION else out[:, 0]


def forward(model: ToyModel, features: Sequence[np.ndarray], bits: Sequence) -> np.ndarray:
    """Predictions for a batch under one 0/1 mask pattern (zero-imputed inputs).

    `bits` is a length-M 0/1 sequence, such as a row of `pattern_bits(M)`.
    Returns logits of shape (n, C) for classification, scalar
    predictions of shape (n,) for regression.
    """
    pattern_code(bits, model.M)  # raises on a bad pattern; the code is not needed
    feats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in features]
    return _predict(model, _encode(model, feats)[1], bits)


def _losses(model: ToyModel, out: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and their residuals d loss_i / d out_i.

    Residuals have the output's shape for classification; for regression
    they drop its last axis, the single output.
    """
    if model.task == CLASSIFICATION:
        shifted = out - out.max(axis=-1, keepdims=True)
        expd = np.exp(shifted)
        total = expd.sum(axis=-1, keepdims=True)
        rows = np.arange(out.shape[-2])
        resid = expd / total
        resid[..., rows, labels] -= 1.0
        return np.log(total[..., 0]) - shifted[..., rows, labels], resid
    diff = out[..., 0] - labels
    return diff**2, 2.0 * diff


def _backward(
    model: ToyModel,
    cache: tuple,
    resid: np.ndarray,
    weights: np.ndarray,
) -> dict:
    """Gradients of R weighted losses sum_i weights[a, r, i] * loss_i, as (A, R, ...) arrays.

    `model` carries an arm axis, and `resid` holds each arm's residuals
    from `_losses`. Gradients are linear in the sample weights, so each
    row of the (A, R, B) `weights` scales the residuals; each width group
    of encoders, and the head, then gets the gradients of every arm and
    row from one stacked matmul. "enc_W" is one (A, R, G, d, H) array per
    group and "enc_b" one (A, R, M, H) array in slot order.
    """
    xs, h, s = cache
    if model.task == CLASSIFICATION:
        dout = weights[..., None] * resid[:, None]
        fus_b = dout.sum(axis=2)
    else:
        # fus_b sums each (A, R, B) row over its contiguous last axis, in
        # the order of the (B, 1) column sum of a single weighting.
        scaled = resid[:, None] * weights
        dout = scaled[..., None]
        fus_b = scaled.sum(axis=-1)[..., None]
    ds = np.matmul(dout, model.fus_W.transpose(0, 2, 1)[:, None])
    # h > 0 exactly where the pre-activation is: relu keeps the sign, and a NaN fails both.
    du = ds[:, :, None] * (h > 0.0)[:, None]
    return {
        "fus_W": np.matmul(s.transpose(0, 2, 1)[:, None], dout),
        "fus_b": fus_b,
        "enc_W": [np.matmul(x.swapaxes(-1, -2)[:, None], du[:, :, span])
                  for x, span in zip(xs, model.spans)],
        "enc_b": du.sum(axis=3),
    }


def loss_and_grads(
    model: ToyModel,
    features: Sequence[np.ndarray],
    mask: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
) -> tuple[float, dict]:
    """Weighted loss sum_i w_i * loss_i and its parameter gradients (plain model)."""
    mask = _checked_mask(mask, (labels.shape[0], model.M))
    stacked = _lockstep(model)
    present = mask.T[None]
    out, cache = _forward_batch(stacked, features, present)
    losses, resid = _losses(stacked, out, labels)
    grads = _backward(stacked, cache, resid, np.asarray(sample_weights)[None, None])
    return float((losses[0] * sample_weights).sum()), {
        "fus_W": grads["fus_W"][0, 0],
        "fus_b": grads["fus_b"][0, 0],
        "enc_W": model.per_modality([g[0, 0] for g in grads["enc_W"]]),
        "enc_b": [grads["enc_b"][0, 0, s] for s in model.slots],
    }


def _checked_mask(mask: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != batch:
        raise DimensionError(f"mask of shape {mask.shape} does not match batch {batch}")
    return mask


def _squared_norms(model: ToyModel, grads: dict) -> np.ndarray:
    """(A, M, M + 1) squared L2 norms of each module's gradient of each L_m.

    Modules are the M encoders in modality order, then the fusion head.
    Only the first M rows of `grads`, the modality losses, are reduced;
    the last row, the full batch loss, drives the update alone.
    """
    M = model.M
    enc_b = grads["enc_b"][:, :M]
    enc = np.empty(enc_b.shape[:3])
    for w, span in zip(grads["enc_W"], model.spans):
        enc[..., span] = (w[:, :M] ** 2).sum(axis=(3, 4))
    enc += (enc_b**2).sum(axis=3)
    sq = np.empty(enc.shape[:2] + (M + 1,))
    sq[..., :M] = enc[..., model.slots]
    sq[..., M] = (grads["fus_W"][:, :M] ** 2).sum(axis=(2, 3)) + (
        grads["fus_b"][:, :M] ** 2
    ).sum(axis=2)
    return sq


@dataclass(frozen=True)
class StepLog:
    """One training step's losses and, when logged, its gradient norms.

    `grad_norms[m, k]` is the L2 norm of module k's gradient of L_m, a
    read-only (M, M + 1) float64 array; row m is unused (zero) where
    `modality_losses[m]` is None. It is None on steps that log no
    gradients (`TrainConfig.grad_log_stride`).
    """

    step: int
    task_loss: float
    modality_losses: tuple[float | None, ...]
    grad_norms: np.ndarray | None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepLog):
            return NotImplemented
        mine, theirs = self.grad_norms, other.grad_norms
        return (
            (self.step, self.task_loss, self.modality_losses)
            == (other.step, other.task_loss, other.modality_losses)
            and (mine is None) == (theirs is None)
            and (mine is None or np.array_equal(mine, theirs))
        )


def train_step(
    model: ToyModel,
    features: Sequence[np.ndarray],
    mask: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    step: int = 1,
    log_grads: bool = True,
) -> StepLog | tuple[StepLog, ...]:
    """One plain gradient-descent step on the mean batch loss.

    Also evaluates, at the pre-update parameters and without applying
    them, the gradients of each modality-restricted loss L_m (mean loss
    over samples where m is observed) and logs one gradient norm per
    module. A modality absent from the whole batch yields L_m = None
    and a zero row of weights, so its row of norms stays zero. The M
    restricted losses and the full batch loss share one backward pass;
    the parameter update uses only the full batch loss (the last row).

    A model with an arm axis (see `ToyModel`) takes the step for all A
    arms at once on the shared `features` and `labels`: `mask` is then
    (A, B, M), one mask per arm, and the result is a tuple of A StepLogs.
    A plain model is the case A = 1 with a (B, M) mask and one StepLog.
    """
    B = labels.shape[0]
    if B == 0:
        raise EmptyDatasetError("training batch is empty")
    plain = model.arms is None
    mask = _checked_mask(mask, (B, model.M) if plain else (model.arms, B, model.M))
    if plain:
        model, mask = _lockstep(model), mask[None]
    # (A, M, B) with each modality's flags contiguous, so that every sum
    # over the batch below runs along a contiguous row.
    present = np.ascontiguousarray(mask.transpose(0, 2, 1))
    A, M = present.shape[:2]
    out, cache = _forward_batch(model, features, present)
    losses, resid = _losses(model, out, labels)
    counts = present.sum(axis=-1)
    divisors = np.maximum(counts, 1.0)
    modality_losses = (losses[:, None] * present).sum(axis=-1) / divisors

    if log_grads:
        weights = np.empty((A, M + 1, B))
        weights[:, :M] = present / divisors[..., None]
        weights[:, M] = 1.0 / B
    else:
        weights = np.full((A, 1, B), 1.0 / B)
    grads = _backward(model, cache, resid, weights)
    grad_norms = None
    if log_grads:
        grad_norms = np.sqrt(_squared_norms(model, grads))
        grad_norms.setflags(write=False)

    for W, grad in zip(model.group_W, grads["enc_W"]):
        W -= learning_rate * grad[:, -1]
    model.enc_bias -= learning_rate * grads["enc_b"][:, -1]
    model.fus_W -= learning_rate * grads["fus_W"][:, -1]
    model.fus_b -= learning_rate * grads["fus_b"][:, -1]

    task_losses = losses.mean(axis=-1).tolist()
    observed = (counts > 0).tolist()
    logs = tuple(
        StepLog(
            step=step,
            task_loss=task_losses[a],
            modality_losses=tuple(
                loss if seen else None for loss, seen in zip(row, observed[a])
            ),
            grad_norms=None if grad_norms is None else grad_norms[a],
        )
        for a, row in enumerate(modality_losses.tolist())
    )
    return logs[0] if plain else logs


# ---------------------------------------------------------------------------
# Evaluation metrics: classification scores from one confusion count,
# regression scores from the label and prediction vectors


def _confusion(y_true: np.ndarray, y_pred: np.ndarray, classes: int) -> list[list[int]]:
    """(C, C) counts: row c holds the samples of true class c by predicted class."""
    counts = np.bincount(y_true * classes + y_pred, minlength=classes * classes)
    return counts.reshape(classes, classes).tolist()


def _ua(confusion: list[list[int]]) -> float:
    """Unweighted accuracy: mean per-class recall over the classes present."""
    recalls = [row[c] / sum(row) for c, row in enumerate(confusion) if sum(row)]
    return float(np.mean(recalls))


def _wa(confusion: list[list[int]]) -> float:
    """Weighted accuracy: plain fraction of correct predictions."""
    return sum(row[c] for c, row in enumerate(confusion)) / sum(map(sum, confusion))


def _f1_weighted(confusion: list[list[int]]) -> float:
    """Support-weighted mean of per-class F1 scores over the classes present."""
    n = sum(map(sum, confusion))
    total = 0.0
    for c, row in enumerate(confusion):
        support = sum(row)
        if not support:
            continue
        tp = float(row[c])
        fp = float(sum(other[c] for other in confusion)) - tp
        fn = float(support) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        total += f1 * float(support) / n
    return total


def _mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.abs(y_pred - y_true).mean())


def _corr(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Pearson correlation; 0 when either side has zero variance."""
    st, sp = y_true.std(), y_pred.std()
    if st == 0.0 or sp == 0.0:
        return 0.0
    return float(((y_true - y_true.mean()) * (y_pred - y_pred.mean())).mean() / (st * sp))


def _acc2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Binary sign agreement (zero counted as nonnegative)."""
    return float(((y_pred >= 0) == (y_true >= 0)).mean())


# Classification metrics score a confusion count, regression metrics the
# (labels, predictions) vectors.
_CLASSIFICATION_FUNS = {"UA": _ua, "WA": _wa, "F1": _f1_weighted}
_REGRESSION_FUNS = {"MAE": _mae, "Corr": _corr, "Acc-2": _acc2}


def default_metrics(task: str) -> tuple[PerfMetric, ...]:
    names = CLASSIFICATION_METRICS if task == CLASSIFICATION else REGRESSION_METRICS
    return tuple(PerfMetric.named(name) for name in names)


def _metric_function(task: str, metric: PerfMetric):
    funs = _CLASSIFICATION_FUNS if task == CLASSIFICATION else _REGRESSION_FUNS
    fun = funs.get(metric.name)
    if fun is None:
        raise ConfigError(
            f"metric {metric.name!r} is not defined for {task}; choose from {sorted(funs)}"
        )
    return fun


def ablation_table(
    model: ToyModel, split: Split, metrics: Sequence[PerfMetric]
) -> tuple[AblationTable, ...]:
    """One table per metric over every nonempty modality combination on a clean split.

    The split is encoded once and each pattern predicted once; every
    metric scores that one prediction, a classification metric through
    the pattern's confusion count.
    """
    funs = [_metric_function(model.task, metric) for metric in metrics]
    h = _encode(model, split.features)[1]
    labels = split.labels
    classes = model.fus_W.shape[-1]
    if model.task == CLASSIFICATION and labels.size and not (
        labels.min() >= 0 and labels.max() < classes
    ):
        raise DimensionError(f"class labels must lie in [0, {classes}) for {classes} outputs")
    scores = np.empty((len(funs), (1 << model.M) - 1))
    for p, bits in enumerate(pattern_bits(model.M)):
        out = _predict(model, h, bits)
        if model.task == CLASSIFICATION:
            confusion = _confusion(labels, out.argmax(axis=1), classes)
            scores[:, p] = [fun(confusion) for fun in funs]
        else:
            scores[:, p] = [fun(labels, out) for fun in funs]
    return tuple(
        AblationTable(M=model.M, metric=metric, scores=row) for metric, row in zip(metrics, scores)
    )


def dataset_loss(model: ToyModel, split: Split) -> float:
    """Mean per-sample task loss on a clean, fully observed split."""
    h = _encode(model, split.features)[1]
    _, out = _fuse(model, [h[slot] for slot in model.slots])
    return float(_losses(model, out, split.labels)[0].mean())


# ---------------------------------------------------------------------------
# Experiment driver


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters plus the training-time missingness protocol.

    Evaluation (ablation tables) always runs on clean data; the
    protocol corrupts training batches only. Masks are drawn once per
    sample and fixed across epochs unless `resample_masks_per_epoch`.
    """

    protocol: RateVector
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    hidden: int = 16
    mei_epoch_stride: int = 5
    grad_log_stride: int = 1
    resample_masks_per_epoch: bool = False
    epsilon: float = DEFAULT_EPSILON
    metrics: tuple[PerfMetric, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "hidden"):
            _check_size(name, getattr(self, name))
        for name in ("mei_epoch_stride", "grad_log_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.learning_rate > 0 or not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))


@dataclass(frozen=True)
class RunLog:
    """Complete record of one training run; replayable from (spec, config)."""

    spec: SynthSpec
    config: TrainConfig
    config_hash: str
    steps: tuple[StepLog, ...]
    mask_matrices: tuple[MaskMatrix, ...]
    valid_tables: tuple[tuple[int, tuple[AblationTable, ...]], ...]
    test_tables: tuple[AblationTable, ...]
    trace: GradTrace
    mli_result: MLIResult
    mei_results: tuple[tuple[str, MEIResult], ...] = field(default=())

    def mei(self, metric_name: str, mode: str) -> MEIResult:
        for name, result in self.mei_results:
            if name == metric_name and result.mode == mode:
                return result
        raise KeyError(f"no MEI result for metric {metric_name!r}, mode {mode!r}")

    def grad_samples(self) -> np.ndarray:
        """The logged norms as `GRAD_SAMPLE_DTYPE` rows in (step, modality, module) order."""
        return samples_from_norms(*_logged_norms(self.steps))


def _logged_norms(steps: Sequence[StepLog]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Step numbers, (T, M, K) norms and (T, M) defined flags of the steps that logged norms."""
    logged = [log for log in steps if log.grad_norms is not None]
    return (
        [log.step for log in logged],
        np.stack([log.grad_norms for log in logged]),
        np.array([[loss is not None for loss in log.modality_losses] for log in logged]),
    )


def describe_run(spec: SynthSpec, config: TrainConfig) -> dict:
    """JSON-ready description of a run; its hash identifies the run."""
    cfg = asdict(config)
    cfg["metrics"] = [
        asdict(m) for m in (config.metrics or default_metrics(spec.task))
    ]
    return {"spec": asdict(spec), "train": cfg}


def _diverged(
    step: int, epoch: int, what: str, last_finite: tuple[int, float] | None
) -> TrainingDivergedError:
    last = "none" if last_finite is None else f"{last_finite[1]!r} at step {last_finite[0]}"
    return TrainingDivergedError(
        f"training diverged at step {step} (epoch {epoch}): {what}; "
        f"last finite loss: {last}"
    )


def run_experiment(spec: SynthSpec, config: TrainConfig) -> RunLog:
    """Train, log gradients, evaluate ablations, compute both diagnostics.

    All randomness flows from spec.seed (data) and config.seed
    (initialisation, shuffling, masks); identical inputs give an
    identical RunLog. A step whose loss or logged gradient norms are not
    finite, or parameters that are not finite at the end of an epoch,
    raise `TrainingDivergedError` before anything is evaluated. This is
    the one-arm case of `run_arms`.
    """
    return run_arms(spec, [config])[0]


def run_arms(spec: SynthSpec, configs: Sequence[TrainConfig]) -> tuple[RunLog, ...]:
    """Train one arm per config in lockstep; arm a's RunLog is `run_experiment(spec, configs[a])`.

    The configs may differ in `protocol` alone, so the arms share their
    data, initialisation and shuffle order: every step draws one batch
    and takes it through one `train_step` with one mask per arm. Errors
    are those of running the configs one after another: arm 0's
    divergence is raised at once; any other arm's only after every arm
    before it has trained and been evaluated. A diverged arm's slice
    keeps stepping, apart from the others, and is never evaluated.
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigError("at least one training config is required")
    config = configs[0]
    for a, other in enumerate(configs[1:], 1):
        differing = [
            f.name for f in fields(TrainConfig)
            if f.name != "protocol" and getattr(other, f.name) != getattr(config, f.name)
        ]
        if differing:
            raise ConfigError(
                f"arm {a} differs from arm 0 in {', '.join(differing)}; "
                "lockstep arms may differ in their protocol only"
            )
    for other in configs:
        if other.protocol.M != spec.M:
            raise DimensionError(
                f"protocol has {other.protocol.M} modalities, data has {spec.M}"
            )
    # What would only fail at evaluation fails here, before the first step.
    pattern_bits(spec.M)
    metrics = config.metrics or default_metrics(spec.task)
    for metric in metrics:
        _metric_function(spec.task, metric)
    dataset = gen_synthetic(spec)

    init_ss, shuffle_ss, mask_ss = np.random.SeedSequence(config.seed).spawn(3)
    model = _lockstep(
        init_model(
            spec.dims, config.hidden, spec.task, spec.n_classes, np.random.default_rng(init_ss)
        ),
        len(configs),
    )
    n_matrices = config.epochs if config.resample_masks_per_epoch else 1
    mask_seeds = mask_ss.generate_state(n_matrices, np.uint64)
    matrices = [
        tuple(generate_mask_matrix(c.protocol, spec.n_train, int(s)) for s in mask_seeds)
        for c in configs
    ]
    shuffle_rng = np.random.default_rng(shuffle_ss)

    steps: list[list[StepLog]] = [[] for _ in configs]
    valid_tables: list[list[tuple[int, tuple[AblationTable, ...]]]] = [[] for _ in configs]
    errors: list[TrainingDivergedError | None] = [None] * len(configs)
    last_finite: list[tuple[int, float] | None] = [None] * len(configs)
    step = 0
    for epoch in range(1, config.epochs + 1):
        if epoch == 1 or config.resample_masks_per_epoch:
            # (A, M, N) float flags, cast once per mask matrix.
            present = np.array(
                [arm[epoch - 1 if config.resample_masks_per_epoch else 0].masks.T
                 for arm in matrices],
                dtype=np.float64,
            )
        order = shuffle_rng.permutation(spec.n_train)
        for start in range(0, spec.n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            feats, labels = dataset.train.take(idx)
            step += 1
            # A diverging step overflows to inf/nan; the checks below report
            # it with its step and epoch, so numpy's warnings add only noise.
            with np.errstate(over="ignore", invalid="ignore"):
                logs = train_step(
                    model,
                    feats,
                    present[:, :, idx].transpose(0, 2, 1),
                    labels,
                    config.learning_rate,
                    step=step,
                    log_grads=(step - 1) % config.grad_log_stride == 0,
                )
            for a, log in enumerate(logs):
                if errors[a] is not None:
                    continue
                if not math.isfinite(log.task_loss):
                    errors[a] = _diverged(
                        step, epoch, f"task loss is {log.task_loss!r}", last_finite[a]
                    )
                elif log.grad_norms is not None and not np.isfinite(log.grad_norms).all():
                    errors[a] = _diverged(
                        step, epoch, "gradient norms are not finite", last_finite[a]
                    )
                else:
                    last_finite[a] = (step, log.task_loss)
                    steps[a].append(log)
            if errors[0] is not None:
                raise errors[0]
        for a in range(len(configs)):
            if errors[a] is None and not all(
                np.isfinite(p[a]).all() for _, p in model.parameters()
            ):
                errors[a] = _diverged(step, epoch, "parameters are not finite", last_finite[a])
        if errors[0] is not None:
            raise errors[0]
        if epoch % config.mei_epoch_stride == 0 or epoch == config.epochs:
            for a in range(len(configs)):
                if errors[a] is None:
                    tables = ablation_table(model.arm(a), dataset.valid, metrics)
                    valid_tables[a].append((epoch, tables))

    runs = []
    for a, arm_config in enumerate(configs):
        if errors[a] is not None:
            raise errors[a]
        arm = model.arm(a)
        test_tables = ablation_table(arm, dataset.test, metrics)
        trace = trace_from_norms(*_logged_norms(steps[a]))
        mei_results = tuple(
            (table.metric.name, mei_from_table(table, arm_config.epsilon, mode))
            for table in test_tables
            for mode in MEI_MODES
        )
        runs.append(RunLog(
            spec=spec,
            config=arm_config,
            config_hash=config_hash(describe_run(spec, arm_config)),
            steps=tuple(steps[a]),
            mask_matrices=matrices[a],
            valid_tables=tuple(valid_tables[a]),
            test_tables=test_tables,
            trace=trace,
            mli_result=mli(trace),
            mei_results=mei_results,
        ))
    return tuple(runs)
