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
every metric from that one prediction. The forward pass writes into
arrays its caller owns: a training step's workspace, or arrays that an
evaluation call makes once for all its patterns. Encoders of equal input
width are stored as one stacked array and run as one matmul. A model's
parameters live in one flat array, and a step's gradients in one array
of the same layout, so an update is one subtraction. `run_arms` trains
any list of configs; those that differ only in their protocol, such as
the arms of a paired run, differ only in their masks, so it trains them
in lockstep: one model with a leading arm axis, one step per shared
batch, whose arrays live in a workspace made once per batch size. It is
the one driver of a training step; `loss_and_grads` runs the same
forward and backward pass on one batch of a plain model, for gradient
checks. A run's steps are recorded in columns (`RunLog`), not in
per-step objects.

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
from .errors import ConfigError, DimensionError, TrainingDivergedError
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

    Every parameter lives in one contiguous array `flat` of shape (P,):
    the weights of each width group, then the encoder biases, the head
    weight and the head bias, each flattened (`shapes`). Encoders of
    equal input width d form one group (`groups`, in order of each
    width's first modality), whose weights `group_W` views as one
    (G, d, H) array; `enc_bias` views the M biases as one (M, H) array.
    Both hold the modalities group by group: modality m sits at
    `slots[m]` of the M axis. `fus_W` (H, C), `fus_b` (C,), `enc_W[m]`
    and `enc_b[m]` are views too, so an update through any form, `flat`
    included, reaches all of them.

    The constructor takes one model's plain arrays. `_run_group` gives
    `flat` a leading arm axis of length A, and every view with it
    (`_lockstep`): A models that it trains in lockstep on one shared
    batch. `arm(a)` is arm a as a plain model of views, for evaluation.
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
        if fus_W.ndim != 2:
            raise DimensionError(f"the fusion weight must be (H, C), got shape {fus_W.shape}")
        hidden, classes = fus_W.shape
        for w, b in zip(enc_W, enc_b):
            if w.ndim != 2 or w.shape[1] != hidden or b.shape != (hidden,):
                raise DimensionError("encoder shapes are inconsistent with the fusion head")
        if fus_b.shape != (classes,):
            raise DimensionError("fusion bias does not match the fusion weight")
        groups = _width_groups([w.shape[0] for w in enc_W])
        shapes = (*((len(group), enc_W[group[0]].shape[0], hidden) for group in groups),
                  (len(enc_W), hidden), (hidden, classes), (classes,))
        self._bind(groups, shapes, np.empty(sum(map(math.prod, shapes))), task)
        for mine, given in zip(self.enc_W + self.enc_b + [self.fus_W, self.fus_b],
                               enc_W + enc_b + [fus_W, fus_b]):
            mine[...] = given

    def _bind(self, groups, shapes, flat, task) -> None:
        self.groups = groups
        self.shapes = shapes
        self.flat = flat
        self.task = task
        *self.group_W, self.enc_bias, self.fus_W, self.fus_b = self.segments(flat)
        self.order = np.array([m for group in groups for m in group])
        self.slots = np.argsort(self.order)
        ends = np.cumsum([len(group) for group in groups]).tolist()
        self.spans = tuple(slice(end - len(group), end) for group, end in zip(groups, ends))
        self.enc_W = self.per_modality(self.group_W)
        self.enc_b = [self.enc_bias[..., s, :] for s in self.slots]

    def segments(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of an (..., P) array in the layout of `flat`, its leading axes kept.

        One (..., G, d, H) array per width group, then (..., M, H),
        (..., H, C) and (..., C): a gradient or its square, laid out as
        the parameters are, splits into the same modules.
        """
        views, end = [], 0
        for shape in self.shapes:
            start, end = end, end + math.prod(shape)
            views.append(flat[..., start:end].reshape(flat.shape[:-1] + shape))
        return views

    def per_modality(self, group_arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Modality m's slice of per-group arrays whose group axis is third from last."""
        views = [None] * self.M
        for group, arr in zip(self.groups, group_arrays):
            for j, m in enumerate(group):
                views[m] = arr[..., j, :, :]
        return views

    def _map(self, fn) -> "ToyModel":
        """The model whose parameter array is `fn` of this model's `flat`."""
        model = object.__new__(ToyModel)
        model._bind(self.groups, self.shapes, fn(self.flat), self.task)
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


def _grouped(model: ToyModel, features: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The M feature blocks, checked, as one stacked (G, n, d) array per width group."""
    if len(features) != model.M:
        raise DimensionError(f"got {len(features)} feature blocks for M={model.M}")
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
    return [np.array([feats[m] for m in group]) for group in model.groups]


class _Workspace:
    """Every array that one training step of `model` on B samples and R weighted losses writes.

    `_run_group`, the one driver of `_step`, keeps one per step shape
    (B, R), so that its steps allocate nothing; `loss_and_grads` makes a
    fresh one per call, so the arrays it returns are its alone. `_encode`
    and `_fuse` write the forward pass into `h`, `s` and `out`, and
    `_losses`, `_backward` and `_step` the rest with `out=`, with the same
    reductions in the same order as on fresh arrays, so every bit is the
    same. `_backward` reads the step's `h` and `s` from here. The views
    of the model's parameters stay valid because updates write into
    `model.flat` in place. Shapes carry the model's leading arm axis,
    which both callers give it, as `lead`.
    """

    def __init__(self, model: ToyModel, B: int, R: int):
        self.model, self.B, self.R = model, B, R
        lead, M = model.flat.shape[:-1], model.M
        H, C = model.fus_W.shape[-2:]
        # The forward pass: each width group's masked inputs, h in slot
        # order with each modality's view, then s and the output.
        self.xs = [np.empty(lead + W.shape[-3:-2] + (B, W.shape[-2])) for W in model.group_W]
        self.h = np.empty(lead + (M, B, H))
        self.hs = [self.h[..., slot, :, :] for slot in model.slots]
        self.gate = np.empty(self.h.shape)
        self.s = np.empty(lead + (B, H))
        self.fus_W_T = model.fus_W.swapaxes(-1, -2)[..., None, :, :]
        self.out = np.empty(lead + (B, C))
        # The losses: each sample's loss and residual, and the L_m sums.
        self.losses = np.empty(lead + (B,))
        self.resid = np.empty(lead + (B, C))
        if model.task == CLASSIFICATION:
            self.out_T = np.empty(lead + (C, B))
            self.top = np.empty(lead + (B,))
            self.shifted = np.empty(lead + (B, C))
            self.picked = np.empty(lead + (B,))
            self.total = np.empty(lead + (B, 1))
        self.products = np.empty(lead + (M, B))
        self.modality_losses = np.empty(lead + (M,))
        self.task_losses = np.empty(lead)
        # The backward pass over R rows, each module's gradient in its view.
        self.grads = np.empty(lead + (R, model.flat.shape[-1]))
        self.segments = model.segments(self.grads)
        self.dout = np.empty(lead + (R, B, C))
        self.ds = np.empty(lead + (R, B, H))
        self.du = np.empty(lead + (R, M, B, H))
        self.du_spans = [self.du[..., span, :, :] for span in model.spans]
        self.update = np.empty(model.flat.shape)


def _masked(model: ToyModel, xs: Sequence[np.ndarray], present: np.ndarray) -> list[np.ndarray]:
    """Each arm's copy of the grouped inputs `xs` with its missing modalities zeroed.

    `xs` holds one (G, n, d) array per width group (see `_grouped`) and
    `present` the (A, M, n) observed flags in modality order; returns one
    (A, G, n, d) array per group.
    """
    present = present[:, model.order, :, None]
    # C order, so that `_run_group` gathers a step's rows from contiguous blocks.
    return [np.multiply(x, present[:, span], out=np.empty(present.shape[:1] + x.shape))
            for x, span in zip(xs, model.spans)]


def _encode(model: ToyModel, xs: Sequence[np.ndarray], h: np.ndarray) -> np.ndarray:
    """Encoder outputs relu(x W + b) of grouped inputs `xs`, written into `h` and returned.

    h is an (..., M, B, H) array in slot order (`ToyModel.slots`),
    rectified in place; each width group's matmul writes its `spans`
    slice. Evaluation passes a plain model and the (G, B, d) arrays of
    `_grouped`, training a model with an arm axis, each arm's masked
    (A, G, B, d) inputs (`_masked`) and its workspace's h.
    """
    for x, W, span in zip(xs, model.group_W, model.spans):
        np.matmul(x, W, out=h[..., span, :, :])
    h += model.enc_bias[..., None, :]
    return np.maximum(h, 0.0, out=h)


def _fuse(model: ToyModel, hs: Sequence[np.ndarray], s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The head's output, in `out`, on the sum of encoder outputs `hs`, in `s`.

    The sum adds the first two terms, then the rest in place, left to right.
    """
    np.add(hs[0], hs[1], out=s)
    for h in hs[2:]:
        s += h
    np.matmul(s, model.fus_W, out=out)
    out += model.fus_b[..., None, :]
    return out


def _encoded(model: ToyModel, features: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """A plain model's encoder outputs h on `features`, and the s and out its patterns reuse."""
    xs = _grouped(model, features)
    if model.arms is not None:
        raise DimensionError("evaluate a model with an arm axis one arm at a time")
    H, C = model.fus_W.shape
    h = _encode(model, xs, np.empty((model.M, xs[0].shape[-2], H)))
    del xs  # freed before s and out are made, so the peak stays the inputs and h
    return h, np.empty(h.shape[1:]), np.empty((h.shape[1], C))


def _predict(
    model: ToyModel, bits: Sequence, h: np.ndarray, s: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Output in `out` under one bit row of encoder outputs h; a missing one adds relu(b_m)."""
    hs = [h[slot] if bit else np.maximum(b, 0.0)
          for slot, b, bit in zip(model.slots, model.enc_b, bits)]
    out = _fuse(model, hs, s, out)
    return out if model.task == CLASSIFICATION else out[:, 0]


def forward(model: ToyModel, features: Sequence[np.ndarray], bits: Sequence) -> np.ndarray:
    """Predictions for a batch under one 0/1 mask pattern (zero-imputed inputs).

    `bits` is a length-M 0/1 sequence, such as a row of `pattern_bits(M)`.
    Returns logits of shape (n, C) for classification, scalar
    predictions of shape (n,) for regression.
    """
    pattern_code(bits, model.M)  # raises on a bad pattern; the code is not needed
    feats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in features]
    return _predict(model, bits, *_encoded(model, feats))


def _check_class_labels(labels: np.ndarray, classes: int) -> None:
    if labels.size and not (labels.min() >= 0 and labels.max() < classes):
        raise DimensionError(f"class labels must lie in [0, {classes}) for {classes} outputs")


def _targets(task: str, labels: np.ndarray, classes: int, pos: np.ndarray) -> list[np.ndarray]:
    """What `_losses` compares a batch's outputs with, one array per sample row.

    Regression compares with the labels. Classification needs, for each
    sample at position `pos` of its batch, the flat index pos·C + label of
    its picked logit in the batch's (B, C) outputs and its one-hot row.
    """
    if task != CLASSIFICATION:
        return [labels]
    _check_class_labels(labels, classes)
    onehot = np.zeros((labels.size, classes))
    onehot[np.arange(labels.size), labels] = 1.0
    return [pos * classes + labels, onehot]


def _losses(
    model: ToyModel, out: np.ndarray, targets: Sequence[np.ndarray], ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and their residuals d loss_i / d out_i against `_targets`, in `ws`.

    Residuals have the output's shape, regression's single output included.
    """
    if model.task == CLASSIFICATION:
        picks, onehot = targets
        # The row max of a (..., C, B) copy runs across rows, not along a
        # short contiguous axis. It can differ from out.max(-1) only in the
        # sign of a zero, which moves neither the loss nor the residual.
        np.copyto(ws.out_T, np.swapaxes(out, -1, -2))
        top = ws.out_T.max(axis=-2, out=ws.top)
        shifted = np.subtract(out, top[..., None], out=ws.shifted)
        resid = np.exp(shifted, out=ws.resid)
        total = resid.sum(axis=-1, keepdims=True, out=ws.total)
        # `_targets` makes every pick a valid index, so "clip" changes none
        # of them; unlike "raise", it writes into `out` without a buffer.
        picked = np.take(shifted.reshape(shifted.shape[:-2] + (-1,)), picks, axis=-1,
                         out=ws.picked, mode="clip")
        resid /= total
        resid -= onehot
        losses = np.log(total[..., 0], out=ws.losses)
        losses -= picked
        return losses, resid
    diff = np.subtract(out, targets[0][:, None], out=ws.resid)
    losses = np.square(diff[..., 0], out=ws.losses)
    return losses, np.multiply(diff, 2.0, out=diff)


def _batch_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum the (..., B, X) array `a` over its batch axis B into `out`, (..., X).

    With X >= 2, `sum` and `einsum` both start from +0.0 and add the B
    rows one at a time in order, so their bits are the same, signed
    zeros included; `einsum` runs longer inner loops. With X = 1, `sum`
    adds the then contiguous batch axis pairwise and `einsum` does not,
    so that case keeps `sum`.
    """
    if a.shape[-1] == 1:
        return a.sum(axis=-2, out=out)
    return np.einsum("...bx->...x", a, out=out)


def _backward(
    xs: Sequence[np.ndarray],
    resid: np.ndarray,
    weights: np.ndarray,
    ws: _Workspace,
) -> np.ndarray:
    """Gradients of R weighted losses sum_i weights[a, r, i] * loss_i, as one (A, R, P) array.

    `ws` is the workspace of a model with an arm axis, and `resid` holds
    each arm's residuals from `_losses`. Gradients are linear in the
    sample weights, so each row of the (A, R, B) `weights`, with the R of
    `ws`, scales the residuals; each width group of encoders, and the
    head, then gets the gradients of every arm and row from one stacked
    matmul. `xs` are the pass's masked grouped
    inputs, and its h and s are read from `ws`. Row (a, r) is laid out
    as the model's `flat`: each module's gradient is written into its view
    (`ToyModel.segments`) of the workspace's (A, R, P) array, which the
    next pass in `ws` overwrites.
    """
    h, s = ws.h, ws.s
    *enc_W, enc_b, fus_W, fus_b = ws.segments
    dout = ws.dout
    # `dout` and `du` are each a copy of one broadcast operand, scaled in
    # place by the other: a ufunc call given two broadcast operands buffers
    # both, and an IEEE product has the same bits in either order.
    np.copyto(dout, resid[:, None])
    dout *= weights[..., None]
    _batch_sum(dout, fus_b)
    ds = np.matmul(dout, ws.fus_W_T, out=ws.ds)
    # h > 0 exactly where the pre-activation is: relu keeps the sign, and a
    # NaN fails both. A float gate multiplies as 1.0/0.0 with no bool cast.
    gate = np.greater(h, 0.0, out=ws.gate)
    du = ws.du
    np.copyto(du, gate[:, None])
    du *= ds[:, :, None]
    np.matmul(s.transpose(0, 2, 1)[:, None], dout, out=fus_W)
    for x, du_span, out in zip(xs, ws.du_spans, enc_W):
        np.matmul(x.swapaxes(-1, -2)[:, None], du_span, out=out)
    _batch_sum(du, enc_b)
    return ws.grads


def loss_and_grads(
    model: ToyModel,
    features: Sequence[np.ndarray],
    mask: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
) -> tuple[float, dict]:
    """Weighted loss sum_i w_i * loss_i and its parameter gradients (plain model).

    The mask is (B, M), one 0/1 row per sample. The batch takes the
    forward and backward pass of a training step, in a fresh workspace,
    with one row of sample weights and no update.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (labels.shape[0], model.M):
        raise DimensionError(
            f"mask of shape {mask.shape} does not match batch {(labels.shape[0], model.M)}"
        )
    stacked = _lockstep(model)
    ws = _Workspace(stacked, labels.shape[0], 1)
    xs = _masked(stacked, _grouped(model, features), mask.T[None])
    _encode(stacked, xs, ws.h)
    out = _fuse(stacked, ws.hs, ws.s, ws.out)
    targets = _targets(model.task, labels, model.fus_W.shape[-1], np.arange(labels.shape[0]))
    losses, resid = _losses(stacked, out, targets, ws)
    grads = _backward(xs, resid, np.asarray(sample_weights)[None, None], ws)
    *enc_W, enc_b, fus_W, fus_b = model.segments(grads[0, 0])
    return float((losses[0] * sample_weights).sum()), {
        "fus_W": fus_W,
        "fus_b": fus_b,
        "enc_W": model.per_modality(enc_W),
        "enc_b": [enc_b[s] for s in model.slots],
    }


# A logged step's modality gradient rows are squared into a block, and
# the block's norms are reduced in one call. The budget keeps a block and
# its sums within a core's cache: at README shapes a step's rows take
# ~46 KB, so a block holds 8 steps; a block of 16 ran slower per step.
_NORM_BLOCK_BYTES = 384 * 1024


def _squared_norms(model: ToyModel, squares: np.ndarray) -> np.ndarray:
    """(X, M, M + 1) squared L2 norms of each module's gradient of each L_m.

    `squares` is the (X, M, P) elementwise square of modality rows from
    `_step`, whose leading axis holds the arms, or a block of steps and
    arms folded into one axis. Each module's sum runs over its view
    (`ToyModel.segments`), the same contiguous run of d·H, H, H·C or C
    elements whatever X is. Modules are the M encoders in modality order,
    then the fusion head.
    """
    *enc_W, enc_b, fus_W, fus_b = model.segments(squares)
    M = model.M
    enc = np.empty(enc_b.shape[:3])
    for w, span in zip(enc_W, model.spans):
        enc[..., span] = w.sum(axis=(3, 4))
    enc += enc_b.sum(axis=3)
    sq = np.empty(enc.shape[:2] + (M + 1,))
    sq[..., :M] = enc[..., model.slots]
    sq[..., M] = fus_W.sum(axis=(2, 3)) + fus_b.sum(axis=2)
    return sq


def _batch_weights(
    present: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts, divisors and sample weights of consecutive batches of the (A, M, N) flags.

    Batch b holds the `sizes[b]` samples from `starts[b]`. Returns the
    (A, M, n_batches) observed counts, the divisors max(count, 1), and the
    (A, M + 1, N) weights: rows m < M weight a batch's L_m, the flags over
    their divisor, and row M its full loss, 1 / size. The flags are 0/1,
    so every count is exact.
    """
    counts = np.add.reduceat(present, starts, axis=-1)
    divisors = np.maximum(counts, 1.0)
    A, M, N = present.shape
    weights = np.empty((A, M + 1, N))
    np.divide(present, np.repeat(divisors, sizes, axis=-1), out=weights[:, :M])
    weights[:, M] = np.repeat(1.0 / sizes, sizes)
    return counts, divisors, weights


def _step(
    model: ToyModel,
    xs: Sequence[np.ndarray],
    present: np.ndarray,
    divisors: np.ndarray,
    weights: np.ndarray,
    targets: Sequence[np.ndarray],
    learning_rate: float,
    ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One gradient-descent step of every arm of `model` on one batch, as arrays in `ws`.

    `xs` are the batch's masked grouped inputs (`_masked`), `present` its
    (A, M, B) observed flags, `divisors` the (A, M) divisors, `targets`
    its rows of `_targets`, and `ws` a workspace for `model`, B and R.
    `weights` holds the last R rows of the (A, M + 1, B) sample weights
    of `_batch_weights`: all M + 1 on a logged step, the full loss's
    alone otherwise. Returns the task losses (A,), the modality losses
    (A, M), 0 where a modality is absent from the batch, and, when
    R > M, the (A, M, P) gradients of the M modality losses, a view
    whose square `_squared_norms` reduces. It is None otherwise. All
    three live in `ws`, so the next step on it overwrites them.
    """
    M = present.shape[1]
    _encode(model, xs, ws.h)
    out = _fuse(model, ws.hs, ws.s, ws.out)
    losses, resid = _losses(model, out, targets, ws)
    # The product is contiguous, so each L_m sum runs along a contiguous row.
    np.multiply(losses[:, None], present, out=ws.products)
    modality_losses = ws.products.sum(axis=-1, out=ws.modality_losses)
    modality_losses /= divisors
    grads = _backward(xs, resid, weights, ws)
    model.flat -= np.multiply(learning_rate, grads[:, -1], out=ws.update)
    task_losses = losses.sum(axis=-1, out=ws.task_losses)
    task_losses /= losses.shape[-1]
    return task_losses, modality_losses, grads[:, :M] if ws.R > M else None


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

    The split is encoded once and each pattern predicted once, into the
    same s and out arrays; every metric scores that one prediction, a
    classification metric through the pattern's confusion count.
    """
    funs = [_metric_function(model.task, metric) for metric in metrics]
    h, s, out = _encoded(model, split.features)
    labels = split.labels
    classes = model.fus_W.shape[-1]
    if model.task == CLASSIFICATION:
        _check_class_labels(labels, classes)
    scores = np.empty((len(funs), (1 << model.M) - 1))
    for p, bits in enumerate(pattern_bits(model.M)):
        predicted = _predict(model, bits, h, s, out)
        if model.task == CLASSIFICATION:
            confusion = _confusion(labels, predicted.argmax(axis=1), classes)
            scores[:, p] = [fun(confusion) for fun in funs]
        else:
            scores[:, p] = [fun(labels, predicted) for fun in funs]
    return tuple(
        AblationTable(M=model.M, metric=metric, scores=row) for metric, row in zip(metrics, scores)
    )


# ---------------------------------------------------------------------------
# Experiment driver


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters plus the training-time missingness protocol.

    Evaluation (ablation tables) always runs on clean data; the
    protocol corrupts training batches only. Masks are drawn once per
    sample and fixed across epochs unless `resample_masks_per_epoch`;
    then each epoch draws its own matrix, and `masks.csv` and the
    report's `empirical_rates` hold the first epoch's.
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
    """Complete record of one training run; replayable from (spec, config).

    The steps are kept as read-only columns. Row t of `task_losses` (T,),
    `modality_losses` (T, M) and `observed` (T, M) is step t + 1;
    `observed[t, m]` is False where modality m was absent from the
    step's batch, so L_m is undefined there and its loss reads 0.
    `logged_steps` holds the steps that logged gradient norms, and row i
    of `grad_norms` (T_logged, M, M + 1) those of step logged_steps[i]:
    `grad_norms[i, m, k]` is the L2 norm of module k's gradient of L_m,
    0 where L_m is undefined.
    """

    spec: SynthSpec
    config: TrainConfig
    config_hash: str
    task_losses: np.ndarray
    modality_losses: np.ndarray
    observed: np.ndarray
    logged_steps: np.ndarray
    grad_norms: np.ndarray
    mask_matrices: tuple[MaskMatrix, ...]
    valid_tables: tuple[tuple[int, tuple[AblationTable, ...]], ...]
    test_tables: tuple[AblationTable, ...]
    trace: GradTrace
    mli_result: MLIResult
    mei_results: tuple[tuple[str, MEIResult], ...] = field(default=())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunLog):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray)
                    else mine == theirs):
                return False
        return True

    def mei(self, metric_name: str, mode: str) -> MEIResult:
        for name, result in self.mei_results:
            if name == metric_name and result.mode == mode:
                return result
        raise KeyError(f"no MEI result for metric {metric_name!r}, mode {mode!r}")

    def grad_samples(self) -> np.ndarray:
        """The logged norms as `GRAD_SAMPLE_DTYPE` rows in (step, modality, module) order."""
        return samples_from_norms(self.logged_steps, self.grad_norms,
                                  self.observed[self.logged_steps - 1])


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


def run_arms(spec: SynthSpec, configs: Sequence[TrainConfig]) -> tuple[RunLog, ...]:
    """Train, log gradients, evaluate ablations and compute both diagnostics per config.

    All randomness flows from spec.seed (data, generated once) and each
    config's seed (initialisation, shuffling, masks); identical inputs
    give identical RunLogs, returned in config order, and
    `run_arms(spec, [config])[0]` is one config's run. Configs equal in
    every field but `protocol` form a group, in order of first appearance,
    trained in lockstep (`_run_group`). Errors are those of running the
    configs one after another: a bad protocol width or metric fails
    before the first step. A non-finite loss or logged gradient norm, or
    non-finite parameters at an epoch's end, raise `TrainingDivergedError`:
    config 0's at once, any other's only after every config before it has
    trained and been evaluated, so no group starts while an earlier
    config's error waits.
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigError("at least one training config is required")
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        if config.protocol.M != spec.M:
            raise DimensionError(f"protocol has {config.protocol.M} modalities, data has {spec.M}")
        # What would only fail at evaluation fails here, before the first step.
        pattern_bits(spec.M)
        for metric in config.metrics or default_metrics(spec.task):
            _metric_function(spec.task, metric)
        key = tuple(getattr(config, f.name) for f in fields(TrainConfig) if f.name != "protocol")
        groups.setdefault(key, []).append(i)
    dataset = gen_synthetic(spec)
    outcomes: list[RunLog | TrainingDivergedError | None] = [None] * len(configs)
    for group in groups.values():
        if any(isinstance(o, TrainingDivergedError) for o in outcomes[: group[0]]):
            break
        for i, outcome in zip(group, _run_group(spec, dataset, [configs[i] for i in group])):
            outcomes[i] = outcome
    for outcome in outcomes:
        if isinstance(outcome, TrainingDivergedError):
            raise outcome
    return tuple(outcomes)


def _run_group(
    spec: SynthSpec, dataset: SynthDataset, configs: Sequence[TrainConfig]
) -> list[RunLog | TrainingDivergedError]:
    """Train one arm per config in lockstep: each arm's RunLog, up to the first arm's error.

    The configs differ in `protocol` alone, so the arms share their
    initialisation and shuffle order: every step takes one batch through
    one `_step` with one mask per arm. Each arm's masked features
    (`_masked`) are formed once per mask matrix, and each epoch's batch
    plan gathers the flags and labels in shuffle order once, so a step
    takes one slice of rows from each into the workspace of its step
    shape (its batch size, and M + 1 losses on a logged step or the full
    loss alone), where it writes every array it makes. The steps' losses
    go into columns, and the squared modality gradients of logged steps
    into a block whose norms are reduced into a column in one call when it
    fills, at the epoch's end, and before a divergence is named. Each RunLog keeps
    read-only views of its columns. Arm 0's divergence is raised at once
    (a non-finite norm when its block is reduced); another arm's ends the
    list once every arm before it has been evaluated. A diverged arm's
    slice keeps stepping, apart from the others.
    """
    config = configs[0]
    metrics = config.metrics or default_metrics(spec.task)
    init_ss, shuffle_ss, mask_ss = np.random.SeedSequence(config.seed).spawn(3)
    init = init_model(spec.dims, config.hidden, spec.task, spec.n_classes,
                      np.random.default_rng(init_ss))
    model = _lockstep(init, len(configs))
    n_matrices = config.epochs if config.resample_masks_per_epoch else 1
    mask_seeds = mask_ss.generate_state(n_matrices, np.uint64)
    matrices = [
        tuple(generate_mask_matrix(c.protocol, spec.n_train, int(s)) for s in mask_seeds)
        for c in configs
    ]
    shuffle_rng = np.random.default_rng(shuffle_ss)

    # The step columns: row t is step t + 1, and norms row i step i * stride + 1.
    A, M, N, stride = len(configs), spec.M, spec.n_train, config.grad_log_stride
    starts = np.arange(0, N, config.batch_size)
    sizes = np.diff(starts, append=N)
    n_batches = starts.size
    T = config.epochs * n_batches
    task_losses = np.empty((T, A))
    modality_losses = np.empty((T, A, M))
    observed = np.empty((T, A, M), dtype=bool)
    grad_norms = np.empty(((T - 1) // stride + 1, A, M, M + 1))
    train_xs = _grouped(model, dataset.train.features)
    classes = model.fus_W.shape[-1]
    # Each sample's position in its batch, for the flat indices of `_targets`.
    positions = np.arange(N) - np.repeat(starts, sizes)

    # The block: the squared (A, M, P) modality rows of up to
    # `block_steps` logged steps.
    block_steps = min(max(1, _NORM_BLOCK_BYTES // (8 * A * M * model.flat.shape[-1])), n_batches)
    block = np.empty((block_steps, A, M, model.flat.shape[-1]))
    pending = 0  # steps in the block
    # One workspace per step shape: (batch size, weighted losses).
    workspaces: dict[tuple[int, int], _Workspace] = {}
    n_logged = 0  # logged steps so far, in the block or reduced

    def last_finite(a: int, step: int) -> tuple[int, float] | None:
        """Arm a's last finite loss when every step up to `step` was finite."""
        return None if step < 1 else (step, float(task_losses[step - 1, a]))

    valid_tables: list[list[tuple[int, tuple[AblationTable, ...]]]] = [[] for _ in configs]
    errors: list[TrainingDivergedError | None] = [None] * A

    def reduce_block(epoch: int) -> None:
        """Reduce the block's norms into their rows of the column, and test them."""
        nonlocal pending
        n, pending = pending, 0
        if not n:
            return
        norms = grad_norms[n_logged - n : n_logged]
        squares = block[:n].reshape((n * A,) + block.shape[2:])
        np.sqrt(_squared_norms(model, squares).reshape(norms.shape), out=norms)
        if np.isfinite(norms).all():
            return
        bad = ~np.isfinite(norms).all(axis=(2, 3))
        for a in range(A):
            if errors[a] is None and bad[:, a].any():
                first = (n_logged - n + int(np.argmax(bad[:, a]))) * stride + 1
                errors[a] = _diverged(first, epoch, "gradient norms are not finite",
                                      last_finite(a, first - 1))

    step = 0
    for epoch in range(1, config.epochs + 1):
        if epoch == 1 or config.resample_masks_per_epoch:
            # (A, M, N) float flags, cast once per mask matrix.
            present = np.array(
                [arm[epoch - 1 if config.resample_masks_per_epoch else 0].masks.T
                 for arm in matrices],
                dtype=np.float64,
            )
            # Each arm's features with its missing modalities zeroed, in
            # sample order; a step gathers its rows into its workspace.
            masked = _masked(model, train_xs, present)
        # The epoch's batch plan: every array in shuffle order, so that
        # each step takes one slice of rows from each. `np.take` gathers
        # along an inner axis some 2-4x faster than fancy indexing.
        order = shuffle_rng.permutation(N)
        flags = np.take(present, order, axis=2)
        targets = _targets(spec.task, dataset.train.labels[order], classes, positions)
        counts, divisors, weights = _batch_weights(flags, starts, sizes)
        observed[step : step + n_batches] = (counts > 0).transpose(2, 0, 1)
        # A diverging step overflows to inf/nan; the checks below report it
        # with its step and epoch, so numpy's warnings add only noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for b, (lo, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
                rows = slice(lo, lo + size)
                R = M + 1 if step % stride == 0 else 1
                step += 1
                if (size, R) not in workspaces:
                    workspaces[size, R] = _Workspace(model, size, R)
                ws = workspaces[size, R]
                # `order` holds valid indices only, so "clip" changes none;
                # unlike "raise", it writes into `out` without a buffer.
                xs = [np.take(x, order[rows], axis=2, out=out, mode="clip")
                      for x, out in zip(masked, ws.xs)]
                task, modality, grads = _step(
                    model,
                    xs,
                    flags[:, :, rows],
                    divisors[:, :, b],
                    weights[:, -R:, rows],
                    [t[rows] for t in targets],
                    config.learning_rate,
                    ws,
                )
                task_losses[step - 1] = task
                modality_losses[step - 1] = modality
                # One test covers every arm; the arms are told apart only when
                # it fails. The block's earlier steps are tested first, and a
                # step's task loss before its norms.
                if not np.isfinite(task).all():
                    reduce_block(epoch)
                    for a in range(A):
                        if errors[a] is None and not math.isfinite(task[a]):
                            errors[a] = _diverged(step, epoch, f"task loss is {float(task[a])!r}",
                                                  last_finite(a, step - 1))
                    if errors[0] is not None:
                        raise errors[0]
                if grads is not None:
                    np.square(grads, out=block[pending])
                    pending += 1
                    n_logged += 1
                    if pending == block_steps:
                        reduce_block(epoch)
                        if errors[0] is not None:
                            raise errors[0]
            reduce_block(epoch)
        for a in range(A):
            if errors[a] is None and not np.isfinite(model.flat[a]).all():
                errors[a] = _diverged(step, epoch, "parameters are not finite",
                                      last_finite(a, step))
        if errors[0] is not None:
            raise errors[0]
        if epoch % config.mei_epoch_stride == 0 or epoch == config.epochs:
            for a in range(A):
                if errors[a] is None:
                    tables = ablation_table(model.arm(a), dataset.valid, metrics)
                    valid_tables[a].append((epoch, tables))

    # The batch plan and the block are training's alone; dropped here, they
    # add nothing to the peak memory of the test-split evaluation below.
    del masked, xs, flags, targets, weights, block, workspaces, ws
    logged = np.arange(1, T + 1, stride)
    for column in (task_losses, modality_losses, observed, logged, grad_norms):
        column.setflags(write=False)
    runs: list[RunLog | TrainingDivergedError] = []
    for a, arm_config in enumerate(configs):
        if errors[a] is not None:
            return runs + [errors[a]]
        arm = model.arm(a)
        test_tables = ablation_table(arm, dataset.test, metrics)
        trace = trace_from_norms(logged, grad_norms[:, a], observed[::stride, a])
        mei_results = tuple(
            (table.metric.name, mei_from_table(table, arm_config.epsilon, mode))
            for table in test_tables
            for mode in MEI_MODES
        )
        runs.append(RunLog(
            spec=spec,
            config=arm_config,
            config_hash=config_hash(describe_run(spec, arm_config)),
            task_losses=task_losses[:, a],
            modality_losses=modality_losses[:, a],
            observed=observed[:, a],
            logged_steps=logged,
            grad_norms=grad_norms[:, a],
            mask_matrices=matrices[a],
            valid_tables=tuple(valid_tables[a]),
            test_tables=test_tables,
            trace=trace,
            mli_result=mli(trace),
            mei_results=mei_results,
        ))
    return runs
