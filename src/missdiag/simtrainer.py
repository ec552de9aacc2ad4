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
re-fuses its outputs for every observed-modality pattern.

The trainer exists to emit gradient traces and ablation tables for the
equity/learning diagnostics, not to reach competitive accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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
    GradSample,
    GradTrace,
    MLIResult,
    mli,
    modality_loss,
    trace_from_norms,
)
from .protocol import (
    MaskMatrix,
    MaskPattern,
    RateVector,
    all_patterns,
    generate_mask_matrix,
)
from .report import config_hash

CLASSIFICATION = "classification"
REGRESSION = "regression"
TASKS = (CLASSIFICATION, REGRESSION)

CLASSIFICATION_METRICS = ("UA", "WA", "F1")
REGRESSION_METRICS = ("MAE", "Corr", "Acc-2")


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
        if any(d < 1 for d in self.dims):
            raise ConfigError(f"feature dims must be >= 1, got {self.dims}")
        if any(a < 0 for a in self.informativeness) or not any(self.informativeness):
            raise ConfigError(
                "informativeness weights must be nonnegative with at least one positive"
            )
        for name in ("n_train", "n_valid", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.task == CLASSIFICATION and self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
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


class ToyModel:
    """Per-modality affine encoders + rectifier, summed into an affine head.

    Parameter modules for gradient logging: module m (< M) is encoder m
    (weights and bias), module M is the fusion head.
    """

    def __init__(
        self,
        enc_W: Sequence[np.ndarray],
        enc_b: Sequence[np.ndarray],
        fus_W: np.ndarray,
        fus_b: np.ndarray,
        task: str,
    ):
        self.enc_W = [np.asarray(w, dtype=np.float64) for w in enc_W]
        self.enc_b = [np.asarray(b, dtype=np.float64) for b in enc_b]
        self.fus_W = np.asarray(fus_W, dtype=np.float64)
        self.fus_b = np.asarray(fus_b, dtype=np.float64)
        self.task = task
        hidden = self.fus_W.shape[0]
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        if len(self.enc_W) != len(self.enc_b) or len(self.enc_W) < 2:
            raise DimensionError("need one (W, b) pair per modality, at least 2")
        for w, b in zip(self.enc_W, self.enc_b):
            if w.ndim != 2 or b.shape != (w.shape[1],) or w.shape[1] != hidden:
                raise DimensionError("encoder shapes are inconsistent with the fusion head")
        if self.fus_b.shape != (self.fus_W.shape[1],):
            raise DimensionError("fusion bias does not match the fusion weight")

    @property
    def M(self) -> int:
        return len(self.enc_W)

    @property
    def module_count(self) -> int:
        return self.M + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.enc_W)

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
        return ToyModel(
            [w.copy() for w in self.enc_W],
            [b.copy() for b in self.enc_b],
            self.fus_W.copy(),
            self.fus_b.copy(),
            self.task,
        )


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


def _encode(model: ToyModel, features: Sequence[np.ndarray], mask: np.ndarray | None = None):
    """Inputs x_m (zeroed where a training `mask` is 0), u_m = x_m W_m + b_m and relu(u_m)."""
    if len(features) != model.M:
        raise DimensionError(f"got {len(features)} feature blocks for M={model.M}")
    if mask is not None and mask.shape != (features[0].shape[0], model.M):
        raise DimensionError(
            f"mask of shape {mask.shape} does not match batch "
            f"({features[0].shape[0]}, {model.M})"
        )
    xs, us, hs = [], [], []
    for m in range(model.M):
        x = np.asarray(features[m], dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != model.enc_W[m].shape[0]:
            raise DimensionError(
                f"modality {m}: features of shape {x.shape} do not match encoder "
                f"input width {model.enc_W[m].shape[0]}"
            )
        if xs and x.shape[0] != xs[0].shape[0]:
            raise DimensionError(
                f"modality {m}: {x.shape[0]} feature rows, modality 0 has {xs[0].shape[0]}"
            )
        if mask is not None:
            x = x * mask[:, m : m + 1]
        u = x @ model.enc_W[m] + model.enc_b[m]
        xs.append(x)
        us.append(u)
        hs.append(np.maximum(u, 0.0))
    return xs, us, hs


def _fuse(model: ToyModel, hs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sum encoder outputs in modality order, then apply the head; returns (sum, output)."""
    s = hs[0]
    for h in hs[1:]:
        s = s + h
    return s, s @ model.fus_W + model.fus_b


def _forward_batch(
    model: ToyModel, features: Sequence[np.ndarray], mask: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Masked forward pass for training; returns (output, cache for backprop)."""
    xs, us, hs = _encode(model, features, mask)
    s, out = _fuse(model, hs)
    return out, (xs, us, s)


def _predict(model: ToyModel, hs: Sequence[np.ndarray], pattern: MaskPattern) -> np.ndarray:
    """Output under `pattern` from encoder outputs `hs`; a missing modality adds relu(b_m)."""
    hs = [h if bit else np.maximum(b, 0.0) for h, b, bit in zip(hs, model.enc_b, pattern.bits)]
    _, out = _fuse(model, hs)
    return out if model.task == CLASSIFICATION else out[:, 0]


def forward(
    model: ToyModel, features: Sequence[np.ndarray], pattern: MaskPattern
) -> np.ndarray:
    """Predictions for a batch under one mask pattern (zero-imputed inputs).

    Returns logits of shape (n, C) for classification, scalar
    predictions of shape (n,) for regression.
    """
    if len(pattern) != model.M:
        raise DimensionError(f"pattern length {len(pattern)} != M={model.M}")
    feats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in features]
    return _predict(model, _encode(model, feats)[2], pattern)


def _per_sample_losses(model: ToyModel, out: np.ndarray, labels: np.ndarray) -> np.ndarray:
    if model.task == CLASSIFICATION:
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        return logz - shifted[np.arange(out.shape[0]), labels]
    return (out[:, 0] - labels) ** 2


def _backward_batch(
    model: ToyModel,
    cache: tuple,
    out: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> dict:
    """Gradients of the weighted loss sum_i w_i * loss_i via backprop."""
    xs, us, s = cache
    if model.task == CLASSIFICATION:
        shifted = out - out.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        probs = expd / expd.sum(axis=1, keepdims=True)
        dout = probs.copy()
        dout[np.arange(out.shape[0]), labels] -= 1.0
        dout *= weights[:, None]
    else:
        dout = (2.0 * (out[:, 0] - labels) * weights)[:, None]
    grads = {
        "fus_W": s.T @ dout,
        "fus_b": dout.sum(axis=0),
        "enc_W": [],
        "enc_b": [],
    }
    ds = dout @ model.fus_W.T
    for m in range(model.M):
        du = ds * (us[m] > 0.0)
        grads["enc_W"].append(xs[m].T @ du)
        grads["enc_b"].append(du.sum(axis=0))
    return grads


def loss_and_grads(
    model: ToyModel,
    features: Sequence[np.ndarray],
    mask: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
) -> tuple[float, dict]:
    """Weighted loss sum_i w_i * loss_i and its parameter gradients."""
    out, cache = _forward_batch(model, features, mask)
    losses = _per_sample_losses(model, out, labels)
    grads = _backward_batch(model, cache, out, labels, sample_weights)
    return float((losses * sample_weights).sum()), grads


def module_grad_norms(model: ToyModel, grads: dict) -> list[float]:
    """L2 norm of each module's stacked gradient (M encoders, then fusion)."""
    norms = []
    for m in range(model.M):
        sq = float((grads["enc_W"][m] ** 2).sum() + (grads["enc_b"][m] ** 2).sum())
        norms.append(math.sqrt(sq))
    sq = float((grads["fus_W"] ** 2).sum() + (grads["fus_b"] ** 2).sum())
    norms.append(math.sqrt(sq))
    return norms


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


def train_step(
    model: ToyModel,
    features: Sequence[np.ndarray],
    mask: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    step: int = 1,
    log_grads: bool = True,
) -> StepLog:
    """One plain gradient-descent step on the mean batch loss.

    Also evaluates, at the pre-update parameters and without applying
    them, the gradients of each modality-restricted loss L_m (mean loss
    over samples where m is observed) and logs one gradient norm per
    module. A modality absent from the whole batch yields L_m = None
    and leaves its row of norms unused. The parameter update uses only
    the full batch loss.
    """
    B = labels.shape[0]
    if B == 0:
        raise EmptyDatasetError("training batch is empty")
    mask = np.asarray(mask, dtype=np.float64)
    out, cache = _forward_batch(model, features, mask)
    losses = _per_sample_losses(model, out, labels)

    full_weights = np.full(B, 1.0 / B)
    full_grads = _backward_batch(model, cache, out, labels, full_weights)
    task_loss = float(losses.mean())

    modality_losses: list[float | None] = []
    grad_norms = np.zeros((model.M, model.module_count)) if log_grads else None
    for m in range(model.M):
        col = mask[:, m]
        loss_m = modality_loss(losses, col)
        modality_losses.append(loss_m)
        if loss_m is None or grad_norms is None:
            continue
        grads_m = _backward_batch(model, cache, out, labels, col / col.sum())
        grad_norms[m] = module_grad_norms(model, grads_m)
    if grad_norms is not None:
        grad_norms.setflags(write=False)

    for m in range(model.M):
        model.enc_W[m] -= learning_rate * full_grads["enc_W"][m]
        model.enc_b[m] -= learning_rate * full_grads["enc_b"][m]
    model.fus_W -= learning_rate * full_grads["fus_W"]
    model.fus_b -= learning_rate * full_grads["fus_b"]

    return StepLog(
        step=step,
        task_loss=task_loss,
        modality_losses=tuple(modality_losses),
        grad_norms=grad_norms,
    )


# ---------------------------------------------------------------------------
# Evaluation metrics (computed directly; all operate on numpy vectors)


def _ua(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted accuracy: mean per-class recall over classes present."""
    recalls = [
        float((y_pred[y_true == c] == c).mean()) for c in np.unique(y_true)
    ]
    return float(np.mean(recalls))


def _wa(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Weighted accuracy: plain fraction of correct predictions."""
    return float((y_pred == y_true).mean())


def _f1_weighted(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 scores."""
    n = y_true.shape[0]
    total = 0.0
    for c in np.unique(y_true):
        tp = float(((y_pred == c) & (y_true == c)).sum())
        fp = float(((y_pred == c) & (y_true != c)).sum())
        fn = float(((y_pred != c) & (y_true == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        total += f1 * float((y_true == c).sum()) / n
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


_CLASSIFICATION_FUNS = {"UA": _ua, "WA": _wa, "F1": _f1_weighted}
_REGRESSION_FUNS = {"MAE": _mae, "Corr": _corr, "Acc-2": _acc2}


def default_metrics(task: str) -> tuple[PerfMetric, ...]:
    names = CLASSIFICATION_METRICS if task == CLASSIFICATION else REGRESSION_METRICS
    return tuple(PerfMetric.named(name) for name in names)


def ablation_table(model: ToyModel, split: Split, metric: PerfMetric) -> AblationTable:
    """Evaluate every nonempty modality combination on a clean split, encoding it once."""
    funs = _CLASSIFICATION_FUNS if model.task == CLASSIFICATION else _REGRESSION_FUNS
    fun = funs.get(metric.name)
    if fun is None:
        raise ConfigError(
            f"metric {metric.name!r} is not defined for {model.task}; "
            f"choose from {sorted(funs)}"
        )
    hs = _encode(model, split.features)[2]
    entries = {}
    for pattern in all_patterns(model.M):
        out = _predict(model, hs, pattern)
        predictions = out.argmax(axis=1) if model.task == CLASSIFICATION else out
        entries[pattern] = fun(split.labels, predictions)
    perf_full = entries.pop(MaskPattern.full(model.M))
    return AblationTable(M=model.M, metric=metric, perf_full=perf_full, entries=entries)


def dataset_loss(model: ToyModel, split: Split) -> float:
    """Mean per-sample task loss on a clean, fully observed split."""
    _, out = _fuse(model, _encode(model, split.features)[2])
    return float(_per_sample_losses(model, out, split.labels).mean())


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
        for name in ("epochs", "batch_size", "hidden", "mei_epoch_stride", "grad_log_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.learning_rate > 0 or not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
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

    def grad_samples(self) -> list[GradSample]:
        """The logged gradient norms as rows in (step, modality, module) order."""
        return [
            GradSample(step=log.step, modality=m, module=k, grad_l2=norm)
            for log in self.steps
            if log.grad_norms is not None
            for m, row in enumerate(log.grad_norms.tolist())
            if log.modality_losses[m] is not None
            for k, norm in enumerate(row)
        ]


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
    raise `TrainingDivergedError` before anything is evaluated.
    """
    if config.protocol.M != spec.M:
        raise DimensionError(
            f"protocol has {config.protocol.M} modalities, data has {spec.M}"
        )
    dataset = gen_synthetic(spec)
    metrics = config.metrics or default_metrics(spec.task)

    init_ss, shuffle_ss, mask_ss = np.random.SeedSequence(config.seed).spawn(3)
    model = init_model(
        spec.dims, config.hidden, spec.task, spec.n_classes, np.random.default_rng(init_ss)
    )
    n_matrices = config.epochs if config.resample_masks_per_epoch else 1
    mask_seeds = mask_ss.generate_state(n_matrices, np.uint64)
    matrices = tuple(
        generate_mask_matrix(config.protocol, spec.n_train, int(s)) for s in mask_seeds
    )
    shuffle_rng = np.random.default_rng(shuffle_ss)

    steps: list[StepLog] = []
    valid_tables: list[tuple[int, tuple[AblationTable, ...]]] = []
    step = 0
    last_finite: tuple[int, float] | None = None
    for epoch in range(1, config.epochs + 1):
        masks = matrices[epoch - 1 if config.resample_masks_per_epoch else 0].masks
        order = shuffle_rng.permutation(spec.n_train)
        for start in range(0, spec.n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            feats, labels = dataset.train.take(idx)
            step += 1
            # A diverging step overflows to inf/nan; the checks below report
            # it with its step and epoch, so numpy's warnings add only noise.
            with np.errstate(over="ignore", invalid="ignore"):
                log = train_step(
                    model,
                    feats,
                    masks[idx].astype(np.float64),
                    labels,
                    config.learning_rate,
                    step=step,
                    log_grads=(step - 1) % config.grad_log_stride == 0,
                )
            if not math.isfinite(log.task_loss):
                raise _diverged(step, epoch, f"task loss is {log.task_loss!r}", last_finite)
            if log.grad_norms is not None and not np.isfinite(log.grad_norms).all():
                raise _diverged(step, epoch, "gradient norms are not finite", last_finite)
            last_finite = (step, log.task_loss)
            steps.append(log)
        if not all(np.isfinite(p).all() for _, p in model.parameters()):
            raise _diverged(step, epoch, "parameters are not finite", last_finite)
        if epoch % config.mei_epoch_stride == 0 or epoch == config.epochs:
            tables = tuple(ablation_table(model, dataset.valid, m) for m in metrics)
            valid_tables.append((epoch, tables))

    test_tables = tuple(ablation_table(model, dataset.test, m) for m in metrics)
    logged = [log for log in steps if log.grad_norms is not None]
    trace = trace_from_norms(
        [log.step for log in logged],
        np.stack([log.grad_norms for log in logged]),
        [[loss is not None for loss in log.modality_losses] for log in logged],
    )
    mei_results = tuple(
        (table.metric.name, mei_from_table(table, config.epsilon, mode))
        for table in test_tables
        for mode in MEI_MODES
    )
    return RunLog(
        spec=spec,
        config=config,
        config_hash=config_hash(describe_run(spec, config)),
        steps=tuple(steps),
        mask_matrices=matrices,
        valid_tables=tuple(valid_tables),
        test_tables=test_tables,
        trace=trace,
        mli_result=mli(trace),
        mei_results=mei_results,
    )
