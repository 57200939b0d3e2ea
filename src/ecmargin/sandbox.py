"""Synthetic long-tail sandbox: data generation, training, and bound audit.

Class counts follow a Zipf prior with largest-remainder rounding, features
are isotropic Gaussian blobs around class means spread on random directions,
and background samples (label -1) come from a broad Gaussian at the origin.
A deliberately small trainer (per-class binary heads, plain mini-batch
gradient descent) exercises the bce / ecm / focal_ecm kernels; evaluation
builds one ScoreSet per class from one parameter snapshot, final or saved,
and audits the measured AP against the closed-form bounds.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _fork
from ._choices import SLOPE_MODES
from .bounds import audit, slope_m
from .errors import NumericalError, ResourceLimitError, ValidationError
from .losses import _FOCAL, _ecm_value_grad, _focal_value_grad, _workspace, log_weight_ratio
from .margins import MarginWeights, optimal_margins, weights
from .metrics import ScoreSet, _real_score_set
from .priors import ClassStats

log = logging.getLogger(__name__)

BACKGROUND_LABEL = -1
LOSSES = ("bce", "ecm", "focal_ecm")
MODELS = ("linear", "mlp")

_TEMPERATURE = 20.0
_NORM_FLOOR = 1e-12
# the most elements (800 MB of float64) any one array of a run may hold;
# configs past it are rejected before anything is allocated
MAX_ARRAY_ELEMENTS = 10**8


def _check_array_sizes(**shapes: tuple[int, int]) -> None:
    """ResourceLimitError for the first named (rows, cols) array past the cap."""
    for name, (rows, cols) in shapes.items():
        if rows * cols > MAX_ARRAY_ELEMENTS:
            raise ResourceLimitError(
                f"{name} would be {rows} x {cols}, past the limit of "
                f"{MAX_ARRAY_ELEMENTS} elements per array"
            )


@dataclass(frozen=True)
class SyntheticConfig:
    """Long-tail dataset recipe; every field is part of the deterministic seed."""

    num_classes: int = 20
    total_samples: int = 20000
    zipf_exponent: float = 1.5
    feature_dim: int = 16
    class_separation: float = 2.0
    noise_sigma: float = 1.0
    background_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.total_samples < 1:
            raise ValidationError(f"total_samples must be >= 1, got {self.total_samples}")
        if self.zipf_exponent < 0:
            raise ValidationError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        if self.feature_dim < 2:
            raise ValidationError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.class_separation <= 0:
            raise ValidationError(f"class_separation must be > 0, got {self.class_separation}")
        if self.noise_sigma <= 0:
            raise ValidationError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValidationError(
                f"background_fraction must lie in [0,1), got {self.background_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        _check_array_sizes(
            features=(self.total_samples, self.feature_dim),
            logits=(self.total_samples, self.num_classes),
        )


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "ecm"
    m_mode: str = "unit"
    epochs: int = 30
    learning_rate: float = 0.1
    batch_size: int = 256
    model: str = "linear"
    hidden: int = 32
    temperature_head: bool = False
    seed: int = 0
    checkpoint_every: int = 5
    holdout_fraction: float = 0.0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValidationError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.m_mode not in SLOPE_MODES:
            raise ValidationError(f"m_mode must be one of {SLOPE_MODES}, got {self.m_mode!r}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "mlp" and self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        if self.checkpoint_every < 1:
            raise ValidationError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValidationError(
                f"holdout_fraction must lie in [0,1), got {self.holdout_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def checkpoint_epochs(self) -> tuple[int, ...]:
        """The epochs after 0 whose parameters a model keeps: every
        checkpoint_every-th and the last."""
        every, last = self.checkpoint_every, self.epochs
        epochs = range(every, last + 1, every)
        return tuple(epochs) if last % every == 0 else (*epochs, last)

    def check_array_sizes(self, config: SyntheticConfig) -> None:
        """The arrays of a run on ``config``'s data past the SyntheticConfig
        ones: the MLP's w1 and the hidden activations that evaluation computes
        for every sample at once (a batch has fewer rows, and the head's
        hidden x classes weights are smaller too, as data never has more
        classes than samples), the loss curve of one float an epoch, and the
        checkpoints, each a copy of every parameter."""
        shapes = {}
        params = config.feature_dim * config.num_classes
        if self.model == "mlp":
            shapes = {
                "w1": (config.feature_dim, self.hidden),
                "hidden_activations": (config.total_samples, self.hidden),
            }
            params = (config.feature_dim + 1 + config.num_classes) * self.hidden
        checkpoints = -(-self.epochs // self.checkpoint_every)  # len(checkpoint_epochs())
        _check_array_sizes(**shapes, loss_curve=(self.epochs, 1), checkpoints=(checkpoints, params))


def zipf_class_counts(num_classes: int, total: int, exponent: float) -> tuple[int, ...]:
    """Integer class counts from the Zipf prior p_c ~ (c+1)^-exponent.

    Largest-remainder rounding: floors first, then one extra sample to each
    of the largest fractional parts (ties broken toward smaller class ids)
    until the counts sum to total.
    """
    if num_classes > total:
        raise ValidationError(
            f"{num_classes} classes cannot share {total} foreground samples"
        )
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    p = ranks ** (-float(exponent))
    p /= p.sum()
    quota = p * total
    counts = np.floor(quota).astype(np.int64)
    remainder = int(total - counts.sum())
    if remainder > 0:
        # stable sort keeps the smaller class id first among equal remainders
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:remainder]] += 1
    if counts.min() < 1:
        worst = int(np.argmin(counts))
        raise ValidationError(
            f"class {worst} receives 0 samples under this prior; "
            f"increase total_samples or lower zipf_exponent"
        )
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class Dataset:
    """Generated samples; labels use class ids 0..K-1 and -1 for background."""

    features: np.ndarray
    labels: np.ndarray
    class_counts: tuple[int, ...]
    config: SyntheticConfig

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    @property
    def n_background(self) -> int:
        return int(self.labels.size - sum(self.class_counts))


def generate(config: SyntheticConfig) -> Dataset:
    """Deterministic synthetic long-tail dataset for the given config.

    Every block of rows is drawn, scaled and shifted in place, so the
    features and labels are the only arrays of the dataset's size.  Raises
    NumericalError when a feature is past the float range.
    """
    n_fg = int(math.floor(config.total_samples * (1.0 - config.background_fraction) + 0.5))
    if config.num_classes > n_fg:
        raise ValidationError(
            f"num_classes {config.num_classes} exceeds the {n_fg} foreground "
            f"samples left by background_fraction {config.background_fraction}"
        )
    counts = zipf_class_counts(config.num_classes, n_fg, config.zipf_exponent)

    rng = np.random.default_rng(config.seed)
    directions = rng.standard_normal((config.num_classes, config.feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = config.class_separation * directions

    features = np.empty((config.total_samples, config.feature_dim))
    labels = np.empty(config.total_samples, dtype=np.int64)
    row = 0
    # an overflow ends in the NumericalError below, not a numpy warning; the
    # features are checked, since a scale past the float range (2.0 *
    # noise_sigma can be) makes infinities with no floating-point flag
    with np.errstate(over="ignore", invalid="ignore"):
        for c, n_c in enumerate(counts):
            block = rng.standard_normal(out=features[row : row + n_c])
            block *= config.noise_sigma
            block += means[c]
            labels[row : row + n_c] = c
            row += n_c
        # broad background blob at the origin, twice the class noise scale
        background = rng.standard_normal(out=features[row:])
        background *= 2.0 * config.noise_sigma
        labels[row:] = BACKGROUND_LABEL
        finite = math.isfinite(features.min()) and math.isfinite(features.max())
    if not finite:
        raise NumericalError("non-finite features from generate")
    return Dataset(features=features, labels=labels, class_counts=counts, config=config)


def dataset_stats(dataset: Dataset) -> dict[int, ClassStats]:
    """Per-class (n+, n-, alpha) with all other samples (incl. background) negative."""
    total = int(dataset.labels.size)
    out = {}
    for c, n_c in enumerate(dataset.class_counts):
        out[c] = ClassStats(n_plus=n_c, n_minus=total - n_c, alpha=(total - n_c) / n_c)
    return out


def default_margin_weights(dataset: Dataset) -> dict[int, MarginWeights]:
    """Optimal margin weights for every class from the dataset's own counts."""
    return {c: weights(optimal_margins(st)) for c, st in dataset_stats(dataset).items()}


@dataclass(frozen=True)
class Model:
    """Trained parameters plus the artifacts the report needs.

    ``checkpoints`` holds (epoch, params) snapshots including initialization
    (epoch 0) and the final epoch; ``loss_curve`` holds (epoch, mean loss)
    with the mean taken over all training samples of that epoch.
    """

    kind: str
    params: dict[str, np.ndarray]
    temperature: float | None
    loss_curve: tuple[tuple[int, float], ...]
    checkpoints: tuple[tuple[int, dict[str, np.ndarray]], ...]
    train_indices: np.ndarray
    eval_indices: np.ndarray

    def logits(self, features: np.ndarray) -> np.ndarray:
        return _forward(self.kind, self.params, self.temperature, features)[0]


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _init_params(kind, hidden, num_classes, dim, temperature, rng):
    params = {}
    if kind == "mlp":
        params["w1"] = rng.standard_normal((dim, hidden)) / math.sqrt(dim)
        params["b1"] = np.zeros(hidden)
        head_in = hidden
    else:
        head_in = dim
    if temperature is None:
        params["w"] = np.zeros((head_in, num_classes))
    else:
        # cosine head cannot start at exactly zero norm
        params["w"] = 0.01 * rng.standard_normal((head_in, num_classes))
    return params


def _head_forward(h, w, temperature):
    if temperature is None:
        return h @ w, None
    hn = np.maximum(np.linalg.norm(h, axis=1, keepdims=True), _NORM_FLOOR)
    wn = np.maximum(np.linalg.norm(w, axis=0, keepdims=True), _NORM_FLOOR)
    hu = h / hn
    wu = w / wn
    cos = hu @ wu
    return temperature * cos, (hu, wu, hn, wn, cos)


def _forward(kind, params, temperature, x):
    """Logits and the cache (h, head cache) that backward needs; evaluation drops the cache."""
    if kind == "mlp":
        pre = x @ params["w1"] + params["b1"]
        h = np.tanh(pre)
    else:
        h = x
    f, head_cache = _head_forward(h, params["w"], temperature)
    return f, (h, head_cache)


def _backward(kind, params, temperature, x, cache, g):
    """Parameter gradients for d(batch loss)/d(logits) = g."""
    h, head_cache = cache
    grads = {}
    if temperature is None:
        grads["w"] = h.T @ g
    else:
        hu, wu, hn, wn, cos = head_cache
        col = np.sum(g * cos, axis=0)
        grads["w"] = temperature * (hu.T @ g - wu * col) / wn
    if kind != "mlp":
        return grads  # the head's input is x itself, so nothing reads d(loss)/dh
    if temperature is None:
        dh = g @ params["w"].T
    else:
        row = np.sum(g * cos, axis=1, keepdims=True)
        dh = temperature * (g @ wu.T - hu * row) / hn
    dpre = dh * (1.0 - h * h)
    grads["w1"] = x.T @ dpre
    grads["b1"] = dpre.sum(axis=0)
    return grads


def _split_indices(dataset: Dataset, tcfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-class proportional holdout split; evaluation = training when off."""
    n = dataset.labels.size
    if tcfg.holdout_fraction == 0.0:
        idx = np.arange(n)
        return idx, idx
    rng = np.random.default_rng(np.random.SeedSequence((tcfg.seed, 0x5B17)))
    train_parts, eval_parts = [], []
    for label in [*range(dataset.num_classes), BACKGROUND_LABEL]:
        members = np.flatnonzero(dataset.labels == label)
        members = members[rng.permutation(members.size)]
        n_hold = int(math.floor(members.size * tcfg.holdout_fraction + 0.5))
        eval_parts.append(members[:n_hold])
        train_parts.append(members[n_hold:])
    train_idx = np.sort(np.concatenate(train_parts))
    eval_idx = np.sort(np.concatenate(eval_parts))
    if train_idx.size == 0:
        raise ValidationError("holdout_fraction leaves no training samples")
    return train_idx, eval_idx


def _loss_kernel(loss):
    """The kernel a loss trains with, looked up when a block starts."""
    if loss == "focal_ecm":
        return functools.partial(_focal_value_grad, **_FOCAL)
    return _ecm_value_grad


def _batch_buffers(rows, delta, m):
    """The buffers of _batch_step for batches of up to ``rows`` rows of the
    heads whose logit shifts and slopes are ``delta`` and ``m``: z, delta and
    m tiled to ``rows`` rows, and the kernel's workspace."""
    shape = (rows, delta.size)
    return np.empty(shape), np.tile(delta, (rows, 1)), np.tile(m, (rows, 1)), _workspace(shape)


def _first_rows(buffers, rows):
    """The first ``rows`` rows of each of _batch_buffers' buffers."""
    z, delta, m, work = buffers
    return z[:rows], delta[:rows], m[:rows], tuple(a[:rows] for a in work)


def _batch_step(kind, params, temperature, x, is_pos, kernel, buffers, num_classes):
    """The batch's loss sum over its rows and the heads of ``params``, and the
    gradients of the batch loss, that sum over rows x num_classes.

    Every elementwise step writes into ``buffers`` (_first_rows of
    _batch_buffers for the batch's rows), so on a linear head the forward and
    backward matrix products are the only arrays it allocates."""
    z, delta, m, work = buffers
    logits, cache = _forward(kind, params, temperature, x)
    np.multiply(logits, 2.0, out=z)
    z -= delta
    values, grad_f = kernel(z, is_pos, m, work=work)
    grad_f /= x.shape[0] * num_classes
    return float(values.sum()), _backward(kind, params, temperature, x, cache, grad_f)


def _train_block(dataset, tcfg, train_idx, rng, params, delta, m, lo, hi):
    """Train the heads of classes lo..hi-1 from the initial ``params`` for
    every epoch.  ``delta`` and ``m`` hold every class's logit shift and
    slope; each epoch's order comes from a copy of ``rng``, so every block
    sees the same orders.

    The block allocates its batch buffers once, with min(batch_size,
    n_train) rows: a batch of r rows steps in their first r rows, with no
    elementwise temporary, and the update is in place.  It builds its
    classes' one-hot label rows once, and gathers every epoch's shuffled rows
    of those and of the features into epoch buffers it allocates once.

    Returns the parameters at each checkpoint after epoch 0, each epoch's sum
    over its batches of the block's loss sum divided by the class count, and
    the first epoch whose loss is not finite (0 when none is), where it stops.
    """
    kernel = _loss_kernel(tcfg.loss)
    temperature = _TEMPERATURE if tcfg.temperature_head else None
    num_classes = dataset.num_classes
    rng = copy.deepcopy(rng)
    params = _copy_params(dict(params, w=params["w"][:, lo:hi]))
    n, size = train_idx.size, tcfg.batch_size
    full = _batch_buffers(min(size, n), delta[lo:hi], m[lo:hi])
    # an epoch's batches have two sizes at most: a full one and the last
    buffers = {r: _first_rows(full, r) for r in (min(size, n), n - (n - 1) // size * size)}
    one_hot = dataset.labels[:, None] == np.arange(lo, hi)
    x_epoch = np.empty((n, dataset.features.shape[1]))
    pos_epoch = np.empty((n, hi - lo), dtype=bool)
    saved = tcfg.checkpoint_epochs()
    checkpoints = []
    loss_sums = np.zeros(tcfg.epochs)
    for epoch in range(1, tcfg.epochs + 1):
        # each epoch's rows gathered once; every batch is a slice of them.
        # Every row is one of train_idx, so "clip" never clips; it spares the
        # copy of out that take makes in its default mode.
        rows = train_idx[rng.permutation(n)]
        dataset.features.take(rows, axis=0, out=x_epoch, mode="clip")
        one_hot.take(rows, axis=0, out=pos_epoch, mode="clip")
        loss_sum = 0.0
        for start in range(0, n, size):
            x = x_epoch[start : start + size]
            is_pos = pos_epoch[start : start + size]
            values_sum, grads = _batch_step(
                tcfg.model, params, temperature, x, is_pos, kernel, buffers[x.shape[0]], num_classes
            )
            if not math.isfinite(values_sum):
                return checkpoints, loss_sums, epoch
            loss_sum += values_sum / num_classes
            for key, grad in grads.items():
                grad *= tcfg.learning_rate
                params[key] -= grad
        loss_sums[epoch - 1] = loss_sum
        if epoch in saved:
            checkpoints.append(_copy_params(params))
    return checkpoints, loss_sums, 0


def train(
    dataset: Dataset, tcfg: TrainConfig, margins: dict[int, MarginWeights]
) -> Model:
    """Mini-batch gradient descent on per-class binary heads.

    The batch loss is the mean of the per-class terms over batch elements
    and heads; heads start at zero so the epoch-0 checkpoint scores every
    sample 0.5.  Deterministic for a fixed config: one shuffling stream,
    fixed batch order, fixed summation order.

    A linear head's class columns never exchange a number in training, so
    its classes train in two fixed blocks, the first ceil(K/2) and the rest,
    each through every epoch, the second in ``_fork.share``'s forked child
    when one is available.  An epoch's loss is the sum of the blocks'
    sums over the training samples.  The MLP's classes share w1, so they
    train as one block.  The blocks depend only on the config, so the result
    is the same on any CPU count.
    """
    tcfg.check_array_sizes(dataset.config)
    num_classes = dataset.num_classes
    missing = [c for c in range(num_classes) if c not in margins]
    if missing:
        raise ValidationError(f"margins missing for classes {missing}")

    if tcfg.loss == "bce":
        # ecm with no logit shift and unit slope: x - 0.0 and 1.0 * y are x and y bitwise
        delta, m = np.zeros(num_classes), np.ones(num_classes)
    else:
        stats = dataset_stats(dataset)
        delta = np.array([log_weight_ratio(margins[c]) for c in range(num_classes)])
        m = slope_m([stats[c].alpha for c in range(num_classes)], tcfg.m_mode)

    temperature = _TEMPERATURE if tcfg.temperature_head else None
    rng = np.random.default_rng(tcfg.seed)
    params = _init_params(
        tcfg.model, tcfg.hidden, num_classes, dataset.config.feature_dim, temperature, rng
    )
    train_idx, eval_idx = _split_indices(dataset, tcfg)

    run_block = functools.partial(_train_block, dataset, tcfg, train_idx, rng, params, delta, m)
    # an overflow ends training with the NumericalError below, not a numpy
    # warning; the forked block inherits this state
    with np.errstate(over="ignore", invalid="ignore"):
        if tcfg.model == "mlp":
            results = [run_block(0, num_classes)]
        else:
            half = -(-num_classes // 2)
            results = _fork.share(lambda: run_block(0, half), lambda: run_block(half, num_classes))

    bad_epochs = [bad for _, _, bad in results if bad]
    if bad_epochs:
        raise NumericalError(f"non-finite training loss at epoch {min(bad_epochs)}")
    losses = sum(loss_sums for _, loss_sums, _ in results) / train_idx.size
    checkpoints = [(0, params)]
    for i, epoch in enumerate(tcfg.checkpoint_epochs()):
        parts = [block[0][i] for block in results]
        checkpoints.append(
            (epoch, {key: np.concatenate([p[key] for p in parts], axis=-1) for key in parts[0]})
        )

    return Model(
        kind=tcfg.model,
        params=_copy_params(checkpoints[-1][1]),
        temperature=temperature,
        loss_curve=tuple(enumerate(losses.tolist(), start=1)),
        checkpoints=tuple(checkpoints),
        train_indices=train_idx,
        eval_indices=eval_idx,
    )


@dataclass(frozen=True)
class PerClassReport:
    class_id: int
    n_plus: int
    n_minus: int
    ap: float
    ranking_error: float
    det_error: float
    ap_lower: float
    ap_upper: float
    within_bounds: bool


@dataclass(frozen=True)
class TrainReport:
    per_class: tuple[PerClassReport, ...]
    mean_ap: float
    loss_curve: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return asdict(self)


def class_score_set(logits: np.ndarray, labels: np.ndarray, class_id: int) -> ScoreSet:
    """ScoreSet of one head's raw logits (``metrics._real_score_set``), the
    class's samples positive; a non-finite logit raises NumericalError."""
    mask = labels == class_id
    column = logits[:, class_id]
    return _real_score_set(column[mask], column[~mask], f"logit of class {class_id} in evaluate")


def evaluate(
    model: Model, dataset: Dataset, alphas: dict[int, float], params: dict | None = None
) -> TrainReport:
    """Balanced per-class evaluation of a parameter snapshot (default: final),
    each class ranked by its raw logits (``class_score_set``).

    Classes with no positives in the evaluation split are logged and left out
    of the report and its mean.  When the split is every row in order, as
    without a holdout, it reads the dataset's own arrays; otherwise it
    gathers the split's rows.
    """
    snapshot = model.params if params is None else params
    if np.array_equal(model.eval_indices, np.arange(dataset.labels.size)):
        features, labels = dataset.features, dataset.labels
    else:
        features = dataset.features[model.eval_indices]
        labels = dataset.labels[model.eval_indices]
    logits = _forward(model.kind, snapshot, model.temperature, features)[0]

    per_class = []
    for c in range(dataset.num_classes):
        if c not in alphas:
            raise ValidationError(f"no alpha supplied for class {c}")
        ss = class_score_set(logits, labels, c)
        if not ss.n_plus:
            log.warning("class %d has no positives in the evaluation split; skipped", c)
            continue
        (a,) = audit(ss, [alphas[c]])
        per_class.append(
            PerClassReport(
                class_id=c,
                n_plus=ss.n_plus,
                n_minus=ss.n_minus,
                ap=a.ap,
                ranking_error=a.ranking_error,
                det_error=1.0 - a.ap,
                ap_lower=a.ap_lower,
                ap_upper=a.ap_upper,
                within_bounds=a.slack >= 0,
            )
        )
    if not per_class:
        raise ValidationError("no class has positives in the evaluation split")
    mean_ap = float(np.mean([p.ap for p in per_class]))
    return TrainReport(per_class=tuple(per_class), mean_ap=mean_ap, loss_curve=model.loss_curve)


def bound_audit(report: TrainReport) -> bool:
    """True iff every class's AP sits inside its noise-widened bound interval."""
    failures = [p for p in report.per_class if not p.within_bounds]
    for p in failures:
        log.warning(
            "bound audit failure: class %d ap=%.6f R=%.6f bounds=[%.6f, %.6f]",
            p.class_id,
            p.ap,
            p.ranking_error,
            p.ap_lower,
            p.ap_upper,
        )
    return not failures


def rare_tercile(dataset: Dataset) -> tuple[int, ...]:
    """Class ids of the bottom third by sample count (ties to larger ids)."""
    k = dataset.num_classes
    n_rare = max(1, k // 3)
    order = sorted(range(k), key=lambda c: (dataset.class_counts[c], -c))
    return tuple(sorted(order[:n_rare]))


def run_experiment(config: SyntheticConfig, tcfg: TrainConfig) -> tuple[Model, TrainReport]:
    """Generate, train with the dataset's own optimal margins, evaluate."""
    tcfg.check_array_sizes(config)
    dataset = generate(config)
    margins = default_margin_weights(dataset)
    model = train(dataset, tcfg, margins)
    alphas = {c: st.alpha for c, st in dataset_stats(dataset).items()}
    report = evaluate(model, dataset, alphas)
    return model, report
