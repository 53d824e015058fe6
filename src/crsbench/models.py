"""From-scratch supervised classifiers with probability outputs.

Logistic regression (Newton's method), Gaussian naive Bayes, and a
single-hidden-layer MLP trained by SGD with momentum under a weighted or focal
loss. Training is bit-deterministic per seed. The MLP SGD step reproduces its
reference form in ``tests/oracles.py`` bit for bit; the logreg fit matches the
gradient-descent reference there within a tolerance. Trained models are
immutable containers safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cohort import leakage_guard
from .jsondoc import load_json
from .schema import Schema, load_schema

EPS = 1e-7


class ModelError(ValueError):
    pass


class DivergenceError(ModelError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")


# Probability-clamp events: one event is one probability found outside
# [EPS, 1 - EPS] by one loss evaluation. A training step clamps its batch once
# and feeds the clamped probabilities to both the loss and the gradient.
_clamp_counter = {"count": 0}


def clamp_count() -> int:
    return _clamp_counter["count"]


def reset_clamp_count() -> None:
    _clamp_counter["count"] = 0


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    out_of_range = int(np.count_nonzero((p < EPS) | (p > 1.0 - EPS)))
    if out_of_range:
        _clamp_counter["count"] += out_of_range
    return np.clip(p, EPS, 1.0 - EPS)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z| <= 0.

    ``minimum(z, -z)`` is -|z| that keeps the sign of a NaN, so the result
    matches the two-branch form bit for bit on every input.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


@dataclass(frozen=True)
class LossConfig:
    kind: str = "weighted"  # "weighted" | "focal"
    gamma: float = 2.0
    alpha: float = 0.25

    def __post_init__(self):
        if self.kind not in ("weighted", "focal"):
            raise ModelError(f"unknown loss kind: {self.kind}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma, "alpha": self.alpha}


def _focal_terms(p, y, gamma: float, alpha: float):
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return y * pos + (1.0 - y) * neg


def focal_loss(p: float | np.ndarray, y: int | np.ndarray, gamma: float, alpha: float):
    """Focal loss terms: -a(1-p)^g log p for y=1, -(1-a)p^g log(1-p) for y=0."""
    out = _focal_terms(_clamp_probs(p), np.asarray(y, dtype=float), gamma, alpha)
    return float(out) if out.ndim == 0 else out


def weighted_ce(p, y, class_weights: tuple[float, float]):
    p = _clamp_probs(p)
    y = np.asarray(y, dtype=float)
    w = np.where(y == 1, class_weights[1], class_weights[0])
    out = -w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(out) if out.ndim == 0 else out


def loss_values(p, y, loss: LossConfig, class_weights: tuple[float, float]):
    if loss.kind == "focal":
        return focal_loss(p, y, loss.gamma, loss.alpha)
    return weighted_ce(p, y, class_weights)


def inverse_prevalence_weights(y: np.ndarray, power: float = 1.0) -> tuple[float, float]:
    """Per-class weights proportional to (1/prevalence)^power, mean-normalized.

    power=1 is full inverse-prevalence weighting; power<1 tempers it toward
    unweighted training (useful when the operating point must keep majority
    recall high).
    """
    y = np.asarray(y)
    p1 = float(np.mean(y))
    if p1 in (0.0, 1.0):
        raise ModelError("both classes required to derive class weights")
    raw = np.array([1.0 / (1.0 - p1), 1.0 / p1]) ** power
    raw = raw / raw.mean()
    return float(raw[0]), float(raw[1])


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_units: int = 400

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ModelError("hidden_units must be >= 1")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 200
    val_fraction: float = 0.1
    patience: int = 20


@dataclass(frozen=True)
class TrainedModel:
    kind: str  # "logreg" | "gnb" | "mlp"
    feature_names: tuple[str, ...]
    params: dict = field(repr=False)
    training_seed: int = 0
    loss_config: LossConfig | None = None
    class_weights: tuple[float, float] = (1.0, 1.0)
    schema_checksum: str = ""
    metadata: dict = field(default_factory=dict)


def _check_training_inputs(X, y, feature_names, schema: Schema):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ModelError("X must be (n, d) aligned with y")
    if X.shape[0] == 0:
        raise ModelError("empty training set")
    if X.shape[1] != len(feature_names):
        raise ModelError("feature_names length does not match X columns")
    # min/max, not np.unique: a first np.unique call maps ~1 MB of numpy's sort code.
    if y.min() == y.max():
        raise ModelError("training set contains a single class")
    leakage_guard(list(feature_names), schema.blocklist)
    return X, y


LOGREG_TOL = 1e-7
LOGREG_MAX_ITERATIONS = 100
LOGREG_BLOCK_ROWS = 256


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``hess @ step = grad`` for positive semi-definite ``hess`` by Gauss-Jordan
    elimination in numpy (a first LAPACK call maps 1.1 MB of library code). A pivot
    under 1e-12 of the largest diagonal entry (an all-zero feature column) is left at 0."""
    a = np.column_stack([hess, grad])
    for k in range(grad.size):
        if a[k, k] > 1e-12 * hess.diagonal().max():
            row = a[k] / a[k, k]
            a -= np.outer(a[:, k], row)
            a[k] = row
    return a[:, -1]


def train_logreg(
    X,
    y,
    feature_names,
    class_weights: tuple[float, float] | None = None,
    l2: float = 0.0,
    seed: int = 0,
    schema: Schema | None = None,
) -> TrainedModel:
    """Minimise mean class-weighted cross-entropy + ``l2``/2 ||w||^2 (bias not
    penalised) by undamped Newton steps from zeros, i.e. iteratively reweighted
    least squares (McCullagh & Nelder, *Generalized Linear Models*), until the
    gradient norm is below LOGREG_TOL or for LOGREG_MAX_ITERATIONS steps. Sums run
    over LOGREG_BLOCK_ROWS-row blocks in a fixed order; at the cohort's 22 features
    no block product is large enough for OpenBLAS to split over threads, so the
    weights do not depend on the BLAS thread count. The seed only stamps the model;
    an overflowing gradient or Hessian is a ``DivergenceError``."""
    schema = schema or load_schema()
    X, y = _check_training_inputs(X, y, feature_names, schema)
    weights = class_weights or (1.0, 1.0)
    loss = LossConfig(kind="weighted")
    n, d = X.shape
    theta = np.zeros(d + 1)  # w, then b
    penalty = np.append(np.full(d, float(l2)), 0.0)
    sample_weights = np.where(y == 1, weights[1], weights[0]) / n
    starts = range(0, n, LOGREG_BLOCK_ROWS)
    for iterations in range(LOGREG_MAX_ITERATIONS + 1):  # Newton steps taken so far
        p = _clamp_probs(sigmoid(np.concatenate(
            [X[start : start + LOGREG_BLOCK_ROWS] @ theta[:d] for start in starts]) + theta[d]))
        grad = penalty * theta
        hess = np.diag(penalty)
        for start in starts:
            block = slice(start, start + LOGREG_BLOCK_ROWS)
            rows = np.column_stack([X[block], np.ones(len(X[block]))])  # with the bias column
            pb, sw = p[block], sample_weights[block]
            grad += rows.T @ (sw * (pb - y[block]))
            hess += rows.T @ ((sw * pb * (1.0 - pb))[:, None] * rows)
        grad_norm = float(np.sqrt(grad @ grad))
        # |H_ij| <= sqrt(H_ii H_jj): a finite diagonal means a finite Hessian.
        if not (np.isfinite(grad_norm) and np.isfinite(hess.diagonal()).all()):
            raise DivergenceError(iterations)
        if grad_norm < LOGREG_TOL or iterations == LOGREG_MAX_ITERATIONS:
            break
        theta -= _newton_step(hess, grad)
    return TrainedModel(
        kind="logreg",
        feature_names=tuple(feature_names),
        params={"w": theta[:d].copy(), "b": theta[d:].copy()},
        training_seed=seed,
        loss_config=loss,
        class_weights=weights,
        schema_checksum=schema.checksum,
        metadata={"final_train_loss": float(np.mean(loss_values(p, y, loss, weights))),
                  "grad_norm": grad_norm, "l2": l2, "iterations": iterations},
    )


def train_gnb(
    X, y, feature_names, var_smoothing: float = 1e-9, schema: Schema | None = None
) -> TrainedModel:
    """Gaussian naive Bayes: per-class means/variances plus priors."""
    schema = schema or load_schema()
    X, y = _check_training_inputs(X, y, feature_names, schema)
    means, variances, priors = [], [], []
    for cls in (0, 1):
        Xc = X[y == cls]
        means.append(Xc.mean(axis=0))
        variances.append(np.maximum(Xc.var(axis=0), var_smoothing))
        priors.append(len(Xc) / len(X))
    return TrainedModel(
        kind="gnb",
        feature_names=tuple(feature_names),
        params={
            "means": np.array(means),
            "variances": np.array(variances),
            "priors": np.array(priors),
        },
        schema_checksum=schema.checksum,
        metadata={"var_smoothing": var_smoothing},
    )


def init_mlp_params(arch: MlpArchitecture, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    scale1 = np.sqrt(2.0 / arch.input_dim)
    scale2 = np.sqrt(2.0 / arch.hidden_units)
    return {
        "W1": rng.normal(0.0, scale1, size=(arch.input_dim, arch.hidden_units)),
        "b1": np.zeros(arch.hidden_units),
        "W2": rng.normal(0.0, scale2, size=(arch.hidden_units, 1)),
        "b2": np.zeros(1),
    }


# Rows per block of MLP inference, so a forward pass holds one (256, hidden)
# matrix rather than three (n, hidden) ones. OpenBLAS gives the rows of a
# block the bits of the whole-matrix product only when the block has more
# than one row (a 1-row product runs through gemv) and, except for the last
# block, a multiple of 4 rows (the (rows, hidden) @ (hidden, 1) product is
# a gemv); a lone last row is folded into the block before it. Blocks also
# keep each row's bits independent of the BLAS thread count.
FORWARD_BLOCK_ROWS = 256


def mlp_forward(params: dict, X: np.ndarray) -> np.ndarray:
    """P(class 1) per row of ``X``, computed over blocks of ``FORWARD_BLOCK_ROWS`` rows."""
    W1, b1, W2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    n = X.shape[0]
    out = np.empty(n)
    starts = list(range(0, n, FORWARD_BLOCK_ROWS))
    if n > 1 and n % FORWARD_BLOCK_ROWS == 1:
        del starts[-1]
    for start, stop in zip(starts, starts[1:] + [n]):
        hidden = X[start:stop] @ W1
        hidden += b1
        np.maximum(0.0, hidden, out=hidden)  # 0.0 first: equal values return it
        out[start:stop] = sigmoid(hidden @ W2 + b2)[:, 0]
        del hidden  # so the next block's product is not allocated while this one lives
    return out


def mlp_loss_and_grads(
    params: dict,
    X: np.ndarray,
    y: np.ndarray,
    loss: LossConfig,
    class_weights: tuple[float, float],
) -> tuple[float, dict]:
    """Mean loss over the batch and analytic gradients for every parameter.

    The probabilities are clamped once and shared by the loss and its
    gradient. The weighted loss takes one log per sample, log p or
    log(1 - p), which equals the two-term cross-entropy bit for bit on 0/1
    labels because the dropped term is 0 * log(.) = -0.0.
    """
    y = np.asarray(y)
    n = X.shape[0]
    pre_hidden = X @ params["W1"]
    pre_hidden += params["b1"]
    hidden = np.maximum(0.0, pre_hidden)
    z = hidden @ params["W2"]
    z += params["b2"]
    p = _clamp_probs(sigmoid(z.ravel()))
    if loss.kind == "weighted":
        positive = y == 1
        w = np.where(positive, class_weights[1], class_weights[0])
        terms = -w * np.log(np.where(positive, p, 1.0 - p))
        gz = w * (p - y)
    else:
        g, a = loss.gamma, loss.alpha
        terms = _focal_terms(p, y, g, a)
        grad_pos = a * (1.0 - p) ** g * (g * p * np.log(p) - (1.0 - p))
        grad_neg = (1.0 - a) * p**g * (p - g * (1.0 - p) * np.log(1.0 - p))
        gz = y * grad_pos + (1.0 - y) * grad_neg
    value = float(np.mean(terms))
    gz = (gz / n)[:, None]
    grads = {
        "W2": hidden.T @ gz,
        "b2": gz.sum(axis=0),
    }
    # With an inner dimension of 1 the broadcast product is the matmul
    # gz @ W2.T. Multiplying by the ReLU mask leaves -0.0 where a negative
    # entry is masked; adding +0.0 turns it into +0.0.
    dhidden = gz * params["W2"].T
    dhidden *= pre_hidden > 0
    dhidden += 0.0
    grads["W1"] = X.T @ dhidden
    grads["b1"] = dhidden.sum(axis=0)
    return value, grads


def train_mlp(
    X,
    y,
    feature_names,
    arch: MlpArchitecture | None = None,
    loss: LossConfig | None = None,
    optimizer: OptimizerConfig | None = None,
    class_weights: tuple[float, float] | None = None,
    seed: int = 0,
    schema: Schema | None = None,
) -> TrainedModel:
    """SGD-with-momentum training with early stopping on a validation carve-out.

    The carve-out comes from the training rows only; best-validation weights
    are restored. Deterministic accumulation order per seed.
    """
    schema = schema or load_schema()
    X, y = _check_training_inputs(X, y, feature_names, schema)
    arch = arch or MlpArchitecture(input_dim=X.shape[1])
    if arch.input_dim != X.shape[1]:
        raise ModelError("architecture input_dim does not match X")
    optimizer = optimizer or OptimizerConfig()
    weights = class_weights or inverse_prevalence_weights(y)
    if loss is None:
        loss = LossConfig(kind="weighted")

    rng = np.random.default_rng(seed)
    n = X.shape[0]
    order = rng.permutation(n)
    n_val = max(1, int(round(n * optimizer.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    yt = y[train_idx]
    if yt.size == 0 or yt.min() == yt.max():
        raise ModelError("validation carve-out left a single-class training set")
    Xv, yv = X[val_idx], y[val_idx]

    params = init_mlp_params(arch, seed)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    best = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    best_epoch = -1
    patience_left = optimizer.patience
    train_loss = np.nan
    epochs_run = 0

    for epoch in range(optimizer.max_epochs):
        epochs_run = epoch + 1
        # Batches gather straight from X, so the training rows are never copied whole.
        perm = train_idx[rng.permutation(len(train_idx))]
        batch_losses = []
        for start in range(0, len(perm), optimizer.batch_size):
            idx = perm[start : start + optimizer.batch_size]
            value, grads = mlp_loss_and_grads(params, X[idx], y[idx], loss, weights)
            if not np.isfinite(value):
                raise DivergenceError(epoch)
            batch_losses.append(value)
            for key, v in velocity.items():
                v *= optimizer.momentum
                v -= optimizer.learning_rate * grads[key]
                params[key] += v
        train_loss = float(np.mean(batch_losses))
        val_loss = float(np.mean(loss_values(mlp_forward(params, Xv), yv, loss, weights)))
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            patience_left = optimizer.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    return TrainedModel(
        kind="mlp",
        feature_names=tuple(feature_names),
        params=best,
        training_seed=seed,
        loss_config=loss,
        class_weights=weights,
        schema_checksum=schema.checksum,
        metadata={
            "hidden_units": arch.hidden_units,
            "final_train_loss": train_loss,
            "final_val_loss": float(best_val),
            "best_epoch": best_epoch,
            "epochs_run": epochs_run,
        },
    )


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Probability of class 1 for each row; dimension mismatch is an error."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.feature_names):
        raise ModelError(
            f"input has {X.shape[1]} features, model expects {len(model.feature_names)}"
        )
    if model.kind == "logreg":
        return sigmoid(X @ model.params["w"] + model.params["b"][0])
    if model.kind == "mlp":
        return mlp_forward(model.params, X)
    if model.kind == "gnb":
        means = model.params["means"]
        variances = model.params["variances"]
        priors = model.params["priors"]
        log_post = np.empty((X.shape[0], 2))
        for cls in (0, 1):
            ll = -0.5 * (
                np.log(2.0 * np.pi * variances[cls])
                + (X - means[cls]) ** 2 / variances[cls]
            ).sum(axis=1)
            log_post[:, cls] = ll + np.log(priors[cls])
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post[:, 1] / post.sum(axis=1)
    raise ModelError(f"unknown model kind: {model.kind}")


def predict_hard(model: TrainedModel, X, threshold: float = 0.5) -> np.ndarray:
    return (predict_proba(model, X) >= threshold).astype(int)


# Parameter values per json.dumps call when a model is saved, so saving holds
# one chunk's list and text rather than the whole document's.
SAVE_CHUNK_VALUES = 1024


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Self-describing JSON container: kind, shapes, parameters, provenance.

    The file holds exactly ``json.dumps`` of the document whose last key is
    ``params``, each parameter as ``{"shape": [...], "data": [...]}`` over its
    flattened values. Everything but the parameters is encoded before the
    file is opened, so an unserializable value leaves no file; the parameter
    values are then written ``SAVE_CHUNK_VALUES`` at a time.
    """
    head = json.dumps({
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "training_seed": model.training_seed,
        "loss_config": model.loss_config.to_dict() if model.loss_config else None,
        "class_weights": list(model.class_weights),
        "schema_checksum": model.schema_checksum,
        "metadata": model.metadata,
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-1]}, "params": {{')
        for i, (name, value) in enumerate(model.params.items()):
            flat = value.ravel()
            fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(value.shape))}, "data": [')
            for start in range(0, flat.size, SAVE_CHUNK_VALUES):
                chunk = json.dumps(flat[start : start + SAVE_CHUNK_VALUES].tolist())
                fh.write(f'{", " if start else ""}{chunk[1:-1]}')
            fh.write("]}")
        fh.write("}}")


# Top-level keys of a model file, and the parameter arrays of each kind.
_MODEL_KEYS = ("kind", "feature_names", "training_seed", "loss_config", "class_weights",
               "schema_checksum", "metadata", "params")
_PARAM_NAMES = {"logreg": {"w", "b"}, "gnb": {"means", "variances", "priors"},
                "mlp": {"W1", "b1", "W2", "b2"}}


def load_model(path: str | Path, schema: Schema | None = None) -> TrainedModel:
    """Load a model container.

    A document that is not a model container, and a schema checksum mismatch,
    are a ``ModelError``.
    """
    schema = schema or load_schema()
    doc = load_json(Path(path).read_bytes(), ModelError, path)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: a model file must be a JSON object")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ModelError(f"{path}: model file lacks {', '.join(map(repr, missing))}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PARAM_NAMES:
        raise ModelError(f"{path}: unknown model kind {kind!r}")
    checksum = doc["schema_checksum"]
    if checksum and checksum != schema.checksum:
        raise ModelError(
            "model was trained under a different schema/dictionary version: "
            f"{str(checksum)[:12]} != {schema.checksum[:12]}"
        )
    try:
        params = {
            k: np.array(v["data"], dtype=float).reshape(v["shape"])
            for k, v in doc["params"].items()
        }
        loss = LossConfig(**doc["loss_config"]) if doc["loss_config"] else None
        model = TrainedModel(
            kind=kind,
            feature_names=tuple(doc["feature_names"]),
            params=params,
            training_seed=doc["training_seed"],
            loss_config=loss,
            class_weights=tuple(doc["class_weights"]),
            schema_checksum=checksum,
            metadata=doc["metadata"],
        )
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ModelError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
    if set(params) != _PARAM_NAMES[kind]:
        raise ModelError(f"{path}: a {kind} model needs parameters {sorted(_PARAM_NAMES[kind])}")
    d = len(model.feature_names)
    h = params["W1"].shape[-1] if kind == "mlp" and params["W1"].ndim else None
    shapes = {
        "logreg": {"w": (d,), "b": (1,)},
        "gnb": {"means": (2, d), "variances": (2, d), "priors": (2,)},
        "mlp": {"W1": (d, h), "b1": (h,), "W2": (h, 1), "b2": (1,)},
    }[kind]
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ModelError(
                f"{path}: parameter {name!r} has shape {params[name].shape}, "
                f"a {kind} model over {d} features needs {shape}"
            )
    return model
