"""From-scratch supervised classifiers with probability outputs.

Logistic regression (Newton's method), Gaussian naive Bayes, and a
single-hidden-layer MLP trained by SGD with momentum under a weighted or focal
loss. Training is bit-deterministic per seed. The MLP SGD step reproduces its
reference form in ``tests/oracles.py`` bit for bit; the logreg fit matches the
gradient-descent reference there within a tolerance. Trained models are
immutable containers safe to share.

An MLP is trained on one flat parameter vector: ``W1``, ``b1``, ``W2`` and
``b2`` are reshaped views into it, and the velocity and gradient are flat
vectors of the same length, so the momentum update is four in-place calls.
Each step writes into an ``MlpWorkspace`` (two (batch, hidden) buffers and
the flat gradient) instead of allocating temporaries. The step keeps the
reference's bits because each change of form is exact: ``out=`` and in-place
calls run the same operation on the same operands in the same order;
``np.mean`` is ``np.add.reduce`` divided by n; negating a sum, or a product,
commutes with rounding; ``lr * g`` equals ``g * lr``; clipping leaves
in-range values as they are; and the ReLU mask, 0 or 1, may be applied before
or after the other factors, since x * 1 is x and x * 0 is a zero that the
final ``+ 0.0`` makes +0.0 (where gz * W2 overflows, a masked entry is now
+0.0, as in the reference, rather than inf * 0 = NaN).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cohort import leakage_guard
from .jsondoc import integer, list_of, load_json, mapping_of, nullable, number, obj, one_of, replacing, string
from .records import record_type
from .schema import Schema, load_schema

EPS = 1e-7
MODEL_KINDS = ("logreg", "gnb", "mlp")
LOSS_KINDS = ("weighted", "focal")


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


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    """``p`` clipped to [EPS, 1 - EPS]; ``p`` itself when nothing is outside."""
    p = np.asarray(p, dtype=float)
    out_of_range = int(np.count_nonzero((p < EPS) | (p > 1.0 - EPS)))
    if not out_of_range:
        return p
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


@record_type
class LossConfig(NamedTuple):
    kind: str = "weighted"  # one of LOSS_KINDS
    gamma: float = 2.0
    alpha: float = 0.25

    def _checked(self):
        if self.kind not in LOSS_KINDS:
            raise ModelError(f"unknown loss kind: {self.kind}")
        return self


def _focal_terms(p, y, gamma: float, alpha: float):
    """Per-sample focal loss, and the terms its gradient shares with it:
    1 - p, log p, log(1 - p), (1 - p)^g, p^g and 1 - y."""
    q = 1.0 - p
    log_p, log_q, q_g, p_g, not_y = np.log(p), np.log(q), q**gamma, p**gamma, 1.0 - y
    terms = y * (-alpha * q_g * log_p) + not_y * (-(1.0 - alpha) * p_g * log_q)
    return terms, (q, log_p, log_q, q_g, p_g, not_y)


def _weighted_terms(p, y, class_weights: tuple[float, float]):
    """Class weight w and w log p (y=1) or w log(1 - p) (y=0) per sample. One log per sample
    gives the two-term cross-entropy's bits on 0/1 labels: the dropped 0 * log(.) is -0.0."""
    positive = y == 1
    w = np.where(positive, class_weights[1], class_weights[0])
    logs = np.where(positive, p, 1.0 - p)
    np.log(logs, out=logs)
    logs *= w
    return w, logs


def loss_values(p, y, loss: LossConfig, class_weights: tuple[float, float]):
    """Per-sample loss on clamped probabilities; a float for a scalar ``p`` and ``y``.

    Focal: -a(1-p)^g log p for y=1, -(1-a)p^g log(1-p) for y=0. Weighted:
    cross-entropy times ``class_weights[y]``.
    """
    p = _clamp_probs(p)
    y = np.asarray(y, dtype=float)
    if loss.kind == "focal":
        out = _focal_terms(p, y, loss.gamma, loss.alpha)[0]
    else:
        out = -_weighted_terms(p, y, class_weights)[1]
    return float(out) if out.ndim == 0 else out


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


@record_type
class MlpArchitecture(NamedTuple):
    input_dim: int
    hidden_units: int = 400

    def _checked(self):
        if self.hidden_units < 1:
            raise ModelError("hidden_units must be >= 1")
        return self


class OptimizerConfig(NamedTuple):
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 200
    val_fraction: float = 0.1
    patience: int = 20


@record_type  # each model gets its own metadata dict
class TrainedModel(NamedTuple):
    kind: str  # one of MODEL_KINDS
    feature_names: tuple[str, ...]
    params: dict
    training_seed: int = 0
    loss_config: LossConfig | None = None
    class_weights: tuple[float, float] = (1.0, 1.0)
    schema_checksum: str = ""
    metadata: dict = {}


def _check_training_inputs(X, y, feature_names, schema: Schema):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    bad = y[(y != 0) & (y != 1)]
    if bad.size:
        raise ModelError(f"training labels must be 0 or 1, found {bad[0].item()!r}")
    y = y.astype(int, copy=False)
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


GNB_VAR_SMOOTHING = 1e-9


def train_gnb(X, y, feature_names, schema: Schema | None = None) -> TrainedModel:
    """Gaussian naive Bayes: per-class means/variances, floored at
    ``GNB_VAR_SMOOTHING``, plus priors."""
    schema = schema or load_schema()
    X, y = _check_training_inputs(X, y, feature_names, schema)
    means, variances, priors = [], [], []
    for cls in (0, 1):
        Xc = X[y == cls]
        means.append(Xc.mean(axis=0))
        variances.append(np.maximum(Xc.var(axis=0), GNB_VAR_SMOOTHING))
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
        metadata={"var_smoothing": GNB_VAR_SMOOTHING},
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


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector whose data starts on a 64-byte boundary. With
    every MLP step buffer 16 or 48 bytes past one, a fit on 4,000 rows took 11%
    longer and a forward pass up to 5%, with the same bits."""
    raw = np.empty(size + 7)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start : start + size]


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
    block = _aligned_empty(min(n, FORWARD_BLOCK_ROWS + 1) * W1.shape[1])  # each block's hidden
    for start, stop in zip(starts, starts[1:] + [n]):
        hidden = block[: (stop - start) * W1.shape[1]].reshape(stop - start, W1.shape[1])
        np.matmul(X[start:stop], W1, out=hidden)
        hidden += b1
        np.maximum(0.0, hidden, out=hidden)  # 0.0 first: equal values return it
        out[start:stop] = sigmoid(hidden @ W2 + b2)[:, 0]
    return out


def mlp_param_views(flat: np.ndarray, input_dim: int, hidden_units: int) -> dict:
    """``W1``, ``b1``, ``W2`` and ``b2`` as reshaped views into one flat vector."""
    d, h = input_dim, hidden_units
    return {"W1": flat[: d * h].reshape(d, h), "b1": flat[d * h : d * h + h],
            "W2": flat[d * h + h : d * h + 2 * h].reshape(h, 1), "b2": flat[d * h + 2 * h :]}


class MlpWorkspace:
    """The arrays an MLP step writes: two (batch, hidden) buffers and the flat
    gradient, with ``grads`` its per-parameter views, each on a 64-byte
    boundary. A shorter batch uses the buffers' leading rows."""

    def __init__(self, input_dim: int, hidden_units: int, batch_rows: int):
        # One allocation for both buffers, ``dhidden`` from the first boundary
        # past ``hidden``: a 5,000-row ``crsbench run`` peaked 0.1 MB higher in
        # resident memory with two.
        size = batch_rows * hidden_units
        both = _aligned_empty(-(-size // 8) * 8 + size)
        self.hidden = both[:size].reshape(batch_rows, hidden_units)
        self.dhidden = both[-size:].reshape(batch_rows, hidden_units)
        self.grad = _aligned_empty(input_dim * hidden_units + 2 * hidden_units + 1)
        self.grads = mlp_param_views(self.grad, input_dim, hidden_units)


def mlp_loss_and_grads(
    params: dict,
    X: np.ndarray,
    y: np.ndarray,
    loss: LossConfig,
    class_weights: tuple[float, float],
    workspace: MlpWorkspace,
) -> tuple[float, dict]:
    """Mean loss over the batch and analytic gradients for every parameter.

    The caller's ``workspace`` holds the hidden activations and their
    gradient (at least the batch's rows) and the gradients, which are
    ``workspace.grads``, views into ``workspace.grad``, overwritten by the
    next call with the same workspace. The probabilities are clamped once
    and shared by the loss and its gradient.
    """
    y = np.asarray(y)
    n = X.shape[0]
    W1, b1, W2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    hidden, dhidden, grads = workspace.hidden[:n], workspace.dhidden[:n], workspace.grads
    np.matmul(X, W1, out=hidden)
    hidden += b1
    np.maximum(0.0, hidden, out=hidden)  # 0.0 first: equal values return it
    z = hidden @ W2
    z += b2
    p = _clamp_probs(sigmoid(z.ravel()))
    if loss.kind == "weighted":
        w, logs = _weighted_terms(p, y, class_weights)
        value = -float(np.add.reduce(logs)) / n
        gz = np.subtract(p, y)
        gz *= w
    else:
        g, a = loss.gamma, loss.alpha
        terms, (q, log_p, log_q, q_g, p_g, not_y) = _focal_terms(p, y, g, a)
        value = float(np.add.reduce(terms)) / n
        gz = y * (a * q_g * (g * p * log_p - q)) + not_y * ((1.0 - a) * p_g * (p - g * q * log_q))
    gz /= n
    gz = gz[:, None]
    np.matmul(hidden.T, gz, out=grads["W2"])
    np.add.reduce(gz, axis=0, out=grads["b2"])
    # hidden = max(0, pre-activation) is > 0 exactly where the pre-activation
    # is, so it becomes the float ReLU mask in place. The mask times W2 times
    # gz is gz @ W2.T with masked entries +-0.0, as one factor is 0 or 1;
    # adding +0.0 turns -0.0 into +0.0.
    np.greater(hidden, 0.0, out=hidden)
    np.multiply(hidden, W2.T, out=dhidden)
    dhidden *= gz
    dhidden += 0.0
    np.matmul(X.T, dhidden, out=grads["W1"])
    np.add.reduce(dhidden, axis=0, out=grads["b1"])
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
    are restored. Deterministic accumulation order per seed. Each step is one
    call of the module's ``mlp_loss_and_grads`` with one ``MlpWorkspace`` for
    the whole fit, then ``v = momentum * v - learning_rate * grad`` and
    ``theta += v`` in place over the flat vectors.
    """
    schema = schema or load_schema()
    X, y = _check_training_inputs(X, y, feature_names, schema)
    arch = arch or MlpArchitecture(input_dim=X.shape[1])
    if arch.input_dim != X.shape[1]:
        raise ModelError("architecture input_dim does not match X")
    optimizer = optimizer or OptimizerConfig()
    weights = class_weights or inverse_prevalence_weights(y)
    loss = loss or LossConfig()

    rng = np.random.default_rng(seed)
    n = X.shape[0]
    order = rng.permutation(n)
    n_val = max(1, int(round(n * optimizer.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    yt = y[train_idx]
    if yt.size == 0 or yt.min() == yt.max():
        raise ModelError("validation carve-out left a single-class training set")
    Xv, yv = X[val_idx], y[val_idx]

    d, h = arch.input_dim, arch.hidden_units
    workspace = MlpWorkspace(d, h, min(optimizer.batch_size, len(train_idx)))
    theta, velocity = _aligned_empty(workspace.grad.size), _aligned_empty(workspace.grad.size)
    params = mlp_param_views(theta, d, h)
    for key, value in init_mlp_params(arch, seed).items():
        params[key][...] = value
    velocity[:] = 0.0
    best = theta.copy()
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
            value, _ = mlp_loss_and_grads(params, X[idx], y[idx], loss, weights, workspace)
            if not math.isfinite(value):
                raise DivergenceError(epoch)
            batch_losses.append(value)
            velocity *= optimizer.momentum
            workspace.grad *= optimizer.learning_rate
            velocity -= workspace.grad
            theta += velocity
        train_loss = float(np.mean(batch_losses))
        val_loss = float(np.mean(loss_values(mlp_forward(params, Xv), yv, loss, weights)))
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best[:] = theta
            best_epoch = epoch
            patience_left = optimizer.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    return TrainedModel(
        kind="mlp",
        feature_names=tuple(feature_names),
        params=mlp_param_views(best, d, h),
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
    """Probability of class 1 for each row, computed without numpy warnings;
    a dimension mismatch or a score that is not finite is a ``ModelError``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.feature_names):
        raise ModelError(
            f"input has {X.shape[1]} features, model expects {len(model.feature_names)}"
        )
    with np.errstate(all="ignore"):
        if model.kind == "logreg":
            scores = sigmoid(X @ model.params["w"] + model.params["b"][0])
        elif model.kind == "mlp":
            scores = mlp_forward(model.params, X)
        elif model.kind == "gnb":
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
            scores = post[:, 1] / post.sum(axis=1)
        else:
            raise ModelError(f"unknown model kind: {model.kind}")
    if not np.isfinite(scores).all():
        raise ModelError(f"the {model.kind} model gives scores that are not finite")
    return scores


def predict_hard(model: TrainedModel, X, threshold: float = 0.5) -> np.ndarray:
    return (predict_proba(model, X) >= threshold).astype(int)


# Parameter values per json.dumps call when a model is saved, so saving holds
# one chunk's list and text rather than the whole document's.
SAVE_CHUNK_VALUES = 1024


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Self-describing JSON container: kind, shapes, parameters, provenance.

    The file holds exactly ``json.dumps`` of the document whose last key is
    ``params``, each parameter as ``{"shape": [...], "data": [...]}`` over its
    flattened values, written ``SAVE_CHUNK_VALUES`` at a time through
    ``replacing``, so a failure at any point leaves the old file as it was.
    """
    head = model._asdict()
    params = head.pop("params")
    head = json.dumps({**head, "loss_config": model.loss_config and model.loss_config._asdict()})
    with replacing(path) as fh:
        fh.write(f'{head[:-1]}, "params": {{')
        for i, (name, value) in enumerate(params.items()):
            flat = value.ravel()
            fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(value.shape))}, "data": [')
            for start in range(0, flat.size, SAVE_CHUNK_VALUES):
                chunk = json.dumps(flat[start : start + SAVE_CHUNK_VALUES].tolist())
                fh.write(f'{", " if start else ""}{chunk[1:-1]}')
            fh.write("]}")
        fh.write("}}")


# A model file as ``save_model`` writes it; ``load_model`` checks its parameters.
_MODEL = obj({
    "kind": one_of(MODEL_KINDS),
    "feature_names": list_of(string()),
    "training_seed": integer(),
    "loss_config": nullable(obj({"kind": one_of(LOSS_KINDS), "gamma": number(), "alpha": number()},
                                build=LossConfig)),
    "class_weights": list_of(number()),
    "schema_checksum": string(),
    "metadata": mapping_of(),
    "params": mapping_of(obj({"shape": list_of(integer(0)), "data": list_of(number())})),
})


def load_model(path: str | Path, schema: Schema | None = None) -> TrainedModel:
    """Load a model container.

    A document that is not a model container, a parameter of the wrong shape
    or with a value that is not a finite number, and a schema checksum
    mismatch are a ``ModelError``.
    """
    schema = schema or load_schema()
    doc = load_json(Path(path).read_bytes(), _MODEL, ModelError, path)
    kind, checksum, entries = doc["kind"], doc["schema_checksum"], doc["params"]
    if checksum and checksum != schema.checksum:
        raise ModelError(
            "model was trained under a different schema/dictionary version: "
            f"{checksum[:12]} != {schema.checksum[:12]}"
        )
    d = len(doc["feature_names"])
    h = (entries["W1"]["shape"] or [None])[-1] if "W1" in entries else None
    shapes = {
        "logreg": {"w": (d,), "b": (1,)},
        "gnb": {"means": (2, d), "variances": (2, d), "priors": (2,)},
        "mlp": {"W1": (d, h), "b1": (h,), "W2": (h, 1), "b2": (1,)},
    }[kind]
    if entries.keys() != shapes.keys():
        raise ModelError(f"{path}: a {kind} model needs parameters {sorted(shapes)}")
    params = {}
    for name, shape in shapes.items():
        if tuple(entries[name]["shape"]) != shape:
            raise ModelError(
                f"{path}: parameter {name!r} has shape {tuple(entries[name]['shape'])}, "
                f"a {kind} model over {d} features needs {shape}"
            )
        values = np.array(entries[name]["data"])  # an integer past 64 bits makes an object array
        if (values.size != math.prod(shape) or values.dtype.kind not in "iuf"
                or not np.isfinite(values).all()):
            raise ModelError(f"{path}: parameter {name!r} must hold finite numbers only, "
                             f"{math.prod(shape)} of them")
        params[name] = values.astype(float, copy=False).reshape(shape)
    return TrainedModel(**{**doc, "feature_names": tuple(doc["feature_names"]),
                           "class_weights": tuple(doc["class_weights"]), "params": params})
