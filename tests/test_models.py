import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crsbench
from conftest import peak_traced_bytes
from crsbench.cohort import LeakageError
from crsbench.models import (
    FORWARD_BLOCK_ROWS,
    GNB_VAR_SMOOTHING,
    LOGREG_MAX_ITERATIONS,
    SAVE_CHUNK_VALUES,
    DivergenceError,
    LossConfig,
    MlpArchitecture,
    MlpWorkspace,
    ModelError,
    OptimizerConfig,
    TrainedModel,
    _newton_step,
    clamp_count,
    init_mlp_params,
    inverse_prevalence_weights,
    load_model,
    loss_values,
    mlp_forward,
    mlp_loss_and_grads,
    mlp_param_views,
    predict_hard,
    predict_proba,
    save_model,
    sigmoid,
    train_gnb,
    train_logreg,
    train_mlp,
)
from oracles import (
    ReferenceDivergence,
    _loss_grad_z,
    _loss_terms,
    mlp_forward_reference,
    mlp_loss_and_grads_reference,
    save_model_reference,
    sigmoid_two_branch,
    train_logreg_reference,
    train_mlp_reference,
)

FEATURES_4 = ("f_a", "f_b", "f_c", "f_d")


def _blobs(n=120, d=4, seed=0, sep=2.0):
    rng = np.random.default_rng(seed)
    n1 = n // 2
    X = np.vstack(
        [rng.normal(-sep / 2, 1.0, size=(n - n1, d)), rng.normal(sep / 2, 1.0, size=(n1, d))]
    )
    y = np.concatenate([np.zeros(n - n1, dtype=int), np.ones(n1, dtype=int)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


def test_sigmoid_stability():
    z = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] == 0.0 or p[0] < 1e-300
    assert p[2] == 0.5
    assert p[4] == 1.0 or p[4] > 1 - 1e-12


FOCAL = LossConfig("focal", gamma=2.0, alpha=0.25)


def test_focal_reduces_to_weighted_ce_at_gamma_zero():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.01, 0.99, size=200)
    y = rng.integers(0, 2, size=200)
    alpha = 0.25
    focal = loss_values(p, y, LossConfig("focal", gamma=0.0, alpha=alpha), (1.0, 1.0))
    ce = loss_values(p, y, LossConfig("weighted"), (1.0 - alpha, alpha))
    np.testing.assert_allclose(focal, ce, rtol=0, atol=1e-12)


def test_focal_down_weights_easy_examples():
    # a well-classified positive contributes far less under gamma=2
    easy = loss_values(0.95, 1, FOCAL, (1.0, 1.0))
    hard = loss_values(0.40, 1, FOCAL, (1.0, 1.0))
    plain_ratio = -np.log(0.40) / -np.log(0.95)
    assert hard / easy > plain_ratio


def test_clamp_counter_tracks_out_of_range_probabilities():
    for loss in (LossConfig("weighted"), FOCAL):
        before = clamp_count()
        loss_values(np.array([0.5, 0.5]), np.array([1, 0]), loss, (1.0, 1.0))
        assert clamp_count() == before
        loss_values(np.array([0.0, 1.0, 0.5]), np.array([1, 0, 1]), loss, (1.0, 1.0))
        assert clamp_count() - before == 2, loss.kind
    assert json.loads(json.dumps(clamp_count())) == clamp_count()  # a plain int, as trace records need


@pytest.mark.parametrize("kind,gamma,alpha", [("weighted", 0.0, 0.5), ("focal", 2.0, 0.25),
                                              ("focal", 0.5, 0.8)])
def test_loss_gradient_matches_central_differences(kind, gamma, alpha):
    loss = LossConfig(kind=kind, gamma=gamma, alpha=alpha)
    weights = (0.6, 1.4)
    rng = np.random.default_rng(7)
    z = rng.normal(0.0, 2.0, size=50)
    y = rng.integers(0, 2, size=50)
    analytic = _loss_grad_z(sigmoid(z), y, loss, weights)
    h = 1e-6
    numeric = (
        loss_values(sigmoid(z + h), y, loss, weights)
        - loss_values(sigmoid(z - h), y, loss, weights)
    ) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_inverse_prevalence_weights():
    y = np.array([0] * 20 + [1] * 80)
    w0, w1 = inverse_prevalence_weights(y)
    assert w0 / w1 == pytest.approx((0.8 / 0.2), rel=1e-12)
    assert (w0 + w1) / 2 == pytest.approx(1.0)
    t0, t1 = inverse_prevalence_weights(y, power=0.5)
    assert 1.0 < t0 / t1 < w0 / w1  # tempering shrinks the ratio toward 1
    with pytest.raises(ModelError):
        inverse_prevalence_weights(np.ones(10))


def test_training_input_validation(schema):
    X, y = _blobs(40)
    with pytest.raises(ModelError, match="single class"):
        train_logreg(X, np.zeros(40, dtype=int), FEATURES_4, schema=schema)
    with pytest.raises(ModelError):
        train_logreg(X, y[:-1], FEATURES_4, schema=schema)
    with pytest.raises(LeakageError):
        train_logreg(X, y, ("f_a", "f_b", "f_c", "SNOT22_6MO_TOTAL"), schema=schema)


_TRAINERS = {
    "logreg": train_logreg,
    "gnb": train_gnb,
    "mlp": lambda X, y, names, schema: train_mlp(
        X, y, names, arch=MlpArchitecture(4, 3), class_weights=(1.0, 1.0),
        optimizer=OptimizerConfig(max_epochs=1), schema=schema),
}


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
@pytest.mark.parametrize("labels, bad", [
    pytest.param([0, 2], "2", id="label-2"),
    pytest.param([0, 0.4, 1], "0.4", id="label-0.4"),
    pytest.param([0.0, 0.7], "0.7", id="label-0.7-not-one-class"),
    pytest.param([0, -1, 1], "-1", id="label-minus-1"),
])
def test_training_rejects_labels_other_than_0_and_1(schema, trainer, labels, bad):
    # Casting to int turned 0.4 and 0.7 into 0; a label of 2 trained logreg
    # as if it were 1 and gave gnb NaN parameters.
    y = np.resize(labels, 40)
    X, _ = _blobs(40)
    with pytest.raises(ModelError) as info:
        _TRAINERS[trainer](X, y, FEATURES_4, schema=schema)
    assert str(info.value) == f"training labels must be 0 or 1, found {bad}"


def test_training_accepts_float_and_bool_labels_of_0_and_1(schema):
    X, y = _blobs(40)
    want = train_logreg(X, y, FEATURES_4, schema=schema).params["w"]
    for labels in (y.astype(float), y.astype(bool)):
        got = train_logreg(X, labels, FEATURES_4, schema=schema).params["w"]
        assert got.tobytes() == want.tobytes()


def test_logreg_learns_separable_blobs(schema):
    X, y = _blobs(200, sep=3.0)
    model = train_logreg(X, y, FEATURES_4, schema=schema)
    acc = np.mean(predict_hard(model, X) == y)
    assert acc >= 0.95
    assert model.kind == "logreg"
    assert model.metadata["final_train_loss"] < 0.2


def test_logreg_is_deterministic(schema):
    X, y = _blobs(100)
    a = train_logreg(X, y, FEATURES_4, schema=schema)
    b = train_logreg(X, y, FEATURES_4, schema=schema)
    np.testing.assert_array_equal(a.params["w"], b.params["w"])


def test_logreg_class_weights_shift_operating_point(schema):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] + rng.normal(0, 1.5, 300) > 0.8).astype(int)  # imbalanced, noisy
    if len(np.unique(y)) < 2:
        pytest.skip("degenerate draw")
    plain = train_logreg(X, y, FEATURES_4, schema=schema)
    boosted = train_logreg(X, y, FEATURES_4, class_weights=(1.0, 10.0), schema=schema)
    assert predict_hard(boosted, X).sum() > predict_hard(plain, X).sum()


def test_gnb_matches_closed_form(schema):
    X, y = _blobs(150, seed=5)
    model = train_gnb(X, y, FEATURES_4, schema=schema)
    for cls in (0, 1):
        np.testing.assert_allclose(model.params["means"][cls], X[y == cls].mean(axis=0))
        np.testing.assert_allclose(
            model.params["variances"][cls],
            np.maximum(X[y == cls].var(axis=0), 1e-9),
        )
    p = predict_proba(model, X)
    assert np.all((p >= 0) & (p <= 1))
    assert np.mean((p >= 0.5).astype(int) == y) > 0.9


def test_gnb_variance_floor(schema):
    X, y = _blobs(60, seed=2)
    X[:, 3] = 1.0  # constant column
    model = train_gnb(X, y, FEATURES_4, schema=schema)
    assert np.all(model.params["variances"][:, 3] == GNB_VAR_SMOOTHING)
    assert model.metadata == {"var_smoothing": GNB_VAR_SMOOTHING}
    assert np.all(np.isfinite(predict_proba(model, X)))


def test_mlp_gradients_match_central_differences(schema):
    rng = np.random.default_rng(11)
    arch = MlpArchitecture(input_dim=4, hidden_units=6)
    params = init_mlp_params(arch, seed=1)
    X = rng.normal(size=(8, 4))
    y = rng.integers(0, 2, size=8)
    # the analytic gradients stay in their own workspace while the differences are taken
    kept, probe = MlpWorkspace(4, 6, 8), MlpWorkspace(4, 6, 8)
    for loss in (LossConfig("weighted"), LossConfig("focal", gamma=2.0, alpha=0.25)):
        _, grads = mlp_loss_and_grads(params, X, y, loss, (0.7, 1.3), kept)
        for key in ("W1", "b1", "W2", "b2"):
            flat = params[key].ravel()
            num = np.empty_like(flat)
            h = 1e-6
            for i in range(len(flat)):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = mlp_loss_and_grads(params, X, y, loss, (0.7, 1.3), probe)
                flat[i] = orig - h
                down, _ = mlp_loss_and_grads(params, X, y, loss, (0.7, 1.3), probe)
                flat[i] = orig
                num[i] = (up - down) / (2 * h)
            analytic = grads[key].ravel()
            denom = np.maximum(np.abs(num), 1e-8)
            rel = np.abs(analytic - num) / denom
            assert rel.max() <= 1e-4, f"{loss.kind}/{key}: max rel err {rel.max():.2e}"


def test_mlp_trains_and_early_stops(schema):
    X, y = _blobs(200, sep=3.0, seed=8)
    model = train_mlp(
        X, y, FEATURES_4,
        arch=MlpArchitecture(input_dim=4, hidden_units=16),
        optimizer=OptimizerConfig(max_epochs=60, patience=10),
        seed=0, schema=schema,
    )
    assert np.mean(predict_hard(model, X) == y) >= 0.95
    assert model.metadata["epochs_run"] <= 60
    assert model.metadata["best_epoch"] >= 0
    assert np.isfinite(model.metadata["final_val_loss"])


def test_mlp_deterministic_per_seed(schema):
    X, y = _blobs(80, seed=4)
    kwargs = dict(
        arch=MlpArchitecture(input_dim=4, hidden_units=8),
        optimizer=OptimizerConfig(max_epochs=10, patience=5),
        schema=schema,
    )
    a = train_mlp(X, y, FEATURES_4, seed=3, **kwargs)
    b = train_mlp(X, y, FEATURES_4, seed=3, **kwargs)
    c = train_mlp(X, y, FEATURES_4, seed=4, **kwargs)
    np.testing.assert_array_equal(a.params["W1"], b.params["W1"])
    assert not np.array_equal(a.params["W1"], c.params["W1"])


def test_mlp_divergence_is_detected(schema):
    X, y = _blobs(64, seed=6)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        train_mlp(
            X * 1e4, y, FEATURES_4,
            arch=MlpArchitecture(input_dim=4, hidden_units=8),
            optimizer=OptimizerConfig(learning_rate=1e6, max_epochs=50, patience=50),
            schema=schema,
        )


def test_predict_dimension_mismatch(schema):
    X, y = _blobs(50)
    model = train_gnb(X, y, FEATURES_4, schema=schema)
    with pytest.raises(ModelError, match="features"):
        predict_proba(model, np.zeros((3, 7)))


def test_save_load_round_trip(tmp_path, schema):
    X, y = _blobs(100, seed=9)
    for model in (
        train_logreg(X, y, FEATURES_4, schema=schema),
        train_gnb(X, y, FEATURES_4, schema=schema),
        train_mlp(X, y, FEATURES_4, arch=MlpArchitecture(4, 8),
                  optimizer=OptimizerConfig(max_epochs=5, patience=5), schema=schema),
    ):
        path = tmp_path / f"{model.kind}.json"
        save_model(model, path)
        loaded = load_model(path, schema)
        assert loaded.kind == model.kind
        assert loaded.feature_names == model.feature_names
        np.testing.assert_array_equal(predict_proba(loaded, X), predict_proba(model, X))


def test_load_rejects_schema_mismatch(tmp_path, schema):
    X, y = _blobs(40)
    model = train_logreg(X, y, FEATURES_4, schema=schema)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["schema_checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="schema"):
        load_model(path, schema)


@pytest.mark.parametrize(
    "kind, param, shape",
    [
        ("logreg", "w", [3]),
        ("logreg", "b", [2]),
        ("gnb", "means", [2, 3]),
        ("gnb", "variances", [3, 4]),
        ("gnb", "priors", [3]),
        ("mlp", "W1", [3, 8]),
        ("mlp", "b1", [7]),
        ("mlp", "W2", [8, 2]),
        ("mlp", "b2", [2]),
    ],
)
def test_load_rejects_parameter_shapes_that_disagree(tmp_path, schema, kind, param, shape):
    X, y = _blobs(40)
    model = {
        "logreg": lambda: train_logreg(X, y, FEATURES_4, schema=schema),
        "gnb": lambda: train_gnb(X, y, FEATURES_4, schema=schema),
        "mlp": lambda: train_mlp(X, y, FEATURES_4, arch=MlpArchitecture(4, 8),
                                 optimizer=OptimizerConfig(max_epochs=2, patience=2), schema=schema),
    }[kind]()
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["params"][param] = {"shape": shape, "data": [0.5] * int(np.prod(shape))}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=param):
        load_model(path, schema)


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(1e-6, 1 - 1e-6),
    gamma=st.floats(0.0, 5.0),
    alpha=st.floats(0.05, 0.95),
    y=st.integers(0, 1),
)
def test_focal_loss_nonnegative_property(p, gamma, alpha, y):
    value = loss_values(p, y, LossConfig("focal", gamma=gamma, alpha=alpha), (1.0, 1.0))
    assert value >= 0.0
    assert np.isfinite(value)


# --- bit identity with the reference kernels in tests/oracles.py -------------

FEATURES_22 = tuple(f"x{i}" for i in range(22))


def _cohort_like(n, seed):
    """Imbalanced 22-feature data, the width of the encoded cohort."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 22))
    y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(0.0, 1.0, n) > 0.8).astype(int)
    return X, y


def _same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


@pytest.mark.parametrize("kind", ["weighted", "focal"])
@pytest.mark.parametrize("seed", [0, 5, 13])
def test_train_mlp_is_bit_identical_to_reference(schema, kind, seed):
    # n=203 leaves 183 training rows: five full batches of 32 and one of 23.
    X, y = _cohort_like(203, seed)
    loss = LossConfig(kind)
    optimizer = OptimizerConfig(max_epochs=12, patience=4)
    weights = inverse_prevalence_weights(y)
    model = train_mlp(X, y, FEATURES_22, loss=loss, optimizer=optimizer, seed=seed, schema=schema)
    arch = MlpArchitecture(input_dim=22)
    best, meta = train_mlp_reference(X, y, init_mlp_params(arch, seed), loss, optimizer, weights, seed)
    assert _same_bits(model.params, best)
    got = {k: model.metadata[k] for k in meta}
    assert json.dumps(got) == json.dumps(meta)


# n_train = n - round(n / 10): 74 rows leave 67 = 2 * 32 + 3, a 3-row last
# batch; 72 rows leave 65 = 2 * 32 + 1, a one-row last batch.
@pytest.mark.parametrize("kind", ["weighted", "focal"])
@pytest.mark.parametrize("n", [74, 72], ids=["3-row-last-batch", "1-row-last-batch"])
def test_small_train_mlp_is_bit_identical_to_reference(schema, kind, n):
    X, y = _blobs(n, seed=2)
    arch, loss = MlpArchitecture(4, 7), LossConfig(kind)
    optimizer = OptimizerConfig(max_epochs=12, patience=4)
    weights = inverse_prevalence_weights(y)
    model = train_mlp(X, y, FEATURES_4, arch=arch, loss=loss, optimizer=optimizer, seed=3,
                      schema=schema)
    best, meta = train_mlp_reference(X, y, init_mlp_params(arch, 3), loss, optimizer, weights, 3)
    assert _same_bits(model.params, best)
    assert json.dumps({k: model.metadata[k] for k in meta}) == json.dumps(meta)


def test_train_mlp_calls_the_step_function_once_per_batch(schema, monkeypatch):
    # The bench counts SGD steps by rebinding crsbench.models.mlp_loss_and_grads.
    step, rows = crsbench.models.mlp_loss_and_grads, []

    def counting(params, X, *args, **kwargs):
        rows.append(X.shape[0])
        return step(params, X, *args, **kwargs)

    monkeypatch.setattr(crsbench.models, "mlp_loss_and_grads", counting)
    X, y = _blobs(100, seed=5)  # 90 training rows: batches of 32, 32 and 26
    model = train_mlp(X, y, FEATURES_4, arch=MlpArchitecture(4, 7),
                      optimizer=OptimizerConfig(max_epochs=7, patience=50), schema=schema)
    assert model.metadata["epochs_run"] == 7
    assert rows == [32, 32, 26] * 7


def _offset(a: np.ndarray) -> int:
    """Bytes from the last 64-byte boundary to the start of ``a``'s data."""
    return a.__array_interface__["data"][0] % 64


@pytest.mark.parametrize("hidden_units", [1, 3, 400])
@pytest.mark.parametrize("batch_size", [1, 7, 32])
def test_mlp_step_buffers_start_on_a_64_byte_boundary(schema, monkeypatch, hidden_units,
                                                      batch_size):
    # A step is faster with its buffers on a 64-byte boundary; the heap does
    # not put them there on its own. Every flat vector of a fit comes from
    # models._aligned_empty: at the first step, the hidden/dhidden buffer, the
    # gradient, theta and the velocity (all zeros).
    step, aligned_empty, made, first = (crsbench.models.mlp_loss_and_grads,
                                        crsbench.models._aligned_empty, [], [])

    def recording(size):
        made.append(aligned_empty(size))
        return made[-1]

    def watching(params, X, y, loss, weights, workspace):
        if not first:
            first.append((params["W1"], workspace, [(a, a.copy()) for a in made]))
        return step(params, X, y, loss, weights, workspace)

    monkeypatch.setattr(crsbench.models, "_aligned_empty", recording)
    monkeypatch.setattr(crsbench.models, "mlp_loss_and_grads", watching)
    X, y = _blobs(40, seed=1)
    train_mlp(X, y, FEATURES_4, arch=MlpArchitecture(4, hidden_units),
              optimizer=OptimizerConfig(batch_size=batch_size, max_epochs=1), schema=schema)
    theta, workspace, at_first_step = first[0]
    buffers = {"hidden": workspace.hidden, "dhidden": workspace.dhidden,
               "grad": workspace.grad, "theta": theta}
    assert {name: _offset(a) for name, a in buffers.items()} == dict.fromkeys(buffers, 0)
    assert workspace.hidden.base is workspace.dhidden.base  # one allocation for both
    assert len(at_first_step) == 4 and all(_offset(a) == 0 for a, _ in at_first_step)
    velocity = [value for a, value in at_first_step
                if not any(np.shares_memory(a, b) for b in buffers.values())]
    assert len(velocity) == 1
    assert velocity[0].shape == workspace.grad.shape and not velocity[0].any()


def _misaligned(shape, offset: int) -> np.ndarray:
    """An empty float64 array whose data starts ``offset`` bytes past a 64-byte boundary."""
    size = math.prod(shape)
    raw = np.empty(size + 16)
    start = (-raw.__array_interface__["data"][0] % 64 + offset) // 8
    return raw[start : start + size].reshape(shape)


@pytest.mark.parametrize("offset", [8, 16, 48])
@pytest.mark.parametrize("rows", [32, 7])
@pytest.mark.parametrize("kind", ["weighted", "focal"])
def test_mlp_step_bits_do_not_depend_on_buffer_alignment(kind, rows, offset):
    d, h = 22, 400
    X, y = _cohort_like(rows, 4)
    workspace = MlpWorkspace(d, h, 32)
    workspace.hidden, workspace.dhidden = _misaligned((32, h), offset), _misaligned((32, h), offset)
    workspace.grad = _misaligned(workspace.grad.shape, offset)
    workspace.grads = mlp_param_views(workspace.grad, d, h)
    params = mlp_param_views(_misaligned(workspace.grad.shape, offset), d, h)
    for key, value in init_mlp_params(MlpArchitecture(d, h), 4).items():
        params[key][...] = value
    placed = (workspace.hidden, workspace.dhidden, workspace.grad, params["W1"])
    assert {_offset(a) for a in placed} == {offset}
    value, grads = mlp_loss_and_grads(params, X, y, LossConfig(kind), (0.6, 1.4), workspace)
    ref_value, ref_grads = mlp_loss_and_grads_reference(params, X, y, LossConfig(kind), (0.6, 1.4))
    assert repr(value) == repr(ref_value)
    assert _same_bits(grads, ref_grads)


def _penalised_loss(X, y, params, weights, l2):
    w, b = params["w"], params["b"][0]
    terms = _loss_terms(sigmoid_two_branch(X @ w + b), y, LossConfig("weighted"), weights)
    return float(np.mean(terms)) + 0.5 * l2 * float(w @ w)


# Newton stops at a gradient norm far below the reference's 1e-7, so the two
# fits differ by about the reference's own distance from the optimum: at most
# 4.6e-6 in a weight and 7.9e-7 in a probability on these cohorts.
LOGREG_WEIGHT_ATOL = 1e-5
LOGREG_PROBABILITY_ATOL = 2e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_train_logreg_matches_reference_within_tolerance(schema, seed, l2):
    X, y = _cohort_like(301, seed)
    weights = inverse_prevalence_weights(y)
    model = train_logreg(X, y, FEATURES_22, class_weights=weights, l2=l2, schema=schema)
    params, meta = train_logreg_reference(X, y, weights, l2=l2)
    assert meta["grad_norm"] < 1e-7  # the reference converged
    assert (_penalised_loss(X, y, model.params, weights, l2)
            <= _penalised_loss(X, y, params, weights, l2))
    for key in ("w", "b"):
        np.testing.assert_allclose(model.params[key], params[key], rtol=0,
                                   atol=LOGREG_WEIGHT_ATOL)
    np.testing.assert_allclose(predict_proba(model, X),
                               sigmoid_two_branch(X @ params["w"] + params["b"][0]),
                               rtol=0, atol=LOGREG_PROBABILITY_ATOL)
    assert model.metadata["grad_norm"] < 1e-7
    assert 1 <= model.metadata["iterations"] < LOGREG_MAX_ITERATIONS


def test_newton_step_solves_like_least_squares():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(50, 23))
    hess, grad = A.T @ A, rng.normal(size=23)
    for singular in (False, True):
        if singular:  # an all-zero feature column
            hess[4] = hess[:, 4] = grad[4] = 0.0
        step = _newton_step(hess, grad)
        np.testing.assert_allclose(step, np.linalg.lstsq(hess, grad, rcond=None)[0], rtol=1e-9,
                                   atol=1e-12)
    assert step[4] == 0.0


def test_logreg_keeps_a_zero_weight_on_an_all_zero_column_without_l2(schema):
    X, y = _blobs(120)
    X[:, 2] = 0.0  # a cohort column that is constant after scaling
    model = train_logreg(X, y, FEATURES_4, schema=schema)
    assert abs(model.params["w"][2]) < 1e-12
    assert model.metadata["grad_norm"] < 1e-7


def test_logreg_on_separable_data_without_l2_stops_at_the_iteration_cap(schema):
    X, y = _blobs(200, sep=12.0)
    model = train_logreg(X, y, FEATURES_4, schema=schema)
    assert model.metadata["iterations"] == LOGREG_MAX_ITERATIONS
    assert np.isfinite(model.params["w"]).all() and np.isfinite(model.params["b"]).all()
    assert np.all(predict_hard(model, X) == y)


def test_logreg_overflow_is_a_divergence_error(schema):
    X, y = _blobs(40)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        train_logreg(X * 1e200, y, FEATURES_4, schema=schema)


def test_train_logreg_memory_stays_below_the_gradient_descent_fit(schema):
    # The full-batch gradient-descent fit peaked at 386,768 traced bytes on
    # 4,000 rows and 3,842,744 on 40,000 rows.
    X, y = _cohort_like(300, 1)
    train_logreg(X, y, FEATURES_22, schema=schema)  # first call: lazy set-up in numpy
    for n, bound in ((4000, 380_000), (40000, 3_500_000)):
        X, y = _cohort_like(n, 1)
        weights = inverse_prevalence_weights(y)
        peak, _ = peak_traced_bytes(lambda: train_logreg(X, y, FEATURES_22, class_weights=weights,
                                                         l2=1e-3, schema=schema))
        assert peak < bound, n


@pytest.mark.parametrize("kind", ["weighted", "focal"])
def test_mlp_loss_and_grads_is_bit_identical_to_reference(kind):
    X, y = _cohort_like(32, 9)
    params = init_mlp_params(MlpArchitecture(input_dim=22), seed=9)
    loss = LossConfig(kind)
    value, grads = mlp_loss_and_grads(params, X, y, loss, (0.6, 1.4), MlpWorkspace(22, 400, 32))
    ref_value, ref_grads = mlp_loss_and_grads_reference(params, X, y, loss, (0.6, 1.4))
    assert repr(value) == repr(ref_value)
    assert _same_bits(grads, ref_grads)


def _outcome(train):
    with np.errstate(all="ignore"):
        try:
            return train()
        except (DivergenceError, ReferenceDivergence) as exc:
            return exc


@pytest.mark.parametrize("learning_rate", [1e6, 1e3, 10.0])
def test_mlp_divergence_epoch_matches_reference(schema, learning_rate):
    X, y = _blobs(64, seed=6)
    X = X * 1e4
    arch = MlpArchitecture(input_dim=4, hidden_units=8)
    optimizer = OptimizerConfig(learning_rate=learning_rate, max_epochs=50, patience=50)
    loss = LossConfig("weighted")
    got = _outcome(lambda: train_mlp(X, y, FEATURES_4, arch=arch, optimizer=optimizer, seed=0,
                                     schema=schema))
    ref = _outcome(lambda: train_mlp_reference(X, y, init_mlp_params(arch, 0), loss, optimizer,
                                               inverse_prevalence_weights(y), 0))
    assert isinstance(got, DivergenceError)
    assert isinstance(ref, ReferenceDivergence)
    assert got.epoch == ref.epoch


SIGMOID_SPECIALS = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308]


def test_sigmoid_is_bit_identical_to_two_branch_form():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(0.0, 30.0, 5000), rng.uniform(-800, 800, 5000),
                        SIGMOID_SPECIALS])
    assert sigmoid(z).tobytes() == sigmoid_two_branch(z).tobytes()
    special = np.array([np.inf, -np.inf, np.nan])
    assert sigmoid(special).tobytes() == sigmoid_two_branch(special).tobytes()
    assert sigmoid(np.float64(-3.0)).tobytes() == sigmoid_two_branch(np.float64(-3.0)).tobytes()


@pytest.mark.parametrize("z", SIGMOID_SPECIALS)
def test_sigmoid_raises_nothing_the_two_branch_form_does_not(z):
    # exp(-745) and exp(-1e308) underflow to a subnormal or zero in both forms,
    # which is the right answer; no other floating-point flag may be raised.
    with np.errstate(all="raise", under="ignore"):
        got = sigmoid(np.array([z]))
        want = sigmoid_two_branch(np.array([z]))
    assert got.tobytes() == want.tobytes()
    with np.errstate(all="raise"):
        try:
            want = sigmoid_two_branch(np.array([z]))
        except FloatingPointError:
            want = None
        try:
            got = sigmoid(np.array([z]))
        except FloatingPointError:
            got = None
    assert (got is None) == (want is None)


def test_mlp_step_counts_each_clamped_probability_once():
    # One hidden unit copies x0 through, so z = x0 - 50: p is 1.0 (clamped),
    # 0.5 (in range) and about 2e-22 (clamped).
    params = {"W1": np.array([[1.0], [0.0]]), "b1": np.zeros(1),
              "W2": np.array([[1.0]]), "b2": np.array([-50.0])}
    X = np.array([[100.0, 0.0], [50.0, 0.0], [0.0, 0.0]])
    y = np.array([1, 0, 1])
    for loss in (LossConfig("weighted"), LossConfig("focal")):
        before = clamp_count()
        value, _ = mlp_loss_and_grads(params, X, y, loss, (0.5, 1.5), MlpWorkspace(2, 1, 3))
        assert np.isfinite(value)
        assert clamp_count() - before == 2, loss.kind


# Row counts around the forward pass's block edges (256 rows, a lone last row
# folded back) and past the sizes where a whole-matrix product's bits depend
# on the BLAS thread count.
FORWARD_SIZES = (1, 2, 3, 4, 5, 7, 8, 105, 255, 256, 257, 258, 259, 260, 511, 512, 513, 514,
                 1000, 1001, 1002, 1003, 4000, 4097, 10000, 10001, 20003, 50001)

# Prints "hidden seed n sha256(mlp_forward) sha256(reference)" per case, then
# "logreg seed n sha256(w, b)" per logreg fit; argv holds the hidden sizes, the
# forward row counts and the logreg row counts, comma-separated.
_FORWARD_CHILD = """
import hashlib, sys
import numpy as np
from crsbench.models import (MlpArchitecture, init_mlp_params, inverse_prevalence_weights,
                             mlp_forward, train_logreg)
from oracles import mlp_forward_reference

digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
for h in map(int, sys.argv[1].split(",")):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = init_mlp_params(MlpArchitecture(21, h), seed)
        params["b1"] = rng.normal(0.0, 0.1, h)
        params["b2"] = rng.normal(0.0, 0.1, 1)
        for n in map(int, sys.argv[2].split(",")):
            X = rng.normal(size=(n, 21))
            print(h, seed, n, digest(mlp_forward(params, X)), digest(mlp_forward_reference(params, X)))
for n in map(int, filter(None, sys.argv[3].split(","))):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(n, 22))
    y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(0.0, 1.0, n) > 0.8).astype(int)
    model = train_logreg(X, y, tuple(f"x{i}" for i in range(22)), l2=1e-3,
                         class_weights=inverse_prevalence_weights(y))
    print("logreg", 1, n, digest(np.concatenate([model.params["w"], model.params["b"]])))
"""


def _child_lines(script, args, blas_threads):
    """Run ``script`` in a fresh interpreter with ``blas_threads`` BLAS threads."""
    tests = Path(__file__).resolve().parent
    src = str(Path(crsbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tests)]),
               OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def _forward_digests(hidden, sizes, blas_threads, logreg_sizes=()):
    args = [",".join(map(str, values)) for values in (hidden, sizes, logreg_sizes)]
    return _child_lines(_FORWARD_CHILD, args, blas_threads)


def test_blocked_mlp_forward_is_bit_identical_to_the_whole_matrix_form():
    rows = _forward_digests([400], FORWARD_SIZES, blas_threads=1)
    rows += _forward_digests(range(1, 8), [n for n in FORWARD_SIZES if n <= 4097], blas_threads=1)
    assert len(rows) == 3 * (len(FORWARD_SIZES) + 7 * 24)
    assert [r[:3] for r in rows if r[3] != r[4]] == []


def test_mlp_forward_bits_do_not_depend_on_the_blas_thread_count():
    # At 40,000 rows the full-batch logreg fit's weights did differ between 1
    # and 2 threads; at 20,003 they happened to match.
    one = _forward_digests([400], [20003], blas_threads=1, logreg_sizes=[40000])
    two = _forward_digests([400], [20003], blas_threads=2, logreg_sizes=[40000])
    assert [r[0] for r in one].count("logreg") == 1
    assert [r[3] for r in one] == [r[3] for r in two]


# Prints "loss sha256(parameters) epochs_run" for a default-size train_mlp at the
# paper's n=524, under each loss.
_TRAIN_MLP_CHILD = """
import hashlib
import numpy as np
from crsbench.models import LossConfig, train_mlp

rng = np.random.default_rng(1)
X = rng.normal(size=(524, 22))
y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(0.0, 1.0, 524) > 0.8).astype(int)
for kind in ("weighted", "focal"):
    model = train_mlp(X, y, tuple(f"x{i}" for i in range(22)), loss=LossConfig(kind), seed=1)
    params = b"".join(model.params[k].tobytes() for k in ("W1", "b1", "W2", "b2"))
    print(kind, hashlib.sha256(params).hexdigest(), model.metadata["epochs_run"])
"""


def test_train_mlp_bits_do_not_depend_on_the_blas_thread_count():
    one = _child_lines(_TRAIN_MLP_CHILD, [], blas_threads=1)
    two = _child_lines(_TRAIN_MLP_CHILD, [], blas_threads=2)
    assert [r[0] for r in one] == ["weighted", "focal"]
    assert one == two


def test_mlp_forward_of_no_rows_is_empty():
    params = init_mlp_params(MlpArchitecture(4, 3), 0)
    assert mlp_forward(params, np.empty((0, 4))).shape == (0,)


def test_mlp_forward_memory_does_not_grow_with_rows():
    X = np.random.default_rng(0).normal(size=(20000, 21))
    params = init_mlp_params(MlpArchitecture(21), 0)
    peak, _ = peak_traced_bytes(lambda: mlp_forward(params, X))
    block = FORWARD_BLOCK_ROWS * 400 * 8  # one (256, hidden) block of float64
    assert peak < 1.25 * block + X.shape[0] * 8  # one block live at a time, plus the output


# Values save_model writes as json.dumps does: signed zeros and subnormals,
# which a loaded parameter keeps exactly, and the non-finite values written
# as NaN / Infinity / -Infinity, which load_model rejects.
_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.225073858507201e-308, float("nan"),
                   float("inf"), -float("inf"), 1 / 3, -1e300)
_CHUNK_EDGES = (0, 1, SAVE_CHUNK_VALUES - 1, SAVE_CHUNK_VALUES, SAVE_CHUNK_VALUES + 1,
                2 * SAVE_CHUNK_VALUES, 3 * SAVE_CHUNK_VALUES)


@st.composite
def _param_arrays(draw, size=None, finite=False):
    """A float array whose values come from a small pool that mixes drawn
    floats with the special ones, only finite ones when ``finite``."""
    if size is None:
        size = draw(st.sampled_from(_CHUNK_EDGES) | st.integers(0, 3 * SAVE_CHUNK_VALUES))
    specials = [v for v in _SPECIAL_FLOATS if np.isfinite(v) or not finite]
    floats = st.floats(width=64, allow_nan=not finite, allow_infinity=not finite)
    pool = draw(st.lists(floats | st.sampled_from(specials), min_size=1, max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).choice(np.array(pool), size=size)
    cols = draw(st.sampled_from([c for c in (1, 2, 3, 7) if size % c == 0]))
    return data.reshape(-1, cols) if draw(st.booleans()) else data


_metadata = st.dictionaries(
    st.text(max_size=6),
    st.floats(width=64) | st.integers(-10**20, 10**20) | st.text(max_size=6) | st.none(),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    params=st.dictionaries(st.text(min_size=1, max_size=4), _param_arrays(), max_size=3),
    metadata=_metadata,
    feature_names=st.lists(st.text(max_size=8), max_size=4),
    loss=st.none() | st.builds(LossConfig, st.sampled_from(["weighted", "focal"]),
                               st.floats(0, 5), st.floats(0, 1)),
)
@example(params={"w": np.array(_SPECIAL_FLOATS)}, metadata={"v": float("nan")},
         feature_names=["é"], loss=None)
def test_save_model_writes_json_dumps_of_the_whole_document(
    tmp_path_factory, params, metadata, feature_names, loss
):
    model = TrainedModel(kind="mlp", feature_names=tuple(feature_names), params=params,
                         training_seed=7, loss_config=loss, class_weights=(0.5, 1.5),
                         schema_checksum="abc", metadata=metadata)
    path = tmp_path_factory.mktemp("save") / "m.json"
    save_model(model, path)
    assert path.read_bytes() == save_model_reference(model)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), d=st.integers(1, 5), h=st.integers(1, 3 * SAVE_CHUNK_VALUES // 5))
def test_saved_model_loads_back_with_every_value_and_sign(tmp_path_factory, data, d, h):
    shapes = {"W1": (d, h), "b1": (h,), "W2": (h, 1), "b2": (1,)}
    params = {k: data.draw(_param_arrays(size=int(np.prod(s)), finite=True)).reshape(s)
              for k, s in shapes.items()}
    metadata = data.draw(_metadata)
    model = TrainedModel(kind="mlp", feature_names=tuple(f"f{i}" for i in range(d)),
                         params=params, metadata=metadata)
    path = tmp_path_factory.mktemp("load") / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    for key, value in params.items():
        got = loaded.params[key]
        assert got.shape == value.shape
        np.testing.assert_array_equal(got, value)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(value))
    assert json.dumps(loaded.metadata) == json.dumps(metadata)
    key = data.draw(st.sampled_from(sorted(params)))
    params[key].flat[data.draw(st.integers(0, params[key].size - 1))] = data.draw(
        st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    save_model(model, path)
    with pytest.raises(ModelError, match=f"{key}' must hold finite numbers"):
        load_model(path)


def test_unserializable_model_leaves_no_file(tmp_path):
    model = TrainedModel(kind="logreg", feature_names=("a",),
                         params={"w": np.zeros(1), "b": np.zeros(1)}, metadata={"x": object()})
    with pytest.raises(TypeError):
        save_model(model, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_a_save_that_fails_mid_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "m.json"
    save_model(TrainedModel(kind="logreg", feature_names=("a",),
                            params={"w": np.zeros(1), "b": np.zeros(1)}), path)
    before = path.read_bytes()
    # "w" streams past the write buffer; the object in "b" then fails to encode
    failing = TrainedModel(kind="logreg", feature_names=("a",),
                           params={"w": np.ones(4 * SAVE_CHUNK_VALUES), "b": np.array([object()])})
    with pytest.raises(TypeError):
        save_model(failing, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_saving_an_mlp_holds_one_chunk_not_the_whole_document(tmp_path):
    params = init_mlp_params(MlpArchitecture(21), 0)  # 21 x 400, the run's MLP
    model = TrainedModel(kind="mlp", feature_names=tuple(f"f{i}" for i in range(21)),
                         params=params)
    path = tmp_path / "m.json"
    save_model(model, path)  # first call: file and encoder set-up
    peak, _ = peak_traced_bytes(lambda: save_model(model, path))
    assert path.read_bytes() == save_model_reference(model)
    assert peak < 400_000  # the whole document as a list and a string took 1.26 MB


def _class_check_cases():
    X2, X4 = np.array([[0.0], [1.0]]), np.zeros((4, 1))
    one_class, empty = np.zeros(4, dtype=int), np.empty((0, 1))
    single = "training set contains a single class"
    carve = "validation carve-out left a single-class training set"
    fast = OptimizerConfig(max_epochs=1)
    return [
        pytest.param(lambda s: train_logreg(X4, one_class, ("a",), schema=s), single,
                     id="logreg-one-class"),
        pytest.param(lambda s: train_logreg(empty, [], ("a",), schema=s), "empty training set",
                     id="logreg-empty"),
        pytest.param(lambda s: train_gnb(X4, one_class + 1, ("a",), schema=s), single,
                     id="gnb-one-class"),
        pytest.param(lambda s: train_gnb(empty, [], ("a",), schema=s), "empty training set",
                     id="gnb-empty"),
        pytest.param(lambda s: train_mlp(X4, one_class, ("a",), schema=s), single,
                     id="mlp-one-class"),
        # one validation row out of two leaves one training row, of one class
        pytest.param(lambda s: train_mlp(X2, [0, 1], ("a",), optimizer=fast, schema=s), carve,
                     id="mlp-carve-out-one-class"),
        pytest.param(lambda s: train_mlp(X2, [0, 1], ("a",), class_weights=(1.0, 1.0),
                                         optimizer=OptimizerConfig(val_fraction=1.0), schema=s),
                     carve, id="mlp-carve-out-empty"),
    ]


@pytest.mark.parametrize("call, message", _class_check_cases())
def test_class_checks_raise_model_error_with_a_fixed_message(schema, call, message):
    with pytest.raises(ModelError) as info:
        call(schema)
    assert type(info.value) is ModelError
    assert str(info.value) == message


def test_train_mlp_does_not_copy_the_training_rows(schema):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20000, 21))
    y = (rng.random(20000) < 0.3).astype(int)
    names = tuple(f"f{i}" for i in range(21))
    arch, fast = MlpArchitecture(21, 16), OptimizerConfig(max_epochs=1)
    train_mlp(X[:200], y[:200], names, arch=arch, optimizer=fast, schema=schema)
    peak, _ = peak_traced_bytes(
        lambda: train_mlp(X, y, names, arch=arch, optimizer=fast, schema=schema))
    training_rows = 18000 * 21 * 8  # 90% of X after the validation carve-out: 3.0 MB
    assert peak < training_rows / 2
