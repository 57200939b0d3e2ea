import copy
import functools
import inspect
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ecmargin import (
    BACKGROUND_LABEL,
    Dataset,
    MarginWeights,
    NumericalError,
    ResourceLimitError,
    SyntheticConfig,
    TrainConfig,
    ValidationError,
    bound_audit,
    dataset_stats,
    default_margin_weights,
    evaluate,
    generate,
    log_weight_ratio,
    optimal_margins,
    rare_tercile,
    run_experiment,
    slope_m,
    train,
    weights,
    zipf_class_counts,
)
from ecmargin import _fork, focal_ecm_loss, ranking_error_bruteforce, sandbox
from ecmargin.losses import _ecm_value_grad, _focal_value_grad
from ecmargin.sandbox import LOSSES, MAX_ARRAY_ELEMENTS, class_score_set

SMALL = SyntheticConfig(
    num_classes=3,
    total_samples=300,
    zipf_exponent=1.0,
    feature_dim=4,
    seed=5,
)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


@pytest.fixture(scope="module")
def trained(small_dataset):
    model = train(
        small_dataset, TrainConfig(epochs=10, seed=1), default_margin_weights(small_dataset)
    )
    report = evaluate(model, small_dataset, dataset_alphas(small_dataset))
    return model, report


def unit_alphas(dataset):
    return {c: 1.0 for c in range(dataset.num_classes)}


def dataset_alphas(dataset):
    return {c: s.alpha for c, s in dataset_stats(dataset).items()}


def reference_train(dataset, tcfg, margins):
    """(loss_curve, checkpoints) of the trainer as one loop over every class,
    each batch gathered from the training rows by its indices: the loop that
    trained before the classes trained in blocks."""
    num_classes = dataset.num_classes
    if tcfg.loss == "bce":
        delta, m = 0.0, 1.0
    else:
        stats = dataset_stats(dataset)
        delta = np.array([log_weight_ratio(margins[c]) for c in range(num_classes)])
        m = slope_m([stats[c].alpha for c in range(num_classes)], tcfg.m_mode)
    if tcfg.loss == "focal_ecm":
        kernel = functools.partial(_focal_value_grad, focal_gamma=2.0, focal_alpha=0.25)
    else:
        kernel = _ecm_value_grad
    temperature = sandbox._TEMPERATURE if tcfg.temperature_head else None
    rng = np.random.default_rng(tcfg.seed)
    params = sandbox._init_params(
        tcfg.model, tcfg.hidden, num_classes, dataset.config.feature_dim, temperature, rng
    )
    train_idx, _ = sandbox._split_indices(dataset, tcfg)
    x_all = dataset.features[train_idx]
    y_all = dataset.labels[train_idx]
    class_ids = np.arange(num_classes)
    checkpoints = [(0, {k: v.copy() for k, v in params.items()})]
    loss_curve = []
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(train_idx.size)
        loss_sum = 0.0
        for start in range(0, order.size, tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            x = x_all[batch]
            is_pos = y_all[batch, None] == class_ids[None, :]
            logits, cache = sandbox._forward(tcfg.model, params, temperature, x)
            values, grad_f = kernel(2.0 * logits - delta, is_pos, m)
            loss_sum += float(values.sum()) / num_classes
            g = grad_f / (batch.size * num_classes)
            grads = sandbox._backward(tcfg.model, params, temperature, x, cache, g)
            for key, grad in grads.items():
                params[key] -= tcfg.learning_rate * grad
        loss_curve.append((epoch, loss_sum / order.size))
        if epoch % tcfg.checkpoint_every == 0 or epoch == tcfg.epochs:
            checkpoints.append((epoch, {k: v.copy() for k, v in params.items()}))
    return tuple(loss_curve), tuple(checkpoints)


def block_inputs(dataset, tcfg, margins):
    """The arguments train hands every block before lo and hi: the training
    rows, the shuffling stream, the initial parameters and every class's
    logit shift and slope."""
    num_classes = dataset.num_classes
    if tcfg.loss == "bce":
        delta, m = np.zeros(num_classes), np.ones(num_classes)
    else:
        stats = dataset_stats(dataset)
        delta = np.array([log_weight_ratio(margins[c]) for c in range(num_classes)])
        m = slope_m([stats[c].alpha for c in range(num_classes)], tcfg.m_mode)
    temperature = sandbox._TEMPERATURE if tcfg.temperature_head else None
    rng = np.random.default_rng(tcfg.seed)
    params = sandbox._init_params(
        tcfg.model, tcfg.hidden, num_classes, dataset.config.feature_dim, temperature, rng
    )
    train_idx, _ = sandbox._split_indices(dataset, tcfg)
    return train_idx, rng, params, delta, m


def reference_block(dataset, tcfg, train_idx, rng, params, delta, m, lo, hi):
    """_train_block as it was before the batch step wrote into buffers and
    before the block built its one-hot label rows once: every step allocates
    its z, the kernel's temporaries and the update, and every epoch compares
    its shuffled labels with the block's classes."""
    if tcfg.loss == "focal_ecm":
        kernel = functools.partial(sandbox._focal_value_grad, focal_gamma=2.0, focal_alpha=0.25)
    else:
        kernel = sandbox._ecm_value_grad
    temperature = sandbox._TEMPERATURE if tcfg.temperature_head else None
    num_classes = dataset.num_classes
    rng = copy.deepcopy(rng)
    params = sandbox._copy_params(dict(params, w=params["w"][:, lo:hi]))
    classes, delta, m = np.arange(lo, hi), delta[lo:hi], m[lo:hi]
    saved = tcfg.checkpoint_epochs()
    checkpoints = []
    loss_sums = np.zeros(tcfg.epochs)
    for epoch in range(1, tcfg.epochs + 1):
        rows = train_idx[rng.permutation(train_idx.size)]
        x_epoch = dataset.features.take(rows, axis=0)
        pos_epoch = dataset.labels.take(rows)[:, None] == classes
        loss_sum = 0.0
        for start in range(0, rows.size, tcfg.batch_size):
            x = x_epoch[start : start + tcfg.batch_size]
            is_pos = pos_epoch[start : start + tcfg.batch_size]
            logits, cache = sandbox._forward(tcfg.model, params, temperature, x)
            values, grad_f = kernel(2.0 * logits - delta, is_pos, m)
            values_sum = float(values.sum())
            if not math.isfinite(values_sum):
                return checkpoints, loss_sums, epoch
            loss_sum += values_sum / num_classes
            denom = x.shape[0] * num_classes
            grads = sandbox._backward(tcfg.model, params, temperature, x, cache, grad_f / denom)
            for key, grad in grads.items():
                params[key] -= tcfg.learning_rate * grad
        loss_sums[epoch - 1] = loss_sum
        if epoch in saved:
            checkpoints.append(sandbox._copy_params(params))
    return checkpoints, loss_sums, 0


def assert_same_block(got, want):
    (got_checkpoints, got_sums, got_bad), (want_checkpoints, want_sums, want_bad) = got, want
    assert got_bad == want_bad
    assert got_sums.tobytes() == want_sums.tobytes()
    assert len(got_checkpoints) == len(want_checkpoints)
    for g, w in zip(got_checkpoints, want_checkpoints):
        assert g.keys() == w.keys()
        assert all(g[k].tobytes() == w[k].tobytes() and g[k].shape == w[k].shape for k in w)


# linear, cosine and MLP heads, with the blocks train gives each on 3 classes
MODELS = {
    "linear": ({}, [(0, 2), (2, 3)]),
    "cosine": ({"temperature_head": True}, [(0, 2), (2, 3)]),
    "mlp": ({"model": "mlp", "hidden": 8}, [(0, 3)]),
    "mlp-cosine": ({"model": "mlp", "hidden": 8, "temperature_head": True}, [(0, 3)]),
}


class TestZipfCounts:
    def test_documented_three_class_split(self):
        assert zipf_class_counts(3, 600, 1.0) == (327, 164, 109)

    def test_zero_exponent_splits_evenly(self):
        assert zipf_class_counts(4, 10, 0.0) == (3, 3, 2, 2)
        assert zipf_class_counts(5, 1000, 0.0) == (200,) * 5

    def test_counts_sum_to_total_and_decrease(self):
        for total in (100, 999, 12345):
            counts = zipf_class_counts(7, total, 1.5)
            assert sum(counts) == total
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert min(counts) >= 1

    def test_more_classes_than_samples_rejected(self):
        with pytest.raises(ValidationError, match="cannot share"):
            zipf_class_counts(10, 5, 1.0)

    def test_starved_class_rejected(self):
        with pytest.raises(ValidationError, match="receives 0 samples"):
            zipf_class_counts(3, 3, 5.0)


class TestGenerate:
    def test_bitwise_deterministic(self, small_dataset):
        again = generate(SMALL)
        assert np.array_equal(small_dataset.features, again.features)
        assert np.array_equal(small_dataset.labels, again.labels)
        assert small_dataset.class_counts == again.class_counts

    def test_seed_changes_the_draw(self, small_dataset):
        other = generate(
            SyntheticConfig(
                num_classes=3,
                total_samples=300,
                zipf_exponent=1.0,
                feature_dim=4,
                seed=6,
            )
        )
        assert not np.array_equal(small_dataset.features, other.features)

    def test_counts_follow_the_zipf_prior(self, small_dataset):
        assert small_dataset.class_counts == zipf_class_counts(3, 150, 1.0)
        assert small_dataset.n_background == 150

    def test_background_ratio_is_exact(self, small_dataset):
        """background_fraction f leaves f / (1 - f) background samples per
        foreground one."""
        assert small_dataset.n_background == sum(small_dataset.class_counts)
        other = generate(replace(SMALL, background_fraction=0.75))
        assert other.n_background == 3 * sum(other.class_counts)

    def test_labels_are_blocked_by_class_then_background(self, small_dataset):
        labels = small_dataset.labels
        row = 0
        for c, n_c in enumerate(small_dataset.class_counts):
            assert np.all(labels[row : row + n_c] == c)
            row += n_c
        assert np.all(labels[row:] == BACKGROUND_LABEL)

    def test_too_many_classes_for_the_foreground_budget(self):
        with pytest.raises(ValidationError, match="foreground"):
            generate(
                SyntheticConfig(
                    num_classes=10, total_samples=12, background_fraction=0.5
                )
            )

    def test_stats_and_default_weights_cover_every_class(self, small_dataset):
        stats = dataset_stats(small_dataset)
        assert sorted(stats) == [0, 1, 2]
        for c, s in stats.items():
            assert s.n_plus == small_dataset.class_counts[c]
            assert s.n_plus + s.n_minus == 300
        w = default_margin_weights(small_dataset)
        assert sorted(w) == [0, 1, 2]
        expected = weights(optimal_margins(stats[0]))
        assert w[0].w_plus == expected.w_plus

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_classes": 1},
            {"feature_dim": 1},
            {"background_fraction": 1.0},
            {"class_separation": 0.0},
            {"noise_sigma": -1.0},
            {"zipf_exponent": -0.5},
            {"total_samples": 0},
            {"seed": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SyntheticConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,array",
        [
            ({"total_samples": 10**30}, "features"),
            ({"total_samples": MAX_ARRAY_ELEMENTS // 16 + 1}, "features"),
            ({"feature_dim": 10**30}, "features"),
            ({"num_classes": 10**30}, "logits"),
        ],
    )
    def test_arrays_past_the_size_cap_rejected(self, kwargs, array):
        with pytest.raises(ResourceLimitError, match=array):
            SyntheticConfig(**kwargs)

    def test_arrays_at_the_size_cap_accepted(self):
        SyntheticConfig(total_samples=MAX_ARRAY_ELEMENTS // 20, feature_dim=20)

    def test_generate_holds_only_the_arrays_it_returns(self):
        """Each class's rows and the background's are drawn, scaled and
        shifted in place: the traced peak is the features and labels plus
        128 kB (the small arrays and numpy's 8192-element ufunc buffer, which
        the broadcast shift uses), where one temporary of class 0's block
        (18 470 rows, 2.4 MB) or of the background's (3.2 MB) would
        overshoot."""
        config = SyntheticConfig(num_classes=2, total_samples=50_000, seed=1)
        tracemalloc.start()
        try:
            dataset = generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.class_counts[0] == 18_470
        assert peak < dataset.features.nbytes + dataset.labels.nbytes + 131_072

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_sigma": 1e308},
            {"noise_sigma": 1e308, "class_separation": 1e308},
            # the two foreground rows stay finite; only the background's
            # scale, 2.0 * noise_sigma, is past the float range
            {
                "noise_sigma": 1e308, "num_classes": 2, "total_samples": 4, "feature_dim": 2,
                "seed": 1,
            },
        ],
        ids=["noise", "noise-and-separation", "background-scale"],
    )
    def test_features_past_the_float_range_raise(self, kwargs):
        """NumericalError, and no overflow warning (an error under the test
        settings)."""
        with pytest.raises(NumericalError, match="^non-finite features from generate$"):
            generate(replace(SMALL, **kwargs))


class TestTraining:
    def test_untrained_heads_score_every_sample_one_half(self, small_dataset):
        model = train(small_dataset, TrainConfig(epochs=0), default_margin_weights(small_dataset))
        logits = model.logits(small_dataset.features)
        assert np.all(logits == 0.0)
        epoch, params = model.checkpoints[0]
        assert epoch == 0
        assert np.all(params["w"] == 0.0)

    def test_untrained_balanced_classes_have_ap_one_half_at_unit_alpha(self):
        ds = generate(
            SyntheticConfig(
                num_classes=4,
                total_samples=400,
                zipf_exponent=0.0,
                background_fraction=0.0,
                feature_dim=4,
                seed=2,
            )
        )
        model = train(ds, TrainConfig(epochs=0), default_margin_weights(ds))
        report = evaluate(model, ds, unit_alphas(ds))
        for p in report.per_class:
            assert p.ap == 0.5
        assert report.mean_ap == 0.5

    def test_zero_learning_rate_is_a_no_op(self, small_dataset):
        tcfg = TrainConfig(epochs=3, learning_rate=0.0, seed=9)
        model = train(small_dataset, tcfg, default_margin_weights(small_dataset))
        assert np.all(model.params["w"] == 0.0)
        losses = [loss for _, loss in model.loss_curve]
        assert len(losses) == 3
        for a, b in zip(losses, losses[1:]):
            assert abs(a - b) <= 1e-12

    def test_equal_margin_weights_reduce_ecm_training_to_bce(self, small_dataset):
        flat = {c: MarginWeights(w_plus=2.0, w_minus=2.0) for c in range(3)}
        ecm = train(small_dataset, TrainConfig(loss="ecm", epochs=4, seed=11), flat)
        bce = train(small_dataset, TrainConfig(loss="bce", epochs=4, seed=11), flat)
        assert ecm.loss_curve == bce.loss_curve
        assert np.array_equal(ecm.params["w"], bce.params["w"])

    def test_default_recipe_loss_strictly_decreases_early(self):
        ds = generate(SyntheticConfig(seed=7))
        model = train(
            ds,
            TrainConfig(epochs=5, learning_rate=0.1, seed=7),
            default_margin_weights(ds),
        )
        losses = [loss for _, loss in model.loss_curve]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_training_is_deterministic(self, small_dataset):
        tcfg = TrainConfig(epochs=3, seed=4)
        margins = default_margin_weights(small_dataset)
        first = train(small_dataset, tcfg, margins)
        second = train(small_dataset, tcfg, margins)
        assert first.loss_curve == second.loss_curve
        assert np.array_equal(first.params["w"], second.params["w"])

    def test_checkpoint_schedule_includes_start_and_end(self, small_dataset):
        model = train(
            small_dataset,
            TrainConfig(epochs=7, checkpoint_every=3),
            default_margin_weights(small_dataset),
        )
        assert [epoch for epoch, _ in model.checkpoints] == [0, 3, 6, 7]

    def test_missing_margins_rejected(self, small_dataset):
        with pytest.raises(ValidationError, match="margins missing"):
            train(small_dataset, TrainConfig(epochs=1), {0: MarginWeights(2.0, 2.0)})

    def test_holdout_split_is_disjoint_and_proportional(self, small_dataset):
        tcfg = TrainConfig(epochs=1, holdout_fraction=0.25, seed=3)
        model = train(small_dataset, tcfg, default_margin_weights(small_dataset))
        train_idx = set(model.train_indices.tolist())
        eval_idx = set(model.eval_indices.tolist())
        assert not train_idx & eval_idx
        assert len(train_idx | eval_idx) == 300
        labels = small_dataset.labels[model.eval_indices]
        for c, n_c in enumerate(small_dataset.class_counts):
            held = int(np.count_nonzero(labels == c))
            assert held == int(math.floor(n_c * 0.25 + 0.5))

    def test_mlp_with_temperature_head_trains_deterministically(self, small_dataset):
        tcfg = TrainConfig(
            model="mlp", hidden=8, temperature_head=True, epochs=3, seed=2
        )
        margins = default_margin_weights(small_dataset)
        first = train(small_dataset, tcfg, margins)
        second = train(small_dataset, tcfg, margins)
        assert first.loss_curve == second.loss_curve
        assert all(math.isfinite(loss) for _, loss in first.loss_curve)
        report = evaluate(first, small_dataset, dataset_alphas(small_dataset))
        assert bound_audit(report)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": "hinge"},
            {"m_mode": "steep"},
            {"epochs": -1},
            {"learning_rate": -0.1},
            {"batch_size": 0},
            {"model": "transformer"},
            {"checkpoint_every": 0},
            {"holdout_fraction": 1.0},
            {"seed": -1},
        ],
    )
    def test_train_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "config,hidden,array",
        [
            (SMALL, 10**30, "w1"),
            (SyntheticConfig(total_samples=100, feature_dim=10**6), 101, "w1"),
            (SyntheticConfig(total_samples=10**6, feature_dim=2), 101, "hidden_activations"),
        ],
    )
    def test_mlp_arrays_past_the_size_cap_rejected(self, config, hidden, array):
        tcfg = TrainConfig(model="mlp", hidden=hidden)
        with pytest.raises(ResourceLimitError, match=array):
            tcfg.check_array_sizes(config)
        # a linear head has no hidden layer; one checkpoint, as the default
        # six of 10**6 x 20 weights are past the cap
        TrainConfig(hidden=hidden, checkpoint_every=30).check_array_sizes(config)

    @pytest.mark.parametrize(
        "kwargs,array",
        [
            ({"epochs": 10**30}, "loss_curve"),
            ({"epochs": MAX_ARRAY_ELEMENTS + 1, "checkpoint_every": 10**30}, "loss_curve"),
            ({"epochs": MAX_ARRAY_ELEMENTS, "checkpoint_every": 1}, "checkpoints"),
            (
                {"model": "mlp", "hidden": 10**4, "epochs": 1251, "checkpoint_every": 1},
                "checkpoints",
            ),
        ],
    )
    def test_epoch_arrays_past_the_size_cap_rejected(self, kwargs, array):
        """The loss curve holds a float an epoch, and each checkpoint a copy
        of every parameter: SMALL's 4 x 3 linear weights, or the MLP's 4 x h
        w1, h biases and h x 3 head weights, 8 h elements in all."""
        with pytest.raises(ResourceLimitError, match=array):
            TrainConfig(**kwargs).check_array_sizes(SMALL)

    def test_epoch_arrays_at_the_size_cap_accepted(self):
        for kwargs in (
            {"epochs": MAX_ARRAY_ELEMENTS, "checkpoint_every": MAX_ARRAY_ELEMENTS},
            {"model": "mlp", "hidden": 10**4, "epochs": 1250, "checkpoint_every": 1},
        ):
            TrainConfig(**kwargs).check_array_sizes(SMALL)

    def test_checkpoint_epochs_step_past_the_epochs_between(self):
        tcfg = TrainConfig(epochs=10**30, checkpoint_every=3 * 10**29)
        assert tcfg.checkpoint_epochs() == (3 * 10**29, 6 * 10**29, 9 * 10**29, 10**30)
        assert TrainConfig(epochs=12, checkpoint_every=4).checkpoint_epochs() == (4, 8, 12)
        assert TrainConfig(epochs=0).checkpoint_epochs() == ()

    def test_train_checks_the_size_cap_before_allocating(self, small_dataset):
        margins = default_margin_weights(small_dataset)
        with pytest.raises(ResourceLimitError, match="w1"):
            train(small_dataset, TrainConfig(model="mlp", hidden=10**30), margins)
        with pytest.raises(ResourceLimitError, match="w1"):
            run_experiment(SMALL, TrainConfig(model="mlp", hidden=10**30))


class TestClassBlocks:
    """A linear head trains its classes in two blocks, the second in a forked
    worker when a second CPU is usable; the MLP trains as one block."""

    CONFIGS = [
        {"loss": loss, "temperature_head": head}
        for loss in ("ecm", "bce", "focal_ecm")
        for head in (False, True)
    ]

    @pytest.mark.parametrize("kwargs", CONFIGS)
    def test_the_mlp_matches_the_one_loop_trainer_bit_for_bit(self, small_dataset, kwargs):
        tcfg = TrainConfig(model="mlp", hidden=8, epochs=4, batch_size=64, seed=3, **kwargs)
        margins = default_margin_weights(small_dataset)
        model = train(small_dataset, tcfg, margins)
        loss_curve, checkpoints = reference_train(small_dataset, tcfg, margins)
        assert model.loss_curve == loss_curve
        assert [e for e, _ in model.checkpoints] == [e for e, _ in checkpoints]
        for (_, got), (_, want) in zip(model.checkpoints, checkpoints):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)
        assert all(np.array_equal(model.params[k], checkpoints[-1][1][k]) for k in model.params)

    @pytest.mark.parametrize("kwargs", CONFIGS)
    def test_linear_blocks_match_the_one_loop_trainer_to_the_last_digits(
        self, small_dataset, kwargs
    ):
        """Only the split of each batch's loss sum over the blocks, and the
        BLAS kernels for the narrower weight blocks, move the last bits."""
        tcfg = TrainConfig(epochs=4, batch_size=64, seed=3, **kwargs)
        margins = default_margin_weights(small_dataset)
        model = train(small_dataset, tcfg, margins)
        loss_curve, checkpoints = reference_train(small_dataset, tcfg, margins)
        assert [e for e, _ in model.loss_curve] == [e for e, _ in loss_curve]
        for (_, got), (_, want) in zip(model.loss_curve, loss_curve):
            assert abs(got - want) <= 4 * np.spacing(want)
        assert [e for e, _ in model.checkpoints] == [e for e, _ in checkpoints]
        for (_, got), (_, want) in zip(model.checkpoints, checkpoints):
            np.testing.assert_allclose(got["w"], want["w"], rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("head", [False, True])
    def test_a_linear_head_trains_the_same_on_any_cpu_count(
        self, small_dataset, monkeypatch, head
    ):
        margins = default_margin_weights(small_dataset)
        tcfg = TrainConfig(loss="focal_ecm", epochs=5, checkpoint_every=2, temperature_head=head)
        real_fork = os.fork
        forks = []

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        real_block = sandbox._train_block
        blocks = []  # the blocks this process trains; a forked worker's are not seen

        def recording_block(*args):
            blocks.append(args[-2:])
            return real_block(*args)

        monkeypatch.setattr(sandbox, "_train_block", recording_block)
        models = []
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            models.append(train(small_dataset, tcfg, margins))
        assert len(forks) == 1
        assert blocks == [(0, 2), (2, 3), (0, 2)]  # ceil(3 / 2) classes, then the rest
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(-1, os.WNOHANG)
        serial, forked = models
        assert forked.loss_curve == serial.loss_curve
        assert [e for e, _ in forked.checkpoints] == [0, 2, 4, 5]
        for (e, got), (f, want) in zip(forked.checkpoints, serial.checkpoints):
            assert e == f and np.array_equal(got["w"], want["w"])
        assert np.array_equal(forked.params["w"], serial.params["w"])


class TestBatchStep:
    """Each block's batch step writes every elementwise result into buffers
    the block allocates once; its bits are those of the loop that allocated
    them."""

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("model", ["linear", "cosine", "mlp"])
    @pytest.mark.parametrize("holdout", [0.0, 0.3])
    def test_a_block_matches_the_allocating_loop_bit_for_bit(
        self, small_dataset, loss, model, holdout
    ):
        """3 classes; 300 or 210 training rows in batches of 64, so each
        epoch ends on a partial batch."""
        extra, blocks = MODELS[model]
        tcfg = TrainConfig(
            loss=loss, epochs=5, batch_size=64, checkpoint_every=2, holdout_fraction=holdout,
            seed=3, **extra,
        )
        args = block_inputs(small_dataset, tcfg, default_margin_weights(small_dataset))
        assert args[0].size % 64 != 0
        for lo, hi in blocks:
            got = sandbox._train_block(small_dataset, tcfg, *args, lo, hi)
            assert_same_block(got, reference_block(small_dataset, tcfg, *args, lo, hi))
            assert got[2] == 0 and len(got[0]) == 3

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("model", ["linear", "cosine", "mlp"])
    def test_a_block_stops_at_the_same_non_finite_epoch(
        self, small_dataset, monkeypatch, loss, model
    ):
        """The kernel's 13th call of a block, the third batch of epoch 3,
        returns one infinite value."""
        extra, blocks = MODELS[model]
        tcfg = TrainConfig(loss=loss, epochs=6, batch_size=64, checkpoint_every=2, seed=3, **extra)
        args = block_inputs(small_dataset, tcfg, default_margin_weights(small_dataset))
        name = "_focal_value_grad" if loss == "focal_ecm" else "_ecm_value_grad"
        real_kernel = getattr(sandbox, name)
        calls = []

        def kernel(*args, **kwargs):
            values, grad = real_kernel(*args, **kwargs)
            calls.append(None)
            if len(calls) == 13:
                values[0, -1] = np.inf
            return values, grad

        monkeypatch.setattr(sandbox, name, kernel)
        for lo, hi in blocks:
            results = []
            for block in (sandbox._train_block, reference_block):
                del calls[:]
                results.append(block(small_dataset, tcfg, *args, lo, hi))
            got, want = results
            assert got[2] == 3 and len(got[0]) == 1 and np.count_nonzero(got[1]) == 2
            assert_same_block(got, want)

    @pytest.mark.parametrize("model", ["linear", "mlp"])
    def test_a_batch_past_the_data_is_one_batch_of_the_data(
        self, small_dataset, monkeypatch, model
    ):
        """The buffers have min(batch_size, n_train) rows, so a batch size of
        10**12 allocates no more than a batch of every training row, and
        trains the same bits."""
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)  # the blocks in this process
        extra, _ = MODELS[model]
        margins = default_margin_weights(small_dataset)
        tcfg = TrainConfig(loss="focal_ecm", epochs=3, holdout_fraction=0.3, seed=2, **extra)
        n_train = sandbox._split_indices(small_dataset, tcfg)[0].size
        models = []
        for size in (n_train, 10**12):
            tracemalloc.start()
            try:
                models.append(train(small_dataset, replace(tcfg, batch_size=size), margins))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
        whole, huge = models
        assert huge.loss_curve == whole.loss_curve
        for (e, got), (f, want) in zip(huge.checkpoints, whole.checkpoints, strict=True):
            assert e == f and all(got[k].tobytes() == want[k].tobytes() for k in want)
        alphas = dataset_alphas(small_dataset)
        assert evaluate(huge, small_dataset, alphas) == evaluate(whole, small_dataset, alphas)

    def test_a_block_gathers_every_epoch_into_one_buffer(self):
        """Each epoch's rows are gathered into the buffers the block allocated
        at its start: over 4 epochs the traced peak stays below 1.5 epoch
        gathers (the 64 feature columns of the training rows and the block's
        2 one-hot label columns), where a new gather beside the last one would
        hold two."""
        dataset = generate(replace(SMALL, total_samples=4000, feature_dim=64))
        tcfg = TrainConfig(epochs=4, seed=1)
        args = block_inputs(dataset, tcfg, default_margin_weights(dataset))
        n_train = args[0].size
        gather = n_train * 64 * 8 + n_train * 2
        tracemalloc.start()
        try:
            sandbox._train_block(dataset, tcfg, *args, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gather <= peak < 1.5 * gather

    @pytest.mark.parametrize("loss", LOSSES)
    def test_a_linear_step_allocates_only_its_two_matrix_products(self, small_dataset, loss):
        """The forward logits (rows x classes) and the weight gradient
        (features x classes) are the step's only new arrays: one more
        rows x classes array would double the peak."""
        tcfg = TrainConfig(loss=loss, seed=4)
        train_idx, rng, params, delta, m = block_inputs(
            small_dataset, tcfg, default_margin_weights(small_dataset)
        )
        params = {"w": rng.standard_normal(params["w"].shape)}
        rows = rng.choice(train_idx, 4000)  # 96 kB of logits, far above the step's small objects
        x = small_dataset.features[rows]
        is_pos = small_dataset.labels[rows][:, None] == np.arange(3)
        buffers = sandbox._batch_buffers(x.shape[0], delta, m)
        kernel = sandbox._loss_kernel(loss)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sandbox._batch_step("linear", params, None, x, is_pos, kernel, buffers, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        logits_bytes = x.shape[0] * 3 * 8
        assert logits_bytes <= peak < 1.5 * logits_bytes

    def test_focal_ecm_trains_with_the_focal_loss_defaults(self):
        defaults = inspect.signature(focal_ecm_loss).parameters
        kernel = sandbox._loss_kernel("focal_ecm")
        assert kernel.func is _focal_value_grad
        assert kernel.keywords == {k: defaults[k].default for k in ("focal_gamma", "focal_alpha")}

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("model", list(MODELS))
    def test_the_step_gradient_matches_central_differences(self, small_dataset, loss, model):
        """Central differences with eps = 1e-6 of the batch loss the step
        returns, against its gradients, on a seeded batch of 40 rows; the
        error of each parameter array is taken relative to its largest
        gradient."""
        extra, _ = MODELS[model]
        tcfg = TrainConfig(loss=loss, seed=6, **extra)
        _, rng, params, delta, m = block_inputs(
            small_dataset, tcfg, default_margin_weights(small_dataset)
        )
        params = {k: v + 0.5 * rng.standard_normal(v.shape) for k, v in params.items()}
        rows = rng.choice(small_dataset.labels.size, 40, replace=False)
        x = small_dataset.features[rows]
        is_pos = small_dataset.labels[rows][:, None] == np.arange(3)
        temperature = sandbox._TEMPERATURE if tcfg.temperature_head else None
        kernel = sandbox._loss_kernel(loss)
        buffers = sandbox._batch_buffers(40, delta, m)

        def step(p):
            return sandbox._batch_step(tcfg.model, p, temperature, x, is_pos, kernel, buffers, 3)

        grads = step(params)[1]
        assert grads.keys() == params.keys()
        eps = 1e-6
        for key, value in params.items():
            fd = np.empty_like(value)
            for i in np.ndindex(value.shape):
                sums = []
                for sign in (1.0, -1.0):
                    moved = dict(params, **{key: value.copy()})
                    moved[key][i] += sign * eps
                    sums.append(step(moved)[0] / (40 * 3))
                fd[i] = (sums[0] - sums[1]) / (2.0 * eps)
            rel = np.abs(fd - grads[key]).max() / np.abs(grads[key]).max()
            assert rel <= 1e-6, (key, rel)


class TestEvaluation:
    def test_every_class_sits_inside_its_bounds(self, trained):
        _, report = trained
        assert bound_audit(report)
        for p in report.per_class:
            assert p.ap_lower <= p.ap_upper
            assert p.det_error == 1.0 - p.ap

    def test_training_beats_the_untrained_baseline(self, trained, small_dataset):
        model, report = trained
        epoch0 = model.checkpoints[0][1]
        baseline = evaluate(model, small_dataset, dataset_alphas(small_dataset), params=epoch0)
        assert report.mean_ap > baseline.mean_ap

    def test_inverting_the_model_still_respects_the_bounds(self, trained, small_dataset):
        model, report = trained
        inverted = {k: -v for k, v in model.params.items()}
        worse = evaluate(model, small_dataset, dataset_alphas(small_dataset), params=inverted)
        assert bound_audit(worse)
        assert worse.mean_ap <= report.mean_ap

    def test_class_score_set_partitions_the_samples(self, trained, small_dataset):
        model, _ = trained
        logits = model.logits(small_dataset.features)
        ss = class_score_set(logits, small_dataset.labels, 0)
        assert ss.n_plus == small_dataset.class_counts[0]
        assert ss.n_plus + ss.n_minus == 300

    def test_logits_closer_than_a_rescale_step_keep_their_order(self):
        """Unit weights make class 0's logits the first feature column,
        [-10, 1e-17, 2e-17, 10], with the positive on 2e-17.  A rescale into
        [0,1] would tie 1e-17 and 2e-17 at 0.5; the raw order puts one
        negative above the positive and none tied, so R = 1/3 and, at
        alpha 3, AP = 1 / (1 + 3 * 1/3) = 1/2."""
        features = np.array([[-10.0, 0.0], [1e-17, 0.0], [2e-17, 0.0], [10.0, 1.0]])
        labels = np.array([BACKGROUND_LABEL, BACKGROUND_LABEL, 0, 1])
        dataset = Dataset(
            features=features,
            labels=labels,
            class_counts=(1, 1),
            config=SyntheticConfig(num_classes=2, total_samples=4, feature_dim=2),
        )
        rows = np.arange(4)
        model = sandbox.Model(
            kind="linear", params={"w": np.eye(2)}, temperature=None, loss_curve=(),
            checkpoints=(), train_indices=rows, eval_indices=rows,
        )
        report = evaluate(model, dataset, {0: 3.0, 1: 3.0})
        first = report.per_class[0]
        assert (first.n_plus, first.n_minus) == (1, 3)
        assert first.ranking_error == 1 / 3
        assert first.ranking_error == ranking_error_bruteforce(class_score_set(features, labels, 0))
        assert first.ap == 0.5
        second = report.per_class[1]
        assert (second.ap, second.ranking_error) == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_logit_raises_naming_evaluate(self, trained, small_dataset, bad):
        model, _ = trained
        params = {key: value.copy() for key, value in model.params.items()}
        params["w"][0, 1] = bad
        with pytest.raises(NumericalError, match=r"^non-finite logit of class 1 in evaluate$"):
            evaluate(model, small_dataset, dataset_alphas(small_dataset), params=params)

    def test_a_split_of_every_row_is_read_without_a_copy(self, monkeypatch):
        """A holdout-0 model evaluates every row, so evaluate reads the
        dataset's own arrays: with 256 features and 2 classes the features
        are 128 times the logits, and the traced peak stays below one copy
        of them."""
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        dataset = generate(replace(SMALL, num_classes=2, total_samples=4000, feature_dim=256))
        model = train(dataset, TrainConfig(epochs=1, seed=2), default_margin_weights(dataset))
        alphas = dataset_alphas(dataset)
        tracemalloc.start()
        try:
            evaluate(model, dataset, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dataset.features.nbytes

    def test_a_split_of_n_rows_with_a_repeat_evaluates_those_rows(self, trained, small_dataset):
        """eval_indices as many as the rows, with row 0 (class 0) in place of
        the last (background): the report is that of those rows indexed by
        hand, not that of every row."""
        model, report = trained
        n = small_dataset.labels.size
        rows = np.arange(n)
        rows[-1] = 0
        by_hand = Dataset(
            features=small_dataset.features[rows],
            labels=small_dataset.labels[rows],
            class_counts=small_dataset.class_counts,
            config=small_dataset.config,
        )
        alphas = dataset_alphas(small_dataset)
        got = evaluate(replace(model, eval_indices=rows), small_dataset, alphas)
        assert got == evaluate(replace(model, eval_indices=np.arange(n)), by_hand, alphas)
        assert got != report
        assert got.per_class[0].n_plus == small_dataset.class_counts[0] + 1

    def test_a_failing_class_fails_the_audit(self, trained):
        _, report = trained
        assert bound_audit(report)
        out = replace(report.per_class[1], within_bounds=False)
        failing = replace(report, per_class=(report.per_class[0], out, *report.per_class[2:]))
        assert not bound_audit(failing)

    def test_missing_alpha_rejected(self, trained, small_dataset):
        model, _ = trained
        with pytest.raises(ValidationError, match="no alpha"):
            evaluate(model, small_dataset, {0: 1.0})

    def test_report_serializes_to_json(self, trained):
        _, report = trained
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"per_class", "mean_ap", "loss_curve"}
        assert len(payload["per_class"]) == 3
        assert payload["loss_curve"][0][0] == 1
        first = payload["per_class"][0]
        assert set(first) == {
            "class_id",
            "n_plus",
            "n_minus",
            "ap",
            "ranking_error",
            "det_error",
            "ap_lower",
            "ap_upper",
            "within_bounds",
        }


class TestEndToEnd:
    def test_separable_classes_reach_perfect_ap(self):
        config = SyntheticConfig(
            num_classes=4,
            total_samples=4000,
            class_separation=10.0,
            background_fraction=0.0,
            seed=1,
        )
        _, report = run_experiment(config, TrainConfig(epochs=60, seed=1))
        for p in report.per_class:
            assert p.ap >= 0.99
        assert bound_audit(report)

    def test_run_experiment_returns_an_audited_report(self, small_dataset):
        model, report = run_experiment(SMALL, TrainConfig(epochs=5, seed=0))
        assert model.kind == "linear"
        assert 0.0 < report.mean_ap <= 1.0
        assert bound_audit(report)

    def test_rare_tercile_picks_the_smallest_classes(self):
        ds = generate(
            SyntheticConfig(num_classes=6, total_samples=600, zipf_exponent=1.5, seed=0)
        )
        assert rare_tercile(ds) == (4, 5)
        assert rare_tercile(generate(SMALL)) == (2,)
