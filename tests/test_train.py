"""Schedule, optimizer, epoch loop and evaluation metrics."""

import numpy as np
import pytest

from helpers import traced_peak
from tkfnet.data import Dataset, Sample, preprocess, synth_dataset
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import Parameter, ShapeError, Tape, Tensor
from tkfnet.train import (
    EpochRecord,
    LrSchedule,
    Metrics,
    MomentumOptimizer,
    EVAL_BATCH,
    _batch_arrays,
    compute_loss,
    evaluate,
    fit,
    predictions,
    train_epoch,
)


class TestLrSchedule:
    def test_endpoints_exact(self):
        sched = LrSchedule(0.1, 0.01, 1000)
        assert sched.at(0) == 0.1
        assert sched.at(1000) == 0.01

    def test_midpoint_value(self):
        # lr_end + (lr_init - lr_end) * sqrt(1/2)
        sched = LrSchedule(0.1, 0.01, 1000, power=0.5)
        assert sched.at(500) == pytest.approx(0.07363961030678928, abs=1e-15)

    def test_clamps_outside_range(self):
        sched = LrSchedule(0.1, 0.01, 100)
        assert sched.at(-5) == 0.1
        assert sched.at(1_000_000) == 0.01

    def test_monotone_non_increasing(self):
        sched = LrSchedule(0.2, 0.002, 7777, power=0.5)
        values = [sched.at(s) for s in range(0, 7778, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_power_one_is_linear(self):
        sched = LrSchedule(1.0, 0.0, 10, power=1.0)
        assert sched.at(3) == pytest.approx(0.7, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(0.1, 0.01, 0)
        with pytest.raises(ValueError):
            LrSchedule(0.1, 0.01, 10, power=0.0)


def constant_schedule(lr, steps=1_000_000):
    return LrSchedule(lr, lr, steps)


class TestMomentumOptimizer:
    def make_param(self, value=0.0):
        return Parameter("p", np.full((1, 1, 1, 1), value, dtype=np.float64))

    def test_single_step_hand_case(self):
        # v = 0.9 * 0 + 1 = 1; p -= 0.1 * 1.
        p = self.make_param(0.0)
        opt = MomentumOptimizer([p], constant_schedule(0.1), momentum=0.9)
        p.grad = np.ones_like(p.data)
        opt.step()
        assert p.data.item() == pytest.approx(-0.1, abs=1e-12)

    def test_velocity_accumulates_across_steps(self):
        # Two unit-gradient steps: total displacement lr * (1 + (1 + mu)).
        p = self.make_param(0.0)
        opt = MomentumOptimizer([p], constant_schedule(0.1), momentum=0.9)
        for _ in range(2):
            p.grad = np.ones_like(p.data)
            opt.step()
        assert p.data.item() == pytest.approx(-0.1 * (2 + 0.9), abs=1e-12)

    def test_zero_momentum_is_plain_sgd(self):
        p = self.make_param(1.0)
        opt = MomentumOptimizer([p], constant_schedule(0.5), momentum=0.0)
        for g in (2.0, -4.0):
            p.grad = np.full_like(p.data, g)
            opt.step()
        assert p.data.item() == pytest.approx(1.0 - 0.5 * 2.0 + 0.5 * 4.0, abs=1e-12)

    def test_step_clears_gradients_and_advances_counter(self):
        p = self.make_param()
        opt = MomentumOptimizer([p], constant_schedule(0.1))
        p.grad = np.ones_like(p.data)
        opt.step()
        assert p.grad is None
        assert opt.step_count == 1

    def test_missing_gradient_is_an_error(self):
        p = self.make_param()
        opt = MomentumOptimizer([p], constant_schedule(0.1))
        with pytest.raises(RuntimeError, match="p"):
            opt.step()

    def test_lr_follows_schedule(self):
        p = self.make_param()
        sched = LrSchedule(0.1, 0.01, 2)
        opt = MomentumOptimizer([p], sched)
        assert opt.lr == 0.1
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert opt.lr == sched.at(1)

    def test_momentum_range_validated(self):
        p = self.make_param()
        with pytest.raises(ValueError):
            MomentumOptimizer([p], constant_schedule(0.1), momentum=1.0)
        with pytest.raises(ValueError):
            MomentumOptimizer([p], constant_schedule(0.1), momentum=-0.1)


class FixedLogitsModel:
    """Ignores inputs and serves pre-baked logits row by row."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float32)
        self.cursor = 0

    def __call__(self, x):
        n = x.shape[0]
        rows = self.logits[self.cursor : self.cursor + n]
        self.cursor += n
        return Tensor(rows.reshape(n, 1, 1, -1))


def toy_dataset(labels, classes):
    image = Tensor(np.full((1, 4, 4, 3), 0.5, dtype=np.float32))
    samples = [Sample(image, int(lab)) for lab in labels]
    return Dataset(samples, [f"c{i}" for i in range(classes)])


class TestEvaluate:
    def test_confusion_and_recall(self):
        data = toy_dataset([0, 0, 1, 2], classes=3)
        onehot = np.eye(3, dtype=np.float32)
        model = FixedLogitsModel(onehot[[0, 1, 1, 0]])
        metrics = evaluate(model, data)
        assert isinstance(metrics, Metrics)
        assert metrics.accuracy == 0.5
        np.testing.assert_array_equal(
            metrics.confusion, [[1, 1, 0], [0, 1, 0], [1, 0, 0]]
        )
        np.testing.assert_allclose(metrics.per_class_recall, [0.5, 1.0, 0.0])

    def test_row_sums_count_true_labels(self):
        labels = [0, 1, 1, 2, 2, 2]
        data = toy_dataset(labels, classes=3)
        model = FixedLogitsModel(np.eye(3, dtype=np.float32)[[0, 0, 0, 0, 0, 0]])
        metrics = evaluate(model, data)
        np.testing.assert_array_equal(metrics.confusion.sum(axis=1), [1, 2, 3])

    def test_wrong_logit_width_rejected(self):
        data = toy_dataset([0, 1], classes=3)
        model = FixedLogitsModel(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="5 classes"):
            evaluate(model, data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(FixedLogitsModel(np.zeros((1, 2))), Dataset([], ["a", "b"]))

    def test_prediction_ties_take_lowest_index(self):
        logits = Tensor(np.zeros((3, 1, 1, 4), dtype=np.float32))
        np.testing.assert_array_equal(predictions(logits), [0, 0, 0])

    @pytest.mark.parametrize("name", ["small", "base"])
    def test_row_logits_have_the_same_bits_in_any_batch_of_eval_batch_or_more(self, name):
        model = TKFNet(model_config(name, 7), seed=0)
        x = np.random.default_rng(2).uniform(-1, 1, size=(16, 32, 32, 3)).astype(np.float32)
        rows = [model(Tensor(x[:n])).data[:EVAL_BATCH] for n in (EVAL_BATCH, EVAL_BATCH + 1, 16)]
        for other in rows[1:]:
            np.testing.assert_array_equal(other.view(np.uint32), rows[0].view(np.uint32))


class TestTrainingLoop:
    def small_setup(self, epochs=1, batch_size=2, momentum=0.9):
        data = synth_dataset(classes=3, per_class=2, size=(16, 16), seed=0)
        model = TKFNet(model_config("small", 3), seed=0)
        steps = epochs * ((len(data.samples) + batch_size - 1) // batch_size)
        sched = LrSchedule(0.01, 0.001, max(steps, 1))
        opt = MomentumOptimizer(model.parameters(), sched, momentum=momentum)
        return data, model, opt

    def test_partial_batches_counted(self):
        # 6 samples at batch 4 means 2 optimizer steps per epoch.
        data, model, opt = self.small_setup(batch_size=4)
        train_epoch(model, data, opt, batch_size=4, seed=0, epoch=0)
        assert opt.step_count == 2

    def test_loss_is_finite_and_positive(self):
        data, model, opt = self.small_setup()
        loss = train_epoch(model, data, opt, batch_size=2, seed=0, epoch=0)
        assert np.isfinite(loss)
        assert loss > 0

    def test_epoch_is_deterministic(self):
        results = []
        for _ in range(2):
            data, model, opt = self.small_setup()
            loss = train_epoch(model, data, opt, batch_size=2, seed=5, epoch=3)
            state = b"".join(p.data.tobytes() for p in model.parameters())
            results.append((loss, state))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_epoch_order_depends_on_epoch_index(self):
        losses = []
        for epoch in (0, 1):
            data, model, opt = self.small_setup()
            losses.append(train_epoch(model, data, opt, 2, seed=0, epoch=epoch))
        assert losses[0] != losses[1]

    def test_empty_dataset_rejected(self):
        _, model, opt = self.small_setup()
        with pytest.raises(ValueError):
            train_epoch(model, Dataset([], ["a"]), opt, 2, seed=0, epoch=0)

    def test_fit_returns_one_record_per_epoch(self):
        data, model, opt = self.small_setup(epochs=3)
        records = fit(model, data, opt, epochs=3, batch_size=2, seed=0)
        assert [r.epoch for r in records] == [0, 1, 2]
        assert all(isinstance(r, EpochRecord) for r in records)
        assert records[0].lr == 0.01
        assert all(r.seconds >= 0 for r in records)

    def test_fit_zero_epochs(self):
        data, model, opt = self.small_setup()
        assert fit(model, data, opt, epochs=0, batch_size=2, seed=0) == []

    def test_fit_progress_callback(self):
        data, model, opt = self.small_setup(epochs=2)
        seen = []
        fit(model, data, opt, epochs=2, batch_size=2, seed=0, progress=seen.append)
        assert [r.epoch for r in seen] == [0, 1]

    def test_loss_decreases_over_short_run(self):
        data, model, opt = self.small_setup(epochs=8)
        records = fit(model, data, opt, epochs=8, batch_size=2, seed=0)
        assert records[-1].mean_loss < records[0].mean_loss


def test_compute_loss_uniform_logits():
    logits = Tensor(np.zeros((2, 1, 1, 7), dtype=np.float64))
    loss = compute_loss(logits, np.array([3, 6]))
    assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)


def test_batch_holds_each_preprocessed_image_in_order():
    data = synth_dataset(classes=3, per_class=2, size=(20, 20), seed=1)
    x, y = _batch_arrays(data.samples, (16, 16), True)
    expected = np.concatenate([preprocess(s, target=(16, 16)).data for s in data.samples])
    assert x.data.tobytes() == expected.tobytes()
    assert y.tolist() == [s.label for s in data.samples]


def test_batch_of_unequal_extents_is_rejected():
    # Without the check, the (1, 16, 3) image would broadcast over the batch row.
    samples = [Sample(Tensor(np.full((1, h, 16, 3), 0.5, np.float32)), 0) for h in (16, 1)]
    with pytest.raises(ShapeError, match="sample 1"):
        _batch_arrays(samples, None, True)


def test_batch_is_built_in_place():
    # Holding every image and then their concatenation peaks at 2x the batch.
    data = synth_dataset(classes=4, per_class=8, size=(48, 48), seed=0)
    built = []
    peak = traced_peak(lambda: built.extend(_batch_arrays(data.samples, (224, 224), True)))
    x, _ = built
    assert x.shape == (32, 224, 224, 3)
    assert peak < 1.5 * x.data.nbytes


def test_base_model_at_224_stays_finite_over_four_steps():
    # The paper's size at the bench's lr: with every conv_b drawn He-normal,
    # the loss starts near 30 and is no longer finite at step 2.
    data = synth_dataset(classes=7, per_class=5, size=(48, 48), seed=0)
    model = TKFNet(model_config("base"), seed=0)
    opt = MomentumOptimizer(model.parameters(), constant_schedule(0.01), momentum=0.9)
    for step in range(4):
        x, y = _batch_arrays(data.samples[step * 8 : (step + 1) * 8], (224, 224), True)
        with Tape() as tape:
            loss = compute_loss(model(x), y)
            tape.backward(loss)
        assert np.isfinite(loss.item()), f"step {step}"
        assert all(np.isfinite(p.grad).all() for p in model.parameters()), f"step {step}"
        opt.step()
