"""Unit tests for the rank-4 tensor core: forward oracles and gradients."""

import math
import warnings

import numpy as np
import pytest

from tkfnet.tensor import (
    ShapeError,
    Tape,
    Tensor,
    activation,
    add,
    concat_channels,
    conv2d,
    global_pool,
    hadamard,
    reduce_sum,
    softmax_cross_entropy,
    spatial_moments,
    _erf,
)
from tkfnet.gradcheck import grad_check
from helpers import channel_vector, scalar_tensor


def t(data, requires_grad=False, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


class TestTensorContainer:
    def test_rank_enforced(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            t(np.zeros((1, 1, 1, 2))).item()
        assert t([[[[3.5]]]]).item() == 3.5

    def test_integer_input_promoted_to_float32(self):
        x = Tensor(np.arange(4).reshape(1, 2, 2, 1))
        assert x.dtype == np.float32

    def test_float64_preserved(self):
        x = t(np.zeros((1, 1, 1, 1)))
        assert x.dtype == np.float64


class TestConv2d:
    def test_pointwise_hand_case(self):
        # 1x1 kernel, weight 2, bias 1: plain affine map per element.
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
        w = t(np.full((1, 1, 1, 1), 2.0))
        b = t(np.full((1, 1, 1, 1), 1.0))
        y = conv2d(x, w, b)
        np.testing.assert_array_equal(
            y.data.reshape(-1), [3.0, 5.0, 7.0, 9.0]
        )

    def test_same_padding_output_size(self):
        x = t(np.zeros((2, 7, 5, 3)))
        w = t(np.zeros((3, 3, 3, 4)))
        b = t(np.zeros((1, 1, 1, 4)))
        assert conv2d(x, w, b, stride=2).shape == (2, 4, 3, 4)
        assert conv2d(x, w, b, stride=1).shape == (2, 7, 5, 4)

    def test_channel_mismatch_rejected(self):
        x = t(np.zeros((1, 4, 4, 2)))
        w = t(np.zeros((1, 1, 3, 1)))
        b = t(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ShapeError):
            conv2d(x, w, b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
        w = t(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
        b = t(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
        err = grad_check(
            lambda *ts: reduce_sum(activation("gelu", conv2d(x, w, b, stride=2))),
            [x, w, b],
        )
        assert err <= 1e-3


class TestConv2dVector:
    """A fully connected layer: a 1x1 conv on (n, 1, 1, c) vectors."""

    def test_hand_case(self):
        # [1, 2] @ 3I + [1, 1] = [4, 7]
        x = t(np.array([1.0, 2.0]).reshape(1, 1, 1, 2))
        w = t((3.0 * np.eye(2)).reshape(1, 1, 2, 2))
        b = t(np.ones((1, 1, 1, 2)))
        y = conv2d(x, w, b)
        assert y.shape == (1, 1, 1, 2)
        np.testing.assert_array_equal(y.data.reshape(-1), [4.0, 7.0])

    def test_row_vector_convention(self):
        # weight[i, j] maps input channel i to output channel j.
        x = t(np.array([1.0, 0.0]).reshape(1, 1, 1, 2))
        w = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        b = t(np.zeros((1, 1, 1, 2)))
        np.testing.assert_array_equal(conv2d(x, w, b).data.reshape(-1), [1.0, 2.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        x = t(rng.normal(size=(3, 1, 1, 5)), requires_grad=True)
        w = t(rng.normal(size=(1, 1, 5, 4)), requires_grad=True)
        b = t(rng.normal(size=(1, 1, 1, 4)), requires_grad=True)
        err = grad_check(lambda *ts: reduce_sum(conv2d(x, w, b)), [x, w, b])
        assert err <= 1e-3


class TestActivations:
    def test_sigmoid_value(self):
        y = activation("sigmoid", scalar_tensor(1.0, dtype=np.float64))
        assert y.item() == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_sigmoid_outputs_stay_inside_open_interval(self):
        x = t(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]).reshape(1, 1, 1, 5))
        y = activation("sigmoid", x).data
        assert np.all(y > 0.0)
        assert np.all(y < 1.0)

    def test_sigmoid_gradient_at_zero(self):
        x = t(np.zeros((1, 1, 1, 1)), requires_grad=True)
        with Tape() as tape:
            y = activation("sigmoid", x)
            tape.backward(y)
        assert x.grad.item() == pytest.approx(0.25, abs=1e-12)

    def test_relu_zeroes_negatives(self):
        x = t(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5))
        np.testing.assert_array_equal(
            activation("relu", x).data.reshape(-1), [0.0, 0.0, 0.0, 0.5, 2.0]
        )

    def test_gelu_matches_gaussian_cdf_form(self):
        x = np.linspace(-4, 4, 33)
        y = activation("gelu", t(x.reshape(1, 1, 1, -1))).data.reshape(-1)
        phi = [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        np.testing.assert_allclose(y, x * phi, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_raises_no_warning_at_extremes(self, dtype, taped):
        x = t(np.array([np.inf, -np.inf, np.nan, 1e30, -1e30]).reshape(1, 1, 1, 5), taped, dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                y = activation("gelu", x)
                if taped:
                    tape.backward(reduce_sum(y))
        out = y.data.reshape(-1)
        assert out[0] == np.inf and np.isnan(out[1]) and np.isnan(out[2])
        assert out[3] == dtype(1e30)
        assert out[4] == 0.0 and np.signbit(out[4])
        if taped:
            grad = x.grad.reshape(-1)
            assert np.isnan(grad[:3]).all() and grad[3] == 1.0 and grad[4] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation("tanh", scalar_tensor(0.0))

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "gelu"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        # Keep relu inputs away from the kink at zero.
        vals = rng.normal(size=(2, 3, 3, 2))
        vals[np.abs(vals) < 0.1] += 0.2
        x = t(vals, requires_grad=True)
        err = grad_check(lambda *ts: reduce_sum(activation(kind, x)), [x])
        assert err <= 1e-3


def _ulps(a, b):
    """Distance in units in the last place between same-signed float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestErf:
    """``_erf`` against scipy's Cephes erf, the function it ports."""

    def test_float32_bits_match_scipy(self):
        erf = pytest.importorskip("scipy.special").erf
        # Every 256th bit pattern of each sign up to 6.5, i.e. 0x40d00000.
        magnitudes = np.arange(0, 0x40D00001, 256, dtype=np.uint32)
        for sign in (0, 0x80000000):
            for chunk in np.array_split(magnitudes | np.uint32(sign), 8):
                x = chunk.view(np.float32)
                assert np.array_equal(_erf(x.copy()).view(np.uint32), erf(x).view(np.uint32))

    def test_float32_special_values_match_scipy_bits(self):
        erf = pytest.importorskip("scipy.special").erf
        one, six = np.float32(1.0), np.float32(6.0)
        x = np.array(
            [0.0, -0.0, 1.0, -1.0, 6.0, -6.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40,
             np.nextafter(one, 0), np.nextafter(one, 2), np.nextafter(six, 0), np.nextafter(six, 7),
             np.finfo(np.float32).smallest_subnormal],
            dtype=np.float32,
        )
        assert np.array_equal(_erf(x.copy()).view(np.uint32), erf(x).view(np.uint32))

    def test_float64_within_one_ulp_of_scipy(self):
        erf = pytest.importorskip("scipy.special").erf
        rng = np.random.default_rng(2024)
        x = np.concatenate([rng.uniform(-7.0, 7.0, 200_000), rng.uniform(-1.0, 1.0, 100_000)])
        got = _erf(x.copy())
        assert got.dtype == np.float64
        assert _ulps(got, erf(x)).max() <= 1

    @pytest.mark.parametrize("shape", [(0,), (3, 5), (2, 20_000)])
    def test_keeps_shape_and_dtype_across_blocks(self, shape):
        x = np.random.default_rng(5).normal(scale=2.0, size=shape).astype(np.float32)
        got = _erf(x.copy())
        assert got.shape == x.shape and got.dtype == np.float32
        ref = [math.erf(v) for v in x.reshape(-1).astype(np.float64)]
        np.testing.assert_allclose(got.reshape(-1), np.float32(ref), rtol=0, atol=1e-7)


class TestSpatialMoments:
    def test_hand_case(self):
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
        mean, var = spatial_moments(x)
        assert mean.item() == 2.5
        assert var.item() == 1.25

    def test_population_variance_divisor(self):
        # Sample variance of [0, 2] would be 2; population variance is 1.
        x = t(np.array([0.0, 2.0]).reshape(1, 2, 1, 1))
        _, var = spatial_moments(x)
        assert var.item() == 1.0

    def test_spatial_permutation_bit_exact(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        perm = rng.permutation(36)
        shuffled = vals.reshape(2, 36, 3)[:, perm, :].reshape(2, 6, 6, 3)
        m1, v1 = spatial_moments(Tensor(vals))
        m2, v2 = spatial_moments(Tensor(shuffled))
        np.testing.assert_array_equal(m1.data, m2.data)
        np.testing.assert_array_equal(v1.data, v2.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        x = t(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)

        def f(*ts):
            mean, var = spatial_moments(x)
            return reduce_sum(add(mean, hadamard(var, scalar_tensor(0.5, np.float64))))

        assert grad_check(f, [x]) <= 1e-3


class TestGlobalPool:
    """Global pooling of (n, h, w, c) to (n, 1, 1, c)."""

    def test_avg_global(self):
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
        assert global_pool("avg", x).item() == 2.5

    def test_max_global(self):
        x = t(np.array([1.0, 7.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
        assert global_pool("max", x).item() == 7.0

    def test_per_sample_and_channel(self):
        x = t(np.arange(24.0).reshape(2, 3, 2, 2))
        np.testing.assert_array_equal(global_pool("avg", x).data.reshape(2, 2), [[5.0, 6.0], [17.0, 18.0]])
        np.testing.assert_array_equal(global_pool("max", x).data.reshape(2, 2), [[10.0, 11.0], [22.0, 23.0]])

    def test_empty_extent_and_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            global_pool("avg", t(np.zeros((1, 0, 2, 1))))
        with pytest.raises(ValueError, match="pooling kind"):
            global_pool("min", t(np.zeros((1, 2, 2, 1))))

    def test_max_gradient_goes_to_first_maximum(self):
        x = t(np.array([2.0, 2.0, 1.0, 0.0]).reshape(1, 2, 2, 1), requires_grad=True)
        with Tape() as tape:
            y = global_pool("max", x)
            tape.backward(y)
        np.testing.assert_array_equal(x.grad.reshape(-1), [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("kind", ["avg", "max"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        # Well-separated values keep the max's argmax stable under probing.
        vals = rng.permutation(50)[:32].astype(np.float64).reshape(2, 4, 2, 2)
        x = Tensor(vals)
        x.requires_grad = True
        err = grad_check(lambda *ts: reduce_sum(global_pool(kind, x)), [x])
        assert err <= 1e-3


class TestElementwise:
    def test_hadamard_channel_vector_broadcast(self):
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
        g = channel_vector([2.0], dtype=np.float64)
        y = hadamard(x, g)
        np.testing.assert_array_equal(y.data.reshape(-1), [2.0, 4.0, 6.0, 8.0])

    def test_hadamard_same_shape(self):
        a = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        b = t(np.array([[5.0, 6.0], [7.0, 8.0]]).reshape(1, 2, 2, 1))
        np.testing.assert_array_equal(
            hadamard(a, b).data.reshape(-1), [5.0, 12.0, 21.0, 32.0]
        )

    def test_hadamard_incompatible_shapes_rejected(self):
        with pytest.raises(ShapeError, match="do not broadcast"):
            hadamard(t(np.zeros((1, 2, 3, 3))), t(np.zeros((1, 2, 2, 3))))
        with pytest.raises(ShapeError, match="do not broadcast"):
            hadamard(t(np.zeros((1, 2, 1, 3))), t(np.zeros((1, 2, 2, 3))))

    def test_hadamard_scalar_broadcast(self):
        x = t(np.ones((1, 2, 2, 1)))
        y = hadamard(x, scalar_tensor(0.25, np.float64))
        np.testing.assert_array_equal(y.data, 0.25 * np.ones((1, 2, 2, 1)))

    def test_add_shapes_must_match(self):
        with pytest.raises(ShapeError):
            add(t(np.zeros((1, 2, 2, 1))), t(np.zeros((1, 2, 2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        a = t(rng.normal(size=(2, 3, 3, 2)), requires_grad=True)
        b = t(rng.normal(size=(2, 3, 3, 2)), requires_grad=True)
        v = t(rng.normal(size=(2, 1, 1, 2)), requires_grad=True)
        s = t(rng.normal(size=(1, 1, 1, 1)), requires_grad=True)

        def f(*ts):
            return reduce_sum(hadamard(add(hadamard(a, b), hadamard(a, v)), s))

        assert grad_check(f, [a, b, v, s]) <= 1e-3


class TestConcatChannels:
    def test_stacks_along_channel_axis(self):
        a = t(np.full((1, 2, 2, 2), 1.0))
        b = t(np.full((1, 2, 2, 3), 2.0))
        y = concat_channels(a, b)
        assert y.shape == (1, 2, 2, 5)
        np.testing.assert_array_equal(y.data[..., :2], a.data)
        np.testing.assert_array_equal(y.data[..., 2:], b.data)

    def test_zero_channel_operand_is_neutral(self):
        a = t(np.zeros((1, 2, 2, 0)))
        b = t(np.arange(8.0).reshape(1, 2, 2, 2))
        np.testing.assert_array_equal(concat_channels(a, b).data, b.data)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_channels(t(np.zeros((1, 2, 2, 1))), t(np.zeros((1, 3, 2, 1))))

    def test_gradient_splits_cleanly(self):
        a = t(np.ones((1, 1, 1, 2)), requires_grad=True)
        b = t(np.ones((1, 1, 1, 3)), requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(hadamard(concat_channels(a, b), channel_vector(
                [1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float64)))
            tape.backward(y)
        np.testing.assert_array_equal(a.grad.reshape(-1), [1.0, 2.0])
        np.testing.assert_array_equal(b.grad.reshape(-1), [3.0, 4.0, 5.0])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_q(self):
        logits = t(np.zeros((4, 1, 1, 7)))
        labels = np.array([0, 3, 5, 6])
        loss = softmax_cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(19)
        raw = rng.normal(size=(3, 1, 1, 5))
        labels = np.array([1, 0, 4])
        a = softmax_cross_entropy(t(raw), labels).item()
        b = softmax_cross_entropy(t(raw + 100.0), labels).item()
        assert a == pytest.approx(b, rel=1e-9)

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(20)
        raw = rng.normal(size=(4, 1, 1, 6))
        labels = np.array([2, 2, 0, 5])
        logits = t(raw, requires_grad=True)
        with Tape() as tape:
            loss = softmax_cross_entropy(logits, labels)
            tape.backward(loss)
        z = raw - raw.max(axis=-1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        onehot = np.eye(6)[labels].reshape(4, 1, 1, 6)
        np.testing.assert_allclose(logits.grad, (p - onehot) / 4.0, atol=1e-9)

    def test_label_out_of_range_rejected(self):
        logits = t(np.zeros((2, 1, 1, 3)))
        with pytest.raises(ValueError, match="3"):
            softmax_cross_entropy(logits, np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0, -1]))

    def test_float_labels_rejected(self):
        logits = t(np.zeros((2, 1, 1, 3)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0.0, 1.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        logits = t(rng.normal(size=(3, 1, 1, 7)), requires_grad=True)
        labels = np.array([6, 0, 3])
        err = grad_check(lambda *ts: softmax_cross_entropy(logits, labels), [logits])
        assert err <= 1e-3


class TestTapeSemantics:
    def test_gradients_accumulate_on_reuse(self):
        x = t(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(add(x, x))
            tape.backward(y)
        assert x.grad.item() == 2.0

    def test_backward_requires_scalar(self):
        x = t(np.zeros((1, 1, 1, 2)), requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_replayed_tape_refuses_a_second_backward(self):
        x = t(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape() as tape:
            y = reduce_sum(add(x, x))
        tape.backward(y)
        with pytest.raises(RuntimeError, match="tape already replayed"):
            tape.backward(y)
        assert x.grad.item() == 2.0

    def test_backward_keeps_leaf_gradients_only(self):
        # The sigmoid feeds nothing the loss depends on, so backward skips
        # its node; a skipped node is released all the same.
        x = t(np.full((1, 1, 1, 2), 3.0), requires_grad=True)
        with Tape() as tape:
            h = activation("relu", x)
            activation("sigmoid", h)
            y = reduce_sum(h)
            tape.backward(y)
        np.testing.assert_array_equal(x.grad.reshape(-1), [1.0, 1.0])
        assert h.grad is None and y.grad is None
        assert [node.op for node in tape.nodes] == ["activation[relu]", "activation[sigmoid]", "reduce_sum"]
        assert all(node.run is None and node.outs == () for node in tape.nodes)

    def test_no_recording_outside_tape(self):
        x = t(np.ones((1, 1, 1, 1)), requires_grad=True)
        tape = Tape()
        with tape:
            pass
        add(x, x)
        assert tape.nodes == []

    def test_nested_tapes_record_on_the_innermost(self):
        x = t(np.ones((1, 1, 1, 1)), requires_grad=True)
        assert Tape.active() is None
        with Tape() as outer:
            add(x, x)
            with Tape() as inner:
                assert Tape.active() is inner
                reduce_sum(x)
            assert Tape.active() is outer
            activation("relu", x)
        assert Tape.active() is None
        assert [node.op for node in outer.nodes] == ["add", "activation[relu]"]
        assert [node.op for node in inner.nodes] == ["reduce_sum"]

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(22)
        vals = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        b = rng.normal(size=(1, 1, 1, 4)).astype(np.float32)

        def once():
            y = conv2d(Tensor(vals), Tensor(w), Tensor(b), stride=2)
            y = activation("gelu", y)
            return global_pool("avg", y).data.tobytes()

        assert once() == once()
