"""The finite-difference oracle itself: accuracy, fault detection, sweeps."""

import inspect
import re

import numpy as np
import pytest

import tkfnet.tensor
from helpers import scale_gradients
from tkfnet.gradcheck import (
    GradCheckError,
    MODULE_TOLERANCE,
    OP_CASES,
    OP_TOLERANCE,
    check_dcif,
    check_loss,
    check_tafe,
    grad_check,
    per_op_sweep,
    run_suite,
    suite_checks,
)
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import Tape, Tensor, activation, hadamard, reduce_sum, softmax_cross_entropy


def quadratic_case(seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
    cw = Tensor(rng.uniform(0.5, 1.5, size=x.shape))

    def f(x):
        return reduce_sum(hadamard(hadamard(x, x), cw))

    return f, x


class TestGradCheck:
    def test_accepts_correct_gradients(self):
        f, x = quadratic_case()
        assert grad_check(f, [x]) <= 1e-6

    def test_flags_scaled_gradients(self, monkeypatch):
        # Every accumulated gradient is multiplied, which a central
        # difference immediately exposes.
        scale_gradients(monkeypatch, 1.5)
        f, x = quadratic_case()
        assert grad_check(f, [x]) > 0.3

    def test_non_scalar_objective_rejected(self):
        x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda x: hadamard(x, x), [x])

    def test_non_finite_forward_detected(self):
        x = Tensor(np.full((1, 1, 1, 1), np.inf), requires_grad=True)
        with pytest.raises(GradCheckError, match="non-finite"):
            grad_check(lambda x: reduce_sum(x), [x])

    def test_coords_limit_probing(self):
        calls = []
        x = Tensor(np.ones((1, 1, 1, 4)), requires_grad=True)

        def f(x):
            calls.append(1)
            return reduce_sum(x)

        grad_check(f, [x], coords=[(0, 0), (0, 3)])
        # One tape evaluation plus two probes of two evaluations each.
        assert len(calls) == 5

    def test_inputs_restored_after_probing(self):
        f, x = quadratic_case()
        before = x.data.copy()
        grad_check(f, [x])
        np.testing.assert_array_equal(x.data, before)

    def test_catches_missing_gradient_term(self):
        # A forward path that drops its tape record produces zero gradients,
        # which the probe reports as a full-scale error.
        x = Tensor(np.full((1, 1, 1, 1), 2.0), requires_grad=False)
        y = Tensor(np.full((1, 1, 1, 1), 2.0), requires_grad=True)

        def f(y):
            return reduce_sum(hadamard(x, x))

        assert grad_check(f, [y]) == 0.0  # y genuinely unused
        assert grad_check(lambda y: reduce_sum(hadamard(y, y)), [y]) <= 1e-6


class TestOpSweep:
    def test_every_op_has_a_case(self):
        assert set(OP_CASES) == {
            "conv2d",
            "conv2d_1x1_vector",
            "relu",
            "sigmoid",
            "gelu",
            "spatial_moments",
            "global_pool_avg",
            "global_pool_max",
            "hadamard",
            "hadamard_vector",
            "hadamard_scalar",
            "add",
            "concat_channels",
            "reduce_sum",
            "softmax_cross_entropy",
            "conv2d_1x1",
            "conv2d_1x1_stride2",
            "conv2d_3x3",
            "conv2d_1x1_into_grad",
            "conv2d_1x1_stride2_into_grad",
        }

    def test_every_model_op_has_a_case(self):
        # An op the model records but no probe case records has no
        # finite-difference check; adding one to the model fails here.
        model = TKFNet(model_config("small", 3), seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1.0, 1.0, size=(2, 16, 16, 3)).astype(np.float32))
        with Tape() as tape:
            loss = softmax_cross_entropy(model(x), np.array([0, 2]))
        tape.backward(loss)
        model_ops = {node.op for node in tape.nodes}
        case_ops = set()
        for builder in OP_CASES.values():
            f, inputs = builder(np.random.default_rng(0), np.float64)
            with Tape() as case_tape:
                f(*inputs)
            case_ops |= {node.op for node in case_tape.nodes}
        assert "global_pool[max]" in model_ops
        assert model_ops <= case_ops, sorted(model_ops - case_ops)

    def test_every_op_records_nodes_under_its_own_name(self):
        # tensor.py's ops are its public functions whose code calls _record.
        # Under a tape, the cases must record a node of every op, and each
        # node's name must be its op's function name, optionally followed by
        # [kind].
        ops = {name for name, fn in vars(tkfnet.tensor).items()
               if inspect.isfunction(fn) and fn.__module__ == tkfnet.tensor.__name__
               and not name.startswith("_") and "_record" in fn.__code__.co_names}
        recorded = set()
        for builder in OP_CASES.values():
            f, inputs = builder(np.random.default_rng(0), np.float64)
            with Tape() as tape:
                f(*inputs)
            for node in tape.nodes:
                match = re.fullmatch(r"(\w+)(\[\w+\])?", node.op)
                assert match and match.group(1) in ops, f"{node.op} names no op of {sorted(ops)}"
                recorded.add(match.group(1))
        assert recorded == ops, f"ops with no recorded node: {sorted(ops - recorded)}"

    def test_short_sweep_within_tolerance(self):
        results = per_op_sweep(seeds=5)
        assert set(results) == set(OP_CASES)
        for name, err in results.items():
            assert err <= OP_TOLERANCE, f"{name}: {err}"

    @pytest.mark.parametrize("name", list(OP_CASES))
    def test_every_op_backward_writes_through_accum(self, monkeypatch, name):
        # Scaling what _accum receives breaks every case's check. The ops
        # around a probed op scale too, so each input's own gradient must
        # also be seen passing through _accum.
        f, inputs = OP_CASES[name](np.random.default_rng(0), np.float64)
        written = []
        accum = tkfnet.tensor._accum
        monkeypatch.setattr(tkfnet.tensor, "_accum",
                            lambda slot, grad, **kw: written.append(slot) or accum(slot, grad, **kw))
        scale_gradients(monkeypatch, 1.5)
        assert grad_check(f, inputs) > OP_TOLERANCE
        assert all(any(slot is x._slot for slot in written) for x in inputs)

    def test_case_builders_are_deterministic(self):
        for builder in OP_CASES.values():
            rng1 = np.random.default_rng(7)
            rng2 = np.random.default_rng(7)
            _, inputs1 = builder(rng1, np.float64)
            _, inputs2 = builder(rng2, np.float64)
            for a, b in zip(inputs1, inputs2):
                np.testing.assert_array_equal(a.data, b.data)


class TestModuleChecks:
    def test_tafe_block(self):
        assert check_tafe(seed=1) <= MODULE_TOLERANCE

    def test_dcif_block(self):
        assert check_dcif(seed=1) <= MODULE_TOLERANCE

    def test_loss(self):
        assert check_loss(seed=1) <= OP_TOLERANCE


class TestSuite:
    def test_module_roster_and_order(self):
        names = [name for name, _, _ in suite_checks()]
        assert names == ["tensor-core", "backbone", "tafe", "dcif", "train", "full-model"]

    def test_full_suite_passes_with_reduced_budget(self):
        results = run_suite(op_seeds=3, model_samples=10)
        assert set(results) == {
            "tensor-core", "backbone", "tafe", "dcif", "train", "full-model",
        }
        for name, (err, tol) in results.items():
            assert err <= tol, f"{name}: {err} > {tol}"

    def test_progress_callback_sees_each_module(self):
        seen = []
        run_suite(op_seeds=2, model_samples=5, progress=lambda *args: seen.append(args))
        assert [name for name, _, _ in seen] == [
            "tensor-core", "backbone", "tafe", "dcif", "train", "full-model",
        ]

    def test_fail_fast_stops_at_first_offender(self, monkeypatch):
        scale_gradients(monkeypatch, 1.5)
        results = run_suite(op_seeds=1, model_samples=5, fail_fast=True)
        assert list(results) == ["tensor-core"]
        err, tol = results["tensor-core"]
        assert err > tol
