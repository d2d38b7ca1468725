"""The finite-difference oracle itself: accuracy, fault detection, sweeps."""

import re

import numpy as np
import pytest

import tkfnet.tensor
from helpers import model_step_nodes, scale_gradients
from tkfnet.gradcheck import (
    GradCheckError,
    MODULE_CASES,
    MODULE_EPS,
    MODULE_TOLERANCE,
    OP_CASES,
    OP_TOLERANCE,
    check_module,
    grad_check,
    per_op_sweep,
    run_suite,
)
from tkfnet.tensor import (
    OPS,
    Parameter,
    Tape,
    Tensor,
    hadamard,
    reduce_sum,
    softmax_cross_entropy,
)


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


def case_nodes(name):
    """The node names that case ``name`` records under a tape."""
    f, inputs = OP_CASES[name](np.random.default_rng(0), np.float64)
    with Tape() as tape:
        f(*inputs)
    return {node.op for node in tape.nodes}


class TestOpSweep:
    def test_every_op_has_a_case(self):
        # Each case is named <op> or <op>_<variant> after a registered op and
        # records a node of it, and each registered op has a case.
        covered = set()
        for name in OP_CASES:
            match = re.fullmatch(rf"({'|'.join(OPS)})(_\w+)?", name)
            assert match and match.group(1) in {n.partition("[")[0] for n in case_nodes(name)}, name
            covered.add(match.group(1))
        assert sorted(OPS.keys() - covered) == []

    def test_every_model_op_has_a_case(self):
        # An op the model records but no probe case records has no
        # finite-difference check; adding one to the model fails here.
        model_ops = model_step_nodes()
        case_ops = set().union(*map(case_nodes, OP_CASES))
        assert "global_pool[max]" in model_ops
        assert model_ops <= case_ops, sorted(model_ops - case_ops)

    def test_every_op_records_nodes_under_its_own_name(self):
        # A node is named after the function that defines its backward, so a
        # model node that names no registered op comes from a function that
        # records outside OPS, where the case checks above cannot see it.
        assert sorted(n for n in model_step_nodes() if n.partition("[")[0] not in OPS) == []

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
    @pytest.mark.parametrize("name", list(MODULE_CASES))
    def test_case_within_tolerance(self, name):
        assert check_module(name, seed=1) <= MODULE_CASES[name][1]

    @pytest.mark.parametrize("seed", [3, 5, 6])
    def test_full_model_passes_where_a_coarse_step_crossed_a_kink(self, seed):
        # At a step of 1e-3 this row read 4.85e-2, 1.00 and 5.71e-2 at these
        # seeds, where the probe crossed a relu or max-pool kink. At seed 5 a
        # zero branch put a relu exactly on its kink, at any step.
        assert check_module("full-model", seed) <= MODULE_TOLERANCE

    @pytest.mark.parametrize("name", ["backbone", "full-model"])
    def test_every_parameter_gets_a_nonzero_gradient(self, name):
        # With every conv_b at zero, as the model starts, each conv_a's
        # gradient is exactly 0 and no probe of it can fail.
        f, inputs, _ = MODULE_CASES[name][0](0)
        with Tape() as tape:
            out = f(*inputs)
        tape.backward(out)
        params = [p for p in inputs if isinstance(p, Parameter)]
        assert [p.name for p in params if p.grad is None or not p.grad.any()] == []
        assert sum(".conv_a." in p.name for p in params) == 4

    def test_a_fault_in_conv_a_alone_fails_the_full_model_case(self, monkeypatch):
        f, inputs, coords = MODULE_CASES["full-model"][0](0)
        faulty = {p._slot for p in inputs if ".conv_a." in p.name}
        accum = tkfnet.tensor._accum

        def scaled(slot, grad, **kw):
            accum(slot, grad * 1.5 if slot in faulty else grad, **kw)

        monkeypatch.setattr(tkfnet.tensor, "_accum", scaled)
        assert grad_check(f, inputs, eps=MODULE_EPS, coords=coords) > MODULE_TOLERANCE


ROSTER = ["tensor-core", *MODULE_CASES]


class TestSuite:
    def test_module_roster_and_order(self):
        assert ROSTER == ["tensor-core", "backbone", "tafe", "dcif", "train", "full-model"]

    def test_full_suite_passes_with_reduced_budget(self):
        results = run_suite(op_seeds=3)
        assert list(results) == ROSTER
        for name, (err, tol) in results.items():
            assert err <= tol, f"{name}: {err} > {tol}"

    def test_progress_callback_sees_each_module(self):
        seen = []
        run_suite(op_seeds=2, progress=lambda *args: seen.append(args))
        assert [name for name, _, _ in seen] == ROSTER

    def test_fail_fast_stops_at_first_offender(self, monkeypatch):
        scale_gradients(monkeypatch, 1.5)
        results = run_suite(op_seeds=1)
        assert list(results) == ["tensor-core"]
        err, tol = results["tensor-core"]
        assert err > tol
