import gc
import json
import math
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from clatt import checkpoint as ck
from clatt import nn
from clatt import tensor as T
from clatt.config import model_record

import tape_ops as TO


def naive_matmul(a, b):
    p, q = a.shape
    q2, r = b.shape
    assert q == q2
    out = np.zeros((p, r))
    for i in range(p):
        for j in range(r):
            for k in range(q):
                out[i, j] += a[i, k] * b[k, j]
    return out


def rand_tensor(rng, shape, requires_grad=True):
    return T.Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestForwardValues:
    def test_identity_matmul(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.standard_normal((4, 4)))
        eye = T.Tensor(np.eye(4))
        np.testing.assert_array_equal(TO.matmul(eye, x).data, x.data)

    def test_matmul_matches_naive(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        got = TO.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    @given(
        p=st.integers(1, 4),
        q=st.integers(1, 4),
        r=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_naive_property(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, q))
        b = rng.standard_normal((q, r))
        got = TO.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_matmul_shape_error_names_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            TO.matmul(a, b)

    def test_batched_matmul_broadcast(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((4, 5))
        got = TO.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(got[i], a[i] @ b, atol=1e-12)

    def test_linear_zero_weight_is_bias(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.standard_normal((5, 3)))
        w = T.Tensor(np.zeros((3, 2)))
        b = T.Tensor(np.array([1.5, -2.0]))
        out = T.linear(x, w, b).data
        np.testing.assert_array_equal(out, np.broadcast_to(b.data, (5, 2)))

    def test_concat_last_dim(self):
        a = T.Tensor(np.ones((2, 2)))
        b = T.Tensor(np.zeros((2, 3)))
        out = T.concat_last_dim([a, b])
        assert out.data.shape == (2, 5)
        np.testing.assert_array_equal(out.data[:, :2], 1.0)
        np.testing.assert_array_equal(out.data[:, 2:], 0.0)

    def test_add_sums_parts_left_to_right(self):
        rng = np.random.default_rng(4)
        a, b, c = (T.Tensor(rng.standard_normal(shape) * 1e8 ** i) for i, shape in enumerate([(2, 3), (3,), (2, 3)]))
        assert T.add(a) is a
        np.testing.assert_array_equal(T.add(a, b, c).data, (a.data + b.data) + c.data)
        assert T.add(b, b, a).data.shape == (2, 3)
        with pytest.raises(ValueError, match=r"add: shapes \(2, 3\) and \(3,\) and \(2,\) do not conform"):
            T.add(a, b, T.Tensor(np.ones(2)))

    def test_concat_single_part_is_returned(self):
        a = T.Tensor(np.ones((2, 2)), requires_grad=True)
        assert T.concat_last_dim([a]) is a

    def test_concat_mismatched_lead(self):
        with pytest.raises(ValueError):
            T.concat_last_dim([T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((3, 2)))])

    def test_gelu_closed_form(self):
        from scipy.special import erf

        z = np.linspace(-3, 3, 13)
        got = T.gelu(T.Tensor(z)).data
        want = z * 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got[6] == 0.0


class TestMaskedSoftmax:
    def test_equal_logits(self):
        logits = T.Tensor(np.zeros((1, 5)))
        mask = np.array([[True, True, True, True, False]])
        p = TO.masked_softmax(logits, mask).data
        np.testing.assert_allclose(p[0, :4], 0.25, atol=1e-12)
        assert p[0, 4] == 0.0

    def test_single_unmasked_entry(self):
        logits = T.Tensor(np.array([[123.0, -4.0, 9.0]]))
        mask = np.array([[False, True, False]])
        p = TO.masked_softmax(logits, mask).data
        np.testing.assert_array_equal(p, [[0.0, 1.0, 0.0]])

    def test_large_logits_stable(self):
        logits = T.Tensor(np.array([[1000.0, 1001.0]]))
        mask = np.ones((1, 2), dtype=bool)
        p = TO.masked_softmax(logits, mask).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [[0.26894142, 0.73105858]], atol=1e-6)

    def test_all_false_row_errors(self):
        logits = T.Tensor(np.zeros((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValueError, match="no unmasked"):
            TO.masked_softmax(logits, mask)

    def test_broadcast_mask_equals_full_mask(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 2, 4, 5))
        key_mask = rng.random((3, 1, 1, 5)) < 0.6
        key_mask[:, 0, 0, 2] = True
        full = np.broadcast_to(key_mask, logits.shape)
        np.testing.assert_array_equal(
            TO.masked_softmax(T.Tensor(logits), key_mask).data,
            TO.masked_softmax(T.Tensor(logits), full).data,
        )
        live = np.ones((3, 1, 1, 5), dtype=bool)
        np.testing.assert_array_equal(
            TO.masked_softmax(T.Tensor(logits), live).data,
            TO.masked_softmax(T.Tensor(logits), np.ones(logits.shape, dtype=bool)).data,
        )

    @pytest.mark.parametrize("shape", [(3, 1, 1, 4), (2, 1, 1, 5), (1, 5), (3, 2, 4, 5, 1)])
    def test_mask_that_does_not_broadcast_errors(self, shape):
        logits = T.Tensor(np.zeros((3, 2, 4, 5)))
        with pytest.raises(ValueError, match="masked_softmax: shapes"):
            TO.masked_softmax(logits, np.ones(shape, dtype=bool))

    def test_slot_form_checks_its_key_mask(self):
        nodes, table = np.array([[0], [1]]), np.array([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match=r"SlotClass: shapes .* do not conform"):
            T.SlotClass(nodes, table, np.ones((2, 3), dtype=bool), 3)
        with pytest.raises(ValueError, match=r"SlotClass: shapes .* do not conform"):
            T.SlotClass(nodes[:1], table, np.ones((2, 2), dtype=bool), 3)
        with pytest.raises(ValueError, match="row 1 has no live key"):
            T.SlotClass(nodes, table, np.array([[True, False], [False, False]]), 3)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 4), cols=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((rows, cols)) * 5
        mask = rng.random((rows, cols)) < 0.6
        mask[np.arange(rows), rng.integers(0, cols, rows)] = True
        p = TO.masked_softmax(T.Tensor(logits), mask).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
        assert (p[~mask] == 0.0).all()
        shifted = TO.masked_softmax(T.Tensor(logits + 3.7), mask).data
        np.testing.assert_allclose(p, shifted, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = T.Tensor(np.full((3, 8), 2.5))
        gain = T.Tensor(np.ones(8))
        bias = T.Tensor(np.zeros(8))
        out = T.layer_norm(x, gain, bias).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 6)) * 3 + 1
        gain = rng.standard_normal(6)
        bias = rng.standard_normal(6)
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        got = T.layer_norm(T.Tensor(x), T.Tensor(gain), T.Tensor(bias)).data
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestLosses:
    def test_perfect_logits_near_zero(self):
        logits = T.Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]))
        loss = T.softmax_cross_entropy(logits, np.array([0, 1]), np.arange(2))
        assert loss.item() < 1e-10

    def test_uniform_logits_ln_k(self):
        for k in (2, 5, 9):
            logits = T.Tensor(np.zeros((4, k)))
            loss = T.softmax_cross_entropy(logits, np.zeros(4, dtype=int), np.arange(4))
            assert abs(loss.item() - math.log(k)) < 1e-12

    def test_mask_restricts_rows(self):
        logits = T.Tensor(np.array([[5.0, 0.0], [0.0, 5.0]]))
        labels = np.array([0, 0])
        only_good = T.softmax_cross_entropy(logits, labels, np.array([0]))
        both = T.softmax_cross_entropy(logits, labels, np.array([0, 1]))
        assert only_good.item() < both.item()

    def test_empty_mask_errors(self):
        logits = T.Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="no nodes"):
            T.softmax_cross_entropy(logits, np.zeros(3, dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError, match="no nodes"):
            T.mse(T.Tensor(np.zeros(3)), np.zeros(3), np.array([], dtype=int))
        with pytest.raises(ValueError, match="no nodes"):
            T.binary_cross_entropy_with_logits(T.Tensor(np.zeros(3)), np.zeros(3), [])

    def test_bce_zero_logits(self):
        logits = T.Tensor(np.zeros(4))
        loss = T.binary_cross_entropy_with_logits(logits, np.array([0.0, 1.0, 0.0, 1.0]), np.arange(4))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_mse_self_zero_loss_zero_grad(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = T.mse(x, x.data.copy(), np.arange(3))
        assert loss.item() == 0.0
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, 0.0)


class TestBackwardMechanics:
    def test_sum_grad_is_ones(self):
        x = T.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        T.backward(TO.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_product_grad(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, (3, 4))
        y = rand_tensor(rng, (3, 4))
        T.backward(TO.tsum(TO.mul(x, y)))
        np.testing.assert_allclose(x.grad, y.data, atol=1e-12)
        np.testing.assert_allclose(y.grad, x.data, atol=1e-12)

    def test_reused_tensor_accumulates(self):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        T.backward(TO.tsum(TO.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_repeated_backward_errors(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = TO.tsum(x)
        T.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            T.backward(loss)

    def test_consumed_tape_freed_when_next_forward_starts(self):
        # without the cut, Tensor._tape <-> Tape.nodes is a cycle that only the
        # cyclic collector frees, so keep that collector out of the way
        rng = np.random.default_rng(6)
        w = rand_tensor(rng, (4, 4))
        x = T.Tensor(rng.standard_normal((3, 4)))

        def step():
            h = T.gelu(T.linear(x, w))
            loss = TO.tsum(h)
            T.backward(loss)
            return loss, weakref.ref(h.data)

        gc.disable()
        try:
            loss1, activation = step()
            assert activation() is not None  # the consumed tape still holds it
            T.linear(x, w)  # the next step's forward starts
            assert activation() is None
        finally:
            gc.enable()
        with pytest.raises(RuntimeError, match="already"):
            T.backward(loss1)

    def test_tape_lifecycle_around_no_grad(self):
        # gc stays off, as above, so only the explicit cut can free the tape
        rng = np.random.default_rng(8)
        w = rand_tensor(rng, (4, 4))
        x = T.Tensor(rng.standard_normal((3, 4)))

        def forward():
            h = T.gelu(T.linear(x, w))
            return TO.tsum(h), weakref.ref(h.data)

        gc.disable()
        try:
            loss, activation = forward()
            T.backward(loss)
            # (a) right after backward the tape is intact: the perfbench
            # tracer reads its nodes, their backward closures and their data
            # (an earlier test may have left ops on the same tape)
            nodes = loss._tape.nodes
            assert nodes[-1] is loss and len(nodes) >= 3
            assert all(n._backward is not None and n.data is not None for n in nodes)
            assert activation() is not None
            del nodes
            # (b) entering no_grad frees the consumed tape's activations
            with T.no_grad():
                assert activation() is None
                T.linear(x, w)
            assert activation() is None
        finally:
            gc.enable()
        # (d) the cut tape still knows it was consumed
        with pytest.raises(RuntimeError, match="already"):
            T.backward(loss)

    def test_no_grad_keeps_an_unconsumed_tape(self):
        # (c) forward, then a no_grad block, then backward: the same grads as
        # without the block
        rng = np.random.default_rng(9)
        w = rand_tensor(rng, (4, 4))
        x = T.Tensor(rng.standard_normal((3, 4)))
        grads = []
        for with_block in (False, True):
            T.zero_grad([w])
            loss = TO.tsum(T.gelu(T.linear(x, w)))
            if with_block:
                with T.no_grad():
                    T.gelu(T.linear(x, w))
            T.backward(loss)
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_output_of_consumed_tape_is_a_constant(self):
        rng = np.random.default_rng(7)
        w = rand_tensor(rng, (3,))
        old = TO.mul(w, w)
        T.backward(TO.tsum(old))
        T.zero_grad([w])
        T.backward(TO.tsum(TO.mul(old, w)))
        np.testing.assert_allclose(w.grad, old.data, atol=1e-12)

    def test_non_scalar_loss_errors(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(TO.mul(x, x))

    def test_untracked_loss_errors(self):
        with pytest.raises(RuntimeError, match="not connected"):
            T.backward(TO.tsum(T.Tensor(np.ones(3))))

    def test_disconnected_param_stays_zero(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        unused = T.Tensor(np.ones(4), requires_grad=True)
        T.backward(TO.tsum(TO.mul(x, x)))
        np.testing.assert_array_equal(unused.grad, 0.0)

    def test_no_grad_blocks_recording(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = TO.tsum(TO.mul(x, x))
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            T.backward(out)

    def test_grad_accumulates_across_backwards(self):
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        T.backward(TO.tsum(x))
        T.backward(TO.tsum(TO.scale(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_dropout_deterministic_and_scaled(self):
        x = T.Tensor(np.ones((200, 4)), requires_grad=True)
        a = T.dropout(x, 0.5, np.random.default_rng(7))
        b = T.dropout(x, 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)
        kept = a.data != 0
        np.testing.assert_array_equal(a.data[kept], 2.0)
        assert 0.35 < kept.mean() < 0.65
        T.backward(TO.tsum(a))
        np.testing.assert_array_equal(x.grad[kept], 2.0)
        np.testing.assert_array_equal(x.grad[~kept], 0.0)

    def test_dropout_rate_zero_identity(self):
        x = T.Tensor(np.ones(5), requires_grad=True)
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(13)
        dense = (rng.random((6, 6)) < 0.4) * rng.standard_normal((6, 6))
        a = sp.csr_matrix(dense)
        x = rand_tensor(rng, (6, 3))
        out = T.spmm(a, x)
        np.testing.assert_allclose(out.data, dense @ x.data, atol=1e-12)
        g = rng.standard_normal((6, 3))
        T.backward(TO.tsum(TO.mul(out, T.Tensor(g))))
        np.testing.assert_allclose(x.grad, dense.T @ g, atol=1e-12)

    def test_take_rows_scatter_grad(self):
        x = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([[0, 2], [2, 1]])
        out = TO.take_rows(x, idx)
        assert out.data.shape == (2, 2, 3)
        T.backward(TO.tsum(out))
        np.testing.assert_array_equal(x.grad, [[1.0] * 3, [1.0] * 3, [2.0] * 3, [0.0] * 3])


def quadratic_loss(x):
    return TO.tsum(TO.mul(x, x))


class TestGradCheck:
    def test_quadratic_tiny_error(self):
        # central differences are exact for quadratics, so a wide step
        # leaves only float rounding
        rng = np.random.default_rng(21)
        x = rand_tensor(rng, (3, 3))
        assert TO.grad_check(lambda: quadratic_loss(x), [x], eps=1e-4) < 1e-9

    def test_arithmetic_composite(self):
        rng = np.random.default_rng(22)
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (3, 4))
        c = rand_tensor(rng, (4,))

        def f():
            return TO.tsum(TO.mul(TO.sub(T.add(a, c), b), TO.scale(a, 0.5)))

        assert TO.grad_check(f, [a, b, c]) < 1e-6

    def test_matmul_linear(self):
        rng = np.random.default_rng(23)
        x = rand_tensor(rng, (4, 3))
        w = rand_tensor(rng, (3, 2))
        b = rand_tensor(rng, (2,))

        def f():
            return TO.tsum(T.linear(x, w, b))

        assert TO.grad_check(f, [x, w, b]) < 1e-6

    def test_batched_matmul(self):
        rng = np.random.default_rng(24)
        a = rand_tensor(rng, (2, 3, 4))
        b = rand_tensor(rng, (4, 3))

        def f():
            return TO.tsum(TO.matmul(a, b))

        assert TO.grad_check(f, [a, b]) < 1e-6

    def test_gelu(self):
        rng = np.random.default_rng(26)
        x = rand_tensor(rng, (5, 3))
        assert TO.grad_check(lambda: TO.tsum(T.gelu(x)), [x]) < 1e-6

    def test_masked_softmax_composite(self):
        rng = np.random.default_rng(27)
        logits = rand_tensor(rng, (4, 5))
        weights = T.Tensor(rng.standard_normal((4, 5)))
        mask = rng.random((4, 5)) < 0.6
        mask[:, 0] = True

        def f():
            return TO.tsum(TO.mul(TO.masked_softmax(logits, mask), weights))

        assert TO.grad_check(f, [logits]) < 1e-5

    def test_layer_norm(self):
        rng = np.random.default_rng(28)
        x = rand_tensor(rng, (3, 6))
        gain = rand_tensor(rng, (6,))
        bias = rand_tensor(rng, (6,))
        weights = T.Tensor(rng.standard_normal((3, 6)))

        def f():
            return TO.tsum(TO.mul(T.layer_norm(x, gain, bias), weights))

        assert TO.grad_check(f, [x, gain, bias]) < 1e-5

    def test_gather_reshape_swap_concat(self):
        rng = np.random.default_rng(30)
        x = rand_tensor(rng, (5, 4))
        idx = np.array([[0, 3], [4, 1]])

        def f():
            g = TO.take_rows(x, idx)
            g = TO.swap_axes(g, 0, 1)
            flat = T.reshape(g, (4, 4))
            return TO.tsum(T.concat_last_dim([flat, TO.scale(flat, -0.5)]))

        assert TO.grad_check(f, [x]) < 1e-6

    def test_spmm(self):
        rng = np.random.default_rng(31)
        a = sp.csr_matrix((rng.random((5, 5)) < 0.5) * rng.standard_normal((5, 5)))
        x = rand_tensor(rng, (5, 2))
        assert TO.grad_check(lambda: TO.tsum(T.spmm(a, x)), [x]) < 1e-6

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(32)
        x = rand_tensor(rng, (6, 3))

        def f():
            return TO.tsum(T.dropout(x, 0.4, np.random.default_rng(99)))

        assert TO.grad_check(f, [x]) < 1e-6

    def test_cross_entropy(self):
        rng = np.random.default_rng(33)
        logits = rand_tensor(rng, (6, 4))
        labels = rng.integers(0, 4, 6)
        idx = np.array([0, 2, 5])

        def f():
            return T.softmax_cross_entropy(logits, labels, idx)

        assert TO.grad_check(f, [logits]) < 1e-5

    def test_bce(self):
        rng = np.random.default_rng(34)
        logits = rand_tensor(rng, (7,))
        targets = rng.integers(0, 2, 7).astype(float)
        assert TO.grad_check(lambda: T.binary_cross_entropy_with_logits(logits, targets, np.arange(7)), [logits]) < 1e-5

    def test_mse(self):
        rng = np.random.default_rng(35)
        pred = rand_tensor(rng, (6, 1))
        target = rng.standard_normal((6, 1))
        idx = np.array([1, 3, 4])
        assert TO.grad_check(lambda: T.mse(pred, target, idx), [pred]) < 1e-5


class TestAdam:
    def test_zero_grads_no_change(self):
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = T.adam_init([p])
        T.adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_closed_form(self):
        g = np.array([0.3, -1.7, 0.0002])
        p = T.Tensor(np.zeros(3), requires_grad=True)
        p.grad[...] = g
        state = T.adam_init([p])
        lr, eps = 0.01, 1e-8
        T.adam_step([p], state, lr=lr, eps=eps)
        want = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p.data, want, atol=1e-12)

    def test_constant_grad_limit_is_lr_sign(self):
        g = np.array([2.0, -0.5])
        p = T.Tensor(np.zeros(2), requires_grad=True)
        state = T.adam_init([p])
        lr = 0.001
        prev = p.data.copy()
        for _ in range(500):
            p.grad[...] = g
            prev = p.data.copy()
            T.adam_step([p], state, lr=lr)
        step = p.data - prev
        np.testing.assert_allclose(step, -lr * np.sign(g), rtol=0.02)

    def test_lr_zero_noop(self):
        rng = np.random.default_rng(40)
        p = rand_tensor(rng, (3, 3))
        before = p.data.copy()
        state = T.adam_init([p])
        for _ in range(5):
            p.grad[...] = rng.standard_normal((3, 3))
            T.adam_step([p], state, lr=0.0)
        np.testing.assert_array_equal(p.data, before)
        assert state.t == 5

    def test_param_count_mismatch(self):
        p = T.Tensor(np.zeros(2), requires_grad=True)
        state = T.adam_init([p])
        with pytest.raises(ValueError):
            T.adam_step([p, p], state, lr=0.1)


class TestCheckpoint:
    SPEC = {"conv_type": "LGT", "use_clatt": True, "clusterings": ["LA"], "pe": "none", "layers": 1,
            "hidden": 8, "heads": 2, "dropout": 0.0, "lr": 0.003}

    @classmethod
    def save(cls, path, params):
        """save_checkpoint with a valid spec and transform: every checkpoint records both."""
        ck.save_checkpoint(path, params, model_record(cls.SPEC, "spec"), "none")

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(50)
        params = {
            "enc.w": rng.standard_normal((4, 3)),
            "enc.b": rng.standard_normal(3).astype(np.float32),
            "steps": np.arange(5),
        }
        path = tmp_path / "model.ckpt"
        self.save(path, params)
        loaded = ck.load_checkpoint(path)
        assert list(loaded) == list(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
            assert loaded[name].dtype == params[name].dtype.newbyteorder("<")

    def test_accepts_tensors(self, tmp_path):
        p = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        path = tmp_path / "t.ckpt"
        self.save(path, {"p": p})
        np.testing.assert_array_equal(ck.load_checkpoint(path)["p"], p.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ck.CheckpointError, match="magic"):
            ck.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        self.save(path, {"x": np.ones(10)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(path)

    def test_byte_layout(self, tmp_path):
        import json

        arr = np.array([1.0, -2.0, 3.5])
        path = tmp_path / "layout.ckpt"
        self.save(path, {"a": arr})
        raw = path.read_bytes()
        assert raw[:4] == b"CLT1"
        hlen = int(np.frombuffer(raw[4:12], dtype="<u8")[0])
        header = json.loads(raw[12 : 12 + hlen])
        entry = header["entries"][0]
        assert entry["name"] == "a" and entry["shape"] == [3] and entry["dtype"] == "<f8"
        payload = raw[12 + hlen :]
        np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f8"), arr)

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        self.save(path, {})
        assert ck.load_checkpoint(path) == {}

    @staticmethod
    def with_header(path, header):
        raw = json.dumps(header).encode()
        path.write_bytes(ck.MAGIC + len(raw).to_bytes(8, "little") + raw + bytes(16))
        return path

    def test_huge_header_length(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        self.save(path, {"x": np.ones(3)})
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (2**62).to_bytes(8, "little") + raw[12:])
        with pytest.raises(ck.CheckpointError, match="header length 4611686018427387904 exceeds"):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, message",
        [([1, 2], "entries list"),
         ({"entries": {"x": 1}}, "entries list"),
         ({"entries": [7]}, "not an object"),
         ({"entries": [{"shape": [2], "dtype": "<f8", "offset": 0, "nbytes": 16}]}, "name"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "<f8", "offset": 0, "nbytes": 16}] * 2}, "repeated name"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "<f8", "offset": -8, "nbytes": 16}]}, "non-negative"),
         ({"entries": [{"name": "a", "shape": [-2], "dtype": "<f8", "offset": 0, "nbytes": 16}]}, "non-negative"),
         ({"entries": [{"name": "a", "shape": "2", "dtype": "<f8", "offset": 0, "nbytes": 16}]}, "non-negative"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "<c8", "offset": 0, "nbytes": 16}]}, "unsupported dtype"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "|O", "offset": 0, "nbytes": 16}]}, "unsupported dtype"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "nope", "offset": 0, "nbytes": 16}]}, "bad dtype"),
         ({"entries": [{"name": "a", "shape": [3], "dtype": "<f8", "offset": 0, "nbytes": 16}]}, "is not 16 bytes"),
         ({"entries": [{"name": "a", "shape": [2], "dtype": "<f8", "offset": 8, "nbytes": 16}]}, "past end")],
    )
    def test_bad_header_schema(self, tmp_path, header, message):
        with pytest.raises(ck.CheckpointError, match=message):
            ck.load_checkpoint(self.with_header(tmp_path / "bad.ckpt", header))

    def test_schema_accepts_valid_hand_written_header(self, tmp_path):
        header = {"entries": [{"name": "a", "shape": [2], "dtype": "<f8", "offset": 0, "nbytes": 16}],
                  "spec": self.SPEC, "transform": "none"}
        loaded = ck.load_checkpoint(self.with_header(tmp_path / "ok.ckpt", header))
        np.testing.assert_array_equal(loaded["a"], [0.0, 0.0])

    def test_spec_and_transform_roundtrip(self, tmp_path):
        spec = model_record(self.SPEC, "spec")
        path = tmp_path / "spec.ckpt"
        ck.save_checkpoint(path, {"w": np.ones(2)}, spec=spec, transform="standard")
        loaded = ck.load_checkpoint(path)
        assert loaded.spec == spec and loaded.transform == "standard"
        self.with_header(path, {"entries": [], "transform": "standard"})
        with pytest.raises(ck.CheckpointError, match=re.escape(f"checkpoint {path} records no model spec")):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["spec", "transform"])
    def test_header_without_spec_or_transform_names_file_and_key(self, tmp_path, key):
        header = {"entries": [], "spec": self.SPEC, "transform": "none"}
        del header[key]
        path = self.with_header(tmp_path / "part.ckpt", header)
        with pytest.raises(ck.CheckpointError, match=re.escape(f"checkpoint {path} records no model {key}")):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize(
        "extra, message",
        [({"spec": [1]}, "spec: expected an object"),
         ({"spec": {**SPEC, "heads": "2"}}, "spec.heads: expected an integer"),
         ({"spec": {k: v for k, v in SPEC.items() if k != "heads"}}, "spec.heads: required"),
         ({"spec": {**SPEC, "depth": 3}}, "spec.depth: unknown"),
         ({"spec": {**SPEC, "heads": 3}}, "heads"),
         ({"spec": {**SPEC, "lr": float("nan")}}, "spec.lr: expected a finite number"),
         ({"transform": "log"}, "transform 'log' is not one of"),
         ({"transform": None}, "transform None is not one of")],
    )
    def test_bad_spec_or_transform(self, tmp_path, extra, message):
        header = {"entries": [], "spec": self.SPEC, "transform": "none", **extra}
        with pytest.raises(ck.CheckpointError, match=re.escape(message)):
            ck.load_checkpoint(self.with_header(tmp_path / "bad.ckpt", header))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_checkpoint_with_spec_loads_or_raises_checkpoint_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "valid.ckpt"
            spec = model_record(self.SPEC, "spec")
            ck.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)}, spec=spec, transform="quantile_normal")
            raw = bytearray(path.read_bytes())
            header_end = 12 + int.from_bytes(raw[4:12], "little")
            for at, bits in data.draw(st.lists(st.tuples(st.integers(12, header_end - 1), st.integers(1, 255)), max_size=3)):
                raw[at] ^= bits
            path.write_bytes(bytes(raw))
            try:
                loaded = ck.load_checkpoint(path)
            except ck.CheckpointError:
                return
            assert loaded.spec is None or isinstance(loaded.spec, nn.ModelSpec)
            assert loaded.transform is None or loaded.transform in ("none", "standard", "quantile_normal")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_checkpoint_loads_or_raises_checkpoint_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "valid.ckpt"
            self.save(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.arange(3, dtype=np.int32), "s": np.uint8(7)})
            raw = bytearray(path.read_bytes())
            for at, bits in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), max_size=4)):
                raw[at] ^= bits
            path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)))]))
            try:
                loaded = ck.load_checkpoint(path)
            except ck.CheckpointError:
                return
            assert all(isinstance(v, np.ndarray) and v.dtype.kind in "fiu" for v in loaded.values())
