"""Tests for the reverse-mode autodiff core.

Every primitive is checked against central finite differences on random
inputs in [-2, 2]; the structural rules of the tape (scalar-only backward,
single consumption, no gradients into untracked tensors) are exercised
directly.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from syntag import autodiff as ad
from syntag.errors import ContractError, DimensionError, StateError
from syntag.gradcheck import check_gradients


def _rand(rng, shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def _check(loss_fn, params, tol=1e-6):
    report = check_gradients(loss_fn, params, step=1e-6, floor=1.0)
    assert report.max_rel_err < tol, report.per_param


class TestPrimitiveGradients:
    def test_add_mul_with_broadcasting(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = ad.Tensor(_rand(rng, (3, 4)), requires_grad=True)
            b = ad.Tensor(_rand(rng, (4,)), requires_grad=True)
            c = ad.Tensor(_rand(rng, (3, 1)), requires_grad=True)
            w = ad.constant(_rand(rng, (3, 4)))

            def loss():
                return reference.total(w * ((a + b) * c + b * -0.5))

            _check(loss, {"a": a, "b": b, "c": c})

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(_rand(rng, (3, 5)), requires_grad=True)
        b = ad.Tensor(_rand(rng, (5, 2)), requires_grad=True)
        w = ad.constant(_rand(rng, (3, 2)))

        def loss():
            return reference.total(w * ad.matmul(a, b))

        _check(loss, {"a": a, "b": b})

    def test_bmm_const(self):
        # Two blocks: (3, 4) matrices on 4-row blocks of the flat rows.
        rng = np.random.default_rng(2)
        mats = _rand(rng, (2, 3, 4))
        x = ad.Tensor(_rand(rng, (8, 3)), requires_grad=True)
        w = ad.constant(_rand(rng, (6, 3)))
        np.testing.assert_array_equal(
            ad.bmm_const(mats, x).data[3:], mats[1] @ x.data[4:])

        def loss():
            return reference.total(w * ad.bmm_const(mats, x))

        _check(loss, {"x": x})

    @pytest.mark.parametrize("op", [reference.sigmoid, reference.tanh, ad.relu])
    def test_elementwise(self, op):
        rng = np.random.default_rng(3)
        x = ad.Tensor(_rand(rng, (4, 3)), requires_grad=True)
        w = ad.constant(_rand(rng, (4, 3)))

        def loss():
            return reference.total(w * op(x))

        _check(loss, {"x": x})

    def test_concat(self):
        rng = np.random.default_rng(5)
        a = ad.Tensor(_rand(rng, (2, 3)), requires_grad=True)
        b = ad.Tensor(_rand(rng, (2, 2)), requires_grad=True)
        w = ad.constant(_rand(rng, (2, 5)))

        def loss():
            return reference.total(w * ad.concat([a, b], axis=1))

        _check(loss, {"a": a, "b": b})

    def test_rows_gather_accumulates_repeats(self):
        rng = np.random.default_rng(10)
        table = ad.Tensor(_rand(rng, (6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        w = ad.constant(_rand(rng, (4, 3)))

        def loss():
            return reference.total(w * ad.rows(table, idx))

        _check(loss, {"table": table})
        ad.clear_grads({"t": table})
        with ad.Tape():
            val = loss()
        ad.backward(val)
        # untouched rows get zero gradient, row 2 gets both contributions
        assert np.all(table.grad[1] == 0.0)
        np.testing.assert_allclose(table.grad[2], w.data[1] + w.data[2])

    @settings(max_examples=60, deadline=None)
    @given(table_rows=st.integers(1, 8), width=st.integers(1, 4),
           idx=st.lists(st.integers(0, 7), max_size=30), seed=st.integers(0, 2**16))
    def test_rows_gradient_is_one_hot_transpose(self, table_rows, width, idx, seed):
        # Indices repeat (30 draws over at most 8 rows) or are empty.
        idx = np.array(idx, dtype=np.intp) % table_rows
        rng = np.random.default_rng(seed)
        table = ad.Tensor(_rand(rng, (table_rows, width)), requires_grad=True)
        g = _rand(rng, (len(idx), width))
        ad.clear_grads({"t": table})
        with ad.Tape():
            val = reference.total(ad.constant(g) * ad.rows(table, idx))
        ad.backward(val)
        onehot = (idx[:, None] == np.arange(table_rows)).astype(float)
        np.testing.assert_allclose(table.grad, onehot.T @ g, rtol=0, atol=1e-12)

    def test_relu_derivative_is_zero_at_zero(self):
        x = ad.Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        with ad.Tape():
            y = reference.total(ad.relu(x))
        ad.backward(y)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestTapeSemantics:
    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape():
            y = x * 2.0
        with pytest.raises(DimensionError):
            ad.backward(y)

    def test_backward_requires_a_tape(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = reference.total(x * 2.0)  # no tape active: nothing recorded
        with pytest.raises(ContractError):
            ad.backward(y)

    def test_tape_consumed_once(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape():
            y = reference.total(x * 2.0)
        ad.backward(y)
        with pytest.raises(StateError):
            ad.backward(y)

    def test_backward_frees_the_step_without_gc(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with ad.Tape() as tape:
                h = reference.tanh(x * 2.0)
                activation = weakref.ref(h.data)
                loss = reference.total(h)
                del h
            ad.backward(loss)
            assert len(tape._nodes) == 3  # the node count outlives backward
            assert activation() is None  # though the tape is still referenced
            with ad.Tape():
                h = reference.tanh(x * 2.0)
                activation = weakref.ref(h.data)
                loss = reference.total(h)
                del h
                ad.backward(loss)
            assert activation() is None
        finally:
            gc.enable()
        with pytest.raises(StateError):
            ad.backward(loss)

    def test_backward_releases_each_node_before_earlier_ones_run(self):
        x = ad.Tensor(np.arange(1.0, 4.0), requires_grad=True)
        outs, caches, ran = [], [], []

        def node(a):
            k, at = len(outs), len(tape._nodes)
            cache = np.full(3, k + 2.0)  # held by the closure alone
            caches.append(weakref.ref(cache))

            def bk(g):
                ran.append(k)
                assert all(n is None for n in tape._nodes[at:])
                for later, out in zip(caches[k + 1:], outs[k + 1:]):
                    assert later() is None and out.grad is None
                return (g * cache,)

            outs.append(ad.record(ad.Tensor(a.data * cache), (a,), bk))
            return outs[-1]

        with ad.Tape() as tape:
            a = node(x)
            node(x)  # no gradient reaches it
            loss = reference.total(node(a) + node(a))
        ad.backward(loss)
        assert ran == [3, 2, 0]
        assert tape._nodes == [None] * 6
        assert all(cache() is None for cache in caches)
        assert all(t.grad is None for t in outs + [loss])
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0 * (4.0 + 5.0)))

    def test_an_output_no_closure_reads_dies_before_backward(self):
        x = ad.Tensor(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
        gc.disable()
        try:
            with ad.Tape() as tape:
                a = ad.add(x, 1.0)  # add's backward reads shapes only
                middle = weakref.ref(a.data)
                loss = reference.total(ad.relu(a))  # relu keeps a bool mask
                del a
            assert middle() is None
            ad.backward(loss)
        finally:
            gc.enable()
        assert len(tape._nodes) == 3
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_no_gradient_into_constants(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        c = ad.constant(np.ones(3))
        with ad.Tape():
            y = reference.total(x * c)
        ad.backward(y)
        assert c.grad is None
        assert x.grad is not None

    def test_mul_forms_no_gradient_for_a_constant(self):
        x = ad.Tensor(np.arange(1.0, 4.0), requires_grad=True)
        mask = ad.constant(np.array([0.0, 2.0, 2.0]))
        for a, b in ((x, mask), (mask, x)):
            with ad.Tape() as tape:
                ad.mul(a, b)
            (out, inputs, bk), = tape._nodes
            grads = bk(np.ones(3))
            assert [g is None for g in grads] == [t is mask for t in inputs]
            np.testing.assert_array_equal(grads[inputs.index(x)], mask.data)

    def test_no_recording_outside_tape(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = reference.total(x * 3.0)
        assert y._tape is None

    def test_shared_subexpression_accumulates(self):
        x = ad.Tensor(np.array(2.0), requires_grad=True)
        with ad.Tape():
            y = x * x
        ad.backward(y)
        np.testing.assert_allclose(x.grad, 4.0)

    def test_gradients_reach_only_used_branches(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        z = ad.Tensor(np.ones(2), requires_grad=True)
        with ad.Tape():
            _unused = z * 5.0
            y = reference.total(x)
        ad.backward(y)
        assert z.grad is None

    def test_float64_everywhere(self):
        x = ad.Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert x.data.dtype == np.float64
        y = x * np.float32(2.0)
        assert y.data.dtype == np.float64


class TestShapeErrors:
    def test_matmul_rejects_bad_inner_dims(self):
        a = ad.Tensor(np.ones((3, 4)))
        b = ad.Tensor(np.ones((5, 2)))
        with pytest.raises(DimensionError) as exc:
            ad.matmul(a, b)
        assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_add_rejects_non_broadcastable(self):
        with pytest.raises(DimensionError) as exc:
            ad.Tensor(np.ones((3, 4))) + ad.Tensor(np.ones((2, 4)))
        assert "(3, 4)" in str(exc.value)

    def test_concat_rejects_mismatched_off_axis(self):
        with pytest.raises(DimensionError):
            ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4)))], axis=1)

    def test_rows_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            ad.rows(ad.Tensor(np.ones((2, 2))), np.array([0, 2]))

    def test_bmm_const_rejects_rows_that_do_not_fill_the_blocks(self):
        with pytest.raises(DimensionError) as exc:
            ad.bmm_const(np.ones((2, 3, 3)), ad.Tensor(np.ones((5, 4))))
        assert "(2, 3, 3)" in str(exc.value) and "(5, 4)" in str(exc.value)
