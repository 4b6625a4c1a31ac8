"""Tests for the recurrent kernel and its reference cells."""

import contextlib
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from syntag import autodiff as ad
from syntag import recurrent as rc
from syntag.errors import ContractError, DimensionError
from syntag.gradcheck import check_gradients


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _zero_params(input_dim, hidden, graph_dim=None):
    p = rc.LstmParams(input_dim, hidden, np.random.default_rng(0), graph_dim)
    for t in p.parameters().values():
        t.data[...] = 0.0
    return p


def _blocks(p):
    """Each (stream, gate) block as a plain array, keyed like "x_f"."""
    return {f"{stream}_{gate}": p.stacked(stream).data[..., p.columns(stream, gate)]
            for stream in ("x", "h", "b") + (() if p.graph_dim is None else ("g",))
            for gate in p.feeds(stream)}


def scalar_step(x, g, h, c, p):
    """Independent elementwise transcription of one cell update: the
    graph-gated cell when ``p.graph_dim`` is set, else the plain one."""
    d = _blocks(p)
    inputs = {"x": x, "h": h, "g": g}

    def lin(gate, streams):
        out = np.zeros(p.hidden)
        for k in range(p.hidden):
            acc = d[f"b_{gate}"][k]
            for stream in streams:
                vec, mat = inputs[stream], d[f"{stream}_{gate}"]
                for i in range(len(vec)):
                    acc += vec[i] * mat[i, k]
            out[k] = acc
        return out

    graph = "" if p.graph_dim is None else "g"
    f = _sigmoid(lin("f", "xh" + graph))
    o = _sigmoid(lin("o", "xh" + graph))
    i = _sigmoid(lin("i", "xh"))
    c_new = f * c + i * np.tanh(lin("c", "xh"))
    if graph:
        m = _sigmoid(lin("m", "gh"))
        c_new = c_new + m * np.tanh(lin("s", "gh"))
    return o * np.tanh(c_new), c_new


class TestGraphStep:
    def test_zero_params_zero_state(self):
        p = _zero_params(3, 4, graph_dim=2)
        state = reference.zero_state(1, 4)
        trace = {}
        out = reference.step(ad.constant(np.ones((1, 3))),
                             ad.constant(np.ones((1, 2))), state, p, trace)
        np.testing.assert_array_equal(out.h.data, 0.0)
        np.testing.assert_array_equal(out.c.data, 0.0)
        for gate in ("f", "i", "m", "o"):
            np.testing.assert_array_equal(trace[gate], 0.5)

    def test_zero_params_carries_half_of_previous_cell(self):
        p = _zero_params(3, 4, graph_dim=2)
        v = np.array([[0.4, -1.0, 2.0, 0.0]])
        state = reference.LstmState(ad.constant(np.zeros((1, 4))), ad.constant(v))
        out = reference.step(ad.constant(np.zeros((1, 3))),
                             ad.constant(np.zeros((1, 2))), state, p)
        np.testing.assert_allclose(out.c.data, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(out.h.data, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rc.LstmParams(3, 4, rng, graph_dim=2)
            x = rng.uniform(-2, 2, (1, 3))
            g = rng.uniform(-2, 2, (1, 2))
            h0 = rng.uniform(-1, 1, (1, 4))
            c0 = rng.uniform(-2, 2, (1, 4))
            state = reference.LstmState(ad.constant(h0), ad.constant(c0))
            out = reference.step(ad.constant(x), ad.constant(g), state, p)
            h_ref, c_ref = scalar_step(x[0], g[0], h0[0], c0[0], p)
            np.testing.assert_allclose(out.h.data[0], h_ref, atol=1e-12)
            np.testing.assert_allclose(out.c.data[0], c_ref, atol=1e-12)

    def test_dimension_error_names_shape(self):
        p = _zero_params(3, 4, graph_dim=2)
        with pytest.raises(DimensionError):
            reference.step(ad.constant(np.ones((1, 5))),
                           ad.constant(np.ones((1, 2))), reference.zero_state(1, 4), p)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        p = rc.LstmParams(3, 6, rng, graph_dim=2)
        state = reference.zero_state(2, 6)
        trace = {}
        reference.step(ad.constant(rng.uniform(-2, 2, (2, 3))),
                       ad.constant(rng.uniform(-2, 2, (2, 2))), state, p, trace)
        for gate in ("f", "i", "m", "o"):
            assert np.all(trace[gate] > 0.0) and np.all(trace[gate] < 1.0)

    def test_graph_path_zeroed_reduces_to_augmented_plain_form(self):
        rng = np.random.default_rng(5)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        p.W_g.data[...] = 0.0
        x = rng.uniform(-1, 1, (1, 3))
        h0 = rng.uniform(-1, 1, (1, 4))
        c0 = rng.uniform(-1, 1, (1, 4))
        state = reference.LstmState(ad.constant(h0), ad.constant(c0))
        out = reference.step(ad.constant(x), ad.constant(np.zeros((1, 2))), state, p)
        d = _blocks(p)
        f = _sigmoid(x @ d["x_f"] + h0 @ d["h_f"] + d["b_f"])
        i = _sigmoid(x @ d["x_i"] + h0 @ d["h_i"] + d["b_i"])
        cand = np.tanh(x @ d["x_c"] + h0 @ d["h_c"] + d["b_c"])
        m = _sigmoid(h0 @ d["h_m"] + d["b_m"])
        s = np.tanh(h0 @ d["h_s"] + d["b_s"])
        np.testing.assert_allclose(out.c.data, f * c0 + i * cand + m * s, atol=1e-14)


class TestPlainStep:
    def test_zero_params(self):
        p = _zero_params(3, 4)
        v = np.array([[1.0, 2.0, -1.0, 0.5]])
        state = reference.LstmState(ad.constant(np.zeros((1, 4))), ad.constant(v))
        out = reference.step(ad.constant(np.zeros((1, 3))), None, state, p)
        np.testing.assert_allclose(out.c.data, 0.5 * v, atol=1e-15)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(6)
        p = rc.LstmParams(3, 4, rng)
        x = rng.uniform(-2, 2, (1, 3))
        h0 = rng.uniform(-1, 1, (1, 4))
        c0 = rng.uniform(-2, 2, (1, 4))
        state = reference.LstmState(ad.constant(h0), ad.constant(c0))
        out = reference.step(ad.constant(x), None, state, p)
        h_ref, c_ref = scalar_step(x[0], None, h0[0], c0[0], p)
        np.testing.assert_allclose(out.h.data[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(out.c.data[0], c_ref, atol=1e-12)


class TestBidirectional:
    def test_single_position(self):
        rng = np.random.default_rng(7)
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-1, 1, (1, 3)))
        g = ad.constant(rng.uniform(-1, 1, (1, 2)))
        out = rc.bidirectional(x, g, [1], fwd, bwd)
        assert out.data.shape == (1, 8)
        sf = reference.step(x, g, reference.zero_state(1, 4), fwd)
        sb = reference.step(x, g, reference.zero_state(1, 4), bwd)
        np.testing.assert_allclose(out.data[0, :4], sf.h.data[0], atol=1e-14)
        np.testing.assert_allclose(out.data[0, 4:], sb.h.data[0], atol=1e-14)

    def test_zero_params_zero_output(self):
        fwd = _zero_params(3, 4, graph_dim=2)
        bwd = _zero_params(3, 4, graph_dim=2)
        x = ad.constant(np.random.default_rng(0).uniform(-1, 1, (5, 3)))
        g = ad.constant(np.random.default_rng(1).uniform(-1, 1, (5, 2)))
        out = rc.bidirectional(x, g, [5], fwd, bwd)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(8)
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = rng.uniform(-1, 1, (6, 3))
        g = rng.uniform(-1, 1, (6, 2))
        out = rc.bidirectional(ad.constant(x), ad.constant(g), [6], fwd, bwd).data
        rev = rc.bidirectional(ad.constant(x[::-1].copy()),
                               ad.constant(g[::-1].copy()), [6], bwd, fwd).data
        np.testing.assert_allclose(rev[::-1, 4:], out[:, :4], atol=1e-12)
        np.testing.assert_allclose(rev[::-1, :4], out[:, 4:], atol=1e-12)

    def test_batched_run_matches_single_runs(self):
        rng = np.random.default_rng(9)
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        lengths = [3, 5, 1]
        n_max = max(lengths)
        xs = [rng.uniform(-1, 1, (n, 3)) for n in lengths]
        gs = [rng.uniform(-1, 1, (n, 2)) for n in lengths]
        x_flat = np.zeros((len(lengths) * n_max, 3))
        g_flat = np.zeros((len(lengths) * n_max, 2))
        for b, n in enumerate(lengths):
            x_flat[b * n_max: b * n_max + n] = xs[b]
            g_flat[b * n_max: b * n_max + n] = gs[b]
        batched = rc.run_graph_bidirectional_batch(
            ad.constant(x_flat), ad.constant(g_flat), lengths, fwd, bwd).data
        for b, n in enumerate(lengths):
            single = rc.bidirectional(ad.constant(xs[b]), ad.constant(gs[b]),
                                      [n], fwd, bwd).data
            np.testing.assert_allclose(
                batched[b * n_max: b * n_max + n], single, atol=1e-12)

    def test_trace_extraction_shapes(self):
        rng = np.random.default_rng(10)
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        gates = {}
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))
        rc.bidirectional(x, g, [4], fwd, bwd, gates=gates)
        assert sorted(gates) == ["f", "i", "m", "o"]
        (m,) = gates["m"]
        assert m.shape == (4, 2, 4)
        assert 0.0 < m.mean() < 1.0


class TestExpansionIdentity:
    def test_first_position_is_plain_candidate_mix(self):
        rng = np.random.default_rng(11)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-1, 1, (3, 3)))
        g = ad.constant(rng.uniform(-1, 1, (3, 2)))
        c0 = reference.expand_cell_state(x, g, p, 0)
        ref = reference.cell_states(x, g, p)[0]
        np.testing.assert_allclose(c0, ref, atol=1e-12)

    def test_zero_params_expansion_is_zero(self):
        p = _zero_params(3, 4, graph_dim=2)
        rng = np.random.default_rng(12)
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))
        for t in range(4):
            np.testing.assert_array_equal(
                reference.expand_cell_state(x, g, p, t), 0.0)

    def test_expansion_matches_recurrence_many_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            hid = int(rng.integers(2, 9))
            dx = int(rng.integers(1, 5))
            dg = int(rng.integers(1, 5))
            p = rc.LstmParams(dx, hid, rng, graph_dim=dg)
            x = ad.constant(rng.uniform(-2, 2, (n, dx)))
            g = ad.constant(rng.uniform(-2, 2, (n, dg)))
            ref = reference.cell_states(x, g, p)
            for t in range(n):
                got = reference.expand_cell_state(x, g, p, t)
                assert np.max(np.abs(got - ref[t])) < 1e-10

    def test_expansion_weights_bounded(self):
        rng = np.random.default_rng(14)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-2, 2, (6, 3)))
        g = ad.constant(rng.uniform(-2, 2, (6, 2)))
        _, a_w, q_w = reference.expand_cell_state(x, g, p, 5, return_weights=True)
        for w in a_w + q_w:
            assert np.all(w.data > 0.0) and np.all(w.data < 1.0)


class TestCellGradients:
    def test_graph_cell_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))

        def loss():
            return reference.total(rc.bidirectional(x, g, [4], p, p))

        report = check_gradients(loss, p.parameters())
        assert report.max_rel_err < 1e-4, report.per_param


LENGTHS = [5, 2, 3]


def _padded(rng, dim, lengths=LENGTHS):
    """Sentence-major rows; the padded rows hold noise that must not leak."""
    return ad.Tensor(rng.uniform(-1, 1, (len(lengths) * max(lengths), dim)),
                     requires_grad=True)


def _kernel_case(graph, seed, lengths=LENGTHS):
    rng = np.random.default_rng(seed)
    if graph:
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        g = _padded(rng, 2, lengths)
    else:
        fwd = rc.LstmParams(3, 4, rng)
        bwd = rc.LstmParams(3, 4, rng)
        g = None
    return fwd, bwd, _padded(rng, 3, lengths), g, rng


def _run(x, g, fwd, bwd, lengths=LENGTHS, gates=None):
    return rc.bidirectional(x, g, lengths, fwd, bwd, gates=gates)


def _step_chain(x, g, fwd, bwd, lengths=LENGTHS):
    """The kernel's job done by the reference steps, one sentence at a time.

    Returns the (n, 2H) outputs and the per-sentence gate traces.
    """
    n_max = max(lengths)
    outputs, traces = [], []
    for b, n in enumerate(lengths):
        halves, gates = [], {}
        for side, p in enumerate((fwd, bwd)):
            order = range(n - 1, -1, -1) if side else range(n)
            state = reference.zero_state(1, p.hidden)
            hs = [None] * n
            for t in order:
                idx = np.array([b * n_max + t])
                trace = {}
                state = reference.step(ad.rows(x, idx),
                                       None if g is None else ad.rows(g, idx),
                                       state, p, trace)
                hs[t] = state.h
                for gate, value in trace.items():
                    gates.setdefault(gate, np.empty((n, 2, p.hidden)))[t, side] = value[0]
            halves.append(ad.concat(hs, axis=0))
        outputs.append(ad.concat(halves, axis=1))
        traces.append(gates)
    return outputs, traces


def _tracked(fwd, bwd, x, g):
    params = {f"{side}.{name}": t for side, p in (("fwd", fwd), ("bwd", bwd))
              for name, t in p.parameters().items()}
    return dict(params, x=x, **({} if g is None else {"g": g}))


def _grads(tracked, loss_fn):
    ad.clear_grads(tracked)
    with ad.Tape():
        loss = loss_fn()
        ad.backward(loss)
    return {name: t.grad.copy() for name, t in tracked.items()}


def _check_against_chain(graph, lengths, seed):
    """The kernel's outputs, gates, final states and gradients against
    ``_step_chain``: values to 1e-14, gradients to 1e-13."""
    fwd, bwd, x, g, rng = _kernel_case(graph, seed, lengths)
    n_max, hidden = max(lengths), fwd.hidden
    weights = [rng.normal(size=(n, 2 * hidden)) for n in lengths]
    final_weights = rng.normal(size=(len(lengths), 2 * hidden))
    tracked = _tracked(fwd, bwd, x, g)

    gates = {}
    out = _run(x, g, fwd, bwd, lengths, gates=gates)
    final = rc.bidirectional(x, g, lengths, fwd, bwd, final=True)
    chain, chain_traces = _step_chain(x, g, fwd, bwd, lengths)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(out.data[b * n_max: b * n_max + n],
                                   chain[b].data, rtol=0, atol=1e-14)
        np.testing.assert_allclose(final.data[b, :hidden], chain[b].data[n - 1, :hidden],
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(final.data[b, hidden:], chain[b].data[0, hidden:],
                                   rtol=0, atol=1e-14)
    # One (tokens, 2, H) array per gate: the sentences' real positions
    # in row order.
    for want in chain_traces:
        assert sorted(gates) == sorted(want)
    for gate, (got,) in gates.items():
        want = np.concatenate([trace[gate] for trace in chain_traces])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def kernel_loss():
        out = _run(x, g, fwd, bwd, lengths)
        final = rc.bidirectional(x, g, lengths, fwd, bwd, final=True)
        return sum((reference.total(
            ad.rows(out, np.arange(b * n_max, b * n_max + n)) * ad.constant(w))
                    for b, (n, w) in enumerate(zip(lengths, weights))),
                   reference.total(final * ad.constant(final_weights)))

    # The final states are the chain's row n - 1 (forward) and row 0
    # (reverse), so their weights fold into those rows.
    chain_weights = [w.copy() for w in weights]
    for w, n, fw in zip(chain_weights, lengths, final_weights):
        w[n - 1, :hidden] += fw[:hidden]
        w[0, hidden:] += fw[hidden:]

    def chain_loss():
        outs, _ = _step_chain(x, g, fwd, bwd, lengths)
        terms = [reference.total(o * ad.constant(w))
                 for o, w in zip(outs, chain_weights)]
        return sum(terms[1:], terms[0])

    got, want = _grads(tracked, kernel_loss), _grads(tracked, chain_loss)
    for name in tracked:
        np.testing.assert_allclose(got[name], want[name], rtol=0,
                                   atol=1e-13, err_msg=name)


@contextlib.contextmanager
def _directions_watched(seen, fail=None, here_fails=False):
    """Patch ``rc._direction`` to note in ``seen`` each (stage, on the
    calling thread) of every direction's forward and backward. In ``fail``,
    a stage, the calling thread's direction raises RuntimeError if
    ``here_fails``, else the other thread's; the side that does not raise
    notes ("done", stage) a moment later."""
    real = rc._direction

    def note(stage, run):
        here = threading.current_thread() is threading.main_thread()
        seen.append((stage, here))
        if stage == fail and here == here_fails:
            raise RuntimeError(f"{stage} failed on thread {here}")
        result = run()
        if stage == fail:
            time.sleep(0.05)
            seen.append(("done", stage))
        return result

    def spy(*args):
        bk = note("forward", lambda: real(*args))
        if bk is None:
            return None
        return lambda grad: note("backward", lambda: bk(grad))

    with mock.patch.object(rc, "_direction", spy):
        yield


def _concurrency(threshold, spare_core=True):
    """Patch the kernel's work cut and whether a second CPU is available."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(rc, "_CONCURRENT_WORK", threshold))
    stack.enter_context(mock.patch.object(rc, "_spare_core", lambda: spare_core))
    return stack


def _everything(graph, lengths, seed):
    """Outputs, ``final`` states, gates and every gradient of one case."""
    fwd, bwd, x, g, rng = _kernel_case(graph, seed, lengths)
    width = 2 * fwd.hidden
    weights = ad.constant(rng.normal(size=(x.data.shape[0], width)))
    final_weights = ad.constant(rng.normal(size=(len(lengths), width)))
    gates = {}
    got = {"out": _run(x, g, fwd, bwd, lengths, gates=gates).data,
           "final": rc.bidirectional(x, g, lengths, fwd, bwd, final=True).data}
    got.update((f"gate {name}", arrays[0]) for name, arrays in gates.items())

    def loss():
        final = rc.bidirectional(x, g, lengths, fwd, bwd, final=True)
        return (reference.total(_run(x, g, fwd, bwd, lengths) * weights)
                + reference.total(final * final_weights))

    got.update(_grads(_tracked(fwd, bwd, x, g), loss))
    return got


class TestKernel:
    @pytest.mark.parametrize("lengths", [LENGTHS, [14, 3, 20, 9, 1, 17, 12, 5,
                                                   20, 8, 16, 11, 13]],
                             ids=["short", "many-blocks"])
    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_concurrent_directions_are_bitwise_inline(self, graph, lengths):
        runs = []
        # Concurrent, inline by the work cut, inline on one CPU.
        for threshold, spare_core, here in ((0, True, False), (float("inf"), True, True),
                                            (0, False, True)):
            seen = []
            with _concurrency(threshold, spare_core), _directions_watched(seen):
                runs.append(_everything(graph, lengths, seed=37))
            # Four calls, two of them taped; each runs the forward direction
            # on this thread, and the reverse one only when inline.
            assert seen.count(("forward", True)) == (8 if here else 4)
            assert seen.count(("backward", True)) == (4 if here else 2)
            assert len(seen) == 12
        concurrent, *inline = runs
        for other in inline:
            assert sorted(concurrent) == sorted(other)
            for name, value in other.items():
                np.testing.assert_array_equal(concurrent[name], value, err_msg=name)

    def test_a_spare_core_needs_two_cpus(self):
        for cpus, spare in (({0}, False), ({0, 3}, True)):
            with mock.patch.object(rc.os, "sched_getaffinity", lambda pid: cpus,
                                   create=True):
                assert rc._spare_core() is spare

    @pytest.mark.parametrize("here_fails", [False, True], ids=["reverse", "calling"])
    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_errors_propagate_after_both_directions_end(self, stage, here_fails):
        fwd, bwd, x, g, rng = _kernel_case(True, seed=38)
        tracked = _tracked(fwd, bwd, x, g)
        weights = ad.constant(rng.normal(size=(x.data.shape[0], 8)))

        def loss():
            return reference.total(_run(x, g, fwd, bwd) * weights)

        with _concurrency(0):
            want = _grads(tracked, loss)
            seen = []
            with _directions_watched(seen, stage, here_fails), \
                    pytest.raises(RuntimeError, match=f"{stage} failed"):
                _grads(tracked, loss)
            assert ("done", stage) in seen  # the other direction had ended
            got = _grads(tracked, loss)  # the reverse thread still serves
        for name, value in want.items():
            np.testing.assert_array_equal(got[name], value, err_msg=name)

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_matches_chain_of_reference_steps(self, graph):
        _check_against_chain(graph, LENGTHS, seed=21)

    @settings(max_examples=30, deadline=None)
    @given(graph=st.booleans(), seed=st.integers(0, 2**16),
           lengths=st.one_of(
               st.lists(st.integers(1, 5), min_size=1, max_size=5),
               st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
                   lambda nb: [nb[0]] * nb[1])))
    def test_packed_kernel_matches_chain_on_any_lengths(self, graph, seed, lengths):
        _check_against_chain(graph, lengths, seed)
        # Blocks of one step, and blocks that end inside or at a step.
        for budget in (1, 2, 3):
            with mock.patch.object(rc, "_BLOCK_ROWS", budget):
                _check_against_chain(graph, lengths, seed)

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_many_projection_blocks(self, graph):
        # 149 packed rows: more than the default block budget holds.
        lengths = [14, 3, 20, 9, 1, 17, 12, 5, 20, 8, 16, 11, 13]
        assert rc._BLOCK_ROWS < sum(lengths) < 2 * rc._BLOCK_ROWS
        _check_against_chain(graph, lengths, seed=29)

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_padded_batch_gradients_match_finite_differences(self, graph):
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=22)
        # Padded rows carry weight too: they are constant zeros, so their
        # weight must reach nothing.
        weights = ad.constant(rng.normal(size=(x.data.shape[0], 8)))

        def loss():
            return reference.total(_run(x, g, fwd, bwd) * weights)

        report = check_gradients(loss, _tracked(fwd, bwd, x, g))
        assert report.max_rel_err < 1e-4, report.per_param

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_nan_in_padded_rows_reaches_nothing(self, graph):
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=27)
        n_max = max(LENGTHS)
        padded = np.arange(n_max)[None, :] >= np.array(LENGTHS)[:, None]
        for t in (x, g) if g is not None else (x,):
            t.data[padded.ravel()] = np.nan
        tracked = _tracked(fwd, bwd, x, g)
        weights = ad.constant(rng.normal(size=(x.data.shape[0], 8)))
        final_weights = ad.constant(rng.normal(size=(len(LENGTHS), 8)))
        gates = {}
        assert np.isfinite(_run(x, g, fwd, bwd, gates=gates).data).all()
        assert all(np.isfinite(a).all() for arrays in gates.values() for a in arrays)

        def loss():
            final = rc.bidirectional(x, g, LENGTHS, fwd, bwd, final=True)
            return (reference.total(_run(x, g, fwd, bwd) * weights)
                    + reference.total(final * final_weights))

        for name, grad in _grads(tracked, loss).items():
            assert np.isfinite(grad).all(), name

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_padded_output_rows_are_zero_with_zero_gradient(self, graph):
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=28)
        padded = (np.arange(max(LENGTHS))[None, :]
                  >= np.array(LENGTHS)[:, None]).ravel()
        assert padded.any()
        np.testing.assert_array_equal(_run(x, g, fwd, bwd).data[padded], 0.0)
        weights = rng.normal(size=(x.data.shape[0], 8)) * padded[:, None]
        tracked = _tracked(fwd, bwd, x, g)
        grads = _grads(tracked, lambda: reference.total(
            _run(x, g, fwd, bwd) * ad.constant(weights)))
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, 0.0, err_msg=name)

    @pytest.mark.parametrize("threshold", [1 << 62, 0], ids=["inline", "concurrent"])
    @pytest.mark.parametrize("final", [False, True], ids=["sequence", "final"])
    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_stream_gradients_sum_both_directions_bitwise(self, graph, final,
                                                          threshold):
        # Each stream's gradient is bitwise b + f of the two directions'
        # packed rows scattered into padded zeros, as separate arrays.
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=29)
        streams = (x,) if g is None else (x, g)
        packed, real = {}, rc._direction

        def spy(*args):
            bk = real(*args)

            def watched(grad):
                out = bk(grad)
                packed[args[2] is bwd] = (args[3], out[:len(streams)])
                return out
            return watched

        weights = ad.constant(rng.normal(size=(len(LENGTHS) if final
                                               else x.data.shape[0], 8)))
        with mock.patch.object(rc, "_direction", spy), _concurrency(threshold):
            with ad.Tape():
                loss = reference.total(rc.bidirectional(
                    x, g, LENGTHS, fwd, bwd, final=final) * weights)
            ad.backward(loss)
        padded = (np.arange(max(LENGTHS))[None, :]
                  >= np.array(LENGTHS)[:, None]).ravel()
        for k, t in enumerate(streams):
            b, f = (np.zeros(t.data.shape) for _ in range(2))
            for side, d in ((True, b), (False, f)):
                src, grads = packed[side]
                d[src] = grads[k]
            assert t.grad.tobytes() == (b + f).tobytes()
            assert not t.grad[padded].any() and not np.signbit(t.grad[padded]).any()

    @pytest.mark.parametrize("threshold", [1 << 62, 0], ids=["inline", "concurrent"])
    def test_a_direction_releases_its_caches_once_its_bptt_returns(self, threshold):
        # The reverse BPTT waits (up to 10 s) for the forward one's caches to
        # die; inline they must be dead already.
        fwd, bwd, x, g, rng = _kernel_case(True, seed=38)
        real, caches, dead = rc._direction, {}, []

        def spy(*args):
            bk, reverse = real(*args), args[2] is bwd
            caches[reverse] = [weakref.ref(cell.cell_contents) for name, cell in
                               zip(bk.__code__.co_freevars, bk.__closure__)
                               if name in ("acts", "cells", "tanh_cells", "seq")]

            def watched(grad):
                if reverse:
                    deadline = time.monotonic() + (10.0 if threshold == 0 else 0.0)
                    while (any(ref() is not None for ref in caches[False])
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                    dead.append([ref() is None for ref in caches[False]])
                return bk(grad)
            return watched

        weights = ad.constant(rng.normal(size=(x.data.shape[0], 8)))
        with mock.patch.object(rc, "_direction", spy), _concurrency(threshold):
            with ad.Tape():
                loss = reference.total(_run(x, g, fwd, bwd) * weights)
            assert all(ref() is not None for ref in caches[False])
            ad.backward(loss)
        assert dead == [[True] * 4]

    def test_final_state_gradients_match_finite_differences(self):
        fwd, bwd, x, _, rng = _kernel_case(False, seed=23)
        weights = ad.constant(rng.normal(size=(len(LENGTHS), 8)))

        def loss():
            return reference.total(
                rc.bidirectional(x, None, LENGTHS, fwd, bwd, final=True) * weights)

        report = check_gradients(loss, _tracked(fwd, bwd, x, None))
        assert report.max_rel_err < 1e-4, report.per_param

    def test_final_states_are_last_real_positions(self):
        fwd, bwd, x, _, _ = _kernel_case(False, seed=24)
        n_max = max(LENGTHS)
        seq = _run(x, None, fwd, bwd).data.reshape(len(LENGTHS), n_max, 8)
        final = rc.bidirectional(x, None, LENGTHS, fwd, bwd, final=True).data
        for b, n in enumerate(LENGTHS):
            np.testing.assert_array_equal(final[b, :4], seq[b, n - 1, :4])
            np.testing.assert_array_equal(final[b, 4:], seq[b, 0, 4:])

    def test_one_tape_node_per_call(self):
        fwd, bwd, x, g, _ = _kernel_case(True, seed=25)
        with ad.Tape() as tape:
            out = _run(x, g, fwd, bwd)
        # both directions, over x, g and both sides' parameters
        assert len(tape._nodes) == 1
        assert tape._nodes[0][1] == (x, g, *fwd.parameters().values(),
                                     *bwd.parameters().values())
        assert out.requires_grad
        assert not _run(x, g, fwd, bwd).requires_grad  # no tape, no record

    def test_graph_stream_needs_graph_params(self):
        fwd, bwd, x, g, _ = _kernel_case(False, seed=26)
        with pytest.raises(ContractError):
            rc.bidirectional(x, ad.constant(np.zeros((15, 2))), LENGTHS, fwd, bwd)
        gfwd, gbwd, _, g, _ = _kernel_case(True, seed=26)
        with pytest.raises(ContractError):
            rc.bidirectional(x, None, LENGTHS, gfwd, gbwd)
        with pytest.raises(DimensionError):
            rc.bidirectional(ad.constant(np.zeros((15, 5))), g, LENGTHS, gfwd, gbwd)

    def test_rows_not_a_multiple_of_the_batch(self):
        fwd, bwd, x, _, _ = _kernel_case(False, seed=30)
        with pytest.raises(DimensionError, match=r"14 rows, expected .* 3 \* 5"):
            rc.bidirectional(ad.constant(x.data[:14]), None, LENGTHS, fwd, bwd)

    def test_rows_beyond_the_longest_sentence(self):
        # 10 rows over two sentences would be n_max 5, a step no row is live at.
        fwd, bwd, _, _, rng = _kernel_case(False, seed=31)
        with pytest.raises(DimensionError, match=r"10 rows, expected .* 2 \* 4"):
            rc.bidirectional(ad.constant(rng.normal(size=(10, 3))), None, [3, 4],
                             fwd, bwd)

    def test_graph_rows_must_match_token_rows(self):
        fwd, bwd, x, g, _ = _kernel_case(True, seed=32)
        with pytest.raises(DimensionError, match="graph input has 10 rows"):
            rc.bidirectional(x, ad.constant(g.data[:10]), LENGTHS, fwd, bwd)

    def test_empty_lengths(self):
        fwd, bwd, _, _, _ = _kernel_case(False, seed=33)
        with pytest.raises(DimensionError, match="at least one sentence"):
            rc.bidirectional(ad.constant(np.zeros((0, 3))), None, [], fwd, bwd)

    def test_all_zero_lengths_under_a_tape(self):
        fwd, bwd, _, _, _ = _kernel_case(False, seed=34)
        x = ad.Tensor(np.zeros((0, 3)), requires_grad=True)
        with ad.Tape(), pytest.raises(ContractError, match="longest needs a token"):
            rc.bidirectional(x, None, [0, 0], fwd, bwd)

    def test_negative_length(self):
        fwd, bwd, x, _, _ = _kernel_case(False, seed=35)
        with pytest.raises(ContractError, match="none may be negative"):
            rc.bidirectional(x, None, [5, -1, 3], fwd, bwd)
