"""Tests for the graph-gated LSTM cell, the plain LSTM and the expansion oracle."""

import numpy as np
import pytest

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


def scalar_graph_step(x, g, h, c, p):
    """Independent elementwise transcription of the graph-gated update."""
    hid = p.hidden

    def lin(pairs, bias):
        out = np.zeros(hid)
        for k in range(hid):
            acc = bias[k]
            for vec, mat in pairs:
                for i in range(len(vec)):
                    acc += vec[i] * mat[i, k]
            out[k] = acc
        return out

    d = _blocks(p)
    f = _sigmoid(lin([(x, d["x_f"]), (h, d["h_f"]), (g, d["g_f"])], d["b_f"]))
    o = _sigmoid(lin([(x, d["x_o"]), (h, d["h_o"]), (g, d["g_o"])], d["b_o"]))
    i = _sigmoid(lin([(x, d["x_i"]), (h, d["h_i"])], d["b_i"]))
    m = _sigmoid(lin([(g, d["g_m"]), (h, d["h_m"])], d["b_m"]))
    cand_c = np.tanh(lin([(x, d["x_c"]), (h, d["h_c"])], d["b_c"]))
    cand_s = np.tanh(lin([(g, d["g_s"]), (h, d["h_s"])], d["b_s"]))
    c_new = f * c + i * cand_c + m * cand_s
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def scalar_plain_step(x, h, c, p):
    hid = p.hidden

    def lin(pairs, bias):
        out = np.zeros(hid)
        for k in range(hid):
            acc = bias[k]
            for vec, mat in pairs:
                for i in range(len(vec)):
                    acc += vec[i] * mat[i, k]
            out[k] = acc
        return out

    d = _blocks(p)
    f = _sigmoid(lin([(x, d["x_f"]), (h, d["h_f"])], d["b_f"]))
    i = _sigmoid(lin([(x, d["x_i"]), (h, d["h_i"])], d["b_i"]))
    o = _sigmoid(lin([(x, d["x_o"]), (h, d["h_o"])], d["b_o"]))
    cand = np.tanh(lin([(x, d["x_c"]), (h, d["h_c"])], d["b_c"]))
    c_new = f * c + i * cand
    h_new = o * np.tanh(c_new)
    return h_new, c_new


class TestGraphStep:
    def test_zero_params_zero_state(self):
        p = _zero_params(3, 4, graph_dim=2)
        state = rc.zero_state(1, 4)
        trace = {}
        out = rc.graph_step(ad.constant(np.ones((1, 3))),
                            ad.constant(np.ones((1, 2))), state, p, trace)
        np.testing.assert_array_equal(out.h.data, 0.0)
        np.testing.assert_array_equal(out.c.data, 0.0)
        for gate in ("f", "i", "m", "o"):
            np.testing.assert_array_equal(trace[gate], 0.5)

    def test_zero_params_carries_half_of_previous_cell(self):
        p = _zero_params(3, 4, graph_dim=2)
        v = np.array([[0.4, -1.0, 2.0, 0.0]])
        state = rc.LstmState(ad.constant(np.zeros((1, 4))), ad.constant(v))
        out = rc.graph_step(ad.constant(np.zeros((1, 3))),
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
            state = rc.LstmState(ad.constant(h0), ad.constant(c0))
            out = rc.graph_step(ad.constant(x), ad.constant(g), state, p)
            h_ref, c_ref = scalar_graph_step(x[0], g[0], h0[0], c0[0], p)
            np.testing.assert_allclose(out.h.data[0], h_ref, atol=1e-12)
            np.testing.assert_allclose(out.c.data[0], c_ref, atol=1e-12)

    def test_dimension_error_names_shape(self):
        p = _zero_params(3, 4, graph_dim=2)
        with pytest.raises(DimensionError):
            rc.graph_step(ad.constant(np.ones((1, 5))),
                          ad.constant(np.ones((1, 2))), rc.zero_state(1, 4), p)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        p = rc.LstmParams(3, 6, rng, graph_dim=2)
        state = rc.zero_state(2, 6)
        trace = {}
        rc.graph_step(ad.constant(rng.uniform(-2, 2, (2, 3))),
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
        state = rc.LstmState(ad.constant(h0), ad.constant(c0))
        out = rc.graph_step(ad.constant(x), ad.constant(np.zeros((1, 2))), state, p)
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
        state = rc.LstmState(ad.constant(np.zeros((1, 4))), ad.constant(v))
        out = rc.plain_step(ad.constant(np.zeros((1, 3))), state, p)
        np.testing.assert_allclose(out.c.data, 0.5 * v, atol=1e-15)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(6)
        p = rc.LstmParams(3, 4, rng)
        x = rng.uniform(-2, 2, (1, 3))
        h0 = rng.uniform(-1, 1, (1, 4))
        c0 = rng.uniform(-2, 2, (1, 4))
        state = rc.LstmState(ad.constant(h0), ad.constant(c0))
        out = rc.plain_step(ad.constant(x), state, p)
        h_ref, c_ref = scalar_plain_step(x[0], h0[0], c0[0], p)
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
        sf = rc.graph_step(x, g, rc.zero_state(1, 4), fwd)
        sb = rc.graph_step(x, g, rc.zero_state(1, 4), bwd)
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
        sink = {}
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))
        rc.bidirectional(x, g, [4], fwd, bwd, trace_sink=sink)
        traces = rc.extract_traces(sink, [4])
        assert len(traces) == 1
        tr = traces[0]
        assert tr.values("m").shape == (4, 2, 4)
        assert 0.0 < tr.mean("m") < 1.0


class TestExpansionIdentity:
    def _recurrent_states(self, x, g, params):
        state = rc.zero_state(1, params.hidden)
        cs = []
        for t in range(x.data.shape[0]):
            xt = ad.rows(x, np.array([t]))
            gt = ad.rows(g, np.array([t]))
            state = rc.graph_step(xt, gt, state, params)
            cs.append(state.c.data[0].copy())
        return cs

    def test_first_position_is_plain_candidate_mix(self):
        rng = np.random.default_rng(11)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-1, 1, (3, 3)))
        g = ad.constant(rng.uniform(-1, 1, (3, 2)))
        c0 = rc.expand_cell_state(x, g, p, 0).data
        ref = self._recurrent_states(x, g, p)[0]
        np.testing.assert_allclose(c0, ref, atol=1e-12)

    def test_zero_params_expansion_is_zero(self):
        p = _zero_params(3, 4, graph_dim=2)
        rng = np.random.default_rng(12)
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))
        for t in range(4):
            np.testing.assert_array_equal(rc.expand_cell_state(x, g, p, t).data, 0.0)

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
            ref = self._recurrent_states(x, g, p)
            for t in range(n):
                got = rc.expand_cell_state(x, g, p, t).data
                assert np.max(np.abs(got - ref[t])) < 1e-10

    def test_expansion_weights_bounded(self):
        rng = np.random.default_rng(14)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-2, 2, (6, 3)))
        g = ad.constant(rng.uniform(-2, 2, (6, 2)))
        _, a_w, q_w = rc.expand_cell_state(x, g, p, 5, return_weights=True)
        for w in a_w + q_w:
            assert np.all(w.data > 0.0) and np.all(w.data < 1.0)


class TestCellGradients:
    def test_graph_cell_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        p = rc.LstmParams(3, 4, rng, graph_dim=2)
        x = ad.constant(rng.uniform(-1, 1, (4, 3)))
        g = ad.constant(rng.uniform(-1, 1, (4, 2)))

        def loss():
            return rc.bidirectional(x, g, [4], p, p).sum()

        report = check_gradients(loss, p.parameters(), step=1e-5, floor=1e-3)
        assert report.max_rel_err < 1e-4, report.per_param


LENGTHS = [5, 2, 3]


def _padded(rng, dim, lengths=LENGTHS):
    """Sentence-major rows; the padded rows hold noise that must not leak."""
    return ad.Tensor(rng.uniform(-1, 1, (len(lengths) * max(lengths), dim)),
                     requires_grad=True)


def _kernel_case(graph, seed):
    rng = np.random.default_rng(seed)
    if graph:
        fwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        bwd = rc.LstmParams(3, 4, rng, graph_dim=2)
        g = _padded(rng, 2)
    else:
        fwd = rc.LstmParams(3, 4, rng)
        bwd = rc.LstmParams(3, 4, rng)
        g = None
    return fwd, bwd, _padded(rng, 3), g, rng


def _run(x, g, fwd, bwd, lengths=LENGTHS, trace_sink=None):
    if g is None:
        return rc.run_plain_bidirectional_batch(x, lengths, fwd, bwd,
                                                trace_sink=trace_sink)
    return rc.run_graph_bidirectional_batch(x, g, lengths, fwd, bwd,
                                            trace_sink=trace_sink)


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
            state = rc.zero_state(1, p.hidden)
            hs = [None] * n
            for t in order:
                idx = np.array([b * n_max + t])
                trace = {}
                if g is None:
                    state = rc.plain_step(ad.rows(x, idx), state, p, trace)
                else:
                    state = rc.graph_step(ad.rows(x, idx), ad.rows(g, idx),
                                          state, p, trace)
                hs[t] = state.h
                for gate, value in trace.items():
                    gates.setdefault(gate, np.empty((n, 2, p.hidden)))[t, side] = value[0]
            halves.append(ad.concat(hs, axis=0))
        outputs.append(ad.concat(halves, axis=1))
        traces.append(gates)
    return outputs, traces


class TestKernel:
    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_matches_chain_of_reference_steps(self, graph):
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=21)
        n_max = max(LENGTHS)
        weights = [rng.normal(size=(n, 8)) for n in LENGTHS]
        params = {f"{side}.{name}": t for side, p in (("fwd", fwd), ("bwd", bwd))
                  for name, t in p.parameters().items()}
        tracked = dict(params, x=x, **({} if g is None else {"g": g}))

        def grads(loss_fn):
            ad.clear_grads(tracked)
            with ad.Tape():
                loss = loss_fn()
                ad.backward(loss)
            return {name: t.grad.copy() for name, t in tracked.items()}

        sink = {}
        out = _run(x, g, fwd, bwd, trace_sink=sink)
        chain, chain_traces = _step_chain(x, g, fwd, bwd)
        for b, n in enumerate(LENGTHS):
            np.testing.assert_allclose(out.data[b * n_max: b * n_max + n],
                                       chain[b].data, rtol=0, atol=1e-14)
        for got, want in zip(rc.extract_traces(sink, LENGTHS), chain_traces):
            assert sorted(got.arrays) == sorted(want)
            for gate in want:
                np.testing.assert_allclose(got.values(gate), want[gate],
                                           rtol=0, atol=1e-14)

        def kernel_loss():
            out = _run(x, g, fwd, bwd)
            return sum((ad.rows(out, np.arange(b * n_max, b * n_max + n))
                        * ad.constant(w)).sum()
                       for b, (n, w) in enumerate(zip(LENGTHS, weights)))

        def chain_loss():
            outs, _ = _step_chain(x, g, fwd, bwd)
            return sum((o * ad.constant(w)).sum() for o, w in zip(outs, weights))

        got, want = grads(kernel_loss), grads(chain_loss)
        for name in tracked:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "plain"])
    def test_padded_batch_gradients_match_finite_differences(self, graph):
        fwd, bwd, x, g, rng = _kernel_case(graph, seed=22)
        # Padded rows carry weight too: the forward direction copies the last
        # real state there, so their gradient must reach that state.
        weights = ad.constant(rng.normal(size=(x.data.shape[0], 8)))
        params = {f"{side}.{name}": t for side, p in (("fwd", fwd), ("bwd", bwd))
                  for name, t in p.parameters().items()}
        params["x"] = x
        if g is not None:
            params["g"] = g

        def loss():
            return (_run(x, g, fwd, bwd) * weights).sum()

        report = check_gradients(loss, params, step=1e-5, floor=1e-3)
        assert report.max_rel_err < 1e-4, report.per_param

    def test_final_state_gradients_match_finite_differences(self):
        fwd, bwd, x, _, rng = _kernel_case(False, seed=23)
        weights = ad.constant(rng.normal(size=(len(LENGTHS), 8)))
        params = {f"{side}.{name}": t for side, p in (("fwd", fwd), ("bwd", bwd))
                  for name, t in p.parameters().items()}
        params["x"] = x

        def loss():
            return (rc.bidirectional(x, None, LENGTHS, fwd, bwd, final=True)
                    * weights).sum()

        report = check_gradients(loss, params, step=1e-5, floor=1e-3)
        assert report.max_rel_err < 1e-4, report.per_param

    def test_final_states_are_last_real_positions(self):
        fwd, bwd, x, _, _ = _kernel_case(False, seed=24)
        n_max = max(LENGTHS)
        seq = _run(x, None, fwd, bwd).data.reshape(len(LENGTHS), n_max, 8)
        final = rc.bidirectional(x, None, LENGTHS, fwd, bwd, final=True).data
        for b, n in enumerate(LENGTHS):
            np.testing.assert_array_equal(final[b, :4], seq[b, n - 1, :4])
            np.testing.assert_array_equal(final[b, 4:], seq[b, 0, 4:])

    def test_one_tape_node_per_direction(self):
        fwd, bwd, x, g, _ = _kernel_case(True, seed=25)
        with ad.Tape() as tape:
            out = _run(x, g, fwd, bwd)
        # one node per direction plus the node joining their columns
        assert len(tape._nodes) == 3
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
