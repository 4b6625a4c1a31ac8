"""Recurrent cells: a graph-gated LSTM, a plain LSTM, and one kernel for both.

The graph-gated cell consumes two streams per position: the token input x_t
and a graph-encoded vector g_t. Four sigmoid gates control the state update:

* forget (f) and output (o) see x_t, the previous hidden state, and g_t;
* the sequence input gate (i) sees x_t and the previous hidden state;
* the graph input gate (m) sees g_t and the previous hidden state.

Two tanh candidates are formed, one from the token stream and one from the
graph stream, and the cell state accumulates both:

    c_t = f * c_{t-1} + i * cand_c_t + m * cand_s_t
    h_t = o * tanh(c_t)

The plain LSTM drops everything graph-related and is used for the character
encoder and the sequence-only baselines.

One numpy kernel runs every recurrence in the package. Its gate columns are
ordered ``[i, c, f, o | m, s]`` (c and s are the token and graph
candidates): the token stream feeds the first 4H columns, the graph stream,
when there is one, columns 2H-6H, and the previous hidden state all of them.
Each timestep is three GEMMs into one (B, 6H) pre-activation (two into
(B, 4H) for the plain cell), and sigmoid is ``0.5 * (1 + tanh(x / 2))``.
Positions at or beyond a sentence's length carry the state forward, so
padding never reaches a shorter sentence. The stored weights are in
this layout already (``LstmParams``), so the kernel multiplies by them as
they are and its backward returns each stacked gradient whole.

Under a tape, each direction is one tape node with a hand-written BPTT
backward: the reverse loop only carries the h and c gradients, and the
weight and input gradients are single matmuls after it. With no tape active
the kernel keeps no backward caches, only the gate activations when a trace
is asked for.

``graph_step`` and ``plain_step`` are the same cells as chains of tape ops,
one step at a time, reading each gate's block of the stacked weights
through ``block``. The model never calls them: they are the reference the
kernel is tested against, and they are themselves tested against scalar
transcriptions and against the closed-form expansion of the cell state
(``expand_cell_state``), which never runs the recurrence for c. All states
are batches of row vectors, (B, H), and start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant, matmul, rows, sigmoid, tanh
from .errors import ContractError, DimensionError
from .initializers import glorot, zeros

GATE_NAMES = ("f", "i", "m", "o")
_SIGMOID_GATES = frozenset("ifom")


@dataclass
class LstmState:
    h: Tensor
    c: Tensor


def zero_state(batch, hidden):
    return LstmState(constant(np.zeros((batch, hidden))),
                     constant(np.zeros((batch, hidden))))


class LstmParams:
    """Weights of one LSTM direction, stacked in the kernel's column order.

    The gate columns are ``[i, c, f, o | m, s]``, H each, or ``[i, c, f, o]``
    with no graph stream (c and s are the token and graph candidates).
    ``W_x`` (Dx, 4H) feeds i, c, f, o; ``W_g`` (Dg, 4H), present only with a
    graph stream, feeds f, o, m, s; ``W_h`` (H, width) and ``b`` (width,)
    feed every gate. Matrices are (input_dim, columns) so batched rows
    multiply on the left.
    """

    # Glorot draws, one (stream, gate) block at a time: this order fixes the
    # weights each seed gives. Biases start at zero and draw nothing.
    DRAWS = {True: "xf hf gf xo ho go xi hi xc hc gm hm gs hs",
             False: "xf hf xi hi xo ho xc hc"}

    def __init__(self, input_dim, hidden, rng, graph_dim=None):
        self.input_dim = input_dim
        self.hidden = hidden
        self.graph_dim = graph_dim
        graph = graph_dim is not None
        self.gates = "icfoms" if graph else "icfo"
        width = len(self.gates) * hidden
        # Every weight column gets a draw below, so the matrices start empty:
        # zero-filling recycled memory first would only add set-up time.
        self.W_x = Tensor(np.empty((input_dim, 4 * hidden)), requires_grad=True)
        if graph:
            self.W_g = Tensor(np.empty((graph_dim, 4 * hidden)), requires_grad=True)
        self.W_h = Tensor(np.empty((hidden, width)), requires_grad=True)
        self.b = zeros(width)
        dims = {"x": input_dim, "g": graph_dim, "h": hidden}
        for stream, gate in self.DRAWS[graph].split():
            self.stacked(stream).data[:, self.columns(stream, gate)] = glorot(
                rng, dims[stream], hidden).data

    def feeds(self, stream):
        """The gates that ``stream`` (x, g, h or b) feeds, in column order."""
        return {"x": "icfo", "g": "foms"}.get(stream, self.gates)

    def columns(self, stream, gate):
        """The column slice of ``gate`` in the stacked tensor of ``stream``."""
        k = self.feeds(stream).index(gate)
        return slice(k * self.hidden, (k + 1) * self.hidden)

    def stacked(self, stream):
        return self.b if stream == "b" else getattr(self, f"W_{stream}")

    def parameters(self):
        names = "W_x W_h b" if self.graph_dim is None else "W_x W_g W_h b"
        return {name: getattr(self, name) for name in names.split()}


def block(p, stream, gate):
    """One gate's block of a stacked tensor as a differentiable (rows, H) view.

    Built from ``take`` and ``reshape``, so the reference cells below read
    the same storage as the kernel without sharing any of its code.
    """
    t = p.stacked(stream)
    cols = np.arange(t.data.shape[-1])[p.columns(stream, gate)]
    if t.data.ndim == 1:
        return ad.take(t, cols)
    flat = np.arange(t.data.shape[0])[:, None] * t.data.shape[1] + cols
    return ad.reshape(ad.take(t, flat.ravel()), (t.data.shape[0], p.hidden))


def _preactivations(p, streams):
    """Every gate's pre-activation, given each input stream's (B, D) rows."""
    return {gate: sum((matmul(v, block(p, stream, gate))
                       for stream, v in streams.items() if gate in p.feeds(stream)),
                      block(p, "b", gate))
            for gate in p.gates}


def _record(trace, **gates):
    if trace is not None:
        trace.update({name: gate.data.copy() for name, gate in gates.items()})


def graph_step(x, g, state, p, trace=None):
    """One step of the graph-gated cell over a batch of rows.

    When ``trace`` is a dict, the four gate activations are stored into it
    as plain arrays under keys f/i/m/o.
    """
    _check_step_dims(x, p.input_dim, "token input")
    _check_step_dims(g, p.graph_dim, "graph input")
    pre = _preactivations(p, {"x": x, "h": state.h, "g": g})
    f, i, m, o = (sigmoid(pre[gate]) for gate in "fimo")
    c = f * state.c + i * tanh(pre["c"]) + m * tanh(pre["s"])
    _record(trace, f=f, i=i, m=m, o=o)
    return LstmState(o * tanh(c), c)


def plain_step(x, state, p, trace=None):
    """One standard LSTM step over a batch of rows."""
    _check_step_dims(x, p.input_dim, "token input")
    pre = _preactivations(p, {"x": x, "h": state.h})
    f, i, o = (sigmoid(pre[gate]) for gate in "fio")
    c = f * state.c + i * tanh(pre["c"])
    _record(trace, f=f, i=i, o=o)
    return LstmState(o * tanh(c), c)


def _check_step_dims(x, expect, what):
    if x.data.ndim != 2 or x.data.shape[1] != expect:
        raise DimensionError(
            f"{what} has shape {x.data.shape}, expected (batch, {expect})"
        )


def _direction(x, g, p, valid, reverse, out, final, keep, trace):
    """One direction of the kernel over a padded sentence-major batch.

    x is a (B * n, Dx) array, g a (B * n, Dg) array or None, and valid the
    (B, n) mask of real positions. Writes every position's h into ``out``
    ((B, n, H)), or with ``final`` only the state after the last step
    ((B, H)). With ``keep`` it caches what the backward needs and returns
    the backward function, else None. A ``trace`` dict receives the gate
    activations as (B, n, H) arrays.
    """
    batch, n = valid.shape
    hidden = p.hidden
    gates = p.gates
    width = len(gates) * hidden
    tok, grf = 4 * hidden, 2 * hidden  # token columns [0, 4H), graph [2H, 6H)
    w_x, w_h, bias = p.W_x.data, p.W_h.data, p.b.data
    w_g = None if g is None else p.W_g.data
    # sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z); tanh columns use scale 1, shift 0
    scale = np.repeat([0.5 if gate in _SIGMOID_GATES else 1.0 for gate in gates],
                      hidden)
    shift = 1.0 - scale
    x3 = x.reshape(batch, n, -1)
    g3 = None if g is None else g.reshape(batch, n, -1)
    acts = np.empty((batch, n, width)) if keep or trace is not None else None
    seq = out if not final else (np.empty((batch, n, hidden)) if keep else None)
    if keep:
        cells = np.empty((batch, n, hidden))
        tanh_cells = np.empty((batch, n, hidden))
    complete = valid.all(axis=0)
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        pre = h @ w_h
        pre[:, :tok] += x3[:, t] @ w_x
        if g3 is not None:
            pre[:, grf:] += g3[:, t] @ w_g
        pre += bias
        pre *= scale
        np.tanh(pre, out=pre)
        pre *= scale
        pre += shift
        act = pre.reshape(batch, -1, hidden)  # act[:, k] is gate gates[k]
        c_new = act[:, 2] * c + act[:, 0] * act[:, 1]
        if g3 is not None:
            c_new += act[:, 4] * act[:, 5]
        tc = np.tanh(c_new)
        h_new = act[:, 3] * tc
        if not complete[t]:
            row = valid[:, t, None]
            c_new = np.where(row, c_new, c)
            h_new = np.where(row, h_new, h)
        h, c = h_new, c_new
        if seq is not None:
            seq[:, t] = h
        if acts is not None:
            acts[:, t] = pre
        if keep:
            cells[:, t] = c
            tanh_cells[:, t] = tc
    if final:
        out[...] = h
    a = None if acts is None else acts.reshape(batch, n, len(gates), hidden)
    if trace is not None:
        for k, gate in enumerate(gates):
            if gate in GATE_NAMES:
                trace[gate] = a[:, :, k]
    if not keep:
        return None

    def backward(grad):
        # States before each step, in processing order (zero before the first).
        h_prev = np.zeros((batch, n, hidden))
        c_prev = np.zeros((batch, n, hidden))
        before, after = (slice(1, None), slice(None, -1))
        if reverse:
            before, after = after, before
        h_prev[:, before] = seq[:, after]
        c_prev[:, before] = cells[:, after]
        gate = dict(zip(gates, np.moveaxis(a, 2, 0)))
        # d pre-activation = (d c or d h) * partner * activation derivative;
        # the per-step loop below only supplies the d c / d h factor.
        partner = {"i": gate["c"], "c": gate["i"], "f": c_prev, "o": tanh_cells,
                   "m": gate.get("s"), "s": gate.get("m")}
        dpre = np.empty_like(a)
        for k, name in enumerate(gates):
            act = gate[name]
            slope = act * (1.0 - act) if name in _SIGMOID_GATES else 1.0 - act * act
            np.multiply(partner[name], slope, out=dpre[:, :, k])
        mask = valid[:, :, None]
        dpre *= mask[..., None]
        gain = gate["o"] * (1.0 - tanh_cells * tanh_cells) * mask  # dh -> dc
        forget = np.where(mask, gate["f"], 1.0)  # padded steps pass dc through
        seq_grad = None if final else grad.reshape(batch, n, hidden)
        dh = grad.copy() if final else np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        w_h_t = w_h.T
        for t in reversed(order):
            if seq_grad is not None:
                dh = dh + seq_grad[:, t]
            dc = dc + dh * gain[:, t]
            step = dpre[:, t]
            step[:, 3] *= dh
            step[:, :3] *= dc[:, None]
            step[:, 4:] *= dc[:, None]
            dc = dc * forget[:, t]
            dh_prev = step.reshape(batch, width) @ w_h_t
            if not complete[t]:
                dh_prev += np.where(valid[:, t, None], 0.0, dh)
            dh = dh_prev
        d2 = dpre.reshape(batch * n, width)
        d_tok = d2[:, :tok]
        dx, dw_x = d_tok @ w_x.T, x.T @ d_tok
        dw_h, db = h_prev.reshape(batch * n, hidden).T @ d2, d2.sum(axis=0)
        if g is None:
            return dx, dw_x, dw_h, db
        d_grf = d2[:, grf:]
        return dx, d_grf @ w_g.T, dw_x, g.T @ d_grf, dw_h, db

    return backward


def bidirectional(x, g, lengths, fwd, bwd, final=False, trace_sink=None):
    """Both directions of the kernel over a padded sentence-major batch.

    x is (B * n_max, Dx) with row b * n_max + t holding sentence b, position
    t; g likewise for the graph-gated cell, None for the plain one. Returns
    (B * n_max, 2H), each row the forward and backward hidden states at that
    position, or with ``final`` the (B, 2H) states after each direction's
    last step. When trace_sink is a dict, each direction's gate activations
    are stored under "fwd" and "bwd" as dicts of (B, n_max, H) arrays.
    """
    if (g is None) != (fwd.graph_dim is None):
        raise ContractError("a graph stream needs graph-gated parameters and vice versa")
    _check_step_dims(x, fwd.input_dim, "token input")
    if g is not None:
        _check_step_dims(g, fwd.graph_dim, "graph input")
    batch = len(lengths)
    n_max = x.data.shape[0] // batch
    hidden = fwd.hidden
    valid = np.arange(n_max)[None, :] < np.asarray(lengths)[:, None]
    out = np.empty((batch, 2 * hidden) if final else (batch, n_max, 2 * hidden))
    flat = out.reshape(-1, 2 * hidden)
    halves = []
    for side, p in enumerate((fwd, bwd)):
        cols = slice(side * hidden, (side + 1) * hidden)
        inputs = (x,) + (() if g is None else (g,)) + tuple(p.parameters().values())
        trace = None
        if trace_sink is not None:
            trace = trace_sink[("fwd", "bwd")[side]] = {}
        backward_fn = _direction(
            x.data, None if g is None else g.data, p, valid, side == 1,
            out[..., cols], final, ad.recording(inputs), trace)
        halves.append(ad.record(Tensor(flat[:, cols]), inputs, backward_fn))
    return ad.record(Tensor(flat), halves,
                     lambda grad: (grad[:, :hidden], grad[:, hidden:]))


def run_graph_bidirectional_batch(x_flat, g_flat, lengths, fwd, bwd,
                                  trace_sink=None):
    """Bidirectional graph-gated pass over a padded batch: (B * n_max, 2H)."""
    return bidirectional(x_flat, g_flat, lengths, fwd, bwd,
                         trace_sink=trace_sink)


def run_plain_bidirectional_batch(x_flat, lengths, fwd, bwd, trace_sink=None):
    """Bidirectional plain-LSTM pass over a padded batch: (B * n_max, 2H)."""
    return bidirectional(x_flat, None, lengths, fwd, bwd, trace_sink=trace_sink)


class GateTrace:
    """Recorded gate activations for one sentence.

    arrays maps gate name -> (n, directions, H); direction 0 is forward.
    """

    def __init__(self, arrays):
        self.arrays = arrays

    def values(self, gate):
        if gate not in self.arrays:
            raise ContractError(f"gate {gate!r} not traced; have {sorted(self.arrays)}")
        return self.arrays[gate]

    def mean(self, gate):
        return float(self.values(gate).mean())


def extract_traces(trace_sink, lengths, gate_names=GATE_NAMES):
    """Slice a batched trace sink into per-sentence GateTrace objects."""
    fwd, bwd = trace_sink["fwd"], trace_sink["bwd"]
    return [GateTrace({gate: np.stack([fwd[gate][b, :n], bwd[gate][b, :n]], axis=1)
                       for gate in gate_names if gate in fwd})
            for b, n in enumerate(lengths)]


def expand_cell_state(x_seq, g_seq, params, t, return_weights=False):
    """Cell state c_t via the closed-form weighted-sum expansion.

    Instead of iterating c_t = f*c + i*cand_c + m*cand_s, every c_j is
    rebuilt from scratch as

        c_j = sum_k a_k_j * cand_c_k  +  sum_k q_k_j * cand_s_k

    where a_k_j = i_k * prod(f_{k+1} .. f_j) and q_k_j likewise from m_k.
    Hidden states between positions still come from h_j = o_j * tanh(c_j),
    with c_j taken from the expansion, so the recurrence for c is never
    used. This is the independent oracle for the step function.

    x_seq and g_seq are single-sentence (n, D) tensors; returns c_t with
    shape (H,). With return_weights=True, also returns the lists of weight
    tensors (each (1, H)) for boundedness checks.
    """
    n = x_seq.data.shape[0]
    if not 0 <= t < n:
        raise ContractError(f"position {t} outside sequence of length {n}")
    h = constant(np.zeros((1, params.hidden)))
    a_weights, q_weights = [], []
    c_cands, s_cands = [], []
    c_j = None
    for j in range(t + 1):
        pre = _preactivations(params, {"x": rows(x_seq, np.array([j])), "h": h,
                                       "g": rows(g_seq, np.array([j]))})
        f, i, m, o = (sigmoid(pre[gate]) for gate in "fimo")
        c_cands.append(tanh(pre["c"]))
        s_cands.append(tanh(pre["s"]))
        a_weights = [w * f for w in a_weights] + [i]
        q_weights = [w * f for w in q_weights] + [m]
        c_j = a_weights[0] * c_cands[0]
        for k in range(1, len(a_weights)):
            c_j = c_j + a_weights[k] * c_cands[k]
        for k in range(len(q_weights)):
            c_j = c_j + q_weights[k] * s_cands[k]
        h = o * tanh(c_j)
    c_t = ad.reshape(c_j, (params.hidden,))
    if return_weights:
        return c_t, a_weights, q_weights
    return c_t
