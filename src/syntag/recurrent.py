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
States start at zero.
Batches are packed: rows are ranked longest first, so at step t only the
sentences longer than t are live, in both directions, and every GEMM, gate
and BPTT step runs on that prefix alone. Padded positions are never read or
computed; their output rows are zero. Only h_{t-1} is sequential, so the
token and graph projections run outside the step loop: one GEMM per stream
for each block of whole consecutive steps that fits in ``_BLOCK_ROWS``
packed rows (a longer step is a block of its own), a budget that bounds the
memory they take. Each step then adds its rows of them to one ``h @ W_h``
GEMM, (B, 6H) ((B, 4H) for the plain cell), and sigmoid is
``0.5 * (1 + tanh(x / 2))``. The stored weights are in
this layout already (``LstmParams``), so the kernel multiplies by them as
they are and its backward returns each stacked gradient whole.

Under a tape, each ``bidirectional`` call is one tape node whose backward
runs a hand-written BPTT per direction: the reverse loop only carries the h
and c gradients, and the weight and input gradients are single matmuls after
it. With no tape active the kernel keeps no backward caches, only the gate
activations when the caller asks for them.

The two directions are independent, and so are their BPTTs. When the
``h @ W_h`` of a call's average step is larger than ``_CONCURRENT_WORK``
multiply-adds and the process may run on more than one CPU, the reverse
direction runs on one worker thread while the calling thread runs the
forward one, and the backward does the same; other calls run both on the
calling thread. numpy releases the interpreter lock inside GEMMs and large
elementwise loops, so the two overlap on two cores; BLAS itself stays at
one thread. The directions write disjoint arrays and
are combined in a fixed order, so the results are the same bits either way.
Each projection block gathers its own rows of x and g (again in the
backward), so no whole-batch copy of either stream is alive per direction.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .initializers import glorot, zeros

GATE_NAMES = ("f", "i", "m", "o")
_SIGMOID_GATES = frozenset("ifom")
# Packed rows per input-projection GEMM. A block is whole steps, so a step
# longer than this is a block of its own.
_BLOCK_ROWS = 128
# A call runs its two directions on two threads when the ``h @ W_h`` of its
# average step does more multiply-adds than this: live rows * gate width * H.
# Below about 2^19, handing the interpreter lock back and forth at every step
# costs more than the second core saves. The cut sits higher because on a
# shared host a busy second core also slows the single-threaded work that
# follows; between 2^19 and 2^21 that cost outweighed the saving.
_CONCURRENT_WORK = 1 << 21
# The one thread that runs the reverse direction of a concurrent call. A task
# on it must never call ``bidirectional``: that call would queue its own
# reverse direction behind itself and wait forever.
_REVERSE = ThreadPoolExecutor(max_workers=1, thread_name_prefix="syntag-reverse")


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


def _check_step_dims(x, expect, what):
    if x.data.ndim != 2 or x.data.shape[1] != expect:
        raise DimensionError(
            f"{what} has shape {x.data.shape}, expected (batch, {expect})"
        )


def _direction(x, g, p, src, live, order, out, final, keep, acts):
    """One direction of the kernel over a packed batch.

    Rows are ranked longest first (``order[r]`` is the row of rank r) and
    packed time-major: step t runs ranks ``[0, live[t])``, reading rows
    ``src[a:a + live[t]]`` of x ((rows, Dx)) and g ((rows, Dg) or None),
    where a is ``live[:t].sum()``. No other row of x or g is read. Writes
    each packed h into ``out[src]`` ((rows, H)), or with ``final`` each
    rank's state after its last step into ``out[order]`` ((B, H)), and
    leaves the rest of ``out`` alone. The x and g projections are computed
    a block of steps ahead (see ``_BLOCK_ROWS``). With ``keep`` it caches
    what the backward needs and returns the backward function, else None;
    the backward gives the x and g gradients of rows ``src``, packed.
    ``acts`` is None or a (len(src), len(p.gates), H) array that receives
    every step's activations in packed order.
    """
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
    tokens = len(src)
    ends = np.cumsum(live)
    if keep and acts is None:
        acts = np.empty((tokens, len(gates), hidden))
    seq = np.empty((tokens, hidden)) if keep or not final else None
    if keep:
        cells = np.empty((tokens, hidden))
        tanh_cells = np.empty((tokens, hidden))
    # Row r is rank r's state; a finished rank's row is never written again.
    h = np.zeros((len(order), hidden))
    c = np.zeros((len(order), hidden))
    top = 0  # packed rows [base, top) have their input projections
    stops = ends.tolist()
    for t, k in enumerate(live.tolist()):
        span = slice(stops[t] - k, stops[t])
        if span.start == top:
            # Project the inputs of the whole steps within _BLOCK_ROWS rows
            # from here, and of this step at least, in one GEMM per stream.
            # Each block gathers its own input rows, so no whole-batch copy
            # of x or g is alive beside the other direction's.
            base = top
            top = stops[max(t, bisect_right(stops, base + _BLOCK_ROWS) - 1)]
            rows = src[base:top]
            x_proj = x[rows] @ w_x
            g_proj = None if g is None else g[rows] @ w_g
        rel = slice(span.start - base, span.stop - base)
        pre = h[:k] @ w_h
        pre[:, :tok] += x_proj[rel]
        if g is not None:
            pre[:, grf:] += g_proj[rel]
        pre += bias
        pre *= scale
        np.tanh(pre, out=pre)
        pre *= scale
        pre += shift
        act = pre.reshape(k, -1, hidden)  # act[:, j] is gate gates[j]
        c_new = act[:, 2] * c[:k] + act[:, 0] * act[:, 1]
        if g is not None:
            c_new += act[:, 4] * act[:, 5]
        tc = np.tanh(c_new)
        c[:k] = c_new
        h[:k] = act[:, 3] * tc
        if seq is not None:
            seq[span] = h[:k]
        if acts is not None:
            acts[span] = act
        if keep:
            cells[span] = c_new
            tanh_cells[span] = tc
    if final:
        out[order] = h
    else:
        out[src] = seq
    if not keep:
        return None

    def backward(grad):
        # A packed row's state before its step is its rank's row one step
        # earlier; the first step starts from zero.
        prev = np.arange(live[0], tokens) - np.repeat(live[:-1], live[1:])
        c_prev = np.zeros((tokens, hidden))
        c_prev[live[0]:] = cells[prev]
        gate = dict(zip(gates, np.moveaxis(acts, 1, 0)))
        # d pre-activation = (d c or d h) * partner * activation derivative;
        # the per-step loop below only supplies the d c / d h factor.
        partner = {"i": gate["c"], "c": gate["i"], "f": c_prev, "o": tanh_cells,
                   "m": gate.get("s"), "s": gate.get("m")}
        dpre = np.empty_like(acts)
        for j, name in enumerate(gates):
            act = gate[name]
            slope = act * (1.0 - act) if name in _SIGMOID_GATES else 1.0 - act * act
            np.multiply(partner[name], slope, out=dpre[:, j])
        gain = gate["o"] * (1.0 - tanh_cells * tanh_cells)  # dh -> dc
        seq_grad = None if final else grad[src]
        # Row r carries rank r's d h and d c; a rank joins at its last step.
        dh = grad[order] if final else np.zeros((len(order), hidden))
        dc = np.zeros((len(order), hidden))
        w_h_t = w_h.T
        for t in range(len(live) - 1, -1, -1):
            k = live[t]
            span = slice(ends[t] - k, ends[t])
            if seq_grad is not None:
                dh[:k] += seq_grad[span]
            dc[:k] += dh[:k] * gain[span]
            step = dpre[span]
            step[:, 3] *= dh[:k]
            step[:, :3] *= dc[:k, None]
            step[:, 4:] *= dc[:k, None]
            dc[:k] *= gate["f"][span]
            dh[:k] = step.reshape(k, width) @ w_h_t
        d2 = dpre.reshape(tokens, width)
        d_tok = d2[:, :tok]
        dw_h, db = seq[prev].T @ d2[live[0]:], d2.sum(axis=0)
        dw_x = x[src].T @ d_tok
        if g is None:
            return d_tok @ w_x.T, dw_x, dw_h, db
        d_grf = d2[:, grf:]
        return d_tok @ w_x.T, d_grf @ w_g.T, dw_x, g[src].T @ d_grf, dw_h, db

    return backward


def bidirectional(x, g, lengths, fwd, bwd, final=False, gates=None):
    """Both directions of the kernel over a padded sentence-major batch.

    x is (B * n_max, Dx) with row b * n_max + t holding sentence b, position
    t; g likewise for the graph-gated cell, None for the plain one. Returns
    (B * n_max, 2H), each row the forward and backward hidden states at that
    position, or with ``final`` the (B, 2H) states after each direction's
    last step. Padded rows (t >= lengths[b]) are never read: a NaN there
    changes nothing, their output rows are exact zeros in both directions,
    and their input rows and output rows get zero gradient. ``lengths``
    must be non-negative with a positive maximum, and x and g must have
    ``len(lengths) * max(lengths)`` rows, else it raises ContractError or
    DimensionError. When ``gates`` is a dict, each of the cell's gates in
    GATE_NAMES appends to ``gates[name]`` one (tokens, 2, H) array: its
    activations at the batch's real positions in row order, direction 0
    forward. Under a tape the result is one node over x, g and both
    directions' parameters; its backward releases each direction's caches
    once its BPTT returns, and scatters both directions' packed rows into
    one gradient array per stream. A large call runs its reverse direction
    on the ``_REVERSE`` thread (see the module docstring), so a task on
    that thread must never call this function.
    """
    if (g is None) != (fwd.graph_dim is None):
        raise ContractError("a graph stream needs graph-gated parameters and vice versa")
    _check_step_dims(x, fwd.input_dim, "token input")
    if g is not None:
        _check_step_dims(g, fwd.graph_dim, "graph input")
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or not lengths.size:
        raise DimensionError(f"lengths has shape {lengths.shape}, expected (batch,) "
                             "with at least one sentence")
    if lengths.min() < 0 or lengths.max() < 1:
        raise ContractError(f"lengths run from {lengths.min()} to {lengths.max()}; "
                            "none may be negative and the longest needs a token")
    batch, n_max = len(lengths), int(lengths.max())
    for name, t in (("token", x), ("graph", g)):
        if t is not None and t.data.shape[0] != batch * n_max:
            raise DimensionError(
                f"{name} input has {t.data.shape[0]} rows, expected "
                f"len(lengths) * max(lengths) = {batch} * {n_max}")
    hidden = fwd.hidden
    # Rank rows longest first; then step t runs the live[t] longest rows in
    # both directions. sent and step give each packed row's sentence and step.
    order = np.argsort(-lengths, kind="stable")
    live = np.count_nonzero(lengths[:, None] > np.arange(n_max), axis=0)
    step = np.repeat(np.arange(n_max), live)
    sent = order[np.arange(len(step)) - (np.cumsum(live) - live)[step]]
    # The forward direction reads position t at step t, the reverse one
    # starts each sentence at its own last position.
    positions = (step, lengths[sent] - 1 - step)
    srcs = tuple(sent * n_max + at for at in positions)
    flat = np.zeros((batch if final else batch * n_max, 2 * hidden))
    streams = (x,) if g is None else (x, g)
    inputs = streams + tuple(w for p in (fwd, bwd) for w in p.parameters().values())
    keep = ad.recording(inputs)
    concurrent = (len(step) * len(fwd.gates) * hidden * hidden
                  > _CONCURRENT_WORK * n_max) and _spare_core()
    cols = (slice(0, hidden), slice(hidden, 2 * hidden))

    def run(side):
        p = (fwd, bwd)[side]
        act = None if gates is None else np.empty((len(step), len(p.gates), hidden))
        return act, _direction(
            x.data, None if g is None else g.data, p, srcs[side],
            live, order, flat[:, cols[side]], final, keep, act)

    (acts_fwd, bk_fwd), (acts_bwd, bk_bwd) = _both_sides(run, concurrent)
    if gates is not None:
        starts = np.cumsum(lengths) - lengths
        for k, name in enumerate(fwd.gates):
            if name in GATE_NAMES:
                stacked = np.empty((len(step), 2, hidden))
                for side, act in enumerate((acts_fwd, acts_bwd)):
                    stacked[starts[sent] + positions[side], side] = act[:, k]
                gates.setdefault(name, []).append(stacked)

    bptts = {0: bk_fwd, 1: bk_bwd}  # popped by the BPTT, so the caches go with it
    shapes = [t.data.shape for t in streams]

    def backward(grad):
        d_fwd, d_bwd = _both_sides(
            lambda side: bptts.pop(side)(grad[:, cols[side]]), concurrent)
        n = len(shapes)  # x and g get b + f at real rows, zero at padded ones
        summed = [np.zeros(shape) for shape in shapes]
        for d, b, f in zip(summed, d_bwd, d_fwd):
            d[srcs[1]] = b
            d[srcs[0]] += f
        return tuple(summed) + d_fwd[n:] + d_bwd[n:]

    return ad.record(Tensor(flat), inputs, backward)


def _spare_core():
    """Whether this process may run on more than one CPU."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


def _both_sides(task, concurrent):
    """``(task(0), task(1))``, side 1 on the ``_REVERSE`` thread if ``concurrent``.

    Both tasks have finished when this returns or raises; an exception in
    either propagates, the calling thread's first. Neither task may write
    what the other reads or writes; then the results do not depend on
    ``concurrent``.
    """
    if not concurrent:
        return task(0), task(1)
    reverse = _REVERSE.submit(task, 1)
    try:
        return task(0), reverse.result()
    finally:
        wait((reverse,))


def run_graph_bidirectional_batch(x_flat, g_flat, lengths, fwd, bwd):
    """Bidirectional graph-gated pass over a padded batch: (B * n_max, 2H)."""
    return bidirectional(x_flat, g_flat, lengths, fwd, bwd)


def run_plain_bidirectional_batch(x_flat, lengths, fwd, bwd):
    """Bidirectional plain-LSTM pass over a padded batch: (B * n_max, 2H)."""
    return bidirectional(x_flat, None, lengths, fwd, bwd)
