"""Tests for the linear-chain CRF against exhaustive enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from syntag import autodiff as ad
from syntag import crf
from syntag.errors import ContractError, DimensionError
from syntag.gradcheck import check_gradients


def _zero_trans(L):
    """Effective transitions with zero learnable part (structural mask kept)."""
    rng = np.random.default_rng(0)
    p = crf.CrfParams(L, 4, rng)
    p.transitions.data[...] = 0.0
    return p.effective_transitions()


def _random_instance(rng, n, L):
    em = ad.Tensor(rng.uniform(-2, 2, (n, L)), requires_grad=True)
    p = crf.CrfParams(L, 4, rng)
    p.transitions.data[...] = rng.uniform(-1, 1, (L + 2, L + 2))
    return crf.TagLattice(n, em), p.effective_transitions()


class TestScoreSequence:
    """The enumeration oracle's path scores, and the loss's label check."""

    def test_single_token_zero_transitions(self):
        lat = crf.TagLattice(1, ad.constant([[2.0, 5.0]]))
        score = reference.score_sequence(lat, _zero_trans(2), [1])
        assert score.item() == 5.0

    def test_two_tokens_zero_transitions(self):
        lat = crf.TagLattice(2, ad.constant([[1.0, 0.0], [0.0, 3.0]]))
        assert reference.score_sequence(lat, _zero_trans(2), [0, 1]).item() == 4.0

    def test_matches_scalar_summation(self):
        rng = np.random.default_rng(1)
        n, L = 4, 3
        lat, trans = _random_instance(rng, n, L)
        y = [int(rng.integers(L)) for _ in range(n)]
        got = reference.score_sequence(lat, trans, y).item()
        t = trans.data
        ref = t[L, y[0]] + t[y[-1], L + 1]
        for s in range(n):
            ref += lat.emissions.data[s, y[s]]
            if s > 0:
                ref += t[y[s - 1], y[s]]
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_label_out_of_range(self):
        lat = crf.TagLattice(1, ad.constant([[0.0, 0.0]]))
        with pytest.raises(ContractError, match="sentence 0"):
            reference.nll(lat, _zero_trans(2), [5])


def _tied_arrays(data, em_shape, L):
    """Small-integer emissions and masked transitions: exact ties are common."""
    small = st.integers(-2, 2)
    em = data.draw(arrays(np.int64, em_shape, elements=small), label="em")
    learned = data.draw(arrays(np.int64, (L + 2, L + 2), elements=small),
                        label="trans")
    p = crf.CrfParams(L, 4, np.random.default_rng(0))
    p.transitions.data[...] = learned
    return em.astype(np.float64), p.effective_transitions().data


class TestLogPartition:
    def test_uniform_single_token(self):
        lat = crf.TagLattice(1, ad.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(
            reference.log_partition(lat, _zero_trans(2)).item(), np.log(2.0),
            rtol=1e-12)

    def test_single_token_logsumexp(self):
        a, b = 1.3, -0.4
        lat = crf.TagLattice(1, ad.constant([[a, b]]))
        np.testing.assert_allclose(
            reference.log_partition(lat, _zero_trans(2)).item(),
            np.logaddexp(a, b), rtol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            L = int(rng.integers(1, 6))
            lat, trans = _random_instance(rng, n, L)
            got = reference.log_partition(lat, trans).item()
            want, _, _ = reference.brute_force(lat, trans)
            assert abs(got - want) < 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        lat, trans = _random_instance(rng, 4, 3)
        base = reference.log_partition(lat, trans).item()
        path, _ = crf.viterbi(lat, trans)
        shifted = lat.emissions.data.copy()
        shifted[2] += 7.5
        lat2 = crf.TagLattice(4, ad.constant(shifted))
        np.testing.assert_allclose(
            reference.log_partition(lat2, trans).item(), base + 7.5, rtol=1e-10)
        path2, _ = crf.viterbi(lat2, trans)
        assert path == path2

    def test_gradient_is_marginals(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            L = int(rng.integers(2, 5))
            lat, trans = _random_instance(rng, n, L)
            with ad.Tape():
                z = reference.log_partition(lat, trans)
            ad.backward(z)
            marg = reference.brute_force(lat, trans)[2]
            np.testing.assert_allclose(lat.emissions.grad, marg, atol=1e-6)


class TestNll:
    def test_single_label_world_has_zero_loss(self):
        rng = np.random.default_rng(5)
        lat = crf.TagLattice(3, ad.constant(rng.normal(size=(3, 1))))
        p = crf.CrfParams(1, 4, rng)
        loss = reference.nll(lat, p.effective_transitions(), [0, 0, 0])
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_dominant_margin_drives_loss_to_zero(self):
        em = np.zeros((3, 3))
        em[:, 1] = 50.0
        lat = crf.TagLattice(3, ad.constant(em))
        loss = reference.nll(lat, _zero_trans(3), [1, 1, 1])
        assert 0.0 <= loss.item() < 1e-8

    def test_exp_minus_nll_is_brute_force_probability(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            L = int(rng.integers(1, 5))
            lat, trans = _random_instance(rng, n, L)
            y = [int(rng.integers(L)) for _ in range(n)]
            loss = reference.nll(lat, trans, y).item()
            assert loss >= -1e-10
            scores, seqs = reference.enumerate_scores(lat, trans)
            m = scores.max()
            probs = np.exp(scores - m)
            probs /= probs.sum()
            row = np.flatnonzero((seqs == np.array(y)).all(axis=1))[0]
            np.testing.assert_allclose(np.exp(-loss), probs[row], rtol=1e-8)

    def test_normalization_identity(self):
        rng = np.random.default_rng(7)
        lat, trans = _random_instance(rng, 4, 3)
        z = reference.log_partition(lat, trans).item()
        scores, _ = reference.enumerate_scores(lat, trans)
        np.testing.assert_allclose(np.exp(scores - z).sum(), 1.0, atol=1e-8)


class TestViterbi:
    def test_zero_transitions_is_per_position_argmax(self):
        em = np.array([[3.0, 3.0, 1.0], [0.0, 2.0, 5.0]])
        lat = crf.TagLattice(2, ad.constant(em))
        path, score = crf.viterbi(lat, _zero_trans(3))
        assert path == [0, 2]  # tie at position 0 goes to the lowest id
        np.testing.assert_allclose(score, 3.0 + 5.0)

    def test_single_label(self):
        lat = crf.TagLattice(3, ad.constant(np.zeros((3, 1))))
        path, _ = crf.viterbi(lat, _zero_trans(1))
        assert path == [0, 0, 0]

    def test_full_tie_gives_all_zeros(self):
        lat = crf.TagLattice(4, ad.constant(np.zeros((4, 3))))
        path, _ = crf.viterbi(lat, _zero_trans(3))
        assert path == [0, 0, 0, 0]

    def test_matches_brute_force_on_perturbed_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            L = int(rng.integers(1, 6))
            lat, trans = _random_instance(rng, n, L)
            # tiny jitter makes exact score ties measure-zero
            lat.emissions.data += rng.uniform(0, 1e-7, lat.emissions.data.shape)
            path, score = crf.viterbi(lat, trans)
            _, best, _ = reference.brute_force(lat, trans)
            assert path == best
            ref = reference.score_sequence(lat, trans, path).item()
            np.testing.assert_allclose(score, ref, rtol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_with_exact_ties(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        L = data.draw(st.integers(1, 3), label="L")
        em, trans = _tied_arrays(data, (n, L), L)
        lat = crf.TagLattice(n, ad.constant(em))
        path, score = crf.viterbi(lat, trans)
        _, best, _ = reference.brute_force(lat, trans)
        assert path == best
        scores, _ = reference.enumerate_scores(lat, trans)
        assert score == scores.max()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_matches_single_sentences(self, data):
        L = data.draw(st.integers(1, 3), label="L")
        lengths = data.draw(st.lists(st.integers(1, 5), min_size=1,
                                     max_size=4), label="lengths")
        n_max = max(lengths) + data.draw(st.integers(0, 1), label="extra")
        em, trans = _tied_arrays(data, (len(lengths), n_max, L), L)
        paths, scores = crf.viterbi_batch(em, lengths, trans)
        for b, n in enumerate(lengths):
            lat = crf.TagLattice(n, ad.constant(em[b, :n]))
            _, best, _ = reference.brute_force(lat, trans)
            assert paths[b] == best
            assert scores[b] == reference.enumerate_scores(lat, trans)[0].max()
            alone, score = crf.viterbi_batch(em[b:b + 1, :n], [n], trans)
            assert alone == [paths[b]]
            assert score.tobytes() == scores[b:b + 1].tobytes()

    def test_structural_mask_blocks_start_stop(self):
        rng = np.random.default_rng(9)
        p = crf.CrfParams(3, 4, rng)
        eff = p.effective_transitions().data
        assert np.all(np.isinf(eff[:, p.start]) & (eff[:, p.start] < 0))
        assert np.all(np.isinf(eff[p.stop, :]) & (eff[p.stop, :] < 0))


class TestBatch:
    def test_batch_nll_matches_single_sentences(self):
        rng = np.random.default_rng(10)
        L = 4
        p = crf.CrfParams(L, 4, rng)
        p.transitions.data[...] = rng.uniform(-1, 1, (L + 2, L + 2))
        trans = p.effective_transitions()
        lengths = [3, 5, 1]
        n_max = max(lengths)
        ems = [rng.uniform(-2, 2, (n, L)) for n in lengths]
        golds = [[int(rng.integers(L)) for _ in range(n)] for n in lengths]
        flat = np.zeros((len(lengths) * n_max, L))
        gold_pad = np.zeros((len(lengths), n_max), dtype=int)
        for b, n in enumerate(lengths):
            flat[b * n_max: b * n_max + n] = ems[b]
            gold_pad[b, :n] = golds[b]
        batch_loss = crf.nll_batch(ad.constant(flat), lengths, trans, gold_pad)
        singles = [
            reference.nll(crf.TagLattice(n, ad.constant(ems[b])), trans,
                          golds[b]).item()
            for b, n in enumerate(lengths)
        ]
        np.testing.assert_allclose(batch_loss.item(), np.mean(singles), rtol=1e-12)

    def test_padding_does_not_leak_gradients(self):
        rng = np.random.default_rng(11)
        L = 3
        p = crf.CrfParams(L, 4, rng)
        trans = p.effective_transitions()
        n_max = 4
        em = ad.Tensor(rng.uniform(-1, 1, (n_max, L)), requires_grad=True)
        gold = np.zeros((1, n_max), dtype=int)
        with ad.Tape():
            loss = crf.nll_batch(em, [2], trans, gold)
        ad.backward(loss)
        np.testing.assert_array_equal(em.grad[2:], 0.0)


    @pytest.mark.parametrize("lengths", [[4, 0], [4, 9], [4], [[4, 4]]])
    def test_nll_rejects_lengths_that_do_not_fit(self, lengths):
        rng = np.random.default_rng(15)
        em = ad.constant(rng.uniform(-1, 1, (2 * 4, 3)))
        trans = crf.CrfParams(3, 4, rng).effective_transitions()
        with pytest.raises(DimensionError, match="lengths"):
            crf.nll_batch(em, lengths, trans, np.zeros((2, 4), dtype=int))
        with pytest.raises(DimensionError, match="lengths"):
            crf.viterbi_batch(em.data.reshape(2, 4, 3), lengths, trans)

    def test_nll_one_token_sentence(self):
        rng = np.random.default_rng(16)
        em = rng.uniform(-1, 1, (1, 3))
        trans = crf.CrfParams(3, 4, rng).effective_transitions()
        t = trans.data
        loss = crf.nll_batch(ad.constant(em), [1], trans, [[2]]).item()
        log_z = np.logaddexp.reduce(t[3, :3] + em[0] + t[:3, 4])
        np.testing.assert_allclose(loss, log_z - (t[3, 2] + em[0, 2] + t[2, 4]),
                                   rtol=1e-12)

    def test_constrained_mixed_lengths_match_single_sentences(self):
        names = ["O", "B-X", "I-X", "E-X", "S-X"]
        idx = {n: i for i, n in enumerate(names)}
        rng = np.random.default_rng(14)
        p = crf.CrfParams(5, 4, rng, bioes_labels=names)
        trans = p.effective_transitions()
        golds = [["S-X"], ["B-X", "I-X", "E-X", "O", "S-X"], ["O", "B-X", "E-X"]]
        lengths = [len(y) for y in golds]
        n_max = max(lengths)
        ems = [rng.uniform(-2, 2, (n, 5)) for n in lengths]
        flat = np.zeros((len(golds) * n_max, 5))
        gold_pad = np.zeros((len(golds), n_max), dtype=int)
        for b, n in enumerate(lengths):
            flat[b * n_max: b * n_max + n] = ems[b]
            gold_pad[b, :n] = [idx[y] for y in golds[b]]
        batch_loss = crf.nll_batch(ad.constant(flat), lengths, trans, gold_pad)
        singles = [
            reference.nll(crf.TagLattice(n, ad.constant(ems[b])), trans,
                          gold_pad[b, :n]).item()
            for b, n in enumerate(lengths)
        ]
        assert np.all(np.isfinite(singles))
        np.testing.assert_allclose(batch_loss.item(), np.mean(singles), rtol=1e-12)


def _padded_case(rng, lengths, L, n_max=None, constrained=False):
    """Random padded emissions and learnable transitions for one batch."""
    n_max = n_max or max(lengths)
    names = ["O", "B-X", "I-X", "E-X", "S-X"] if constrained else None
    p = crf.CrfParams(L, 4, rng, bioes_labels=names)
    p.transitions.data[...] = rng.uniform(-1, 1, (L + 2, L + 2))
    em = ad.Tensor(rng.uniform(-2, 2, (len(lengths) * n_max, L)),
                   requires_grad=True)
    return em, p


class TestForwardBackwardNode:
    """log_partition_batch's adjoint is forward-backward; the loss is one node."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_emission_gradient_is_brute_force_marginals(self, data):
        constrained = data.draw(st.booleans(), label="constrained")
        L = 5 if constrained else data.draw(st.integers(1, 4), label="L")
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=1,
                                     max_size=3), label="lengths")
        n_max = max(lengths) + data.draw(st.integers(0, 1), label="extra")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        em, p = _padded_case(np.random.default_rng(seed), lengths, L, n_max,
                             constrained)
        with ad.Tape():
            trans = p.effective_transitions()
            log_z = reference.log_partition_batch(em, lengths, trans)
            total = reference.total(log_z)
        ad.backward(total)
        grad = em.grad.reshape(len(lengths), n_max, L)
        rows = em.data.reshape(len(lengths), n_max, L)
        for b, n in enumerate(lengths):
            lat = crf.TagLattice(n, ad.constant(rows[b, :n]))
            marg = reference.brute_force(lat, trans)[2]
            np.testing.assert_allclose(grad[b, :n], marg, atol=1e-10)
            assert np.all(grad[b, :n][marg == 0.0] == 0.0)
            assert np.all(grad[b, n:] == 0.0)
        assert np.all(np.isfinite(p.transitions.grad))
        assert np.all(p.transitions.grad[np.isinf(p.structural_mask)] == 0.0)

    def test_finite_differences_for_transitions_and_emissions(self):
        rng = np.random.default_rng(15)
        lengths = [4, 1, 3]
        em, p = _padded_case(rng, lengths, 3, n_max=5)
        w = ad.constant(rng.uniform(0.5, 2.0, len(lengths)))

        def loss():
            trans = p.effective_transitions()
            return reference.total(
                w * reference.log_partition_batch(em, lengths, trans))

        report = check_gradients(loss, {"em": em, "transitions": p.transitions})
        assert report.max_rel_err < 1e-6, report.per_param
        with ad.Tape():
            total = loss()
        ad.backward(total)
        d_trans = p.transitions.grad
        assert np.all(d_trans[p.start, :3] > 0.0)  # START row
        assert np.all(d_trans[:3, p.stop] > 0.0)  # STOP column
        grad = em.grad.reshape(3, 5, 3)
        for b, n in enumerate(lengths):
            assert np.all(grad[b, n:] == 0.0)

    def test_stable_at_large_emissions(self):
        rng = np.random.default_rng(16)
        lengths = [4, 2]
        em, p = _padded_case(rng, lengths, 3)
        em.data *= 100.0
        with ad.Tape():
            trans = p.effective_transitions()
            log_z = reference.log_partition_batch(em, lengths, trans)
            total = reference.total(log_z)
        ad.backward(total)
        grad = em.grad.reshape(2, 4, 3)
        for b, n in enumerate(lengths):
            lat = crf.TagLattice(n, ad.constant(em.data.reshape(2, 4, 3)[b, :n]))
            want, _, _ = reference.brute_force(lat, trans)
            np.testing.assert_allclose(log_z.data[b], want, rtol=1e-12)
            np.testing.assert_allclose(
                grad[b, :n], reference.brute_force(lat, trans)[2], atol=1e-10)
        assert np.all(np.isfinite(em.grad))

    def test_node_count_does_not_grow_with_length(self):
        counts = []
        for n_max in (5, 50):
            rng = np.random.default_rng(17)
            lengths = [n_max, 3, 1]
            em, p = _padded_case(rng, lengths, 4, n_max)
            gold = np.zeros((len(lengths), n_max), dtype=int)
            with ad.Tape() as tape:
                crf.nll_batch(em, lengths, p.effective_transitions(), gold)
            counts.append(len(tape._nodes))
        assert counts == [2, 2]  # effective_transitions' add, then the loss

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_loss_and_gradients_match_enumeration(self, data):
        """nll_batch against every label sequence of each sentence.

        Batches mix lengths and padding; the first gold path repeats the
        bigram (0, 0), and gold transitions repeat across sentences too.
        """
        constrained = data.draw(st.booleans(), label="constrained")
        L = 5 if constrained else data.draw(st.integers(1, 3), label="L")
        lengths = [data.draw(st.integers(3, 4), label="repeat length")]
        lengths += data.draw(st.lists(st.integers(1, 4), max_size=2),
                             label="lengths")
        n_max = max(lengths) + data.draw(st.integers(0, 1), label="extra")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        em, p = _padded_case(np.random.default_rng(seed), lengths, L, n_max,
                             constrained)
        trans = ad.Tensor(p.effective_transitions().data, requires_grad=True)
        rows = em.data.reshape(len(lengths), n_max, L)
        gold = np.zeros((len(lengths), n_max), dtype=int)
        want_loss, want_em = 0.0, np.zeros_like(rows)
        want_trans = np.zeros_like(trans.data)
        for b, n in enumerate(lengths):
            lat = crf.TagLattice(n, ad.constant(rows[b, :n]))
            scores, seqs = reference.enumerate_scores(lat, trans)
            log_z, _, marg = reference.brute_force(lat, trans)
            # Label 0 (O when constrained) may follow itself, START and STOP.
            k = 0 if b == 0 else data.draw(
                st.sampled_from(np.flatnonzero(np.isfinite(scores)).tolist()),
                label="gold")
            gold[b, :n] = seqs[k]
            weights = np.exp(scores - log_z)
            expected = sum(w * reference.transition_counts(seq, L)
                           for w, seq in zip(weights, seqs) if w > 0.0)
            want_loss += log_z - scores[k]
            want_em[b, :n] = marg - (np.arange(L) == seqs[k][:, None])
            want_trans += expected - reference.transition_counts(seqs[k], L)
        batch = len(lengths)
        with ad.Tape():
            loss = crf.nll_batch(em, lengths, trans, gold)
        ad.backward(loss)
        np.testing.assert_allclose(loss.item(), want_loss / batch, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(em.grad.reshape(rows.shape), want_em / batch,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(trans.grad, want_trans / batch, rtol=0,
                                   atol=1e-10)


class TestScaledForwardBackward:
    """The scaled forward-backward against the log-space pass, and its limits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_log_space_pass(self, data):
        types = data.draw(st.integers(0, 2), label="entity types")  # 0: unconstrained
        names = ["O"] + [f"{kind}-{name}" for name in "XY"[:types]
                         for kind in "BIES"] if types else None
        L = len(names) if types else data.draw(st.integers(1, 9), label="L")
        lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=5),
                            label="lengths")
        n_max = min(12, max(lengths) + data.draw(st.integers(0, 2), label="extra"))
        em_scale = data.draw(st.floats(0, 100), label="em scale")
        t_scale = data.draw(st.floats(0, 50), label="t scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        em = rng.uniform(-em_scale, em_scale, (len(lengths), n_max, L))
        p = crf.CrfParams(L, 4, rng, bioes_labels=names)
        p.transitions.data[...] = rng.uniform(-t_scale, t_scale, (L + 2, L + 2))
        t = p.effective_transitions().data
        g = rng.uniform(-2, 2, len(lengths))
        log_z, adjoint = crf.log_partition_batch(em, lengths, t)
        want_z, want_adjoint = reference.log_space_partition(em, lengths, t)
        # Probability space carries log Z to about n ulps of 1, not of log Z,
        # so a log Z that cancels to near 0 is held to 1e-12 absolute.
        np.testing.assert_allclose(log_z, want_z, rtol=1e-12, atol=1e-12)
        for got, want in zip(adjoint(g), want_adjoint(g)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)

    def test_no_allowed_path_gives_minus_inf_and_zero_gradients(self):
        # B-X must be followed by E-X, and neither may stand alone: lengths
        # 1 and 3 have no path, length 2 has exactly B-X E-X.
        p = crf.CrfParams(2, 4, np.random.default_rng(18),
                          bioes_labels=["B-X", "E-X"])
        t = p.effective_transitions().data
        em = np.random.default_rng(19).uniform(-2, 2, (3, 4, 2))
        g = np.array([1.0, 0.5, 2.0])
        for partition in (reference.log_space_partition, crf.log_partition_batch):
            log_z, adjoint = partition(em, [1, 2, 3], t)
            d_em, d_trans = adjoint(g)
            assert log_z[0] == log_z[2] == -np.inf
            np.testing.assert_allclose(log_z[1], em[1, 0, 0] + em[1, 1, 1]
                                       + t[2, 0] + t[0, 1] + t[1, 3], rtol=1e-12)
            assert np.all(d_em[[0, 2]] == 0.0)
            np.testing.assert_allclose(d_em[1, :2], [[0.5, 0.0], [0.0, 0.5]],
                                       rtol=1e-12)
            counts = np.zeros((4, 4))
            counts[[2, 0, 1], [0, 1, 3]] = 0.5  # START -> B-X -> E-X -> STOP
            np.testing.assert_allclose(d_trans, counts, rtol=0, atol=1e-15)
            log_z, adjoint = partition(em[[0, 2]], [1, 3], t)
            assert np.all(log_z == -np.inf)
            d_em, d_trans = adjoint(g[[0, 2]])
            assert np.all(d_em == 0.0) and np.all(d_trans == 0.0)

    def test_transitions_beyond_float64_range_give_non_finite_loss(self):
        # Every transition but START -> 0 sits 800 below it: exp(-800) is 0
        # in float64, so each sentence loses every path. The log-space pass
        # still finds a finite log Z; the loss must not pass for one.
        rng = np.random.default_rng(20)
        p = crf.CrfParams(3, 4, rng)
        p.transitions.data[p.start, 0] = 800.0
        trans = p.effective_transitions()
        em = rng.uniform(-1, 1, (2 * 4, 3))
        loss = crf.nll_batch(ad.constant(em), [4, 1], trans,
                             np.zeros((2, 4), dtype=int))
        assert not np.isfinite(loss.item())
        want, _ = reference.log_space_partition(em.reshape(2, 4, 3), [4, 1],
                                                trans.data)
        assert np.all(np.isfinite(want))


class TestSchemeConstraints:
    def test_constrained_params_block_invalid_bigrams(self):
        rng = np.random.default_rng(12)
        names = ["O", "B-X", "I-X", "E-X", "S-X"]
        p = crf.CrfParams(5, 4, rng, bioes_labels=names)
        eff = p.effective_transitions().data
        idx = {n: i for i, n in enumerate(names)}
        assert eff[idx["O"], idx["I-X"]] == -np.inf
        assert eff[idx["B-X"], idx["O"]] == -np.inf
        assert eff[idx["B-X"], idx["I-X"]] > -np.inf
        assert eff[idx["S-X"], idx["O"]] > -np.inf
        assert eff[p.start, idx["E-X"]] == -np.inf
        assert eff[idx["B-X"], p.stop] == -np.inf

    def test_constrained_viterbi_emits_valid_sequences(self):
        rng = np.random.default_rng(13)
        names = ["O", "B-X", "I-X", "E-X", "S-X"]
        p = crf.CrfParams(5, 4, rng, bioes_labels=names)
        trans = p.effective_transitions()
        from syntag.data import validate_labels
        for _ in range(25):
            n = int(rng.integers(1, 7))
            lat = crf.TagLattice(n, ad.constant(rng.uniform(-3, 3, (n, 5))))
            path, _ = crf.viterbi(lat, trans)
            validate_labels([names[i] for i in path], "bioes")
