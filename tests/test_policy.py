import itertools
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

import hsrl.autodiff as ad
from hsrl.checkpoint import CHECKPOINT_MAGIC, load_tensors, save_tensors
from hsrl.critic import CriticConfig
from hsrl.encoder import EncoderConfig, encode, encode_batch, history_arrays
from hsrl.errors import (ContractError, DataError, FormatError, ShapeError,
                         UnknownItemError)
from hsrl.policy import (PolicyConfig, PolicyOutput, PolicyParams, _draw, _raw_scores,
                         _top_k_rows, forward, per_item_log_probs, select_slate)
from hsrl.tokenizer import SidIndex
from hsrl.trainer import Agent, TrainConfig

from gradcheck import check_gradients


def _params(vocab=(4, 4, 4), d_model=8, n_items=20, seed=1, **kw):
    cfg = PolicyConfig(n_items=n_items, vocab_sizes=vocab, d_model=d_model,
                       embed_dim=d_model, **kw)
    return PolicyParams(cfg, np.random.default_rng(seed))


def _output(params, history=((3, 1), (5, 0), (7, 1)), **kw):
    c0 = encode(params.encoder, history)
    return forward(params, c0, **kw)


def _manual_output(level_logits):
    """PolicyOutput built from explicit logits, bypassing the network."""
    from hsrl.policy import PolicyOutput

    probs, log_probs = [], []
    for logits in level_logits:
        x = ad.constant(np.asarray(logits, dtype=float))
        p, log_p = ad.softmax_and_log(x)
        probs.append(p)
        log_probs.append(log_p)
    traj = [ad.constant(np.zeros(4)) for _ in range(len(level_logits) + 1)]
    return PolicyOutput(probs, log_probs, traj,
                        tuple(len(l) for l in level_logits))


# ---------------------------------------------------------------------------
# state encoding
# ---------------------------------------------------------------------------


def test_empty_history_zero_profile_is_start_vector():
    # a new tensor holding the start bytes: the optimizer updates `start` in
    # place, and an encoding must not move with it
    params = _params()
    start = params.encoder.start
    c0 = encode(params.encoder, ())
    assert c0 is not start and not np.shares_memory(c0.data, start.data)
    assert c0.data.tobytes() == start.data.tobytes()


def test_encode_and_encode_batch_name_the_same_first_unknown_item():
    enc = _params(n_items=5, history_window=2).encoder
    # item 9 falls out of the window of 2; 7 is the first unknown item left
    states = [((1, 1),), ((9, 1), (2, 0), (7, 1)), ((8, 1),)]
    for call in (lambda: encode(enc, states[1]), lambda: encode_batch(enc, states),
                 lambda: history_arrays(enc.cfg, states)):
        with pytest.raises(UnknownItemError) as caught:
            call()
        assert caught.value.args == ("item 7 outside embedding table",)


def _loop_history_arrays(cfg, states):
    """The per-entry fill `history_arrays` replaced, with its item check."""
    histories = []
    for state in states:
        history = state[-cfg.history_window:]
        for item, _ in history:
            if not 0 <= item < cfg.n_items:
                raise UnknownItemError(f"item {item} outside embedding table")
        histories.append(history)
    lengths = np.array([len(h) for h in histories], dtype=np.intp)
    n, width = len(histories), int(lengths.max(initial=0))
    ids = np.zeros((n, width), dtype=np.intp)
    bits = np.zeros((n, width), dtype=np.intp)
    for r, history in enumerate(histories):
        for c, (item, bit) in enumerate(history):
            ids[r, c], bits[r, c] = item, bit
    return ids, bits, lengths


def _outcome(call):
    try:
        return call()
    except UnknownItemError as exc:
        return type(exc), exc.args


def test_history_fill_equals_the_per_entry_loop():
    # no states, all-empty histories (width 0), histories past the window,
    # and now and then an item outside the table (the same first bad item
    # must be named)
    fuzz = np.random.default_rng(41)
    for case in range(400):
        cfg = EncoderConfig(n_items=12, history_window=int(fuzz.integers(1, 6)))
        empty_share = [1.0, 0.3, 0.0][case % 3]
        states = []
        for _ in range(int(fuzz.integers(0, 9))):
            length = 0 if fuzz.random() < empty_share else int(
                fuzz.integers(1, cfg.history_window + 4))
            items = fuzz.integers(0, cfg.n_items, length).tolist()
            if length and fuzz.random() < 0.05:
                items[int(fuzz.integers(length))] = int(fuzz.choice([-1, 12, 99]))
            bits = fuzz.integers(0, 2, length).tolist()
            states.append(tuple(zip(items, bits)))
        got = _outcome(lambda: history_arrays(cfg, states))
        want = _outcome(lambda: _loop_history_arrays(cfg, states))
        if isinstance(want[0], type):
            assert got == want
            continue
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.flags.c_contiguous and g.tobytes() == w.tobytes()


def test_history_items_that_are_not_integers_are_rejected():
    # a float item would truncate to another item's row, a float bit to 0 or
    # 1, and a bool among integers would read as 0 or 1
    params = _params(n_items=5)
    for state in (((2.5, 1),), ((1, 1), (2.0, 0)), ((2, 1.0),), ((True, 1), (2, 0)),
                  ((1, 1), (2, False))):
        for call in (lambda: encode(params.encoder, state),
                     lambda: encode_batch(params.encoder, [(), state])):
            with pytest.raises(ContractError, match="must be integers"):
                call()


def test_encode_deterministic():
    params = _params()
    s = ((1, 1), (2, 0))
    assert np.array_equal(encode(params.encoder, s).data,
                          encode(params.encoder, s).data)


def test_encode_unknown_item():
    params = _params(n_items=5)
    with pytest.raises(UnknownItemError):
        encode(params.encoder, ((17, 1),))


def test_encode_gradient_matches_finite_differences():
    params = _params(vocab=(3, 3), d_model=6, n_items=8, seed=4)
    state = ((1, 1), (3, 0), (5, 1))
    enc = params.encoder
    tensors = [enc.item_emb, enc.fb_emb, enc.attn_q, enc.attn_k, enc.attn_v,
               enc.proj_w, enc.proj_b]
    check_gradients(lambda: ad.vsum(encode(params.encoder, state)), tensors,
                    rtol=1e-3, atol=1e-7)


# ---------------------------------------------------------------------------
# forward / HRSM
# ---------------------------------------------------------------------------


def test_forward_minimal_depth():
    params = _params(vocab=(5,))
    out = _output(params)
    assert len(out.trajectory) == 2
    assert len(out.probs) == 1


def test_forward_zero_heads_give_uniform():
    params = _params()
    for w in params.head_w:
        w.data[:] = 0.0
    out = _output(params)
    for p, t_l in zip(out.probs, params.cfg.vocab_sizes):
        assert np.allclose(p.data, 1.0 / t_l, atol=1e-15)


def test_forward_distributions_normalized():
    out = _output(_params(seed=7))
    for p in out.probs:
        assert abs(p.data.sum() - 1.0) < 1e-9
        assert (p.data > 0).all()


def test_onehot_expected_embedding_bitwise():
    params = _params(seed=9)
    out = _output(params, force_onehot={1: 2})
    e = params.tok_emb[1].data.T @ out.probs[1].data
    assert np.array_equal(e, params.tok_emb[1].data[2])


def test_onehot_context_matches_direct_layer_norm():
    params = _params(seed=10)
    out = _output(params, force_onehot={0: 3})
    c0 = out.trajectory[0]
    expected = ad.layer_norm(
        ad.sub(c0, ad.constant(params.tok_emb[0].data[3])),
        params.ln_gain[0], params.ln_bias[0])
    assert np.array_equal(out.trajectory[1].data, expected.data)


def test_trajectory_contexts_zero_mean():
    out = _output(_params(seed=11))
    for c in out.trajectory[1:]:
        # gain=1/bias=0 at init, so refined contexts are layer-norm outputs
        assert abs(c.data.mean()) < 1e-12


def test_flat_mode_reads_context_zero_everywhere():
    params = _params(seed=12)
    c0 = encode(params.encoder, ((3, 1),))
    out = forward(params, c0, flat=True)
    for c in out.trajectory:
        assert np.array_equal(c.data, c0.data)
    for lvl, p in enumerate(out.probs):
        logits = params.head_w[lvl].data @ c0.data
        e = np.exp(logits - logits.max())
        assert np.allclose(p.data, e / e.sum(), atol=1e-15)


# ---------------------------------------------------------------------------
# SID log-likelihood: `per_item_log_probs` of one SID
# ---------------------------------------------------------------------------


def _numpy_forward(params, c0, flat):
    """The policy recursion for one context, in plain numpy: (probs,
    log-probs, trajectory)."""
    probs, log_probs, trajectory, c = [], [], [c0], c0
    for w, emb, gain, bias in zip(params.head_w, params.tok_emb,
                                  params.ln_gain, params.ln_bias):
        logits = w.data @ c
        log_probs.append(logits - np.log(np.exp(logits).sum()))
        probs.append(np.exp(log_probs[-1]))
        if not flat:
            x = c - emb.data.T @ probs[-1]
            c = gain.data * (x - x.mean()) / np.sqrt(x.var() + 1e-5) + bias.data
        trajectory.append(c)
    return probs, log_probs, trajectory


@pytest.mark.parametrize("flat", [False, True])
def test_forward_block_rows_match_forward(flat):
    # a block of contexts: each row against the same forward of that context
    # alone and against the recursion in plain numpy
    params = _params(seed=4)
    states = [(), ((3, 1), (5, 0), (7, 1)), ((9, 0),)]
    c0 = encode_batch(params.encoder, states)
    out = forward(params, c0, flat=flat)
    slates = [[(0, 1, 2), (3, 3, 3)], [(1, 0, 2)], [(2, 2, 0), (0, 0, 0), (1, 3, 2)]]
    rows = np.repeat(np.arange(3), [len(s) for s in slates])
    batched = per_item_log_probs(out, sum(slates, []), rows).data
    for r, state in enumerate(states):
        one = _output(params, state, flat=flat)
        plain = _numpy_forward(params, c0.data[r], flat)
        for got, want, ref in [(out.probs, one.probs, plain[0]),
                               (out.log_probs, one.log_probs, plain[1]),
                               (out.trajectory, one.trajectory, plain[2])]:
            for g, w, x in zip(got, want, ref):
                assert np.abs(g.data[r] - w.data).max() <= 1e-12
                assert np.abs(g.data[r] - x).max() <= 1e-12
        lp = per_item_log_probs(one, slates[r]).data
        assert np.abs(batched[rows == r] - lp).max() <= 1e-12
        assert np.abs(lp - [sum(plain[1][lvl][z] for lvl, z in enumerate(sid))
                             for sid in slates[r]]).max() <= 1e-12


def test_sid_log_probs_read_flat_log_probs_and_a_block_needs_the_rows():
    params = _params(seed=4)
    # one context: the flat view is the log-prob vector itself, so the gather
    # builds one embed per level and one add per level after the first
    one = _output(params)
    start = int(repr(ad._NODE_IDS)[len("count("):-1])
    per_item_log_probs(one, [(1, 2, 0), (0, 1, 3)])
    assert int(repr(ad._NODE_IDS)[len("count("):-1]) - start == 5
    # a block without rows would read whole rows of each (B, T_l) block, or
    # fail past its first rows
    block = forward(params, encode_batch(params.encoder, [(), ((3, 1),), ((9, 0),)]))
    for sids in ([(1, 2, 0), (0, 1, 3)], [(3, 3, 3)]):
        with pytest.raises(ContractError, match="needs the row of each SID"):
            per_item_log_probs(block, sids)


def test_force_onehot_applies_to_every_row_of_a_block():
    params = _params(seed=5)
    c0 = ad.constant(np.random.default_rng(6).normal(size=(3, 8)))
    out = forward(params, c0, force_onehot={1: 2})
    assert np.array_equal(out.probs[1].data, np.tile(np.eye(4)[2], (3, 1)))
    for r in range(3):
        one = forward(params, ad.constant(c0.data[r]), force_onehot={1: 2})
        assert np.abs(out.trajectory[-1].data[r] - one.trajectory[-1].data).max() <= 1e-12


def test_forward_block_gradients_match_finite_differences():
    params = _params(vocab=(3, 4), d_model=5, seed=6)
    c0 = ad.Tensor(np.random.default_rng(7).normal(size=(3, 5)), requires_grad=True)
    probe = ad.constant(np.random.default_rng(8).normal(size=(3, 5)))
    rows, sids = np.array([0, 1, 1, 2]), [(0, 1), (2, 3), (1, 1), (2, 0)]

    def loss():
        out = forward(params, c0)
        return ad.add(ad.vsum(per_item_log_probs(out, sids, rows)),
                      ad.vsum(ad.mul(out.trajectory[-1], probe)))

    heads = params.head_w + params.tok_emb + params.ln_gain + params.ln_bias
    check_gradients(loss, [c0] + heads, rtol=1e-4, atol=1e-7)
    # with the heads detached, only the contexts take a gradient
    for t in heads + [c0]:
        t.zero_grad()
    ad.backward(ad.vsum(ad.mul(forward(params, c0, heads_detached=True)
                               .trajectory[-1], probe)))
    assert c0.grad is not None and all(t.grad is None for t in heads)


@pytest.mark.parametrize("shape", [(2, 3, 8), (7,), (3, 7), ()])
def test_forward_rejects_a_3d_block_or_the_wrong_width(shape):
    with pytest.raises(ShapeError):
        forward(_params(), ad.constant(np.zeros(shape)))


def test_sid_log_prob_uniform_product():
    params = _params(vocab=(64, 64, 64), d_model=8)
    for w in params.head_w:
        w.data[:] = 0.0
    out = _output(params)
    lp = float(per_item_log_probs(out, [(5, 20, 63)]).data[0])
    assert lp == pytest.approx(3 * math.log(1 / 64), abs=1e-12)
    assert math.exp(lp) == pytest.approx(3.8147e-6, rel=1e-4)


def test_sid_log_prob_onehot_is_zero():
    hot = [0.0, 1e4, 0.0, 0.0]
    out = _manual_output([hot, hot, hot])
    assert float(per_item_log_probs(out, [(1, 1, 1)]).data[0]) == 0.0


def test_sid_log_prob_token_out_of_range():
    out = _output(_params())
    with pytest.raises(ContractError, match="token 9 out of range at level 3"):
        per_item_log_probs(out, [(0, 0, 9)])
    with pytest.raises(ContractError, match="token -1 out of range at level 2"):
        per_item_log_probs(out, [(0, -1, 0)])
    with pytest.raises(ContractError, match="SID has 2 tokens, expected 3"):
        per_item_log_probs(out, [(0, 0)])
    with pytest.raises(ContractError, match="ragged"):  # SIDs of two lengths
        per_item_log_probs(out, [(0, 0, 1), (0, 1)])


@pytest.mark.parametrize("sids", [[(1.5, 2, 0)], [(1.0, 2.0, 0.0)], [(True, False, True)],
                                  np.array([[0.5, 1.0, 2.0]])],
                         ids=["float", "whole_floats", "bools", "float_array"])
def test_sid_log_prob_rejects_tokens_that_are_not_integers(sids):
    out = _output(_params())
    with pytest.raises(ContractError, match="not integers"):
        per_item_log_probs(out, sids)


def test_exhaustive_enumeration_sums_to_one():
    for seed in range(20):
        params = _params(seed=seed + 100)
        out = _output(params, history=((seed % 20, 1),))
        total = sum(math.exp(float(per_item_log_probs(out, [z]).data[0]))
                    for z in itertools.product(range(4), repeat=3))
        assert abs(total - 1.0) < 1e-9


def test_sid_log_prob_gradient_through_recursion():
    params = _params(vocab=(3, 3), d_model=6, n_items=8, seed=20)
    state = ((1, 1), (2, 0))
    tensors = ([params.encoder.item_emb, params.encoder.proj_w]
               + params.head_w + params.tok_emb + params.ln_gain + params.ln_bias)

    def loss():
        out = forward(params, encode(params.encoder, state))
        return ad.vsum(per_item_log_probs(out, [(2, 1)]))

    check_gradients(loss, tensors, rtol=1e-3, atol=1e-7)


# ---------------------------------------------------------------------------
# scoring and slates
# ---------------------------------------------------------------------------


def _index():
    return SidIndex([0, 1, 2, 3, 4],
                    [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 1, 1), (3, 0, 1)])


def _sids(candidates):
    """The candidates' token matrix, as `Agent` builds it for its catalog."""
    return _index().sid_matrix(candidates)


ITEMS = [0, 1, 2, 3, 4]


def test_score_collisions_share_score_id_order():
    out = _output(_params(seed=23))
    scores = _raw_scores(out, _sids([3, 1]))
    assert scores[0] == scores[1]
    assert select_slate(out, _sids([3, 1]), [3, 1], 2, "greedy") == [1, 3]


def test_score_argmax_sid_ranks_first():
    params = _params(seed=24)
    out = _output(params)
    argmax_sid = tuple(int(p.data.argmax()) for p in out.probs)
    index = SidIndex([0, 1, 2], [argmax_sid, (0, 0, 0), (1, 2, 3)])
    assert select_slate(out, index.sid_matrix([2, 1, 0]), [2, 1, 0], 1,
                        "greedy") == [0]


def test_score_equals_exp_log_prob():
    out = _output(_params(seed=25))
    index = _index()
    for item, score in zip(ITEMS, _raw_scores(out, _sids(ITEMS))):
        lp = float(per_item_log_probs(out, index.sid_matrix([item])).data[0])
        assert abs(score - math.exp(lp)) < 1e-12


def test_score_missing_candidate():
    # `select_slate` looks no id up: the agent maps its catalog once, when
    # it is built
    policy_cfg = PolicyConfig(n_items=100, vocab_sizes=(4, 4, 4), d_model=8,
                              embed_dim=8)
    critic_cfg = CriticConfig(d_model=8, levels=3, hidden=4)
    for catalog, bad in (([0, 99], 99), ([0, 2 ** 64], 2 ** 64)):
        with pytest.raises(UnknownItemError, match=f"item {bad} has no SID"):
            Agent(policy_cfg, critic_cfg, TrainConfig(), _index(), catalog, 0)


def test_select_rejects_a_token_matrix_of_other_candidates():
    out = _output(_params(seed=26))
    for sids in (_sids([0, 1]), _sids(ITEMS)[:, :2], _sids(ITEMS)[0]):
        with pytest.raises(ShapeError, match="token matrix has shape"):
            select_slate(out, sids, [0, 1, 2], 1, "greedy")


def test_select_all_candidates_greedy_orders_by_score():
    out = _output(_params(seed=27))
    slate = select_slate(out, _sids(ITEMS), ITEMS, 5, "greedy")
    assert slate == [item for item, _ in
                     _loop_score_candidates(out, _index(), ITEMS)]


def test_select_more_than_candidates_rejected():
    out = _output(_params(seed=28))
    for k in (3, 0, -1):
        for mode in ("greedy", "sample"):
            with pytest.raises(ContractError, match=f"slate size {k} is not"):
                select_slate(out, _sids([0, 1]), [0, 1], k, mode,
                             np.random.default_rng(0))


def test_select_greedy_repeatable():
    out = _output(_params(seed=29))
    a = select_slate(out, _sids(ITEMS), ITEMS, 3, "greedy")
    b = select_slate(out, _sids(ITEMS), ITEMS, 3, "greedy")
    assert a == b


def test_select_sample_dominant_candidate_always_present():
    # candidate 0 holds ~all probability mass at every level
    hot = [30.0, 0.0, 0.0, 0.0]
    out = _manual_output([hot, hot, hot])
    sids = np.array([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        assert 0 in select_slate(out, sids, [0, 1, 2, 3], 2, "sample", rng)


def test_select_sample_seed_deterministic():
    out = _output(_params(seed=31))
    a = select_slate(out, _sids(ITEMS), ITEMS, 3, "sample", np.random.default_rng(5))
    b = select_slate(out, _sids(ITEMS), ITEMS, 3, "sample", np.random.default_rng(5))
    assert a == b


def test_select_unknown_mode():
    out = _output(_params(seed=32))
    with pytest.raises(ContractError):
        select_slate(out, _sids([0, 1]), [0, 1], 1, "beam")


# Per-candidate loop versions of slate scoring and `select_slate`: the
# reference the array path must reproduce exactly (same floats, same rng
# calls, same tie rule).


def _lookup(index, item):
    """The SID of one item, by a linear scan of the index's table."""
    return tuple(index.tokens[np.flatnonzero(index.ids == item)[0]].tolist())


def _loop_scores(output, index, candidates):
    z = np.array([_lookup(index, i) for i in candidates], dtype=np.int64)
    scores = np.ones(len(candidates))
    for lvl, p in enumerate(output.probs):
        scores = scores * p.data[z[:, lvl]]
    return scores


def _loop_score_candidates(output, index, candidates):
    candidates = list(candidates)
    scores = _loop_scores(output, index, candidates)
    order = sorted(range(len(candidates)),
                   key=lambda i: (-scores[i], candidates[i]))
    return [(candidates[i], float(scores[i])) for i in order]


def _loop_select_slate(output, index, candidates, k, mode, rng=None):
    candidates = list(candidates)
    if mode == "greedy":
        return [item for item, _ in
                _loop_score_candidates(output, index, candidates)[:k]]
    scores = _loop_scores(output, index, candidates)
    total = scores.sum()
    if total <= 0.0:
        idx = rng.choice(len(candidates), size=k, replace=False)
        return [candidates[i] for i in idx]
    p = scores / total
    nonzero = int((p > 0.0).sum())
    if nonzero >= k:
        idx = rng.choice(len(candidates), size=k, replace=False, p=p)
        return [candidates[i] for i in idx]
    idx = list(rng.choice(len(candidates), size=nonzero, replace=False, p=p))
    rest = sorted(i for i in range(len(candidates)) if p[i] == 0.0)
    idx.extend(rest[:k - nonzero])
    return [candidates[i] for i in idx]


VOCAB = (4, 3, 5)
N_CANDIDATES = 30


def _slate_case(seed, live_tokens):
    """Unsorted, non-contiguous item ids with colliding SIDs, and level
    distributions with tied logits; each level keeps mass only on its first
    `live_tokens[l]` tokens (the rest underflow to exactly 0)."""
    rng = np.random.default_rng(seed)
    ids = [int(i) for i in rng.choice(10_000, size=N_CANDIDATES, replace=False)]
    index = SidIndex(ids, [[int(rng.integers(t)) for t in VOCAB] for _ in ids])
    logits = []
    for t, live in zip(VOCAB, live_tokens):
        row = rng.integers(0, 2, size=t).astype(float)
        row[live:] = -1e4
        logits.append(row)
    return _manual_output(logits), index, ids


# (seed, live tokens per level): full support, partial zero mass, and mass on
# so few SIDs that fewer than k candidates (or none) can be drawn; the last
# case ties 17 candidates at the 5th-best score, some on a shared SID
SLATE_CASES = [(s, (4, 3, 5)) for s in range(4)] + [
    (s, (2, 2, 3)) for s in range(4, 8)] + [
    (s, (1, 1, 1)) for s in range(8, 12)] + [
    (13, (4, 3, 5))]


@pytest.mark.parametrize("seed, live", SLATE_CASES)
def test_array_path_matches_loop_reference(seed, live):
    out, index, ids = _slate_case(seed, live)
    catalog = np.array(ids, dtype=np.int64)  # as `Agent.catalog` holds it
    sids = index.sid_matrix(catalog)         # as `Agent.sids` holds it
    scores = _raw_scores(out, sids)
    assert scores.tobytes() == _loop_scores(out, index, ids).tobytes()
    for k in range(1, N_CANDIDATES + 1):
        for mode in ("greedy", "sample"):
            got = select_slate(out, sids, catalog, k, mode,
                               np.random.default_rng(seed))
            want = _loop_select_slate(out, index, ids, k, mode,
                                      np.random.default_rng(seed))
            assert got == want
            assert all(type(i) is int for i in got)


def test_tie_case_straddles_the_greedy_cut():
    """Greedy must keep the lowest ids among the candidates tied at the k-th
    best score; in the last case that tie crosses the cut at k = 5, and a
    candidate left out shares its SID with one kept."""
    out, index, ids = _slate_case(*SLATE_CASES[-1])
    ranked = _loop_score_candidates(out, index, ids)
    kth = ranked[4][1]
    kept = [i for i, s in ranked[:5] if s == kth]
    dropped = [i for i, s in ranked[5:] if s == kth]
    assert kth > 0.0 and kept and dropped
    assert {_lookup(index, i) for i in kept} & {_lookup(index, i) for i in dropped}
    assert ids != sorted(ids) and max(ids) - min(ids) >= N_CANDIDATES


def _stacked(outputs):
    """The output of a block of contexts whose row r is outputs[r]'s probs."""
    return replace(outputs[0], probs=[
        ad.constant(np.stack([out.probs[lvl].data for out in outputs]))
        for lvl in range(len(outputs[0].probs))])


def test_greedy_block_equals_each_row_alone():
    # every tie case's distributions scored against one index, so the rows
    # hold tied, zero and full-support scores; plus the collision case below
    outputs = [_slate_case(seed, live)[0] for seed, live in SLATE_CASES]
    _, index, ids = _slate_case(*SLATE_CASES[-1])
    catalog = np.array(ids, dtype=np.int64)
    sids = index.sid_matrix(catalog)
    block = _stacked(outputs)
    assert _raw_scores(block, sids).tobytes() == np.stack(
        [_raw_scores(out, sids) for out in outputs]).tobytes()
    for k in range(1, N_CANDIDATES + 1):
        got = select_slate(block, sids, catalog, k, "greedy")
        assert got == [select_slate(out, sids, catalog, k, "greedy")
                       for out in outputs]
        assert all(type(i) is int for slate in got for i in slate)

    collided = [_output(_params(seed=23)), _output(_params(seed=24))]
    got = select_slate(_stacked(collided), _sids([3, 1]), [3, 1], 2, "greedy")
    assert got[0] == [1, 3]         # test_score_collisions_share_score_id_order
    assert got == [select_slate(out, _sids([3, 1]), [3, 1], 2, "greedy")
                   for out in collided]


def _partition_top_k_rows(scores, ids, k):
    """The full-partition top-k `_top_k_rows` replaced: the k-th best score
    by `np.partition`, survivors listed by a 2-D `np.nonzero`."""
    kth = np.partition(scores, -k, axis=1)[:, -k]
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((ids[cols], -scores[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(len(scores)))
    return ids[cols[order[first[:, None] + np.arange(k)]]].tolist()


def test_top_k_rows_equals_the_full_partition():
    # ties, zeros and subnormal scores; k = 1, k = N and any k between, so
    # N is often not a multiple of k; one row and many
    fuzz = np.random.default_rng(37)
    tiny = np.nextafter(0.0, 1.0)
    for case in range(600):
        b = int(fuzz.choice([1, 1, 2, 5, 30]))
        n = int(fuzz.integers(1, 60))
        k = [1, n, int(fuzz.integers(1, n + 1))][case % 3]
        kind = case // 3 % 5
        if kind == 0:
            scores = fuzz.random((b, n))
        elif kind == 1:                                  # ties and zeros
            scores = fuzz.choice([0.0, 0.25, 0.5], size=(b, n))
        elif kind == 2:                                  # subnormals
            scores = fuzz.integers(0, 4, (b, n)) * tiny
        elif kind == 3:                                  # mostly zero
            scores = fuzz.random((b, n)) * (fuzz.random((b, n)) < 0.2)
        else:                                            # all tied
            scores = np.full((b, n), fuzz.choice([0.0, tiny, 0.5]))
        ids = fuzz.permutation(3 * n)[:n].astype(np.int64)
        assert _top_k_rows(scores, ids, k) == _partition_top_k_rows(scores, ids, k)
    scores = fuzz.random((10, 5000)) ** 8                # a catalog-sized block
    ids = np.arange(5000, dtype=np.int64)
    for k in (1, 7, 10, 5000):
        assert _top_k_rows(scores, ids, k) == _partition_top_k_rows(scores, ids, k)


def test_sample_mode_rejects_a_block():
    block = _stacked([_output(_params(seed=33)), _output(_params(seed=34))])
    with pytest.raises(ShapeError, match="sample mode takes the output of one"):
        select_slate(block, _sids([0, 1, 2]), [0, 1, 2], 2, "sample",
                     np.random.default_rng(0))


def test_loop_reference_cases_reach_every_sample_branch():
    mass = []
    for seed, live in SLATE_CASES:
        out, index, ids = _slate_case(seed, live)
        mass.append(int((_loop_scores(out, index, ids) > 0).sum()))
    assert min(mass) == 0                       # all-zero scores
    assert any(0 < m < 5 for m in mass)         # nonzero < k padding
    assert max(mass) == N_CANDIDATES            # full support


def _choice_slate(scores, ids, k, rng):
    """`select_slate`'s sampled branch written with `Generator.choice`."""
    total = scores.sum()
    if total <= 0.0:
        return ids[rng.choice(len(ids), size=k, replace=False)].tolist()
    p = scores / total
    nonzero = int((p > 0.0).sum())
    if nonzero >= k:
        return ids[rng.choice(len(ids), size=k, replace=False, p=p)].tolist()
    picked = rng.choice(len(ids), size=nonzero, replace=False, p=p)
    return ids[np.concatenate([picked, np.flatnonzero(p == 0.0)[:k - nonzero]])].tolist()


def test_sampled_draw_equals_generator_choice():
    # same picks and same generator state afterwards, over 5..6000
    # candidates, slates of 1..5 and four zero patterns
    pads = rounds = 0
    for seed in range(2000):
        rng = np.random.default_rng([seed, 0])
        n, k = int(rng.integers(5, 6001)), int(rng.integers(1, 6))
        # peaked scores draw some candidates twice, so the draw takes rounds
        scores = rng.random(n) ** rng.uniform(1.0, 30.0)
        scores[[np.zeros(n, dtype=bool),                        # full support
                rng.random(n) < rng.uniform(0.0, 0.99),         # scattered zeros
                np.arange(n) >= rng.integers(1, 7),             # mass on the first few
                np.arange(n) < n - rng.integers(1, 7)][seed % 4]] = 0.0  # or the last
        ids = rng.permutation(n) * 7 + 3
        out = PolicyOutput([ad.constant(scores)], [ad.constant(np.zeros(n))], [], (n,))
        got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got = select_slate(out, np.arange(n)[:, None], ids, k, "sample", got_rng)
        assert got == _choice_slate(scores, ids, k, want_rng), seed
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, seed
        nonzero = int((scores > 0.0).sum())
        pads += 0 < nonzero < k
        one_round = np.random.default_rng([seed, 1])
        one_round.random(min(k, nonzero))
        rounds += nonzero > 0 and one_round.bit_generator.state != got_rng.bit_generator.state
    assert pads > 100 and rounds > 100


class _Uniforms:
    """Stands in for a generator: `random(n)` returns the next n values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


def test_sampled_draw_breaks_a_uniform_on_a_cdf_step_as_numpy_does():
    # numpy searches the cdf with side="right": a uniform equal to a step
    # takes the entry after it, so an entry without mass is never drawn;
    # seeded draws almost never land on a step, hence the stand-in
    p = np.array([0.0, 0.5, 0.0, 0.25, 0.25])
    assert _draw(p, 1, _Uniforms([0.0])) == [1]
    assert _draw(p, 1, _Uniforms([0.5])) == [3]
    assert _draw(p, 3, _Uniforms([0.75, 0.75, 0.0, 0.5])) == [4, 1, 3]


def test_sid_matrix_equals_per_item_lookup():
    rng = np.random.default_rng(7)
    ids = rng.choice(10 ** 6, size=50, replace=False)
    index = SidIndex(ids, [rng.integers(0, 9, size=3) for _ in ids])
    query = [int(i) for i in rng.choice(ids, size=80)]  # repeats, any order
    got = index.sid_matrix(query)
    want = np.array([_lookup(index, i) for i in query], dtype=np.int64)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("index, query, bad", [
    (SidIndex([2, 5], [(0,), (1,)]), [2, 3, 5], 3),
    (SidIndex([2, 5], [(0,), (1,)]), [5, -1], -1),
    (SidIndex([2, 5], [(0,), (1,)]), [2, 6], 6),
    (SidIndex([], np.empty((0, 1))), [0], 0),
    (SidIndex([2, 5], [(0,), (1,)]), [2, 7, 2 ** 64], 7),
    (SidIndex([5, 2], [(1,), (0,)]), [5, 2 ** 64], 2 ** 64),
    # a uint64 past int64 is named as asked, not as the int64 it would wrap to
    (SidIndex([-1, 2], [(1,), (0,)]), np.array([2 ** 64 - 1], dtype=np.uint64), 2 ** 64 - 1),
    (SidIndex([2, 5], [(0,), (1,)]), np.array([2, 7, 2 ** 63], dtype=np.uint64), 7),
], ids=["between_ids", "negative", "past_largest", "empty_index",
        "first_of_two_unknown", "past_int64", "uint64_past_int64",
        "first_of_two_unknown_uint64"])
def test_sid_matrix_unknown_ids_raise(index, query, bad):
    with pytest.raises(UnknownItemError, match=f"item {bad} has no SID"):
        index.sid_matrix(query)


@pytest.mark.parametrize("query, bad", [
    ([2.5], "2.5"), ([2, 5.0], "2.0"), ([True], "True"), (np.array([5.0]), "5.0"),
    ([2, True], "True"), ([5, np.False_], "False"), ([2.5, 2 ** 70], "2.5"),
], ids=["float", "whole_float_in_list", "bool", "float_array", "bool_among_ints",
        "numpy_bool_among_ints", "float_before_int_past_uint64"])
def test_sid_matrix_rejects_ids_that_are_not_integers(query, bad):
    # truncated, 2.5 would read item 2's SID
    with pytest.raises(UnknownItemError, match=f"item {bad} has no SID"):
        SidIndex([2, 5], [(0,), (1,)]).sid_matrix(query)


def test_sid_matrix_of_no_ids_is_empty():
    assert SidIndex([2, 5], [(0,), (1,)]).sid_matrix([]).shape == (0, 1)


def test_token_embeddings_can_start_from_codebook():
    from hsrl.tokenizer import Codebook

    rng = np.random.default_rng(0)
    book = Codebook(dim=4, vocab_sizes=(3, 3),
                    centroids=[rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])
    cfg = PolicyConfig(n_items=6, vocab_sizes=(3, 3), d_model=5, embed_dim=5,
                       token_emb_from_codebook=True)
    params = PolicyParams(cfg, np.random.default_rng(1), codebook=book)
    # rows are linear projections of the centroid rows: same pairwise
    # structure up to the projection, and deterministic per seed
    again = PolicyParams(cfg, np.random.default_rng(1), codebook=book)
    for a, b in zip(params.tok_emb, again.tok_emb):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(ContractError):
        PolicyParams(cfg, np.random.default_rng(1))  # codebook required
    # a codebook whose levels differ from the config's is a data error
    deeper = PolicyConfig(n_items=6, vocab_sizes=(3, 3, 3), d_model=5, embed_dim=5,
                          token_emb_from_codebook=True)
    with pytest.raises(DataError, match="codebook vocab sizes"):
        PolicyParams(deeper, np.random.default_rng(1), codebook=book)


def test_item_embeddings_can_start_from_features():
    feats = np.random.default_rng(2).normal(size=(6, 4))
    cfg = PolicyConfig(n_items=6, vocab_sizes=(3, 3), d_model=5, embed_dim=5)
    params = PolicyParams(cfg, np.random.default_rng(3), item_features=feats)
    # feature rows that coincide produce identical embedding rows
    feats2 = feats.copy()
    feats2[1] = feats2[0]
    params2 = PolicyParams(cfg, np.random.default_rng(3), item_features=feats2)
    assert np.array_equal(params2.encoder.item_emb.data[0],
                          params2.encoder.item_emb.data[1])
    assert params.encoder.item_emb.data.shape == (6, 5)


def test_item_feature_rows_must_match_catalog():
    cfg = PolicyConfig(n_items=6, vocab_sizes=(3, 3), d_model=5, embed_dim=5)
    feats = np.random.default_rng(2).normal(size=(5, 4))
    with pytest.raises(DataError):
        PolicyParams(cfg, np.random.default_rng(3), item_features=feats)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_policy_checkpoint_roundtrip_byte_exact(tmp_path):
    params = _params(seed=33)
    path1 = tmp_path / "p1.ckpt"
    path2 = tmp_path / "p2.ckpt"
    save_tensors(path1, {k: v.data for k, v in params.tensors().items()})
    named = load_tensors(path1)
    save_tensors(path2, named)
    assert path1.read_bytes() == path2.read_bytes()
    for k, v in params.tensors().items():
        assert np.array_equal(named[k], v.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"a": np.zeros(3)})
    blob = bytearray(path.read_bytes())
    blob[3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_tensors(path)


def test_checkpoint_truncation_names_block(tmp_path):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"a": np.zeros(3), "bb": np.ones((2, 2))})
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError, match="bb"):
        load_tensors(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"a": np.zeros(3)})
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_tensors(path)


def test_failed_replace_keeps_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"a": np.zeros(3)})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_tensors(path, {"a": np.ones(5)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


def test_checkpoint_scalar_blocks_roundtrip(tmp_path):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"s": np.asarray(2.5), "v": np.arange(3.0)})
    named = load_tensors(path)
    assert named["s"].shape == ()
    assert float(named["s"]) == 2.5


def _crafted_checkpoint(path, blocks):
    """Version-1 checkpoint of (raw name, shape, raw data) blocks, unchecked."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", 1, len(blocks))]
    for raw, shape, data in blocks:
        parts += [struct.pack("<H", len(raw)), raw, struct.pack("<B", len(shape)),
                  struct.pack(f"<{len(shape)}I", *shape), data]
    path.write_bytes(b"".join(parts))


def test_checkpoint_block_size_overflow_is_a_format_error(tmp_path):
    # (2^32-1)^2 overflows a fixed-width product to a negative size
    path = tmp_path / "x.ckpt"
    _crafted_checkpoint(path, [(b"a", (2 ** 32 - 1, 2 ** 32 - 1), b"")])
    with pytest.raises(FormatError, match="truncated while reading block a data"):
        load_tensors(path)


def test_checkpoint_duplicate_block_name_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    one = np.zeros(1, dtype="<f8").tobytes()
    _crafted_checkpoint(path, [(b"a", (1,), one), (b"b", (1,), one),
                               (b"a", (1,), one)])
    with pytest.raises(FormatError, match="block 2: duplicate block name 'a'"):
        load_tensors(path)


def test_checkpoint_non_utf8_block_name_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    _crafted_checkpoint(path, [(b"a", (), np.zeros(1).tobytes()),
                               (b"\xff\xfe", (), np.zeros(1).tobytes())])
    with pytest.raises(FormatError, match="block 1 name is not valid UTF-8"):
        load_tensors(path)


def test_checkpoint_block_with_too_many_dimensions_rejected(tmp_path):
    # a zero extent makes the data empty, so only the rank is wrong
    path = tmp_path / "x.ckpt"
    _crafted_checkpoint(path, [(b"a", (0,) * 70, b"")])
    with pytest.raises(FormatError, match="block a has 70 dimensions"):
        load_tensors(path)
