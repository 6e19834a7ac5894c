import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsrl
import hsrl.autodiff as ad
import hsrl.env as env_module
from hsrl.checkpoint import load_into
from hsrl.encoder import (EncoderConfig, EncoderParams, encode, encode_batch,
                          history_arrays)
from hsrl.env import (CLICK_SIGNAL, NO_CLICK_SIGNAL, EnvConfig, Environment,
                      GroundTruthResponse, LogRecord, ResponseModel,
                      SessionState, SimFitConfig, SynthConfig, _batch_loss,
                      _positive_state, _record_batches, constant_log_loss,
                      fit_response_model, fit_simulators, generate_synthetic,
                      held_out_log_loss, ingest_ml1m_style, load_records,
                      load_response_model, make_user_pool, save_records,
                      save_response_model)
from hsrl.errors import (ContractError, DataError, FormatError, NumericsError,
                         UnknownItemError)
from hsrl.policy import PolicyConfig, PolicyParams
from hsrl.tokenizer import load_embeddings, save_embeddings


class FixedResponse:
    """Responds with caller-chosen click probabilities."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def click_probs(self, session, slate):
        return self.probs[:len(slate)]


def _session(history=((1, 1),), patience=3, step=0, uid=0):
    return SessionState(uid, history, patience, step)


# ---------------------------------------------------------------------------
# step dynamics
# ---------------------------------------------------------------------------


def _step(model, session, slate, cfg, rng):
    return Environment(model, [], cfg).step(session, slate, rng)


def test_step_reward_three_of_nine():
    cfg = EnvConfig(slate_size=9)
    model = FixedResponse([1.0] * 3 + [0.0] * 6)
    _, reward, _, _ = _step(model, _session(), list(range(9)), cfg,
                            np.random.default_rng(0))
    assert reward == pytest.approx(0.2, abs=1e-12)


def test_step_reward_boundaries():
    cfg = EnvConfig(slate_size=4)
    rng = np.random.default_rng(0)
    _, r_all, _, _ = _step(FixedResponse([1.0] * 4), _session(), [0, 1, 2, 3],
                           cfg, rng)
    assert r_all == pytest.approx(CLICK_SIGNAL, abs=1e-15)
    _, r_none, _, _ = _step(FixedResponse([0.0] * 4), _session(), [0, 1, 2, 3],
                            cfg, rng)
    assert r_none == pytest.approx(NO_CLICK_SIGNAL, abs=1e-15)


def test_patience_three_zero_click_steps_terminate():
    cfg = EnvConfig(slate_size=2, patience=3)
    model = FixedResponse([0.0, 0.0])
    session = _session()
    rng = np.random.default_rng(0)
    depth = 0
    done = False
    while not done:
        _, _, session, done = _step(model, session, [0, 1], cfg, rng)
        depth += 1
    assert depth == 3
    assert session.patience == 0


def test_click_refreshes_patience():
    cfg = EnvConfig(slate_size=1, patience=3)
    session = _session(patience=1)
    _, _, nxt, done = _step(FixedResponse([1.0]), session, [5], cfg,
                            np.random.default_rng(0))
    assert not done
    assert nxt.patience == 3


def test_horizon_caps_depth():
    cfg = EnvConfig(slate_size=1, patience=3, horizon=20)
    model = FixedResponse([1.0])
    session = _session()
    rng = np.random.default_rng(0)
    depth = 0
    done = False
    while not done:
        _, _, session, done = _step(model, session, [0], cfg, rng)
        depth += 1
    assert depth == 20


def test_step_on_finished_session_rejected():
    cfg = EnvConfig(slate_size=1)
    session = _session()
    session.done = True
    with pytest.raises(ContractError):
        _step(FixedResponse([1.0]), session, [0], cfg, np.random.default_rng(0))


class _UncalledResponse:
    """Fails any test that reaches the model."""

    def click_probs(self, session, slate):
        raise AssertionError("the model ran")

    click_probs_batch = click_probs


@pytest.mark.parametrize("slates, finished, message", [
    ([[0, 1], [2, 3]], 1, "stepping a finished session"),
    ([[0, 1], [2]], None, "slate has 1 items, expected 2"),
], ids=["finished_session", "wrong_width"])
def test_step_batch_rejects_what_step_rejects_before_the_model(slates, finished,
                                                               message):
    env = Environment(_UncalledResponse(), [], EnvConfig(slate_size=2))
    sessions = [_session(), _session()]
    if finished is not None:
        sessions[finished].done = True
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ContractError) as one:
        env.step(sessions[1], slates[1], rngs[1])
    with pytest.raises(ContractError) as batch:
        env.step_batch(sessions, slates, rngs)
    assert str(batch.value) == str(one.value) == message


def test_an_empty_block_steps_to_nothing_without_the_model():
    env = Environment(_UncalledResponse(), [], EnvConfig(slate_size=2))
    assert env.step_batch([], [], []) == []
    data = generate_synthetic(SynthConfig(n_items=16, n_clusters=2, n_users=4,
                                          slates_per_user=1), 0)
    assert GroundTruthResponse(data).click_probs_batch([], []).shape == (0, 0)


class _BlockResponse:
    """Responds with a caller-chosen (B, k) block of click probabilities."""

    def __init__(self, block):
        self.block = block

    def click_probs(self, session, slate):
        return self.block[0]

    def click_probs_batch(self, sessions, slates):
        return self.block


def _respond_reference(cfg, session, slate, probs, rng):
    """The per-session response formula the block step replaced."""
    feedback = (rng.random(len(slate)) < probs).astype(np.int64)
    signals = np.where(feedback == 1, CLICK_SIGNAL, NO_CLICK_SIGNAL)
    reward = float(signals.mean())
    clicked = tuple((int(i), 1) for i, b in zip(slate, feedback) if b == 1)
    history = (session.state + clicked)[-cfg.history_window:]
    patience = cfg.patience if feedback.any() else session.patience - 1
    step = session.step + 1
    done = patience == 0 or step == cfg.horizon
    return feedback, reward, SessionState(session.user_id, history,
                                          patience, step, done), done


def _assert_same_step(got, want):
    (feedback, reward, nxt, done), (w_feedback, w_reward, w_nxt, w_done) = got, want
    assert feedback.dtype == w_feedback.dtype and feedback.tobytes() == w_feedback.tobytes()
    assert type(reward) is float and reward == w_reward
    assert nxt == w_nxt and done is w_done


def test_block_response_equals_the_per_session_formula():
    # slates of 1 to 20 items, so reward means cross numpy's 8-element
    # pairwise-sum blocks; histories at and past the window, patience 1 and
    # the horizon step; every generator must end where the formula leaves it
    fuzz = np.random.default_rng(2026)
    for _ in range(300):
        k, b = int(fuzz.integers(1, 21)), int(fuzz.integers(1, 9))
        cfg = EnvConfig(slate_size=k, patience=int(fuzz.integers(1, 4)),
                        horizon=int(fuzz.integers(1, 6)),
                        history_window=int(fuzz.integers(1, 6)))
        sessions = [SessionState(
            uid, tuple((int(i), 1) for i in fuzz.integers(
                0, 50, fuzz.integers(0, cfg.history_window + 2))),
            int(fuzz.integers(1, cfg.patience + 1)), int(fuzz.integers(0, cfg.horizon)))
            for uid in range(b)]
        slates = [fuzz.integers(0, 50, k).tolist() for _ in range(b)]
        probs = np.where(fuzz.random((b, k)) < 0.3, fuzz.integers(0, 2, (b, k)),
                         fuzz.random((b, k)))
        seeds = fuzz.integers(0, 2 ** 32, b)
        rngs = [np.random.default_rng(s) for s in seeds]
        want_rngs = [np.random.default_rng(s) for s in seeds]
        got = Environment(_BlockResponse(probs), [], cfg).step_batch(sessions, slates, rngs)
        for r in range(b):
            _assert_same_step(got[r], _respond_reference(cfg, sessions[r], slates[r],
                                                         probs[r], want_rngs[r]))
            assert rngs[r].bit_generator.state == want_rngs[r].bit_generator.state
            # `step` is the block step of a one-session block
            one, want_one = np.random.default_rng(seeds[r]), np.random.default_rng(seeds[r])
            _assert_same_step(
                Environment(_BlockResponse(probs[r:r + 1]), [], cfg).step(
                    sessions[r], slates[r], one),
                _respond_reference(cfg, sessions[r], slates[r], probs[r], want_one))
            assert one.bit_generator.state == want_one.bit_generator.state


def test_slate_items_that_are_not_integers_are_rejected():
    # truncated, item 2.5 would take item 2's click probability
    model = ResponseModel(10, SimFitConfig(embed_dim=4), np.random.default_rng(0))
    for slate in ([2.5, 3], [2.0, 3.0], [True, False], [True, 3], [3, np.True_]):
        with pytest.raises(ContractError, match="ids must be integers"):
            model.click_probs(_session(), slate)
        with pytest.raises(ContractError, match="ids must be integers"):
            model.click_probs_batch([_session()], [slate])


def test_history_keeps_only_clicked_items():
    cfg = EnvConfig(slate_size=3, history_window=10)
    model = FixedResponse([1.0, 0.0, 1.0])
    _, _, nxt, _ = _step(model, _session(history=()), [7, 8, 9], cfg,
                         np.random.default_rng(0))
    assert nxt.state == ((7, 1), (9, 1))


def test_history_window_truncation():
    cfg = EnvConfig(slate_size=4, history_window=5)
    model = FixedResponse([1.0] * 4)
    session = _session(history=tuple((i, 1) for i in range(4)))
    _, _, nxt, _ = _step(model, session, [10, 11, 12, 13], cfg,
                         np.random.default_rng(0))
    assert len(nxt.state) == 5
    assert nxt.state[-1] == (13, 1)


def test_reset_deterministic_and_never_done():
    records = [LogRecord(0, (1, 2), (3, 4), (1, 0)),
               LogRecord(1, (), (5, 6), (0, 1))]
    cfg = EnvConfig(slate_size=2)
    env = Environment(FixedResponse([0.5, 0.5]), make_user_pool(records), cfg)
    a = env.reset(np.random.default_rng(42))
    b = env.reset(np.random.default_rng(42))
    assert (a.user_id, a.state) == (b.user_id, b.state)
    assert a.patience == cfg.patience and a.step == 0 and not a.done


def test_reset_cold_start_user():
    pool = make_user_pool([LogRecord(3, (), (1, 2), (0, 0))])
    env = Environment(FixedResponse([0.5, 0.5]), pool, EnvConfig())
    session = env.reset(np.random.default_rng(0))
    assert session.state == ()
    assert session.patience == EnvConfig().patience


def test_reset_empty_pool():
    with pytest.raises(DataError):
        Environment(FixedResponse([0.5]), [], EnvConfig()).reset(
            np.random.default_rng(0))


# ---------------------------------------------------------------------------
# response model fitting
# ---------------------------------------------------------------------------


def _tiny_records(n_users=8, seed=0, all_positive=False):
    rng = np.random.default_rng(seed)
    records = []
    for uid in range(n_users):
        for _ in range(6):
            slate = tuple(int(i) for i in rng.choice(20, size=3, replace=False))
            labels = ((1, 1, 1) if all_positive
                      else tuple(int(b) for b in rng.random(3) < 0.4))
            records.append(LogRecord(uid, slate[:2], slate, labels))
    return records


def test_fit_empty_records_rejected():
    with pytest.raises(DataError):
        fit_response_model([], 10, SimFitConfig(), 0)


@pytest.mark.parametrize("slate", [(-1, 2), (2, 10)])
def test_click_probs_reject_slate_items_outside_table(slate):
    model = ResponseModel(10, SimFitConfig(embed_dim=4), np.random.default_rng(0))
    with pytest.raises(ContractError):
        model.click_probs(_session(), slate)


_HISTORIES = [(), ((1, 1),), ((4, 1), (9, 1), (2, 1)), tuple((i, 1) for i in range(12))]


def test_response_model_click_probs_batch_matches_each_session():
    model = fit_response_model(_tiny_records(), 20,
                               SimFitConfig(embed_dim=8, epochs=2), 4)
    sessions = [_session(history=h, uid=u) for u, h in enumerate(_HISTORIES)]
    slates = np.random.default_rng(5).integers(0, 20, size=(len(sessions), 3))
    block = model.click_probs_batch(sessions, slates)
    assert block.shape == slates.shape
    for row, session, slate in zip(block, sessions, slates):
        assert np.abs(row - model.click_probs(session, slate)).max() <= 1e-12


def test_ground_truth_click_probs_batch_equals_each_session():
    synth = generate_synthetic(SynthConfig(n_items=40, n_clusters=4, n_users=8,
                                           slates_per_user=1), seed=6)
    truth = GroundTruthResponse(synth)
    sessions = [_session(uid=u) for u in (0, 3, 5, 3, 7)]
    slates = np.random.default_rng(7).integers(0, 40, size=(len(sessions), 4))
    block = truth.click_probs_batch(sessions, slates)
    assert np.array_equal(block, [truth.click_probs(s, slate)
                                  for s, slate in zip(sessions, slates)])


def test_fit_all_positive_labels_majority():
    records = _tiny_records(all_positive=True)
    cfg = SimFitConfig(embed_dim=8, epochs=6)
    model = fit_response_model(records, 20, cfg, 3)
    probs = []
    for rec in records:
        sess = SessionState(rec.user_id,
                            tuple((i, 1) for i in rec.history),
                            3, 0)
        probs.extend(model.click_probs(sess, rec.slate))
    assert np.mean(probs) > 0.5
    assert all(0.0 < p < 1.0 for p in probs)


def test_fit_deterministic():
    records = _tiny_records()
    cfg = SimFitConfig(embed_dim=8, epochs=2)
    m1 = fit_response_model(records, 20, cfg, 5)
    m2 = fit_response_model(records, 20, cfg, 5)
    for k in m1.tensors():
        assert np.array_equal(m1.tensors()[k].data, m2.tensors()[k].data)


def test_fitted_beats_constant_baseline_on_held_out():
    synth = generate_synthetic(SynthConfig(n_items=120, n_users=60,
                                           slates_per_user=10), seed=7)
    split = int(0.8 * len(synth.records))
    model = fit_response_model(synth.records[:split], 120, SimFitConfig(),
                               seed=8, item_features=synth.items.vectors)
    fitted = held_out_log_loss(model, synth.records[split:])
    rate = float(np.mean([y for r in synth.records[:split] for y in r.labels]))
    assert fitted < constant_log_loss(rate, synth.records[split:])


def test_simulator_presets_are_distinct_models():
    synth = generate_synthetic(SynthConfig(n_items=60, n_users=20,
                                           slates_per_user=6), seed=9)
    train_sim, eval_sim = fit_simulators(synth.records, 60, SimFitConfig(epochs=2),
                                         seed=10, item_features=synth.items.vectors)
    assert train_sim is not eval_sim
    diffs = [not np.array_equal(train_sim.tensors()[k].data,
                                eval_sim.tensors()[k].data)
             for k in train_sim.tensors()]
    assert any(diffs)


def test_response_model_checkpoint_roundtrip(tmp_path):
    records = _tiny_records()
    cfg = SimFitConfig(embed_dim=8, epochs=1)
    model = fit_response_model(records, 20, cfg, 5)
    path = tmp_path / "sim.ckpt"
    save_response_model(path, model)
    loaded = load_response_model(path, 20, cfg)
    sess = _session(history=((1, 1), (2, 1)))
    assert np.array_equal(model.click_probs(sess, [1, 2, 3]),
                          loaded.click_probs(sess, [1, 2, 3]))


def _arrays(model):
    return {k: t.data for k, t in model.tensors().items()}


def _one_state_logits(model, u, slate):
    """Reference: logits of the slate's items for the state whose (d,)
    encoding is `u`, scored as a (k, d) @ (d,) product on their own."""
    rows = ad.embed(model.encoder.item_emb, list(slate))
    return ad.add(ad.matmul(rows, u), model.bias)


_FUZZ_HISTORY = st.lists(st.tuples(st.integers(0, 29), st.integers(0, 1)),
                         max_size=12).map(tuple)
_FUZZ_SLATE = st.lists(st.integers(0, 29), min_size=1, max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 3),
       calls=st.lists(st.tuples(_FUZZ_HISTORY, st.booleans(), _FUZZ_SLATE),
                      min_size=1, max_size=8))
def test_click_probs_bytes_equal_the_one_state_formula(seed, calls):
    # histories of 0-12 items against a window of 10; `again` repeats the
    # previous history, so the memo's encoding is read back too
    model = ResponseModel(30, SimFitConfig(embed_dim=8), np.random.default_rng(seed))
    model.bias.data = np.asarray(0.3)
    history = ()
    for fresh, again, slate in calls:
        history = history if again else fresh
        got = model.click_probs(SessionState(0, history, 3, 0), slate)
        with ad.no_grad():
            want = ad.sigmoid(_one_state_logits(
                model, encode(model.encoder, history), slate)).data
        assert got.shape == (len(slate),)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _fresh_probs(model, session, slate):
    """click_probs of a new model holding `model`'s parameters."""
    fresh = ResponseModel(model.n_items, model.cfg, np.random.default_rng(0))
    load_into(fresh.tensors(), _arrays(model), "simulator")
    return fresh.click_probs(session, slate)


def test_click_probs_that_raises_keeps_its_memo():
    model = _mixed_model()
    good = {k: v.copy() for k, v in _arrays(model).items()}
    a = _session(history=((1, 1), (2, 0)))
    probs = model.click_probs(a, [3, 4, 5])
    memo = model._seen
    # finite parameters whose attention scores overflow under no_grad
    load_into(model.tensors(), {**good, "enc/item_emb": good["enc/item_emb"] * 1e200},
              "simulator")
    for session in (a, _session(history=((4, 1),))):
        with pytest.raises(NumericsError):
            model.click_probs(session, [3, 4, 5])
        assert model._seen is memo
    load_into(model.tensors(), good, "simulator")
    assert model.click_probs(a, [3, 4, 5]).tobytes() == probs.tobytes()


def test_click_probs_reuse_the_encoding_only_while_history_and_parameters_hold(
        monkeypatch):
    records, cfg = _tiny_records(), SimFitConfig(embed_dim=8, epochs=1)
    model, *others = [fit_response_model(records, 20, cfg, s) for s in (5, 6, 7)]
    encoded = []
    real_encode = env_module.encode

    def encode_counted(params, state):
        if params is model.encoder:
            encoded.append(state)
        return real_encode(params, state)

    monkeypatch.setattr(env_module, "encode", encode_counted)
    a, b, c = ((1, 1), (2, 1)), ((1, 1), (2, 1), (7, 1)), ((1, 1), (3, 1))
    rng = np.random.default_rng(8)
    # repeated, changed (same length too), reverted and empty histories, a
    # new slate each call
    for history in (a, a, c, b, b, a, (), (), a):
        session, slate = _session(history=history), rng.choice(20, 4, replace=False)
        got = model.click_probs(session, slate)
        assert got.tobytes() == _fresh_probs(model, session, slate).tobytes()
    assert encoded == [a, c, b, a, (), a]

    # new parameters through `load_into`: the next call follows them
    for history, other in zip((a, ()), others):
        session = _session(history=history)
        before = model.click_probs(session, [3, 4, 5])
        load_into(model.tensors(), _arrays(other), "simulator")
        after = model.click_probs(session, [3, 4, 5])
        assert after.tobytes() == _fresh_probs(other, session, [3, 4, 5]).tobytes()
        assert after.tobytes() != before.tobytes()

    # the graph path under gradients still reaches the encoder
    for t in model.tensors().values():
        t.zero_grad()
    u = ad.reshape(encode(model.encoder, a), (1, 8, 1))
    ad.backward(ad.vsum(model._block_logits(u, np.array([[3, 4, 5]]))))
    enc = model.encoder
    assert all(t.grad is not None and t.grad.any() for t in (
        enc.fb_emb, enc.attn_q, enc.attn_k, enc.attn_v, enc.proj_w, enc.proj_b))


@pytest.mark.parametrize("n_items, embed_dim", [(21, 8), (20, 6)])
def test_simulator_checkpoint_that_does_not_fit_names_block(tmp_path, n_items,
                                                             embed_dim):
    path = tmp_path / "sim.ckpt"
    save_response_model(path, fit_response_model(
        _tiny_records(), 20, SimFitConfig(embed_dim=8, epochs=1), 5))
    with pytest.raises(FormatError, match="^simulator checkpoint does not fit "
                                          "this config: block sim/enc/item_emb "):
        load_response_model(path, n_items, SimFitConfig(embed_dim=embed_dim))


# ---------------------------------------------------------------------------
# batched simulator loss against the per-record reference
# ---------------------------------------------------------------------------


def _record_bce(model, rec):
    """Per-item cross-entropy of one record on its own graph, as the
    simulator was fitted before losses were batched."""
    state = tuple((i, 1) for i in rec.history)
    logits = _one_state_logits(model, encode(model.encoder, state), rec.slate)
    labels = ad.constant(np.asarray(rec.labels, dtype=np.float64))
    return ad.sub(ad.softplus(logits), ad.mul(labels, logits))


def _per_record_loss(model, records):
    total = None
    for rec in records:
        loss = ad.vmean(_record_bce(model, rec))
        total = loss if total is None else ad.add(total, loss)
    return ad.scale(total, 1.0 / len(records))


def _mixed_records(n=40, seed=0):
    """Histories of every length 0-10 and slates of lengths 3 and 5."""
    rng = np.random.default_rng(seed)
    records = []
    for r in range(n):
        history = tuple(int(i) for i in rng.integers(0, 30, size=r % 11))
        k = 3 if r % 2 else 5
        slate = tuple(int(i) for i in rng.choice(30, size=k, replace=False))
        labels = tuple(int(y) for y in rng.random(k) < 0.4)
        records.append(LogRecord(r % 7, history, slate, labels))
    return records


def _mixed_model(seed=1):
    """Window 6, shorter than the longest histories; every table trainable."""
    model = ResponseModel(30, SimFitConfig(embed_dim=8, history_window=6),
                          np.random.default_rng(seed))
    model.bias.data = np.asarray(0.3)
    return model


def _loss_and_grads(model, loss_fn):
    for t in model.tensors().values():
        t.zero_grad()
    loss = loss_fn()
    ad.backward(loss)
    return float(loss.data), {k: t.grad.copy() for k, t in model.tensors().items()}


def test_batch_loss_and_gradients_match_per_record_sum():
    model, records = _mixed_model(), _mixed_records()
    assert {len(rec.history) for rec in records} == set(range(11))
    assert {len(rec.slate) for rec in records} == {3, 5}
    batched, batched_grads = _loss_and_grads(
        model, lambda: _batch_loss(model, _record_batches(model, records)(slice(None))))
    reference, reference_grads = _loss_and_grads(
        model, lambda: _per_record_loss(model, records))
    assert abs(batched - reference) <= 1e-12
    assert batched_grads.keys() == reference_grads.keys()
    for key, grad in reference_grads.items():
        assert np.any(grad != 0.0), key
        assert np.abs(batched_grads[key] - grad).max() <= 1e-12, key


def _slate_fill(records):
    """The slates, labels and real-item mask a batch built from its records."""
    lengths = np.array([len(rec.slate) for rec in records])
    n, k = len(records), int(lengths.max())
    slates = np.zeros((n, k), dtype=np.intp)
    labels = np.zeros((n, k))
    for r, rec in enumerate(records):
        slates[r, :lengths[r]] = rec.slate
        labels[r, :lengths[r]] = rec.labels
    return slates, labels, np.arange(k) < lengths[:, None]


def test_once_built_arrays_equal_the_per_batch_build():
    model, records = _mixed_model(), _mixed_records(n=75, seed=6)
    window = model.cfg.history_window
    assert window < 10
    take = _record_batches(model, records)
    order = np.random.default_rng(7).permutation(len(records))
    batches = ([order[lo:lo + 4] for lo in range(0, len(records), 4)]
               + [slice(0, 6), slice(22, 25), slice(33, 34), slice(1, 12, 2),
                  slice(64, 75), slice(None)])
    short = set()
    for rows in batches:
        batch = [records[i] for i in np.arange(len(records))[rows]]
        states = [_positive_state(rec.history) for rec in batch]
        want = (*history_arrays(model.encoder.cfg, states), *_slate_fill(batch))
        got = take(rows)
        for name, g, w in zip(("ids", "bits", "lengths", "slates", "labels", "real"),
                              got, want, strict=True):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.tobytes() == w.tobytes(), name
        if max(len(rec.history) for rec in batch) < window:
            short.add(got[0].shape[1])
    # batches cut below the window (to no history at all, too) and to slates of 3
    assert {0, 2, 5} <= short
    assert take(slice(1, 12, 2))[3].shape == (6, 3)


def test_fit_builds_each_records_state_once(monkeypatch):
    calls = []

    def counted(items):
        calls.append(items)
        return _positive_state(items)

    monkeypatch.setattr(env_module, "_positive_state", counted)
    records = _mixed_records()
    cfg = SimFitConfig(embed_dim=8, history_window=6, epochs=3, batch_size=8)
    fit_response_model(records, 30, cfg, 0)
    assert calls == [rec.history for rec in records]


def test_encode_batch_rows_match_encode():
    enc = EncoderParams(EncoderConfig(n_items=30, embed_dim=8, out_dim=6,
                                      history_window=6), np.random.default_rng(2))
    rng = np.random.default_rng(3)
    states = [tuple((int(i), int(b)) for i, b in zip(
        rng.integers(0, 30, size=n), rng.integers(0, 2, size=n)))
        for n in [4, 0, 10, 1, 6, 0, 7, 3]]
    with ad.no_grad():
        rows = encode_batch(enc, states).data
        assert rows.shape == (len(states), 6)
        for row, state in zip(rows, states):
            single = encode(enc, state).data
            if state:
                assert np.abs(row - single).max() <= 1e-12
            else:
                assert np.array_equal(row, enc.start.data)
        empty = encode_batch(enc, [(), ()]).data
    assert np.array_equal(empty, np.stack([enc.start.data] * 2))
    with pytest.raises(UnknownItemError):
        encode_batch(enc, [((3, 1),), ((30, 1),)])


def test_held_out_log_loss_matches_per_record_value():
    model, records = _mixed_model(seed=4), _mixed_records(n=75, seed=5)
    assert len(records) > 2 * model.cfg.batch_size
    with ad.no_grad():
        total = sum(float(_record_bce(model, rec).data.sum()) for rec in records)
    count = sum(len(rec.labels) for rec in records)
    assert abs(held_out_log_loss(model, records) - total / count) <= 1e-12


def test_record_with_empty_slate_rejected():
    with pytest.raises(DataError, match="slate is empty"):
        LogRecord(0, (1,), (), ())


def _nodes_created() -> int:
    return int(repr(ad._NODE_IDS)[len("count("):-1])


# Tape nodes `fit_simulators` creates on a small seeded synthetic catalog:
# 384 records, 2 epochs of 32-record minibatches, 44 minibatches over both
# simulators (30306 while every record had its own graph). Node counts do not
# depend on the machine, so a change in set-up cost shows here exactly; a
# change that moves the count updates the pin and logs the old and new count.
FIT_SIMULATOR_NODES = 1734


def test_fit_simulators_tape_nodes_pinned():
    synth = generate_synthetic(SynthConfig(n_items=60, n_users=24,
                                           slates_per_user=16), seed=11)
    start = _nodes_created()
    fit_simulators(synth.records, 60, SimFitConfig(embed_dim=8, epochs=2), seed=12,
                   item_features=synth.items.vectors)
    assert _nodes_created() - start == FIT_SIMULATOR_NODES


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _write_ratings(path, rows):
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))


def test_ingest_single_full_slate(tmp_path):
    path = tmp_path / "ratings.tsv"
    _write_ratings(path, [(1, i, 4, 100 + i) for i in range(10)])
    records = ingest_ml1m_style(path)
    assert len(records) == 1
    assert records[0].history == ()
    assert records[0].slate == tuple(range(10))
    assert records[0].labels == (1,) * 10


def test_ingest_binarization_threshold(tmp_path):
    path = tmp_path / "ratings.tsv"
    rows = [(1, i, 3 if i % 2 == 0 else 4, 100 + i) for i in range(10)]
    _write_ratings(path, rows)
    records = ingest_ml1m_style(path)
    assert records[0].labels == tuple(0 if i % 2 == 0 else 1 for i in range(10))


def test_ingest_25_interactions_two_records_trailing_dropped(tmp_path):
    path = tmp_path / "ratings.tsv"
    _write_ratings(path, [(1, i, 5, 100 + i) for i in range(25)])
    records = ingest_ml1m_style(path)
    assert len(records) == 2
    assert records[0].slate == tuple(range(10))
    assert records[1].slate == tuple(range(10, 20))
    # history of the second slate: positives before it, capped at 10
    assert records[1].history == tuple(range(10))


def test_ingest_history_is_prior_positives_only(tmp_path):
    path = tmp_path / "ratings.tsv"
    rows = [(1, i, 4 if i < 5 else 2, 100 + i) for i in range(10)]
    rows += [(1, 10 + i, 4, 200 + i) for i in range(10)]
    _write_ratings(path, rows)
    records = ingest_ml1m_style(path)
    assert records[1].history == tuple(range(5))


def test_ingest_malformed_line_reports_number(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("1\t2\t3\t4\n1\t2\tnope\t4\n")
    with pytest.raises(DataError, match="line 2"):
        ingest_ml1m_style(path)


def test_ingest_determinism(tmp_path):
    path = tmp_path / "ratings.tsv"
    rng = np.random.default_rng(11)
    rows = [(int(rng.integers(3)), int(rng.integers(40)), int(rng.integers(1, 6)),
             int(rng.integers(1000))) for _ in range(120)]
    _write_ratings(path, rows)
    first = ingest_ml1m_style(path)
    second = ingest_ml1m_style(path)
    assert first == second


def test_records_file_roundtrip(tmp_path):
    records = [LogRecord(0, (), (1, 2, 3), (0, 1, 0)),
               LogRecord(5, (9, 8), (4, 5, 6), (1, 1, 1))]
    path = tmp_path / "records.tsv"
    save_records(path, records)
    assert load_records(path) == records
    assert path.read_text().splitlines()[0].startswith("0\t-\t")


@pytest.mark.parametrize("line, message", [
    ("1\t-\t3,4\t2,1", "click labels must be 0 or 1, got (2, 1)"),
    ("1\t-\t3,4\t1", "slate and label lists disagree in length"),
    ("1\t" + ",".join(["5"] * 11) + "\t3\t0", "record history longer than 10"),
], ids=["labels", "lengths", "history"])
def test_record_errors_name_their_line(tmp_path, line, message):
    path = tmp_path / "records.tsv"
    path.write_text(f"0\t-\t1,2\t0,1\n{line}\n")
    with pytest.raises(DataError) as exc:
        load_records(path)
    assert str(exc.value) == f"records line 2: {message}"


@pytest.mark.parametrize("label", [2, -1])
def test_click_labels_outside_zero_one_rejected(label):
    # the BCE term softplus(l) - y*l has no lower bound for y outside [0, 1]
    LogRecord(0, (), (1, 2), (0, 1))
    with pytest.raises(DataError, match="click labels must be 0 or 1"):
        LogRecord(0, (), (1, 2), (0, label))


@pytest.mark.parametrize("history, slate, bad", [
    ((), (1.5, 2), "1.5"), ((), (True, 2), "True"), ((3, 2.0), (1, 2), "2.0"),
], ids=["float_slate", "bool_slate", "whole_float_history"])
def test_fit_rejects_record_items_that_are_not_integers(history, slate, bad):
    # cast, 1.5 and True would train item 1's click probability
    with pytest.raises(DataError, match=f"record item {bad} is not an integer"):
        fit_response_model([LogRecord(0, history, slate, (1, 0))], 10,
                           SimFitConfig(embed_dim=4), 0)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_single_cluster_users_identical():
    synth = generate_synthetic(SynthConfig(n_items=40, n_clusters=1, n_users=10,
                                           slates_per_user=2), seed=12)
    assert (synth.user_prefs == 0).all()
    assert (synth.item_clusters == 0).all()


def test_synthetic_determinism():
    a = generate_synthetic(SynthConfig(n_items=50, n_users=10, slates_per_user=2),
                           seed=13)
    b = generate_synthetic(SynthConfig(n_items=50, n_users=10, slates_per_user=2),
                           seed=13)
    assert np.array_equal(a.items.vectors, b.items.vectors)
    assert a.records == b.records


def test_synthetic_tokenizer_recovers_planted_clusters():
    from hsrl.tokenizer import fit_codebook

    synth = generate_synthetic(SynthConfig(), seed=14)
    book, index = fit_codebook(synth.items, (16, 16, 16), seed=15)
    # level-1 token must determine the planted cluster almost perfectly:
    # for each token take its majority cluster and count agreement
    token_of = index.sid_matrix(range(300))[:, 0]
    agree = 0
    for tok in np.unique(token_of):
        members = synth.item_clusters[token_of == tok]
        counts = np.bincount(members, minlength=synth.cfg.n_clusters)
        agree += counts.max()
    assert agree / 300 > 0.95


def test_synthetic_oracle_beats_random_by_margin():
    synth = generate_synthetic(SynthConfig(), seed=16)
    truth = GroundTruthResponse(synth)
    pool = make_user_pool(synth.records)
    cfg = EnvConfig()
    env = Environment(truth, pool, cfg)
    clusters, prefs = synth.item_clusters, synth.user_prefs

    def mean_step_reward(pick, episodes=1000):
        total, steps = 0.0, 0
        for ep in range(episodes):
            rng = np.random.default_rng([17, ep])
            session = env.reset(rng)
            done = False
            while not done:
                _, r, session, done = env.step(session, pick(session, rng), rng)
                total += r
                steps += 1
        return total / steps

    def oracle(session, rng):
        mine = np.flatnonzero(clusters == prefs[session.user_id])
        return [int(i) for i in rng.choice(mine, size=cfg.slate_size,
                                           replace=False)]

    def random(session, rng):
        return [int(i) for i in rng.choice(300, size=cfg.slate_size,
                                           replace=False)]

    assert mean_step_reward(oracle) - mean_step_reward(random) >= 0.3


def test_rewards_always_in_bounds():
    synth = generate_synthetic(SynthConfig(n_items=60, n_users=16,
                                           slates_per_user=4), seed=18)
    truth = GroundTruthResponse(synth)
    env = Environment(truth, make_user_pool(synth.records),
                      EnvConfig(slate_size=3))
    for ep in range(50):
        rng = np.random.default_rng([19, ep])
        session = env.reset(rng)
        done = False
        depth = 0
        while not done:
            slate = [int(i) for i in rng.choice(60, size=3, replace=False)]
            _, r, session, done = env.step(session, slate, rng)
            depth += 1
            assert NO_CLICK_SIGNAL - 1e-12 <= r <= CLICK_SIGNAL + 1e-12
        assert 1 <= depth <= EnvConfig().horizon


def test_shuffled_embeddings_file_gives_same_item_tables(tmp_path):
    """Row r of every item table holds item r, whatever the file order."""
    synth = generate_synthetic(SynthConfig(n_items=24, n_clusters=3, dim=4,
                                           n_users=4, slates_per_user=1), seed=5)
    sorted_path = tmp_path / "sorted.tsv"
    save_embeddings(sorted_path, synth.items)
    lines = sorted_path.read_text().splitlines(keepends=True)
    body = lines[1:]
    perm = np.random.default_rng(6).permutation(len(body))
    shuffled_path = tmp_path / "shuffled.tsv"
    shuffled_path.write_text(lines[0] + "".join(body[i] for i in perm))

    tables = []
    for path in (sorted_path, shuffled_path):
        items = load_embeddings(path)
        sim = ResponseModel(24, SimFitConfig(embed_dim=6),
                            np.random.default_rng(7), items.vectors)
        policy = PolicyParams(PolicyConfig(n_items=24, vocab_sizes=(3,),
                                           d_model=6, embed_dim=6),
                              np.random.default_rng(8), item_features=items.vectors)
        tables.append((sim.encoder.item_emb.data, policy.encoder.item_emb.data))
    for a, b in zip(*tables):
        assert np.array_equal(a, b)


# A fresh process fits both simulators for one epoch twice and prints the
# minor page faults of the second fit.
REFIT_FAULTS = """
import resource
from hsrl.env import SimFitConfig, SynthConfig, fit_simulators, generate_synthetic

synth = generate_synthetic(SynthConfig(), [11, 100])
fit = lambda: fit_simulators(synth.records, 300, SimFitConfig(epochs=1), 11,
                             synth.items.vectors)
fit()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fit()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc page faults")
def test_second_simulator_fit_reuses_freed_heap():
    # importing hsrl pins glibc's trim and mmap thresholds; with glibc's
    # defaults every training step faults its freed memory back in (about
    # 25k faults here)
    env = {**os.environ, "PYTHONPATH": str(Path(hsrl.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", REFIT_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert int(run.stdout) < 1000
