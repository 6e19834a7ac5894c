import copy
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import hsrl.autodiff as ad
import hsrl.trainer as trainer
from hsrl import optim
from hsrl.critic import CriticConfig, aggregate, value_of_context
from hsrl.encoder import encode
from hsrl.env import (EnvConfig, Environment, LogRecord, SimFitConfig,
                      fit_response_model, make_user_pool)
from hsrl.errors import ConfigError, ContractError, FormatError, NumericsError
from hsrl.policy import PolicyConfig, forward, per_item_log_probs, select_slate
from hsrl.tokenizer import SidIndex
from hsrl.trainer import (TRAIN_VARIANTS, Agent, TrainConfig, advantage,
                          bc_loss, entropy_term, evaluate, pg_loss, rollout,
                          td_target, train_step, value_loss)

from gradcheck import check_gradients, dense_embed


# ---------------------------------------------------------------------------
# toy fixtures
# ---------------------------------------------------------------------------

N_ITEMS = 12
VOCAB = (3, 3)


def _index():
    # spread 12 items over the 9 SIDs; a few collide
    ids = np.arange(N_ITEMS)
    return SidIndex(ids, np.stack([ids % 3, ids // 3 % 3], axis=1))


def _agent(seed=0, variant="full", **kw):
    defaults = dict(iterations=100, eval_every=0, eval_episodes=2,
                    learning_rate=0.01, variant=variant)
    defaults.update(kw)
    cfg = TrainConfig(**defaults)
    policy_cfg = PolicyConfig(n_items=N_ITEMS, vocab_sizes=VOCAB, d_model=6,
                              embed_dim=6)
    critic_cfg = CriticConfig(d_model=6, levels=len(VOCAB), hidden=4)
    return Agent(policy_cfg, critic_cfg, cfg, _index(), list(range(N_ITEMS)),
                 seed)


class ScriptedResponse:
    """Clicks item ids below a threshold with probability `p`, others never."""

    def __init__(self, click_below=6, p=1.0):
        self.click_below = click_below
        self.p = p

    def click_probs(self, session, slate):
        return np.where(np.asarray(slate) < self.click_below, self.p, 0.0)

    def click_probs_batch(self, sessions, slates):
        return np.where(np.asarray(slates) < self.click_below, self.p, 0.0)


def _env(model=None, slate_size=2, patience=3, horizon=20):
    pool = make_user_pool([LogRecord(0, (1, 2), (3, 4), (1, 0)),
                           LogRecord(1, (5,), (6, 7), (0, 1))])
    cfg = EnvConfig(slate_size=slate_size, patience=patience, horizon=horizon)
    return Environment(model or ScriptedResponse(), pool, cfg)


def _empty_history_env(model=None):
    # user 0 has no logged history: its encoding is `0 + start`
    pool = make_user_pool([LogRecord(0, (), (3, 4), (0, 0)),
                           LogRecord(1, (5,), (6, 7), (0, 1))])
    return Environment(model or ScriptedResponse(), pool,
                       EnvConfig(slate_size=2, patience=3, horizon=20))


def _one_row(out, sids):
    """The log-probabilities of one slate's SIDs, and the row of each: the
    one-transition batch the loss functions take."""
    return per_item_log_probs(out, sids), np.zeros(len(sids), dtype=np.int64)


def _fake_transitions(agent, env, n=4, seed=3):
    rng_env = np.random.default_rng([seed, 0])
    rng_act = np.random.default_rng([seed, 1])
    transitions, _ = rollout(agent, env, "sample", rng_env, rng_act)
    while len(transitions) < n:
        more, _ = rollout(agent, env, "sample", rng_env, rng_act)
        transitions.extend(more)
    return transitions[:n]


# ---------------------------------------------------------------------------
# formula oracles
# ---------------------------------------------------------------------------


def test_td_target_terminal():
    assert td_target(1.0, 1, 123.456, 0.9) == 1.0


def test_td_target_bootstrap():
    assert td_target(1.0, 0, 0.5, 0.9) == pytest.approx(1.45, abs=1e-12)


def test_td_target_zero_next_value():
    assert td_target(-0.2, 0, 0.0, 0.9) == pytest.approx(-0.2, abs=1e-12)


def test_td_target_bad_done_flag():
    with pytest.raises(ContractError):
        td_target(1.0, 2, 0.0, 0.9)


def test_advantage_clipping():
    assert advantage(1.45, 2.0) == pytest.approx(-0.55, abs=1e-12)
    assert advantage(3.0, 0.0) == 1.0
    assert advantage(-3.0, 0.0) == -1.0
    assert advantage(0.7, 0.7) == 0.0


def _uniform_output(t, levels):
    from hsrl.policy import PolicyOutput

    probs, lps = [], []
    for _ in range(levels):
        x = ad.constant(np.zeros(t))
        p, lp = ad.softmax_and_log(x)
        probs.append(p)
        lps.append(lp)
    traj = [ad.constant(np.zeros(4)) for _ in range(levels + 1)]
    return PolicyOutput(probs, lps, traj, (t,) * levels)


def test_one_sid_pg_loss_reduces_to_its_token_log_probs():
    # advantage -1 over a one-row batch: the loss is the slate's mean SID
    # log-likelihood, here that of its one SID
    out = _uniform_output(4, 3)
    single = float(pg_loss(*_one_row(out, [(1, 2, 3)]), np.array([-1.0])).data)
    sid = sum(float(lp.data[z]) for lp, z in zip(out.log_probs, (1, 2, 3)))
    assert single == pytest.approx(sid, abs=1e-15)
    assert float(per_item_log_probs(out, [(1, 2, 3)]).data[0]) == pytest.approx(sid, abs=1e-15)


def test_pg_loss_of_a_repeated_sid_equals_that_of_one():
    out = _uniform_output(4, 3)
    one = float(pg_loss(*_one_row(out, [(0, 1, 2)]), np.array([-1.0])).data)
    two = float(pg_loss(*_one_row(out, [(0, 1, 2), (0, 1, 2)]), np.array([-1.0])).data)
    assert two == pytest.approx(one, abs=1e-12)


def test_pg_loss_uniform_value():
    out = _uniform_output(64, 3)
    got = float(pg_loss(*_one_row(out, [(0, 0, 0), (5, 6, 7)]), np.array([-1.0])).data)
    assert got == pytest.approx(3 * math.log(1 / 64), abs=1e-10)
    assert got == pytest.approx(-12.4766, abs=1e-3)


def test_entropy_uniform_value():
    out = _uniform_output(4, 3)
    assert float(entropy_term(out).data) == pytest.approx(-3 * math.log(4),
                                                          abs=1e-12)
    assert float(entropy_term(out).data) == pytest.approx(-4.1589, abs=1e-3)


def test_entropy_onehot_zero():
    from hsrl.policy import PolicyOutput

    probs, lps = [], []
    for _ in range(2):
        x = ad.constant([1e4, 0.0, 0.0])
        p, lp = ad.softmax_and_log(x)
        probs.append(p)
        lps.append(lp)
    out = PolicyOutput(probs, lps, [ad.constant(np.zeros(3))] * 3, (3, 3))
    assert float(entropy_term(out).data) == 0.0


def test_entropy_bounds():
    agent = _agent(seed=5)
    for trial in range(20):
        state = ((trial % N_ITEMS, 1),)
        with ad.no_grad():
            out = forward(agent.policy, encode(agent.policy.encoder, state))
        h = float(entropy_term(out).data)
        assert -sum(math.log(t) for t in VOCAB) - 1e-9 <= h <= 0.0


def test_bc_zero_positive_is_none():
    out = _uniform_output(4, 2)
    assert bc_loss(*_one_row(out, [(0, 0), (1, 1)]), np.array([0, 0]), 1) is None


def test_bc_single_positive_value():
    from hsrl.policy import PolicyOutput

    # craft log pi = -2 for SID (0, 0)
    x = ad.constant([0.0, math.log(math.exp(1.0) - 1.0) + 1.0])
    p = ad.softmax(ad.constant([0.0, 0.0]))
    lp_level = ad.constant([-1.0, math.log1p(-math.exp(-1.0))])
    out = PolicyOutput([p, p], [lp_level, lp_level],
                       [ad.constant(np.zeros(2))] * 3, (2, 2))
    loss = bc_loss(*_one_row(out, [(0, 0), (1, 1)]), np.array([1, 0]), 1)
    assert float(loss.data) == pytest.approx(2.0, abs=1e-12)


def test_bc_all_positive_equal_logprobs():
    out = _uniform_output(8, 2)
    lp = 2 * math.log(1 / 8)
    loss = bc_loss(*_one_row(out, [(0, 1), (2, 3), (4, 5)]), np.array([1, 1, 1]), 1)
    assert float(loss.data) == pytest.approx(-lp, abs=1e-12)


# ---------------------------------------------------------------------------
# train_step behavior
# ---------------------------------------------------------------------------


def test_train_step_component_isolation(monkeypatch):
    # lambda_entropy = lambda_bc = 0: the BC and entropy terms are never
    # built and loss_BC reads 0.0; the critic moves, and the policy heads
    # move exactly when some clipped advantage in the batch is nonzero (run
    # with the real advantages and with all of them zero)
    def uncalled(*args):
        raise AssertionError("a zero-weight loss term was built")

    for zero_advantage in (False, True):
        agent = _agent(lambda_entropy=0.0, lambda_bc=0.0)
        transitions = _fake_transitions(agent, _env())
        seen = []

        def spy_pg_loss(log_probs, rows, adv):
            seen.append(adv.copy())
            return pg_loss(log_probs, rows, adv)

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "pg_loss", spy_pg_loss)
            patch.setattr(trainer, "bc_loss", uncalled)
            patch.setattr(trainer, "entropy_term", uncalled)
            if zero_advantage:
                patch.setattr(trainer, "advantage", lambda q, v, clip: np.zeros_like(q))
            before = {k: v.copy() for k, v in agent.tensors().items()}
            report = train_step(agent, transitions)
        after = agent.tensors()
        moved = {k for k in before if not np.array_equal(before[k], after[k])}
        assert report["loss_BC"] == 0.0
        assert any(k.startswith("mlc/") for k in moved)
        [adv] = seen
        assert bool(np.any(adv != 0.0)) is not zero_advantage  # both cases reached
        heads = {f"hpn/level{lvl}/head_w" for lvl in range(len(VOCAB))}
        assert bool(heads & moved) is bool(np.any(adv != 0.0))


def test_gradient_isolation_between_actor_and_critic():
    agent = _agent()
    env = _env()
    tr = _fake_transitions(agent, env, n=1)[0]

    # policy-gradient term alone: zero gradient on critic parameters
    c0 = encode(agent.policy.encoder, tr.state)
    out = forward(agent.policy, c0)
    pg = pg_loss(*_one_row(out, agent.index.sid_matrix(tr.slate)), np.array([0.7]))
    for t in agent.critic.tensors().values():
        t.zero_grad()
    for t in agent.policy.tensors().values():
        t.zero_grad()
    ad.backward(pg)
    assert all(t.grad is None for t in agent.critic.tensors().values())
    assert any(t.grad is not None for t in agent.policy.tensors().values())

    # critic term alone: zero gradient on policy heads, but encoder reached
    c0 = encode(agent.policy.encoder, tr.state)
    view = forward(agent.policy, c0, heads_detached=True)
    v_hat = aggregate(agent.critic, value_of_context(agent.critic,
                                                     ad.stack(view.trajectory)))
    for t in agent.critic.tensors().values():
        t.zero_grad()
    for t in agent.policy.tensors().values():
        t.zero_grad()
    diff = ad.sub(v_hat, ad.constant(0.5))
    ad.backward(ad.mul(diff, diff))
    for lvl in range(len(VOCAB)):
        assert agent.policy.head_w[lvl].grad is None
        assert agent.policy.tok_emb[lvl].grad is None
    assert agent.policy.encoder.proj_w.grad is not None
    assert agent.critic.w_raw.grad is not None


def test_bc_zero_positive_contributes_no_gradient():
    agent = _agent(variant="bc_only")
    env = _env(ScriptedResponse(click_below=0))  # nothing ever clicks
    transitions = _fake_transitions(agent, env, n=3)
    assert all(tr.feedback.sum() == 0 for tr in transitions)
    before = {k: v.copy() for k, v in agent.tensors().items()}
    report = train_step(agent, transitions)
    assert report["loss_BC"] == 0.0
    for k, v in agent.tensors().items():
        assert np.array_equal(before[k], v)


def test_composite_loss_gradient_matches_finite_differences():
    agent = _agent(seed=8)
    env = _env()
    transitions = _fake_transitions(agent, env, n=2, seed=9)
    cfg = agent.cfg

    # freeze the stochastic pieces: targets and advantages are constants
    frozen = []
    for tr in transitions:
        with ad.no_grad():
            q = (tr.reward if tr.done else
                 td_target(tr.reward, 0,
                           agent.target.value(np.stack(tr.next_contexts)[:, None])[0],
                           cfg.gamma))
        frozen.append(q)

    params = (list(agent.policy.tensors().values())
              + list(agent.critic.tensors().values()))

    # advantages are gradient constants: pin them per transition so the
    # numeric perturbation cannot see through them
    advs = []
    for tr, q in zip(transitions, frozen):
        with ad.no_grad():
            c0 = encode(agent.policy.encoder, tr.state)
            view = forward(agent.policy, c0, heads_detached=True)
            v_hat = aggregate(agent.critic,
                              value_of_context(agent.critic, ad.stack(view.trajectory)))
        advs.append(advantage(q, float(v_hat.data), cfg.advantage_clip))

    def build_loss_fixed_adv():
        total = None
        for tr, q, adv in zip(transitions, frozen, advs):
            c0 = encode(agent.policy.encoder, tr.state)
            out = forward(agent.policy, c0)
            view = forward(agent.policy, c0, heads_detached=True)
            v_hat = aggregate(agent.critic,
                              value_of_context(agent.critic, ad.stack(view.trajectory)))
            lp, rows = _one_row(out, agent.index.sid_matrix(tr.slate))
            term = value_loss(v_hat, q)
            term = ad.add(term, pg_loss(lp, rows, np.array([adv])))
            term = ad.add(term, ad.scale(entropy_term(out), cfg.lambda_entropy))
            bc = bc_loss(lp, rows, tr.feedback, 1)
            if bc is not None:
                term = ad.add(term, ad.scale(bc, cfg.lambda_bc))
            total = term if total is None else ad.add(total, term)
        return ad.scale(total, 1.0 / len(transitions))

    # exclude the policy heads: the critic view pins them as constants, so
    # numeric perturbation sees a dependence the analytic gradient
    # intentionally stops. Everything else must match.
    skip = set()
    for lvl in range(len(VOCAB)):
        skip.add(id(agent.policy.head_w[lvl]))
        skip.add(id(agent.policy.tok_emb[lvl]))
        skip.add(id(agent.policy.ln_gain[lvl]))
        skip.add(id(agent.policy.ln_bias[lvl]))
    check = [p for p in params if id(p) not in skip]
    check_gradients(build_loss_fixed_adv, check, rtol=1e-3, atol=1e-6)


def test_policy_head_gradients_match_fd_through_actor_terms():
    # the actor-side terms (pg/entropy/bc) are differentiable in the heads;
    # check them separately from the critic view
    agent = _agent(seed=10)
    env = _env()
    tr = _fake_transitions(agent, env, n=1, seed=11)[0]
    adv = 0.6
    head_params = (agent.policy.head_w + agent.policy.tok_emb
                   + agent.policy.ln_gain + agent.policy.ln_bias)

    def loss():
        out = forward(agent.policy, encode(agent.policy.encoder, tr.state))
        lp, rows = _one_row(out, agent.index.sid_matrix(tr.slate))
        term = pg_loss(lp, rows, np.array([adv]))
        term = ad.add(term, ad.scale(entropy_term(out), 0.1))
        bc = bc_loss(lp, rows, tr.feedback, 1)
        if bc is not None:
            term = ad.add(term, ad.scale(bc, 0.5))
        return term

    check_gradients(loss, head_params, rtol=1e-3, atol=1e-7)


def test_overfit_frozen_batch_critic_halves():
    agent = _agent(seed=12, learning_rate=0.02)
    env = _env()
    transitions = _fake_transitions(agent, env, n=6, seed=13)
    first = train_step(agent, transitions)["loss_V"]
    last = first
    for _ in range(199):
        last = train_step(agent, transitions)["loss_V"]
    assert last <= 0.5 * first


def test_positive_advantage_log_prob_strictly_increases():
    agent = _agent(seed=14, lambda_entropy=0.0, lambda_bc=0.0,
                   learning_rate=0.01)
    env = _env()
    tr = _fake_transitions(agent, env, n=1, seed=15)[0]

    def log_prob():
        with ad.no_grad():
            out = forward(agent.policy, encode(agent.policy.encoder, tr.state))
            return float(per_item_log_probs(out, agent.index.sid_matrix(tr.slate)).data.mean())

    values = [log_prob()]
    for _ in range(50):
        out = forward(agent.policy, encode(agent.policy.encoder, tr.state))
        loss = pg_loss(*_one_row(out, agent.index.sid_matrix(tr.slate)), np.array([1.0]))
        agent.opt.zero_grad()
        ad.backward(loss)
        agent.opt.step()
        values.append(log_prob())
    assert all(b > a for a, b in zip(values, values[1:]))


def test_pg_loss_sign_single_step():
    # one gradient step with positive advantage must increase the slate
    # log-likelihood (directional sign check)
    agent = _agent(seed=16, learning_rate=0.05)
    env = _env()
    tr = _fake_transitions(agent, env, n=1, seed=17)[0]
    out = forward(agent.policy, encode(agent.policy.encoder, tr.state))
    lp, rows = _one_row(out, agent.index.sid_matrix(tr.slate))
    before = float(lp.data.mean())
    loss = pg_loss(lp, rows, np.array([1.0]))
    agent.opt.zero_grad()
    ad.backward(loss)
    agent.opt.step()
    with ad.no_grad():
        out2 = forward(agent.policy, encode(agent.policy.encoder, tr.state))
    assert per_item_log_probs(out2, agent.index.sid_matrix(tr.slate)).data.mean() > before


def test_train_step_determinism_bitwise():
    results = []
    for _ in range(2):
        agent = _agent(seed=18)
        env = _env()
        losses = []
        for episode in range(5):
            rng_env = np.random.default_rng([7, episode])
            rng_act = np.random.default_rng([8, episode])
            transitions, _ = rollout(agent, env, "sample", rng_env, rng_act)
            report = train_step(agent, transitions)
            losses.append((report["loss_V"], report["loss_PG"],
                           report["H_en"], report["loss_BC"]))
        results.append(losses)
    assert results[0] == results[1]


def test_zero_advantage_gives_zero_policy_gradient():
    agent = _agent(seed=19)
    env = _env()
    tr = _fake_transitions(agent, env, n=1, seed=20)[0]
    out = forward(agent.policy, encode(agent.policy.encoder, tr.state))
    pg = pg_loss(*_one_row(out, agent.index.sid_matrix(tr.slate)), np.array([0.0]))
    for t in agent.policy.tensors().values():
        t.zero_grad()
    ad.backward(pg)
    for t in agent.policy.tensors().values():
        if t.grad is not None:
            assert np.allclose(t.grad, 0.0)


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


class InstantDeathResponse:
    def click_probs(self, session, slate):
        return np.zeros(len(slate))


def test_rollout_immediate_termination():
    agent = _agent(seed=21)
    env = _env(InstantDeathResponse(), patience=1)
    transitions, metrics = rollout(agent, env, "sample",
                                   np.random.default_rng(0),
                                   np.random.default_rng(1))
    assert metrics.depth == 1
    assert metrics.total_reward == pytest.approx(transitions[0].reward)
    assert transitions[0].done == 1


def test_rollout_horizon_cap():
    agent = _agent(seed=22)
    env = _env(ScriptedResponse(click_below=N_ITEMS))  # everything clicks
    _, metrics = rollout(agent, env, "sample", np.random.default_rng(2),
                         np.random.default_rng(3))
    assert metrics.depth == 20


def test_rollout_total_reward_recomputable_from_feedback():
    agent = _agent(seed=23)
    env = _env()
    transitions, metrics = rollout(agent, env, "sample",
                                   np.random.default_rng(4),
                                   np.random.default_rng(5))
    recomputed = sum(
        float(np.where(tr.feedback == 1, 1.0, -0.2).mean())
        for tr in transitions)
    assert metrics.total_reward == pytest.approx(recomputed, abs=1e-12)
    assert metrics.depth == len(transitions)


def test_rollout_next_contexts_line_up():
    agent = _agent(seed=25)
    env = _env()
    transitions, _ = rollout(agent, env, "sample", np.random.default_rng(8),
                             np.random.default_rng(9))
    for tr, nxt in zip(transitions, transitions[1:]):
        with ad.no_grad():
            out = forward(agent.policy, encode(agent.policy.encoder, nxt.state))
        for cached, fresh in zip(tr.next_contexts, out.trajectory):
            assert np.array_equal(cached, fresh.data)
    assert transitions[-1].next_contexts is None


def test_rollout_transitions_keep_the_slates_env_step_was_shown(monkeypatch):
    shown, step = [], Environment.step

    def spy(self, session, slate, rng):
        shown.append(tuple(slate))
        return step(self, session, slate, rng)

    monkeypatch.setattr(Environment, "step", spy)
    agent, env = _agent(seed=51), _env()
    for episode in range(3):
        shown.clear()
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng([51, 0, episode]),
                                 np.random.default_rng([51, 1, episode]))
        assert [tr.slate for tr in transitions] == shown
        assert all(type(i) is int for tr in transitions for i in tr.slate)


def test_train_step_reads_every_sid_of_its_batch_with_one_lookup(monkeypatch):
    # the slates of a batch spanning two episodes go through one
    # `sid_matrix` call, in transition order, and its matrix is the one the
    # log-probabilities read
    agent, env = _agent(seed=53), _env()
    batch = []
    for episode in range(2):
        more, _ = rollout(agent, env, "sample",
                          np.random.default_rng([53, 0, episode]),
                          np.random.default_rng([53, 1, episode]))
        batch.extend(more)
    assert sum(tr.done for tr in batch) == 2 and len(batch) > 2
    lookups, scored = [], []
    sid_matrix, per_item_log_probs = SidIndex.sid_matrix, trainer.per_item_log_probs

    def lookup(self, item_ids):
        lookups.append(sid_matrix(self, item_ids))
        return lookups[-1]

    def score(output, sids, rows=None):
        scored.append(sids)
        return per_item_log_probs(output, sids, rows)

    monkeypatch.setattr(SidIndex, "sid_matrix", lookup)
    monkeypatch.setattr(trainer, "per_item_log_probs", score)
    train_step(agent, batch)
    assert len(lookups) == 1 and len(scored) == 1 and scored[0] is lookups[0]
    # reference: a per-item lookup in a dict of the index table
    table = dict(zip(agent.index.ids.tolist(), map(tuple, agent.index.tokens.tolist())))
    want = np.array([table[i] for tr in batch for i in tr.slate], dtype=np.int64)
    got = lookups[0]
    assert got.dtype == np.int64 and got.shape == want.shape == (
        sum(len(tr.slate) for tr in batch), len(VOCAB))
    assert got.tobytes() == want.tobytes()


LOSS_FUNCTIONS = ("value_loss", "pg_loss", "entropy_term", "bc_loss")


@pytest.mark.parametrize("variant", TRAIN_VARIANTS)
def test_train_step_calls_each_loss_function_once(variant, monkeypatch):
    # the update's terms come from the four loss functions, each called once
    # over the whole batch, and a term the variant drops is never built
    agent, env = _agent(seed=57, variant=variant), _env()
    batch = _fake_transitions(agent, env, n=4, seed=58)
    assert any(tr.feedback.any() for tr in batch)
    calls = {name: [] for name in LOSS_FUNCTIONS}

    def spy(name, real):
        def call(*args):
            calls[name].append((args, real(*args)))
            return calls[name][-1][1]
        return call

    for name in LOSS_FUNCTIONS:
        monkeypatch.setattr(trainer, name, spy(name, getattr(trainer, name)))
    report = train_step(agent, batch)
    critic = variant != "bc_only"
    assert {name: len(c) for name, c in calls.items()} == {
        "value_loss": critic, "pg_loss": critic, "bc_loss": variant != "no_bc",
        "entropy_term": variant not in ("no_entropy", "bc_only")}
    for name, key in (("value_loss", "loss_V"), ("pg_loss", "loss_PG"),
                      ("bc_loss", "loss_BC")):
        assert [float(got.data) for _, got in calls[name]] == [report[key]] * len(calls[name])
    # the policy terms read the batch's one vector of log-probabilities
    policy_args = [args for name in ("pg_loss", "bc_loss") for args, _ in calls[name]]
    assert all(args[0] is policy_args[0][0] for args in policy_args)
    assert policy_args[0][0].data.shape == (sum(len(tr.slate) for tr in batch),)


@pytest.mark.parametrize("case", ["short", "long_then_short"])
def test_train_step_rejects_feedback_that_does_not_match_its_slate(case):
    # one transition's feedback one item short; or one item long and the
    # next one short, so the batch's clicks still count one per slate item
    # but sit on the wrong slates. The update names the first transition at
    # fault and writes nothing.
    agent, env = _agent(seed=5), _env()
    train_step(agent, _fake_transitions(agent, env, n=2, seed=4))  # Adam moments set
    batch = _fake_transitions(agent, env, n=4, seed=3)
    if case == "long_then_short":
        batch[1] = replace(batch[1], feedback=np.append(batch[1].feedback, 1))
    batch[2] = replace(batch[2], feedback=batch[2].feedback[:-1])
    before = copy.deepcopy(agent)
    first = 2 if case == "short" else 1
    with pytest.raises(ContractError, match=f"^transition {first}: "):
        train_step(agent, batch)
    assert (agent.updates, agent.opt.step_count) == (before.updates, before.opt.step_count)
    for a, b in zip(_written_arrays(agent), _written_arrays(before)):
        assert np.array_equal(a, b)


def _reference_rollout(agent, env, rng_env, rng_act):
    """`rollout` with a policy pass on every step, whether or not the state
    changed."""
    session, transitions, done = env.reset(rng_env), [], False
    while not done:
        with ad.no_grad():
            out = forward(agent.policy, encode(agent.policy.encoder, session.state))
        if transitions:
            transitions[-1].next_contexts = [c.data.copy() for c in out.trajectory]
        slate = select_slate(out, agent.sids, agent.catalog, env.cfg.slate_size,
                             "sample", rng_act)
        feedback, reward, nxt, done = env.step(session, slate, rng_env)
        transitions.append(trainer.Transition(
            session.state, tuple(slate), feedback, reward, int(done)))
        session = nxt
    return transitions


@pytest.mark.parametrize("model", [ScriptedResponse(0), None],
                         ids=["no_click", "clicks_below_6"])
def test_rollout_forwards_once_per_changed_state(model, monkeypatch):
    # a slate with no click leaves the history as it was, and the rollout
    # reuses the policy output it already has for that history
    calls = []
    monkeypatch.setattr(trainer, "forward",
                        lambda *a, **kw: calls.append(1) or forward(*a, **kw))
    agent, env = _agent(seed=27), _env(model)
    reused = 0
    for episode in range(6):
        rngs = [np.random.default_rng([27, stream, episode]) for stream in (0, 1)]
        want = _reference_rollout(agent, env, *rngs)
        rngs = [np.random.default_rng([27, stream, episode]) for stream in (0, 1)]
        calls.clear()
        got, _ = rollout(agent, env, "sample", *rngs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.state, a.slate, a.reward, a.done) == (b.state, b.slate, b.reward, b.done)
            assert a.feedback.tobytes() == b.feedback.tobytes()
            assert [c.tobytes() for c in a.next_contexts or []] == [
                c.tobytes() for c in b.next_contexts or []]
        changed = 1 + sum(a.state != b.state
                          for a, b in zip(got, got[1:]))
        assert len(calls) == changed
        reused += len(got) - changed
    assert reused > 0


def test_next_contexts_keep_their_values_after_an_update():
    # nothing is clicked, so user 0's history stays empty and every next
    # context c_0 it sees holds the start parameter's bytes, which the
    # update moves
    agent = _agent(seed=41)
    env = _empty_history_env(ScriptedResponse(click_below=0))
    transitions = []
    for episode in range(6):
        more, _ = rollout(agent, env, "sample",
                          np.random.default_rng([41, episode]),
                          np.random.default_rng([42, episode]))
        transitions.extend(more)
    assert any(not tr.state and tr.next_contexts for tr in transitions)
    start = agent.policy.encoder.start.data.copy()
    kept = [[c.copy() for c in tr.next_contexts or []] for tr in transitions]
    train_step(agent, transitions)
    assert not np.array_equal(agent.policy.encoder.start.data, start)
    for tr, cached in zip(transitions, kept):
        assert all(np.array_equal(a, b)
                   for a, b in zip(tr.next_contexts or [], cached))


def test_rollout_rejects_greedy_mode():
    with pytest.raises(ContractError, match="rollout samples its slates"):
        rollout(_agent(seed=26), _env(), "greedy", np.random.default_rng(0),
                np.random.default_rng(1))


# ---------------------------------------------------------------------------
# lockstep greedy evaluation against the sequential loop
# ---------------------------------------------------------------------------


class _RecordingEnv(Environment):
    """Keeps the slates `step_batch` receives, per episode rng; every episode
    is live at the first step, so the keys come in episode order."""

    def __init__(self, env):
        super().__init__(env.model, env.pool, env.cfg)
        self.slates = {}

    def step_batch(self, sessions, slates, rngs):
        for rng, slate in zip(rngs, slates):
            self.slates.setdefault(id(rng), []).append(slate)
        return super().step_batch(sessions, slates, rngs)


def _sequential_greedy(agent, env, episodes, seed, tag):
    """Greedy eval one episode after another: per step one `encode`, one
    forward of one context, one greedy slate and one `Environment.step`.
    Returns (slates, total reward, depth) per episode."""
    flat = agent.cfg.variant == "flat_policy"
    out = []
    for i in range(episodes):
        rng = np.random.default_rng([seed, trainer._STREAM_EVAL, tag, i])
        session = env.reset(rng)
        slates, rewards, done = [], [], False
        while not done:
            with ad.no_grad():
                policy_out = forward(agent.policy,
                                     encode(agent.policy.encoder, session.state),
                                     flat=flat)
            slate = select_slate(policy_out, agent.sids, agent.catalog,
                                 env.cfg.slate_size, "greedy")
            _, reward, session, done = env.step(session, slate, rng)
            slates.append(slate)
            rewards.append(reward)
        out.append((slates, sum(rewards), len(rewards)))
    return out


@functools.cache
def _fitted_simulator():
    """A response model fitted on random records, and their user pool."""
    rng = np.random.default_rng(61)
    records = [LogRecord(uid, tuple(int(i) for i in rng.choice(N_ITEMS, size=uid % 4)),
                         tuple(int(i) for i in rng.choice(N_ITEMS, 2, replace=False)),
                         tuple(int(y) for y in rng.random(2) < 0.5))
               for uid in range(8)]
    model = fit_response_model(records, N_ITEMS, SimFitConfig(embed_dim=4, epochs=3), 62)
    return model, make_user_pool(records)


# name -> (model, pool or None for `_env`'s, patience, horizon)
EVAL_ENVS = {
    "coin_patience_1": lambda: (ScriptedResponse(click_below=8, p=0.5), None, 1, 20),
    "coin_patience_3": lambda: (ScriptedResponse(click_below=8, p=0.5), None, 3, 20),
    "horizon_cap": lambda: (ScriptedResponse(click_below=8, p=0.5), None, 1, 3),
    "fitted": lambda: (*_fitted_simulator(), 2, 8),
}


@pytest.mark.parametrize("case", EVAL_ENVS)
@pytest.mark.parametrize("variant", TRAIN_VARIANTS)
def test_lockstep_evaluate_matches_the_sequential_loop(variant, case):
    model, pool, patience, horizon = EVAL_ENVS[case]()
    env = _env(model, patience=patience, horizon=horizon)
    if pool is not None:
        env.pool = pool
    agent = _agent(seed=51, variant=variant)
    for episode in range(2):  # variants differ once trained
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng([51, 0, episode]),
                                 np.random.default_rng([51, 1, episode]))
        train_step(agent, transitions)
    want = _sequential_greedy(agent, env, 8, seed=52, tag=3)
    recording = _RecordingEnv(env)
    got = evaluate(agent, recording, 8, seed=52, tag=3)
    assert [(m.total_reward, m.depth) for m in got] == [
        (reward, depth) for _, reward, depth in want]
    assert list(recording.slates.values()) == [slates for slates, _, _ in want]
    depths = {m.depth for m in got}
    assert len(depths) > 1  # episodes leave the block at different steps
    assert max(depths) <= horizon and (case != "horizon_cap" or horizon in depths)


# ---------------------------------------------------------------------------
# the batched update against a per-transition reference
# ---------------------------------------------------------------------------


def _reference_value(params, trajectory):
    """Fused value of one trajectory, scored alone."""
    return aggregate(params, value_of_context(params, ad.stack(trajectory)))


def _reference_step(agent, transitions):
    """The update as one graph per transition: each state encoded and
    forwarded alone, its critic and target values read one trajectory at a
    time, and the terms summed in transition order. Each loss formula is
    written out here for one transition, apart from the loss functions
    `train_step` calls, so the comparison is not circular."""
    cfg = agent.cfg
    flat = cfg.variant == "flat_policy"
    single = cfg.variant == "single_critic"
    bc_only = cfg.variant == "bc_only"
    entropy_weight = (0.0 if cfg.variant in ("no_entropy", "bc_only")
                      else cfg.lambda_entropy)
    use_bc = cfg.lambda_bc > 0.0 and cfg.variant != "no_bc"
    parts = {"loss_V": [], "loss_PG": [], "H_en": [], "loss_BC": []}
    for tr in transitions:
        c0 = encode(agent.policy.encoder, tr.state)
        out = forward(agent.policy, c0, flat=flat)
        lp = per_item_log_probs(out, agent.index.sid_matrix(tr.slate))
        if not bc_only:
            trajectory = [c0] if single or flat else forward(
                agent.policy, c0, heads_detached=True).trajectory
            v_hat = _reference_value(agent.critic, trajectory)
            q = tr.reward
            if not tr.done:
                with ad.no_grad():
                    v_next = _reference_value(agent.target.params, [
                        ad.constant(c) for c in tr.next_contexts[:len(trajectory)]])
                q = td_target(tr.reward, 0, float(v_next.data), cfg.gamma)
            adv = advantage(q, float(v_hat.data), cfg.advantage_clip)
            diff = ad.sub(v_hat, ad.constant(q))
            parts["loss_V"].append(ad.mul(diff, diff))
            parts["loss_PG"].append(ad.scale(ad.vmean(lp), -adv))
        parts["H_en"].append(functools.reduce(ad.add, [
            ad.vsum(ad.mul(p, logp)) for p, logp in zip(out.probs, out.log_probs)]))
        clicks = tr.feedback.astype(np.float64)
        if (use_bc or bc_only) and clicks.sum() > 0:
            parts["loss_BC"].append(ad.scale(ad.dot(ad.constant(clicks / clicks.sum()), lp),
                                             -1.0))

    report, total = {"loss_V": 0.0, "loss_PG": 0.0, "H_en": 0.0, "loss_BC": 0.0}, None
    for key, weight in (("loss_V", 1.0), ("loss_PG", 1.0),
                        ("H_en", entropy_weight), ("loss_BC", cfg.lambda_bc)):
        if parts[key]:
            mean = ad.scale(functools.reduce(ad.add, parts[key]), 1.0 / len(transitions))
            report[key] = float(mean.data)
            if weight:
                part = ad.scale(mean, weight)
                total = part if total is None else ad.add(total, part)
    if total is not None and total.requires_grad:
        agent.opt.zero_grad()
        ad.backward(total)
        agent.opt.step()
    if not bc_only:
        agent.target.soft_update(cfg.target_tau)
    return report


def _written_arrays(agent):
    """Every array an update writes."""
    return (list(agent.tensors().values()) + agent.opt._m + agent.opt._v
            + [t.data for t in agent.target.params.tensors().values()])


def _update_state(agent, report):
    """Every array an update writes, then the losses it reports."""
    return _written_arrays(agent) + [report[k] for k in ("loss_V", "loss_PG", "H_en", "loss_BC")]


def _batches(agent, seed):
    """Five batches, each rolled out by `agent` just before its update: an
    episode with empty-history states, three episodes joined (so terminal
    transitions sit mid-batch), and an episode in which nothing is clicked."""
    kinds = [(_empty_history_env(), 1), (_env(), 3), (_env(ScriptedResponse(0)), 1),
             (_empty_history_env(ScriptedResponse(0)), 2), (_env(), 2)]
    for n, (env, episodes) in enumerate(kinds):
        batch = []
        for episode in range(episodes):
            more, _ = rollout(agent, env, "sample",
                              np.random.default_rng([seed, 0, n, episode]),
                              np.random.default_rng([seed, 1, n, episode]))
            batch.extend(more)
        yield batch


@pytest.mark.parametrize("variant", TRAIN_VARIANTS)
def test_batched_update_matches_the_per_transition_update(variant):
    agent = _agent(seed=43, variant=variant)
    twin = copy.deepcopy(agent)
    start = {k: v.copy() for k, v in agent.tensors().items()}
    seen = {"empty": 0, "mid_terminal": 0, "no_click": 0}
    for batch in _batches(agent, 43):
        seen["empty"] += sum(not tr.state for tr in batch)
        seen["mid_terminal"] += sum(tr.done for tr in batch[:-1])
        seen["no_click"] += not any(tr.feedback.any() for tr in batch)
        got = _update_state(agent, train_step(agent, batch))
        want = _update_state(twin, _reference_step(twin, batch))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
    assert min(seen.values()) >= 1, seen
    assert any(not np.array_equal(start[k], v) for k, v in agent.tensors().items())


@pytest.mark.parametrize("variant", TRAIN_VARIANTS)
def test_recorded_graph_update_matches_reencode_with_an_empty_history(variant):
    # An empty history encodes to `0 + start`, so gradients reach the start
    # parameter straight from each such transition's row of the batched
    # forward and, except in bc_only, from its critic rows. Three rollout +
    # update rounds: the agent builds one graph per recorded episode, its
    # twin re-encodes every transition alone (the per-transition reference);
    # both end within 1e-12, and the batched graph takes fewer tape nodes.
    seed, env = 47, _empty_history_env()
    agent = _agent(seed=seed, variant=variant)
    twin = copy.deepcopy(agent)
    nodes, empty = [0, 0], 0
    for episode in range(3):
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng([seed, 0, episode]),
                                 np.random.default_rng([seed, 1, episode]))
        empty += sum(not tr.state for tr in transitions)
        states = []
        for i, (who, step) in enumerate(((agent, train_step), (twin, _reference_step))):
            start = _nodes_created()
            report = step(who, transitions)
            nodes[i] += _nodes_created() - start
            states.append(_update_state(who, report))
        for a, b in zip(*states):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
    assert empty >= 2 and nodes[0] < nodes[1]


def test_deepcopy_twin_update_leaves_the_original_untouched():
    agent = _agent(seed=53)
    env = _env()
    train_step(agent, _fake_transitions(agent, env, n=2, seed=54))  # grads set
    transitions = _fake_transitions(agent, env, n=3, seed=55)
    twin = copy.deepcopy(agent)
    params = {k: t.data.copy() for k, t in agent._blocks().items()}
    grads = {k: None if t.grad is None else t.grad.copy()
             for k, t in agent._blocks().items()}
    train_step(twin, transitions)
    assert any(not np.array_equal(params[k], v) for k, v in twin.tensors().items())
    for k, t in agent._blocks().items():
        assert np.array_equal(params[k], t.data)
        assert (grads[k] is None and t.grad is None) or np.array_equal(grads[k], t.grad)


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------


def test_flat_policy_normalization_invariant():
    import itertools

    agent = _agent(seed=26, variant="flat_policy")
    state = ((2, 1),)
    with ad.no_grad():
        out = forward(agent.policy, encode(agent.policy.encoder, state),
                      flat=True)
    total = sum(
        math.exp(float(per_item_log_probs(out, [z]).data[0]))
        for z in itertools.product(range(VOCAB[0]), range(VOCAB[1])))
    assert abs(total - 1.0) < 1e-9


def test_no_entropy_still_logs_entropy_value():
    agent = _agent(seed=27, variant="no_entropy")
    env = _env()
    transitions = _fake_transitions(agent, env, n=2, seed=28)
    report = train_step(agent, transitions)
    assert report["H_en"] < 0.0  # logged even though not optimized


def test_entropy_report_equal_whether_or_not_optimized():
    agent = _agent(seed=39)
    transitions = _fake_transitions(agent, _env(), n=3, seed=40)
    reported = []
    for variant in ("full", "no_entropy", "bc_only"):
        twin = copy.deepcopy(agent)
        twin.cfg = replace(twin.cfg, variant=variant)
        reported.append(train_step(twin, transitions)["H_en"])
    assert reported[0] < 0.0
    assert reported[0] == reported[1] == reported[2]


def test_single_critic_uses_context_zero_only():
    agent = _agent(seed=29, variant="single_critic")
    env = _env()
    transitions = _fake_transitions(agent, env, n=2, seed=30)
    report = train_step(agent, transitions)
    assert report["weights"][0] == 1.0
    assert all(w == 0.0 for w in report["weights"][1:])


def test_flat_policy_critic_scores_context_zero_only():
    # every context of a flat trajectory is c_0, so the fusion weights have
    # nothing to learn: they must not move, not even by rounding residue
    agent = _agent(seed=31, variant="flat_policy")
    env = _env()
    for episode in range(50):
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng([31, 0, episode]),
                                 np.random.default_rng([31, 1, episode]))
        report = train_step(agent, transitions)
    assert np.array_equal(agent.critic.w_raw.data, np.zeros(len(VOCAB) + 1))
    assert np.array_equal(report["weights"], np.eye(len(VOCAB) + 1)[0])
    assert agent.critic.w1.grad is not None


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(variant="no_critic")


def test_nan_forward_aborts_step_with_params_intact():
    # the update encodes its whole batch afresh, so it reads the poisoned bias
    agent = _agent(seed=34)
    env = _env()
    transitions = _fake_transitions(agent, env, n=2, seed=35)
    train_step(agent, _fake_transitions(agent, env, n=2, seed=36))
    assert any(tr.state for tr in transitions)
    agent.policy.encoder.proj_b.data[:] = np.inf  # poison mid-graph
    before = {k: v.copy() for k, v in agent.tensors().items()}

    with pytest.raises(NumericsError):
        train_step(agent, transitions)
    for k, v in agent.tensors().items():
        assert np.array_equal(before[k], v, equal_nan=True)


def test_nan_forward_aborts_rollout_with_params_intact():
    agent = _agent(seed=34)
    agent.policy.encoder.proj_b.data[:] = np.inf
    before = {k: v.copy() for k, v in agent.tensors().items()}
    with pytest.raises(NumericsError):
        _fake_transitions(agent, _env(), n=2, seed=35)
    for k, v in agent.tensors().items():
        assert np.array_equal(before[k], v, equal_nan=True)


def test_patience_never_increases_without_click():
    env = _env(model=None, slate_size=2, patience=3)
    agent = _agent(seed=36)
    rng_env = np.random.default_rng(0)
    rng_act = np.random.default_rng(1)
    session = env.reset(rng_env)
    prev = session.patience
    done = False
    while not done:
        with ad.no_grad():
            out = forward(agent.policy, encode(agent.policy.encoder, session.state))
        slate = select_slate(out, agent.sids, agent.catalog, 2, "sample",
                             rng_act)
        feedback, _, session, done = env.step(session, slate, rng_env)
        if feedback.any():
            assert session.patience == env.cfg.patience
        else:
            assert session.patience == prev - 1
        prev = session.patience


def test_train_step_polyak_averages_target():
    agent = _agent(seed=31, target_tau=0.25)
    frozen = agent.target.params.tensors()
    t0 = {k: v.data.copy() for k, v in frozen.items()}
    train_step(agent, _fake_transitions(agent, _env(), n=2, seed=32))
    for k, v in agent.critic.tensors().items():
        assert np.array_equal(frozen[k].data, 0.25 * v.data + 0.75 * t0[k])


def _agent_state(agent):
    return ({k: v.copy() for k, v in agent.tensors().items()},
            {k: t.data.copy() for k, t in agent.target.params.tensors().items()})


def test_checkpoint_block_names_and_order():
    # the saved checkpoint format; the golden digests pin it on one build only
    assert list(_agent().tensors()) == [
        "hpn/enc/item_emb", "hpn/enc/fb_emb", "hpn/enc/attn_q", "hpn/enc/attn_k",
        "hpn/enc/attn_v", "hpn/enc/proj_w", "hpn/enc/proj_b", "hpn/enc/start",
        "hpn/level0/head_w", "hpn/level0/tok_emb", "hpn/level0/ln_gain",
        "hpn/level0/ln_bias", "hpn/level1/head_w", "hpn/level1/tok_emb",
        "hpn/level1/ln_gain", "hpn/level1/ln_bias", "mlc/head0/w1", "mlc/head0/b1",
        "mlc/head0/w2", "mlc/head0/b2", "mlc/weights"]


def test_load_arrays_copies_every_block_and_syncs_target():
    agent, other = _agent(seed=0), _agent(seed=1)
    named = {k: v + 1.0 for k, v in other.tensors().items()}
    agent.load_arrays(named)
    live, target = _agent_state(agent)
    for k, v in named.items():
        assert np.array_equal(live[k], v)
    for k, v in target.items():
        assert np.array_equal(v, live[f"mlc/{k}"])


@pytest.mark.parametrize("damage", ["shape", "missing", "extra"])
def test_checkpoint_that_does_not_fit_changes_no_tensor(damage):
    agent = _agent(seed=0)
    named = {k: v + 1.0 for k, v in _agent(seed=1).tensors().items()}
    last = list(named)[-1]  # blocks before it are valid
    if damage == "shape":
        named[last] = np.zeros(named[last].shape + (1,))
    elif damage == "missing":
        del named[last]
    else:
        named["mlc/extra"] = np.zeros(2)
    before = _agent_state(agent)
    with pytest.raises(FormatError, match="^checkpoint does not fit this config"):
        agent.load_arrays(named)
    for old, now in zip(before, _agent_state(agent)):
        assert old.keys() == now.keys()
        assert all(np.array_equal(old[k], now[k]) for k in old)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_checkpoint_with_a_non_finite_value_changes_no_tensor(bad):
    agent = _agent(seed=0)
    named = {k: v + 1.0 for k, v in _agent(seed=1).tensors().items()}
    last = list(named)[-1]  # blocks before it are valid
    named[last].flat[-1] = bad
    before = _agent_state(agent)
    with pytest.raises(FormatError, match=f"^checkpoint block {last} holds NaN"):
        agent.load_arrays(named)
    for old, now in zip(before, _agent_state(agent)):
        assert all(np.array_equal(old[k], now[k]) for k in old)


# ---------------------------------------------------------------------------
# tape cost
# ---------------------------------------------------------------------------


def _nodes_created() -> int:
    """Ids the tape's node counter has handed out (reading does not advance it)."""
    return int(repr(ad._NODE_IDS)[len("count("):-1])


# Tape nodes created by a tiny seeded run, (train, eval) per variant: three
# sampled episodes each followed by its update, then two greedy eval
# episodes. Node counts do not depend on the machine, so a change in tape
# cost shows here exactly; a change that moves a count updates the pin and
# logs the old and new count.
TAPE_NODES = {"full": (1173, 820), "bc_only": (988, 820)}


@pytest.mark.parametrize("variant", sorted(TAPE_NODES))
def test_tape_node_counts_pinned(variant):
    agent = _agent(seed=5, variant=variant)
    env = _env()
    start = _nodes_created()
    for episode in range(3):
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng([5, 0, episode]),
                                 np.random.default_rng([5, 1, episode]))
        train_step(agent, transitions)
    trained = _nodes_created()
    evaluate(agent, env, 2, seed=5, tag=0)
    assert (trained - start, _nodes_created() - trained) == TAPE_NODES[variant]


def test_one_lockstep_evaluate_builds_fewer_tape_nodes_than_one_per_episode():
    # every item is clicked, so each episode runs to the horizon
    agent, env = _agent(seed=6), _env(ScriptedResponse(click_below=N_ITEMS))
    start = _nodes_created()
    together = evaluate(agent, env, 8, seed=6, tag=0)
    middle = _nodes_created()
    alone = [m for tag in range(8) for m in evaluate(agent, env, 1, seed=6, tag=tag)]
    assert sum(m.depth for m in together) == sum(m.depth for m in alone) == 8 * 20
    assert middle - start < _nodes_created() - middle


# ---------------------------------------------------------------------------
# row-sparse item-table gradients end to end
# ---------------------------------------------------------------------------


class _DenseAdam:
    """Reference optimizer: the Adam formula on every whole `.grad`."""

    def __init__(self, params, lr):
        self.params, self.lr, self.step_count = list(params), lr, 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = optim.BETA1, optim.BETA2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None or not g.any():
                continue
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * g * g
            p.data = p.data - self.lr * (self._m[i] / (1.0 - b1 ** t)) / (
                np.sqrt(self._v[i] / (1.0 - b2 ** t)) + optim.EPS)


def _catalog_run(tmp_path, name, reference):
    """Train on a 300-item catalog; the bytes of its metrics file and the
    agent. `reference` trains with dense `embed` gradients and `_DenseAdam`."""
    n_items, vocab = 300, (8, 8)
    rng = np.random.default_rng(81)
    pool = make_user_pool([
        LogRecord(uid, tuple(int(i) for i in rng.choice(n_items, size=uid % 7)),
                  (0, 1), (1, 0)) for uid in range(24)])
    env = Environment(ScriptedResponse(click_below=120, p=0.6), pool,
                      EnvConfig(slate_size=4, patience=3, horizon=12))
    ids = np.arange(n_items)
    index = SidIndex(ids, np.stack([ids % 8, ids // 8 % 8], axis=1))
    policy_cfg = PolicyConfig(n_items=n_items, vocab_sizes=vocab, d_model=8,
                              embed_dim=8)
    critic_cfg = CriticConfig(d_model=8, levels=len(vocab), hidden=6)
    cfg = TrainConfig(iterations=150, eval_every=0, eval_episodes=1,
                      learning_rate=0.01)
    agent = Agent(policy_cfg, critic_cfg, cfg, index, list(range(n_items)), 5)
    if reference:
        agent.opt = _DenseAdam(agent.opt.params, agent.opt.lr)
    ctx = trainer.ExperimentContext(policy_cfg, critic_cfg, env.cfg, None, index,
                                    list(range(n_items)), env, env)
    writer = trainer.MetricsWriter(tmp_path / name, trainer.metrics_columns(len(vocab)))
    trainer.run_training(agent, ctx, 5, writer)
    writer.close()
    return (tmp_path / name).read_bytes(), agent


def test_row_sparse_training_equals_dense_gradients_and_dense_adam(tmp_path, monkeypatch):
    row_updates = []
    real_reach = optim.Optimizer._reach

    def reach(self, p):
        rows = real_reach(self, p)
        row_updates.append(None if rows is None else p.data.shape)
        return rows

    monkeypatch.setattr(optim.Optimizer, "_reach", reach)
    fast, fast_agent = _catalog_run(tmp_path, "fast.csv", reference=False)
    monkeypatch.setattr(ad, "embed", dense_embed)
    dense, dense_agent = _catalog_run(tmp_path, "dense.csv", reference=True)
    assert fast.count(b"\n") > 10 and fast == dense
    for name, t in fast_agent._blocks().items():
        assert t.data.tobytes() == dense_agent._blocks()[name].data.tobytes(), name
    for ours, ref in ((fast_agent.opt._m, dense_agent.opt._m),
                      (fast_agent.opt._v, dense_agent.opt._v)):
        assert [x.tobytes() for x in ours] == [x.tobytes() for x in ref]
    assert fast_agent.opt.step_count == dense_agent.opt.step_count
    # the item table took the row path on more than a few updates
    assert row_updates.count((300, 8)) > 5
