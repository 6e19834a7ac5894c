"""Acceptance suite: one test per criterion, one printed verdict line each.

The directional-replication criterion trains real agents and dominates the
runtime (a few minutes on two cores); everything else finishes in seconds.
"""

import itertools
import math
import time
from contextlib import contextmanager
from multiprocessing import Pool, cpu_count
from statistics import median

import numpy as np

import hsrl.autodiff as ad
from hsrl.cli import SWEEP_GRIDS, main as cli_main
from hsrl.critic import (CriticConfig, CriticParams, aggregate,
                         value_of_context)
from hsrl.encoder import UserState, encode
from hsrl.env import (EnvConfig, Environment, GroundTruthResponse, SimFitConfig,
                      SynthConfig, fit_simulators, generate_synthetic,
                      make_user_pool)
from hsrl.policy import PolicyConfig, PolicyParams, forward, per_item_log_probs
from hsrl.tokenizer import ItemEmbeddings, fit_codebook
from hsrl.trainer import (Agent, ExperimentContext, TrainConfig, advantage,
                          bc_loss, entropy_term, pg_loss, rollout, run_experiment,
                          td_target, train_step, value_loss)

from gradcheck import check_gradients


@contextmanager
def verdict(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def _tiny_policy(seed, vocab=(3, 3), d_model=6, n_items=8):
    cfg = PolicyConfig(n_items=n_items, vocab_sizes=vocab, d_model=d_model,
                       embed_dim=d_model)
    return PolicyParams(cfg, np.random.default_rng(seed))


def test_criterion_1_gradient_suite():
    with verdict(1, "gradient suite"):
        t0 = time.monotonic()
        cases = 0
        rng = np.random.default_rng(1001)

        # primitives, rel 1e-4
        for _ in range(100):
            x = ad.Tensor(rng.normal(0, 2, size=12), requires_grad=True)
            probe = ad.constant(rng.normal(size=12))
            check_gradients(lambda: ad.dot(ad.softmax(x), probe), [x], rtol=1e-4)
            cases += 1
        for _ in range(100):
            x = ad.Tensor(rng.normal(0, 2, size=16), requires_grad=True)
            g = ad.Tensor(rng.normal(size=16), requires_grad=True)
            b = ad.Tensor(rng.normal(size=16), requires_grad=True)
            probe = ad.constant(rng.normal(size=16))
            check_gradients(lambda: ad.dot(ad.layer_norm(x, g, b), probe),
                            [x, g, b], rtol=1e-4)
            cases += 1

        # HRSM recursion end to end, rel 1e-3
        for trial in range(15):
            params = _tiny_policy(trial)
            state = UserState(history=((trial % 8, 1), ((trial + 3) % 8, 0)))
            tensors = list(params.tensors().values())
            sid = (trial % 3, (trial + 1) % 3)
            check_gradients(
                lambda: ad.vsum(per_item_log_probs(
                    forward(params, encode(params.encoder, state)), [sid])),
                tensors, rtol=1e-3, atol=1e-7)
            cases += 1

        # critic values and aggregation, rel 1e-3
        for trial in range(15):
            critic = CriticParams(CriticConfig(d_model=5, levels=2, hidden=4),
                                  np.random.default_rng(trial + 50))
            contexts = [ad.Tensor(rng.normal(size=5), requires_grad=True)
                        for _ in range(3)]
            params = list(critic.tensors().values()) + contexts
            check_gradients(
                lambda: aggregate(critic, value_of_context(critic, ad.stack(contexts))),
                params, rtol=1e-3, atol=1e-7)
            cases += 1

        # the four loss terms, rel 1e-3
        for trial in range(20):
            params = _tiny_policy(trial + 100)
            state = UserState(history=((trial % 8, 1),))
            critic = CriticParams(CriticConfig(d_model=6, levels=2, hidden=4),
                                  np.random.default_rng(trial + 200))
            sids = [(trial % 3, 2), (0, (trial + 1) % 3)]
            rows = np.zeros(len(sids), dtype=np.int64)  # a one-transition batch
            feedback = np.array([1, trial % 2])
            q = float(rng.normal())
            adv = float(np.clip(rng.normal(), -1, 1))
            tensors = (list(params.tensors().values())
                       + list(critic.tensors().values()))

            def loss():
                c0 = encode(params.encoder, state)
                out = forward(params, c0)
                view = forward(params, c0, heads_detached=True)
                v_hat = aggregate(critic,
                                  value_of_context(critic, ad.stack(view.trajectory)))
                term = value_loss(v_hat, q)                     # critic MSE
                lp = per_item_log_probs(out, sids)
                term = ad.add(term, pg_loss(lp, rows, np.array([adv])))
                term = ad.add(term, ad.scale(entropy_term(out), 0.1))
                bc = bc_loss(lp, rows, feedback, 1)
                term = ad.add(term, ad.scale(bc, 0.5))
                return term

            skip = {id(t) for t in (params.head_w + params.tok_emb
                                    + params.ln_gain + params.ln_bias)}
            check_gradients(loss, [t for t in tensors if id(t) not in skip],
                            rtol=1e-3, atol=1e-6)
            # actor-side terms alone cover the head parameters
            check_gradients(
                lambda: ad.add(
                    pg_loss(per_item_log_probs(
                        forward(params, encode(params.encoder, state)), sids),
                        rows, np.array([adv])),
                    ad.scale(entropy_term(
                        forward(params, encode(params.encoder, state))), 0.1)),
                params.head_w + params.tok_emb, rtol=1e-3, atol=1e-7)
            cases += 1

        elapsed = time.monotonic() - t0
        assert cases >= 100
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. tokenizer suite
# ---------------------------------------------------------------------------


def test_criterion_2_tokenizer_suite():
    with verdict(2, "tokenizer suite"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2002)
        items = ItemEmbeddings(np.arange(80), rng.normal(size=(80, 6)))

        # monotone residual error across levels
        prev = None
        for levels in range(1, 5):
            book, _ = fit_codebook(items, (5,) * levels, seed=7)
            residual = items.vectors.copy()
            for centers in book.centroids:
                d2 = ((residual[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                residual = residual - centers[d2.argmin(axis=1)]
            err = float((residual ** 2).sum())
            if prev is not None:
                assert err <= prev + 1e-12
            prev = err

        # partition of the catalog: each item holds exactly one SID
        book, index = fit_codebook(items, (6, 6), seed=8)
        assert index.ids.tolist() == list(range(80))
        assert index.tokens.shape == (80, 2)

        # determinism under a fixed seed
        book2, index2 = fit_codebook(items, (6, 6), seed=8)
        assert np.array_equal(index.ids, index2.ids)
        assert np.array_equal(index.tokens, index2.tokens)
        assert all(np.array_equal(a, b)
                   for a, b in zip(book.centroids, book2.centroids))

        # L=1 equals brute-force nearest-centroid assignment
        book1, index1 = fit_codebook(items, (9,), seed=9)
        centers = book1.centroids[0]
        for i in range(80):
            d2 = ((items.vectors[i] - centers) ** 2).sum(axis=1)
            assert index1.sid_matrix([i]).tolist() == [[int(d2.argmin())]]

        # planted-cluster recovery on the synthetic generator
        synth = generate_synthetic(SynthConfig(n_items=300, n_clusters=8),
                                   seed=2003)
        _, sidx = fit_codebook(synth.items, (16, 16, 16), seed=10)
        token_of = sidx.sid_matrix(range(300))[:, 0]
        agree = 0
        for tok in np.unique(token_of):
            members = synth.item_clusters[token_of == tok]
            agree += np.bincount(members, minlength=8).max()
        assert agree / 300 > 0.95

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"tokenizer suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. policy normalization and residual alignment
# ---------------------------------------------------------------------------


def test_criterion_3_policy_normalization():
    with verdict(3, "policy normalization"):
        for draw in range(20):
            params = _tiny_policy(3000 + draw, vocab=(4, 4, 4), d_model=8)
            state = UserState(history=((draw % 8, 1),))
            with ad.no_grad():
                out = forward(params, encode(params.encoder, state))
            total = sum(
                math.exp(float(per_item_log_probs(out, [z]).data[0]))
                for z in itertools.product(range(4), repeat=3))
            assert abs(total - 1.0) < 1e-9

        # one-hot residual alignment, bitwise on e_l
        params = _tiny_policy(3100, vocab=(4, 4, 4), d_model=8)
        state = UserState(history=((2, 1), (5, 0)))
        with ad.no_grad():
            c0 = encode(params.encoder, state)
            out = forward(params, c0, force_onehot={0: 3, 1: 1, 2: 0})
        for lvl, tok in ((0, 3), (1, 1), (2, 0)):
            e = params.tok_emb[lvl].data.T @ out.probs[lvl].data
            assert np.array_equal(e, params.tok_emb[lvl].data[tok])
        # and the refined context equals LayerNorm(c_prev - E[tok]) bitwise
        expected = ad.layer_norm(ad.sub(c0, ad.constant(params.tok_emb[0].data[3])),
                                 params.ln_gain[0], params.ln_bias[0])
        assert np.array_equal(out.trajectory[1].data, expected.data)


# ---------------------------------------------------------------------------
# 4. loss-formula oracle
# ---------------------------------------------------------------------------


def test_criterion_4_loss_formulas():
    with verdict(4, "loss-formula oracle"):
        assert td_target(1.0, 1, 7.0, 0.9) == 1.0
        assert abs(td_target(1.0, 0, 0.5, 0.9) - 1.45) < 1e-12
        assert abs(td_target(-0.2, 0, 0.0, 0.9) - (-0.2)) < 1e-12

        assert abs(advantage(1.45, 2.0) - (-0.55)) < 1e-12
        assert advantage(3.0, 0.0) == 1.0
        assert advantage(0.7, 0.7) == 0.0

        from hsrl.policy import PolicyOutput

        def uniform_output(t, levels):
            probs, lps = [], []
            for _ in range(levels):
                x = ad.constant(np.zeros(t))
                p, lp = ad.softmax_and_log(x)
                probs.append(p)
                lps.append(lp)
            traj = [ad.constant(np.zeros(4))] * (levels + 1)
            return PolicyOutput(probs, lps, traj, (t,) * levels)

        out = uniform_output(4, 3)
        assert abs(float(entropy_term(out).data) - (-3 * math.log(4))) < 1e-12

        out64 = uniform_output(64, 3)
        # a one-transition batch: advantage -1 gives the slate-mean log-likelihood
        rows = np.zeros(2, dtype=np.int64)
        assert abs(float(pg_loss(per_item_log_probs(out64, [(0, 0, 0), (1, 2, 3)]),
                                 rows, np.array([-1.0])).data)
                   - 3 * math.log(1 / 64)) < 1e-12

        # BC: zero on zero-positive slates, exact weighting otherwise
        lp = per_item_log_probs(out, [(0, 0, 0), (1, 1, 1)])
        assert bc_loss(lp, rows, np.array([0, 0]), 1) is None
        lp_item = 3 * math.log(1 / 4)
        loss = bc_loss(lp, rows, np.array([1, 0]), 1)
        assert abs(float(loss.data) - (-lp_item)) < 1e-12
        loss_all = bc_loss(lp, rows, np.array([1, 1]), 1)
        assert abs(float(loss_all.data) - (-lp_item)) < 1e-12


# ---------------------------------------------------------------------------
# 5. overfit one batch
# ---------------------------------------------------------------------------


def _toy_agent(seed, **kw):
    from hsrl.tokenizer import SidIndex

    defaults = dict(iterations=100, eval_every=0, eval_episodes=2,
                    learning_rate=0.02)
    defaults.update(kw)
    cfg = TrainConfig(**defaults)
    policy_cfg = PolicyConfig(n_items=12, vocab_sizes=(3, 3), d_model=6,
                              embed_dim=6)
    critic_cfg = CriticConfig(d_model=6, levels=2, hidden=4)
    ids = np.arange(12)
    index = SidIndex(ids, np.stack([ids % 3, ids // 3 % 3], axis=1))
    return Agent(policy_cfg, critic_cfg, cfg, index, list(range(12)), seed)


class _HalfClickResponse:
    def click_probs(self, session, slate):
        return np.where(np.asarray(slate) < 6, 1.0, 0.0)


def test_criterion_5_overfit_one_batch():
    with verdict(5, "overfit-one-batch"):
        from hsrl.env import LogRecord

        agent = _toy_agent(5001)
        pool = make_user_pool([LogRecord(0, (1,), (2, 3), (1, 0))])
        env = Environment(_HalfClickResponse(), pool,
                          EnvConfig(slate_size=2))
        transitions, _ = rollout(agent, env, "sample",
                                 np.random.default_rng(1),
                                 np.random.default_rng(2))
        while len(transitions) < 6:
            more, _ = rollout(agent, env, "sample", np.random.default_rng(3),
                              np.random.default_rng(4))
            transitions.extend(more)
        batch = transitions[:6]

        first = train_step(agent, batch)["loss_V"]
        last = first
        for _ in range(199):
            last = train_step(agent, batch)["loss_V"]
        assert last <= 0.5 * first, f"critic loss {first} -> {last}"

        # fixed positive-advantage action: log-prob strictly increases
        agent2 = _toy_agent(5002, lambda_entropy=0.0, lambda_bc=0.0,
                            learning_rate=0.01)
        tr = batch[0]

        def log_prob():
            with ad.no_grad():
                out = forward(agent2.policy,
                              encode(agent2.policy.encoder, tr.state))
                return float(per_item_log_probs(
                    out, agent2.index.sid_matrix(tr.slate)).data.mean())

        seq = [log_prob()]
        for _ in range(50):
            out = forward(agent2.policy, encode(agent2.policy.encoder, tr.state))
            agent2.opt.zero_grad()
            ad.backward(pg_loss(per_item_log_probs(out, agent2.index.sid_matrix(tr.slate)),
                                np.zeros(len(tr.slate), dtype=np.int64), np.array([1.0])))
            agent2.opt.step()
            seq.append(log_prob())
        assert all(b > a for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# 6. end-to-end directional replication
# ---------------------------------------------------------------------------

_DIRECTIONAL_SEEDS = (13, 14, 15, 16, 17)
_CTX = None


def _directional_context() -> ExperimentContext:
    synth = generate_synthetic(SynthConfig(n_items=300, n_clusters=8),
                               [11, 100])
    book, index = fit_codebook(synth.items, (16, 16, 16), 7)
    train_sim, eval_sim = fit_simulators(synth.records, 300, SimFitConfig(),
                                         11, synth.items.vectors)
    pool = make_user_pool(synth.records)
    env_cfg = EnvConfig(slate_size=5, patience=3, horizon=20)
    return ExperimentContext(
        policy_cfg=PolicyConfig(n_items=300, vocab_sizes=(16, 16, 16)),
        critic_cfg=CriticConfig(d_model=32, levels=3),
        env_cfg=env_cfg, codebook=book, index=index,
        catalog=list(range(300)),
        train_env=Environment(train_sim, pool, env_cfg),
        eval_env=Environment(eval_sim, pool, env_cfg),
        item_features=synth.items.vectors)


def _init_worker():
    global _CTX
    _CTX = _directional_context()


def _directional_job(arg):
    variant, seed = arg
    t0 = time.monotonic()
    cfg = TrainConfig(iterations=20_000, gamma=0.9, eval_every=0,
                      eval_episodes=30, variant=variant)
    _, metrics = run_experiment(_CTX, cfg, seed)
    reward = float(np.mean([m.total_reward for m in metrics]))
    return variant, seed, reward, time.monotonic() - t0


def test_criterion_6_directional_replication():
    with verdict(6, "directional replication"):
        jobs = [(v, s) for v in ("full", "bc_only", "no_entropy")
                for s in _DIRECTIONAL_SEEDS]
        rewards: dict[str, list[float]] = {}
        workers = max(1, min(2, cpu_count()))
        with Pool(workers, initializer=_init_worker) as pool:
            for variant, seed, reward, elapsed in pool.imap_unordered(
                    _directional_job, jobs):
                rewards.setdefault(variant, []).append(reward)
                assert elapsed < 900.0, (
                    f"{variant} seed {seed} took {elapsed:.0f}s (>15 min)")
        med = {v: median(rs) for v, rs in rewards.items()}
        print(f"\n  medians: full={med['full']:.3f} "
              f"bc_only={med['bc_only']:.3f} "
              f"no_entropy={med['no_entropy']:.3f}")
        assert med["full"] > med["bc_only"], med
        assert med["full"] >= med["no_entropy"], med


# ---------------------------------------------------------------------------
# 7. protocol fidelity
# ---------------------------------------------------------------------------


def test_criterion_7_protocol_fidelity():
    with verdict(7, "protocol fidelity"):
        synth = generate_synthetic(SynthConfig(n_items=80, n_users=24,
                                               slates_per_user=4), seed=7007)
        env = Environment(GroundTruthResponse(synth),
                          make_user_pool(synth.records),
                          EnvConfig(slate_size=5, patience=3, horizon=20))
        for ep in range(200):
            rng = np.random.default_rng([7008, ep])
            session = env.reset(rng)
            depth = 0
            done = False
            while not done:
                slate = [int(i) for i in rng.choice(80, size=5, replace=False)]
                _, r, session, done = env.step(session, slate, rng)
                depth += 1
                assert -0.2 - 1e-12 <= r <= 1.0 + 1e-12
            assert depth <= 20

        assert 0.1 in SWEEP_GRIDS["entropy"]
        assert 80 in SWEEP_GRIDS["vocab"]
        assert 4 in SWEEP_GRIDS["levels"]


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------

_REPRO_CONFIG = """
[data]
n_items = 60
n_clusters = 4
embed_dim = 8
n_users = 16
slates_per_user = 4

[tokenizer]
levels = 2
vocab_size = 4

[policy]
d_model = 8
embed_dim = 8

[critic]
hidden = 6

[simulator]
embed_dim = 8
epochs = 1

[env]
slate_size = 3

[training]
iterations = 60
eval_every = 30
eval_episodes = 2
"""


def test_criterion_8_reproducibility(tmp_path):
    with verdict(8, "reproducibility"):
        cfg = tmp_path / "run.ini"
        cfg.write_text(_REPRO_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli_main(["train", "--config", str(cfg),
                             "--out", str(out)]) == 0
        for name in ("metrics.csv", "eval_metrics.csv", "agent.ckpt",
                     "codebook.bin", "sim_train.ckpt", "sim_eval.ckpt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
