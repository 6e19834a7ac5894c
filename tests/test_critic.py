import numpy as np
import pytest

import hsrl.autodiff as ad
from hsrl.critic import (CriticConfig, CriticParams, TargetCritic, aggregate,
                         value_of_context, weight_snapshot)
from hsrl.errors import ContractError, ShapeError

from gradcheck import check_gradients


def _critic(levels=3, d_model=6, hidden=5, seed=0, **kw):
    return CriticParams(CriticConfig(d_model=d_model, levels=levels,
                                     hidden=hidden, **kw),
                        np.random.default_rng(seed))


def _contexts(levels=3, d_model=6, seed=1):
    rng = np.random.default_rng(seed)
    return [ad.constant(rng.normal(size=d_model)) for _ in range(levels + 1)]


def _numpy_value(critic, c):
    """The value head on one context, in plain numpy."""
    return critic.w2.data @ np.tanh(critic.w1.data @ c + critic.b1.data) + critic.b2.data


def _numpy_fused(critic, trajectory):
    """Softmax-weighted fusion of one trajectory's values, in plain numpy."""
    w = np.exp(critic.w_raw.data) / np.exp(critic.w_raw.data).sum()
    return w @ np.array([_numpy_value(critic, c) for c in trajectory])


# ---------------------------------------------------------------------------
# per-level values
# ---------------------------------------------------------------------------


def test_zero_weight_critic_returns_output_bias():
    critic = _critic()
    for t in (critic.w1, critic.w2):
        t.data[:] = 0.0
    critic.b2.data = np.asarray(1.5)
    values = value_of_context(critic, ad.stack(_contexts()))
    assert values.shape == (4,)
    assert all(v == pytest.approx(1.5, abs=1e-15) for v in values.data)


def test_identical_contexts_identical_values():
    critic = _critic()
    c = ad.constant(np.random.default_rng(3).normal(size=6))
    values = value_of_context(critic, ad.stack([c, c, c, c])).data
    assert all(v == values[0] for v in values)


def test_trajectory_length_mismatch():
    critic = _critic(levels=3)
    values = value_of_context(critic, ad.stack(_contexts(levels=2)))
    with pytest.raises(ContractError):
        aggregate(critic, values)


def test_per_level_value_gradient():
    # a (2, 4, d) block of contexts: against plain numpy, each context
    # alone, and finite differences
    critic = _critic()
    rng = np.random.default_rng(5)
    block = ad.Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    probe = ad.constant(rng.normal(size=(2, 4)))
    values = value_of_context(critic, block).data
    assert values.shape == (2, 4)
    for i, j in np.ndindex(2, 4):
        c = block.data[i, j]
        assert abs(values[i, j] - _numpy_value(critic, c)) <= 1e-12
        assert abs(values[i, j] - float(value_of_context(critic, ad.constant(c)).data)) <= 1e-12
    params = [critic.w1, critic.b1, critic.w2, critic.b2, block]
    check_gradients(lambda: ad.vsum(ad.mul(value_of_context(critic, block), probe)),
                    params, rtol=1e-3, atol=1e-7)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_uniform_weights():
    critic = _critic(levels=3)
    values = ad.constant([1.0, 2.0, 3.0, 4.0])
    assert float(aggregate(critic, values).data) == pytest.approx(2.5, abs=1e-12)
    assert weight_snapshot(critic) == pytest.approx([0.25] * 4, abs=1e-15)


def test_aggregate_dominant_weight():
    critic = _critic(levels=3)
    critic.w_raw.data = np.array([10.0, -10.0, -10.0, -10.0])
    values = ad.constant([1.0, 2.0, 3.0, 4.0])
    assert float(aggregate(critic, values).data) == pytest.approx(1.0, abs=1e-4)


def test_aggregate_shift_invariance():
    critic = _critic(levels=3)
    rng = np.random.default_rng(9)
    critic.w_raw.data = rng.normal(size=4)
    values = ad.constant(rng.normal(size=4))
    before = float(aggregate(critic, values).data)
    critic.w_raw.data = critic.w_raw.data + 7.3
    after = float(aggregate(critic, values).data)
    assert abs(before - after) < 1e-12


def test_aggregate_wrong_arity():
    critic = _critic(levels=3)
    with pytest.raises(ContractError):
        aggregate(critic, ad.constant(np.ones(3)))


def test_snapshot_sums_to_one():
    critic = _critic()
    rng = np.random.default_rng(10)
    for _ in range(20):
        critic.w_raw.data = rng.normal(0, 3, size=4)
        snap = weight_snapshot(critic)
        assert abs(snap.sum() - 1.0) < 1e-9
        assert (snap > 0).all()


def test_snapshot_stable_without_updates():
    critic = _critic()
    a = weight_snapshot(critic)
    b = weight_snapshot(critic)
    assert np.array_equal(a, b)


def test_full_critic_gradient_end_to_end():
    # gradient flows through phi, the fusion weights, and the contexts
    critic = _critic(levels=2, d_model=5, hidden=4, seed=11)
    rng = np.random.default_rng(12)
    contexts = [ad.Tensor(rng.normal(size=5), requires_grad=True)
                for _ in range(3)]
    params = [critic.w1, critic.b1, critic.w2, critic.b2,
              critic.w_raw] + contexts
    check_gradients(
        lambda: aggregate(critic, value_of_context(critic, ad.stack(contexts))),
        params, rtol=1e-3, atol=1e-7)


# ---------------------------------------------------------------------------
# target critic
# ---------------------------------------------------------------------------


def test_target_full_tau_matches_live():
    live = _critic(seed=13)
    target = TargetCritic(live)
    for t in live.tensors().values():
        t.data += 0.5
    target.soft_update(live, tau=1.0)
    frozen = target.params.tensors()
    for name, t in live.tensors().items():
        assert np.array_equal(frozen[name].data, t.data)


def test_target_zero_tau_unchanged():
    live = _critic(seed=14)
    target = TargetCritic(live)
    before = {k: v.data.copy() for k, v in target.params.tensors().items()}
    for t in live.tensors().values():
        t.data += 1.0
    target.soft_update(live, tau=0.0)
    frozen = target.params.tensors()
    for name in before:
        assert np.array_equal(frozen[name].data, before[name])


def test_target_hard_sync_bitwise():
    live = _critic(seed=15)
    target = TargetCritic(live)
    for t in live.tensors().values():
        t.data *= -2.0
    target.hard_sync(live)
    frozen = target.params.tensors()
    for name, t in live.tensors().items():
        assert np.array_equal(frozen[name].data, t.data)


def _block(trajectories):
    """(levels + 1, T, d) array of T trajectories given as lists of tensors."""
    return np.stack([[c.data for c in traj] for traj in trajectories], axis=1)


def test_target_value_matches_live_after_sync():
    live = _critic(seed=16)
    target = TargetCritic(live)
    trajectories = [_contexts(seed=s) for s in (17, 18, 19)]
    got = target.value(_block(trajectories))
    assert got.shape == (3,)
    for value, contexts in zip(got, trajectories):
        live_value = aggregate(live, value_of_context(live, ad.stack(contexts)))
        assert live_value.shape == ()
        assert abs(value - float(live_value.data)) <= 1e-12
        assert abs(value - _numpy_fused(live, [c.data for c in contexts])) <= 1e-12


def test_target_constant_between_syncs():
    live = _critic(seed=18)
    target = TargetCritic(live)
    block = _block([_contexts(seed=19), _contexts(seed=20)])
    v1 = target.value(block)
    for t in live.tensors().values():
        t.data += 3.0
    assert np.array_equal(target.value(block), v1)


def test_target_structure_mismatch():
    live = _critic(seed=20)
    target = TargetCritic(live)
    other = _critic(levels=2, seed=20)
    with pytest.raises(ContractError):
        target.hard_sync(other)


def test_single_context_value_bypasses_fusion():
    live = _critic(seed=21)
    target = TargetCritic(live)
    rows = np.random.default_rng(22).normal(size=(2, 6))
    got = target.value(rows[None])
    for value, c in zip(got, rows):
        assert abs(value - float(value_of_context(live, ad.constant(c)).data)) <= 1e-12


@pytest.mark.parametrize("levels", [1, 3])
def test_value_block_matches_each_trajectory_alone(levels):
    # T trajectories stacked level by level into one block: against each
    # trajectory scored alone, plain numpy, and finite differences
    critic = _critic(levels=levels, seed=23)
    critic.w_raw.data = np.random.default_rng(24).normal(size=levels + 1)
    rng = np.random.default_rng(25)
    trajectories = [[ad.Tensor(rng.normal(size=6), requires_grad=True)
                     for _ in range(levels + 1)] for _ in range(4)]
    params = [critic.w1, critic.b1, critic.w2, critic.b2, critic.w_raw]
    probe = rng.normal(size=4)

    def batched():
        block = ad.stack([ad.stack(list(level)) for level in zip(*trajectories)])
        return ad.dot(aggregate(critic, value_of_context(critic, block)),
                      ad.constant(probe))

    def one_by_one():
        total = None
        for weight, traj in zip(probe, trajectories):
            value = aggregate(critic, value_of_context(critic, ad.stack(traj)))
            term = ad.scale(value, weight)
            total = term if total is None else ad.add(total, term)
        return total

    grads = []
    for build in (batched, one_by_one):
        for t in params + sum(trajectories, []):
            t.zero_grad()
        loss = build()
        ad.backward(loss)
        grads.append([float(loss.data)] + [t.grad for t in params + sum(trajectories, [])])
    for a, b in zip(*grads):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
    plain = sum(w * _numpy_fused(critic, [c.data for c in traj])
                for w, traj in zip(probe, trajectories))
    assert abs(grads[0][0] - plain) <= 1e-12
    check_gradients(batched, params + trajectories[0], rtol=1e-3, atol=1e-7)


def test_aggregate_rejects_a_block_of_the_wrong_depth():
    critic = _critic(levels=3)
    for shape in [(2, 5), (3,), (5, 2), ()]:
        with pytest.raises(ContractError):
            aggregate(critic, ad.constant(np.zeros(shape)))
    for shape in [(4, 5), (), (0,)]:
        with pytest.raises(ShapeError):
            value_of_context(critic, ad.constant(np.zeros(shape)))
