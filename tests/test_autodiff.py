import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hsrl.autodiff as ad
from hsrl.errors import ContractError, NumericsError, ShapeError
from hsrl.optim import Optimizer

from gradcheck import assert_close, check_gradients, finite_difference

TRIALS = 100


def _param(rng, shape, scale=1.0):
    return ad.Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# matrix-vector and vector-matrix products: matmul with a 1-D operand
# ---------------------------------------------------------------------------


def test_matvec_identity():
    w = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    x = ad.constant([3.0, 4.0])
    assert np.array_equal(ad.matmul(w, x).data, [3.0, 4.0])


def test_matvec_direct():
    out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([3.0, 4.0]))
    assert np.array_equal(out.data, [11.0])


def test_matvec_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([1.0, 2.0, 3.0]))


def test_matvec_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(TRIALS):
        w = _param(rng, (8, 8))
        x = _param(rng, (8,))
        check_gradients(lambda: ad.vsum(ad.matmul(w, x)), [w, x], rtol=1e-4)


def test_vector_matrix_product_matches_numpy_and_finite_differences():
    rng = np.random.default_rng(26)
    for _ in range(20):
        x, w = _param(rng, (5,)), _param(rng, (5, 3))
        probe = rng.normal(size=3)
        with ad.no_grad():
            out = ad.matmul(x, w).data
        assert out.shape == (3,)
        assert np.abs(out - np.einsum("i,ij->j", x.data, w.data)).max() <= 1e-12
        check_gradients(lambda: ad.dot(ad.matmul(x, w), ad.constant(probe)),
                        [x, w], rtol=1e-4)


def test_folded_forms_bitwise_equal_the_direct_formulas():
    """A 1-D `b` in `matmul`, a 0-d `b` in `add` and `vmean` over axis 0 give
    the bits of the plain numpy formulas: `W @ x`, `outer(g, x)`, `W.T @ g`,
    `g.sum()`, `m.sum(axis=0) / n` and `tile(g / n, (n, 1))`."""
    rng = np.random.default_rng(25)
    m, w, s = _param(rng, (3, 5)), _param(rng, (7, 5)), _param(rng, ())
    probe = rng.normal(size=7)
    x = ad.vmean(m, axis=0)
    out = ad.add(ad.matmul(w, x), s)
    ad.backward(ad.dot(out, ad.constant(probe)))
    assert x.data.tobytes() == (m.data.sum(axis=0) / 3).tobytes()
    assert out.data.tobytes() == (w.data @ x.data + s.data).tobytes()
    assert w.grad.tobytes() == np.outer(probe, x.data).tobytes()
    assert s.grad.shape == () and s.grad.tobytes() == probe.sum().tobytes()
    gx = w.data.T @ probe
    assert m.grad.tobytes() == np.tile(gx / 3, (3, 1)).tobytes()


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_overflow_stability():
    out = ad.softmax(ad.constant([1000.0, 0.0]))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_empty_input_rejected():
    with pytest.raises(ShapeError):
        ad.softmax(ad.constant(np.empty(0)))


def test_softmax_probability_vector_property():
    rng = np.random.default_rng(12)
    for _ in range(TRIALS):
        p = ad.softmax(ad.constant(rng.normal(0, 5, size=rng.integers(1, 30)))).data
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) < 1e-9


def test_softmax_jvp_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(TRIALS):
        x = _param(rng, (16,))
        probe = rng.normal(size=16)
        check_gradients(
            lambda: ad.dot(ad.softmax(x), ad.constant(probe)), [x], rtol=1e-4)


def test_log_softmax_gradient():
    rng = np.random.default_rng(14)
    for _ in range(TRIALS):
        x = _param(rng, (9,))
        i = int(rng.integers(9))
        check_gradients(lambda: ad.vsum(ad.embed(ad.log_softmax(x), [i])), [x],
                        rtol=1e-4)


def test_softmax_block_gradient():
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = _param(rng, (4, 5))
        probe = ad.constant(rng.normal(size=(4, 5)))
        check_gradients(
            lambda: ad.vsum(ad.mul(ad.softmax(x), probe)), [x], rtol=1e-4)


ROW_FORMS = settings(derandomize=True, database=None, deadline=None, max_examples=25)
# 1-D, 2-D and 3-D inputs whose rows (last axis) have at least two entries
row_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=2).flatmap(
    lambda lead: st.integers(2, 6).map(lambda n: tuple(lead) + (n,)))


def _row_form_cases(rng, shape):
    """(normalization op, a plain numpy expression of it, its parameters)."""
    n = shape[-1]
    gain, bias = _param(rng, (n,)), _param(rng, (n,))

    def layer_norm(x):
        centered = x - x.mean(axis=-1, keepdims=True)
        return (gain.data * centered / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
                + bias.data)

    return [(ad.softmax, lambda x: np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True), []),
            (ad.log_softmax, lambda x: x - np.log(np.exp(x).sum(axis=-1, keepdims=True)),
             []),
            (lambda x: ad.layer_norm(x, gain, bias), layer_norm, [gain, bias])]


@ROW_FORMS
@given(shape=row_shapes, seed=st.integers(0, 2**32 - 1))
def test_row_forms_match_finite_differences_and_their_1d_forms(shape, seed):
    # each op on a block: against finite differences and a plain numpy
    # expression, and against the same op applied to each row alone
    rng = np.random.default_rng(seed)
    n = shape[-1]
    for op, reference, extra in _row_form_cases(rng, shape):
        x = _param(rng, shape, scale=2.0)
        probe = rng.normal(size=shape)
        check_gradients(lambda: ad.vsum(ad.mul(op(x), ad.constant(probe))),
                        [x] + extra, rtol=1e-4, atol=1e-7)
        with ad.no_grad():
            values = op(x).data
        assert values.shape == shape
        assert np.abs(values - reference(x.data)).max() <= 1e-12
        grads = [t.grad.copy() for t in [x] + extra]
        for t in extra:
            t.zero_grad()
        # row by row: same values and x gradients, and the shared
        # parameters' gradients are the sum of every row's share
        for r, pr, v, g in zip(x.data.reshape(-1, n), probe.reshape(-1, n),
                               values.reshape(-1, n), grads[0].reshape(-1, n)):
            one = ad.Tensor(r.copy(), requires_grad=True)
            out = op(one)
            ad.backward(ad.dot(out, ad.constant(pr)))
            assert np.abs(out.data - v).max() <= 1e-12
            assert np.abs(one.grad - g).max() <= 1e-12
        for t, g in zip(extra, grads[1:]):
            assert np.abs(t.grad - g).max() <= 1e-12


@ROW_FORMS
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
       parts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stack_joins_equal_shapes_along_a_new_first_axis(shape, parts, seed):
    rng = np.random.default_rng(seed)
    xs = [_param(rng, shape) for _ in range(parts)]
    probe = ad.constant(rng.normal(size=(parts,) + shape))
    stacked = ad.stack(xs)
    assert np.array_equal(stacked.data, np.array([x.data for x in xs]))
    check_gradients(lambda: ad.vsum(ad.mul(ad.stack(xs), probe)), xs, rtol=1e-4)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_input():
    x = ad.constant([1.0, 1.0, 1.0, 1.0])
    out = ad.layer_norm(x, ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
    assert np.array_equal(out.data, np.zeros(4))


def test_layer_norm_two_points():
    out = ad.layer_norm(ad.constant([-1.0, 1.0]), ad.constant(np.ones(2)),
                        ad.constant(np.zeros(2)))
    assert out.data == pytest.approx([-1.0, 1.0], abs=1e-4)


def test_layer_norm_moments():
    rng = np.random.default_rng(16)
    for _ in range(TRIALS):
        x = rng.normal(0, 3, size=32)
        out = ad.layer_norm(ad.constant(x), ad.constant(np.ones(32)),
                            ad.constant(np.zeros(32))).data
        assert abs(out.mean()) < 1e-7
        assert abs(out.var() - 1.0) < 1e-3


def test_layer_norm_gradient():
    rng = np.random.default_rng(17)
    for _ in range(TRIALS):
        x = _param(rng, (32,))
        gain = _param(rng, (32,))
        bias = _param(rng, (32,))
        probe = ad.constant(rng.normal(size=32))
        check_gradients(
            lambda: ad.dot(ad.layer_norm(x, gain, bias), probe),
            [x, gain, bias], rtol=1e-4)


def test_layer_norm_requires_length_two():
    with pytest.raises(ShapeError):
        ad.layer_norm(ad.constant([1.0]), ad.constant([1.0]), ad.constant([0.0]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(5.0), requires_grad=True)
    ad.backward(ad.vsum(x))
    assert np.array_equal(x.grad, np.ones(5))


def test_backward_quadratic():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.dot(x, x))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.scale(x, 2.0))


def test_backward_rejects_disconnected_loss():
    with pytest.raises(ContractError):
        ad.backward(ad.constant(1.0))


def test_backward_twice_doubles_exactly():
    rng = np.random.default_rng(18)
    x = _param(rng, (6,))
    w = _param(rng, (4, 6))

    def loss():
        return ad.vsum(ad.tanh(ad.matmul(w, x)))

    ad.backward(loss())
    gx, gw = x.grad.copy(), w.grad.copy()
    ad.backward(loss())
    assert np.array_equal(x.grad, 2.0 * gx)
    assert np.array_equal(w.grad, 2.0 * gw)


def test_shared_node_gradient_accumulates_once():
    # x used twice: d(x.x)/dx = 2x, no double counting from revisits
    x = ad.Tensor([3.0], requires_grad=True)
    y = ad.mul(x, x)
    ad.backward(ad.vsum(y))
    assert np.allclose(x.grad, [6.0])


def test_gradients_sum_in_decreasing_consumer_id_order():
    # `s` has three consumers created between the nodes of an unrelated
    # branch, and `w` is reached through `s` and directly through `d`.
    rng = np.random.default_rng(21)
    w = _param(rng, (64,))
    v = _param(rng, (64,))
    k = rng.normal(size=64)
    s = ad.tanh(w)
    c1 = ad.scale(s, 3.0)
    u1 = ad.tanh(v)
    c2 = ad.mul(s, ad.constant(k))
    u2 = ad.scale(u1, 2.0)
    c3 = ad.sigmoid(s)
    d = ad.scale(w, -0.7)
    ad.backward(ad.vsum(ad.add(ad.add(ad.add(ad.add(c1, c2), c3), d), u2)))

    sig = c3.data
    g_s = (sig * (1.0 - sig) + k) + 3.0  # from c3, then c2, then c1
    g_w = np.full(64, -0.7) + g_s * (1.0 - s.data * s.data)  # d, then s
    assert np.array_equal(w.grad, g_w)
    assert np.array_equal(v.grad, 2.0 * (1.0 - u1.data * u1.data))


def test_backward_of_a_parameter_leaf_loss():
    p = ad.parameter(np.asarray(1.5))
    ad.backward(p)
    ad.backward(p)
    assert p.grad.shape == () and p.grad == 2.0


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

finite_arrays = st.sampled_from([(), (1,), (5,), (3, 4), (1, 6)]).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(allow_nan=False, allow_infinity=False)))


@FUZZ
@given(base=finite_arrays, where=st.integers(0, 23),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_finite_check_finds_one_bad_entry_anywhere(base, where, bad):
    poisoned = base.copy()
    poisoned.flat[where % base.size] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        for make in (ad.constant, ad.parameter):
            with pytest.raises(NumericsError):
                make(poisoned)
        x = ad.parameter(base)
        x.data[...] = poisoned  # bypass the check to poison a primitive's input
        with pytest.raises(NumericsError):
            ad.scale(x, 1.0)


@pytest.mark.parametrize("data", [[1e308, 1e308], [-1e308, -1e308],
                                  [[1e308], [1e308]]])
def test_finite_check_accepts_a_sum_that_overflows(data):
    with np.errstate(over="ignore"):
        for make in (ad.constant, ad.parameter):
            assert np.array_equal(make(data).data, data)
        assert np.array_equal(ad.scale(ad.parameter(data), 1.0).data, data)


def test_nan_inputs_rejected():
    with pytest.raises(NumericsError):
        ad.Tensor([np.nan, 1.0])
    with pytest.raises(NumericsError), np.errstate(over="ignore"):
        ad.scale(ad.constant([1e308]), 10.0)  # output overflows to Inf


def test_no_grad_suppresses_graph():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = ad.scale(x, 3.0)
    assert not out.requires_grad


# ---------------------------------------------------------------------------
# mixed primitives
# ---------------------------------------------------------------------------


def test_misc_primitive_gradients():
    rng = np.random.default_rng(19)
    for _ in range(25):
        a = _param(rng, (7,))
        b = _param(rng, (7,))
        m = _param(rng, (3, 7))
        probe = ad.constant(rng.normal(size=3))

        def loss():
            mixed = ad.add(ad.mul(a, b), ad.scale(ad.sub(a, b), 0.5))
            pooled = ad.matmul(m, ad.tanh(mixed))
            return ad.dot(ad.sigmoid(pooled), probe)

        check_gradients(loss, [a, b, m], rtol=1e-4)


def test_embed_gather_gradients():
    rng = np.random.default_rng(20)
    table = _param(rng, (6, 4))
    vec = _param(rng, (3,))

    def loss():
        rows = ad.embed(table, [0, 2, 2, 5])
        pooled = ad.vmean(rows, axis=0)
        joined = ad.add(pooled, ad.embed(vec, [2, 0, 0, 1]))  # 1-D: entries
        return ad.vmean(ad.mul(joined, joined))

    check_gradients(loss, [table, vec], rtol=1e-4)


@pytest.mark.parametrize("ids", [[-1], [0, 6], [6]])
def test_embed_rejects_out_of_range_ids(ids):
    table = ad.parameter((6, 3), np.random.default_rng(0), 0.1)
    with pytest.raises(ContractError):
        ad.embed(table, ids)


def test_embed_rejects_a_scalar():
    with pytest.raises(ShapeError):
        ad.embed(ad.constant(1.0), [0])


def test_stack_softplus_add_scalar_gradients():
    rng = np.random.default_rng(21)
    s1 = ad.Tensor(np.asarray(rng.normal()), requires_grad=True)
    s2 = ad.Tensor(np.asarray(rng.normal()), requires_grad=True)
    v = _param(rng, (4,))

    def loss():
        stacked = ad.stack([s1, s2, ad.dot(v, v)])
        return ad.vsum(ad.softplus(ad.add(stacked, s1)))

    check_gradients(loss, [s1, s2, v], rtol=1e-4)


# ---------------------------------------------------------------------------
# leading batch axes
# ---------------------------------------------------------------------------


def _values_and_grads(build, tensors):
    for t in tensors:
        t.zero_grad()
    out = build()
    ad.backward(ad.vsum(out))
    return out.data.copy(), [t.grad.copy() for t in tensors]


def test_two_d_matmul_transpose_softmax_unchanged_bit_for_bit():
    """2-D results and gradients are those of the 2-D-only formulas."""
    rng = np.random.default_rng(22)
    a, b, probe = _param(rng, (5, 4)), _param(rng, (6, 4)), rng.normal(size=(5, 6))

    def build():
        bt = ad.transpose(b)                   # a non-contiguous operand
        return ad.mul(ad.softmax(ad.matmul(a, bt)), ad.constant(probe))

    values, (ga, gb) = _values_and_grads(build, [a, b])
    logits = a.data @ b.data.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    g = p * (probe - (p * probe).sum(axis=1, keepdims=True))
    assert values.tobytes() == (p * probe).tobytes()
    assert ga.tobytes() == (g @ b.data.T.T).tobytes()
    assert gb.tobytes() == (a.data.T @ g).T.tobytes()


def test_batched_matmul_matches_each_slice():
    rng = np.random.default_rng(23)
    x, w, y = _param(rng, (3, 4, 5)), _param(rng, (5, 2)), _param(rng, (3, 5, 6))
    with ad.no_grad():
        shared = ad.matmul(x, w).data
        paired = ad.matmul(x, y).data
    assert shared.shape == (3, 4, 2) and paired.shape == (3, 4, 6)
    for i in range(3):
        assert np.abs(shared[i] - x.data[i] @ w.data).max() <= 1e-12
        assert np.abs(paired[i] - x.data[i] @ y.data[i]).max() <= 1e-12


def test_reshape_to_its_own_shape_is_the_tensor_itself():
    x = _param(np.random.default_rng(27), (2, 3))
    assert ad.reshape(x, (2, 3)) is x
    assert ad.reshape(x, (3, 2)) is not x


def test_batched_primitive_gradients():
    rng = np.random.default_rng(24)
    for _ in range(10):
        x = _param(rng, (3, 4, 5))
        w = _param(rng, (5, 5))
        bias = _param(rng, (5,))
        probe = ad.constant(rng.normal(size=(12, 5)))

        def loss():
            q = ad.matmul(x, w)                               # one shared matrix
            scores = ad.matmul(q, ad.transpose(x))            # paired batches
            mixed = ad.matmul(ad.softmax(scores), q)          # (3, 4, 5)
            rows = ad.add(ad.reshape(mixed, (12, 5)), bias)   # bias row on each row
            return ad.vsum(ad.mul(rows, probe))

        check_gradients(loss, [x, w, bias], rtol=1e-4)


@pytest.mark.parametrize("build", [
    lambda: ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4, 2)))),
    lambda: ad.matmul(ad.constant(np.ones((3, 4))), ad.constant(np.ones((2, 4, 2)))),
    lambda: ad.matmul(ad.constant(np.ones(4)), ad.constant(np.ones(4))),
    lambda: ad.transpose(ad.constant(np.ones(3))),
    lambda: ad.softmax(ad.constant(1.0)),
    lambda: ad.reshape(ad.constant(np.ones((2, 3))), (4, 2)),
    lambda: ad.reshape(ad.constant(np.ones((2, 3))), (-1, 2)),
    lambda: ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones(2))),
    lambda: ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones(2))),
    lambda: ad.matmul(ad.constant(np.ones((2, 2, 3))), ad.constant(np.ones(3))),
    lambda: ad.add(ad.constant(np.ones(3)), ad.constant(np.ones((2, 3)))),
    lambda: ad.add(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((2, 4)))),
    lambda: ad.log_softmax(ad.constant(np.ones((2, 0)))),
    lambda: ad.layer_norm(ad.constant(1.0), ad.constant(np.ones(1)),
                          ad.constant(np.zeros(1))),
    lambda: ad.layer_norm(ad.constant(np.ones((2, 1))), ad.constant(np.ones(1)),
                          ad.constant(np.zeros(1))),
    lambda: ad.layer_norm(ad.constant(np.ones((2, 3))), ad.constant(np.ones(2)),
                          ad.constant(np.zeros(3))),
    lambda: ad.stack([ad.constant(np.ones(2)), ad.constant(np.ones(3))]),
    lambda: ad.stack([]),
    lambda: ad.matmul(ad.constant(np.ones(4)), ad.constant(np.ones((2, 4, 3)))),
    lambda: ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((4, 2)))),
    lambda: ad.softmax(ad.constant(np.ones((3, 0)))),
    lambda: ad.log_softmax(ad.constant(1.0)),
    lambda: ad.layer_norm(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)),
                          ad.constant(np.zeros(4))),
])
def test_batched_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_opt_zero_gradients_leave_params_unchanged():
    p = ad.Tensor([1.0, 2.0], requires_grad=True)
    opt = Optimizer([p])
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.step_count == 1


def test_opt_zero_grad_noop_even_with_moment_history():
    p = ad.Tensor([1.0], requires_grad=True)
    opt = Optimizer([p])
    p.grad = np.array([0.5])
    opt.step()
    after_first = p.data.copy()
    p.grad = np.array([0.0])
    opt.step()
    assert np.array_equal(p.data, after_first)


def test_opt_nan_gradient_aborts_step():
    p = ad.Tensor([1.0], requires_grad=True)
    opt = Optimizer([p])
    p.grad = np.array([np.nan])
    before = p.data.copy()
    with pytest.raises(NumericsError):
        opt.step()
    assert np.array_equal(p.data, before)


def test_opt_converges_to_analytic_optimum():
    p = ad.Tensor(np.asarray(0.0), requires_grad=True)
    opt = Optimizer([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        d = ad.shift(p, -3.0)
        ad.backward(ad.mul(d, d))
        opt.step()
    assert abs(float(p.data) - 3.0) < 1e-2


def test_finite_difference_helper_sanity():
    # the oracle itself: d/dx of x^2 at 3 is 6
    t = ad.Tensor(np.asarray(3.0), requires_grad=True)
    (g,) = finite_difference(lambda: float(t.data) ** 2, [t])
    assert_close(np.asarray(6.0), g, rtol=1e-6)
