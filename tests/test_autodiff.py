import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hsrl.autodiff as ad
from hsrl.errors import ContractError, NumericsError, ShapeError
from hsrl import optim
from hsrl.optim import Optimizer

from gradcheck import assert_close, check_gradients, dense_embed, finite_difference

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
        check_gradients(lambda: ad.vsum(ad.embed(ad.softmax_and_log(x)[1], [i])), [x],
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
            (lambda x: ad.softmax_and_log(x)[1],
             lambda x: x - np.log(np.exp(x).sum(axis=-1, keepdims=True)), []),
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


def _written_out_forms(gain, bias):
    """softmax, log_softmax and layer_norm as `.max`/`.sum`/`** 2` formulas:
    (forward, backward) pairs, the backward returning every input's gradient."""
    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        return p, lambda g: (p * (g - (p * g).sum(axis=-1, keepdims=True)),)

    def log_softmax(x):
        shifted = x - x.max(axis=-1, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        p = np.exp(out)
        return out, lambda g: (g - p * g.sum(axis=-1, keepdims=True),)

    def layer_norm(x):
        n = x.shape[-1]
        centered = x - x.sum(axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt((centered ** 2).sum(axis=-1, keepdims=True) / n + 1e-5)
        xhat = centered * inv

        def back(g):
            h = g * gain
            gx = (h - h.sum(axis=-1, keepdims=True) / n
                  - xhat * ((h * xhat).sum(axis=-1, keepdims=True) / n)) * inv
            return gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)

        return gain * xhat + bias, back

    return {"softmax": softmax, "log_softmax": log_softmax, "layer_norm": layer_norm}


@pytest.mark.parametrize("shape", [(32,), (16,), (12, 32), (3, 5, 16), (4, 5)])
def test_normalization_ops_equal_their_written_out_formulas_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    n = shape[-1]
    for trial in range(50):
        scale = 10.0 ** rng.uniform(-3, 2)
        x = _param(rng, shape, scale)
        gain, bias = _param(rng, (n,)), _param(rng, (n,))
        # both outputs of `softmax_and_log` against their own formulas
        ops = {"softmax": [ad.softmax, lambda t: ad.softmax_and_log(t)[0]],
               "log_softmax": [lambda t: ad.softmax_and_log(t)[1]],
               "layer_norm": [lambda t: ad.layer_norm(t, gain, bias)]}
        for name, form in _written_out_forms(gain.data, bias.data).items():
            want, want_back = form(x.data)
            for op in ops[name]:
                out = op(x)
                assert out.data.tobytes() == want.tobytes(), name
                probe = rng.normal(size=shape)
                got = out._backward(probe)
                assert [g.tobytes() for g in got] == [
                    g.tobytes() for g in want_back(probe)], name


@pytest.mark.parametrize("shape", [(9,), (4, 5), (2, 3, 6)])
def test_softmax_and_log_gradients_match_finite_differences(shape):
    rng = np.random.default_rng(16 + len(shape))
    for _ in range(10):
        x = _param(rng, shape, scale=2.0)
        probes = [ad.constant(rng.normal(size=shape)) for _ in range(2)]

        def loss(which):
            outs = ad.softmax_and_log(x)
            parts = [ad.vsum(ad.mul(outs[i], probes[i])) for i in which]
            return parts[0] if len(parts) == 1 else ad.add(*parts)

        for which in ((0,), (1,), (0, 1)):
            check_gradients(lambda: loss(which), [x], rtol=1e-4, atol=1e-7)


def test_softmax_and_log_without_gradients_builds_plain_tensors():
    x = _param(np.random.default_rng(18), (3, 4))
    with ad.no_grad():
        pair = ad.softmax_and_log(x)
    assert [(t.requires_grad, t._backward) for t in pair] == [(False, None)] * 2


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


@pytest.mark.parametrize("data", [[1e308, 1e308], [-1e308, -1e308],
                                  [[1e308], [1e308]]])
def test_finite_check_accepts_a_sum_that_overflows(data):
    with np.errstate(over="ignore"):
        for make in (ad.constant, ad.parameter):
            assert np.array_equal(make(data).data, data)
        assert np.array_equal(ad.scale(ad.parameter(data), 1.0).data, data)
        # the optimizer's pre-check falls back too and accepts the gradient,
        # whose second moment then overflows: the step raises and moves nothing
        p = ad.parameter(np.zeros(np.shape(data)))
        p.grad = np.array(data, dtype=float)
        opt = Optimizer([p])
        with pytest.raises(NumericsError, match="Adam step overflows"):
            opt.step()
        assert not p.data.any() and opt.step_count == 0
        assert not opt._m[0].any() and not opt._v[0].any()


def test_nan_inputs_rejected():
    with pytest.raises(NumericsError):
        ad.Tensor([np.nan, 1.0])
    with pytest.raises(NumericsError), ad.checked():
        ad.scale(ad.parameter([1e308]), 10.0)  # output overflows to Inf


def test_no_grad_suppresses_graph():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = ad.scale(x, 3.0)
    assert not out.requires_grad


# Primitives on finite leaves, made by `C`, built from one large entry `x`
# (|x| >= 1e308) whose arithmetic overflows; see the module docstring.
OVERFLOWS = {
    "add": lambda x, C: ad.add(C([x, 1.0]), C([x, 2.0])),
    "add_row": lambda x, C: ad.add(C([[1.0, x]]), C([0.0, x])),
    "sub": lambda x, C: ad.sub(C([x]), C([-x])),
    "mul": lambda x, C: ad.mul(C([x, 3.0]), C([x, 3.0])),
    "scale": lambda x, C: ad.scale(C([2.0, x]), 10.0),
    "vsum": lambda x, C: ad.vsum(C([x, 0.5, x])),
    "vmean": lambda x, C: ad.vmean(C([x, x])),
    "vmean_axis": lambda x, C: ad.vmean(C([[x], [x]]), axis=0),
    "dot": lambda x, C: ad.dot(C([x, x]), C([1.0, 1.0])),
    "matmul": lambda x, C: ad.matmul(C([[x, 2.0]]), C([[x], [1.0]])),
    "softmax": lambda x, C: ad.softmax(C([x, -x])),
    "softmax_and_log": lambda x, C: ad.softmax_and_log(C([[0.0, 1.0], [x, -x]])),
    "layer_norm": lambda x, C: ad.layer_norm(C([x, -x, 3.0]), C(np.ones(3)), C(np.zeros(3))),
    "tanh_of_scale": lambda x, C: ad.tanh(ad.scale(C([x]), 1e308)),
    "sigmoid_of_mul": lambda x, C: ad.sigmoid(ad.mul(C([x]), C([x]))),
    "softplus_of_add": lambda x, C: ad.softplus(ad.add(C([x]), C([x]))),
}
# Each block the tape runs in, with the leaves that make a graph in it: under
# `checked()` alone, gradients are recorded.
BLOCKS = [(ad.no_grad, ad.constant), (ad.checked, ad.parameter)]


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
@FUZZ
@given(x=st.floats(1e308, np.finfo(np.float64).max), sign=st.sampled_from([1.0, -1.0]))
def test_no_grad_raises_numerics_error_where_finite_inputs_overflow(op, x, sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the test
        for block, leaf in BLOCKS:
            with pytest.raises(NumericsError, match="NaN/Inf in a tape op"), block():
                OVERFLOWS[op](sign * x, leaf)


def test_no_grad_raises_on_an_overflow_that_tanh_would_mask():
    for block, leaf in BLOCKS:
        with pytest.raises(NumericsError), block():
            ad.tanh(ad.scale(leaf([1e308, 1.0]), 1e308))


def test_no_grad_ignores_underflow_whatever_the_callers_state():
    for block, leaf in BLOCKS:
        with np.errstate(under="raise"), block():
            out = ad.softmax(leaf([0.0, -1e9]))  # exp(-1e9) underflows to 0
        assert np.array_equal(out.data, [1.0, 0.0])


def test_no_grad_is_stricter_than_the_scan_on_an_internal_overflow():
    # the op overflows inside but returns finite values (zeros), which no
    # scan of its output would find: the flags raise in both blocks
    for block, leaf in BLOCKS:
        args = leaf([1e160, -1e160, 3.0]), leaf(np.ones(3)), leaf(np.zeros(3))
        with pytest.raises(NumericsError, match="overflow"), block():
            ad.layer_norm(*args)


def test_no_grad_restores_the_callers_error_state():
    for block, leaf in BLOCKS:
        with np.errstate(over="warn", invalid="ignore", divide="print", under="raise"):
            caller = np.geterr()
            with block():
                inside = np.geterr()
                assert inside == {"over": "raise", "invalid": "raise", "divide": "raise",
                                  "under": "ignore"}
            assert np.geterr() == caller
            with pytest.raises(NumericsError), block():
                ad.scale(leaf([1e308]), 10.0)
            assert np.geterr() == caller
            with pytest.raises(KeyError), block():
                raise KeyError("not numerics")
            assert np.geterr() == caller
            with block():
                with pytest.raises(NumericsError), block():
                    ad.scale(leaf([1e308]), 10.0)
                assert np.geterr() == inside
                with block():
                    pass
                assert np.geterr() == inside
            assert np.geterr() == caller
        assert ad._GRAD_ENABLED


def test_no_grad_nodes_skip_the_scan_but_keep_node_ids_and_float64():
    start = int(repr(ad._NODE_IDS)[len("count("):-1])
    with ad.no_grad():
        s = ad.vsum(ad.constant([1.0, 2.0]))
    assert int(repr(ad._NODE_IDS)[len("count("):-1]) == start + 2
    assert type(s.data) is np.ndarray and s.data.dtype == np.float64 and s.shape == ()
    assert not s.requires_grad and s._parents == () and s._backward is None


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


@pytest.mark.parametrize("ids", [[2.5], [2.0], [True, False], np.array([1.5, 0.0])],
                         ids=["float", "whole_float", "bool", "float_array"])
def test_embed_rejects_ids_that_are_not_integers(ids):
    # truncating a float, or reading a bool as 0/1, would take another row
    table = ad.parameter((6, 3), np.random.default_rng(0), 0.1)
    with pytest.raises(ContractError, match="embed: ids must be integers"):
        ad.embed(table, ids)


def test_embed_of_no_ids_is_empty():
    table = ad.parameter((6, 3), np.random.default_rng(0), 0.1)
    for ids in ([], np.array([], dtype=np.int64)):
        assert ad.embed(table, ids).data.shape == (0, 3)


def _probe(rng, shape):
    """Random entries spread over 24 orders of magnitude, so a sum taken in
    another order rounds differently."""
    return ad.constant(rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 12, size=shape))


def _picks(rng, table, ids):
    return ad.vsum(ad.mul(ad.embed(table, ids), _probe(rng, np.shape(ids) + table.shape[1:])))


def _two_overlapping_nodes(take, t, rng):
    a = take(t, [1, 4, 4, 7, 4])
    b = take(t, [[4, 2], [1, 4], [4, 4]])
    return ad.add(ad.vsum(ad.mul(a, _probe(rng, a.shape))),
                  ad.vsum(ad.mul(b, _probe(rng, b.shape))))


def _three_nodes_on_a_vector(take, t, rng):
    parts = [take(t, ids) for ids in ([3, 3, 8], [8, 3, 3, 3], [0])]
    return ad.add(ad.add(*(ad.vsum(ad.mul(p, _probe(rng, p.shape))) for p in parts[:2])),
                  ad.vsum(ad.mul(parts[2], _probe(rng, parts[2].shape))))


def _embed_and_dense_op(take, t, rng):
    # pieces reach the leaf as rows, rows, dense, rows: every merge
    first = take(t, [2, 2, 5])
    dense = ad.mul(t, _probe(rng, t.shape))
    second, third = take(t, [5, 0, 5]), take(t, [[2], [8]])
    parts = [ad.vsum(ad.mul(x, _probe(rng, x.shape))) for x in (first, second, third)]
    return ad.add(ad.add(ad.add(parts[0], ad.vsum(dense)), parts[1]), parts[2])


def _non_leaf_target(take, t, rng):
    h = take(ad.tanh(t), [3, 3])
    return ad.vsum(ad.mul(h, _probe(rng, h.shape)))


def _fewer_rows_than_ids(take, t, rng):
    h = take(t, [0, 1, 1, 0, 1, 8, 8, 8, 8, 8])
    return ad.vsum(ad.mul(h, _probe(rng, h.shape)))


def _no_ids(take, t, rng):
    return ad.add(ad.vsum(take(t, np.zeros(0, dtype=np.intp))),
                  ad.vsum(ad.mul(take(t, [6]), _probe(rng, (1, 3)))))


def _one_node(ids):
    def build(take, t, rng):
        h = take(t, ids)
        return ad.vsum(ad.mul(h, _probe(rng, h.shape)))
    return build


# case -> (table shape, loss builder, rows the first backward's gradient may
# be nonzero on; None when it is recorded dense). One embed's ids are kept as
# given; any merge (a second node, a dense op) makes the gradient dense.
ROW_CASES = {
    "one_node": ((9, 3), _one_node([1, 4, 4, 7, 4]), [1, 4, 7]),
    "one_node_on_a_vector": ((10,), _one_node([3, 3, 8]), [3, 8]),
    # the (histories, window) ids `encode_batch` takes, padded with row 0
    "one_node_padded_ids": ((9, 3), _one_node([[4, 1, 4], [7, 0, 0]]), [0, 1, 4, 7]),
    "one_node_no_ids": ((9, 3), _one_node(np.zeros(0, dtype=np.intp)), []),
    "two_overlapping_nodes": ((9, 3), _two_overlapping_nodes, None),
    "three_nodes_on_a_vector": ((10,), _three_nodes_on_a_vector, None),
    "embed_and_dense_op": ((9, 3), _embed_and_dense_op, None),
    "non_leaf_target": ((9, 3), _non_leaf_target, None),
    "fewer_rows_than_ids": ((9, 3), _fewer_rows_than_ids, None),
    "no_ids": ((9, 3), _no_ids, None),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_row_gradients_equal_the_dense_scatter_bitwise(case):
    shape, build, rows = ROW_CASES[case]
    got = []
    for take in (ad.embed, dense_embed):
        t = _param(np.random.default_rng(40), shape)
        for _ in range(2):  # a second backward accumulates into the first
            ad.backward(build(take, t, np.random.default_rng(41)))
            got.append((t.grad.copy(), t.grad_rows))
    # a second backward is a merge too
    assert all(recorded is None for _, recorded in got[1:])
    for (fast, _), (dense, _) in zip(got[:2], got[2:]):
        assert fast.tobytes() == dense.tobytes()
    first, recorded = got[0]
    if rows is None:
        assert recorded is None
    else:
        assert sorted(set(np.ravel(recorded).tolist())) == rows
        assert not np.delete(first, rows, axis=0).any()
    t.zero_grad()
    assert t.grad is None and t.grad_rows is None


def test_dense_pieces_leave_no_row_record():
    rng = np.random.default_rng(42)
    t = _param(rng, (9, 3))
    ad.backward(_picks(rng, t, [1, 2]))
    assert t.grad_rows.tolist() == [1, 2]
    ad.backward(ad.vsum(t))  # a dense gradient adds to the row one
    assert t.grad_rows is None
    Optimizer([t]).zero_grad()
    assert t.grad is None and t.grad_rows is None


# Zeros of both signs, subnormals, values near 1e300 (a few of them sum
# without overflow) and everything between.
scatter_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300))


@st.composite
def scatters(draw):
    """(table shape, ids with repeats, gradient of `table[ids]`)."""
    shape = draw(st.sampled_from([(1,), (6,), (2, 3), (4, 5), (3, 2, 2), (3, 0), (2, 32)]))
    ids = draw(arrays(np.intp, draw(st.sampled_from([(0,), (1,), (7,), (3, 4)])),
                      elements=st.integers(0, shape[0] - 1)))
    return shape, ids, draw(arrays(np.float64, ids.shape + shape[1:],
                                   elements=scatter_values))


def _assert_scatter_equals_add_at(shape, ids, g):
    """`Rows.dense` against `gradcheck.dense_embed`'s `zeros` + `np.add.at`."""
    got = ad.Rows(shape, ids, g).dense()
    want, = dense_embed(ad.parameter(np.zeros(shape)), ids)._backward(g)
    assert got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@FUZZ
@given(case=scatters())
def test_bincount_scatter_equals_add_at_bitwise(case):
    _assert_scatter_equals_add_at(*case)


@pytest.mark.parametrize("seed", range(5))
def test_bincount_scatter_of_320_ids_into_two_rows_equals_add_at_bitwise(seed):
    # the feedback-bit table of a simulator-fit batch: 32 histories of 10
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2, size=(32, 10))
    g = rng.normal(size=(32, 10, 32)) * 10.0 ** rng.uniform(-300, 300, size=(32, 10, 32))
    g[0] = -0.0
    _assert_scatter_equals_add_at((2, 32), ids, g)


@pytest.mark.parametrize("shape", [(4,), (4, 3), (4, 0), (4, 2, 0)])
def test_bincount_scatter_of_no_ids_is_float_zeros(shape):
    ids = np.zeros(0, dtype=np.intp)
    _assert_scatter_equals_add_at(shape, ids, np.zeros((0,) + shape[1:]))
    _assert_scatter_equals_add_at(shape, ids[:, None], np.zeros((0, 1) + shape[1:]))


# case -> (op, shape of a, shape of b): the product forms whose gradient
# with respect to a constant operand is skipped
CONSTANT_OPERAND_CASES = {
    "matmul_1d_b": (ad.matmul, (4, 3), (3,)),
    "matmul_1d_a": (ad.matmul, (3,), (3, 5)),
    "matmul_2d": (ad.matmul, (4, 3), (3, 5)),
    "matmul_shared_2d_b": (ad.matmul, (2, 4, 3), (3, 5)),
    "matmul_batched_b": (ad.matmul, (2, 4, 3), (2, 3, 5)),
    "mul": (ad.mul, (3, 4), (3, 4)),
    "dot": (ad.dot, (5,), (5,)),
}


@pytest.mark.parametrize("constant_side", [0, 1])
@pytest.mark.parametrize("case", sorted(CONSTANT_OPERAND_CASES))
def test_no_gradient_for_a_constant_operand(case, constant_side):
    op, *shapes = CONSTANT_OPERAND_CASES[case]
    rng = np.random.default_rng(43)
    data = [rng.normal(size=shape) for shape in shapes]
    both = op(*(ad.parameter(d) for d in data))
    g = rng.normal(size=both.shape)
    reference = both._backward(g)
    one = op(*(ad.constant(d) if side == constant_side else ad.parameter(d)
               for side, d in enumerate(data)))
    grads = one._backward(g)
    assert grads[constant_side] is None
    live = 1 - constant_side
    assert grads[live].tobytes() == reference[live].tobytes()


@pytest.mark.parametrize("case", sorted(CONSTANT_OPERAND_CASES))
def test_an_operand_cleared_before_backward_gets_no_gradient(case):
    # as the simulator fit clears its item table's flag
    op, *shapes = CONSTANT_OPERAND_CASES[case]
    rng = np.random.default_rng(44)
    a, b = (ad.parameter(rng.normal(size=shape)) for shape in shapes)
    out = op(a, b)
    probe = ad.constant(rng.normal(size=out.shape))
    loss = ad.vsum(ad.mul(out, probe)) if out.ndim else ad.scale(out, 1.5)
    b.requires_grad = False
    assert out._backward(np.ones(out.shape))[1] is None
    ad.backward(loss)
    assert b.grad is None and a.grad is not None


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
    lambda: ad.softmax_and_log(ad.constant(np.ones((2, 0)))),
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
    lambda: ad.softmax_and_log(ad.constant(1.0)),
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
    # every gradient is checked before any parameter or moment moves
    first = ad.Tensor([1.0, 2.0], requires_grad=True)
    p = ad.Tensor([1.0], requires_grad=True)
    opt = Optimizer([first, p])
    first.grad = np.array([0.5, -0.5])
    p.grad = np.array([np.nan])
    before = p.data.copy()
    with pytest.raises(NumericsError):
        opt.step()
    assert np.array_equal(p.data, before)
    assert first.data.tolist() == [1.0, 2.0] and opt.step_count == 0
    assert not opt._m[0].any() and not opt._v[0].any()


def _adam_state(opt):
    """Bytes of every parameter, moment and reached-rows mask, and step_count."""
    arrays = [p.data for p in opt.params] + opt._m + opt._v
    return ([a.tobytes() for a in arrays], opt.step_count,
            [(id(p), mask.tobytes()) for p, mask in opt._reached.items()])


@pytest.mark.parametrize("rows", [None, np.array([1])])
def test_opt_step_that_would_overflow_writes_no_parameter(rows):
    # (1.7e308 - (-1.7e308)) overflows on w; a, before it, would step to
    # -1.7e308 and `after` would step too, but nothing moves
    a = ad.Tensor([1.0], requires_grad=True)
    w = ad.Tensor([[1.7e308, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]], requires_grad=True)
    after = ad.Tensor([1.0], requires_grad=True)
    opt = Optimizer([a, w, after], lr=1.7e308)
    if rows is None:
        w.grad = np.array([[-1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    else:
        w.grad, w.grad_rows = np.array([[0.0, 0.0], [-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), rows
        w.data[[0, 1]] = w.data[[1, 0]]
    a.grad, after.grad = np.array([1.0]), np.array([1.0])
    before = _adam_state(opt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="step aborted"):
            opt.step()
    assert _adam_state(opt) == before
    assert np.geterr()["over"] == "warn"


def test_opt_second_moment_overflow_raises_instead_of_freezing_the_entry():
    # g^2 overflows v[0]; an Inf second moment would hold w[0] still for good
    w = ad.Tensor([1.0, 1.0], requires_grad=True)
    opt = Optimizer([w], lr=0.1)
    w.grad = np.array([1e200, 1.0])
    before = _adam_state(opt)
    with pytest.raises(NumericsError, match="Adam step overflows"):
        opt.step()
    assert _adam_state(opt) == before
    w.grad = np.array([1.0, 1.0])
    opt.step()
    assert w.data[0] == w.data[1] < 1.0 and np.isfinite(opt._v[0]).all()  # both moved


def test_opt_step_ignores_underflow_whatever_the_callers_state():
    # g^2 (1 - b2) underflows v[0] to 0, which is no error: both entries step
    w = ad.Tensor([0.0, 0.0], requires_grad=True)
    opt = Optimizer([w], lr=0.1)
    w.grad = np.array([1e-200, 1.0])
    with np.errstate(under="raise"):
        opt.step()
    assert (w.data < 0.0).all() and opt.step_count == 1


def _adam_formula(m, v, w, g, t, lr):
    """One Adam step on whole arrays, written out: new (m, v, w)."""
    b1, b2 = optim.BETA1, optim.BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    w = w - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + optim.EPS)
    return m, v, w


def _assert_adam_state(opt, params, m, v, want):
    for got, ref in ((opt._m, m), (opt._v, v), ([p.data for p in params], want)):
        assert [np.asarray(a).tobytes() for a in got] == [
            np.asarray(a).tobytes() for a in ref]


def test_opt_in_place_step_equals_the_adam_formula_bitwise():
    # 0-d, 1-D and 2-D parameters; the fourth has no gradient on odd steps
    # and the fifth an all-zero one on even steps, after moments built up
    rng = np.random.default_rng(73)
    shapes = [(), (7,), (5, 3), (4,), (2, 6)]
    params = [_param(rng, s) for s in shapes]
    opt = Optimizer(params, lr=0.01)
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 8):
        grads = [rng.normal(size=s) * 10.0 ** rng.uniform(-6, 3) for s in shapes]
        if t % 2:
            grads[3] = None
        else:
            grads[4] = np.zeros(shapes[4])
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            if g is not None and g.any():
                m[i], v[i], want[i] = _adam_formula(m[i], v[i], want[i], g, t, 0.01)
        _assert_adam_state(opt, params, m, v, want)
    assert opt.step_count == 7


# per step, what reaches each table: embed ids, "dense" (a dense op on the
# whole table), "zero" (embed ids [8] with an all-zero gradient), "merge"
# (two embeds, ids [1, 3] and [3]) or None
ROW_STEPS = [
    ([0, 0, 3], [1], [2, 2]),
    ([3, 6], None, None),
    (None, [1, 5], "merge"),
    ("zero", [2], [9]),
    ([1], "dense", "merge"),
    ([2, 7, 7, *range(10, 17)], [4], [0]),
    ([5], [0], None),
]


def test_opt_row_gradients_equal_the_adam_formula_bitwise():
    rng = np.random.default_rng(74)
    tables = [_param(rng, (30, 3)), _param(rng, (24, 2)), _param(rng, (20, 2))]
    opt = Optimizer(tables, lr=0.01)
    start = tables[0].data.copy()
    want = [p.data.copy() for p in tables]
    m, v = [np.zeros(p.shape) for p in tables], [np.zeros(p.shape) for p in tables]
    reached, dense = [set(), set(), set()], [False, False, False]
    on_row_path, expected = [], []
    for t, plan in enumerate(ROW_STEPS, start=1):
        opt.zero_grad()
        parts = []
        for i, (table, what) in enumerate(zip(tables, plan)):
            if what == "dense":
                parts.append(ad.vsum(ad.mul(table, _probe(rng, table.shape))))
                dense[i] = True
            elif what == "zero":
                parts.append(ad.vsum(ad.mul(ad.embed(table, [8]),
                                            ad.constant(np.zeros((1, 3))))))
            elif what == "merge":
                parts += [_picks(rng, table, [1, 3]), _picks(rng, table, [3])]
                dense[i] = True
            elif what is not None:
                parts.append(_picks(rng, table, what))
                reached[i] |= set(what)
        ad.backward(functools.reduce(ad.add, parts))
        grads = [None if p.grad is None else p.grad.copy() for p in tables]
        opt.step()
        for i, g in enumerate(grads):
            if g is not None and g.any():
                m[i], v[i], want[i] = _adam_formula(m[i], v[i], want[i], g, t, 0.01)
        _assert_adam_state(opt, tables, m, v, want)
        on_row_path.append([p in opt._reached for p in tables])
        expected.append([not d and len(r) < optim.ROW_SHARE * len(p.data)
                         for p, r, d in zip(tables, reached, dense)])
    assert on_row_path == expected
    # the first table leaves the row path by the share of rows it reached,
    # at step 6; the second at its first dense gradient, at step 5; the
    # third at its first merge, at step 3
    assert [s[0] for s in expected] == [True] * 5 + [False] * 2
    assert [s[1] for s in expected] == [True] * 4 + [False] * 3
    assert [s[2] for s in expected] == [True] * 2 + [False] * 5
    # rows 8, 9 and 17 onwards of the first table were never reached
    never = [8, 9, *range(17, 30)]
    assert not m[0][never].any() and tables[0].data[never].tobytes() == start[never].tobytes()


def test_opt_row_gradients_after_dense_ones_equal_the_adam_formula_bitwise():
    # the table's first gradient is dense, before any row state exists, so
    # every row has moments when its row gradients arrive
    rng = np.random.default_rng(75)
    a = _param(rng, (10, 3))
    opt = Optimizer([a], lr=0.01)
    m, v, want = np.zeros((10, 3)), np.zeros((10, 3)), a.data.copy()
    for t, loss in enumerate([lambda: ad.vsum(ad.mul(a, _probe(rng, a.shape))),
                              lambda: _picks(rng, a, [4]),
                              lambda: _picks(rng, a, [1, 4])], start=1):
        opt.zero_grad()
        ad.backward(loss())
        m, v, want = _adam_formula(m, v, want, a.grad.copy(), t, 0.01)
        opt.step()
        _assert_adam_state(opt, [a], [m], [v], [want])


def test_opt_row_path_state_lives_in_the_optimizer_alone():
    # a table that went dense under one optimizer starts a new one on the
    # row path, and that step is still the Adam formula; a 0-d parameter
    # has no row path
    rng = np.random.default_rng(76)
    a, s = _param(rng, (12, 2)), _param(rng, ())
    first = Optimizer([a, s], lr=0.01)
    assert list(first._reached) == [a]
    ad.backward(ad.vsum(ad.mul(a, _probe(rng, a.shape))))
    first.step()
    assert not first._reached
    second = Optimizer([a], lr=0.01)
    want = a.data.copy()
    second.zero_grad()
    ad.backward(_picks(rng, a, [3, 3]))
    assert a.grad_rows.tolist() == [3, 3]
    m, v, want = _adam_formula(np.zeros(a.shape), np.zeros(a.shape), want,
                               a.grad.copy(), 1, 0.01)
    second.step()
    assert second._reached[a].tolist() == [i == 3 for i in range(12)]
    _assert_adam_state(second, [a], [m], [v], [want])


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_opt_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    with pytest.raises(ValueError):
        Optimizer([ad.parameter(np.zeros(2))], lr=lr)


def test_opt_converges_to_analytic_optimum():
    p = ad.Tensor(np.asarray(0.0), requires_grad=True)
    opt = Optimizer([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        d = ad.sub(p, ad.constant(3.0))
        ad.backward(ad.mul(d, d))
        opt.step()
    assert abs(float(p.data) - 3.0) < 1e-2


def test_finite_difference_helper_sanity():
    # the oracle itself: d/dx of x^2 at 3 is 6
    t = ad.Tensor(np.asarray(3.0), requires_grad=True)
    (g,) = finite_difference(lambda: float(t.data) ** 2, [t])
    assert_close(np.asarray(6.0), g, rtol=1e-6)
