"""Central finite-difference oracle for gradient verification.

`finite_difference` perturbs parameter buffers in place and re-evaluates
the loss closure, so the closure must rebuild its graph from the live
tensors on every call. Comparisons use a relative tolerance with a small
absolute floor to absorb finite-difference truncation noise. `dense_embed`
is the reference the row-sparse `embed` gradient is pinned to bit for bit.
"""

from __future__ import annotations

import numpy as np

import hsrl.autodiff as ad

EPS = 1e-5


def dense_embed(x, ids):
    """`ad.embed` with the dense backward: one `zeros_like(x)` + `np.add.at`
    table per node."""
    idx = np.asarray(ids, dtype=np.intp)

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return ad._node(x.data[idx], (x,), back)


def finite_difference(f, tensors, eps: float = EPS) -> list[np.ndarray]:
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f()
            flat[i] = orig - eps
            f_minus = f()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g.reshape(t.data.shape))
    return grads


def assert_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float,
                 atol: float = 1e-8, label: str = "") -> None:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = np.abs(analytic - numeric) > atol + rtol * denom
    assert not bad.any(), (
        f"{label}: {int(bad.sum())}/{bad.size} gradient entries off; "
        f"worst analytic={analytic[bad].ravel()[:3]} numeric={numeric[bad].ravel()[:3]}")


def check_gradients(build_loss, params, rtol: float, atol: float = 1e-8) -> None:
    """Compare backward() gradients of `build_loss()` against central FD."""
    import hsrl.autodiff as ad

    for p in params:
        p.zero_grad()
    loss = build_loss()
    ad.backward(loss)
    numeric = finite_difference(lambda: float(build_loss().data), params)
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert_close(analytic, num, rtol, atol, label=f"shape {p.data.shape}")
