import json
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from gyrodenoise import autodiff as ad
from gyrodenoise import lane as ln
from gyrodenoise import network, so3


def finite_diff(f, x, h=1e-6):
    """Central finite differences of a scalar function w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check_grad(f, x, rel_tol=1e-4, h=1e-6):
    """f maps a Tensor to a scalar Tensor; compares backward to central FD."""
    t = ad.Tensor(x, requires_grad=True)
    out = f(t)
    out.backward()
    fd = finite_diff(lambda v: f(ad.Tensor(v)).data.item(), x, h=h)
    scale = np.maximum(np.abs(fd), np.abs(t.grad))
    err = np.abs(t.grad - fd)
    rel = err / np.maximum(scale, 1e-8)
    assert np.max(rel) < rel_tol, f"max rel err {np.max(rel):.2e}"


# -- basic ops -----------------------------------------------------------------

def test_linear_grad_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    w = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    loss = (w * x).sum()
    loss.backward()
    np.testing.assert_array_equal(w.grad, x)


def test_gradient_accumulation_doubles():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    x = np.array([1.0, 2.0, 3.0])
    (w * x).sum().backward()
    g1 = w.grad.copy()
    (w * x).sum().backward()
    np.testing.assert_array_equal(w.grad, 2 * g1)


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = rng.normal(size=(4, 3))
    h = ad.gelu(w * x)
    h_ref = weakref.ref(h.data)  # the array mul's backward reads
    out = (h * h).sum()
    want = out.data.copy()
    del h
    assert h_ref() is not None  # alive in out's graph
    out.backward()
    assert h_ref() is None
    assert out.grad is None and out._parents == ()
    np.testing.assert_array_equal(out.data, want)
    assert w.grad is not None and np.any(w.grad != 0)


def _layer_into_layer(keep):
    """conv -> batchnorm -> GELU -> dropout -> conv, chained as
    network.forward chains a layer into the next, and a sum of squares.
    Returns (loss, leaves, weakrefs to the intermediates' values); the
    intermediate Tensors are dropped unless keep, which returns them too."""
    rng = np.random.default_rng(50)
    x = ad.Tensor(rng.normal(size=(6, 4, 60)))
    leaves = [ad.Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((5, 4, 3), (5,), (5,), (5,), (3, 5, 3), (3,))]
    w0, b0, gamma, beta, w1, b1 = leaves
    h = {"conv": ad.conv1d_dilated(x, w0, b0, 2)}
    h["batchnorm"] = ad.batchnorm1d(h["conv"], gamma, beta,
                                    ad.BatchNormState(5), True)
    h["gelu"] = ad.gelu(h["batchnorm"])
    h["dropout"] = ad.dropout(h["gelu"], 0.25, rng)
    out = ad.conv1d_dilated(h["dropout"], w1, b1, 4)
    refs = {name: weakref.ref(t.data) for name, t in h.items()}
    return (out * out).sum(), leaves, refs, (h if keep else None)


def test_values_no_backward_reads_are_freed_before_backward():
    loss, _, refs, _ = _layer_into_layer(keep=False)
    # the conv output under batchnorm and the GELU output under dropout
    assert refs["conv"]() is None
    assert refs["gelu"]() is None
    # GELU's input and the next conv's input stay until backward reads them
    assert refs["batchnorm"]() is not None
    assert refs["dropout"]() is not None
    loss.backward()
    assert refs["batchnorm"]() is None
    assert refs["dropout"]() is None


def test_dropping_intermediates_keeps_the_gradient_bits():
    loss, leaves, _, _ = _layer_into_layer(keep=False)
    kept_loss, kept_leaves, _, kept = _layer_into_layer(keep=True)
    loss.backward()
    kept_loss.backward()
    assert_same_bits(loss.data, kept_loss.data)
    for leaf, ref in zip(leaves, kept_leaves):
        assert leaf.grad is not None and np.any(leaf.grad != 0)
        assert_same_bits(leaf.grad, ref.grad)


def test_backward_closures_hold_no_tensor():
    out, _, _ = _small_pipeline()
    nodes, seen = [out._node], set()
    while nodes:
        node = nodes.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for cell in (node.backward_fn.__closure__ or ()
                     if node.backward_fn else ()):
            assert not isinstance(cell.cell_contents, ad.Tensor)
        nodes.extend(node.parents)
    assert len(seen) > 10


def test_dropout_backward_keeps_one_bool_mask():
    x = ad.Tensor(np.ones((4, 5)), requires_grad=True)
    y = ad.dropout(x, 0.5, np.random.default_rng(51))
    held = [cell.cell_contents for cell in y._backward_fn.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
    assert [(a.dtype, a.shape) for a in held] == [(np.dtype(bool), (4, 5))]


def test_second_backward_through_consumed_graph_raises():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    out = (w * 2.0).sum()
    out.backward()
    with pytest.raises(ValueError, match="consumed"):
        out.backward()
    # a result sharing an intermediate with a consumed graph
    h = w * 3.0
    h.sum().backward()
    with pytest.raises(ValueError, match="consumed"):
        (h * 2.0).sum().backward()
    np.testing.assert_array_equal(w.grad, [5.0, 5.0, 5.0])


def test_backward_requires_scalar():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (w * 2.0).backward()


def test_broadcast_add_grad():
    rng = np.random.default_rng(1)
    check_grad(lambda t: (t + np.ones((4, 1))).sum(), rng.normal(size=(4, 3)))
    b = rng.normal(size=3)
    check_grad(lambda t: ((ad.Tensor(np.ones((4, 3))) + t) * b).sum(),
               rng.normal(size=(3,)))


def test_zero_input_forward_add_grad():
    # the (B, 3, T) calibrated rates plus the (B, 3, 1) constant correction
    # that the zero-input forward emits
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 5))
    c = rng.normal(size=(2, 3, 1))
    coef = rng.normal(size=(2, 3, 5))
    check_grad(lambda t: ((t + ad.Tensor(c)) * coef).sum(), x)
    check_grad(lambda t: ((ad.Tensor(x) + t) * coef).sum(), c)


def test_broadcast_mul_grad():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 5))
    coef = rng.normal(size=(2, 3, 5))
    check_grad(lambda t: (ad.mul(t, 2.5) * coef).sum(), x)
    check_grad(lambda t: (ad.mul(ad.Tensor(x), t) * coef).sum(),
               np.array(-0.7))
    s = rng.normal(size=(2, 3, 1))
    check_grad(lambda t: (ad.mul(t, ad.Tensor(s)) * coef).sum(), x)
    check_grad(lambda t: (ad.mul(ad.Tensor(x), t) * coef).sum(), s)


def test_channel_affine_grad():
    rng = np.random.default_rng(13)
    m = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    x = rng.normal(size=(2, 3, 5))
    coef = rng.normal(size=(2, 3, 5))
    check_grad(lambda t: (ad.channel_affine(t, ad.Tensor(x)) * coef).sum(), m)
    check_grad(lambda t: (ad.channel_affine(ad.Tensor(m), t) * coef).sum(), x)


def test_sum_and_mean_over_one_axis_grad():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 3, 5))
    for axis in range(3):
        coef = rng.normal(size=np.delete(x.shape, axis))
        check_grad(lambda t: (ad.tsum(t, axis) * coef).sum(), x)
        check_grad(lambda t: (ad.tmean(t, axis) * coef).sum(), x)


def test_matmul_grad():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=(2, 3, 3))
    check_grad(lambda t: ad.matmul(t, ad.Tensor(b)).sum(), a)
    check_grad(lambda t: ad.matmul(ad.Tensor(a), t).sum(), b)


def test_take_and_reshape_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    check_grad(lambda t: t[::2].sum(), x)
    check_grad(lambda t: (t.reshape(24) * np.arange(24.0)).sum(), x)


# -- gelu ----------------------------------------------------------------------

def test_gelu_values():
    assert ad.gelu(ad.Tensor(0.0)).data.item() == 0.0
    assert ad.gelu(ad.Tensor(6.0)).data.item() / 6.0 > 0.999


def test_gelu_forward_matches_tanh_formula():
    # the reference takes the cube with x**3; the error is relative to |x|,
    # i.e. the error of the gate gelu(x)/x = (1 + tanh u)/2: elementwise
    # relative to gelu(x) it reaches 1e-13 near x = -3.2, where 1 + tanh u
    # cancels the same way in both forms
    x = np.linspace(-8.0, 8.0, 16_001)
    c, a = 0.7978845608, 0.044715
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3)))
    got = ad.gelu(ad.Tensor(x)).data
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(x))


def test_gelu_grad():
    x = np.array([-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0])
    check_grad(lambda t: ad.gelu(t).sum(), x, rel_tol=1e-5)


# -- dropout -------------------------------------------------------------------

def test_dropout_identity_cases():
    x = ad.Tensor(np.ones(10))
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_zero_fraction():
    rng = np.random.default_rng(4)
    x = ad.Tensor(np.ones(1_000_000))
    y = ad.dropout(x, 0.1, rng)
    frac = np.mean(y.data == 0.0)
    assert abs(frac - 0.1) < 0.002
    # survivors are scaled by 1/(1-p)
    assert np.allclose(y.data[y.data != 0], 1.0 / 0.9)


def test_dropout_grad_matches_mask():
    rng = np.random.default_rng(5)
    x = ad.Tensor(np.ones(100), requires_grad=True)
    y = ad.dropout(x, 0.3, rng)
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, (y.data != 0) / 0.7)


# -- huber ---------------------------------------------------------------------

def test_huber_branches():
    y = ad.huber(ad.Tensor([0.004, 0.1]), delta=0.005)
    np.testing.assert_allclose(y.data[0], 0.5 * 0.004**2)
    np.testing.assert_allclose(y.data[1], 0.005 * (0.1 - 0.0025))


def test_huber_grad():
    x = np.array([-0.2, -0.004, 0.001, 0.004, 0.2])
    check_grad(lambda t: ad.huber(t, 0.005).sum(), x, rel_tol=1e-4, h=1e-7)


# -- conv1d --------------------------------------------------------------------

def conv_reference(x, w, b, dilation):
    """Direct nested-loop dilated convolution."""
    bsz, c_in, t = x.shape
    c_out, _, k = w.shape
    t_out = t - (k - 1) * dilation
    y = np.zeros((bsz, c_out, t_out))
    for n in range(bsz):
        for o in range(c_out):
            for tt in range(t_out):
                acc = b[o]
                for c in range(c_in):
                    for kk in range(k):
                        acc += w[o, c, kk] * x[n, c, tt + kk * dilation]
                y[n, o, tt] = acc
    return y


def test_conv1d_identity_pointwise():
    x = np.random.default_rng(6).normal(size=(1, 3, 10))
    w = np.eye(3)[:, :, None]
    y = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(np.zeros(3)))
    np.testing.assert_array_equal(y.data, x)


def test_conv1d_matches_reference():
    rng = np.random.default_rng(7)
    for (c_in, c_out, t, k, d) in [(2, 3, 20, 3, 2), (1, 1, 12, 7, 1),
                                   (3, 2, 40, 5, 4), (2, 2, 20, 1, 1)]:
        x = rng.normal(size=(2, c_in, t))
        w = rng.normal(size=(c_out, c_in, k))
        b = rng.normal(size=c_out)
        y = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), d)
        np.testing.assert_allclose(y.data, conv_reference(x, w, b, d), atol=1e-12)


def test_conv1d_output_length_and_validation():
    x = ad.Tensor(np.zeros((1, 2, 385)))
    w = ad.Tensor(np.zeros((4, 2, 7)))
    y = ad.conv1d_dilated(x, w, ad.Tensor(np.zeros(4)), dilation=64)
    assert y.shape == (1, 4, 1)  # receptive span (K-1)*d = 384
    with pytest.raises(ValueError):
        ad.conv1d_dilated(ad.Tensor(np.zeros((1, 2, 10))), w,
                          ad.Tensor(np.zeros(4)), dilation=64)


def test_conv1d_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 2, 15))
    w = rng.normal(size=(3, 2, 3))
    b = rng.normal(size=3)
    coef = rng.normal(size=(2, 3, 11))
    check_grad(lambda t: (ad.conv1d_dilated(t, ad.Tensor(w), ad.Tensor(b), 2)
                          * coef).sum(), x)
    check_grad(lambda t: (ad.conv1d_dilated(ad.Tensor(x), t, ad.Tensor(b), 2)
                          * coef).sum(), w)
    check_grad(lambda t: (ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(w), t, 2)
                          * coef).sum(), b)


def conv_einsum_reference(x, w, b, dilation, g):
    """The per-tap einsum convolution that the GEMM form replaced: output
    and the gradients gx, gw, gb for the upstream gradient g."""
    bsz, _, t = x.shape
    c_out, _, k = w.shape
    t_out = t - (k - 1) * dilation
    out = np.broadcast_to(b[None, :, None], (bsz, c_out, t_out)).copy()
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for kk in range(k):
        seg = x[:, :, kk * dilation: kk * dilation + t_out]
        out += np.einsum("oc,bct->bot", w[:, :, kk], seg)
        gw[:, :, kk] = np.einsum("bot,bct->oc", g, seg)
        gx[:, :, kk * dilation: kk * dilation + t_out] += np.einsum(
            "oc,bot->bct", w[:, :, kk], g)
    return out, gx, gw, g.sum(axis=(0, 2))


def gemm_conv_max_rel_errors():
    """Largest relative error of the conv output and of gx, gw, gb against
    conv_einsum_reference, over the five default layers at the train shape
    (B=6, T=1792) and the evaluate shape (B=1, 12,000 samples plus the
    510-sample receptive field). Each error is max|new - ref| / max|ref|."""
    cfg = network.NetConfig()
    rng = np.random.default_rng(31)
    worst = {"out": 0.0, "gx": 0.0, "gw": 0.0, "gb": 0.0}
    for bsz, t in [(6, 1792), (1, 12_510)]:
        for i, (k, d) in enumerate(zip(cfg.kernel_sizes, cfg.dilations)):
            c_in, c_out = cfg.channels[i], cfg.channels[i + 1]
            x = rng.normal(size=(bsz, c_in, t))
            w = rng.uniform(-1.0, 1.0, size=(c_out, c_in, k)) / np.sqrt(c_in * k)
            b = rng.uniform(-0.1, 0.1, size=c_out)
            g = rng.normal(size=(bsz, c_out, t - (k - 1) * d))
            xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
            y = ad.conv1d_dilated(xt, wt, bt, d)
            (y * g).sum().backward()
            ref = conv_einsum_reference(x, w, b, d, g)
            for name, new, old in zip(worst, (y.data, xt.grad, wt.grad, bt.grad),
                                      ref):
                err = np.max(np.abs(new - old)) / np.max(np.abs(old))
                worst[name] = max(worst[name], float(err))
            t -= (k - 1) * d
    return worst


def conv_gw_tensordot_mismatches():
    """Default layers, at the train and the evaluate shape, whose conv
    weight gradient differs in any bit from the per-tap
    np.tensordot(g, x_k, axes=([0, 2], [0, 2])) form."""
    cfg = network.NetConfig()
    rng = np.random.default_rng(32)
    bad = []
    for bsz, t in [(6, 1792), (1, 12_510)]:
        for i, (k, d) in enumerate(zip(cfg.kernel_sizes, cfg.dilations)):
            c_in, c_out = cfg.channels[i], cfg.channels[i + 1]
            x = rng.normal(size=(bsz, c_in, t))
            w = rng.uniform(-1.0, 1.0, size=(c_out, c_in, k)) / np.sqrt(c_in * k)
            t_out = t - (k - 1) * d
            g = rng.normal(size=(bsz, c_out, t_out))
            wt = ad.Tensor(w, requires_grad=True)
            (ad.conv1d_dilated(ad.Tensor(x), wt, ad.Tensor(np.zeros(c_out)), d)
             * g).sum().backward()
            ref = np.stack([np.tensordot(g, x[:, :, kk * d: kk * d + t_out],
                                         axes=([0, 2], [0, 2]))
                            for kk in range(k)], axis=-1)
            if not np.array_equal(wt.grad, ref):
                bad.append((bsz, t, i))
            t = t_out
    return bad


def test_conv_gw_equals_tensordot_bit_for_bit():
    assert conv_gw_tensordot_mismatches() == []


def test_conv_gw_equals_tensordot_on_one_blas_thread():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
            "import test_autodiff; "
            "print(json.dumps(test_autodiff.conv_gw_tensordot_mismatches()))")
    proc = subprocess.run([sys.executable, "-c", code, src_dir, tests_dir],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_gemm_conv_matches_einsum_at_default_layer_shapes():
    worst = gemm_conv_max_rel_errors()
    assert max(worst.values()) <= 1e-12, worst


def test_one_blas_thread_pins_the_count_and_restores_it():
    fns = ln._openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, _ = fns
    before = get()
    with pytest.raises(RuntimeError):
        with ln.one_blas_thread():
            assert get() == 1
            raise RuntimeError
    assert get() == before


def test_gemm_conv_matches_einsum_on_one_blas_thread():
    # OpenBLAS splits a GEMM by thread count, so the bits move with it: at
    # B=6 the forward outputs of the dilation-16 and dilation-64 layers
    # differ between one and two threads
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
            "import test_autodiff; "
            "print(json.dumps(test_autodiff.gemm_conv_max_rel_errors()))")
    proc = subprocess.run([sys.executable, "-c", code, src_dir, tests_dir],
                          env=env, capture_output=True, text=True, check=True)
    worst = json.loads(proc.stdout.splitlines()[-1])
    assert max(worst.values()) <= 1e-12, worst


# -- batchnorm -----------------------------------------------------------------

def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(9)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 5, 50))
    state = ad.BatchNormState(5)
    y = ad.batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(5)),
                       ad.Tensor(np.zeros(5)), state, training=True)
    np.testing.assert_allclose(y.data.mean(axis=(0, 2)), 0, atol=1e-6)
    np.testing.assert_allclose(y.data.var(axis=(0, 2)), 1, atol=1e-3)


def test_batchnorm_eval_identity_with_unit_stats():
    state = ad.BatchNormState(3)
    x = np.random.default_rng(10).normal(size=(2, 3, 7))
    y = ad.batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(3)),
                       ad.Tensor(np.zeros(3)), state, training=False)
    np.testing.assert_allclose(y.data, x, atol=1e-5)


def test_batchnorm_eval_uninitialized_uses_default_stats():
    # before any training step the running stats are mean 0, var 1, so
    # evaluation is an identity up to the affine transform
    state = ad.BatchNormState(3)
    x = np.random.default_rng(12).normal(size=(1, 3, 4))
    y = ad.batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(3)),
                       ad.Tensor(np.zeros(3)), state, training=False)
    np.testing.assert_allclose(y.data, x, atol=1e-5)


def test_batchnorm_grads():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 8))
    gamma = rng.normal(size=3) + 1.0
    beta = rng.normal(size=3)
    coef = rng.normal(size=(2, 3, 8))

    def run(xv, gv, bv):
        state = ad.BatchNormState(3)
        return (ad.batchnorm1d(xv, gv, bv, state, training=True) * coef).sum()

    check_grad(lambda t: run(t, ad.Tensor(gamma), ad.Tensor(beta)), x)
    check_grad(lambda t: run(ad.Tensor(x), t, ad.Tensor(beta)), gamma)
    check_grad(lambda t: run(ad.Tensor(x), ad.Tensor(gamma), t), beta)


# -- SO(3) nodes ---------------------------------------------------------------

def test_exp_node_forward_matches_so3():
    rng = np.random.default_rng(12)
    v = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(ad.exp_so3(ad.Tensor(v)).data, so3.exp_so3(v))


def test_exp_node_grad():
    rng = np.random.default_rng(13)
    for scale in (1e-8, 1e-3, 0.5, 2.0):
        v = rng.normal(size=(4, 3)) * scale
        coef = rng.normal(size=(4, 3, 3))
        check_grad(lambda t: (ad.exp_so3(t) * coef).sum(), v, h=1e-6)


def test_log_node_forward_matches_so3():
    rng = np.random.default_rng(14)
    r = so3.exp_so3(rng.normal(size=(10, 3)) * 0.5)
    np.testing.assert_allclose(ad.log_so3(ad.Tensor(r)).data, so3.log_so3(r),
                               atol=1e-12)


def test_log_node_grad():
    rng = np.random.default_rng(15)
    # scales below ~1e-4 make the FD probe leave the u = (tr-1)/2 <= 1 region
    # (a clip kink), so the oracle itself breaks there; the series branch is
    # covered by test_log_node_forward_matches_so3 and the composed test below
    for scale in (1e-3, 0.05, 0.3, 1.5):
        v = rng.normal(size=(4, 3))
        v = v / np.linalg.norm(v, axis=1, keepdims=True) * scale
        r = so3.exp_so3(v)
        coef = rng.normal(size=(4, 3))
        check_grad(lambda t: (ad.log_so3(t) * coef).sum(), r, h=1e-7)


def test_log_node_rejects_near_pi():
    r = so3.exp_so3([0, 0, np.pi - 1e-4])
    with pytest.raises(ValueError):
        ad.log_so3(ad.Tensor(r))


def test_log_of_exp_composed_grad():
    # gradient flows through exp -> matmul -> log, checked against FD
    rng = np.random.default_rng(16)
    v = rng.normal(size=(6, 3)) * 0.2
    target = so3.exp_so3(rng.normal(size=(6, 3)) * 0.2)

    def f(t):
        pred = ad.exp_so3(t)
        resid = ad.matmul(ad.Tensor(target), ad.transpose(pred, (0, 2, 1)))
        return ad.huber(ad.log_so3(resid), 0.005).sum()

    check_grad(f, v, h=1e-6)


def test_forward_backward_deterministic():
    rng_data = np.random.default_rng(17)
    x = rng_data.normal(size=(2, 3, 30))
    w = rng_data.normal(size=(4, 3, 3))

    def run():
        xt = ad.Tensor(x, requires_grad=True)
        wt = ad.Tensor(w, requires_grad=True)
        y = ad.gelu(ad.conv1d_dilated(xt, wt, ad.Tensor(np.zeros(4)), 2))
        loss = ad.huber(y, 0.1).sum()
        loss.backward()
        return loss.data.copy(), xt.grad.copy(), wt.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


# -- no_grad ---------------------------------------------------------------------

def _small_pipeline(rng_seed=18):
    """A forward through every node kind the network and loss use."""
    rng = np.random.default_rng(rng_seed)
    x = ad.Tensor(rng.normal(size=(2, 3, 30)))
    w = ad.Tensor(rng.normal(size=(3, 3, 3)) * 0.3, requires_grad=True)
    b = ad.Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    gamma = ad.Tensor(np.ones(3), requires_grad=True)
    beta = ad.Tensor(np.zeros(3), requires_grad=True)
    state = ad.BatchNormState(3)
    state.mean, state.var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    m = ad.Tensor(np.eye(3) + 0.1 * rng.normal(size=(3, 3)), requires_grad=True)
    h = ad.conv1d_dilated(x, w, b, 2)
    h = ad.gelu(ad.batchnorm1d(h, gamma, beta, state, training=False))
    h = ad.channel_affine(m, h) + h * 0.5 + (-0.01)
    rots = ad.exp_so3(h[(0, slice(None), slice(0, 8))].transpose(1, 0) * 0.1)
    resid = ad.matmul(rots[0:4], rots[4:8].transpose(0, 2, 1))
    out = ad.huber(ad.log_so3(resid), 0.05).sum()
    return out, h, (w, b, gamma, beta, m)


def test_no_grad_values_match_recorded_path():
    recorded, h_rec, _ = _small_pipeline()
    with ad.no_grad():
        free, h_free, _ = _small_pipeline()
    np.testing.assert_array_equal(free.data, recorded.data)
    np.testing.assert_array_equal(h_free.data, h_rec.data)
    assert recorded._backward_fn is not None


def test_no_grad_results_record_no_graph():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out, h, _ = _small_pipeline()
        y = ad.matmul(w, w).sum()
    for t in (out, h, y):
        assert t._parents == ()
        assert t._backward_fn is None
        assert not t.requires_grad


def test_no_grad_restores_mode_after_exception_and_nesting():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert (w * 2.0)._backward_fn is not None
    with ad.no_grad():
        with ad.no_grad():
            assert (w * 2.0)._backward_fn is None
        # leaving the inner block keeps the outer one in force
        assert (w * 2.0)._backward_fn is None
    assert (w * 2.0)._backward_fn is not None


def test_backward_works_after_no_grad():
    ref, _, ref_leaves = _small_pipeline()
    ref.backward()
    with ad.no_grad():
        _small_pipeline()
    out, _, leaves = _small_pipeline()
    out.backward()
    for leaf, ref_leaf in zip(leaves, ref_leaves):
        assert leaf.grad is not None and np.any(leaf.grad != 0)
        np.testing.assert_array_equal(leaf.grad, ref_leaf.grad)


def test_no_grad_mode_is_per_thread():
    # first enters, second enters, first leaves, second leaves: with one
    # mode for the process, first's exit would switch recording back on
    # inside second's block, and second's exit would leave it off for good
    w = ad.Tensor(np.ones(3), requires_grad=True)
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    recording = {}

    def first():
        with ad.no_grad():
            first_in.set()
            second_in.wait(10)
            recording["first, inside"] = (w * 2.0)._backward_fn is not None
        recording["first, after"] = (w * 2.0)._backward_fn is not None
        first_out.set()

    def second():
        first_in.wait(10)
        with ad.no_grad():
            second_in.set()
            first_out.wait(10)
            recording["second, inside"] = (w * 2.0)._backward_fn is not None
        recording["second, after"] = (w * 2.0)._backward_fn is not None

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert recording == {"first, inside": False, "first, after": True,
                         "second, inside": False, "second, after": True}
    assert (w * 2.0)._backward_fn is not None


def test_no_grad_mode_holds_under_thread_switching():
    # more threads than cores, switching every microsecond: each thread
    # must see its own mode on every pass
    w = ad.Tensor(np.ones(3), requires_grad=True)
    wrong = []

    def churn():
        for _ in range(300):
            with ad.no_grad():
                if (w * 2.0)._backward_fn is not None:
                    wrong.append("recorded inside no_grad")
            if (w * 2.0)._backward_fn is None:
                wrong.append("not recorded outside no_grad")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert (w * 2.0)._backward_fn is not None


# -- bit-for-bit against the plain-expression kernels ---------------------------
#
# The kernels work in place in as few buffers as they can. These references
# are the plain numpy expressions they replaced; forward values and every
# gradient must match them in every bit, the sign of zero included. Each
# backward is driven directly with an upstream gradient that holds zeros of
# both signs, and a leaf's first gradient is zeros_like(leaf) + its share.

def gelu_reference(x, g):
    c, a = 0.7978845608, 0.044715
    u = c * (x + a * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = c * (1.0 + 3.0 * a * x**2)
    dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
    return out, [g * dx]


def batchnorm_reference(x, gamma, beta, mean, var, training, g):
    """Output, [gx, ggamma, gbeta] and the updated running (mean, var)."""
    n = x.shape[0] * x.shape[2]
    if training:
        mu = x.mean(axis=(0, 2))
        v = x.var(axis=(0, 2))
        mean = (1 - ad.BN_MOMENTUM) * mean + ad.BN_MOMENTUM * mu
        var = (1 - ad.BN_MOMENTUM) * var + ad.BN_MOMENTUM * v
    else:
        mu, v = mean, var
    ivar = 1.0 / np.sqrt(v + ad.BN_EPS)
    xhat = (x - mu[None, :, None]) * ivar[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    gxhat = g * gamma[None, :, None]
    if training:
        sum_gxhat = gxhat.sum(axis=(0, 2))
        sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2))
        gx = (ivar[None, :, None] / n) * (
            n * gxhat - sum_gxhat[None, :, None]
            - xhat * sum_gxhat_xhat[None, :, None])
    else:
        gx = gxhat * ivar[None, :, None]
    grads = [gx, np.sum(g * xhat, axis=(0, 2)), np.sum(g, axis=(0, 2))]
    return out, grads, (mean, var)


def conv_gemm_reference(x, w, b, dilation, g):
    """Output and [gx, gw, gb] of the per-tap GEMM convolution."""
    bsz, c_in, t = x.shape
    c_out, _, k = w.shape
    t_out = t - (k - 1) * dilation
    out = np.broadcast_to(b[None, :, None], (bsz, c_out, t_out)).copy()
    for kk in range(k):
        seg = x[:, :, kk * dilation: kk * dilation + t_out]
        out += np.matmul(w[:, :, kk], seg)
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    g_rows = g.transpose(1, 0, 2).reshape(c_out, -1)
    for kk in range(k):
        seg = x[:, :, kk * dilation: kk * dilation + t_out]
        gw[:, :, kk] = np.dot(g_rows, seg.transpose(0, 2, 1).reshape(-1, c_in))
        gx[:, :, kk * dilation: kk * dilation + t_out] += np.matmul(
            w[:, :, kk].T, g)
    return out, [gx, gw, g.sum(axis=(0, 2))]


def take_reference(x, idx, g):
    gx = np.zeros_like(x)
    np.add.at(gx, idx, g)
    return x[idx], [gx]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def signed_zeros(arr, rng):
    """arr with about a sixth of its entries set to +0.0 and a sixth to -0.0."""
    arr = np.array(arr, dtype=float)
    pick = rng.integers(0, 6, size=arr.shape)
    arr[pick == 0] = 0.0
    arr[pick == 1] = -0.0
    return arr


def check_kernel_bits(op, arrays, ref_out, ref_grads, g):
    """op(*leaves) must give ref_out, and its backward, fed g, ref_grads."""
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    y = op(*leaves)
    assert_same_bits(y.data, ref_out)
    y._backward_fn(g)
    for leaf, want in zip(leaves, ref_grads):
        assert_same_bits(leaf.grad, np.zeros_like(leaf.data) + want)


@pytest.mark.parametrize("shape", [(), (7,), (1, 3, 1), (1, 4, 9), (6, 5, 13)])
def test_gelu_bits_match_reference(shape):
    rng = np.random.default_rng(40)
    x = signed_zeros(rng.normal(scale=3.0, size=shape), rng)
    g = signed_zeros(rng.normal(size=shape), rng)
    out, grads = gelu_reference(x, g)
    check_kernel_bits(ad.gelu, [x], out, grads, g)
    with ad.no_grad():
        assert_same_bits(ad.gelu(ad.Tensor(x)).data, out)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(1, 4, 9), (6, 5, 1), (6, 3, 17)])
def test_batchnorm_bits_match_reference(shape, training):
    rng = np.random.default_rng(41)
    c = shape[1]
    x = signed_zeros(rng.normal(loc=0.5, scale=2.0, size=shape), rng)
    x[:, 0] = 1.5  # a zero-variance channel normalizes to signed zeros
    gamma = signed_zeros(rng.normal(size=c) + 1.0, rng)
    beta = signed_zeros(rng.normal(size=c), rng)
    g = signed_zeros(rng.normal(size=shape), rng)
    mean0, var0 = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
    out, grads, running = batchnorm_reference(x, gamma, beta, mean0, var0,
                                              training, g)
    for record in (True, False):
        state = ad.BatchNormState(c)
        state.mean, state.var = mean0.copy(), var0.copy()
        if record:
            check_kernel_bits(
                lambda *t: ad.batchnorm1d(*t, state, training),
                [x, gamma, beta], out, grads, g)
        else:
            with ad.no_grad():
                y = ad.batchnorm1d(ad.Tensor(x), ad.Tensor(gamma),
                                   ad.Tensor(beta), state, training)
            assert_same_bits(y.data, out)
        assert_same_bits(state.mean, running[0])
        assert_same_bits(state.var, running[1])


@pytest.mark.parametrize("bsz,c_in,c_out,t,k,d", [
    (1, 3, 4, 1, 1, 1), (1, 6, 16, 40, 7, 1), (6, 5, 3, 1, 1, 1),
    (6, 16, 32, 60, 7, 4), (6, 4, 3, 30, 3, 2)])
def test_conv1d_bits_match_reference(bsz, c_in, c_out, t, k, d):
    rng = np.random.default_rng(42)
    x = signed_zeros(rng.normal(size=(bsz, c_in, t)), rng)
    w = signed_zeros(rng.normal(size=(c_out, c_in, k)), rng)
    b = signed_zeros(rng.normal(size=c_out), rng)
    g = signed_zeros(rng.normal(size=(bsz, c_out, t - (k - 1) * d)), rng)
    out, grads = conv_gemm_reference(x, w, b, d, g)
    check_kernel_bits(lambda *a: ad.conv1d_dilated(*a, d), [x, w, b], out,
                      grads, g)


@pytest.mark.parametrize("idx", [
    slice(1, None, 2), 3, (Ellipsis, slice(0, 2)), (None, 1, slice(None)),
    (np.int64(2), Ellipsis), [0, 0, 2], np.array([3, 1, 3]),
    np.array([True, False, True, False, True])])
def test_take_bits_match_reference(idx):
    rng = np.random.default_rng(43)
    x = signed_zeros(rng.normal(size=(5, 4)), rng)
    g = signed_zeros(rng.normal(size=x[idx].shape), rng)
    out, grads = take_reference(x, idx, g)
    check_kernel_bits(lambda t: ad.take(t, idx), [x], out, grads, g)


def test_take_repeated_advanced_index_sums_its_gradient():
    x = ad.Tensor(np.arange(4.0), requires_grad=True)
    (ad.take(x, [0, 0, 2]) * np.array([1.0, 2.0, 3.0])).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 0.0, 3.0, 0.0])
    assert ad._is_basic_index((Ellipsis, slice(0, None, 2), 1, None))
    for idx in ([0, 0, 2], np.array([1]), (slice(None), [1]), True):
        assert not ad._is_basic_index(idx)


def test_kernels_under_no_grad_neither_modify_nor_alias_their_input():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(2, 4, 12))
    w = rng.normal(size=(3, 4, 3))
    b = rng.normal(size=3)
    gamma, beta = rng.normal(size=4), rng.normal(size=4)
    ops = [
        lambda t: ad.gelu(t),
        lambda t: ad.batchnorm1d(t, ad.Tensor(gamma), ad.Tensor(beta),
                                 ad.BatchNormState(4), training=False),
        lambda t: ad.batchnorm1d(t, ad.Tensor(gamma), ad.Tensor(beta),
                                 ad.BatchNormState(4), training=True),
        lambda t: ad.conv1d_dilated(t, ad.Tensor(w), ad.Tensor(b), 2),
    ]
    for op in ops:
        t = ad.Tensor(x.copy())
        with ad.no_grad():
            y = op(t)
        np.testing.assert_array_equal(t.data, x)
        assert not np.shares_memory(y.data, t.data)
    with ad.no_grad():
        t = ad.Tensor(np.array(0.5))
        y = ad.gelu(t)
    assert t.data == 0.5 and not np.shares_memory(y.data, t.data)


def test_constant_inputs_get_no_gradient():
    rng = np.random.default_rng(45)
    x3 = rng.normal(size=(2, 3, 9))
    cases = [
        (lambda p, c: p * c, (4,), (4,)),
        (lambda p, c: ad.matmul(p, c), (2, 3, 3), (2, 3, 3)),
        (lambda p, c: ad.matmul(c, p), (2, 3, 3), (2, 3, 3)),
        (lambda p, c: ad.channel_affine(p, c), (3, 3), x3.shape),
        (lambda p, c: ad.conv1d_dilated(c, p, ad.Tensor(np.zeros(2)), 2),
         (2, 3, 3), x3.shape),
    ]
    for op, p_shape, c_shape in cases:
        param = ad.Tensor(rng.normal(size=p_shape), requires_grad=True)
        const = ad.Tensor(rng.normal(size=c_shape))
        op(param, const).sum().backward()
        assert const.grad is None
        assert param.grad is not None and np.any(param.grad != 0)



# -- the compute lane ------------------------------------------------------------
#
# With the lane open, the kernels hand half of their passes to a worker
# thread. The bits must be those of the calling thread doing all of it:
# the reference tests above run again, inline and with the lane open on one
# BLAS thread (as the command line opens it), with every split handed off.

@pytest.fixture(params=["inline", "lane"])
def lane(request, monkeypatch, lane_handoffs):
    """None inline; with the lane open, the list of hand-offs made."""
    if request.param == "inline":
        yield None
        return
    monkeypatch.setattr(ln, "LANE_MIN_SIZE", 0)
    with ln.one_blas_thread(), ln.compute_lane():
        yield lane_handoffs


def assert_handed_off(lane, batch):
    # a batch of one row is not split
    assert lane is None or bool(lane) == (batch > 1)


# batch of one, odd batch, the default train shape, calibrate's zero-input
# shape (511 input columns)
@pytest.mark.parametrize("shape", [(1, 4, 9), (7, 5, 13), (6, 16, 1786),
                                   (6, 16, 505)])
def test_gelu_bits_through_the_lane(lane, shape):
    test_gelu_bits_match_reference(shape)
    assert_handed_off(lane, shape[0])


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(1, 4, 9), (7, 3, 17), (6, 32, 1762),
                                   (6, 16, 505)])
def test_batchnorm_bits_through_the_lane(lane, shape, training):
    test_batchnorm_bits_match_reference(shape, training)
    # the gamma and beta sums run side by side at any batch
    assert_handed_off(lane, 2)


@pytest.mark.parametrize("bsz,c_in,c_out,t,k,d", [
    (1, 6, 16, 40, 7, 1), (7, 16, 32, 60, 7, 4), (6, 16, 32, 1786, 7, 4),
    (6, 6, 16, 511, 7, 1), (6, 128, 3, 40, 1, 1)])
def test_conv1d_bits_through_the_lane(lane, bsz, c_in, c_out, t, k, d):
    test_conv1d_bits_match_reference(bsz, c_in, c_out, t, k, d)
    # gw and gx run side by side at any batch
    assert_handed_off(lane, 2)


def dropout_reference(x, p, rng, g):
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, [g * mask]


@pytest.mark.parametrize("shape", [(7,), (1, 4, 9), (7, 5, 13),
                                   (6, 16, 1786)])
def test_dropout_bits_match_reference(lane, shape):
    rng = np.random.default_rng(46)
    x = signed_zeros(rng.normal(size=shape), rng)
    g = signed_zeros(rng.normal(size=shape), rng)
    ref_rng, rng = np.random.default_rng(47), np.random.default_rng(47)
    out, grads = dropout_reference(x, 0.25, ref_rng, g)
    check_kernel_bits(lambda t: ad.dropout(t, 0.25, rng), [x], out, grads, g)
    # the mask is one draw of the same numbers
    assert rng.random() == ref_rng.random()
    assert_handed_off(lane, shape[0])


def test_kernels_through_the_lane_under_no_grad_return_constants(lane):
    rng = np.random.default_rng(48)
    x = ad.Tensor(rng.normal(size=(6, 4, 40)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
    b, gamma, beta = (ad.Tensor(rng.normal(size=n), requires_grad=True)
                      for n in (5, 4, 4))
    with ad.no_grad():
        ys = [ad.gelu(x), ad.dropout(x, 0.5, rng),
              ad.batchnorm1d(x, gamma, beta, ad.BatchNormState(4), True),
              ad.conv1d_dilated(x, w, b, 2)]
    for y in ys:
        assert y._backward_fn is None and y._parents == ()
        assert not y.requires_grad
    assert_handed_off(lane, 6)


def test_lane_raises_a_halfs_error_after_the_other_half(lane_handoffs):
    size = ln.LANE_MIN_SIZE
    threads, finished = [], []
    started = threading.Event()

    def fails():
        threads.append(threading.get_ident())
        raise FloatingPointError("a half")

    def slow():
        threads.append(threading.get_ident())
        time.sleep(0.05)
        finished.append(True)

    def on_lane(fn):
        def there():
            started.set()
            return fn()
        return there

    def after_lane_starts(fn):
        def here():
            assert started.wait(10)
            return fn()
        return here

    def check(there, here):
        started.clear()
        with pytest.raises(FloatingPointError, match="a half"):
            ln._both(on_lane(there), after_lane_starts(here), size)
        assert finished == [True]
        assert len(set(threads)) == 2
        threads.clear()
        finished.clear()

    with ln.compute_lane():
        check(fails, slow)  # the lane's half raises
        check(slow, fails)  # the caller's half raises
        # the lane serves the next hand-off
        assert ln._both(lambda: 1, lambda: 2, size) == (1, 2)
    assert len(lane_handoffs) == 3


def test_lane_serves_only_the_thread_that_opened_it(monkeypatch,
                                                   lane_handoffs):
    monkeypatch.setattr(ln, "LANE_MIN_SIZE", 0)
    threads = threading.active_count()
    x = ad.Tensor(np.random.default_rng(49).normal(size=(6, 4, 40)))
    seen = {}
    with ln.one_blas_thread(), ln.compute_lane():
        worker = threading.Thread(target=lambda: seen.update(y=ad.gelu(x)))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
        assert lane_handoffs == []
        with ln.compute_lane():  # a nested block keeps the open lane
            lane = ln._open.lane
            ln._both(lambda: None, lambda: None, 0)
        assert ln._open.lane is lane
    assert lane_handoffs == [threading.get_ident()]
    assert ln._open.lane is None and threading.active_count() == threads
    np.testing.assert_array_equal(seen["y"].data, ad.gelu(x).data)


def test_lanes_hand_off_under_thread_switching(lane_handoffs):
    # four threads with a lane each, more than the cores, switching every
    # microsecond: every hand-off must return its own pair of results
    wrong = []

    def churn(k):
        with ln.compute_lane():
            for i in range(300):
                got = ln._both(lambda: (k, i), lambda: (i, k),
                               ln.LANE_MIN_SIZE)
                if got != ((k, i), (i, k)):
                    wrong.append((k, i, got))

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, args=(k,))
                   for k in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert wrong == [] and len(lane_handoffs) == 4 * 300
    assert threading.active_count() == threads


def test_lane_thread_is_joined_on_error(lane_handoffs):
    threads = threading.active_count()
    with pytest.raises(KeyError):
        with ln.compute_lane():
            ln._both(lambda: None, lambda: None, ln.LANE_MIN_SIZE)
            raise KeyError("in the block")
    assert lane_handoffs and ln._open.lane is None
    assert threading.active_count() == threads


# -- the job queue that both threads take from -----------------------------------

def test_a_hand_off_behind_a_busy_lane_runs_both_halves_here(lane_handoffs):
    # a lane job holds the lane (for 10 s at most): a kernel's halves do not
    # wait for it, since this thread takes the half the lane has not
    started, release = threading.Event(), threading.Event()

    def busy():
        started.set()
        return release.wait(10)

    me = threading.get_ident()
    with ln.compute_lane() as lane:
        job = lane.submit(busy)
        try:
            assert started.wait(10)
            t0 = time.perf_counter()
            got = ln._both(threading.get_ident, threading.get_ident,
                           ln.LANE_MIN_SIZE)
            waited = time.perf_counter() - t0
            assert not job.done()
        finally:
            release.set()
    assert got == (me, me) and waited < 5
    assert job.result() is True
    assert lane_handoffs == [me]


def test_jobs_take_each_job_once_under_thread_switching():
    # four threads and a lane take 3,000 jobs while the interpreter switches
    # threads every microsecond: each job runs once, and the results come
    # back in job order
    ran = []

    def job(i):
        def run():
            ran.append(i)
            return i
        return run

    n = 3000
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ln.compute_lane():
            jobs = ln.Jobs([job(i) for i in range(n)]).start()
            workers = [threading.Thread(target=jobs.work) for _ in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
            got = jobs.join()
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(ran) == n and sorted(ran) == list(range(n))
    assert got == list(range(n))
    assert threading.active_count() == threads


def test_jobs_join_raises_only_once_no_job_is_running():
    # the lane takes the slow job first; this thread's job fails at once,
    # and join() raises only after the lane's job has finished
    started, finished = threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.05)
        finished.append(True)

    def fails():
        raise FloatingPointError("this thread's job")

    with ln.compute_lane():
        jobs = ln.Jobs([slow, fails]).start()
        assert started.wait(10)
        with pytest.raises(FloatingPointError, match="this thread's job"):
            jobs.join()
        assert finished == [True]


def test_a_thread_stops_taking_jobs_after_its_own_job_fails():
    ran = []

    def fails():
        raise FloatingPointError("job 1")

    jobs = ln.Jobs([lambda: ran.append(0), fails, lambda: ran.append(2),
                    lambda: ran.append(3)])
    jobs.work()  # job 0, then the failing job 1
    assert ran == [0]
    other = threading.Thread(target=jobs.work)
    other.start()
    other.join(10)
    assert not other.is_alive()
    assert ran == [0, 2, 3]  # another thread still takes the rest
    with pytest.raises(FloatingPointError, match="job 1"):
        jobs.join()
