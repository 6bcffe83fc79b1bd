import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gyrodenoise import autodiff as ad
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
    fns = ad._openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, _ = fns
    before = get()
    with pytest.raises(RuntimeError):
        with ad.one_blas_thread():
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
