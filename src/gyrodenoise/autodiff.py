"""Minimal dense-tensor reverse-mode automatic differentiation engine.

Just enough machinery for the correction network and its loss: elementwise
arithmetic, reductions, batched matrix products, dilated causal 1-D
convolution, batch normalization, GELU, dropout, Huber, and SO(3)
exponential/logarithm nodes with closed-form differentials.

Everything is float64. Tensors without requires_grad are treated as
constants. Gradients accumulate across backward calls; callers zero them
between optimization steps. The convolution is one BLAS GEMM per kernel
tap in each direction, so its bits, like everything downstream, depend on
the BLAS thread count as well as on the inputs; `one_blas_thread()` pins
that count to one, and the command line runs inside it.

Inside a `with no_grad():` block every op returns a constant Tensor: no
parents and no backward closure, so nothing but the live outputs is kept in
memory. The values are exactly those computed outside the block. The block
restores the previous mode on exit, including on an exception, and blocks
nest. Use it for forward passes that are only read through `.data`;
`backward()` on a result built inside the block reaches no parameter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from . import so3


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- graph ----------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operators --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no autodiff graph."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@functools.lru_cache(maxsize=None)
def _openblas_thread_fns():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None when numpy links another BLAS."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    # symbol lookup through numpy's extension also searches the libraries
    # it links; the names differ between numpy's own and a system build
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block and restore the
    previous count on exit. The results then do not depend on the core
    count, and a GEMM never waits on a second core that a shared host is
    using elsewhere. With another BLAS the block runs unchanged."""
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, put = fns
    prev = get()
    put(1)
    try:
        yield
    finally:
        put(prev)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*ts):
    return any(t.requires_grad or t._backward_fn is not None for t in ts)


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _result(data, parents, backward_fn):
    live = tuple(p for p in parents if isinstance(p, Tensor))
    if _grad_enabled and _needs_grad(*live):
        return Tensor(data, _parents=live, _backward_fn=backward_fn)
    return Tensor(data)


# -- elementwise --------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward)


def gelu(x):
    """GELU via the tanh approximation:
    0.5 x (1 + tanh(0.7978845608 (x + 0.044715 x^3)))."""
    x = as_tensor(x)
    c = 0.7978845608
    a = 0.044715
    u = c * (x.data + a * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 3.0 * a * x.data**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du
        x._accumulate(g * dx)

    return _result(out_data, (x,), backward)


def dropout(x, p, training, rng=None):
    """Zero elements with probability p and scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward(g):
        x._accumulate(g * mask)

    return _result(out_data, (x,), backward)


def huber(x, delta):
    """Elementwise Huber: 0.5 x^2 below delta, delta (|x| - delta/2) above."""
    x = as_tensor(x)
    absx = np.abs(x.data)
    quad = absx <= delta
    out_data = np.where(quad, 0.5 * x.data**2, delta * (absx - 0.5 * delta))

    def backward(g):
        x._accumulate(g * np.where(quad, x.data, delta * np.sign(x.data)))

    return _result(out_data, (x,), backward)


# -- reductions / shaping ------------------------------------------------------

def tsum(x, axis=None):
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())
        else:
            x._accumulate(np.broadcast_to(
                np.expand_dims(g, axis), x.data.shape).copy())

    return _result(out_data, (x,), backward)


def tmean(x, axis=None):
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis), 1.0 / n)


def reshape(x, shape):
    x = as_tensor(x)
    out_data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _result(out_data, (x,), backward)


def transpose(x, axes):
    x = as_tensor(x)
    out_data = x.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        x._accumulate(g.transpose(inv))

    return _result(out_data, (x,), backward)


def take(x, idx):
    x = as_tensor(x)
    out_data = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        x._accumulate(gx)

    return _result(out_data, (x,), backward)


# -- linear maps ---------------------------------------------------------------

def matmul(a, b):
    """Batched matrix product on the trailing two axes."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.data.shape))
        b._accumulate(_unbroadcast(gb, b.data.shape))

    return _result(out_data, (a, b), backward)


def channel_affine(m, x):
    """Apply a (3, 3) matrix on the channel axis of x with layout (B, 3, T)."""
    m, x = as_tensor(m), as_tensor(x)
    out_data = np.einsum("ij,bjt->bit", m.data, x.data)

    def backward(g):
        m._accumulate(np.einsum("bit,bjt->ij", g, x.data))
        x._accumulate(np.einsum("ij,bit->bjt", m.data, g))

    return _result(out_data, (m, x), backward)


def conv1d_dilated(x, w, b, dilation=1):
    """Causal valid dilated convolution.

    x: (B, C_in, T), w: (C_out, C_in, K), b: (C_out,).
    Output index t consumes inputs t, t+d, ..., t+(K-1)d of the valid
    segment, i.e. output length T' = T - (K-1) * dilation and output t
    corresponds to input timestamp t + (K-1) * dilation (past-only window).

    Each of the K taps is one GEMM per direction: W_k @ x_k forward, and
    g @ x_k.T for gw and W_k.T @ g for gx backward, where x_k is the input
    segment starting at k * dilation. The gw GEMM is the one
    np.tensordot(g, x_k, axes=([0, 2], [0, 2])) makes, with g's
    (C_out, B*T') copy built once per call instead of once per tap.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError("conv1d_dilated expects x (B,C,T) and w (O,C,K)")
    bsz, c_in, t = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if k < 1 or dilation < 1:
        raise ValueError("kernel size and dilation must be >= 1")
    t_out = t - (k - 1) * dilation
    if t_out < 1:
        raise ValueError(
            f"input too short: T={t} < (K-1)*dilation+1={(k-1)*dilation+1}"
        )

    out_data = np.broadcast_to(b.data[None, :, None], (bsz, c_out, t_out)).copy()
    for kk in range(k):
        seg = x.data[:, :, kk * dilation: kk * dilation + t_out]
        out_data += np.matmul(w.data[:, :, kk], seg)

    def backward(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w.data)
        g_rows = g.transpose(1, 0, 2).reshape(c_out, -1)
        for kk in range(k):
            seg = x.data[:, :, kk * dilation: kk * dilation + t_out]
            gw[:, :, kk] = np.dot(g_rows,
                                  seg.transpose(0, 2, 1).reshape(-1, c_in))
            gx[:, :, kk * dilation: kk * dilation + t_out] += np.matmul(
                w.data[:, :, kk].T, g
            )
        x._accumulate(gx)
        w._accumulate(gw)
        b._accumulate(g.sum(axis=(0, 2)))

    return _result(out_data, (x, w, b), backward)


class BatchNormState:
    """Running statistics for one batchnorm layer (not trainable)."""

    def __init__(self, channels):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)
        self.initialized = False


def batchnorm1d(x, gamma, beta, state: BatchNormState, training,
                momentum=0.1, eps=1e-5):
    """Per-channel normalization of x (B, C, T) over the batch and time axes."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    bsz, c, t = x.data.shape
    n = bsz * t
    if training:
        if n < 2:
            raise ValueError("batchnorm training mode needs more than one sample")
        mu = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        state.mean = (1 - momentum) * state.mean + momentum * mu
        state.var = (1 - momentum) * state.var + momentum * var
        state.initialized = True
    else:
        # eval before any training step normalizes with the 0/1 defaults
        mu = state.mean
        var = state.var

    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None]) * ivar[None, :, None]
    out_data = gamma.data[None, :, None] * xhat + beta.data[None, :, None]

    def backward(g):
        gamma._accumulate(np.sum(g * xhat, axis=(0, 2)))
        beta._accumulate(np.sum(g, axis=(0, 2)))
        gxhat = g * gamma.data[None, :, None]
        if training:
            # standard batchnorm backward through the batch statistics
            sum_gxhat = gxhat.sum(axis=(0, 2))
            sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2))
            gx = (ivar[None, :, None] / n) * (
                n * gxhat
                - sum_gxhat[None, :, None]
                - xhat * sum_gxhat_xhat[None, :, None]
            )
        else:
            gx = gxhat * ivar[None, :, None]
        x._accumulate(gx)

    return _result(out_data, (x, gamma, beta), backward)


# -- SO(3) nodes ---------------------------------------------------------------

def exp_so3(v):
    """Tensor node for the SO(3) exponential map, v (..., 3) -> (..., 3, 3)."""
    v = as_tensor(v)
    out_data = so3.exp_so3(v.data)

    def backward(g):
        # dR = R hat(Jr dv)  =>  grad_v = Jr^T vee(R^T G - (R^T G)^T)
        a = np.einsum("...ji,...jk->...ik", out_data, g)
        w = so3.vee(a - np.swapaxes(a, -1, -2))
        jr = so3.right_jacobian(v.data)
        v._accumulate(np.einsum("...ji,...j->...i", jr, w))

    return _result(out_data, (v,), backward)


def log_so3(r):
    """Tensor node for the SO(3) logarithm, r (..., 3, 3) -> (..., 3).

    Differentiable extension of phi = c(theta) vee(R - R^T) with
    c = theta / (2 sin theta); valid for rotation angles away from pi
    (the loss only ever sees small residual rotations).
    """
    r = as_tensor(r)
    theta, a, c = so3.log_parts(r.data)
    if np.any(theta > np.pi - 0.01):
        raise ValueError("log_so3 tensor node requires angles below pi - 0.01")
    out_data = c[..., None] * a

    def backward(g):
        # dc/du with u = (tr - 1)/2; series below the small-angle threshold
        small = theta < so3.LOG_SMALL_ANGLE
        th = np.where(small, 1.0, theta)
        dc_du = np.where(
            small,
            -(1.0 / 6.0 + theta**2 / 15.0),
            -(np.sin(th) - th * np.cos(th)) / (2.0 * np.sin(th) ** 3),
        )
        ga = c[..., None] * g
        gr = so3.hat(ga)  # gradient of the vee(R - R^T) part
        scal = np.einsum("...i,...i->...", g, a) * dc_du * 0.5
        gr = gr + scal[..., None, None] * np.eye(3)
        r._accumulate(gr)

    return _result(out_data, (r,), backward)
