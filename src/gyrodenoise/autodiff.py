"""Minimal dense-tensor reverse-mode automatic differentiation engine.

Just enough machinery for the correction network and its loss: elementwise
arithmetic, reductions, batched matrix products, dilated causal 1-D
convolution, batch normalization, GELU, dropout, Huber, and SO(3)
exponential/logarithm nodes with closed-form differentials.

Everything is float64. Tensors without requires_grad are treated as
constants: backward computes no gradient for them, and their .grad stays
None. Gradients accumulate in the leaves (tensors made with
requires_grad=True) across backward calls; callers zero them between
optimization steps. `backward()` consumes the graph it walks, so every
activation is freed during the backward pass: no intermediate keeps a
.grad, and a second backward through a consumed node raises ValueError.
The convolution is one BLAS GEMM per kernel tap in each direction, so its
bits, like everything downstream, depend on the BLAS thread count as well
as on the inputs; `one_blas_thread()` pins that count to one, and the
command line runs inside it.

The arithmetic kernels write their results into fresh buffers, so a result
never aliases an input (`take`, `reshape` and `transpose` return numpy
views, and `dropout` at p = 0 its input). Each kernel allocates only the
buffers its backward keeps and works in place otherwise, with the operands
and order of operations of the plain expressions, so the bits are theirs.

Inside a `with no_grad():` block every op returns a constant Tensor: no
parents and no backward closure, so nothing but the live outputs is kept in
memory. The values are exactly those computed outside the block. The block
restores the previous mode on exit, including on an exception, and blocks
nest. The mode is per thread, so a block in one thread does not switch
recording off, or back on, in another. Use it for forward passes that are
only read through `.data`; `backward()` on a result built inside the block
reaches no parameter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

from . import so3


def _consumed(g):
    raise ValueError("backward() through a graph that an earlier backward() "
                     "consumed; build the result again")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "__weakref__")

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
        if not _needs_grad(self):
            return
        if self.grad is None:
            # the bits of zeros_like(data) + g, the sign of zero included
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- graph ----------------------------------------------------------

    def backward(self):
        """Accumulate d self / d leaf into every leaf's .grad, consuming the
        graph: nodes run in reverse topological order, and each
        intermediate node drops its .grad, backward closure and parents
        once its backward has run, so its activations are freed then.
        The leaves keep their gradients and self keeps its .data. A second
        backward() on self, or on a result sharing a consumed node, raises
        ValueError."""
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
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue  # a leaf or a constant
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = _consumed
            node._parents = ()

    # -- operators --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


class _GradMode(threading.local):
    """Whether ops record a graph, kept per thread: every thread starts
    enabled, and a no_grad block in one thread leaves the others' mode."""
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no autodiff graph (in this thread)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


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


def _recording(*ts):
    """Whether an op on these tensors records a graph node."""
    return _grad_mode.enabled and _needs_grad(*ts)


def _result(data, parents, backward_fn):
    live = tuple(p for p in parents if isinstance(p, Tensor))
    if _recording(*live):
        return Tensor(data, _parents=live, _backward_fn=backward_fn)
    return Tensor(data)


# -- elementwise --------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g, a.data.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward)


def gelu(x):
    """GELU via the tanh approximation:
    0.5 x (1 + tanh(0.7978845608 (x + 0.044715 x^3))).

    The forward keeps t = tanh(...) for the backward; each expression is
    evaluated in its written order, in place in buffers of x's shape."""
    x = as_tensor(x)
    c = 0.7978845608
    a = 0.044715
    xd = x.data
    # t = tanh(c * (x + a * (x * x * x)))
    t = np.multiply(xd, xd, out=np.empty_like(xd))
    t *= xd
    t *= a
    t += xd
    t *= c
    np.tanh(t, out=t)
    # out = 0.5 * x * (1 + t)
    out_data = np.multiply(0.5, xd, out=np.empty_like(xd))
    if _recording(x):
        out_data *= 1.0 + t
    else:
        t += 1.0
        out_data *= t

    def backward(g):
        # du = c * (1 + 3 a x^2)
        du = np.square(xd, out=np.empty_like(xd))
        du *= 3.0 * a
        du += 1.0
        du *= c
        # dx = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * du
        dx = np.square(t, out=np.empty_like(xd))
        np.subtract(1.0, dx, out=dx)
        slope = np.multiply(0.5, xd, out=np.empty_like(xd))
        slope *= dx
        slope *= du
        np.add(1.0, t, out=dx)
        dx *= 0.5
        dx += slope
        dx *= g
        x._accumulate(dx)

    return _result(out_data, (x,), backward)


def dropout(x, p, rng):
    """Zero elements with probability p, drawn from the numpy Generator rng,
    and scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = as_tensor(x)
    if p == 0.0:
        return x
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


def _is_basic_index(idx):
    """Whether x[idx] is a numpy basic index (slices, integers, Ellipsis,
    None), which selects every element of x at most once."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is None or i is Ellipsis or isinstance(i, slice)
               or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in items)


def take(x, idx):
    x = as_tensor(x)
    out_data = x.data[idx]
    basic = _is_basic_index(idx)

    def backward(g):
        gx = np.zeros_like(x.data)
        if basic:
            gx[idx] += g
        else:  # an advanced index may repeat elements
            np.add.at(gx, idx, g)
        x._accumulate(gx)

    return _result(out_data, (x,), backward)


# -- linear maps ---------------------------------------------------------------

def matmul(a, b):
    """Batched matrix product on the trailing two axes."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if _needs_grad(a):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if _needs_grad(b):
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _result(out_data, (a, b), backward)


def channel_affine(m, x):
    """Apply a (3, 3) matrix on the channel axis of x with layout (B, 3, T)."""
    m, x = as_tensor(m), as_tensor(x)
    out_data = np.einsum("ij,bjt->bit", m.data, x.data)

    def backward(g):
        if _needs_grad(m):
            m._accumulate(np.einsum("bit,bjt->ij", g, x.data))
        if _needs_grad(x):
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
    (C_out, B*T') copy and x's (B, T, C_in) copy built once per call
    instead of a transposing gather per tap. Each tap's forward and gx
    product goes into one reused buffer before it is added, in tap order.
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
    tap = np.empty_like(out_data)
    for kk in range(k):
        seg = x.data[:, :, kk * dilation: kk * dilation + t_out]
        out_data += np.matmul(w.data[:, :, kk], seg, out=tap)

    def backward(g):
        if _needs_grad(w):
            gw = np.zeros_like(w.data)
            g_rows = g.transpose(1, 0, 2).reshape(c_out, -1)
            x_rows = np.ascontiguousarray(x.data.transpose(0, 2, 1))
            for kk in range(k):
                seg = x_rows[:, kk * dilation: kk * dilation + t_out]
                gw[:, :, kk] = np.dot(g_rows, seg.reshape(-1, c_in))
            w._accumulate(gw)
        if _needs_grad(x):
            gx = np.zeros_like(x.data)
            tap = np.empty((bsz, c_in, t_out))
            for kk in range(k):
                gx[:, :, kk * dilation: kk * dilation + t_out] += np.matmul(
                    w.data[:, :, kk].T, g, out=tap)
            x._accumulate(gx)
        if _needs_grad(b):
            b._accumulate(g.sum(axis=(0, 2)))

    return _result(out_data, (x, w, b), backward)


# weight of each batch's statistics in the running ones, and the variance
# guard; checkpoints written with other values are refused on load
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics for one batchnorm layer (not trainable)."""

    def __init__(self, channels):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)


def batchnorm1d(x, gamma, beta, state: BatchNormState, training):
    """Per-channel normalization of x (B, C, T) over the batch and time axes."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    bsz, c, t = x.data.shape
    n = bsz * t
    if training:
        if n < 2:
            raise ValueError("batchnorm training mode needs more than one sample")
        # np.mean and np.var's arithmetic, sharing x - mu
        mu = x.data.sum(axis=(0, 2)) / n
        xhat = np.subtract(x.data, mu[None, :, None])
        out_data = np.square(xhat)
        var = out_data.sum(axis=(0, 2)) / n
        state.mean = (1 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var = (1 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    else:
        # eval before any training step normalizes with the 0/1 defaults
        var = state.var
        xhat = np.subtract(x.data, state.mean[None, :, None])
        out_data = (np.empty_like(xhat) if _recording(x, gamma, beta)
                    else xhat)

    ivar = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= ivar[None, :, None]
    # out = gamma * xhat + beta; in place in xhat when no backward keeps it
    np.multiply(gamma.data[None, :, None], xhat, out=out_data)
    out_data += beta.data[None, :, None]

    def backward(g):
        buf = np.multiply(g, xhat)
        if _needs_grad(gamma):
            gamma._accumulate(np.sum(buf, axis=(0, 2)))
        if _needs_grad(beta):
            beta._accumulate(np.sum(g, axis=(0, 2)))
        if not _needs_grad(x):
            return
        gx = np.multiply(g, gamma.data[None, :, None])  # d loss / d xhat
        if training:
            # standard batchnorm backward through the batch statistics:
            # (ivar / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat))
            sum_gxhat = gx.sum(axis=(0, 2))
            sum_gxhat_xhat = np.multiply(gx, xhat, out=buf).sum(axis=(0, 2))
            gx *= n
            gx -= sum_gxhat[None, :, None]
            gx -= np.multiply(xhat, sum_gxhat_xhat[None, :, None], out=buf)
            gx *= (ivar / n)[None, :, None]
        else:
            gx *= ivar[None, :, None]
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
        raise so3.DomainError(
            "log_so3 tensor node requires angles below pi - 0.01")
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
