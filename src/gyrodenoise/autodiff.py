"""Minimal dense-tensor reverse-mode automatic differentiation engine.

Just enough machinery for the correction network and its loss: elementwise
arithmetic, reductions, batched matrix products, dilated causal 1-D
convolution, batch normalization, GELU, dropout, Huber, and SO(3)
exponential/logarithm nodes with closed-form differentials.

Everything is float64. Tensors without requires_grad are treated as
constants: backward computes no gradient for them, and their .grad stays
None. Gradients accumulate in the leaves (tensors made with
requires_grad=True) across backward calls; callers zero them between
optimization steps.

The graph is kept apart from the values it was built from. A Tensor owns
its .data; its graph node owns a backward closure, its parents' nodes and,
while backward runs, its gradient. Each closure captures exactly the
arrays its backward reads, plus parent nodes, never a parent Tensor. So a
value that no backward reads (a conv output under a batchnorm, a GELU
output under dropout) lives only as long as the caller keeps its Tensor,
and network.forward, which rebinds one name layer by layer, frees it as
it moves on. `backward()` consumes the graph it walks, so what the
closures kept is freed during the backward pass: no intermediate keeps a
.grad, and a second backward through a consumed node raises ValueError.
Each heavy kernel runs its elementwise passes by batch halves through
`lane._halves` and its independent products through `lane._both`, so a
compute lane, when open, takes one of them with the same bits (lane.py).

The arithmetic kernels write their results into fresh buffers, so a result
never aliases an input (`take`, `reshape` and `transpose` return numpy
views, and `dropout` at p = 0 its input). Each kernel runs one body whether
or not it records a graph, with the operands and order of operations of
the plain expressions, so the bits are theirs.

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
import threading

import numpy as np

from . import lane, so3


def _consumed(g):
    raise ValueError("backward() through a graph that an earlier backward() "
                     "consumed; build the result again")


class _Node:
    """A tensor's place in the autodiff graph: its backward closure, its
    parents' nodes, and its gradient while backward() runs. A leaf's node
    has no closure and keeps the leaf's gradient. A node holds no values of
    its own: the closure holds exactly the arrays its backward reads."""
    __slots__ = ("grad", "backward_fn", "parents")

    def __init__(self, backward_fn=None, parents=()):
        self.grad = None
        self.backward_fn = backward_fn
        self.parents = parents

    def accumulate(self, g):
        if self.grad is None:
            # the bits of zeros_like(g) + g, the sign of zero included
            self.grad = np.add(g, 0.0, out=np.empty(np.shape(g)))
        else:
            self.grad += g


class Tensor:
    """Values (.data) plus, for a leaf made with requires_grad=True or an op
    recorded in grad mode, a graph node. The node outlives the Tensor only
    as far as a later op's backward needs it, so an activation that no
    backward reads is freed once its last Tensor is dropped."""
    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self):
        """Whether this is a leaf that accumulates a gradient."""
        return self._node is not None and self._node.backward_fn is None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

    @property
    def _parents(self):
        return () if self._node is None else self._node.parents

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    # -- graph ----------------------------------------------------------

    def backward(self):
        """Accumulate d self / d leaf into every leaf's .grad, consuming the
        graph: nodes run in reverse topological order, and each
        intermediate node drops its gradient, backward closure and parents
        once its backward has run, so the arrays that closure kept are
        freed then. The leaves keep their gradients and self keeps its
        .data. A second backward() on self, or on a result sharing a
        consumed node, raises ValueError.

        Only what a backward reads outlives the forward: a batchnorm's
        normalized input, a GELU's input and tanh, a conv's input, a
        dropout's one-byte keep mask. A value no backward reads, such as
        the conv output under a batchnorm, is freed once its Tensor is
        dropped, before backward() runs."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        root = self._node
        if root is None:
            return  # a constant: no leaf depends on it
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        root.accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node.backward_fn is None:
                continue  # a leaf
            if node.grad is not None:
                node.backward_fn(node.grad)
            node.grad = None
            node.backward_fn = _consumed
            node.parents = ()

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


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


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
    """A Tensor of data, with a node for backward_fn when grad mode is on
    and any of parents (the operands' nodes, None for a constant) is a
    node. backward_fn receives the result's gradient and accumulates into
    the parent nodes it captured, never into a Tensor."""
    out = Tensor(data)
    live = tuple(p for p in parents if p is not None)
    if live and _grad_mode.enabled:
        out._node = _Node(backward_fn, live)
    return out


# -- elementwise --------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g, b_shape))

    return _result(out_data, (na, nb), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    # each operand's gradient reads the other's values
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * b_data, a_shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * a_data, b_shape))

    return _result(out_data, (na, nb), backward)


def gelu(x):
    """GELU via the tanh approximation:
    0.5 x (1 + tanh(0.7978845608 (x + 0.044715 x^3))).

    The forward keeps t = tanh(...) for the backward, whether or not it
    records a graph; each expression is evaluated in its written order, in
    buffers of x's shape, one half of the leading axis at a time."""
    x = as_tensor(x)
    c = 0.7978845608
    a = 0.044715
    xd, nx = x.data, x._node
    t = np.empty_like(xd)
    out_data = np.empty_like(xd)

    def forward(idx):
        xs, ts, out = xd[idx], t[idx], out_data[idx]
        # t = tanh(c * (x + a * (x * x * x)))
        np.multiply(xs, xs, out=ts)
        ts *= xs
        ts *= a
        ts += xs
        ts *= c
        np.tanh(ts, out=ts)
        # out = 0.5 * x * (1 + t)
        np.multiply(0.5, xs, out=out)
        out *= 1.0 + ts

    lane._halves(forward, xd)

    def backward(g):
        dx = np.empty_like(xd)

        def grad(idx):
            xs, ts, d = xd[idx], t[idx], dx[idx]
            # du = c * (1 + 3 a x^2)
            du = np.square(xs)
            du *= 3.0 * a
            du += 1.0
            du *= c
            # dx = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * du
            np.square(ts, out=d)
            np.subtract(1.0, d, out=d)
            slope = np.multiply(0.5, xs)
            slope *= d
            slope *= du
            np.add(1.0, ts, out=d)
            d *= 0.5
            d += slope
            d *= g[idx]

        lane._halves(grad, dx)
        nx.accumulate(dx)

    return _result(out_data, (nx,), backward)


def dropout(x, p, rng):
    """Zero elements with probability p, drawn from the numpy Generator rng,
    and scale survivors by 1/(1-p). The uniforms are drawn whole; the mask
    is built and applied one half of the leading axis at a time. The
    backward keeps the keep mask, one bool per element, and rebuilds the
    float mask from it."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = as_tensor(x)
    if p == 0.0:
        return x
    xd, nx = x.data, x._node
    mask = rng.random(xd.shape)
    keep = np.empty(xd.shape, dtype=bool)
    out_data = np.empty_like(mask)
    # keep * scale is {1/(1-p), +0.0}: the bits of (u >= p) / (1 - p)
    scale = 1.0 / (1.0 - p)

    def forward(idx):
        m = mask[idx]
        np.greater_equal(m, p, out=keep[idx])
        np.multiply(keep[idx], scale, out=m)
        np.multiply(xd[idx], m, out=out_data[idx])

    lane._halves(forward, mask)

    def backward(g):
        gx = np.empty(keep.shape)

        def grad(idx):
            m = np.multiply(keep[idx], scale, out=gx[idx])
            np.multiply(g[idx], m, out=m)

        lane._halves(grad, gx)
        nx.accumulate(gx)

    return _result(out_data, (nx,), backward)


def huber(x, delta):
    """Elementwise Huber: 0.5 x^2 below delta, delta (|x| - delta/2) above."""
    x = as_tensor(x)
    xd, nx = x.data, x._node
    absx = np.abs(xd)
    quad = absx <= delta
    out_data = np.where(quad, 0.5 * xd**2, delta * (absx - 0.5 * delta))

    def backward(g):
        nx.accumulate(g * np.where(quad, xd, delta * np.sign(xd)))

    return _result(out_data, (nx,), backward)


# -- reductions / shaping ------------------------------------------------------

def tsum(x, axis=None):
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis)
    nx, shape = x._node, x.data.shape

    def backward(g):
        if axis is None:
            nx.accumulate(np.broadcast_to(g, shape).copy())
        else:
            nx.accumulate(np.broadcast_to(np.expand_dims(g, axis),
                                          shape).copy())

    return _result(out_data, (nx,), backward)


def tmean(x, axis=None):
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis), 1.0 / n)


def reshape(x, shape):
    x = as_tensor(x)
    out_data = x.data.reshape(shape)
    nx, x_shape = x._node, x.data.shape

    def backward(g):
        nx.accumulate(g.reshape(x_shape))

    return _result(out_data, (nx,), backward)


def transpose(x, axes):
    x = as_tensor(x)
    out_data = x.data.transpose(axes)
    nx, inv = x._node, np.argsort(axes)

    def backward(g):
        nx.accumulate(g.transpose(inv))

    return _result(out_data, (nx,), backward)


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
    nx, shape = x._node, x.data.shape
    basic = _is_basic_index(idx)

    def backward(g):
        gx = np.zeros(shape)
        if basic:
            gx[idx] += g
        else:  # an advanced index may repeat elements
            np.add.at(gx, idx, g)
        nx.accumulate(gx)

    return _result(out_data, (nx,), backward)


# -- linear maps ---------------------------------------------------------------

def matmul(a, b):
    """Batched matrix product on the trailing two axes."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    # each operand's gradient reads the other's values
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            na.accumulate(_unbroadcast(ga, a_shape))
        if nb is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            nb.accumulate(_unbroadcast(gb, b_shape))

    return _result(out_data, (na, nb), backward)


def channel_affine(m, x):
    """Apply a (3, 3) matrix on the channel axis of x with layout (B, 3, T).

    einsum picks its summation loop from x's memory layout, so the bits
    depend on that layout as well as on x's values. On standard normal
    x and m, an F-ordered (1, 3, T) input differs from the C-ordered one
    with equal values at every T >= 2 (by up to 8.9e-16 at T = 1000 and
    1.8e-15 at T = 12000), and a strided (6, 3, 1) view differs from its
    contiguous copy. A forward that must give the bits of another, such
    as a later carried-state one, passes x in C order."""
    m, x = as_tensor(m), as_tensor(x)
    out_data = np.einsum("ij,bjt->bit", m.data, x.data)
    nm, nx = m._node, x._node
    # each operand's gradient reads the other's values
    m_data = m.data if nx is not None else None
    x_data = x.data if nm is not None else None

    def backward(g):
        if nm is not None:
            nm.accumulate(np.einsum("bit,bjt->ij", g, x_data))
        if nx is not None:
            nx.accumulate(np.einsum("ij,bit->bjt", m_data, g))

    return _result(out_data, (nm, nx), backward)


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
    The forward runs one half of the batch at a time (a stacked matmul is
    one GEMM per batch item, so each half makes the same products), and
    the backward computes gw and gx side by side.
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

    xd, wd, bd = x.data, w.data, b.data
    nx, nw, nb = x._node, w._node, b._node
    out_data = np.empty((bsz, c_out, t_out))
    tap = np.empty_like(out_data)
    # the larger of input and output measures the work against LANE_MIN_SIZE
    big = xd if xd.size > out_data.size else out_data
    big_size = big.size
    # gw reads the input, gx the weights
    x_data = xd if nw is not None else None
    w_data = wd if nx is not None else None

    def forward(idx):
        out, buf = out_data[idx], tap[idx]
        out[...] = bd[None, :, None]
        for kk in range(k):
            seg = xd[idx, :, kk * dilation: kk * dilation + t_out]
            out += np.matmul(wd[:, :, kk], seg, out=buf)

    lane._halves(forward, big)

    def backward(g):
        need_w, need_x = nw is not None, nx is not None

        def weight_grad():
            if not need_w:
                return None
            gw = np.zeros((c_out, c_in, k))
            g_rows = g.transpose(1, 0, 2).reshape(c_out, -1)
            x_rows = np.ascontiguousarray(x_data.transpose(0, 2, 1))
            for kk in range(k):
                seg = x_rows[:, kk * dilation: kk * dilation + t_out]
                gw[:, :, kk] = np.dot(g_rows, seg.reshape(-1, c_in))
            return gw

        def input_grad():
            if not need_x:
                return None
            gx = np.zeros((bsz, c_in, t))
            buf = np.empty((bsz, c_in, t_out))
            for kk in range(k):
                gx[:, :, kk * dilation: kk * dilation + t_out] += np.matmul(
                    w_data[:, :, kk].T, g, out=buf)
            return gx

        gw, gx = lane._both(weight_grad, input_grad,
                            big_size if need_w and need_x else 0)
        if need_w:
            nw.accumulate(gw)
        if need_x:
            nx.accumulate(gx)
        if nb is not None:
            nb.accumulate(g.sum(axis=(0, 2)))

    return _result(out_data, (nx, nw, nb), backward)


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
    """Per-channel normalization of x (B, C, T) over the batch and time axes.

    The elementwise passes run one half of the batch axis at a time; every
    reduction is one call on the whole array, and two independent ones may
    run at the same time."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd, gd = x.data, gamma.data
    nx, ngamma, nbeta = x._node, gamma._node, beta._node
    bsz, c, t = xd.shape
    n = bsz * t
    if training and n < 2:
        raise ValueError("batchnorm training mode needs more than one sample")
    xhat = np.empty_like(xd)
    # training squares x - mu into out_data for the variance
    out_data = np.empty_like(xd)
    # np.mean and np.var's arithmetic, sharing x - mu; eval before any
    # training step normalizes with the 0/1 defaults
    mu = xd.sum(axis=(0, 2)) / n if training else state.mean

    def center(idx):
        np.subtract(xd[idx], mu[None, :, None], out=xhat[idx])
        if training:
            np.square(xhat[idx], out=out_data[idx])

    lane._halves(center, xd)
    if training:
        var = out_data.sum(axis=(0, 2)) / n
        state.mean = (1 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var = (1 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    else:
        var = state.var
    ivar = 1.0 / np.sqrt(var + BN_EPS)

    def scale(idx):
        # out = gamma * xhat + beta
        xh, out = xhat[idx], out_data[idx]
        xh *= ivar[None, :, None]
        np.multiply(gd[None, :, None], xh, out=out)
        out += beta.data[None, :, None]

    lane._halves(scale, xd)

    def backward(g):
        need_x = nx is not None
        buf = np.empty_like(xhat)
        gx = np.empty_like(xhat) if need_x else None

        def products(idx):
            np.multiply(g[idx], xhat[idx], out=buf[idx])
            if need_x:  # d loss / d xhat
                np.multiply(g[idx], gd[None, :, None], out=gx[idx])

        lane._halves(products, buf)
        ggamma, gbeta = lane._both(lambda: np.sum(buf, axis=(0, 2)),
                                   lambda: np.sum(g, axis=(0, 2)), g.size)
        if ngamma is not None:
            ngamma.accumulate(ggamma)
        if nbeta is not None:
            nbeta.accumulate(gbeta)
        if not need_x:
            return
        if training:
            # standard batchnorm backward through the batch statistics:
            # (ivar / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat))
            lane._halves(
                lambda idx: np.multiply(gx[idx], xhat[idx], out=buf[idx]), buf)
            sum_gxhat, sum_gxhat_xhat = lane._both(
                lambda: gx.sum(axis=(0, 2)), lambda: buf.sum(axis=(0, 2)),
                g.size)
            ivar_n = ivar / n

            def combine(idx):
                gxs = gx[idx]
                gxs *= n
                gxs -= sum_gxhat[None, :, None]
                gxs -= np.multiply(xhat[idx], sum_gxhat_xhat[None, :, None],
                                   out=buf[idx])
                gxs *= ivar_n[None, :, None]
        else:
            def combine(idx):
                gxs = gx[idx]
                gxs *= ivar[None, :, None]

        lane._halves(combine, gx)
        nx.accumulate(gx)

    return _result(out_data, (nx, ngamma, nbeta), backward)


# -- SO(3) nodes ---------------------------------------------------------------

def exp_so3(v):
    """Tensor node for the SO(3) exponential map, v (..., 3) -> (..., 3, 3)."""
    v = as_tensor(v)
    vd, nv = v.data, v._node
    out_data = so3.exp_so3(vd)

    def backward(g):
        # dR = R hat(Jr dv)  =>  grad_v = Jr^T vee(R^T G - (R^T G)^T)
        a = np.einsum("...ji,...jk->...ik", out_data, g)
        w = so3.vee(a - np.swapaxes(a, -1, -2))
        jr = so3.right_jacobian(vd)
        nv.accumulate(np.einsum("...ji,...j->...i", jr, w))

    return _result(out_data, (nv,), backward)


def log_so3(r):
    """Tensor node for the SO(3) logarithm, r (..., 3, 3) -> (..., 3).

    Differentiable extension of phi = c(theta) vee(R - R^T) with
    c = theta / (2 sin theta); valid for rotation angles away from pi
    (the loss only ever sees small residual rotations).
    """
    r = as_tensor(r)
    nr = r._node
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
        nr.accumulate(gr)

    return _result(out_data, (nr,), backward)
