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

The command line also opens a compute lane (`compute_lane()`): a
one-thread executor, the command's one worker thread. Work is shared with
it one way, through a `Jobs` queue of independent callables that the
thread that opened the lane and the lane both take from, so a training
step uses two cores: a heavy kernel's queue holds its two halves, and the
eval forward's (`network.rate_blocks`) its blocks. The convolution splits
its forward by batch halves and runs its backward's gw and gx GEMMs side
by side; GELU, dropout's multiply and every elementwise pass of batchnorm
split by batch halves. A reduction is never split: each is the one call
on the whole array that an inline run makes, and only batchnorm's
backward runs two independent ones at the same time. Each kernel has one
body; without the lane (library calls, other threads, kernels under
LANE_MIN_SIZE elements) both halves run on the calling thread, so the
bits are the same either way. Every autodiff decision stays on the
calling thread, since grad mode is per thread; a job that builds tensors
sets its own grad mode.

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

import collections
import contextlib
import ctypes
import functools
import threading
from concurrent import futures

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


# -- the compute lane -----------------------------------------------------------

# kernels on fewer elements than this run both halves on the calling thread.
# On a 2-vCPU Xeon a hand-off costs about 30 us, and a conv forward and
# backward with a (6, 32, 481) output took 4.6 ms through the lane against
# 3.7 ms inline. Handing off calibrate's widest layer, (6, 64, 385) or
# 147,840 elements, saved nothing end to end over 10 benchmark pairs and
# widened their spread, while train's narrowest, (6, 16, 1786) or 171,456
# elements, took 13.6 ms through the lane against 16.7 ms inline for its
# conv, batchnorm, GELU and dropout.
LANE_MIN_SIZE = 150_000


class _OpenLane(threading.local):
    """The lane this thread opened, kept per thread: no other thread's
    kernels hand work to it."""
    lane = None


_open = _OpenLane()


@contextlib.contextmanager
def compute_lane():
    """Inside the block, this thread's kernels share their large numpy
    passes with one worker thread, and the bits of every result stay those
    of this thread doing all of it. Open it only with one BLAS thread
    (`one_blas_thread()`), so that the GEMMs of the two threads share no
    core. Yields the lane, a one-thread executor whose thread starts at the
    first submit; a block nested in an open one yields that lane, and the
    outermost block joins the thread on exit.

    This thread shares work with the lane through `Jobs` queues. A job the
    lane takes never hands work off, since the open lane is per thread and
    the lane's own thread has none. A queue whose turn waits behind a busy
    lane does not wait for it: this thread takes every job itself."""
    if _open.lane is not None:
        yield _open.lane
        return
    with futures.ThreadPoolExecutor(
            1, thread_name_prefix="autodiff-lane") as lane:
        _open.lane = lane
        try:
            yield lane
        finally:
            _open.lane = None


class Jobs:
    """Independent callables in one queue that any thread may take from the
    front (deque.popleft is atomic, so no lock is needed): the thread that
    joins the queue and the lane it has open share them, whichever is free
    taking the next. A job that builds tensors sets its own grad mode,
    which is per thread."""

    def __init__(self, jobs):
        self._queue = collections.deque(enumerate(jobs))
        self._results = [None] * len(self._queue)
        self._errors = {}
        self._turn = None

    def start(self):
        """Submit a turn at the queue to this thread's open lane, if any;
        returns self."""
        if _open.lane is not None:
            self._turn = _open.lane.submit(self.work)
        return self

    def work(self):
        """Take jobs from the front until none is left or one raises: a
        thread takes no more jobs after one of its own has failed, and the
        error is kept for join() to raise."""
        take = self._queue.popleft
        while True:
            try:
                i, job = take()
            except IndexError:
                return
            try:
                self._results[i] = job()
            except BaseException as err:
                self._errors[i] = err
                return

    def stop(self):
        """Drop the jobs no thread has taken, for a caller that will not
        read the results; a job being run still finishes."""
        self._queue.clear()

    def join(self):
        """Take jobs on this thread until none is left, then cancel the
        lane's turn if it has not started, else wait for it. Returns the
        results in job order, or raises the error of the first job, in job
        order, that failed."""
        self.work()
        if self._turn is not None and not self._turn.cancel():
            self._turn.result()
        if self._errors:
            raise self._errors[min(self._errors)]
        return self._results


def _both(there, here, size):
    """(there(), here()), both jobs of one `Jobs` queue when a lane is open
    and size reaches LANE_MIN_SIZE: this thread takes here() first, and
    there() goes to whichever thread is free next. Else there() then here()
    on this thread. Raises here's error before there's."""
    if _open.lane is None or size < LANE_MIN_SIZE:
        return there(), here()
    mine, theirs = Jobs([here, there]).start().join()
    return theirs, mine


def _halves(body, like):
    """body(idx) for the first and the second half of the leading axis of
    the array like (idx a slice), through _both; one body(...) when that
    axis has fewer than two rows. Elementwise passes only: a reduction is
    never split."""
    n = like.shape[0] if like.ndim else 0
    if n < 2:
        body(...)
        return
    h = n // 2
    _both(lambda: body(slice(0, h)), lambda: body(slice(h, n)), like.size)


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
    if _grad_mode.enabled and _needs_grad(*live):
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

    The forward keeps t = tanh(...) for the backward, whether or not it
    records a graph; each expression is evaluated in its written order, in
    buffers of x's shape, one half of the leading axis at a time."""
    x = as_tensor(x)
    c = 0.7978845608
    a = 0.044715
    xd = x.data
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

    _halves(forward, xd)

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

        _halves(grad, dx)
        x._accumulate(dx)

    return _result(out_data, (x,), backward)


def dropout(x, p, rng):
    """Zero elements with probability p, drawn from the numpy Generator rng,
    and scale survivors by 1/(1-p). The mask is drawn whole; it is built
    and applied one half of the leading axis at a time."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = as_tensor(x)
    if p == 0.0:
        return x
    xd = x.data
    mask = rng.random(xd.shape)
    out_data = np.empty_like(mask)

    def forward(idx):
        m = mask[idx]
        # the bits of (u >= p) / (1 - p)
        np.greater_equal(m, p, out=m)
        m /= 1.0 - p
        np.multiply(xd[idx], m, out=out_data[idx])

    _halves(forward, mask)

    def backward(g):
        gx = np.empty_like(mask)
        _halves(lambda idx: np.multiply(g[idx], mask[idx], out=gx[idx]), gx)
        x._accumulate(gx)

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

    xd, wd = x.data, w.data
    out_data = np.empty((bsz, c_out, t_out))
    tap = np.empty_like(out_data)
    # the larger of input and output measures the work against LANE_MIN_SIZE
    big = xd if xd.size > out_data.size else out_data

    def forward(idx):
        out, buf = out_data[idx], tap[idx]
        out[...] = b.data[None, :, None]
        for kk in range(k):
            seg = xd[idx, :, kk * dilation: kk * dilation + t_out]
            out += np.matmul(wd[:, :, kk], seg, out=buf)

    _halves(forward, big)

    def backward(g):
        need_w, need_x = _needs_grad(w), _needs_grad(x)

        def weight_grad():
            if not need_w:
                return None
            gw = np.zeros_like(wd)
            g_rows = g.transpose(1, 0, 2).reshape(c_out, -1)
            x_rows = np.ascontiguousarray(xd.transpose(0, 2, 1))
            for kk in range(k):
                seg = x_rows[:, kk * dilation: kk * dilation + t_out]
                gw[:, :, kk] = np.dot(g_rows, seg.reshape(-1, c_in))
            return gw

        def input_grad():
            if not need_x:
                return None
            gx = np.zeros_like(xd)
            buf = np.empty((bsz, c_in, t_out))
            for kk in range(k):
                gx[:, :, kk * dilation: kk * dilation + t_out] += np.matmul(
                    wd[:, :, kk].T, g, out=buf)
            return gx

        gw, gx = _both(weight_grad, input_grad,
                       big.size if need_w and need_x else 0)
        if need_w:
            w._accumulate(gw)
        if need_x:
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
    """Per-channel normalization of x (B, C, T) over the batch and time axes.

    The elementwise passes run one half of the batch axis at a time; every
    reduction is one call on the whole array, and two independent ones may
    run at the same time."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
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

    _halves(center, xd)
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
        np.multiply(gamma.data[None, :, None], xh, out=out)
        out += beta.data[None, :, None]

    _halves(scale, xd)

    def backward(g):
        need_x = _needs_grad(x)
        buf = np.empty_like(xhat)
        gx = np.empty_like(xhat) if need_x else None

        def products(idx):
            np.multiply(g[idx], xhat[idx], out=buf[idx])
            if need_x:  # d loss / d xhat
                np.multiply(g[idx], gamma.data[None, :, None], out=gx[idx])

        _halves(products, buf)
        ggamma, gbeta = _both(lambda: np.sum(buf, axis=(0, 2)),
                              lambda: np.sum(g, axis=(0, 2)), g.size)
        if _needs_grad(gamma):
            gamma._accumulate(ggamma)
        if _needs_grad(beta):
            beta._accumulate(gbeta)
        if not need_x:
            return
        if training:
            # standard batchnorm backward through the batch statistics:
            # (ivar / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat))
            _halves(lambda idx: np.multiply(gx[idx], xhat[idx], out=buf[idx]),
                    buf)
            sum_gxhat, sum_gxhat_xhat = _both(lambda: gx.sum(axis=(0, 2)),
                                              lambda: buf.sum(axis=(0, 2)),
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

        _halves(combine, gx)
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
