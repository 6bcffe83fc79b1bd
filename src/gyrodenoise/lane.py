"""The compute lane: a command's one worker thread, with which the thread
that opened it shares work, keeping the bits of one thread doing all of it.

- `compute_lane()` opens the lane, a one-thread executor whose thread
  starts at the first submit and is joined when the outermost block exits;
  a nested block keeps the open lane. It pins BLAS to one thread
  (`one_blas_thread()`) while open: the convolution is one GEMM per kernel
  tap in each direction, whose bits, like everything downstream, depend on
  the BLAS thread count, and the two threads' GEMMs then share no core.
- The open lane is kept per thread: no other thread's kernels hand work to
  it, and a job the lane takes never hands work off.
- Work is shared one way, through a `Jobs` queue of independent callables
  that the opening thread and the lane both take from the front: a heavy
  kernel's two halves (`_both`, `_halves`), or the eval forward's blocks
  (`network.rate_blocks`). A queue whose turn waits behind a busy lane
  does not wait for it: the calling thread takes every job.
- The convolution splits its forward by batch halves and runs its
  backward's gw and gx GEMMs side by side; GELU, dropout's multiply and
  every elementwise pass of batchnorm split by batch halves. A reduction
  is never split: each is the one call on the whole array that an inline
  run makes, and only batchnorm's backward runs two at the same time. Each
  kernel has one body; without the lane (library calls, other threads,
  kernels under LANE_MIN_SIZE elements) both halves run on the calling
  thread, so the bits are the same either way.
- Grad mode is per thread, so every autodiff decision stays on the
  calling thread; a job that builds tensors sets its own grad mode.
"""

import collections
import contextlib
import ctypes
import functools
import threading
from concurrent import futures


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
    """The lane this thread opened, kept per thread."""
    lane = None


_open = _OpenLane()


@contextlib.contextmanager
def compute_lane():
    """Open this thread's lane for the block, with BLAS on one thread, and
    yield it; a nested block yields the open lane, and the outermost joins
    the thread, then restores the BLAS thread count, on exit."""
    if _open.lane is not None:
        yield _open.lane
        return
    with one_blas_thread(), futures.ThreadPoolExecutor(
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
    taking the next."""

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
