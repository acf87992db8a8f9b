"""numpy's OpenBLAS through ctypes: its functions, its thread count, its idle
threads, and LAPACK's tridiagonal eigen-solve.

This is the one module of holowdm that calls foreign code.  OpenBLAS starts a
server thread when numpy loads it, and again after every threaded call; that
thread busy-waits for a while before it sleeps.  This module joins it as soon
as it is imported (stop_idle_threads), which the package does right after
numpy loads, and one_thread holds the count at one for a block of work.
Where numpy links another BLAS, every function here is a no-op or None, and
tridiagonal_eigvalsh takes numpy's dense eigvalsh.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

import numpy as np

__all__ = ["symbol", "thread_calls", "stop_idle_threads", "one_thread", "tridiagonal_eigvalsh"]


@cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's extension module opened through ctypes, or None on a numpy
    without one (before 2.0).

    numpy's wheels link scipy-openblas with 64-bit integers, and its symbols,
    which carry the scipy_ prefix and the 64_ suffix, resolve through this
    handle.  Where numpy links another BLAS they are missing, and symbol
    gives None.
    """
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


@cache
def symbol(name: str, argtypes: tuple, restype):
    """The function name of numpy's OpenBLAS with its signature set, or None;
    cached, so each is looked up and typed once."""
    function = getattr(_openblas(), name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function


def thread_calls():
    """The get and set functions of numpy's OpenBLAS thread count, or None,
    in which case one_thread leaves the caller's threads as they are."""
    get = symbol("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    set_ = symbol("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None)
    return None if get is None or set_ is None else (get, set_)


def stop_idle_threads() -> None:
    """Join OpenBLAS's server threads, leaving its thread count as it is.

    OpenBLAS calls blas_thread_shutdown_ itself before every fork, and starts
    the threads again on its next threaded call.  Without the symbol this
    does nothing.
    """
    shutdown = symbol("blas_thread_shutdown_", (), ctypes.c_int)
    if shutdown is not None:
        shutdown()


@contextmanager
def one_thread():
    """Hold numpy's OpenBLAS to one thread, then restore the caller's count.

    The count is one setting for the whole process.  set_num_threads starts
    the server threads again, so they are stopped after each change: none is
    left spinning during the block or after it.
    """
    calls = thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    stop_idle_threads()
    try:
        yield
    finally:
        set_(before)
        stop_idle_threads()


def tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix of
    diagonal diag and off-diagonal off.

    LAPACK dsterf(n, d, e, info) of numpy's OpenBLAS, with 64-bit integers,
    on copies of both; where numpy links another BLAS, numpy's eigvalsh of
    the dense matrix.
    """
    diag = np.array(diag, dtype=np.float64)
    off = np.array(off, dtype=np.float64)
    if diag.ndim != 1 or off.shape != (diag.size - 1,):
        raise ValueError(f"need a diagonal vector and one entry fewer off it, got shapes "
                         f"{diag.shape} and {off.shape}")
    int64_p = ctypes.POINTER(ctypes.c_int64)
    sterf = symbol("scipy_dsterf_64_", (int64_p, ctypes.c_void_p, ctypes.c_void_p, int64_p), None)
    if sterf is None:
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    info = ctypes.c_int64(0)
    sterf(ctypes.byref(ctypes.c_int64(diag.size)), diag.ctypes.data, off.ctypes.data,
          ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dsterf failed to converge (info {info.value})")
    return diag


stop_idle_threads()
