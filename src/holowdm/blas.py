"""numpy's OpenBLAS through ctypes: how it is loaded, its functions, its
thread count, its idle threads, and LAPACK's tridiagonal eigen-solve.

This is the one module of holowdm that calls foreign code, and the package
imports it first.  OpenBLAS starts a server thread when numpy loads it, and
again after every threaded call; that thread busy-waits for a while before
it sleeps.  Where numpy is not loaded yet, no thread variable of OpenBLAS is
set and numpy is a Linux wheel with scipy-openblas, this module imports
numpy with OpenBLAS at one thread, so that no server thread starts, then
sets the count OpenBLAS would have chosen (one per CPU this process may run
on) and leaves the environment as it found it.  Either way it joins the
server thread before its import ends (stop_idle_threads), and one_thread
holds the count at one for a block of work.  Where numpy links another BLAS,
every function here is a no-op or None, and tridiagonal_eigvalsh takes
numpy's dense eigvalsh.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from contextlib import contextmanager
from functools import cache

# the variables OpenBLAS reads for its thread count when numpy loads it
_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
)


def _ships_scipy_openblas() -> bool:
    """Whether the numpy an import would load is a Linux wheel that ships
    scipy-openblas, told by its files without importing it.

    Such a wheel puts the shared object in numpy.libs next to the package,
    and its symbols resolve through numpy's extension (_openblas).  A numpy
    that links another BLAS has none there, and other platforms' wheels keep
    the library elsewhere, so for them this says no.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return False
    libs = os.path.dirname(spec.origin) + ".libs"
    return os.path.isdir(libs) and any(
        name.startswith("libscipy_openblas") and name.endswith(".so") for name in os.listdir(libs))


def _import_numpy_at_one_thread() -> bool:
    """Import numpy with its OpenBLAS at one thread, so that it starts no
    server thread, and say whether it was.

    Only where the count can be set back to OpenBLAS's own choice: numpy is
    not loaded yet, no variable chooses the count, and numpy is a Linux
    wheel with scipy-openblas.  OPENBLAS_NUM_THREADS is removed again, so no
    later BLAS call of the process runs at one thread because of it.
    """
    if ("numpy" in sys.modules or any(name in os.environ for name in _THREAD_VARIABLES)
            or not _ships_scipy_openblas()):
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    return True


_LOADED_AT_ONE_THREAD = _import_numpy_at_one_thread()

import numpy as np  # noqa: E402

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


def _set_default_thread_count() -> None:
    """Set the count OpenBLAS takes when no variable is set: one thread per
    CPU this process may run on, as its get_num_procs counts them."""
    procs = symbol("scipy_openblas_get_num_procs64_", (), ctypes.c_int)
    calls = thread_calls()
    if procs is not None and calls is not None:
        calls[1](procs())


if _LOADED_AT_ONE_THREAD:
    _set_default_thread_count()
stop_idle_threads()
