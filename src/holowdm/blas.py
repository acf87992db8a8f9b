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
holds the count at one for a block of work.  Its three eigen-solves run
LAPACK on buffers holowdm owns: tridiagonal_eigvalsh, eigvalsh_in_place and
gram_eigvalsh.  Where numpy links another BLAS, every function here is a
no-op or None, and the eigen-solves take numpy's eigvalsh.
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

__all__ = [
    "symbol", "thread_calls", "stop_idle_threads", "one_thread", "tridiagonal_eigvalsh",
    "eigen_solver", "eigvalsh_in_place", "gram_eigvalsh",
]

# LAPACK's and BLAS's argument types: a pointer, an integer by reference (64
# bits in numpy's OpenBLAS), and the hidden length of a character argument,
# which gfortran passes after all the others
_POINTER, _INT, _LENGTH = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_size_t


def _int(value: int):
    """value as an _INT argument."""
    return ctypes.byref(ctypes.c_int64(value))


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
    sterf = symbol("scipy_dsterf_64_", (_INT, _POINTER, _POINTER, _INT), None)
    if sterf is None:
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    info = ctypes.c_int64(0)
    sterf(_int(diag.size), diag.ctypes.data, off.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dsterf failed to converge (info {info.value})")
    return diag


def eigen_solver(dtype):
    """LAPACK dsyevd (float64) or zheevd (complex128) of numpy's OpenBLAS
    with its signature set, or None.

    dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info) and
    zheevd(jobz, uplo, n, a, lda, w, work, lwork, rwork, lrwork, iwork,
    liwork, info), each followed by the lengths of jobz and uplo.
    """
    if np.dtype(dtype) == np.complex128:
        return symbol("scipy_zheevd_64_", (_POINTER, _POINTER, _INT, _POINTER, _INT, _POINTER)
                      + (_POINTER, _INT) * 3 + (_INT, _LENGTH, _LENGTH), None)
    return symbol("scipy_dsyevd_64_", (_POINTER, _POINTER, _INT, _POINTER, _INT, _POINTER)
                  + (_POINTER, _INT) * 2 + (_INT, _LENGTH, _LENGTH), None)


def eigvalsh_in_place(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the square float64 or complex128 matrix A,
    whose contents it destroys.

    LAPACK dsyevd or zheevd (eigen_solver) with jobz 'N' and uplo 'L' on A's
    own buffer, which must be C- or F-contiguous and writeable: numpy's
    eigvalsh runs the same routine on the same triangle, but on a copy.  It
    reads the lower triangle of A's column-major storage, which is A's upper
    triangle when A is C-ordered, so a C-ordered A must be exactly symmetric
    (Hermitian), and an F-ordered one needs only its lower triangle.  The
    workspace is sized by a query, as numpy does: the minimal one takes
    LAPACK's unblocked reduction (dsytd2), which is slower and rounds
    differently.  Where numpy links another BLAS, numpy's eigvalsh.
    """
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or A.dtype not in (np.float64, np.complex128)
            or not A.flags.writeable or not (A.flags.c_contiguous or A.flags.f_contiguous)):
        raise ValueError(f"need a writeable contiguous square float64 or complex128 matrix, "
                         f"got shape {A.shape} of {A.dtype}")
    evd = eigen_solver(A.dtype)
    if evd is None:
        return np.linalg.eigvalsh(A)
    n = A.shape[0]
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def run(workspace, query: bool) -> None:
        arguments = []
        for buffer in workspace:
            arguments += [buffer.ctypes.data, _int(-1 if query else buffer.size)]
        evd(b"N", b"L", _int(n), A.ctypes.data, _int(max(1, n)), w.ctypes.data, *arguments,
            ctypes.byref(info), 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"{evd.__name__} failed (info {info.value})")

    # work, rwork (zheevd only) and iwork: the query writes the length each
    # needs into its first entry
    query = [np.empty(1, A.dtype), np.empty(1), np.empty(1, np.int64)]
    if A.dtype == np.float64:
        del query[1]
    run(query, True)
    run([np.empty(int(buffer[0].real), buffer.dtype) for buffer in query], False)
    return w


def gram_eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix of the complex matrix H on its
    smaller side: H H^H when H has no more rows than columns, else H^H H.

    BLAS zherk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc) writes the
    lower triangle of the Gram matrix, half the flops of the dense product,
    into a column-major buffer this function owns, and eigvalsh_in_place
    solves it there.  trans and lda come from H's layout: column-major BLAS
    reads an F-ordered H as H and a C-ordered one as H^T, whose Gram matrix
    is the conjugate of H's, with the same eigenvalues; any other H is
    copied to C order first.  Where numpy links another BLAS, numpy's
    eigvalsh of the dense product.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise ValueError(f"need a matrix, got shape {H.shape}")
    herk = symbol("scipy_zherk_64_", (_POINTER, _POINTER, _INT, _INT, _POINTER, _POINTER, _INT,
                                      _POINTER, _POINTER, _INT, _LENGTH, _LENGTH), None)
    if herk is None:
        return np.linalg.eigvalsh(H @ H.conj().T if H.shape[0] <= H.shape[1] else H.conj().T @ H)
    if not H.flags.f_contiguous:
        H = np.ascontiguousarray(H)
    fortran = H.flags.f_contiguous
    n, k = sorted(H.shape)
    # BLAS reads H or H^T as A, and trans 'N' forms A A^H, 'C' A^H A: H H^H
    # is 'N' on an F-ordered H, and its conjugate 'C' on a C-ordered one
    trans = b"N" if (H.shape[0] <= H.shape[1]) == fortran else b"C"
    lda = H.shape[0] if fortran else H.shape[1]
    gram = np.empty((n, n), np.complex128, order="F")
    herk(b"L", trans, _int(n), _int(k), ctypes.byref(ctypes.c_double(1.0)), H.ctypes.data,
         _int(max(1, lda)), ctypes.byref(ctypes.c_double(0.0)), gram.ctypes.data, _int(max(1, n)),
         1, 1)
    return eigvalsh_in_place(gram)


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
