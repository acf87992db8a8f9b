"""LAPACK eigen-solves on holowdm's own buffers: eigvalsh_in_place and gram_eigvalsh."""

import numpy as np
import pytest

from holowdm import blas


def hermitian(n, dtype, seed=0):
    """An exactly symmetric (Hermitian) n x n matrix of the dtype."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    if dtype == np.complex128:
        X = X + 1j * rng.standard_normal((n, n))
    return X + X.conj().T


def gaussian(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_gram(H):
    return H @ H.conj().T if H.shape[0] <= H.shape[1] else H.conj().T @ H


# the three layouts a Gram's H takes: C-ordered, F-ordered (as W[rows][:, cols]
# gives it) and strided, which is copied first
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": lambda X: np.repeat(X, 2, axis=1)[:, ::2],
}


def hiding(*names):
    """blas.symbol as if numpy's BLAS had none of names."""
    symbol = blas.symbol

    def without(name, argtypes, restype):
        return None if name in names else symbol(name, argtypes, restype)

    return without


class TestEigvalshInPlace:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, dtype", [(n, np.float64) for n in (0, 1, 2, 3, 33, 257, 1024)]
                             + [(n, np.complex128) for n in (0, 1, 2, 33, 256)])
    def test_gives_numpys_bits(self, capfd, n, dtype, order):
        A = hermitian(n, dtype)
        want = np.linalg.eigvalsh(A)
        got = blas.eigvalsh_in_place(np.array(A, order=order))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        # LAPACK's xerbla prints a refused argument (lda = 0 at n = 0) to stdout
        assert capfd.readouterr().out == ""

    def test_solves_in_the_callers_buffer(self):
        A = hermitian(33, np.float64)
        buffer = A.copy()
        blas.eigvalsh_in_place(buffer)
        assert not np.array_equal(buffer, A)

    @pytest.mark.parametrize("A", [
        np.zeros((3, 4)),
        np.zeros(3),
        np.zeros((3, 3), dtype=np.float32),
        np.zeros((6, 6))[::2, ::2],
        np.broadcast_to(0.0, (3, 3)),
    ], ids=["non-square", "vector", "float32", "strided", "read-only"])
    def test_refuses_a_buffer_it_cannot_solve_in(self, A):
        with pytest.raises(ValueError, match="^need a writeable contiguous square"):
            blas.eigvalsh_in_place(A)

    @pytest.mark.parametrize("dtype, name", [
        (np.float64, "scipy_dsyevd_64_"), (np.complex128, "scipy_zheevd_64_"),
    ])
    def test_without_the_symbol_takes_numpys_eigvalsh(self, monkeypatch, dtype, name):
        A = hermitian(33, dtype)
        monkeypatch.setattr(blas, "symbol", hiding(name))
        assert blas.eigen_solver(dtype) is None
        np.testing.assert_array_equal(blas.eigvalsh_in_place(A.copy()), np.linalg.eigvalsh(A))


class TestGramEigvalsh:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (16, 32), (32, 16), (137, 137), (256, 256)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_the_dense_grams_eigvalsh(self, shape, layout):
        X = gaussian(shape)
        H = LAYOUTS[layout](X)
        want = np.linalg.eigvalsh(dense_gram(X))
        got = blas.gram_eigvalsh(H)
        assert got.shape == (min(shape),)
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()
        # H is read, not written
        np.testing.assert_array_equal(H, X)

    @pytest.mark.parametrize("names", [
        ("scipy_zherk_64_",), ("scipy_zheevd_64_",), ("scipy_zherk_64_", "scipy_zheevd_64_"),
    ])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_without_a_symbol_takes_numpy(self, monkeypatch, names, layout):
        for shape in [(16, 32), (32, 16), (137, 137)]:
            X = gaussian(shape, seed=1)
            want = np.linalg.eigvalsh(dense_gram(X))
            with monkeypatch.context() as patch:
                patch.setattr(blas, "symbol", hiding(*names))
                got = blas.gram_eigvalsh(LAYOUTS[layout](X))
            assert np.max(np.abs(got - want)) <= 1e-13 * want.max()

    def test_refuses_a_vector(self):
        with pytest.raises(ValueError, match="^need a matrix"):
            blas.gram_eigvalsh(np.ones(3, dtype=complex))
