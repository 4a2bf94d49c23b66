"""Dense linear-algebra kernels used by every decomposer.

Thin, shape-disciplined wrappers around LAPACK via numpy/scipy plus the
tensor reshaping primitives (unfolding, folding, mode-n products) that
the tensor decompositions are built from.  The factorizations are
full: they take no rank, and ``decompose`` truncates them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import RankError


def svd(a: np.ndarray):
    """Singular value decomposition ``a ~ U @ diag(S) @ V.T``.

    Returns ``(U, S, V)`` with ``U: (M, k)``, ``S: (k,)`` descending
    and ``V: (N, k)``, where ``k = min(M, N)``.
    """
    if a.ndim != 2:
        raise RankError(f"svd expects a matrix, got shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def left_basis(a: np.ndarray) -> np.ndarray:
    """Left singular vectors of ``a``, without S or V.

    Returns ``U: (M, k)`` with ``k = min(M, N)``, in descending order
    of singular value.  A wide or square ``a`` (``N >= M``) takes the
    eigenvectors of its small ``M x M`` Gram ``a @ a.T``, which is
    several times cheaper than an SVD there; a tall ``a`` takes
    :func:`svd`'s ``U``, which is cheaper on that side.  Each column is
    signed so that its largest-magnitude entry is positive, so the
    basis does not depend on which solver produced it.
    """
    if a.ndim != 2:
        raise RankError(f"left_basis expects a matrix, got shape {a.shape}")
    m, n = a.shape
    if n >= m:
        u = np.linalg.eigh(a @ a.T)[1][:, ::-1]
    else:
        u = svd(a)[0]
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(peaks < 0, -1.0, 1.0)


def qr_pivoted(a: np.ndarray):
    """Column-pivoted QR with the permutation folded back into R.

    Returns ``(Q, R)`` with ``Q: (M, k)`` orthonormal, ``R: (k, N)``
    and ``k = min(M, N)``, such that ``Q @ R ~ a`` directly (no
    external permutation).  The leading pivots are the most linearly
    independent columns of ``a``, so the leading columns of Q and rows
    of R give a truncated factorization.
    """
    if a.ndim != 2:
        raise RankError(f"qr expects a matrix, got shape {a.shape}")
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    inverse = np.empty_like(piv)
    inverse[piv] = np.arange(len(piv))
    return q, r[:, inverse]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: axis ``mode`` becomes the rows."""
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def fold(matrix: np.ndarray, mode: int, shape: tuple) -> np.ndarray:
    """Inverse of :func:`unfold` for a tensor of the given shape."""
    rest = [s for i, s in enumerate(shape) if i != mode]
    return np.moveaxis(matrix.reshape([shape[mode]] + rest), 0, mode)


def mode_n_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``matrix @ unfold(tensor, mode)`` and fold back.

    ``matrix`` has shape ``(J, I_mode)``; the result replaces axis
    ``mode`` of ``tensor`` with extent ``J``.
    """
    if matrix.shape[1] != tensor.shape[mode]:
        raise RankError(
            f"mode-{mode} product: matrix {matrix.shape} does not match "
            f"tensor {tensor.shape}")
    out_shape = list(tensor.shape)
    out_shape[mode] = matrix.shape[0]
    return fold(matrix @ unfold(tensor, mode), mode, tuple(out_shape))


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Frobenius-norm relative reconstruction error."""
    denom = np.linalg.norm(exact)
    if denom == 0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - exact) / denom)
