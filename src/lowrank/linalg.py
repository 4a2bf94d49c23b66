"""Dense linear-algebra kernels used by every decomposer.

Thin, shape-disciplined wrappers around LAPACK via numpy/scipy plus the
tensor reshaping primitives (unfolding, folding, mode-n products) that
the tensor decompositions are built from.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import RankError


def svd(a: np.ndarray, rank: int | None = None):
    """Singular value decomposition ``a ~ U @ diag(S) @ V.T``.

    Returns ``(U, S, V)`` with ``U: (M, k)``, ``S: (k,)`` descending
    and ``V: (N, k)``, where ``k = min(M, N)`` or ``rank`` if given.
    """
    if a.ndim != 2:
        raise RankError(f"svd expects a matrix, got shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return svd_leading((u, s, vt.T), rank)


def svd_leading(usv: tuple, rank: int | None):
    """The leading ``rank`` triplets of a full :func:`svd` result.

    The factors are views of ``usv``, so truncating one full
    factorization gives the same bytes as :func:`svd` at that rank.
    """
    u, s, v = usv
    if rank is None:
        return u, s, v
    _check_rank("svd", rank, len(s))
    return u[:, :rank], s[:rank], v[:, :rank]


def left_basis(a: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Leading left singular vectors of ``a``, without S or V.

    Returns ``U: (M, k)`` with ``k = min(M, N)``, in descending order
    of singular value, or ``rank`` columns if given (see
    :func:`left_basis_leading`).  A wide or square ``a`` (``N >= M``)
    takes the eigenvectors of its small ``M x M`` Gram ``a @ a.T``,
    which is several times cheaper than an SVD there; a tall ``a``
    takes :func:`svd`'s ``U``, which is cheaper on that side.  Each
    column is signed so that its largest-magnitude entry is positive,
    so the basis does not depend on which solver produced it.
    """
    if a.ndim != 2:
        raise RankError(f"left_basis expects a matrix, got shape {a.shape}")
    m, n = a.shape
    if n >= m:
        u = np.linalg.eigh(a @ a.T)[1][:, ::-1]
    else:
        u = svd(a)[0]
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return left_basis_leading(u * np.where(peaks < 0, -1.0, 1.0), rank)


def left_basis_leading(u: np.ndarray, rank: int | None) -> np.ndarray:
    """The leading ``rank`` columns of a full :func:`left_basis` result.

    Within the basis the columns are views, so truncating one full
    basis gives the same bytes as :func:`left_basis` at that rank.  A
    rank above the basis width is met by zero columns, which add
    nothing to any product of the factors.
    """
    if rank is None:
        return u
    if rank < 1:
        raise RankError(f"left_basis rank {rank} below 1")
    keep = min(rank, u.shape[1])
    if keep < rank:
        return np.pad(u[:, :keep], ((0, 0), (0, rank - keep)))
    return u[:, :rank]


def qr_pivoted(a: np.ndarray, rank: int | None = None):
    """Column-pivoted QR with the permutation folded back into R.

    Returns ``(Q, R)`` with ``Q: (M, k)`` orthonormal and ``R: (k, N)``
    such that ``Q @ R ~ a`` directly (no external permutation).  With
    ``rank`` given, keeps the ``rank`` leading pivots, which are the
    most linearly independent columns of ``a``.
    """
    if a.ndim != 2:
        raise RankError(f"qr expects a matrix, got shape {a.shape}")
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    inverse = np.empty_like(piv)
    inverse[piv] = np.arange(len(piv))
    return qr_leading((q, r[:, inverse]), rank)


def qr_leading(qr: tuple, rank: int | None):
    """The leading ``rank`` pivots of a full :func:`qr_pivoted` result,
    as views (see :func:`svd_leading`)."""
    q, r = qr
    if rank is None:
        return q, r
    _check_rank("qr", rank, q.shape[1])
    return q[:, :rank], r[:rank]


def _check_rank(method: str, rank: int, most: int):
    if not 1 <= rank <= most:
        raise RankError(f"{method} rank {rank} outside [1, {most}]")


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
