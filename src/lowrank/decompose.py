"""The six low-rank factorizations and their layer-chain realizations.

Ungrouped convolutions factor three ways, a Tucker decomposition
restricted to the channel modes, a CP decomposition and a tensor-train
decomposition, into one chain: a pointwise reduce, the middle stages,
a pointwise expand.  Dense layers factor by truncated SVD, by
column-pivoted truncated QR, or as a TT-matrix over a factorization
plan of the two matrix dimensions.  Each chain is stated once, as the
stages of ``costs.chain_stages``, which ``costs.closed_form`` walks for
the cost; ``chain_descs`` only names those stages as layers and adds
the two reshapes around the t3f cores.

``decompose_layer`` is the one entry point.  Its one prologue checks
the weight's shape and the ranks (with the t3f plan) against the rank
box of ``costs.rank_bounds``, which also rejects a method that does
not apply to the layer, and casts the weight to float64.  The method's
body lists its factors in chain order, and ``_attach`` gives factor
``i`` to the ``i``-th weighted sub-layer, reshaped to its
``weight_shape()``: chain order and those shapes are the one statement
of the weight layout, which ``FactorizedLayer.reconstruct`` reads back.

CP is fitted by alternating least squares.  Each factor update needs
the MTTKRP, the mode's unfolding times the Khatri-Rao product of all
other factors.  That product has a row per entry of the other modes
(24,576 rows for a spatial factor of a 3x3x64x128 conv), so
``_mttkrp`` never builds it: one gemm contracts the largest other
mode, and the Khatri-Rao product of the remaining small factors
finishes the contraction.  Most modes share that largest other mode,
so a sweep runs the gemm once per contracted factor and again only
after that factor changes.  The normal equations go to LAPACK
``potrf``/``potrs``, falling back to the pseudo-inverse on a singular
Gram.

A rank search decomposes one weight at many ranks, and much of that
work does not depend on the rank.  ``linalg.svd``,
``linalg.qr_pivoted`` and ``linalg.left_basis`` return full
factorizations, and ``_leading`` is the one truncation rule: the
leading ``rank`` columns of each part, as views, so a fresh and a kept
factorization give the same bytes.  Every decomposition keeps each
full factorization in a ``memo`` dict that belongs to one weight (a
fresh one unless the caller passes its own), under a key naming what
it depends on:

- ``("svd",)``: the full ``linalg.left_basis`` of the weight's short
  side (of ``w`` when it is wide, of ``w.T`` when it is tall);
- ``("qr",)``: the pivoted QR of the weight matrix;
- ``("tt", None, prefix)`` and ``("t3f", plan, prefix)``: the full
  ``linalg.left_basis`` of step ``i`` of the sequential TT-SVD, which
  unfolds what the ranks ``prefix = ranks[:i]`` left over, so step 0
  is shared by every rank vector and a later step by those with the
  same leading ranks;
- ``("tucker2", mode)``: the full ``linalg.left_basis`` of each of
  the two initial unfoldings;
- ``("cp", mode)``: the per-mode SVDs that start CP-ALS.

A kept basis is U alone, signed, with no S or V.  The truncations
outside CP need no more: for the leading left singular vectors U_r of
a matrix A = U S V', ``U_r.T @ A = S_r V_r'``, since U is
orthonormal, so one gemm recovers the scaled right vectors, and its
row norms are the singular values.  ``left_basis`` takes a wide
matrix's basis from the eigenvectors of its small Gram, with no SVD.

Kept factorizations are read-only, so a returned factor that is a view
of one is read-only too, with or without the caller's memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import khatri_rao
from scipy.linalg.lapack import dpotrf, dpotrs

from . import linalg
from .costs import (WHOLE_KERNEL, CostReport, chain_stages, check_ranks,
                    cost_chain, cp_max_rank)
from .errors import DecompositionError, ShapeError
from .ir import LayerDesc

CP_MAX_ITER = 500
CP_FIT_TOL = 1e-8
CP_DIVERGENCE_PATIENCE = 5
# below this a fit drop is stall noise, not divergence; float32 inputs
# plateau with oscillations around 1e-5
CP_DROP_TOL = 1e-3
CP_STALL_PATIENCE = 10
TUCKER_MAX_ITER = 50
TUCKER_FIT_TOL = 1e-7


@dataclass
class FactorizedLayer:
    """A layer replaced by an equivalent low-rank chain."""

    source: str
    method: str
    ranks: tuple
    sub_layers: list
    weights: dict
    plan: tuple | None = None

    def cost(self, input_shape: tuple) -> CostReport:
        """Cost of the chain on the per-sample shape entering the
        source layer."""
        return cost_chain(self.sub_layers, input_shape)

    def reconstruct(self) -> np.ndarray:
        """Dense weight tensor this chain approximates.

        One contraction over the weighted sub-layers in chain order,
        by sub-layer kind.  A conv or fc stage is a ``matmul`` on the
        two trailing axes; it broadcasts over the kernel axes, so a
        pointwise stage maps channels and a single-axis stage spreads
        the kernel along its axis.  A depthwise stage scales the
        columns.  A ``tt_core`` stage carries the (rows, columns, rank)
        partial product through its (r_in, m, n, r_out) core, and the
        rank 1 that closes the train is dropped.  Reshape stages carry
        no weight.
        """
        stages = [l for l in self.sub_layers if l.name in self.weights]
        dense = None
        for sub in stages:
            w = self.weights[sub.name]
            if sub.kind == "tt_core":
                if dense is None:
                    dense = np.ones((1, 1, 1))
                rows, cols, _ = dense.shape
                dense = np.einsum("abr,rmns->ambns", dense, w).reshape(
                    rows * sub.m, cols * sub.n, sub.rank_out)
            elif dense is None:
                dense = w
            elif sub.kind == "depthwise_conv":
                dense = dense * w[..., None, :]
            else:
                dense = np.matmul(dense, w)
        if stages[-1].kind == "tt_core":
            dense = dense[..., 0]
        return dense


# -- sub-layer chain construction -------------------------------------------


def _on_axis(window: tuple, axis) -> tuple:
    """A kernel or stride as the conv stage on ``axis`` applies it: all
    of it on ``WHOLE_KERNEL``, else kept on ``axis`` and 1 on every other
    axis (1 everywhere for a pointwise stage, axis None).  An fc layer's
    None stays None."""
    if window is None or axis == WHOLE_KERNEL:
        return window
    return tuple(k if i == axis else 1 for i, k in enumerate(window))


def chain_descs(layer: LayerDesc, method: str, ranks: tuple,
                plan: tuple = None) -> list:
    """Sub-layer descriptions replacing ``layer`` under ``method``: the
    stages of ``costs.chain_stages`` as layers, with the two reshapes
    around the t3f cores.

    Pure topology for ranks that passed ``costs.check_ranks``: weights
    are attached by the decomposers.  Sub-layer names extend the source
    name so they stay unique in a model.
    """
    stages = chain_stages(layer, method, ranks, plan)
    names = [f"{layer.name}.lrf{i}" for i in range(len(stages) + 2)]
    if method == "t3f":
        return [LayerDesc(name=names[0], kind="reshape",
                          shape=(layer.in_channels, 1)),
                *(LayerDesc(name=name, kind="tt_core", m=m, n=n,
                            rank_in=r_in, rank_out=r_out)
                  for name, (m, n, r_in, r_out) in zip(names[1:], stages)),
                LayerDesc(name=names[-1], kind="reshape",
                          shape=(layer.out_channels,))]
    return [LayerDesc(name=name, kind=kind,
                      kernel=_on_axis(layer.kernel, axis),
                      stride=_on_axis(layer.stride, axis),
                      padding=None if axis is None else layer.padding,
                      in_channels=c_in, out_channels=c_out)
            for name, (kind, axis, c_in, c_out) in zip(names, stages)]


def _attach(layer: LayerDesc, method: str, ranks: tuple, factors: list,
            plan: tuple = None) -> FactorizedLayer:
    """``chain_descs`` with ``factors``, in chain order, as its weights.

    Factor ``i`` becomes the weight of the ``i``-th weighted sub-layer,
    reshaped to that sub-layer's ``weight_shape()``.
    """
    subs = chain_descs(layer, method, ranks, plan)
    weighted = [l for l in subs if l.weight_shape() is not None]
    weights = {l.name: f.reshape(l.weight_shape())
               for l, f in zip(weighted, factors, strict=True)}
    return FactorizedLayer(layer.name, method, tuple(ranks), subs, weights,
                           plan=plan)


# -- convolution decomposers -------------------------------------------------


def _full(factorize, mat: np.ndarray, memo: dict, key: tuple):
    """``factorize(mat)``, the full ``linalg.svd``, ``linalg.qr_pivoted``
    or ``linalg.left_basis``, computed once per ``key`` of ``memo``.

    It is stored read-only, so that no caller can write through a view
    of it into the factors of a later decomposition.
    """
    full = memo.get(key)
    if full is None:
        full = factorize(mat)
        for part in (full,) if isinstance(full, np.ndarray) else full:
            part.flags.writeable = False
        memo[key] = full
    return full


def _leading(part: np.ndarray, rank: int) -> np.ndarray:
    """The leading ``rank`` columns of one part of a factorization, or
    the leading ``rank`` entries of a 1-D S.

    Within the part's width these are views, so truncating a kept full
    factorization gives the same bytes as truncating a fresh one.  A
    rank past the width is met by zero columns, which add nothing to
    any product of the factors, so every rank of the rank box is
    constructible.
    """
    width = part.shape[-1]
    if rank <= width:
        return part[..., :rank]
    return np.pad(part, ((0, 0),) * (part.ndim - 1) + ((0, rank - width),))


def _tucker2(w: np.ndarray, ranks: tuple, memo: dict):
    """Tucker restricted to the channel and filter modes.

    Initializes factors from the leading left singular vectors of the
    two unfoldings, then refines them by alternating orthogonal
    iteration (HOOI) until the fit stops improving.  Every basis comes
    from ``linalg.left_basis``, which needs no V: on the usual wide
    unfoldings it diagonalizes the small channel or filter Gram
    instead of running an SVD.  A rank above what the other rank times
    the kernel size can feed gets zero factor columns.  Only the two
    initial bases go through ``memo``: the iteration's depend on the
    ranks.
    """
    r1, r2 = ranks
    c_mode, f_mode = w.ndim - 2, w.ndim - 1  # C and F of (K.., C, F)
    norm_w = np.linalg.norm(w)

    a_c, a_f = (_leading(_full(linalg.left_basis, linalg.unfold(w, mode),
                               memo, ("tucker2", mode)), rank)
                for mode, rank in ((c_mode, r1), (f_mode, r2)))
    last_fit = -np.inf
    core = None
    for _ in range(TUCKER_MAX_ITER):
        partial = linalg.mode_n_product(w, a_f.T, f_mode)
        a_c = _leading(linalg.left_basis(linalg.unfold(partial, c_mode)), r1)
        partial = linalg.mode_n_product(w, a_c.T, c_mode)
        a_f = _leading(linalg.left_basis(linalg.unfold(partial, f_mode)), r2)
        core = linalg.mode_n_product(partial, a_f.T, f_mode)
        # Orthonormal factors: residual^2 = |W|^2 - |core|^2.
        gap = max(norm_w**2 - np.linalg.norm(core)**2, 0.0)
        fit = 1.0 - math.sqrt(gap) / norm_w if norm_w else 1.0
        if fit - last_fit < TUCKER_FIT_TOL:
            break
        last_fit = fit

    return [a_c, core, a_f.T]


class _DivergenceGuard:
    """Abort an iterative fit after sustained regression.

    Tracks the best fit seen; raises DecompositionError once the fit
    drops by more than ``drop_tol`` ``patience`` times in a row,
    carrying whatever payload produced the best fit.  Drops smaller
    than ``drop_tol`` count as a plateau, not a regression.
    """

    def __init__(self, patience: int = CP_DIVERGENCE_PATIENCE,
                 drop_tol: float = CP_DROP_TOL):
        self.patience = patience
        self.drop_tol = drop_tol
        self.best_fit = -np.inf
        self.best_payload = None
        self.prev_fit = -np.inf
        self.streak = 0

    def update(self, fit: float, payload):
        if fit > self.best_fit:
            self.best_fit = fit
            self.best_payload = payload
        if fit < self.prev_fit - self.drop_tol:
            self.streak += 1
            if self.streak >= self.patience:
                raise DecompositionError(
                    f"fit decreased {self.streak} iterations in a row",
                    best=self.best_payload)
        else:
            self.streak = 0
        self.prev_fit = fit


def _cp_init(tensor: np.ndarray, rank: int, rng: np.random.Generator,
             memo: dict):
    """Leading singular vectors per mode, random columns past them."""
    factors = []
    for mode in range(tensor.ndim):
        size = tensor.shape[mode]
        u, _, _ = _full(linalg.svd, linalg.unfold(tensor, mode), memo,
                        ("cp", mode))
        keep = min(rank, u.shape[1])
        f = np.empty((size, rank))
        f[:, :keep] = u[:, :keep]
        if keep < rank:
            f[:, keep:] = rng.standard_normal((size, rank - keep))
        factors.append(f)
    return factors


def _cp_init_exact(tensor: np.ndarray, rank: int):
    """Exact CP at the maximal admissible rank prod(dims)/max(dims).

    Every mode but the largest gets indicator columns; the largest
    mode absorbs the tensor values.  Reconstruction is exact, so the
    alternating refinement converges immediately.
    """
    shape = tensor.shape
    big = int(np.argmax(shape))
    rest = [i for i in range(tensor.ndim) if i != big]
    factors = [None] * tensor.ndim
    grid = np.unravel_index(np.arange(rank), [shape[i] for i in rest])
    for pos, mode in enumerate(rest):
        f = np.zeros((shape[mode], rank))
        f[grid[pos], np.arange(rank)] = 1.0
        factors[mode] = f
    factors[big] = linalg.unfold(tensor, big)[:, :]
    # Column order of the unfolding matches the row-major rest-grid.
    return factors


def _mode_last(tensor: np.ndarray) -> list:
    """For each mode ``j``, ``tensor`` as a matrix with mode ``j`` last.

    Row ``s`` of matrix ``j`` runs over the other modes in row-major
    order, so ``_mode_last(t)[j] @ factor`` contracts mode ``j`` away
    and leaves the others in their order.
    """
    return [np.moveaxis(tensor, j, -1).reshape(-1, n)
            for j, n in enumerate(tensor.shape)]


def _contracted_mode(shape: tuple, mode: int) -> int:
    """The mode whose gemm starts ``mode``'s MTTKRP: the largest other
    mode, the first of equals."""
    others = [i for i in range(len(shape)) if i != mode]
    return max(others, key=lambda i: shape[i])


def _mttkrp(part: np.ndarray, factors: list, mode: int,
            big: int) -> np.ndarray:
    """``unfold(w, mode) @ khatri_rao(other factors)``, without that product.

    For a tensor ``w`` of three or more modes, ``big`` is
    ``_contracted_mode(w.shape, mode)`` and ``part`` is
    ``_mode_last(w)[big] @ factors[big]``, the one gemm of the MTTKRP,
    which the caller shares among the modes that contract the same,
    unchanged factor.  The ``khatri_rao`` of the remaining, small
    factors then meets it in one einsum.
    """
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    part = part.reshape(shape[:big] + shape[big + 1:] + (rank,))
    part = np.moveaxis(part, mode if mode < big else mode - 1, 0)
    small = [factors[i] for i in range(len(shape)) if i not in (mode, big)]
    kr = small[0]
    for f in small[1:]:
        kr = khatri_rao(kr, f)
    return np.einsum("isr,sr->ir",
                     part.reshape(shape[mode], len(kr), rank), kr)


def _solve_gram(mttkrp: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``mttkrp @ inv(gram)``: the ALS update of one factor.

    The Hadamard product of Grams is symmetric positive semidefinite,
    so a Cholesky solve does it: LAPACK ``potrf`` and ``potrs``, called
    directly, are the routines ``cho_factor`` and ``cho_solve`` run,
    without those wrappers' per-call checks.  On a singular Gram (a
    zero factor column, say) ``potrf`` reports a non-positive pivot;
    then the pseudo-inverse gives the least-norm update.
    """
    chol, info = dpotrf(gram, clean=False)
    if info > 0:
        return mttkrp @ np.linalg.pinv(gram)
    return dpotrs(chol, mttkrp.T)[0].T


def _cp_chain(factors) -> list:
    """CP factors, which run (K1..Kd, C, F), in chain order C, K1..Kd, F."""
    *spatial, a_c, a_f = factors
    return [a_c, *spatial, a_f.T]


def _cp(layer: LayerDesc, w: np.ndarray, ranks: tuple, seed: int,
        memo: dict):
    """CP decomposition of the conv tensor by alternating least squares.

    One shared rank ties together one factor per tensor mode (spatial
    axes, input channels, output channels).  Keeps the factors with the
    best fit; stops when the fit change drops below tolerance or the
    best fit stops improving; raises DecompositionError, with the best
    sweep's factors in chain order, after five consecutive meaningful
    fit regressions.

    Each update solves the normal equations of one factor: the MTTKRP
    of ``_mttkrp`` against the Hadamard product of the other factors'
    Grams, by ``_solve_gram``.  A factor's Gram is computed once, when
    the factor is updated, and serves the later updates and the fit.
    Likewise the gemm that contracts a factor is kept, keyed by its
    mode, until that factor is updated, also from one sweep into the
    next, so a sweep runs two gemms where it would run one per mode:
    when the filter mode is the largest, every other mode contracts it;
    otherwise the channel contraction made for the filter's update
    serves the next sweep's kernel modes.  Every update assigns a new
    array, so the best sweep's factors are kept without copying them.
    """
    (rank,) = ranks
    norm_w = np.linalg.norm(w)
    rng = np.random.default_rng(seed)

    if rank == cp_max_rank(layer):
        factors = _cp_init_exact(w, rank)
    else:
        factors = _cp_init(w, rank, rng, memo)

    n_modes = w.ndim
    mode_last = _mode_last(w)
    bigs = [_contracted_mode(w.shape, mode) for mode in range(n_modes)]
    grams = [f.T @ f for f in factors]
    guard = _DivergenceGuard()
    last_fit = -np.inf
    stalled = 0
    parts = {}
    for _ in range(CP_MAX_ITER):
        inner = None
        for mode, big in enumerate(bigs):
            if big not in parts:
                parts[big] = mode_last[big] @ factors[big]
            mttkrp = _mttkrp(parts[big], factors, mode, big)
            gram = np.ones((rank, rank))
            for i in range(n_modes):
                if i != mode:
                    gram *= grams[i]
            factors[mode] = _solve_gram(mttkrp, gram)
            if mode != n_modes - 1:
                norms = np.linalg.norm(factors[mode], axis=0)
                norms[norms == 0] = 1.0
                factors[mode] /= norms
            else:
                inner = float(np.sum(factors[mode] * mttkrp))
            grams[mode] = factors[mode].T @ factors[mode]
            parts.pop(mode, None)
        gram = np.ones((rank, rank))
        for g in grams:
            gram *= g
        res_sq = max(norm_w**2 - 2.0 * inner + float(np.sum(gram)), 0.0)
        fit = 1.0 - math.sqrt(res_sq) / norm_w if norm_w else 1.0
        prev_best = guard.best_fit
        try:
            guard.update(fit, tuple(factors))
        except DecompositionError as exc:
            exc.best = _cp_chain(exc.best)
            raise
        stalled = 0 if guard.best_fit - prev_best >= CP_FIT_TOL else stalled + 1
        if abs(fit - last_fit) < CP_FIT_TOL or stalled >= CP_STALL_PATIENCE:
            break
        last_fit = fit
    return _cp_chain(guard.best_payload)


def _tt_svd(tensor: np.ndarray, ranks: tuple, memo: dict, key: tuple):
    """Sequential-SVD tensor train with prescribed internal ranks.

    Step ``i`` keeps the leading left singular vectors U_r of the
    running unfolding as its core and passes on the remainder
    ``U_r.T @ mat``, which equals S_r V_r' of the truncated SVD, so
    the step needs only ``linalg.left_basis``: the small Gram of a
    wide unfolding, no full SVD.  A requested rank above what the
    running unfolding can supply gets zero core slices (see
    ``_leading``), so any rank vector inside the per-link box bounds
    min(prod(left), prod(right)) is constructible without changing the
    reconstruction.  Step ``i`` unfolds what the first ``i`` ranks
    left over, so its basis goes into ``memo`` under ``key`` plus
    ``ranks[:i]``.
    """
    shape = tensor.shape
    full = (1,) + tuple(ranks) + (1,)
    cores = []
    rest = tensor.reshape(shape[0], -1)
    for i in range(len(shape) - 1):
        mat = rest.reshape(full[i] * shape[i], -1)
        u = _leading(_full(linalg.left_basis, mat, memo,
                           key + (full[1:i + 1],)), full[i + 1])
        cores.append(u.reshape(full[i], shape[i], full[i + 1]))
        rest = u.T @ mat
    cores.append(rest.reshape(full[-2], shape[-1], 1))
    return cores


def _tt(w: np.ndarray, ranks: tuple, memo: dict):
    """Tensor train of the conv tensor in (C, K1..Kd, F) mode order."""
    tensor = np.moveaxis(w, -2, 0)  # (K1..Kd, C, F) -> (C, K1..Kd, F)
    first, *spatial, last = _tt_svd(tensor, ranks, memo, ("tt", None))
    # a spatial core (r_axis, K_axis, r_axis+1) puts its kernel axis first
    return [first, *(np.moveaxis(core, 1, 0) for core in spatial), last]


# -- dense-layer decomposers --------------------------------------------------


def _svd(w: np.ndarray, ranks: tuple, memo: dict):
    """Truncated SVD split symmetrically: A = U sqrt(S), B = sqrt(S) V'.

    Only the short side's singular vectors are factorized, by
    ``linalg.left_basis`` of ``w`` when it is wide and of ``w.T`` when
    it is tall, so the Gram is the small one.  Projecting that side
    onto its basis, ``p = basis.T @ side``, gives the other side's
    vectors scaled by S, and each row norm of ``p`` is its singular
    value.  A zero singular value gives zero factor columns and rows.
    """
    (rank,) = ranks
    side = w.T if w.shape[0] >= w.shape[1] else w
    basis = _leading(_full(linalg.left_basis, side, memo, ("svd",)), rank)
    p = basis.T @ side
    root = np.sqrt(np.linalg.norm(p, axis=1))
    # sqrt(S) times the singular vectors of each side: the basis's as
    # columns, the other side's (p / S) as rows
    short = basis * root
    long = np.divide(p, root[:, None], out=np.zeros_like(p),
                     where=root[:, None] > 0)
    return [short, long] if side is w else [long.T, short.T]


def _qr(w: np.ndarray, ranks: tuple, memo: dict):
    """Column-pivoted QR keeping the leading pivots."""
    (rank,) = ranks
    q, r = _full(linalg.qr_pivoted, w, memo, ("qr",))
    return [q[:, :rank], r[:rank]]


def _t3f(w: np.ndarray, ranks: tuple, plan: tuple, memo: dict):
    """TT-matrix factorization of a dense weight over a shape plan.

    The (M, N) weight reshapes to (m1..md, n1..nd), interleaves to
    (m1 n1, .., md nd), and tensor-trains over those paired modes; the
    cores then reshape to (r_in, m_t, n_t, r_out).
    """
    ms, ns = plan
    d = len(ms)
    perm = [axis for t in range(d) for axis in (t, d + t)]
    tensor = w.reshape(ms + ns).transpose(perm).reshape(
        [ms[t] * ns[t] for t in range(d)])
    return _tt_svd(tensor, ranks, memo, ("t3f", plan))


def decompose_layer(layer: LayerDesc, weight: np.ndarray, method: str,
                    ranks: tuple, plan: tuple = None, seed: int = 0,
                    memo: dict = None) -> FactorizedLayer:
    """Factorize one layer's weight with the named method.

    RankError unless ``ranks`` (with ``plan``, for t3f alone) are a
    point of the rank box of ``costs.rank_bounds``.  ``memo``, a dict
    that belongs to this one weight, keeps its full factorizations for
    later calls at other ranks (see the module docstring).  A
    DecompositionError carries the best factorization found as ``best``.
    """
    if tuple(weight.shape) != layer.weight_shape():
        raise ShapeError(
            f"{layer.name}: weight {weight.shape} != {layer.weight_shape()}")
    ranks = check_ranks(layer, method, ranks, plan)
    w = np.asarray(weight, dtype=np.float64)
    if method == "t3f":
        plan = (tuple(plan[0]), tuple(plan[1]))
    memo = {} if memo is None else memo
    try:
        if method == "tucker2":
            factors = _tucker2(w, ranks, memo)
        elif method == "cp":
            factors = _cp(layer, w, ranks, seed, memo)
        elif method == "tt":
            factors = _tt(w, ranks, memo)
        elif method == "svd":
            factors = _svd(w, ranks, memo)
        elif method == "qr":
            factors = _qr(w, ranks, memo)
        else:
            factors = _t3f(w, ranks, plan, memo)
    except DecompositionError as exc:
        exc.best = _attach(layer, method, ranks, exc.best, plan)
        raise
    return _attach(layer, method, ranks, factors, plan)
