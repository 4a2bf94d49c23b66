import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, khatri_rao

from lowrank.costs import (CONV_METHODS, METHODS, cost_chain, cost_factorized,
                           rank_bounds, t3f_plans)
from lowrank.decompose import (CP_DIVERGENCE_PATIENCE, CP_DROP_TOL,
                               CP_FIT_TOL, CP_STALL_PATIENCE, TUCKER_FIT_TOL,
                               TUCKER_MAX_ITER, FactorizedLayer,
                               _DivergenceGuard, _contracted_mode,
                               _mode_last, _mttkrp, _solve_gram,
                               chain_descs, decompose_layer)
from lowrank import decompose, linalg
from lowrank.errors import DecompositionError, RankError
from lowrank.explore import min_ranks
from lowrank.ir import LayerDesc
from lowrank.linalg import relative_error, svd
from lowrank.similarity import forward_factorized, forward_layer
from lowrank.ir import WeightStore

rng = np.random.default_rng(11)

CONV = LayerDesc(name="c", kind="conv2d", kernel=(3, 3), in_channels=8,
                 out_channels=12)
FC = LayerDesc(name="f", kind="fc", in_channels=18, out_channels=15)


def conv_weight():
    return rng.standard_normal((3, 3, 8, 12)).astype(np.float64)


def fc_weight():
    return rng.standard_normal((18, 15)).astype(np.float64)


FULL_RANK = {
    "tucker2": (CONV, conv_weight, (8, 12)),
    "cp": (CONV, conv_weight, (72,)),
    "tt": (CONV, conv_weight, (8, 24, 12)),
    "svd": (FC, fc_weight, (15,)),
    "qr": (FC, fc_weight, (15,)),
    "t3f": (FC, fc_weight, (9,)),
}


T3F_PLAN = ((3, 6), (3, 5))


def factorize(method, layer, weight, ranks, seed=0):
    plan = T3F_PLAN if method == "t3f" else None
    return decompose_layer(layer, weight, method, ranks, plan=plan, seed=seed)


def check_point(layer, weight, method, ranks, plan=None):
    """The chain of one rank point holds one weight record per weighted
    sub-layer, shaped as its ``weight_shape()``, costs what
    ``cost_factorized`` says and computes what its dense reconstruction
    computes."""
    fact = decompose_layer(layer, weight, method, ranks, plan=plan)
    assert {name: w.shape for name, w in fact.weights.items()} == \
        {l.name: l.weight_shape() for l in fact.sub_layers
         if l.weight_shape() is not None}
    if layer.kind == "fc":
        shape = (layer.in_channels,)
    else:
        shape = tuple(k + 2 for k in layer.kernel) + (layer.in_channels,)
    assert cost_chain(fact.sub_layers, shape) == \
        cost_factorized(layer, method, ranks, shape, plan=plan)
    x = rng.standard_normal((2,) + shape).astype(np.float32)
    dense = forward_layer(
        layer, WeightStore({layer.name: fact.reconstruct()
                            .astype(np.float32)}), [x])
    chained = forward_factorized(fact, [x])
    scale = max(float(np.abs(dense).max()), 1e-12)
    assert float(np.abs(dense - chained).max()) / scale <= 1e-4, ranks


class TestFullRankExactness:
    @pytest.mark.parametrize("method", sorted(FULL_RANK))
    def test_reconstruction(self, method):
        layer, make, ranks = FULL_RANK[method]
        weight = make()
        fact = factorize(method, layer, weight, ranks)
        assert relative_error(fact.reconstruct(), weight) <= 1e-5

    @pytest.mark.parametrize("method", sorted(FULL_RANK))
    def test_forward_equivalence(self, method):
        # the factorized chain must behave like the dense reconstruction
        layer, make, ranks = FULL_RANK[method]
        check_point(layer, make(), method, ranks,
                    T3F_PLAN if method == "t3f" else None)


class TestSvdTruncation:
    def test_matches_best_rank_k(self):
        weight = fc_weight()
        _, s, _ = svd(weight)
        for k in (1, 4, 9):
            fact = decompose_layer(FC, weight, "svd", (k,))
            best = np.sqrt(np.sum(s[k:] ** 2))
            got = np.linalg.norm(weight - fact.reconstruct())
            assert got == pytest.approx(best, abs=1e-4 * max(best, 1.0))

    def test_factor_shapes(self):
        fact = decompose_layer(FC, fc_weight(), "svd", (5,))
        a, b = (fact.weights[d.name] for d in fact.sub_layers)
        assert a.shape == (18, 5) and b.shape == (5, 15)


class TestQr:
    def test_full_rank_exact(self):
        weight = fc_weight()
        fact = decompose_layer(FC, weight, "qr", (15,))
        assert relative_error(fact.reconstruct(), weight) < 1e-10

    def test_truncation_error_monotone(self):
        weight = fc_weight()
        errs = [relative_error(
                    decompose_layer(FC, weight, "qr", (k,)).reconstruct(),
                    weight) for k in (2, 6, 10, 15)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


class TestCp:
    def test_recovers_synthetic_rank2(self):
        # exact rank-2 tensor built from outer products
        shape_factors = [(3, 2), (3, 2), (4, 2), (5, 2)]
        gen = np.random.default_rng(5)
        factors = [gen.standard_normal(s) for s in shape_factors]
        weight = np.einsum("ir,jr,kr,lr->ijkl", *factors)
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=4, out_channels=5)
        fact = decompose_layer(layer, weight, "cp", (2,), seed=0)
        fit = 1.0 - relative_error(fact.reconstruct(), weight)
        assert fit >= 0.999

    def test_max_rank_exact(self):
        weight = conv_weight()
        fact = decompose_layer(CONV, weight, "cp", (72,), seed=0)
        assert relative_error(fact.reconstruct(), weight) <= 1e-5

    def test_overranked_float32_converges(self):
        # rank far above the true rank: the fit plateaus at the float32
        # noise floor and oscillates there; must not abort as divergence
        gen = np.random.default_rng(5)
        factors = [gen.standard_normal((s, 2)) for s in (3, 3, 8, 12)]
        weight = np.einsum("ir,jr,kr,lr->ijkl", *factors).astype(np.float32)
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=8, out_channels=12)
        fact = decompose_layer(layer, weight, "cp", (9,), seed=0)
        assert relative_error(fact.reconstruct(), weight) <= 1e-3

    def test_zero_weight_stays_zero(self):
        # the first update zeroes a factor, so every later Gram is
        # singular and takes the pinv fallback
        fact = decompose_layer(CONV, np.zeros((3, 3, 8, 12)), "cp", (5,),
                               seed=0)
        assert all(np.isfinite(a).all() for a in fact.weights.values())
        assert not fact.reconstruct().any()

    def test_overranked_rank1_is_exact(self):
        gen = np.random.default_rng(6)
        vecs = [gen.standard_normal(n) for n in (3, 3, 8, 12)]
        weight = np.einsum("i,j,k,l->ijkl", *vecs)
        for rank in (2, 6):
            fact = decompose_layer(CONV, weight, "cp", (rank,), seed=0)
            assert all(np.isfinite(a).all() for a in fact.weights.values())
            assert relative_error(fact.reconstruct(), weight) <= 1e-8

    def test_returns_the_best_sweeps_factors(self, monkeypatch):
        # the guard keeps the best sweep's factors without copying them,
        # so no later sweep may write into them
        sweeps = []
        update = _DivergenceGuard.update

        def recorded(self, fit, payload):
            sweeps.append((fit, [f.copy() for f in payload]))
            return update(self, fit, payload)

        monkeypatch.setattr(_DivergenceGuard, "update", recorded)
        # an over-ranked float32 fit reaches its best before its last sweep
        gen = np.random.default_rng(5)
        parts = [gen.standard_normal((s, 2)) for s in (3, 3, 8, 12)]
        weight = np.einsum("ir,jr,kr,lr->ijkl", *parts).astype(np.float32)
        fact = decompose_layer(CONV, weight, "cp", (9,), seed=0)
        best = max(range(len(sweeps)), key=lambda i: sweeps[i][0])
        assert best < len(sweeps) - 1
        factors = sweeps[best][1]
        names = [d.name for d in fact.sub_layers]
        want = [factors[2]] + factors[:2] + [factors[3].T]
        for name, arr in zip(names, want):
            assert fact.weights[name].tobytes() == \
                np.ascontiguousarray(arr).tobytes(), name

    def test_divergence_carries_the_best_factorization(self, monkeypatch):
        payloads = []
        update = _DivergenceGuard.update

        def falling(self, fit, payload):
            # every sweep after the first reports a fit drop of 1
            payloads.append(payload)
            return update(self, -float(len(payloads)), payload)

        monkeypatch.setattr(_DivergenceGuard, "update", falling)
        weight = conv_weight()
        with pytest.raises(DecompositionError) as err:
            decompose_layer(CONV, weight, "cp", (5,), seed=0)
        assert len(payloads) == 1 + CP_DIVERGENCE_PATIENCE
        best = err.value.best
        assert isinstance(best, FactorizedLayer) and best.method == "cp"
        assert best.reconstruct().shape == weight.shape
        first = payloads[0]  # (K1, K2, C, F), the best fit
        want = [first[2], first[0], first[1], first[3].T]
        for sub, arr in zip(best.sub_layers, want):
            assert best.weights[sub.name].tobytes() == \
                np.ascontiguousarray(arr).tobytes(), sub.name


def _decaying(gen, n, decay):
    u, _ = np.linalg.qr(gen.standard_normal((n, n)))
    v, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return (u * decay ** np.arange(n)) @ v.T


def decaying_conv(scale=8):
    """The 3x3x(64/scale)x(128/scale) float32 conv with decaying channel
    and filter spectra that the ``decompose`` benchmark builds at seed 0."""
    gen = np.random.default_rng([0, 3])
    c, f = 64 // scale, 128 // scale
    core = gen.standard_normal((3, 3, c, f))
    weight = np.einsum("xycf,ic,jf->xyij", core, _decaying(gen, c, 0.95),
                       _decaying(gen, f, 0.97), optimize=True)
    return np.asarray(weight / np.linalg.norm(weight), dtype=np.float32)


# rank -> (ALS sweeps, relative error) of cp on decaying_conv().
# They were recorded with an ALS that built the full Khatri-Rao product
# and solved with pinv: a faster MTTKRP or Gram solve may move the error
# by rounding, but a changed stop rule or update moves it further.
CP_PINS = {
    1: (18, 0.9765697058494845),
    3: (500, 0.9102189409380357),
    4: (419, 0.881211489534243),
    6: (238, 0.8292909140274056),
}


class TestCpAls:
    @staticmethod
    def _reference(w, factors, mode):
        others = [f for i, f in enumerate(factors) if i != mode]
        kr = others[0]
        for f in others[1:]:
            kr = khatri_rao(kr, f)
        return linalg.unfold(w, mode) @ kr

    @pytest.mark.parametrize("shape", [(3, 5, 4), (3, 3, 8, 12),
                                       (2, 3, 2, 4, 5), (7, 1, 3, 4),
                                       (5, 2, 6, 3, 4)])
    def test_mttkrp_matches_the_khatri_rao_product(self, shape):
        gen = np.random.default_rng(len(shape))
        w = gen.standard_normal(shape)
        factors = [gen.standard_normal((n, 4)) for n in shape]
        mode_last = _mode_last(w)
        for mode in range(len(shape)):
            want = self._reference(w, factors, mode)
            big = _contracted_mode(shape, mode)
            got = _mttkrp(mode_last[big] @ factors[big], factors, mode, big)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kernel,c,f,gemms", [
        ((3,), 6, 10, 2),
        ((3, 3), 8, 12, 2),
        # the shared mode is C, contracted again after C's update; that
        # gemm serves the next sweep's kernel modes
        ((3, 3), 12, 8, 2),
        ((3, 3), 8, 8, 2),  # a tie contracts the first of equals, C
        ((3, 3, 3), 4, 6, 2),
        ((1, 3), 6, 10, 2),
    ], ids=["conv1d", "F>C", "C>F", "C=F", "conv3d", "1x3"])
    def test_shared_contraction_changes_no_byte(self, kernel, c, f, gemms,
                                                monkeypatch):
        layer = LayerDesc(name="c", kind=f"conv{len(kernel)}d",
                          kernel=kernel, in_channels=c, out_channels=f)
        weight = np.random.default_rng(7).standard_normal(kernel + (c, f))
        parts = []
        mttkrp = decompose._mttkrp

        def shared(part, factors, mode, big):
            parts.append(part)
            return mttkrp(part, factors, mode, big)

        monkeypatch.setattr(decompose, "_mttkrp", shared)
        got = decompose_layer(layer, weight, "cp", (5,), seed=0)
        # gemms first used in each sweep after the first ("parts" keeps
        # every gemm alive, so no id is reused)
        n_modes = weight.ndim
        seen, new = set(), []
        for i in range(0, len(parts), n_modes):
            ids = {id(p) for p in parts[i:i + n_modes]}
            new.append(len(ids - seen))
            seen |= ids
        assert len(new) > 2 and set(new[1:]) == {gemms}

        # the reference runs a fresh gemm for every mode of every sweep
        kept = []
        mode_last = decompose._mode_last

        def keep(w):
            kept.append(mode_last(w))
            return kept[-1]

        def fresh(part, factors, mode, big):
            return mttkrp(kept[-1][big] @ factors[big], factors, mode, big)

        monkeypatch.setattr(decompose, "_mode_last", keep)
        monkeypatch.setattr(decompose, "_mttkrp", fresh)
        want = decompose_layer(layer, weight, "cp", (5,), seed=0)
        for name, arr in want.weights.items():
            assert got.weights[name].tobytes() == arr.tobytes(), name

    def test_gram_solve_is_cho_solve(self):
        gen = np.random.default_rng(3)
        a, b = gen.standard_normal((9, 5)), gen.standard_normal((7, 5))
        gram = (a.T @ a) * (b.T @ b)
        mttkrp = gen.standard_normal((6, 5))
        want = cho_solve(cho_factor(gram, check_finite=False), mttkrp.T,
                         check_finite=False).T
        assert _solve_gram(mttkrp, gram).tobytes() == want.tobytes()

    def test_gram_solve_matches_pinv(self):
        gen = np.random.default_rng(3)
        a, b = gen.standard_normal((9, 5)), gen.standard_normal((7, 5))
        gram = (a.T @ a) * (b.T @ b)
        mttkrp = gen.standard_normal((6, 5))
        want = mttkrp @ np.linalg.pinv(gram)
        assert np.allclose(_solve_gram(mttkrp, gram), want,
                           rtol=1e-10, atol=0)

    def test_gram_solve_falls_back_on_a_singular_gram(self):
        gen = np.random.default_rng(4)
        a = gen.standard_normal((9, 5))
        a[:, [1, 3]] = 0.0  # zero factor columns
        gram = (a.T @ a) * 2.0
        mttkrp = gen.standard_normal((6, 5))
        got = _solve_gram(mttkrp, gram)
        assert np.isfinite(got).all()
        assert got.tobytes() == (mttkrp @ np.linalg.pinv(gram)).tobytes()

    @pytest.mark.parametrize("rank", sorted(CP_PINS))
    def test_sweeps_and_error_pinned(self, rank, monkeypatch):
        sweeps = [0]
        update = _DivergenceGuard.update

        def counted(self, fit, payload):
            sweeps[0] += 1
            return update(self, fit, payload)

        monkeypatch.setattr(_DivergenceGuard, "update", counted)
        layer = LayerDesc(name="conv", kind="conv2d", kernel=(3, 3),
                          in_channels=8, out_channels=16)
        weight = decaying_conv()
        fact = decompose_layer(layer, weight, "cp", (rank,))
        want_sweeps, want_err = CP_PINS[rank]
        assert sweeps[0] == want_sweeps
        assert relative_error(fact.reconstruct(), weight) == \
            pytest.approx(want_err, rel=0, abs=1e-9)


class TestTt:
    def test_residual_monotone_in_ranks(self):
        weight = conv_weight()
        errs = []
        for r in (1, 2, 4, 12):
            ranks = (min(r, 8), min(3 * r, 24), min(r, 12))
            fact = decompose_layer(CONV, weight, "tt", ranks)
            errs.append(relative_error(fact.reconstruct(), weight))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10

    def test_box_bounded_ranks_construct(self):
        # ranks above the sequential SVD bound still give a valid chain
        weight = conv_weight()
        fact = decompose_layer(CONV, weight, "tt", (8, 20, 11))
        assert fact.reconstruct().shape == weight.shape

    def test_chain_layout(self):
        fact = decompose_layer(CONV, conv_weight(), "tt", (2, 3, 4))
        kinds = [d.kind for d in fact.sub_layers]
        assert kinds == ["conv2d"] * 4
        kernels = [d.kernel for d in fact.sub_layers]
        assert kernels == [(1, 1), (3, 1), (1, 3), (1, 1)]


class TestTucker2:
    def test_hooi_beats_or_matches_hosvd_init(self):
        weight = conv_weight()
        fact = decompose_layer(CONV, weight, "tucker2", (3, 5))
        err = relative_error(fact.reconstruct(), weight)
        assert err < 1.0

    def test_core_shape(self):
        fact = decompose_layer(CONV, conv_weight(), "tucker2", (3, 5))
        core = fact.weights[fact.sub_layers[1].name]
        assert core.shape == (3, 3, 3, 5)


# ranks -> (HOOI sweeps, relative error) of tucker2 on the
# full-size decaying_conv(scale=1), at the benchmark's ladder shares 1/32,
# 1/16, 1/8 and 1/4 of the (64, 128) rank bounds.  They were recorded
# when every basis came from a full SVD: the Gram eigensolver may move
# the error by rounding, but a changed stop rule or update moves it
# further, or changes the sweep count.
TUCKER2_PINS = {
    (2, 4): (17, 0.9458740539824086),
    (4, 8): (28, 0.8805204018301104),
    (8, 16): (8, 0.737567469098351),
    (16, 32): (5, 0.4938392418925935),
}


def _svd_hooi_error(weight, ranks):
    """Relative error of Tucker-2 HOOI with every basis taken from a
    full SVD, with ``decompose._tucker2``'s initialization and stop rule."""
    w = np.asarray(weight, dtype=np.float64)
    c_mode, f_mode = w.ndim - 2, w.ndim - 1

    def leading(mat, rank):
        u = np.linalg.svd(mat, full_matrices=False)[0][:, :rank]
        return np.pad(u, ((0, 0), (0, rank - u.shape[1])))

    r1, r2 = ranks
    a_c = leading(linalg.unfold(w, c_mode), r1)
    a_f = leading(linalg.unfold(w, f_mode), r2)
    norm_w = np.linalg.norm(w)
    last_fit = -np.inf
    for _ in range(TUCKER_MAX_ITER):
        partial = linalg.mode_n_product(w, a_f.T, f_mode)
        a_c = leading(linalg.unfold(partial, c_mode), r1)
        partial = linalg.mode_n_product(w, a_c.T, c_mode)
        a_f = leading(linalg.unfold(partial, f_mode), r2)
        core = linalg.mode_n_product(partial, a_f.T, f_mode)
        gap = max(norm_w**2 - np.linalg.norm(core)**2, 0.0)
        fit = 1.0 - np.sqrt(gap) / norm_w
        if fit - last_fit < TUCKER_FIT_TOL:
            break
        last_fit = fit
    approx = linalg.mode_n_product(
        linalg.mode_n_product(core, a_c, c_mode), a_f, f_mode)
    return relative_error(approx, w)


class TestTucker2Hooi:
    @pytest.mark.parametrize("ranks", sorted(TUCKER2_PINS))
    def test_sweeps_and_error_pinned(self, ranks, monkeypatch):
        products = [0]
        original = linalg.mode_n_product

        def counted(*args):
            products[0] += 1
            return original(*args)

        monkeypatch.setattr(linalg, "mode_n_product", counted)
        layer = LayerDesc(name="conv", kind="conv2d", kernel=(3, 3),
                          in_channels=64, out_channels=128)
        weight = decaying_conv(scale=1)
        fact = decompose_layer(layer, weight, "tucker2", ranks)
        want_sweeps, want_err = TUCKER2_PINS[ranks]
        assert products[0] == 3 * want_sweeps  # three products per sweep
        err = relative_error(fact.reconstruct(), weight)
        assert want_err * (1 - 1e-9) <= err <= want_err * (1 + 1e-12)


class TestT3f:
    def test_plan_shapes(self):
        weight = fc_weight()
        fact = decompose_layer(FC, weight, "t3f", (4,), plan=((3, 6), (3, 5)))
        shapes = [fact.weights[d.name].shape for d in fact.sub_layers
                  if d.kind == "tt_core"]
        assert shapes == [(1, 3, 3, 4), (4, 6, 5, 1)]

    def test_full_rank_exact(self):
        weight = fc_weight()
        fact = decompose_layer(FC, weight, "t3f", (9,), plan=((3, 6), (3, 5)))
        assert relative_error(fact.reconstruct(), weight) < 1e-10


class TestDivergenceGuard:
    """The CP-ALS stop rule, one ``update`` per sweep."""

    @staticmethod
    def rising(guard, fits):
        # each fit a new best, far from the last: no stop, no drop
        for fit in fits:
            assert guard.update(fit, fit) is False

    def test_raises_after_patience(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.5, 0.6])
        drop = 2 * CP_DROP_TOL
        for i in range(1, CP_DIVERGENCE_PATIENCE):
            assert guard.update(0.6 - i * drop, i) is False
        with pytest.raises(DecompositionError) as err:
            guard.update(0.6 - CP_DIVERGENCE_PATIENCE * drop, "last")
        assert err.value.best == 0.6

    def test_recovery_resets(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.5])
        drop = 2 * CP_DROP_TOL
        fit = 0.5
        for _ in range(CP_DIVERGENCE_PATIENCE - 1):
            fit -= drop
            assert guard.update(fit, fit) is False
        fit = 0.6  # a recovery resets the streak
        assert guard.update(fit, fit) is False
        for _ in range(CP_DIVERGENCE_PATIENCE - 1):
            fit -= drop
            assert guard.update(fit, fit) is False
        with pytest.raises(DecompositionError):
            guard.update(fit - drop, "e")

    def test_small_drops_are_a_plateau(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.5])
        fit = 0.5
        for _ in range(CP_DIVERGENCE_PATIENCE):
            fit -= CP_DROP_TOL / 2
            assert guard.update(fit, fit) is False

    def test_stops_once_the_fit_settles(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.1, 0.2, 0.3])
        assert guard.update(0.3 + CP_FIT_TOL / 2, "settled") is True
        assert guard.best_payload == "settled"

    def test_a_move_of_the_tolerance_does_not_settle(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.25])
        assert guard.update(0.25 + 2 * CP_FIT_TOL, "b") is False

    def test_stops_after_stalled_sweeps(self):
        # the fit swings by more than the tolerance, but the best fit
        # gains nothing for CP_STALL_PATIENCE sweeps in a row
        guard = _DivergenceGuard()
        self.rising(guard, [0.5])
        for i in range(CP_STALL_PATIENCE - 1):
            fit = 0.4 if i % 2 else 0.45
            assert guard.update(fit, i) is False
        assert guard.update(0.42, "last") is True
        assert guard.best_payload == 0.5

    def test_gains_below_the_tolerance_stall(self):
        # every other sweep sets a new best, by less than the tolerance
        guard = _DivergenceGuard()
        self.rising(guard, [0.5])
        for i in range(1, CP_STALL_PATIENCE):
            fit = 0.4 if i % 2 else 0.5 + i * CP_FIT_TOL / 4
            assert guard.update(fit, i) is False
        last = 0.5 + CP_STALL_PATIENCE * CP_FIT_TOL / 4
        assert guard.update(last, "last") is True
        assert guard.best_payload == "last"

    def test_a_gain_resets_the_stall_count(self):
        guard = _DivergenceGuard()
        self.rising(guard, [0.5])
        for i in range(CP_STALL_PATIENCE - 1):
            assert guard.update(0.4 if i % 2 else 0.45, i) is False
        assert guard.update(0.5 + 2 * CP_FIT_TOL, "gain") is False
        for i in range(CP_STALL_PATIENCE - 1):
            assert guard.update(0.4 if i % 2 else 0.45, i) is False
        assert guard.update(0.42, "last") is True
        assert guard.best_payload == "gain"


# ranks just outside a rank box, built from the box
OUT_OF_BOX = {
    "zero": lambda box: (0,) + tuple(hi for _, hi in box[1:]),
    "above": lambda box: tuple(lo for lo, _ in box[:-1]) + (box[-1][1] + 1,),
    "count": lambda box: tuple(lo for lo, _ in box) + (1,),
}


class TestDispatcher:
    @pytest.mark.parametrize("method", METHODS)
    def test_method_layer_kind_guard(self, method):
        own, other, make = ((CONV, FC, fc_weight) if method in CONV_METHODS
                            else (FC, CONV, conv_weight))
        plan = T3F_PLAN if method == "t3f" else None
        ranks = min_ranks(own, method, plan)
        with pytest.raises(RankError):
            cost_factorized(other, method, ranks, plan=plan)
        with pytest.raises(RankError):
            decompose_layer(other, make(), method, ranks, plan=plan)

    @pytest.mark.parametrize("case", sorted(OUT_OF_BOX))
    @pytest.mark.parametrize("method", METHODS)
    def test_rank_bounds_enforced(self, method, case):
        layer, make = ((CONV, conv_weight) if method in CONV_METHODS
                       else (FC, fc_weight))
        plan = T3F_PLAN if method == "t3f" else None
        ranks = OUT_OF_BOX[case](rank_bounds(layer, method, plan))
        with pytest.raises(RankError):
            cost_factorized(layer, method, ranks, plan=plan)
        with pytest.raises(RankError):
            decompose_layer(layer, make(), method, ranks, plan=plan)

    def test_t3f_plan_must_factor_the_layer(self):
        for plan in (None, ((2, 8), (3, 5)), ((3, 6), (15,))):
            with pytest.raises(RankError):
                cost_factorized(FC, "t3f", (2,), plan=plan)
            with pytest.raises(RankError):
                decompose_layer(FC, fc_weight(), "t3f", (2,), plan=plan)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "t3f"])
    def test_a_plan_is_for_t3f_alone(self, method):
        layer, make = ((CONV, conv_weight) if method in CONV_METHODS
                       else (FC, fc_weight))
        ranks = min_ranks(layer, method)
        with pytest.raises(RankError):
            cost_factorized(layer, method, ranks, plan=T3F_PLAN)
        with pytest.raises(RankError):
            decompose_layer(layer, make(), method, ranks, plan=T3F_PLAN)

    @pytest.mark.parametrize("bad", [
        2.7, 2.9, 2.0, "3", True, np.bool_(True), float("nan"), float("inf"),
        np.float64(2.0), None], ids=repr)
    @pytest.mark.parametrize("method", METHODS)
    def test_a_rank_must_be_an_integer(self, method, bad):
        # a float used to be truncated (2.7 built and costed rank 2), a
        # string or bool converted, NaN and inf to leak ValueError and
        # OverflowError
        layer, make = ((CONV, conv_weight) if method in CONV_METHODS
                       else (FC, fc_weight))
        plan = T3F_PLAN if method == "t3f" else None
        ranks = (bad,) + min_ranks(layer, method, plan)[1:]
        with pytest.raises(RankError, match="rank must be an integer"):
            cost_factorized(layer, method, ranks, plan=plan)
        with pytest.raises(RankError, match="rank must be an integer"):
            decompose_layer(layer, make(), method, ranks, plan=plan)

    @pytest.mark.parametrize("method", METHODS)
    def test_numpy_integer_ranks_are_accepted(self, method):
        layer, make = ((CONV, conv_weight) if method in CONV_METHODS
                       else (FC, fc_weight))
        plan = T3F_PLAN if method == "t3f" else None
        ranks = min_ranks(layer, method, plan)
        wide = tuple(np.int64(r) for r in ranks)
        assert (cost_factorized(layer, method, wide, plan=plan)
                == cost_factorized(layer, method, ranks, plan=plan))
        fact = decompose_layer(layer, make(), method, wide, plan=plan)
        assert fact.ranks == ranks
        assert all(type(r) is int for r in fact.ranks)

    def test_weight_shape_guard(self):
        from lowrank.errors import ShapeError
        with pytest.raises(ShapeError):
            decompose_layer(CONV, fc_weight(), "tucker2", (2, 2))

    def test_cost_takes_the_source_layer_input(self):
        # the chain cannot guess the shape entering a strided, valid conv
        layer = LayerDesc(name="s", kind="conv2d", kernel=(3, 3),
                          stride=(2, 2), padding="valid", in_channels=8,
                          out_channels=16)
        weight = rng.standard_normal(layer.weight_shape())
        fact = decompose_layer(layer, weight, "tucker2", (2, 3))
        shape = (7, 7, 8)
        assert cost_chain(fact.sub_layers, shape) == \
            cost_factorized(layer, "tucker2", (2, 3), shape)

    def test_chain_names_are_derived(self):
        fact = decompose_layer(CONV, conv_weight(), "tucker2", (2, 3))
        names = [d.name for d in fact.sub_layers]
        assert names == ["c.lrf0", "c.lrf1", "c.lrf2"]


TINY_CONV = LayerDesc(name="t", kind="conv2d", kernel=(1, 2), in_channels=3,
                      out_channels=5)
TINY_FC = LayerDesc(name="u", kind="fc", in_channels=8, out_channels=12)


class TestWholeBox:
    """Every point of every rank box decomposes; its chain costs what
    ``cost_factorized`` says and computes what ``reconstruct`` gives."""

    @pytest.mark.parametrize("method", METHODS)
    def test_every_point_of_a_tiny_box(self, method):
        layer = TINY_CONV if method in CONV_METHODS else TINY_FC
        weight = rng.standard_normal(layer.weight_shape())
        points = 0
        for plan in t3f_plans(layer) if method == "t3f" else [None]:
            box = rank_bounds(layer, method, plan)
            for ranks in itertools.product(
                    *(range(lo, hi + 1) for lo, hi in box)):
                check_point(layer, weight, method, ranks, plan)
                points += 1
        assert points > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_tucker2_no_worse_than_full_svd_hooi(self, seed):
        weight = np.random.default_rng(seed).standard_normal(
            TINY_CONV.weight_shape())
        box = rank_bounds(TINY_CONV, "tucker2")
        for ranks in itertools.product(
                *(range(lo, hi + 1) for lo, hi in box)):
            fact = decompose_layer(TINY_CONV, weight, "tucker2", ranks)
            err = relative_error(fact.reconstruct(), weight)
            assert err <= _svd_hooi_error(weight, ranks) + 1e-12, ranks

    def test_tucker2_ranks_beyond_the_other_times_the_kernel(self):
        # r1 > r2 * prod(kernel) and r2 > r1 * prod(kernel): the core's
        # unfoldings cannot hold them, so factor columns are zero-padded
        layer = LayerDesc(name="p", kind="conv2d", kernel=(1, 1),
                          in_channels=9, out_channels=7)
        weight = rng.standard_normal(layer.weight_shape())
        for ranks in ((9, 1), (1, 7), (9, 4), (3, 7)):
            check_point(layer, weight, "tucker2", ranks)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_points_of_random_boxes(self, data):
        method = data.draw(st.sampled_from(METHODS))
        if method in CONV_METHODS:
            dim = data.draw(st.integers(1, 3))
            layer = LayerDesc(
                name="c", kind=f"conv{dim}d",
                kernel=tuple(data.draw(st.integers(1, 3)) for _ in range(dim)),
                in_channels=data.draw(st.integers(1, 6)),
                out_channels=data.draw(st.integers(1, 6)),
                stride=tuple(data.draw(st.integers(1, 2)) for _ in range(dim)),
                padding=data.draw(st.sampled_from(["same", "valid"])))
            plan = None
        else:
            layer = LayerDesc(name="f", kind="fc",
                              in_channels=data.draw(st.integers(1, 24)),
                              out_channels=data.draw(st.integers(1, 24)))
            plan = None
            if method == "t3f":
                plans = t3f_plans(layer)
                if not plans:
                    return
                plan = data.draw(st.sampled_from(plans))
        ranks = tuple(data.draw(st.integers(lo, hi))
                      for lo, hi in rank_bounds(layer, method, plan))
        weight = rng.standard_normal(layer.weight_shape())
        check_point(layer, weight, method, ranks, plan)


# one layer per kind, and the t3f plan of the fc layer, for CHAIN_PINS
CHAIN_LAYERS = {
    "conv1d": LayerDesc(name="k1", kind="conv1d", kernel=(3,), in_channels=5,
                        out_channels=7),
    "conv2d": LayerDesc(name="k2", kind="conv2d", kernel=(3, 3),
                        in_channels=6, out_channels=8, stride=(2, 1)),
    "conv3d": LayerDesc(name="k3", kind="conv3d", kernel=(3, 2, 2),
                        in_channels=4, out_channels=6),
    "fc": LayerDesc(name="d", kind="fc", in_channels=24, out_channels=18),
}
CHAIN_T3F_PLAN = ((2, 3, 4), (3, 3, 2))

# sha256 of each method's weight records in chain order (``_chain_digest``)
# at the middle of the rank box, recorded while each decomposer still
# built its weight dict by hand.  The tucker2 pins were re-recorded when
# its bases moved to ``linalg.left_basis``, and the tt, svd and t3f pins
# when theirs did: the factors changed sign and rounding only.  The
# conv2d and conv3d tt and the fc t3f pins were re-recorded again when a
# tall TT-SVD step took its basis from its short side (its core the QR
# of the projection, no SVD); conv1d's tt chain has no tall step.  The
# factors come from LAPACK, so the pins belong to one numpy/BLAS build.
CHAIN_PINS = {
    ("conv1d", "tucker2"):
        "6f778ef33e3c1f2f5a59d0fac6f6a63c35fe163d7dbb4b53b34064d3ad974188",
    ("conv1d", "cp"):
        "6c61f8ecc2aaf41ced8c394bf5ec9bb18ed05618ad1046faa3b6e712be79772b",
    ("conv1d", "tt"):
        "4ce2fff05240437ef3a57a17017ae745b97db0c7a2e7a64b9cbd44dd81dc7eb7",
    ("conv2d", "tucker2"):
        "602ded4dcfe25f8e98eff6ea69934a05fd3b6a801dc47538935ad46e46a71901",
    ("conv2d", "cp"):
        "2cae15d6afb459adb1f713b0bc4db60e13815216fe645b6ad8f87e42be676f69",
    ("conv2d", "tt"):
        "2929eb1a4274e8a70314b07a1d44d0f32219b81002ef33942c9dbe67c5b5facb",
    ("conv3d", "tucker2"):
        "4e0c8321fbaf4d41e8b0fb96a1124928b62df9a60b9d55c308f1ddf0786aea3a",
    ("conv3d", "cp"):
        "7da7791597cc3af581d323a200172a2ba080a094c72057249b2b9d8d339ba0cf",
    ("conv3d", "tt"):
        "d972dca6b120e445364188ba38a0549e0071e61a5c6a33931e60d845674806c4",
    ("fc", "svd"):
        "910233e25862a7b725da28dc84ed9bc543637d28febd2c0d781a27f2f789b4b9",
    ("fc", "qr"):
        "fbe167ac51a33347eaadc7e370e5b7fab03ff1ad2226f2f69d713bb6bf31a467",
    ("fc", "t3f"):
        "fb0844b72fe427dc608409fe9a018b47be088f9dd8736ed4129e075489a4e0c7",
}


def _chain_digest(kind, method):
    layer = CHAIN_LAYERS[kind]
    seed = list(CHAIN_LAYERS).index(kind)
    weight = np.random.default_rng(seed).standard_normal(layer.weight_shape())
    plan = CHAIN_T3F_PLAN if method == "t3f" else None
    ranks = tuple(max(lo, hi // 2)
                  for lo, hi in rank_bounds(layer, method, plan))
    fact = decompose_layer(layer, weight, method, ranks, plan=plan)
    digest = hashlib.sha256()
    for sub in fact.sub_layers:
        if sub.name in fact.weights:
            arr = fact.weights[sub.name]
            digest.update(f"{sub.name}{arr.shape}{arr.dtype}".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


class TestChainLayout:
    """Each method's factors attach to its chain with the same bytes."""

    @pytest.mark.parametrize("kind,method", sorted(CHAIN_PINS))
    def test_weight_records_pinned(self, kind, method):
        assert _chain_digest(kind, method) == CHAIN_PINS[kind, method]


SHIPPED_RANKS = {"tucker2": (4, 6), "cp": (6,), "tt": (4, 8, 6),
                 "svd": (5,), "qr": (5,), "t3f": (4,)}


class TestShipped:
    """``shipped`` is a chain's one float32, read-only weight copy, made
    on first use; ``weights`` keeps the float64 factors."""

    @pytest.fixture(params=sorted(SHIPPED_RANKS))
    def fact(self, request):
        method = request.param
        layer, make, _ = FULL_RANK[method]
        return factorize(method, layer, make(), SHIPPED_RANKS[method])

    def test_not_cast_by_decompose_layer(self, fact):
        assert "shipped" not in vars(fact)

    def test_float32_read_only_copy_of_the_factors(self, fact):
        shipped = fact.shipped
        assert shipped.names() == sorted(fact.weights)
        for name, arr in shipped.items():
            assert arr.dtype == np.float32 and not arr.flags.writeable
            assert fact.weights[name].dtype == np.float64
        assert shipped.to_bytes() == WeightStore(fact.weights).to_bytes()

    def test_cast_once(self, fact):
        assert fact.shipped is fact.shipped


def _count_factorizations(monkeypatch):
    """Shapes of the matrices passed to ``linalg.svd``, ``qr_pivoted`` and
    ``left_basis``.  The ``svd`` that ``left_basis`` takes of a tall
    matrix is part of that one factorization, not a second."""
    calls, active = [], []
    for name in ("svd", "qr_pivoted", "left_basis"):
        original = getattr(linalg, name)

        def counted(a, original=original):
            if not active:
                calls.append(a.shape)
            active.append(a)
            try:
                return original(a)
            finally:
                active.pop()

        monkeypatch.setattr(linalg, name, counted)
    return calls


def _same_bytes(a, b):
    assert a.weights.keys() == b.weights.keys()
    for name, arr in b.weights.items():
        kept = a.weights[name]
        assert (kept.shape, kept.dtype) == (arr.shape, arr.dtype), name
        assert kept.tobytes() == arr.tobytes(), name


# two rank points per method, and how many full factorizations the
# second takes from a memo the first filled: svd/qr the weight's,
# tucker2 its two initial unfoldings', cp its four modes', tt and t3f
# the first TT-SVD step's (the leading rank differs)
MEMO_REUSE = {
    "tucker2": ((2, 3), (5, 1), 2),
    "cp": ((1,), (3,), 4),
    "tt": ((2, 3, 4), (3, 3, 4), 1),
    "svd": ((2,), (7,), 1),
    "qr": ((2,), (7,), 1),
    "t3f": ((2,), (4,), 1),
}


class TestMemo:
    """A memo shared by the decompositions of one weight changes no byte
    of any result and computes each full factorization once."""

    @staticmethod
    def _points(layer, method, plan):
        box = rank_bounds(layer, method, plan)
        top = tuple(hi for _, hi in box)
        ladder = [tuple(min(r, hi) for _, hi in box) for r in (1, 2, 3, 5)]
        draw = np.random.default_rng(5)
        drawn = [tuple(int(draw.integers(lo, hi + 1)) for lo, hi in box)
                 for _ in range(3)]
        # the ladder again after the box points: only memo hits
        return ladder + drawn + [top] + ladder

    @pytest.mark.parametrize("method", METHODS)
    def test_shared_memo_changes_no_byte(self, method):
        layer = CONV if method in CONV_METHODS else FC
        weight = rng.standard_normal(layer.weight_shape())
        memo = {}
        for plan in t3f_plans(FC)[:3] if method == "t3f" else [None]:
            for ranks in self._points(layer, method, plan):
                _same_bytes(
                    decompose_layer(layer, weight, method, ranks, plan=plan,
                                    memo=memo),
                    decompose_layer(layer, weight, method, ranks, plan=plan))
        assert memo

    @pytest.mark.parametrize("method", METHODS)
    def test_second_point_reuses_the_rank_free_factorizations(
            self, method, monkeypatch):
        layer = CONV if method in CONV_METHODS else FC
        weight = rng.standard_normal(layer.weight_shape())
        first, second, reused = MEMO_REUSE[method]
        plan = T3F_PLAN if method == "t3f" else None
        calls = _count_factorizations(monkeypatch)
        decompose_layer(layer, weight, method, second, plan=plan)
        fresh = len(calls)
        memo = {}
        decompose_layer(layer, weight, method, first, plan=plan, memo=memo)
        calls.clear()
        decompose_layer(layer, weight, method, second, plan=plan, memo=memo)
        assert fresh - len(calls) == reused

    def test_tt_steps_rerun_from_the_first_changed_rank(self, monkeypatch):
        # the (8, 3, 3, 12) tensor unfolds to 8 x 108 at step 0, to
        # 3 r0 x 36 at step 1 and to 3 r1 x 12 at step 2; a tall step
        # factors its transpose, so 15 x 12 is counted as 12 x 15
        calls = _count_factorizations(monkeypatch)
        weight = conv_weight()
        memo = {}

        def steps(ranks):
            calls.clear()
            decompose_layer(CONV, weight, "tt", ranks, memo=memo)
            return list(calls)

        assert steps((2, 3, 4)) == [(8, 108), (6, 36), (9, 12)]
        assert steps((2, 5, 4)) == [(12, 15)]
        assert steps((3, 3, 4)) == [(9, 36), (9, 12)]
        assert steps((2, 5, 7)) == []

    @pytest.mark.parametrize("method", METHODS)
    def test_writing_a_factor_cannot_reach_the_memo(self, method):
        layer = CONV if method in CONV_METHODS else FC
        weight = rng.standard_normal(layer.weight_shape())
        first, second, _ = MEMO_REUSE[method]
        plan = T3F_PLAN if method == "t3f" else None
        memo = {}
        read_only = 0
        for ranks in (first, second):
            fact = decompose_layer(layer, weight, method, ranks, plan=plan,
                                   memo=memo)
            for arr in fact.weights.values():
                try:
                    arr[...] = 0.0
                except ValueError:
                    read_only += 1
        for ranks in (first, second):
            _same_bytes(
                decompose_layer(layer, weight, method, ranks, plan=plan,
                                memo=memo),
                decompose_layer(layer, weight, method, ranks, plan=plan))
        if method in ("qr", "tt"):  # Q and the first TT core are views
            assert read_only


def _oracle_tt_error(tensor, ranks, steps):
    """Relative error of the sequential TT-SVD with every step a full
    ``np.linalg.svd``, its cores padded with zeros past the width.
    ``steps`` keeps each step's (U, S V') by rank prefix."""
    shape = tensor.shape
    full = (1,) + tuple(ranks) + (1,)
    approx = np.ones((1, 1))
    rest = tensor.reshape(shape[0], -1)
    for i in range(len(shape) - 1):
        mat = rest.reshape(full[i] * shape[i], -1)
        prefix = tuple(full[1:i + 1])
        if prefix not in steps:
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            steps[prefix] = u, s[:, None] * vt
        u, sv = steps[prefix]
        pad = max(full[i + 1] - u.shape[1], 0)
        u = np.pad(u[:, :full[i + 1]], ((0, 0), (0, pad)))
        rest = np.pad(sv[:full[i + 1]], ((0, pad), (0, 0)))
        approx = (approx @ u.reshape(full[i], -1)).reshape(-1, full[i + 1])
    approx = approx @ rest.reshape(full[-2], -1)
    return relative_error(approx.reshape(shape), tensor)


def _t3f_tensor(weight, plan):
    ms, ns = plan
    d = len(ms)
    perm = [axis for t in range(d) for axis in (t, d + t)]
    return weight.reshape(ms + ns).transpose(perm).reshape(
        [m * n for m, n in zip(ms, ns)])


def _graded_fc(m, n, smallest, seed=0):
    """An (m, n) matrix with singular values from 1 down to ``smallest``,
    evenly spaced in log."""
    gen = np.random.default_rng(seed)
    k = min(m, n)
    u = np.linalg.qr(gen.standard_normal((m, k)))[0]
    v = np.linalg.qr(gen.standard_normal((n, k)))[0]
    return (u * np.logspace(0, np.log10(smallest), k)) @ v.T


class TestGramPath:
    """tt, t3f and svd take their bases from ``linalg.left_basis`` of the
    short side of each matrix they factor: the small Gram, never a full
    SVD."""

    @pytest.mark.parametrize("kind,method", [
        ("conv1d", "tt"), ("conv2d", "tt"), ("conv3d", "tt"),
        ("fc", "svd"), ("fc", "t3f")])
    def test_whole_box_as_good_as_the_full_svd(self, kind, method):
        layer = CHAIN_LAYERS[kind]
        weight = np.random.default_rng(4).standard_normal(
            layer.weight_shape())
        plan = CHAIN_T3F_PLAN if method == "t3f" else None
        if method == "tt":
            tensor = np.moveaxis(weight, len(layer.kernel), 0)
        elif method == "t3f":
            tensor = _t3f_tensor(weight, plan)
        s = np.linalg.svd(weight, compute_uv=False)
        memo, steps = {}, {}
        box = rank_bounds(layer, method, plan)
        for ranks in itertools.product(*(range(lo, hi + 1)
                                         for lo, hi in box)):
            fact = decompose_layer(layer, weight, method, ranks, plan=plan,
                                   memo=memo)
            got = relative_error(fact.reconstruct(), weight)
            if method == "svd":
                want = np.sqrt(np.sum(s[ranks[0]:] ** 2)) / np.linalg.norm(s)
            else:
                want = _oracle_tt_error(tensor, ranks, steps)
            assert got <= want + 1e-7, ranks

    def test_error_floor_on_a_graded_spectrum(self):
        # the Gram squares the spectrum, so the tail below sqrt(eps) of
        # the largest singular value is not resolved: the truncation
        # error bottoms out near 1e-8 where a full SVD reaches ~5e-14.
        # That is below the float32 rounding (2^-24 ~ 6e-8) of the
        # factor weights that ship.
        layer = LayerDesc(name="g", kind="fc", in_channels=64,
                          out_channels=96)
        weight = _graded_fc(64, 96, 1e-14)
        fact = decompose_layer(layer, weight, "svd", (60,))
        s = np.linalg.svd(weight, compute_uv=False)
        oracle = np.sqrt(np.sum(s[60:] ** 2)) / np.linalg.norm(s)
        assert oracle < 1e-13
        assert relative_error(fact.reconstruct(), weight) \
            < np.finfo(np.float32).eps / 2

    @pytest.mark.parametrize("method", ["svd", "tt"])
    @pytest.mark.parametrize("deficient", ["rank2", "zero"])
    def test_rank_deficient_weight_at_full_rank(self, method, deficient):
        layer, _, ranks = FULL_RANK[method]
        gen = np.random.default_rng(6)
        shape = layer.weight_shape()
        if deficient == "zero":
            weight = np.zeros(shape)
        else:  # rank 2 in every unfolding
            weight = np.einsum("r...,rc,rf->...cf",
                               gen.standard_normal((2,) + shape[:-2]),
                               gen.standard_normal((2, shape[-2])),
                               gen.standard_normal((2, shape[-1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact = decompose_layer(layer, weight, method, ranks)
            assert all(np.isfinite(w).all() for w in fact.weights.values())
            assert relative_error(fact.reconstruct(), weight) < 1e-12

    @pytest.mark.parametrize("shape", [(18, 15), (15, 18), (12, 12)],
                             ids=["tall", "wide", "square"])
    def test_svd_split_is_symmetric(self, shape):
        layer = LayerDesc(name="f", kind="fc", in_channels=shape[0],
                          out_channels=shape[1])
        weight = np.random.default_rng(8).standard_normal(shape)
        s = np.linalg.svd(weight, compute_uv=False)
        for rank in (1, 5, min(shape)):
            fact = decompose_layer(layer, weight, "svd", (rank,))
            a, b = fact.weights.values()
            cols, rows = np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=1)
            assert cols == pytest.approx(rows, rel=1e-12)
            assert cols ** 2 == pytest.approx(s[:rank], rel=1e-10)

    @pytest.mark.parametrize("method", ["tt", "svd", "t3f"])
    def test_never_calls_linalg_svd(self, method, monkeypatch):
        # the benchmark's layers: a 3x3x64x128 conv and a 512x256 fc
        if method == "tt":
            layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                              in_channels=64, out_channels=128)
        else:
            layer = LayerDesc(name="f", kind="fc", in_channels=512,
                              out_channels=256)
        shapes = []
        svd = linalg.svd

        def counted(a):
            shapes.append(a.shape)
            return svd(a)

        monkeypatch.setattr(linalg, "svd", counted)
        weight = np.random.default_rng(9).standard_normal(
            layer.weight_shape())
        # the first plans' steps are all wide, the last plans' first
        # steps tall (8192 x 16, say)
        plans = t3f_plans(layer)[:2] + t3f_plans(layer)[-2:] \
            if method == "t3f" else [None]
        for plan in plans:
            box = rank_bounds(layer, method, plan)
            for ranks in ([lo for lo, _ in box], [max(lo, hi // 2)
                                                   for lo, hi in box]):
                decompose_layer(layer, weight, method, tuple(ranks),
                                plan=plan)
        # a tall TT-SVD step, like svd, diagonalizes the Gram of its
        # short side, so left_basis never reaches its tall SVD branch
        assert not shapes, shapes

    @pytest.mark.parametrize("method", ["tt", "t3f"])
    def test_rank_deficient_tall_step(self, method):
        # tt: rank 8 past the width 3 of step 1's 3 x 36 unfolding leaves
        # step 2's 24 x 12 unfolding with 15 zero rows, so its rank 9 is
        # below the step's rank 12.  A t3f plan has at most three modes,
        # whose rank box never outruns a width, so its weight is a
        # Kronecker product of TT rank 1 instead: at the box's top ranks,
        # the tall 54 x 8 step 1 has rank 1 and seven columns of noise.
        gen = np.random.default_rng(12)
        if method == "tt":
            layer, plan, ranks = CONV, None, (1, 8, 12)
            weight = gen.standard_normal(layer.weight_shape())
            tensor = np.moveaxis(weight, len(layer.kernel), 0)
            step, rows = "c.lrf2", 24
        else:
            layer, plan, ranks = CHAIN_LAYERS["fc"], CHAIN_T3F_PLAN, (6, 8)
            weight = np.einsum("a,b,c,x,y,z->abcxyz",
                               *(gen.standard_normal(k)
                                 for k in plan[0] + plan[1]))
            weight = weight.reshape(layer.weight_shape())
            tensor = _t3f_tensor(weight, plan)
            step, rows = "d.lrf2", 54
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact = decompose_layer(layer, weight, method, ranks, plan=plan)
        assert all(np.isfinite(w).all() for w in fact.weights.values())
        # the tall step's core is orthonormal however small its trailing
        # singular values are
        core = fact.weights[step].reshape(rows, -1)
        assert core.T @ core == pytest.approx(np.eye(core.shape[1]),
                                              abs=1e-12)
        if method == "tt":   # step 1's core past its width is zero
            first = fact.weights["c.lrf1"].reshape(-1, 8)
            assert not first[:, 3:].any()
        assert relative_error(fact.reconstruct(), weight) \
            <= _oracle_tt_error(tensor, ranks, {}) + 1e-7
