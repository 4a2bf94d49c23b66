import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import linalg
from lowrank.decompose import _leading
from lowrank.errors import RankError
from lowrank.linalg import (fold, left_basis, mode_n_product, qr_pivoted,
                            relative_error, svd, unfold)

rng = np.random.default_rng(0)


def gram_svd_oracle(a):
    """Independent SVD via eigendecomposition of the Gram matrix."""
    m, n = a.shape
    if m <= n:
        vals, vecs = np.linalg.eigh(a @ a.T)
        order = np.argsort(vals)[::-1]
        vals, u = np.maximum(vals[order], 0.0), vecs[:, order]
        s = np.sqrt(vals)
        v = a.T @ u / np.where(s > 1e-12, s, 1.0)
        return u, s, v
    v, s, u = gram_svd_oracle(a.T)
    return u, s, v


class TestSvd:
    def test_reconstructs(self):
        a = rng.standard_normal((9, 6))
        u, s, v = svd(a)
        assert np.allclose(u * s @ v.T, a, atol=1e-10)

    def test_matches_gram_oracle_spectrum(self):
        a = rng.standard_normal((8, 12))
        _, s, _ = svd(a)
        _, s_oracle, _ = gram_svd_oracle(a)
        assert np.allclose(s, s_oracle[: len(s)], atol=1e-8)

    def test_truncation_is_best_rank_k(self):
        # Eckart-Young: no rank-k matrix is closer in Frobenius norm
        a = rng.standard_normal((10, 7))
        _, s_full, _ = full = svd(a)
        for k in (1, 3, 5):
            u, s, v = (_leading(part, k) for part in full)
            approx = u * s @ v.T
            best = np.sqrt(np.sum(s_full[k:] ** 2))
            assert np.linalg.norm(a - approx) == pytest.approx(best, abs=1e-9)

    def test_orthonormal_columns(self):
        a = rng.standard_normal((11, 5))
        u, s, v = svd(a)
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-10)
        assert np.all(s[:-1] >= s[1:])


def spread_spectrum(shape, seed):
    """A matrix whose singular values 3 .. 1 are evenly spaced, so every
    leading subspace is well separated from the rest."""
    gen = np.random.default_rng(seed)
    m, n = shape
    k = min(shape)
    u, _ = np.linalg.qr(gen.standard_normal((m, k)))
    v, _ = np.linalg.qr(gen.standard_normal((n, k)))
    return (u * np.linspace(3.0, 1.0, k)) @ v.T


SHAPES = {"wide": (12, 40), "square": (15, 15), "tall": (30, 9)}


class TestLeftBasis:
    @pytest.mark.parametrize("side", sorted(SHAPES))
    def test_subspaces_match_the_svd(self, side):
        a = spread_spectrum(SHAPES[side], seed=len(side))
        u_ref = np.linalg.svd(a, full_matrices=False)[0]
        for k in range(1, min(a.shape) + 1):
            u = _leading(left_basis(a), k)
            gap = np.linalg.norm(u @ u.T - u_ref[:, :k] @ u_ref[:, :k].T, 2)
            assert gap <= 1e-10, (k, gap)

    @pytest.mark.parametrize("side", sorted(SHAPES))
    def test_orthonormal_and_signed(self, side):
        a = rng.standard_normal(SHAPES[side])
        u = left_basis(a)
        assert u.shape == (a.shape[0], min(a.shape))
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        # each column's largest-magnitude entry is positive
        peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert (peaks > 0).all()

    def test_sign_does_not_follow_the_input_sign(self):
        a = rng.standard_normal((6, 20))
        assert left_basis(-a).tobytes() == left_basis(a).tobytes()

    @pytest.mark.parametrize("a", [
        rng.standard_normal((64, 2)) @ rng.standard_normal((2, 200)),
        np.zeros((5, 8)), np.zeros((8, 5))],
        ids=["rank-2 wide", "zero wide", "zero tall"])
    def test_rank_deficient_matrices_get_orthonormal_bases(self, a):
        u = left_basis(a)
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        if a.any():
            # the leading columns span the column space
            lead = u[:, :2]
            assert np.allclose(lead @ (lead.T @ a), a, atol=1e-10)

    def test_rank_above_the_basis_width_is_zero_padded(self):
        a = rng.standard_normal((6, 4))
        u = _leading(left_basis(a), 7)
        assert u.shape == (6, 7)
        assert u[:, :4].tobytes() == left_basis(a).tobytes()
        assert not u[:, 4:].any()
        s = _leading(svd(a)[1], 7)
        assert s[:4].tobytes() == svd(a)[1].tobytes()
        assert s.shape == (7,) and not s[4:].any()

    @pytest.mark.parametrize("side", sorted(SHAPES))
    def test_truncating_the_full_basis_gives_the_same_bytes(self, side):
        a = rng.standard_normal(SHAPES[side])
        full = left_basis(a)
        full.flags.writeable = False  # as kept in a memo
        for k in range(1, min(a.shape) + 1):
            lead = _leading(full, k)
            assert np.shares_memory(lead, full)
            assert lead.tobytes() == _leading(left_basis(a), k).tobytes()

    @pytest.mark.parametrize("side,svds", [("wide", 0), ("square", 0),
                                           ("tall", 1)])
    def test_only_a_tall_matrix_takes_an_svd(self, side, svds, monkeypatch):
        calls = []
        original = linalg.svd

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "svd", counted)
        left_basis(rng.standard_normal(SHAPES[side]))
        assert len(calls) == svds

    def test_rejects_a_tensor(self):
        with pytest.raises(RankError):
            left_basis(rng.standard_normal((3, 4, 5)))


class TestQr:
    def test_reconstructs(self):
        a = rng.standard_normal((9, 6))
        q, r = qr_pivoted(a)
        assert np.allclose(q @ r, a, atol=1e-10)

    def test_orthonormal_q(self):
        a = rng.standard_normal((10, 4))
        q, r = qr_pivoted(a)
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)

    def test_truncation_error_decreases(self):
        a = rng.standard_normal((12, 12))
        q, r = qr_pivoted(a)
        errs = [relative_error(q[:, :k] @ r[:k], a) for k in (2, 5, 9, 12)]
        assert all(x >= y - 1e-12 for x, y in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10


class TestUnfold:
    def test_matches_index_walk(self):
        t = rng.standard_normal((3, 4, 5))
        m = unfold(t, 1)
        assert m.shape == (4, 15)
        for j in range(4):
            # row j must hold every element with middle index j
            assert np.allclose(np.sort(m[j]), np.sort(t[:, j, :].ravel()))

    def test_fold_roundtrip_bit_exact(self):
        t = rng.standard_normal((2, 3, 4, 5))
        for mode in range(4):
            again = fold(unfold(t, mode), mode, t.shape)
            assert np.array_equal(again, t)

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_fold_roundtrip_property(self, mode):
        t = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


class TestModeNProduct:
    def test_matches_loop_oracle(self):
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((6, 4))
        got = mode_n_product(t, m, 1)
        want = np.zeros((3, 6, 5))
        for i in range(3):
            for j in range(6):
                for k in range(5):
                    want[i, j, k] = np.dot(m[j], t[i, :, k])
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_leaves_tensor(self):
        t = rng.standard_normal((4, 3, 2))
        assert np.allclose(mode_n_product(t, np.eye(3), 1), t)


class TestRelativeError:
    def test_zero_for_equal(self):
        a = rng.standard_normal((5, 5))
        assert relative_error(a, a) == 0.0

    def test_scale(self):
        a = np.ones((4, 4))
        assert relative_error(np.zeros((4, 4)), a) == pytest.approx(1.0)
