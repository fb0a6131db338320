"""Dense kernel tests; expected values come from exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectralfactors as sf
from spectralfactors.matnum import (
    basis_from_projector,
    eigen_blocks,
    orth_basis,
    selection_basis,
)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = sf.ToleranceConfig()
        assert cfg.rank_rel_tol == 1e-9
        assert cfg.residual_tol == 1e-8
        assert cfg.circle_samples == 512

    @pytest.mark.parametrize("kwargs", [
        {"rank_rel_tol": 0.0},
        {"residual_tol": -1e-3},
        {"circle_samples": 4},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            sf.ToleranceConfig(**kwargs)

    def test_circle_samples_bound(self):
        # Construction only: nothing is sampled, so nothing is allocated.
        assert sf.ToleranceConfig(circle_samples=16384).circle_samples == 16384
        for k in (16385, 10**400):
            with pytest.raises(ValueError, match=r"\[8, 16384\]"):
                sf.ToleranceConfig(circle_samples=k)


class TestSolveStein:
    def test_reference_zero_direction(self):
        # scalar oracle: m^2 x - x = q  =>  x = q / (m^2 - 1)
        m_vals = (Fraction(1, 4), Fraction(1, 3))
        q_vals = (Fraction(1, 16), Fraction(1, 36))
        expected = [q / (m * m - 1) for m, q in zip(m_vals, q_vals)]
        assert expected == [Fraction(-1, 15), Fraction(-1, 32)]
        x = sf.solve_stein(np.diag([0.25, 1 / 3]), np.diag([1 / 16, 1 / 36]))
        assert_allclose(x, np.diag([float(v) for v in expected]), atol=1e-14)

    def test_zero_state_matrix(self, rng):
        q = rng.normal(size=(4, 4))
        q = q + q.T
        assert_allclose(sf.solve_stein(np.zeros((4, 4)), q), -q, atol=1e-14)

    def test_reference_pole_direction(self):
        # y/4 - y = -b^2  =>  y = 4 b^2 / 3, for b in {7/2, 5}
        b_vals = (Fraction(7, 2), Fraction(5))
        expected = [4 * b * b / 3 for b in b_vals]
        assert expected == [Fraction(49, 3), Fraction(100, 3)]
        b_plus = np.diag([-3.5, -5.0])
        y = sf.solve_stein(0.5 * np.eye(2), -(b_plus @ b_plus.T))
        assert_allclose(y, np.diag([float(v) for v in expected]), rtol=1e-14)

    def test_empty(self):
        assert sf.solve_stein(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)

    def test_singular_operator(self):
        # eigenvalue pair 2 * 1/2 = 1 makes the operator singular
        with pytest.raises(sf.SingularSteinOperator):
            sf.solve_stein(np.diag([2.0, 0.5]), np.eye(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_bound_random(self, seed, config):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m *= 0.8 / max(abs(np.linalg.eigvals(m)))
        q = rng.normal(size=(n, n))
        q = q + q.T
        x = sf.solve_stein(m, q)
        resid = np.linalg.norm(m.T @ x @ m - x - q)
        assert resid <= config.residual_tol * (np.linalg.norm(q) + np.linalg.norm(x))
        assert_allclose(x, x.T, atol=1e-12)


class TestSolveSteinKernel:
    def test_residual_at_n32(self):
        rng = np.random.default_rng(32)
        m = rng.normal(size=(32, 32))
        m *= 0.95 / max(abs(np.linalg.eigvals(m)))
        q = rng.normal(size=(32, 32))
        q = q + q.T
        x = sf.solve_stein(m, q)
        resid = np.linalg.norm(m.T @ x @ m - x - q)
        assert resid <= 1e-12 * (np.linalg.norm(q) + np.linalg.norm(x))
        assert_allclose(x, x.T, atol=1e-12)

    def test_near_reciprocal_pair_is_singular(self):
        # eigenvalues 2 and 1/2 + 1e-12: the product misses one by 2e-12
        m = np.array([[2.0, 1.0], [0.0, 0.5 + 1e-12]])
        with pytest.raises(sf.SingularSteinOperator, match="product one"):
            sf.solve_stein(m, np.eye(2))


class TestSymSqrt:
    def test_reference_values(self):
        assert_allclose(sf.sym_sqrt(np.diag([1 / 16, 1 / 9])),
                        np.diag([0.25, 1 / 3]), atol=1e-15)
        assert_allclose(sf.sym_sqrt(np.eye(3)), np.eye(3), atol=1e-15)
        assert_allclose(sf.sym_sqrt(4.0 * np.eye(2)), 2.0 * np.eye(2), atol=1e-15)

    def test_square_is_identity_on_random_spd(self, rng, config):
        for _ in range(5):
            a = rng.normal(size=(5, 5))
            s = a @ a.T + 5.0 * np.eye(5)
            r = sf.sym_sqrt(s)
            assert_allclose(r, r.T, atol=1e-13)
            assert np.linalg.norm(r @ r - s) <= config.residual_tol * np.linalg.norm(s)

    def test_commutes_with_orthogonal_conjugation(self, rng):
        a = rng.normal(size=(4, 4))
        s = a @ a.T + 4.0 * np.eye(4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lhs = sf.sym_sqrt(q @ s @ q.T)
        rhs = q @ sf.sym_sqrt(s) @ q.T
        assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("mat", [
        -np.eye(2),
        np.diag([1.0, 0.0]),
        np.diag([1.0, -1e-6]),
    ])
    def test_rejects_non_pd(self, mat):
        with pytest.raises(sf.NotPositiveDefinite):
            sf.sym_sqrt(mat)


class TestPseudoInverse:
    def test_reference_diagonal(self):
        p = sf.pseudo_inverse(np.diag([0.0, 0.0, 4 / 3, 4 / 3]))
        assert_allclose(p, np.diag([0.0, 0.0, 0.75, 0.75]), atol=1e-14)

    def test_zero(self):
        assert_allclose(sf.pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rank_one_scaled_projector(self):
        v = np.array([np.cos(0.7), np.sin(0.7)])
        p = sf.pseudo_inverse((4 / 3) * np.outer(v, v))
        assert_allclose(p, 0.75 * np.outer(v, v), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_identities_rank_deficient(self, seed, config):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(6, 3))
        s = b @ b.T  # symmetric, rank 3
        p = sf.pseudo_inverse(s)
        tol = config.residual_tol * max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(s @ p @ s - s) <= tol
        assert np.linalg.norm(p @ s @ p - p) <= tol
        assert_allclose(s @ p, (s @ p).T, atol=tol)
        assert_allclose(p @ s, (p @ s).T, atol=tol)
        assert_allclose(p, p.T, atol=1e-12)

    def test_nonsymmetric_falls_back_to_svd(self, rng):
        m = rng.normal(size=(4, 3))
        assert_allclose(sf.pseudo_inverse(m), np.linalg.pinv(m), atol=1e-12)


class TestOrthProjector:
    def test_coordinate_subspace(self):
        v = np.zeros((4, 2))
        v[2, 0] = 1.0
        v[3, 1] = 1.0
        assert_allclose(sf.orth_projector(v), np.diag([0.0, 0.0, 1.0, 1.0]),
                        atol=1e-15)

    def test_unit_vector(self):
        th = np.pi / 4
        v = np.array([[0.0], [0.0], [np.cos(th)], [np.sin(th)]])
        pi = sf.orth_projector(v)
        expected = np.zeros((4, 4))
        expected[2:, 2:] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert_allclose(pi, expected, atol=1e-15)

    def test_identity_basis(self):
        assert_allclose(sf.orth_projector(np.eye(3)), np.eye(3), atol=1e-15)

    def test_basis_independence(self, rng, config):
        v = rng.normal(size=(5, 2))
        r = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        gap = np.linalg.norm(sf.orth_projector(v) - sf.orth_projector(v @ r))
        assert gap <= config.residual_tol

    def test_rank_deficient_basis(self):
        v = np.ones((4, 2))
        with pytest.raises(sf.RankDeficientBasis):
            sf.orth_projector(v)

    def test_more_columns_than_rows_is_rank_deficient(self):
        # Every singular value of [I | 0] is one, but three columns in the
        # plane cannot be independent.
        with pytest.raises(sf.RankDeficientBasis):
            sf.orth_projector(np.eye(2, 3))

    def test_orth_basis_keeps_nested_spans(self, rng):
        # The first j basis columns span the first j input columns.
        v = rng.standard_normal((7, 4)) @ np.diag([1.0, 1e-3, 10.0, 1e-6])
        q = orth_basis(v)
        assert_allclose(q.T @ q, np.eye(4), atol=1e-14)
        for j in range(1, 5):
            head = v[:, :j]
            resid = head - q[:, :j] @ (q[:, :j].T @ head)
            assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(head)

    def test_properties(self, rng):
        v = rng.normal(size=(6, 3))
        pi = sf.orth_projector(v)
        assert_allclose(pi, pi.T, atol=1e-13)
        assert_allclose(pi @ pi, pi, atol=1e-13)
        assert_allclose(pi @ v, v, atol=1e-12)


class TestEigenStructure:
    def test_blocks_of_reference_state_matrix(self):
        blocks = eigen_blocks(np.diag([0.25, 1 / 3, 2.0, 2.0]))
        kinds = [(b.kind, b.dim) for b in blocks]
        assert kinds == [("real", 1), ("real", 1), ("repeated", 2)]
        assert blocks[0].indices == (0,)
        assert blocks[2].indices == (2, 3)

    def test_complex_pair_block(self):
        rot = np.array([[0.5, -0.4], [0.4, 0.5]])
        m = np.zeros((3, 3))
        m[:2, :2] = rot
        m[2, 2] = 0.9
        blocks = eigen_blocks(m)
        assert [b.kind for b in blocks] == ["pair", "real"]
        assert blocks[0].basis.shape == (3, 2)
        assert sf.is_invariant(m, blocks[0].basis)

    def test_invariant_basis_simple_selection(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        v = selection_basis(eigen_blocks(m), [0])
        assert_allclose(np.abs(v), np.array([[1.0], [0.0], [0.0], [0.0]]),
                        atol=1e-12)

    def test_invariant_basis_rejects_repeated(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        with pytest.raises(sf.AmbiguousEigenspace):
            selection_basis(eigen_blocks(m), [2])

    def test_invariant_basis_both_simple(self):
        m = np.diag([0.25, 1 / 3])
        v = selection_basis(eigen_blocks(m), [0, 1])
        assert_allclose(sf.orth_projector(v), np.eye(2), atol=1e-12)

    def test_complex_pair_split_rejected(self):
        rot = np.array([[0.5, -0.4], [0.4, 0.5]])
        with pytest.raises(sf.ComplexPairSplit):
            selection_basis(eigen_blocks(rot), [0])

    def test_selection_allows_full_repeated_cluster(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        v = selection_basis(eigen_blocks(m), [2, 3])
        pi = sf.orth_projector(v)
        assert_allclose(pi, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_basis_always_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 5))
        selection = []
        for blk in eigen_blocks(m):
            if blk.kind in ("real", "pair") and len(selection) + blk.dim <= 3:
                selection.extend(blk.indices)
        v = selection_basis(eigen_blocks(m), selection)
        assert sf.is_invariant(m, v)


class TestIsInvariant:
    def test_inside_eigenspace(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        for th in (0.0, 0.3, 1.2):
            v = np.array([[0.0], [0.0], [np.cos(th)], [np.sin(th)]])
            assert sf.is_invariant(m, v)

    def test_mixing_eigenvalues_fails(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        v = np.array([[1.0], [1.0], [0.0], [0.0]])
        assert not sf.is_invariant(m, v)

    def test_identity_always_invariant(self, rng):
        m = rng.normal(size=(4, 4))
        assert sf.is_invariant(m, np.eye(4))

    def test_rank_deficient_raises(self):
        with pytest.raises(sf.RankDeficientBasis):
            sf.is_invariant(np.eye(3), np.ones((3, 2)))

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(sf.RankDeficientBasis):
            sf.is_invariant(np.eye(2), np.eye(2, 3))


class TestBasisFromProjector:
    def test_coordinate_projector_gives_coordinate_basis(self):
        v = basis_from_projector(np.diag([0.0, 0.0, 1.0, 1.0]))
        assert_allclose(v, np.eye(4)[:, 2:], atol=1e-15)

    def test_zero_projector(self):
        assert basis_from_projector(np.zeros((4, 4))).shape == (4, 0)

    def test_general_projector(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        pi = q @ q.T
        v = basis_from_projector(pi)
        assert_allclose(v.T @ v, np.eye(2), atol=1e-12)
        assert_allclose(v @ v.T, pi, atol=1e-12)
