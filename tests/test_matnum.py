"""Dense kernel tests; expected values come from exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, schur

import spectralfactors as sf
from spectralfactors import matnum
from spectralfactors.divisors import _block_choices
from spectralfactors.matnum import (
    basis_from_projector,
    eigen_blocks,
    orth_basis,
    selection_basis,
)

from helpers import bench_workloads, recipe_outer


def non_normal(n, seed=0):
    """Random n x n matrix with a heavy strict upper triangle, scaled to
    spectral radius one: its Henrici departure from normality is about
    0.76 of its norm at n = 32."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 2.0 * np.triu(rng.standard_normal((n, n)), 1)
    return m / max(abs(np.linalg.eigvals(m)))


def sorted_schur_basis(m, cluster):
    """Reference block basis: the leading vectors of a real Schur form that
    LAPACK ``gees`` sorts for this cluster alone, signed so that each
    vector's largest-magnitude entry is positive."""
    tol = 1e-7 * max(1.0, np.max(np.abs(np.linalg.eigvals(m))))

    def sel(re, im):
        return any(abs(complex(re, im) - t) <= tol for t in cluster)

    _, z, sdim = schur(m, output="real", sort=sel)
    basis = z[:, :sdim].copy()
    for j in range(sdim):
        if basis[np.argmax(np.abs(basis[:, j])), j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def rotation(re, im):
    """Real 2 x 2 block with eigenvalues re +- i im."""
    return np.array([[re, -im], [im, re]])


def similar(d, seed=0):
    """S D S^{-1} for a seeded Gaussian S: the same Jordan structure as D in
    non-normal coordinates."""
    s = np.random.default_rng(seed).standard_normal(np.shape(d))
    return s @ d @ np.linalg.inv(s)


# Each matrix with whether its one repeated cluster is semisimple; the kernel
# dimension of M - lam I (or of a pair's real quadratic) gives the same.
SEMISIMPLICITY = {
    "jordan-a_inv_t": (np.array([[2.0, 0.0], [-4.0, 2.0]]), False),
    "jordan-pair": (np.block([[rotation(0.5, 0.4), np.eye(2)],
                              [np.zeros((2, 2)), rotation(0.5, 0.4)]]), False),
    "coupled-1e-8": (np.array([[0.5, 1e-8], [0.0, 0.5]]), False),
    "coupled-1e-11": (np.array([[0.5, 1e-11], [0.0, 0.5]]), True),
    "triple-real": (similar(np.diag([0.3, 0.3, 0.3, 0.9, -0.2, 0.5])), True),
    "double-pair": (similar(block_diag(rotation(0.4, 0.3), rotation(0.4, 0.3),
                                       0.7, -0.1)), True),
    "2I": (2.0 * np.eye(2), True),
}


def projector(v):
    """Orthogonal projector onto the column space of ``v``."""
    q = orth_basis(v)
    return q @ q.T


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

    def test_solver_failure_in_bad_coordinates_is_typed(self):
        # A roundtrip model under a state similarity with cond S = 1e8: the
        # eigenvalue gap passes, but scipy's direct solve finds its
        # Kronecker system singular in these coordinates.
        wl = bench_workloads()
        a, b, c, d = wl.roundtrip_round(0, 0)[0]
        rng = np.random.default_rng([0, 0, 8])
        u, v = wl._orthogonal(rng, 3), wl._orthogonal(rng, 3)
        s = u @ np.diag(np.logspace(0, 8, 3)) @ v.T
        s_inv = np.linalg.inv(s)
        w = sf.Realization(s @ a @ s_inv, s @ b, c @ s_inv, d)
        cfg = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
        with pytest.raises(sf.SingularSteinOperator,
                           match="Stein solver failed.*cond M"):
            sf.conjugate_phase(w, cfg)


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
        assert_allclose(projector(v), np.diag([0.0, 0.0, 1.0, 1.0]),
                        atol=1e-15)

    def test_unit_vector(self):
        th = np.pi / 4
        v = np.array([[0.0], [0.0], [np.cos(th)], [np.sin(th)]])
        pi = projector(v)
        expected = np.zeros((4, 4))
        expected[2:, 2:] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert_allclose(pi, expected, atol=1e-15)

    def test_identity_basis(self):
        assert_allclose(projector(np.eye(3)), np.eye(3), atol=1e-15)

    def test_basis_independence(self, rng, config):
        v = rng.normal(size=(5, 2))
        r = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        gap = np.linalg.norm(projector(v) - projector(v @ r))
        assert gap <= config.residual_tol

    def test_rank_deficient_basis(self):
        v = np.ones((4, 2))
        with pytest.raises(sf.RankDeficientBasis):
            projector(v)

    def test_more_columns_than_rows_is_rank_deficient(self):
        # Every singular value of [I | 0] is one, but three columns in the
        # plane cannot be independent.
        with pytest.raises(sf.RankDeficientBasis):
            projector(np.eye(2, 3))

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
        pi = projector(v)
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
        assert_allclose(projector(v), np.eye(2), atol=1e-12)

    def test_complex_pair_split_rejected(self):
        rot = np.array([[0.5, -0.4], [0.4, 0.5]])
        with pytest.raises(sf.ComplexPairSplit):
            selection_basis(eigen_blocks(rot), [0])

    def test_selection_allows_full_repeated_cluster(self):
        m = np.diag([0.25, 1 / 3, 2.0, 2.0])
        v = selection_basis(eigen_blocks(m), [2, 3])
        pi = projector(v)
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

    @pytest.mark.parametrize("m, dim", [
        (np.diag(0.5 + 0.8e-7 * np.arange(5)), 5),
        (block_diag(*[[[0.5 + 0.8e-7 * j, -0.3], [0.3, 0.5 + 0.8e-7 * j]]
                      for j in range(5)]), 10),
    ], ids=["real", "pairs"])
    def test_chained_spectrum_is_one_cluster(self, m, dim):
        # Neighbours 0.8e-7 apart chain within the cluster tolerance 1e-7
        # into one cluster.  Its Schur block is (block) diagonal, so nothing
        # couples the eigenvalues: the cluster is semisimple.
        blocks = eigen_blocks(m)
        assert [(b.kind, b.dim) for b in blocks] == [("repeated", dim)]
        basis = blocks[0].basis
        assert_allclose(basis.T @ basis, np.eye(dim), atol=1e-13)
        assert sf.is_invariant(m, basis)
        assert selection_basis(blocks, range(dim)).shape == (dim, dim)

    @pytest.mark.parametrize("name", SEMISIMPLICITY)
    def test_semisimplicity_verdicts(self, name):
        m, semisimple = SEMISIMPLICITY[name]
        (blk,) = [b for b in eigen_blocks(m) if b.kind == "repeated"]
        assert (blk.basis is not None) == semisimple
        if semisimple:
            assert_allclose(blk.basis.T @ blk.basis, np.eye(blk.dim),
                            atol=1e-13)
            assert sf.is_invariant(m, blk.basis)

    @pytest.mark.parametrize("seed", range(5))
    def test_jordan_block_in_random_coordinates_is_defective(self, seed):
        # Rounding splits the double eigenvalue 0.7 by about 1e-8, along the
        # real axis or into a complex pair; either way one real cluster.  Its
        # polynomial is x - 0.7, not the real quadratic that a 2 x 2 Jordan
        # block satisfies, and a 2 x 2 Schur block keeps its non-normal part,
        # which holds the coupling.
        jordan = np.diag([0.7, 0.7, 0.2, -0.4])
        jordan[0, 1] = 1.0
        (blk,) = [b for b in eigen_blocks(similar(jordan, seed))
                  if b.kind == "repeated"]
        assert blk.dim == 2 and blk.basis is None

    def test_decides_semisimplicity_without_svd(self, monkeypatch):
        # Semisimplicity is read off the reordered Schur form, so no
        # singular value decomposition runs.
        def svd(*args, **kwargs):
            raise AssertionError("eigen_blocks called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", svd)
        blocks = eigen_blocks(np.diag([0.25, 1 / 3, 2.0, 2.0]))
        assert [b.basis is not None for b in blocks] == [True] * 3

    @pytest.mark.parametrize("m", [
        np.kron(np.eye(2), [[0.5, -0.4], [0.4, 0.5]]),
        non_normal(32),
    ], ids=["repeated-pair", "non-normal-32"])
    def test_block_bases_invariant_and_independent(self, m):
        blocks = eigen_blocks(m)
        assert sum(b.dim for b in blocks) == len(m)
        for b in blocks:
            assert_allclose(b.basis.T @ b.basis, np.eye(b.dim), atol=1e-13)
            assert sf.is_invariant(m, b.basis)
        stacked = np.hstack([b.basis for b in blocks])
        assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-3

    @pytest.mark.parametrize("m", [
        np.diag([0.25, 1 / 3, 2.0, 2.0]),
        np.kron(np.eye(2), [[0.5, -0.4], [0.4, 0.5]]),
        non_normal(32),
        non_normal(16, seed=1),
    ] + [getattr(sf.conjugate_phase(recipe_outer(8, 0)), name)
         for name in ("gamma", "a_inv_t")],
        ids=["diag", "repeated-pair", "non-normal-32", "non-normal-16",
             "recipe8_0-gamma", "recipe8_0-a_inv_t"])
    def test_block_bases_equal_sorted_schur_forms(self, m):
        # One Schur form reordered per block gives bit for bit the basis of
        # a Schur form sorted for that block alone.
        for b in eigen_blocks(m):
            assert np.array_equal(b.basis,
                                  sorted_schur_basis(m, b.eigenvalues))


    @pytest.mark.parametrize("handle, spoil", [
        ("_GEES", lambda out: out[:-1] + (1,)),
        ("_TRSEN", lambda out: out[:-1] + (1,)),
        ("_TRSEN", lambda out: out[:4] + (out[4] + 1,) + out[5:]),
        ("_TRSEN", lambda out: out[:2] + (out[2][::-1],) + out[3:]),
    ], ids=["gees-info", "trsen-info", "trsen-dimension", "trsen-order"])
    def test_failed_reorder_leaves_no_basis(self, monkeypatch, handle, spoil):
        # A failed decomposition, a reorder that counts another dimension,
        # or reordered eigenvalues that swap sides give no basis.
        lapack = getattr(matnum, handle)
        monkeypatch.setattr(matnum, handle,
                            lambda *args, **kw: spoil(lapack(*args, **kw)))
        blocks = eigen_blocks(np.diag([0.25, 0.5]))
        assert [b.basis for b in blocks] == [None, None]

    @pytest.mark.parametrize("pick", [
        lambda blocks: selection_basis(blocks, [0]),
        lambda blocks: _block_choices(blocks, "gamma", sf.DEFAULT_TOL),
    ], ids=["selection", "enumeration"])
    def test_failed_reorder_of_a_simple_block_is_not_defective(
            self, monkeypatch, pick):
        # A simple eigenvalue cannot be defective: its block lacks a basis
        # only because the reordering failed, and the error says so.
        lapack = matnum._TRSEN
        monkeypatch.setattr(matnum, "_TRSEN", lambda *args, **kw: (
            lapack(*args, **kw)[:-1] + (1,)))
        blocks = eigen_blocks(np.diag([0.25, 0.5]))
        with pytest.raises(sf.AmbiguousEigenspace) as err:
            pick(blocks)
        assert str(err.value) == ("real block at (0.25+0j): its Schur "
                                  "reordering gave no basis")


class TestSchurSplit:
    # Eigenvalues 0.5 and the pair 0.2 +- 0.6i on top, 0.3 at the bottom,
    # 1.5 and 0.9 kept between, in non-normal coordinates.
    TOP = np.array([0.2 - 0.6j, 0.2 + 0.6j, 0.5])
    BOTTOM = np.array([0.3])

    M = similar(block_diag(0.9, rotation(0.2, 0.6), 0.3, 1.5, 0.5))

    def test_three_groups(self):
        m = self.M
        t, q = matnum._schur_split(m, self.TOP, self.BOTTOM)
        assert_allclose(q.T @ q, np.eye(6), atol=1e-13)
        assert_allclose(q.T @ m @ q, t, atol=1e-12 * np.linalg.norm(m))
        assert np.all(np.abs(np.tril(t, -2)) == 0.0)
        for rows, want in ((slice(0, 3), self.TOP), (slice(5, 6), self.BOTTOM),
                           (slice(3, 5), np.array([0.9, 1.5]))):
            got = np.sort_complex(np.linalg.eigvals(t[rows, rows]))
            assert_allclose(got, np.sort_complex(want), atol=1e-10)

    @pytest.mark.parametrize("top, bottom", [
        (TOP, np.array([0.5])),          # one eigenvalue listed at both ends
        (np.array([0.9, 0.9]), BOTTOM),  # listed twice, present once
    ], ids=["shared", "repeated"])
    def test_groups_that_do_not_separate(self, top, bottom):
        assert matnum._schur_split(self.M, top, bottom) is None


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
