"""Element integration, assembly and the linear solver."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from monocal import fem

from monocal.errors import (AssemblyError, InvalidArgumentError,
                            NonConvergenceError)
from monocal.fem import (assemble_mass, assemble_stiffness, gauss2,
                         gmres_solve, lumped_mass_vector,
                         precompute_geometry, solve_dirichlet)
from monocal.geometry import Mesh, build_lv_mesh, build_slab_mesh


class TestQuadrature:
    def test_weights_sum_to_reference_volume(self):
        rule = gauss2()
        assert rule.points.shape == (8, 3)
        assert np.all(rule.weights == 1.0)

    def test_exact_for_cubic_monomials(self):
        rule = gauss2()

        def analytic(p):
            return 2.0 / (p + 1) if p % 2 == 0 else 0.0

        for a in range(4):
            for b in range(4):
                for c in range(4):
                    vals = (rule.points[:, 0] ** a * rule.points[:, 1] ** b
                            * rule.points[:, 2] ** c)
                    exact = analytic(a) * analytic(b) * analytic(c)
                    assert np.isclose(rule.weights @ vals, exact, atol=1e-12)


class TestMass:
    def test_unit_cube_lumped_corners(self, unit_cube):
        assert np.allclose(lumped_mass_vector(unit_cube), 0.125, rtol=1e-14)

    def test_unit_cube_consistent_total(self, unit_cube):
        M = assemble_mass(unit_cube)
        assert np.isclose(M.sum(), 1.0, rtol=1e-14)

    def test_two_brick_lumped_values(self):
        # two 0.5 cm cubes sharing a face: interface nodes carry two
        # element corner contributions, outer corners one
        mesh = build_slab_mesh((1.0, 0.5, 0.5), 0.5)
        lumped = lumped_mass_vector(mesh)
        corner_share = 0.5 ** 3 / 8.0
        outer = np.isin(mesh.nodes[:, 0], (0.0, 1.0))
        assert np.allclose(lumped[outer], corner_share, rtol=1e-14)
        assert np.allclose(lumped[~outer], 2 * corner_share, rtol=1e-14)

    def test_lumping_matches_row_sums(self, small_slab):
        M = assemble_mass(small_slab)
        row_sums = np.asarray(M.sum(axis=1)).ravel()
        assert np.allclose(lumped_mass_vector(small_slab), row_sums,
                           rtol=1e-13)
        diag = assemble_mass(small_slab, lumped=True).diagonal()
        assert np.allclose(diag, row_sums, rtol=1e-13)

    def test_total_mass_equals_volume_on_curved_mesh(self):
        mesh = build_lv_mesh((0.45, 0.45, 1.05), (0.6, 0.6, 1.2), 0.3, 0.07)
        volume = mesh.element_volumes().sum()
        assert np.isclose(assemble_mass(mesh).sum(), volume, rtol=1e-10)
        lumped = lumped_mass_vector(mesh)
        assert np.all(lumped > 0.0)
        assert np.isclose(lumped.sum(), volume, rtol=1e-10)


class TestStiffness:
    def test_zero_tensor_gives_zero_matrix(self, small_slab):
        K = assemble_stiffness(small_slab, np.zeros((3, 3)))
        assert K.nnz == 0 or np.max(np.abs(K.data)) == 0.0

    def test_constants_in_kernel(self, small_slab):
        D = np.array([[1.3, 0.2, 0.1], [0.2, 0.9, 0.05], [0.1, 0.05, 0.4]])
        K = assemble_stiffness(small_slab, D)
        ones = np.ones(small_slab.n_nodes)
        scale = np.max(np.abs(K.data))
        assert np.max(np.abs(K @ ones)) <= 1e-12 * scale

    def test_unit_cube_identity_diagonal(self, unit_cube):
        K = assemble_stiffness(unit_cube, np.eye(3))
        assert np.allclose(K.diagonal(), 1.0 / 3.0, rtol=1e-13)

    def test_symmetry(self, small_slab):
        D = np.diag((1.23, 0.25, 0.07))
        K = assemble_stiffness(small_slab, D)
        gap = np.abs((K - K.T).data)
        scale = np.max(np.abs(K.data))
        assert gap.size == 0 or gap.max() <= 1e-12 * scale

    def test_nonsymmetric_tensor_is_rejected(self, unit_cube):
        D = np.eye(3)
        D[0, 1] = 0.5
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            assemble_stiffness(unit_cube, D)

    def test_assembly_is_deterministic(self, small_slab):
        D = np.diag((1.0, 0.5, 0.25))
        a = assemble_stiffness(small_slab, D)
        b = assemble_stiffness(small_slab, D)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)

    def test_inverted_element_is_reported(self, unit_cube):
        flipped = Mesh(nodes=unit_cube.nodes,
                       elems=unit_cube.elems[:, [4, 5, 6, 7, 0, 1, 2, 3]],
                       boundary_faces=unit_cube.boundary_faces,
                       boundary_tags=unit_cube.boundary_tags,
                       characteristic_size=1.0)
        with pytest.raises(AssemblyError, match="non-positive Jacobian"):
            precompute_geometry(flipped)


def _random_spd(rng, n):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = rng.uniform(1.0, 10.0, size=n)
    return (Q * eigenvalues) @ Q.T


class TestGmres:
    def test_identity_system(self):
        b = np.array([1.0, -2.0, 3.0])
        report = gmres_solve(np.eye(3), b)
        assert report.converged
        assert report.iterations <= 1
        assert np.allclose(report.x, b, atol=1e-12)

    def test_diagonal_system(self):
        A = np.diag((2.0, 4.0))
        report = gmres_solve(A, np.array([2.0, 8.0]))
        assert np.allclose(report.x, (1.0, 2.0), atol=1e-12)

    def test_zero_rhs(self):
        report = gmres_solve(np.eye(4), np.zeros(4))
        assert report.converged
        assert report.iterations == 0
        assert np.array_equal(report.x, np.zeros(4))

    def test_matches_dense_factorization(self):
        rng = np.random.default_rng(17)
        A = _random_spd(rng, 50)
        b = rng.normal(size=50)
        exact = np.linalg.solve(A, b)
        report = gmres_solve(A, b, rel_tol=1e-12)
        assert np.linalg.norm(report.x - exact) <= \
            1e-10 * np.linalg.norm(exact)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_spd_residuals(self, seed):
        rng = np.random.default_rng(seed)
        A = _random_spd(rng, 20)
        b = rng.normal(size=20)
        report = gmres_solve(A, b, rel_tol=1e-11)
        assert report.converged
        assert np.linalg.norm(b - A @ report.x) <= \
            1e-10 * np.linalg.norm(b)

    def test_budget_exhaustion_carries_best_iterate(self):
        rng = np.random.default_rng(23)
        A = _random_spd(rng, 50)
        b = rng.normal(size=50)
        with pytest.raises(NonConvergenceError) as err:
            gmres_solve(A, b, rel_tol=1e-14, max_iter=2)
        assert err.value.iterations == 2
        assert err.value.best is not None
        assert err.value.residual > 0.0

    def test_jacobi_needs_nonzero_diagonal(self):
        for A in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[-2.0, 0.5], [0.5, 3.0]])):
            with pytest.raises(InvalidArgumentError, match="diagonal"):
                gmres_solve(A, np.ones(2))

    def test_indefinite_matrix_is_rejected(self):
        # positive diagonal, eigenvalues 3 and -1: the first search
        # direction (1, -1) has p^T A p = -2
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="SPD"):
            gmres_solve(A, np.array([1.0, -1.0]))


class TestSolveDirichlet:
    # "direct" swaps the reduced-system solve for sparse LU, so the
    # elimination of the fixed nodes is checked apart from the iterative
    # solver; "gmres" runs the production path (fem.gmres_solve, which
    # is conjugate gradients).
    @pytest.mark.parametrize("method", ["direct", "gmres"])
    def test_linear_solution_is_reproduced(self, method, monkeypatch):
        if method == "direct":
            monkeypatch.setattr(
                fem, "gmres_solve",
                lambda A, b: SimpleNamespace(x=spsolve(A.tocsc(), b)))
        mesh = build_slab_mesh((0.2, 0.1, 0.05), 0.05)
        K = assemble_stiffness(mesh, np.eye(3))
        left = np.nonzero(mesh.nodes[:, 0] == 0.0)[0]
        right = np.nonzero(mesh.nodes[:, 0] == 0.2)[0]
        fixed = np.concatenate([left, right])
        values = np.concatenate([np.zeros(len(left)), np.ones(len(right))])
        u = solve_dirichlet(K, np.zeros(mesh.n_nodes), fixed, values)
        assert np.allclose(u, mesh.nodes[:, 0] / 0.2, atol=1e-8)
