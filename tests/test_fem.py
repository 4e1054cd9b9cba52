"""Element integration, assembly and the linear solver."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from monocal import _hex, fem

from monocal.errors import InvalidArgumentError, MonocalError
from monocal.fem import AssemblyPlan, gmres_solve, solve_dirichlet
from monocal.fibers import FiberAngles, generate_fibers
from monocal.geometry import Mesh, build_lv_mesh, build_slab_mesh
from monocal.solver import SolverParams, build_conductivity_tensors, simulate

from oracles import assemble_mass, element_volumes, single_plan


def lumped_mass(mesh):
    return AssemblyPlan(mesh).lumped_mass


def stiffness(mesh, tensors):
    return AssemblyPlan(mesh).stiffness(tensors)


class TestQuadrature:
    # every weight of _hex.GAUSS2 is one, so a rule sum is a plain sum
    def test_weights_sum_to_reference_volume(self):
        assert _hex.GAUSS2.shape == (8, 3)
        assert np.array_equal(np.sign(_hex.GAUSS2), _hex.CORNERS)
        assert np.allclose(np.abs(_hex.GAUSS2), 1.0 / np.sqrt(3.0), rtol=1e-15)

    def test_exact_for_cubic_monomials(self):
        points = _hex.GAUSS2

        def analytic(p):
            return 2.0 / (p + 1) if p % 2 == 0 else 0.0

        for a in range(4):
            for b in range(4):
                for c in range(4):
                    vals = (points[:, 0] ** a * points[:, 1] ** b
                            * points[:, 2] ** c)
                    exact = analytic(a) * analytic(b) * analytic(c)
                    assert np.isclose(vals.sum(), exact, atol=1e-12)


class TestMass:
    def test_unit_cube_lumped_corners(self, unit_cube):
        assert np.allclose(lumped_mass(unit_cube), 0.125, rtol=1e-14)

    def test_unit_cube_consistent_total(self, unit_cube):
        M = assemble_mass(unit_cube)
        assert np.isclose(M.sum(), 1.0, rtol=1e-14)

    def test_two_brick_lumped_values(self):
        # two 0.5 cm cubes sharing a face: interface nodes carry two
        # element corner contributions, outer corners one
        mesh = build_slab_mesh((1.0, 0.5, 0.5), 0.5)
        lumped = lumped_mass(mesh)
        corner_share = 0.5 ** 3 / 8.0
        outer = np.isin(mesh.nodes[:, 0], (0.0, 1.0))
        assert np.allclose(lumped[outer], corner_share, rtol=1e-14)
        assert np.allclose(lumped[~outer], 2 * corner_share, rtol=1e-14)

    def test_lumping_matches_row_sums(self, small_slab):
        M = assemble_mass(small_slab)
        row_sums = np.asarray(M.sum(axis=1)).ravel()
        assert np.allclose(lumped_mass(small_slab), row_sums,
                           rtol=1e-13)

    def test_total_mass_equals_volume_on_curved_mesh(self):
        mesh = build_lv_mesh((0.45, 0.45, 1.05), (0.6, 0.6, 1.2), 0.3, 0.07)
        volume = element_volumes(mesh).sum()
        assert np.isclose(assemble_mass(mesh).sum(), volume, rtol=1e-10)
        lumped = lumped_mass(mesh)
        assert np.all(lumped > 0.0)
        assert np.isclose(lumped.sum(), volume, rtol=1e-10)


class TestStiffness:
    def test_zero_tensor_gives_zero_matrix(self, small_slab):
        K = stiffness(small_slab, np.zeros((3, 3)))
        assert K.nnz == 0 or np.max(np.abs(K.data)) == 0.0

    def test_constants_in_kernel(self, small_slab):
        D = np.array([[1.3, 0.2, 0.1], [0.2, 0.9, 0.05], [0.1, 0.05, 0.4]])
        K = stiffness(small_slab, D)
        ones = np.ones(small_slab.n_nodes)
        scale = np.max(np.abs(K.data))
        assert np.max(np.abs(K @ ones)) <= 1e-12 * scale

    def test_unit_cube_identity_diagonal(self, unit_cube):
        K = stiffness(unit_cube, np.eye(3))
        assert np.allclose(K.diagonal(), 1.0 / 3.0, rtol=1e-13)

    def test_symmetry(self, small_slab):
        D = np.diag((1.23, 0.25, 0.07))
        K = stiffness(small_slab, D)
        gap = np.abs((K - K.T).data)
        scale = np.max(np.abs(K.data))
        assert gap.size == 0 or gap.max() <= 1e-12 * scale

    def test_assembly_is_deterministic(self, small_slab):
        # two fresh plans: neither matrix comes from a shared one
        D = np.diag((1.0, 0.5, 0.25))
        a = AssemblyPlan(small_slab).stiffness(D)
        b = AssemblyPlan(small_slab).stiffness(D)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)

    def test_inverted_element_is_reported(self, unit_cube):
        flipped = Mesh(nodes=unit_cube.nodes,
                       elems=unit_cube.elems[:, [4, 5, 6, 7, 0, 1, 2, 3]],
                       boundary_faces=unit_cube.boundary_faces,
                       boundary_tags=unit_cube.boundary_tags,
                       characteristic_size=1.0)
        with pytest.raises(InvalidArgumentError,
                           match="element 0 is inverted or degenerate "
                                 r"\(non-positive Jacobian at a Gauss point\)"):
            AssemblyPlan(flipped)


class TestSharedPlan:
    def test_fibers_and_simulations_share_one_plan(self, monkeypatch):
        built = []
        init = AssemblyPlan.__init__

        def counting_init(plan, mesh):
            built.append(mesh)
            init(plan, mesh)

        monkeypatch.setattr(AssemblyPlan, "__init__", counting_init)
        mesh = build_slab_mesh((0.3, 0.1, 0.1), 0.05)
        fibers = generate_fibers(mesh, FiberAngles())
        stimulus = single_plan((0.0, 0.0, 0.0))
        for sigma in ((1.3, 0.3, 0.07), (1.0, 0.25, 0.05)):
            simulate(mesh, fibers, SolverParams(sigma=sigma, t_end=1.0),
                     stimulus)
        assert built == [mesh]
        monkeypatch.undo()

        shared, fresh = AssemblyPlan.of(mesh), AssemblyPlan(mesh)
        tensors = build_conductivity_tensors(mesh, fibers, (1.3, 0.3, 0.07))
        assert np.array_equal(shared.stiffness(tensors).data,
                              fresh.stiffness(tensors).data)
        assert np.array_equal(shared.lumped_mass, fresh.lumped_mass)


def _random_spd(rng, n):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = rng.uniform(1.0, 10.0, size=n)
    return (Q * eigenvalues) @ Q.T


class TestGmres:
    def test_identity_system(self):
        b = np.array([1.0, -2.0, 3.0])
        report = gmres_solve(np.eye(3), b)
        assert np.linalg.norm(b - np.eye(3) @ report.x) <= \
            1e-10 * np.linalg.norm(b)
        assert report.iterations <= 1
        assert np.allclose(report.x, b, atol=1e-12)

    def test_diagonal_system(self):
        A = np.diag((2.0, 4.0))
        report = gmres_solve(A, np.array([2.0, 8.0]))
        assert np.allclose(report.x, (1.0, 2.0), atol=1e-12)

    def test_zero_rhs(self):
        A, b = np.eye(4), np.zeros(4)
        report = gmres_solve(A, b)
        assert np.linalg.norm(b - A @ report.x) <= 1e-10 * np.linalg.norm(b)
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
        assert np.linalg.norm(b - A @ report.x) <= \
            1e-11 * np.linalg.norm(b)

    def test_budget_exhaustion_is_reported(self):
        rng = np.random.default_rng(23)
        A = _random_spd(rng, 50)
        b = rng.normal(size=50)
        with pytest.raises(MonocalError, match="CG did not reach"):
            gmres_solve(A, b, rel_tol=1e-14, max_iter=2)

    def test_jacobi_needs_nonzero_diagonal(self):
        for A in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[-2.0, 0.5], [0.5, 3.0]])):
            with pytest.raises(InvalidArgumentError, match="diagonal"):
                gmres_solve(A, np.ones(2))

    def test_supplied_diagonal_is_checked_and_used(self):
        with pytest.raises(InvalidArgumentError, match="diagonal"):
            gmres_solve(np.eye(2), np.ones(2), diag=np.array([1.0, -1.0]))
        rng = np.random.default_rng(5)
        A = _random_spd(rng, 30)
        b = rng.normal(size=30)
        given = gmres_solve(A, b, diag=np.diag(A).copy())
        assert np.array_equal(given.x, gmres_solve(A, b).x)

    def test_indefinite_matrix_is_rejected(self):
        # positive diagonal, eigenvalues 3 and -1: the first search
        # direction (1, -1) has p^T A p = -2
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="SPD"):
            gmres_solve(A, np.array([1.0, -1.0]))

    def test_dot_is_the_plain_product_up_to_one_chunk(self):
        # every h = 0.05 system (7,556 unknowns on the twin) keeps its bits
        rng = np.random.default_rng(3)
        for n in (1, 2, 7556, fem._DOT_CHUNK):
            a, b = rng.normal(size=(2, n))
            assert fem._dot(a, b) == a @ b, n
        c = fem._DOT_CHUNK
        a, b = rng.normal(size=(2, 2 * c + 5))
        assert fem._dot(a, b) == (a[:c] @ b[:c] + a[c:2 * c] @ b[c:2 * c]
                                  + a[2 * c:] @ b[2 * c:])

    def test_solve_bits_do_not_depend_on_blas_threads(self):
        # 13,125 nodes, over 10,000 of them free: OpenBLAS splits a plain
        # ddot of that length across threads, summing in another order
        src = str(Path(fem.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import hashlib; import numpy as np; "
                "from monocal import fem, fibers, geometry; "
                "m = geometry.build_slab_mesh((1.2, 1.2, 1.0), 0.05); "
                "laplace = fem.AssemblyPlan.of(m).stiffness(np.eye(3)); "
                "x = fibers.solve_transmural(m, laplace); "
                "print(m.n_nodes, hashlib.sha256(x.tobytes()).hexdigest())")
        runs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": n})
                .stdout.split() for n in ("1", "2")]
        assert runs[0][0] == "13125"
        assert runs[0] == runs[1]


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
        K = stiffness(mesh, np.eye(3))
        left = np.nonzero(mesh.nodes[:, 0] == 0.0)[0]
        right = np.nonzero(mesh.nodes[:, 0] == 0.2)[0]
        fixed = np.concatenate([left, right])
        values = np.concatenate([np.zeros(len(left)), np.ones(len(right))])
        u = solve_dirichlet(K, fixed, values)
        assert np.allclose(u, mesh.nodes[:, 0] / 0.2, atol=1e-8)
