"""The batched 3x3 geometry kernel and the assembly built on it, checked
against the generic numpy formulas they replace."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from monocal import _hex, twin
from monocal.errors import AssemblyError, InvalidArgumentError
from monocal.fem import AssemblyPlan
from monocal.fibers import nodal_gradients
from monocal.geometry import Mesh, build_lv_mesh

from oracles import assemble


@pytest.fixture(scope="module")
def twin_mesh():
    return build_lv_mesh(twin.ENDO_AXES, twin.EPI_AXES,
                         twin.TRUNCATION_HEIGHT, twin.DEFAULT_H)


def _random_jacobians(rng, shape):
    """Rotations times well-conditioned positive-diagonal shears: every
    matrix has a positive determinant and a condition number below 10."""
    q, _ = np.linalg.qr(rng.normal(size=shape + (3, 3)))
    q *= np.sign(np.linalg.det(q))[..., None, None]
    upper = np.triu(rng.uniform(-0.3, 0.3, size=shape + (3, 3)), k=1)
    scale = rng.uniform(0.5, 2.0, size=shape + (3,))
    return q @ (upper + scale[..., None] * np.eye(3))


def _assert_matches_linalg(jac):
    det, inv_t = _hex.inverse_transposes(jac, InvalidArgumentError, "point")
    ref_det = np.linalg.det(jac)
    ref_inv_t = np.linalg.inv(jac).swapaxes(-1, -2)
    assert np.all(np.abs(det - ref_det) <= 1e-12 * np.abs(ref_det))
    assert np.array_equal(_hex.determinants(jac), det)
    scale = np.abs(ref_inv_t).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(inv_t - ref_inv_t) <= 1e-12 * scale)


class TestKernel:
    def test_jacobians_match_the_einsum_formula(self, twin_mesh):
        corners = twin_mesh.nodes[twin_mesh.elems]
        for points in (_hex.CORNERS, _hex.GAUSS2):
            ref = np.einsum("eka,pkd->epad", corners,
                            _hex.shape_gradients(points))
            jac = _hex.jacobians(corners, points)
            assert jac.shape == ref.shape
            assert np.abs(jac - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_random_batches_match_linalg(self):
        rng = np.random.default_rng(7)
        for shape in ((1, 1), (50, 8), (400, 3)):
            _assert_matches_linalg(_random_jacobians(rng, shape))

    @pytest.mark.parametrize("points", ["CORNERS", "GAUSS2"])
    def test_twin_jacobians_match_linalg(self, twin_mesh, points):
        _assert_matches_linalg(_hex.jacobians(
            twin_mesh.nodes[twin_mesh.elems], getattr(_hex, points)))

    def test_determinants_keep_the_sign(self):
        jac = _random_jacobians(np.random.default_rng(3), (20, 2))
        flipped = jac[..., [1, 0, 2], :]
        assert np.allclose(_hex.determinants(flipped), -np.linalg.det(jac),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_degenerate_matrix_is_named_before_dividing(self, bad):
        jac = _random_jacobians(np.random.default_rng(5), (6, 8))
        jac[4, 2, :, 1] = 0.0 if bad == 0.0 else np.nan
        with pytest.raises(AssemblyError, match="element 4 .*Gauss point"):
            _hex.inverse_transposes(jac, AssemblyError, "Gauss point")


def _flattened(mesh, elem):
    """The mesh with one element's top face collapsed onto its bottom:
    that element has det J = 0 everywhere, every other one is intact."""
    elems = mesh.elems.copy()
    elems[elem, 4:] = elems[elem, :4]
    return _with_elems(mesh, elems)


def _turned_inside_out(mesh, elem):
    """The mesh with one element's top and bottom faces swapped: that
    element has det J < 0 everywhere and no repeated corner, every other
    one is intact."""
    elems = mesh.elems.copy()
    elems[elem] = elems[elem, [4, 5, 6, 7, 0, 1, 2, 3]]
    return _with_elems(mesh, elems)


def _with_elems(mesh, elems):
    return Mesh(nodes=mesh.nodes, elems=elems,
                boundary_faces=mesh.boundary_faces,
                boundary_tags=mesh.boundary_tags,
                characteristic_size=mesh.characteristic_size)


@pytest.mark.filterwarnings("error")
class TestDegenerateElement:
    def test_assembly_names_it(self, small_slab):
        with pytest.raises(AssemblyError, match="element 3 is inverted"):
            AssemblyPlan(_flattened(small_slab, 3))

    def test_fiber_gradients_name_it(self, small_slab):
        mesh = _flattened(small_slab, 5)
        with pytest.raises(InvalidArgumentError, match="element 5 is inverted"):
            nodal_gradients(mesh, mesh.nodes[:, 0])

    def test_audit_names_it(self, small_slab):
        # the audit sees repeated corners first, so move a node instead:
        # drop the slab's top corner, which only the last element holds,
        # onto the node below it
        last = small_slab.n_elems - 1
        corner, below = small_slab.elems[last, 6], small_slab.elems[last, 2]
        assert np.count_nonzero(small_slab.elems == corner) == 1
        nodes = small_slab.nodes.copy()
        nodes[corner] = nodes[below]
        mesh = Mesh(nodes=nodes, elems=small_slab.elems,
                    boundary_faces=small_slab.boundary_faces,
                    boundary_tags=small_slab.boundary_tags,
                    characteristic_size=small_slab.characteristic_size)
        with pytest.raises(InvalidArgumentError,
                           match=f"element {last} is inverted"):
            mesh.validate()


@pytest.mark.filterwarnings("error")
class TestDegenerateElementPastTheFirstBlock:
    """Every blocked pass names a bad element by its global id, not by
    its place in its block."""

    ELEM = _hex.BLOCK + 3

    def test_audit_names_it(self, twin_mesh):
        mesh = _turned_inside_out(twin_mesh, self.ELEM)
        with pytest.raises(InvalidArgumentError,
                           match=f"element {self.ELEM} is inverted"):
            mesh.validate()

    def test_assembly_names_it(self, twin_mesh):
        with pytest.raises(AssemblyError,
                           match=f"element {self.ELEM} is inverted"):
            AssemblyPlan(_flattened(twin_mesh, self.ELEM))

    def test_fiber_gradients_name_it(self, twin_mesh):
        mesh = _flattened(twin_mesh, self.ELEM)
        with pytest.raises(InvalidArgumentError,
                           match=f"element {self.ELEM} is inverted"):
            nodal_gradients(mesh, mesh.nodes[:, 0])


def _lexsort_pattern(elems, n):
    """The CSR pattern as the assembly first built it: lexsort of the
    (row, col) pairs and an indptr counted with np.add.at."""
    rows = np.repeat(elems, 8, axis=1).ravel()
    cols = np.tile(elems, (1, 8)).ravel()
    order = np.lexsort((cols, rows))
    rs, cs = rows[order], cols[order]
    new_pair = np.empty(len(rs), dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    entry_slots = np.empty(len(rs), dtype=np.int32)
    entry_slots[order] = np.cumsum(new_pair) - 1
    unique_rows, unique_cols = rs[new_pair], cs[new_pair]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.add.at(indptr, unique_rows + 1, 1)
    return (entry_slots, np.cumsum(indptr, dtype=np.int32),
            unique_cols.astype(np.int32),
            np.nonzero(unique_rows == unique_cols)[0])


def _random_spd(n, seed=11):
    a = np.random.default_rng(seed).normal(size=(n, 3, 3))
    return a @ a.transpose(0, 2, 1) + np.eye(3)


def _traced_peak_mb(call):
    """The tracemalloc peak, in MB, of one call."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / 1e6


class TestAssemblyPlan:
    @pytest.mark.parametrize("which", ["small_slab", "twin_mesh"])
    def test_pattern_equals_the_lexsort_one(self, which, request):
        mesh = request.getfixturevalue(which)
        plan = AssemblyPlan(mesh)
        slots, indptr, indices, diag = _lexsort_pattern(mesh.elems,
                                                        mesh.n_nodes)
        for got, want in ((plan.entry_slots, slots), (plan.indptr, indptr),
                          (plan.indices, indices), (plan.diag_slots, diag)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert plan.nnz == len(indices)

    def test_stiffness_matches_the_einsum_formula(self, twin_mesh):
        plan = AssemblyPlan(twin_mesh)
        tensors = _random_spd(twin_mesh.n_elems)
        # the einsum the matmul contraction replaced, on grads indexed
        # [element, Gauss point, shape function, axis]
        grads = plan.gradients(slice(None)).transpose(0, 2, 1, 3)
        blocks = np.einsum("eq,eqid,edc,eqjc->eij", plan.wdet, grads,
                           tensors, grads, optimize=True)
        ref = assemble(plan, blocks)
        got = plan.stiffness(tensors)
        assert np.array_equal(got.indices, ref.indices)
        assert np.abs(got.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()

    def test_geometry_matches_linalg(self, twin_mesh):
        plan = AssemblyPlan(twin_mesh)
        jac = np.einsum("eka,pkd->epad", twin_mesh.nodes[twin_mesh.elems],
                        _hex.shape_gradients(_hex.GAUSS2))
        ref_det = np.linalg.det(jac)
        ref_grads = np.einsum("epab,pkb->ekpa",
                              np.linalg.inv(jac).swapaxes(-1, -2),
                              _hex.shape_gradients(_hex.GAUSS2))
        assert np.all(np.abs(plan.wdet - ref_det) <= 1e-12 * ref_det)
        assert (np.abs(plan.gradients(slice(None)) - ref_grads).max()
                <= 1e-12 * np.abs(ref_grads).max())
        ref_mass = np.bincount(
            twin_mesh.elems.ravel(),
            weights=(ref_det @ _hex.shape_values(_hex.GAUSS2)).ravel())
        assert np.allclose(plan.lumped_mass, ref_mass, rtol=1e-12, atol=0.0)

    def test_blocked_stiffness_equals_the_unblocked_formula(self, twin_mesh):
        n_elems = twin_mesh.n_elems
        assert n_elems % _hex.BLOCK != 0
        plan = AssemblyPlan(twin_mesh)
        tensors = _random_spd(n_elems, seed=5)
        # the same products over all elements at once
        grads = plan.gradients(slice(None))
        flux = np.matmul(grads.reshape(n_elems, 64, 3), tensors)
        flux = flux.reshape(n_elems, 8, 24)
        flux *= np.repeat(plan.wdet, 3, axis=1)[:, None, :]
        ref = assemble(plan, np.matmul(
            flux, grads.reshape(n_elems, 8, 24).transpose(0, 2, 1)))
        got = plan.stiffness(tensors)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_blocked_geometry_equals_the_unblocked_formula(self, twin_mesh):
        plan = AssemblyPlan(twin_mesh)
        # the same kernel over all elements at once
        jac = _hex.jacobians(twin_mesh.nodes[twin_mesh.elems], _hex.GAUSS2)
        wdet, inv_t = _hex.inverse_transposes(jac, AssemblyError,
                                              "Gauss point")
        assert np.array_equal(plan.wdet, wdet)
        assert np.array_equal(plan.inv_t, inv_t)
        mass = np.bincount(twin_mesh.elems.ravel(),
                           weights=(wdet @ _hex.shape_values(_hex.GAUSS2)).ravel(),
                           minlength=twin_mesh.n_nodes)
        assert np.array_equal(plan.lumped_mass, mass)

    def test_set_up_memory_stays_bounded(self, twin_mesh):
        # measured on the twin with every per-element pass blocked: 8.7 MB
        # for the plan (10.0 MB with whole-mesh geometry and int64 slots,
        # 19.4 MB when it sorted all 64 n_elems block keys and kept the
        # gradients), 4.1 MB for one stiffness call (5.7 MB with all
        # element matrices stored, 12.9 MB unblocked), 1.4 MB for the
        # audit (5.7 MB unblocked) and 1.8 MB for the fiber gradients of
        # two fields (10.8 MB unblocked)
        assert _traced_peak_mb(lambda: AssemblyPlan(twin_mesh)) <= 10.0
        plan = AssemblyPlan(twin_mesh)
        tensors = _random_spd(twin_mesh.n_elems)
        assert _traced_peak_mb(lambda: plan.stiffness(tensors)) <= 5.0
        assert _traced_peak_mb(twin_mesh.validate) <= 2.0
        fields = twin_mesh.nodes[:, 0].copy(), twin_mesh.nodes[:, 2].copy()
        assert _traced_peak_mb(
            lambda: nodal_gradients(twin_mesh, *fields)) <= 2.5


def test_blocked_fiber_gradients_equal_the_unblocked_formula(twin_mesh):
    assert twin_mesh.n_elems % _hex.BLOCK != 0
    nodes, elems, n = twin_mesh.nodes, twin_mesh.elems, twin_mesh.n_nodes
    fields = (nodes[:, 0] ** 2, np.sin(nodes @ [1.0, 2.0, 3.0]))
    # the corner geometry of all elements at once, each sum one bincount
    jac = _hex.jacobians(nodes[elems], _hex.CORNERS)
    det, inv_t = _hex.inverse_transposes(jac, InvalidArgumentError, "corner")
    dN = _hex.shape_gradients(_hex.CORNERS).transpose(1, 0, 2).reshape(8, 24)
    wsum = np.bincount(elems.ravel(), weights=det.ravel(), minlength=n)
    for field, got in zip(fields, nodal_gradients(twin_mesh, *fields)):
        ref_grad = (field[elems] @ dN).reshape(-1, 8, 1, 3)
        grad = np.matmul(ref_grad, inv_t.transpose(0, 1, 3, 2))[:, :, 0]
        want = np.stack([np.bincount(elems.ravel(),
                                     weights=(det * grad[:, :, d]).ravel(),
                                     minlength=n) for d in range(3)], axis=1)
        assert np.array_equal(got, want / wsum[:, None])
