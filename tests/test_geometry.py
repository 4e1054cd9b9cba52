"""Mesh generation and structural audit."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import monocal
from monocal import twin
from monocal.errors import InvalidArgumentError
from monocal.geometry import Mesh, SurfaceTag, build_lv_mesh, build_slab_mesh

from oracles import element_volumes


class TestBuildSlabMesh:
    def test_single_unit_cube(self):
        mesh = build_slab_mesh((1.0, 1.0, 1.0), 1.0)
        assert mesh.n_elems == 1
        assert mesh.n_nodes == 8
        mesh.validate()

    def test_two_by_one_brick_counts(self):
        mesh = build_slab_mesh((2.0, 1.0, 1.0), 0.5)
        assert mesh.n_elems == 16
        assert mesh.n_nodes == 45

    def test_acceptance_slab_counts_and_volumes(self):
        mesh = build_slab_mesh((0.7, 0.7, 0.3), 0.035)
        # 20 x 20 cells in plane; 0.3 / 0.035 rounds to 9 layers
        assert mesh.n_elems == 20 * 20 * 9
        assert mesh.n_nodes == 21 * 21 * 10
        volumes = element_volumes(mesh)
        assert np.all(volumes > 0.0)
        assert np.isclose(volumes.sum(), 0.7 * 0.7 * 0.3, rtol=1e-12)

    def test_face_tags(self):
        mesh = build_slab_mesh((0.2, 0.2, 0.1), 0.1)
        endo = mesh.boundary_node_ids(int(SurfaceTag.ENDO))
        epi = mesh.boundary_node_ids(int(SurfaceTag.EPI))
        assert np.all(mesh.nodes[endo, 2] == 0.0)
        assert np.all(mesh.nodes[epi, 2] == 0.1)
        assert len(endo) == len(epi) == 9

    def test_halving_h_gives_eight_times_elements(self):
        coarse = build_slab_mesh((0.4, 0.2, 0.1), 0.05)
        fine = build_slab_mesh((0.4, 0.2, 0.1), 0.025)
        assert fine.n_elems == 8 * coarse.n_elems

    @pytest.mark.parametrize("extents,h", [
        ((0.0, 1.0, 1.0), 0.1),
        ((1.0, -1.0, 1.0), 0.1),
        ((1.0, 1.0, 1.0), 0.0),
        ((1.0, 1.0, 1.0), -0.5),
    ])
    def test_rejects_nonpositive_sizes(self, extents, h):
        with pytest.raises(InvalidArgumentError):
            build_slab_mesh(extents, h)


class TestBuildLvMesh:
    def test_shell_is_closed_and_fully_tagged(self):
        mesh = build_lv_mesh((1.5, 1.5, 3.0), (2.0, 2.0, 3.5), 1.0, 0.1)
        mesh.validate()
        tags = set(np.unique(mesh.boundary_tags))
        assert tags == {int(SurfaceTag.ENDO), int(SurfaceTag.EPI),
                        int(SurfaceTag.BASE)}
        base = mesh.boundary_node_ids(int(SurfaceTag.BASE))
        assert np.allclose(mesh.nodes[base, 2], 1.0, atol=1e-12)
        assert np.all(element_volumes(mesh) > 0.0)

    def test_surfaces_lie_on_their_ellipsoids(self):
        endo_axes, epi_axes = (0.45, 0.45, 1.05), (0.6, 0.6, 1.2)
        mesh = build_lv_mesh(endo_axes, epi_axes, 0.3, 0.07)
        for tag, axes in ((SurfaceTag.ENDO, endo_axes),
                          (SurfaceTag.EPI, epi_axes)):
            ids = mesh.boundary_node_ids(int(tag))
            # base-rim nodes are shared with the truncation plane
            interior = ids[mesh.nodes[ids, 2] < 0.3 - 1e-9]
            radii = np.sum((mesh.nodes[interior] / axes) ** 2, axis=1)
            assert np.allclose(radii, 1.0, atol=1e-9)

    def test_refinement_scales_like_h_cubed(self):
        coarse = build_lv_mesh((1.5, 1.5, 3.0), (2.0, 2.0, 3.5), 1.0, 0.1)
        fine = build_lv_mesh((1.5, 1.5, 3.0), (2.0, 2.0, 3.5), 1.0, 0.05)
        ratio = fine.n_elems / coarse.n_elems
        assert 0.85 * 8.0 <= ratio <= 1.15 * 8.0

    def test_thin_wall_requires_refinement(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"wall thickness \S+ cm is below 2h = 0\.2 cm"):
            build_lv_mesh((1.5, 1.5, 3.0), (1.55, 1.55, 3.05), 1.0, 0.1)


@pytest.mark.parametrize("build", [
    lambda x: build_slab_mesh((1.0, 1.0, 1.0), x),
    lambda x: build_lv_mesh((1.5, 1.5, 3.0), (2.0, 2.0, 3.5), 1.0, x),
    lambda x: build_slab_mesh((1.0, x, 0.5), 0.25),
    lambda x: build_lv_mesh((1.5, 1.5, 3.0), (x, 2.0, 3.5), 1.0, 0.1),
    lambda x: build_lv_mesh((1.5, x, 3.0), (2.0, 2.0, 3.5), 1.0, 0.1),
    lambda x: build_lv_mesh((1.5, 1.5, 3.0), (2.0, 2.0, 3.5), x, 0.1),
], ids=["slab", "ventricle", "slab-extent", "epi-axis", "endo-axis",
        "truncation"])
@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_non_finite_size_is_rejected(build, x):
    with pytest.raises(InvalidArgumentError, match="finite"):
        build(x)


class TestValidate:
    def test_repeated_corner_is_reported(self, unit_cube):
        elems = unit_cube.elems.copy()
        elems[0, 1] = elems[0, 0]
        mesh = Mesh(nodes=unit_cube.nodes, elems=elems,
                    boundary_faces=unit_cube.boundary_faces,
                    boundary_tags=unit_cube.boundary_tags,
                    characteristic_size=1.0)
        with pytest.raises(InvalidArgumentError, match="repeated corner"):
            mesh.validate()

    def test_inverted_element_is_reported(self, unit_cube):
        elems = unit_cube.elems[:, [4, 5, 6, 7, 0, 1, 2, 3]]
        mesh = Mesh(nodes=unit_cube.nodes, elems=elems,
                    boundary_faces=unit_cube.boundary_faces,
                    boundary_tags=unit_cube.boundary_tags,
                    characteristic_size=1.0)
        with pytest.raises(InvalidArgumentError, match="inverted"):
            mesh.validate()

    def test_open_boundary_is_reported(self, unit_cube):
        # a missing face counts each of its edges once, a duplicated one
        # each of its edges 4 times
        for faces in (slice(-1), [0, 1, 2, 3, 4, 5, 5]):
            mesh = Mesh(nodes=unit_cube.nodes, elems=unit_cube.elems,
                        boundary_faces=unit_cube.boundary_faces[faces],
                        boundary_tags=unit_cube.boundary_tags[faces],
                        characteristic_size=1.0)
            with pytest.raises(InvalidArgumentError, match="not closed"):
                mesh.validate()

    @pytest.mark.parametrize("old,new", [(0, -1), (7, 8)],
                             ids=["negative", "past_the_last_node"])
    def test_boundary_face_with_an_unknown_node_is_reported(self, unit_cube,
                                                            old, new):
        # every occurrence is renumbered, so the surface stays closed
        faces = unit_cube.boundary_faces.copy()
        faces[faces == old] = new
        mesh = Mesh(nodes=unit_cube.nodes, elems=unit_cube.elems,
                    boundary_faces=faces,
                    boundary_tags=unit_cube.boundary_tags,
                    characteristic_size=1.0)
        with pytest.raises(InvalidArgumentError,
                           match="boundary faces reference unknown nodes"):
            mesh.validate()

    def test_unknown_tag_is_reported(self, unit_cube):
        tags = unit_cube.boundary_tags.copy()
        tags[0] = 17
        mesh = Mesh(nodes=unit_cube.nodes, elems=unit_cube.elems,
                    boundary_faces=unit_cube.boundary_faces,
                    boundary_tags=tags, characteristic_size=1.0)
        with pytest.raises(InvalidArgumentError, match="tags"):
            mesh.validate()


class TestContentHash:
    def test_stable_across_rebuilds(self):
        a = build_slab_mesh((0.2, 0.1, 0.1), 0.05)
        b = build_slab_mesh((0.2, 0.1, 0.1), 0.05)
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_node_motion(self, small_slab):
        nodes = small_slab.nodes.copy()
        nodes[0, 0] += 1e-9
        moved = Mesh(nodes=nodes, elems=small_slab.elems,
                     boundary_faces=small_slab.boundary_faces,
                     boundary_tags=small_slab.boundary_tags,
                     characteristic_size=small_slab.characteristic_size)
        assert moved.content_hash() != small_slab.content_hash()


class TestNearestNodes:
    """Mesh.nearest_nodes and Mesh.nodes_within against scipy's k-d tree."""

    @pytest.mark.parametrize("build", [
        lambda: build_slab_mesh((1.0, 0.6, 0.3), 0.05),
        lambda: build_lv_mesh(twin.ENDO_AXES, twin.EPI_AXES,
                              twin.TRUNCATION_HEIGHT, twin.DEFAULT_H),
    ], ids=["slab", "twin"])
    def test_matches_the_tree_query(self, build):
        mesh = build()
        rng = np.random.default_rng(7)
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        points = rng.uniform(lo - 0.1, hi + 0.1, size=(300, 3))
        ids, dist = mesh.nearest_nodes(points)
        tree_dist, tree_ids = cKDTree(mesh.nodes).query(points)
        np.testing.assert_array_equal(ids, tree_ids)
        np.testing.assert_array_equal(dist, tree_dist)

        surface = mesh.boundary_node_ids(int(SurfaceTag.EPI))
        ids, dist = mesh.nearest_nodes(points, surface)
        tree_dist, local = cKDTree(mesh.nodes[surface]).query(points)
        np.testing.assert_array_equal(ids, surface[local])
        np.testing.assert_array_equal(dist, tree_dist)

    def test_exact_tie_takes_the_lowest_id(self, unit_cube):
        centre = unit_cube.nodes.mean(axis=0)
        ids, dist = unit_cube.nearest_nodes(centre)
        assert ids.tolist() == [0]
        assert dist[0] == pytest.approx(np.sqrt(0.75))
        # the same tie among a reversed candidate list, and a tie within
        # rounding: node 1 is nearer by 2e-14 cm, below 1e-12 relative
        ids, _ = unit_cube.nearest_nodes(
            [centre, [0.5, 0.0, 0.0], [0.5 + 1e-14, 0.0, 0.0]],
            np.arange(8)[::-1])
        assert ids.tolist() == [0, 0, 0]

    def test_a_node_maps_to_itself(self, small_slab):
        ids, dist = small_slab.nearest_nodes(small_slab.nodes)
        np.testing.assert_array_equal(ids, np.arange(small_slab.n_nodes))
        assert not dist.any()

    def test_ball_matches_the_tree_on_the_sphere(self):
        # r = 3h puts nodes exactly on the sphere around every node
        mesh = build_slab_mesh((0.5, 0.4, 0.3), 0.05)
        tree = cKDTree(mesh.nodes)
        r = 3.0 * mesh.characteristic_size
        for point in mesh.nodes:
            expected = np.sort(tree.query_ball_point(point, r))
            np.testing.assert_array_equal(mesh.nodes_within(point, r),
                                          expected)


def test_the_cli_imports_no_scipy_spatial():
    src = str(Path(monocal.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import monocal.cli; "
            "print(any(m.startswith('scipy.spatial') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
