"""Synthetic twin dataset: geometry, placement, files and ground truth."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from monocal import registration as reg
from monocal import twin, vtkio
from monocal.activation import Site
from monocal.geometry import SurfaceTag

from conftest import STAR_SIGMA
from oracles import inverse_transform


def test_vein_path_lies_on_epicardial_ellipsoid():
    points = twin.vein_path()
    assert points.shape == (twin.N_VEIN_POINTS, 3)
    a, b, c = twin.EPI_AXES
    residual = ((points[:, 0] / a) ** 2 + (points[:, 1] / b) ** 2
                + (points[:, 2] / c) ** 2 - 1.0)
    assert np.abs(residual).max() < 1e-12


def test_vein_path_stays_on_the_retained_shell():
    z = twin.vein_path()[:, 2]
    assert z.max() < twin.TRUNCATION_HEIGHT
    assert z.min() > -twin.EPI_AXES[2]


def test_device_transform_is_a_proper_rotation():
    placement = twin.device_transform()
    gram = placement.rotation.T @ placement.rotation
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    assert np.linalg.det(placement.rotation) == pytest.approx(1.0)
    np.testing.assert_array_equal(placement.translation, [2.5, -1.0, 3.0])


def test_device_transform_matches_scipy_to_the_bit():
    expected = Rotation.from_rotvec(twin._DEVICE_ROTVEC).as_matrix()
    np.testing.assert_array_equal(twin.device_transform().rotation, expected)


def test_twin_counts_and_onsets(twin_star):
    assert twin_star.mesh.n_nodes == 7556
    assert len(twin_star.septal_nodes) == 3
    assert len(twin_star.vein_nodes) == twin.N_VEIN_POINTS
    np.testing.assert_array_equal(twin_star.septal_onsets, [30.0, 40.0, 50.0])
    assert twin_star.sigma == STAR_SIGMA


def test_twin_sites_snap_to_their_surfaces(twin_star):
    endo = twin_star.mesh.boundary_node_ids(int(SurfaceTag.ENDO))
    epi = twin_star.mesh.boundary_node_ids(int(SurfaceTag.EPI))
    assert np.isin(twin_star.septal_nodes, endo).all()
    assert np.isin(twin_star.vein_nodes, epi).all()


def test_vein_activation_times_follow_the_pacing_window(twin_star):
    taus = twin_star.vein_taus
    assert np.isfinite(taus).all()
    # Epicardial activation cannot precede the earliest septal onset and
    # the run must finish well before the simulation end.
    assert taus.min() > 30.0
    assert taus.max() < 150.0


def test_measurement_cloud_frames_are_rigidly_related(twin_star):
    mesh_points = twin_star.mesh.nodes[np.concatenate(
        [twin_star.septal_nodes, twin_star.vein_nodes])]
    device_cloud = twin_star.measurement_cloud()
    np.testing.assert_allclose(
        device_cloud.points, twin_star.transform.apply(mesh_points),
        atol=1e-12)
    n_sept = len(twin_star.septal_nodes)
    assert all(s is Site.SEPTUM for s in device_cloud.sites[:n_sept])
    assert all(s is Site.EPI_VEIN for s in device_cloud.sites[n_sept:])
    np.testing.assert_array_equal(
        device_cloud.taus,
        np.concatenate([twin_star.septal_onsets, twin_star.vein_taus]))
    np.testing.assert_array_equal(device_cloud.order,
                                  np.arange(len(device_cloud.taus)))


def test_write_twin_emits_complete_dataset(twin_star_files):
    expected = {"mesh", "fibers", "activation", "measurements",
                "references", "references_perturbed", "truth"}
    assert set(twin_star_files) == expected
    for path in twin_star_files.values():
        assert path.exists(), path


def test_truth_file_records_generating_parameters(twin_star,
                                                  twin_star_files):
    truth = json.loads(twin_star_files["truth"].read_text())
    assert truth["sigma"] == list(STAR_SIGMA)
    # the hash of the mesh file, not of the mesh as built: writing
    # rounds the coordinates
    assert truth["mesh_hash"] == \
        vtkio.read_mesh(twin_star_files["mesh"]).content_hash()
    assert truth["n_vein_points"] == twin.N_VEIN_POINTS
    assert truth["septal_onsets_ms"] == [30.0, 40.0, 50.0]
    np.testing.assert_allclose(truth["rotation"],
                               twin_star.transform.rotation)


def test_references_recover_the_inverse_placement(twin_star_files):
    source, target = reg.read_reference_pairs(twin_star_files["references"])
    fitted = reg.rigid_from_three_pairs(source, target)
    expected = inverse_transform(twin.device_transform())
    np.testing.assert_allclose(fitted.rotation, expected.rotation, atol=5e-8)
    np.testing.assert_allclose(fitted.translation, expected.translation,
                               atol=5e-8)


def test_perturbed_references_shift_the_fit(twin_star_files):
    source, target = reg.read_reference_pairs(twin_star_files["references"])
    clean = reg.rigid_from_three_pairs(source, target)
    source_p, target_p = reg.read_reference_pairs(
        twin_star_files["references_perturbed"])
    perturbed = reg.rigid_from_three_pairs(source_p, target_p)
    np.testing.assert_array_equal(target_p, target)
    assert np.abs(perturbed.rotation - clean.rotation).max() > 1e-4
    assert np.abs(perturbed.translation - clean.translation).max() > 1e-4


def test_measurements_csv_round_trips_the_device_cloud(twin_star,
                                                       twin_star_files):
    cloud = twin_star.measurement_cloud()
    loaded = reg.read_measurements(twin_star_files["measurements"])
    np.testing.assert_allclose(loaded.points, cloud.points, atol=2e-8)
    np.testing.assert_allclose(loaded.taus, cloud.taus, rtol=1e-8)
    assert loaded.sites == list(cloud.sites)
