"""Measurement parsing, rigid registration and surface projection."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal.activation import Site
from monocal.errors import FormatError, InvalidArgumentError
from monocal.geometry import SurfaceTag
from monocal.registration import (RawCloud, RigidTransform, group_labels,
                                  nns_project, read_measurements,
                                  read_reference_pairs, register,
                                  rigid_from_three_pairs, split_groups,
                                  split_samples, write_measurements,
                                  write_reference_pairs)

from oracles import identity_transform, inverse_transform

MEASUREMENT_HEADER = "x_mm,y_mm,z_mm,t_ms,site"
REFERENCE_HEADER = "name,frame,x_mm,y_mm,z_mm"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.linalg.det(q))


class TestReadMeasurements:
    def test_millimeters_become_centimeters(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n"
                      "10,20,30,110,vein\n"
                      "-5,0,2.5,152,septum\n")
        cloud = read_measurements(path)
        assert np.allclose(cloud.points[0], (1.0, 2.0, 3.0), rtol=1e-12)
        assert np.allclose(cloud.points[1], (-0.5, 0.0, 0.25), rtol=1e-12)
        assert np.array_equal(cloud.taus, [110.0, 152.0])
        assert cloud.sites == [Site.EPI_VEIN, Site.SEPTUM]
        assert np.array_equal(cloud.order, [0, 1])

    def test_crlf_line_endings_parse_identically(self, tmp_path):
        body = MEASUREMENT_HEADER + "\n10,20,30,110,vein\n"
        unix = read_measurements(_write(tmp_path, "unix.csv", body))
        crlf = read_measurements(_write(tmp_path, "crlf.csv",
                                        body.replace("\n", "\r\n")))
        assert np.array_equal(unix.points, crlf.points)
        assert np.array_equal(unix.taus, crlf.taus)

    def test_missing_column_names_the_columns(self, tmp_path):
        path = _write(tmp_path, "m.csv", "x_mm,y_mm,z_mm\n1,2,3\n")
        with pytest.raises(FormatError, match="t_ms"):
            read_measurements(path)

    def test_negative_time_names_the_row(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n"
                      "1,2,3,50,vein\n"
                      "1,2,3,-1,vein\n")
        # file line number, counting the header
        with pytest.raises(FormatError,
                           match="line 3: negative activation time"):
            read_measurements(path)

    def test_zero_vein_time_names_the_row(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n"
                      "1,2,3,0,septum\n"
                      "1,2,3,50,vein\n"
                      "1,2,3,0.0,vein\n")
        with pytest.raises(FormatError,
                           match="line 4: vein activation time"):
            read_measurements(path)

    def test_zero_septal_onset_is_accepted(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n"
                      "1,2,3,0,septum\n"
                      "1,2,3,50,vein\n")
        cloud = read_measurements(path)
        assert np.array_equal(cloud.taus, [0.0, 50.0])
        assert cloud.sites == [Site.SEPTUM, Site.EPI_VEIN]

    def test_unknown_site_is_rejected(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n"
                      "1,2,3,50,atrium\n")
        with pytest.raises(FormatError, match="site"):
            read_measurements(path)

    def test_row_that_stops_before_its_site_names_the_row(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n1,2,3,4\n")
        with pytest.raises(FormatError, match="line 2: unknown site ''"):
            read_measurements(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = _write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n")
        with pytest.raises(FormatError, match="no measurement rows"):
            read_measurements(path)

    def test_write_read_round_trip_with_groups(self, tmp_path):
        cloud = RawCloud(points=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                         taus=np.array([110.0, 152.0]),
                         sites=[Site.SEPTUM, Site.EPI_VEIN],
                         order=np.array([0, 1]))
        path = tmp_path / "out.csv"
        write_measurements(path, cloud, groups=["input", "I"])
        header = path.read_text().splitlines()[0]
        assert header == MEASUREMENT_HEADER + ",group"
        back = read_measurements(path)
        assert np.allclose(back.points, cloud.points, rtol=1e-9)
        assert np.array_equal(back.taus, cloud.taus)
        assert back.sites == cloud.sites


class TestRigidTransform:
    def test_identity(self):
        t = identity_transform()
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(t.apply(pts), pts)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        t = RigidTransform(rotation=_random_rotation(rng),
                           translation=rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        assert np.allclose(inverse_transform(t).apply(t.apply(pts)), pts,
                           atol=1e-12)

    def test_non_orthogonal_rotation_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RigidTransform(rotation=np.eye(3) * 2.0,
                           translation=np.zeros(3))

    def test_reflection_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RigidTransform(rotation=np.diag((1.0, 1.0, -1.0)),
                           translation=np.zeros(3))


class TestRigidFromThreePairs:
    def test_quarter_turn_with_shift(self):
        rotation = np.array([[0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        translation = np.array([1.0, 0.0, 0.0])
        source = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]])
        target = source @ rotation.T + translation
        t = rigid_from_three_pairs(source, target)
        assert np.allclose(t.rotation, rotation, atol=1e-12)
        assert np.allclose(t.translation, translation, atol=1e-12)
        assert np.allclose(t.apply(source), target, atol=1e-12)

    def test_random_rigid_motions_are_recovered(self):
        rng = np.random.default_rng(11)
        refs = np.array([[0.0, 0.0, -1.2], [-0.58, 0.0, 0.3],
                         [0.0, 0.58, 0.3]])
        cloud = rng.normal(size=(50, 3))
        for _ in range(20):
            t = RigidTransform(rotation=_random_rotation(rng),
                               translation=rng.normal(size=3))
            estimated = rigid_from_three_pairs(t.apply(refs), refs)
            recovered = estimated.apply(t.apply(cloud))
            assert np.max(np.abs(recovered - cloud)) <= 1e-9

    def test_distances_are_preserved(self):
        rng = np.random.default_rng(13)
        refs = rng.normal(size=(3, 3))
        t = RigidTransform(rotation=_random_rotation(rng),
                           translation=rng.normal(size=3))
        estimated = rigid_from_three_pairs(refs, t.apply(refs))
        pts = rng.normal(size=(20, 3))
        moved = estimated.apply(pts)
        original = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        assert np.allclose(after, original, atol=1e-10)

    def test_collinear_landmarks_are_rejected(self):
        source = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [2.0, 0.0, 0.0]])
        with pytest.raises(InvalidArgumentError,
                           match=r"^source landmarks are collinear"):
            rigid_from_three_pairs(source, source)


class TestReadReferencePairs:
    def test_pairs_are_sorted_by_name(self, tmp_path):
        path = _write(tmp_path, "r.csv", REFERENCE_HEADER + "\n"
                      "beta,source,10,0,0\n"
                      "alpha,source,0,0,0\n"
                      "gamma,source,0,10,0\n"
                      "gamma,target,0,10,10\n"
                      "alpha,target,0,0,10\n"
                      "beta,target,10,0,10\n")
        source, target = read_reference_pairs(path)
        assert np.allclose(source[0], (0.0, 0.0, 0.0))  # alpha first
        assert np.allclose(source[1], (1.0, 0.0, 0.0))
        assert np.allclose(target - source, (0.0, 0.0, 1.0))

    def test_write_read_round_trip(self, tmp_path):
        source, target = np.random.default_rng(2).normal(0.0, 3.0, (2, 3, 3))
        path = tmp_path / "r.csv"
        write_reference_pairs(path, ("gamma", "alpha", "beta"), source, target)
        assert path.read_text().splitlines()[0] == REFERENCE_HEADER
        back_source, back_target = read_reference_pairs(path)
        # read back in name order; the file keeps nine significant digits
        by_name = [1, 2, 0]
        np.testing.assert_allclose(back_source, source[by_name], rtol=1e-8)
        np.testing.assert_allclose(back_target, target[by_name], rtol=1e-8)

    def test_missing_counterpart_is_rejected(self, tmp_path):
        path = _write(tmp_path, "r.csv", REFERENCE_HEADER + "\n"
                      "a,source,0,0,0\n" "b,source,1,0,0\n"
                      "c,source,0,1,0\n" "a,target,0,0,0\n"
                      "b,target,1,0,0\n")
        with pytest.raises(FormatError):
            read_reference_pairs(path)

    def test_row_that_stops_before_its_frame_names_the_row(self, tmp_path):
        path = _write(tmp_path, "r.csv", REFERENCE_HEADER + "\napex\n")
        with pytest.raises(
                FormatError,
                match="line 2: frame must be source or target, got ''"):
            read_reference_pairs(path)

    def test_wrong_count_is_rejected(self, tmp_path):
        path = _write(tmp_path, "r.csv", REFERENCE_HEADER + "\n"
                      "a,source,0,0,0\n" "a,target,0,0,0\n"
                      "b,source,1,0,0\n" "b,target,1,0,0\n")
        with pytest.raises(FormatError, match="3"):
            read_reference_pairs(path)


class TestNnsProject:
    def test_coincident_point_is_unchanged(self, unit_cube):
        nodes, moves = nns_project(unit_cube.nodes[6], unit_cube,
                                   int(SurfaceTag.EPI))
        assert np.array_equal(nodes, [6])
        assert np.array_equal(moves, [0.0])

    def test_tie_snaps_to_the_lowest_node_id(self, unit_cube):
        # the face centroid is equidistant from all four corners
        nodes, _ = nns_project((0.5, 0.5, 0.0), unit_cube,
                               int(SurfaceTag.ENDO))
        corner_ids = np.nonzero(
            (unit_cube.nodes[:, 2] == 0.0))[0]
        assert np.array_equal(nodes, [corner_ids.min()])

    def test_projection_is_idempotent(self, unit_cube):
        first, _ = nns_project((0.3, 0.1, -0.2), unit_cube,
                               int(SurfaceTag.ENDO))
        second, moves = nns_project(unit_cube.nodes[first], unit_cube,
                                    int(SurfaceTag.ENDO))
        assert np.array_equal(first, second)
        assert np.array_equal(moves, [0.0])

    def test_tag_filter_restricts_the_targets(self, unit_cube):
        nodes, _ = nns_project((0.0, 0.0, 0.01), unit_cube,
                               int(SurfaceTag.EPI))
        assert unit_cube.nodes[nodes[0], 2] == 1.0  # forced up to the top face

    def test_report_statistics(self, unit_cube):
        _, moves = nns_project([(0.0, 0.0, 0.2), (1.0, 1.0, 0.1)], unit_cube,
                               int(SurfaceTag.ENDO))
        np.testing.assert_allclose(moves, [0.2, 0.1], rtol=1e-12)


class TestSplitGroups:
    def test_hand_example(self):
        cal, val = split_groups(np.array([157.0, 110.0, 179.0, 152.0]),
                                np.arange(4))
        assert np.array_equal(np.sort(cal), [1, 3])
        assert np.array_equal(np.sort(val), [0, 2])

    def test_odd_count_gives_the_extra_point_to_calibration(self):
        taus = np.linspace(100.0, 200.0, 37)
        cal, val = split_groups(taus, np.arange(37))
        assert len(cal) == 19
        assert len(val) == 18

    def test_ties_break_by_acquisition_order(self):
        taus = np.full(4, 120.0)
        cal, val = split_groups(taus, order=np.array([3, 1, 2, 0]))
        assert np.array_equal(cal, [3, 1])
        assert np.array_equal(val, [2, 0])

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            split_groups(np.array([100.0]), np.arange(1))


class TestGroupLabels:
    def test_septum_becomes_input_and_vein_splits(self):
        cloud = RawCloud(
            points=np.arange(15.0).reshape(5, 3),
            taus=np.array([30.0, 157.0, 110.0, 179.0, 152.0]),
            sites=[Site.SEPTUM] + [Site.EPI_VEIN] * 4,
            order=np.arange(5))
        assert group_labels(cloud).tolist() == ["input", "II", "I", "II",
                                                "I"]


class TestRegisterStage:
    """register + split_samples, the stage `register` and `calibrate` run."""

    # the device frame is the mesh frame shifted by +20 mm along x
    REFERENCES = (REFERENCE_HEADER + "\n"
                  "a,source,20,0,0\nb,source,30,0,0\nc,source,20,10,0\n"
                  "a,target,0,0,0\nb,target,10,0,0\nc,target,0,10,0\n")

    def _files(self, tmp_path, rows):
        return (_write(tmp_path, "m.csv", MEASUREMENT_HEADER + "\n" + rows),
                _write(tmp_path, "r.csv", self.REFERENCES))

    def test_places_projects_and_groups(self, tmp_path, unit_cube):
        files = self._files(tmp_path, "29,9,12,110,vein\n21,1,-2,30,septum\n"
                                      "21,9,11,150,vein\n29,1,10.5,130,vein\n")
        cloud, groups, stats = register(unit_cube, *files)
        # septal points first, each snapped to its own surface
        assert np.array_equal(cloud.points, [[0, 0, 0], [1, 1, 1], [0, 1, 1],
                                             [1, 0, 1]])
        assert groups.tolist() == ["input", "I", "II", "I"]
        np.testing.assert_allclose(stats["translation_cm"], (-2.0, 0.0, 0.0),
                                   atol=1e-12)
        assert stats["landmark_rms_cm"] < 1e-12
        assert np.isclose(stats["septum"]["max_displacement_cm"],
                          np.sqrt(0.06), rtol=1e-12)

        inputs, cal, val, plan = split_samples(cloud, groups)
        assert (len(inputs), len(cal), len(val)) == (1, 2, 1)
        assert cal.taus.tolist() == [110.0, 130.0]
        assert cal.order.tolist() == [0, 3]
        assert np.array_equal(plan.points, [[0.0, 0.0, 0.0]])
        assert np.array_equal(plan.onsets, [30.0])

    def test_needs_both_septum_and_vein_sites(self, tmp_path, unit_cube):
        files = self._files(tmp_path, "29,9,12,110,vein\n21,9,11,150,vein\n")
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {files[0]}: measurements must contain both "
                "septum and vein sites")):
            register(unit_cube, *files)

    def test_split_needs_pacing_inputs(self):
        cloud = RawCloud(points=np.zeros((2, 3)), taus=np.array([110.0, 150.0]),
                         sites=[Site.EPI_VEIN] * 2, order=np.arange(2))
        with pytest.raises(InvalidArgumentError,
                           match="at least one stimulus site"):
            split_samples(cloud, group_labels(cloud))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_split_has_both_vein_groups(self, data):
        # what calibrate relies on: a cloud with k septal and N >= 2 vein
        # points gives k inputs, ceil(N/2) group-I and floor(N/2) >= 1
        # group-II points, group I ranking first by (time, acquisition)
        k = data.draw(st.integers(1, 4), label="k")
        n = data.draw(st.integers(2, 40), label="N")
        taus = (data.draw(st.lists(st.sampled_from([0.0, 5.0]), min_size=k,
                                   max_size=k), label="septal times")
                + data.draw(st.lists(st.sampled_from([10.0, 20.0, 30.0]),
                                     min_size=n, max_size=n),
                            label="vein times"))
        sites = [Site.SEPTUM] * k + [Site.EPI_VEIN] * n
        rows = data.draw(st.permutations(range(k + n)), label="rows")
        order = data.draw(st.permutations(range(k + n)), label="order")
        cloud = RawCloud(points=np.zeros((k + n, 3)),
                         taus=np.array(taus)[rows],
                         sites=[sites[i] for i in rows], order=np.array(order))

        inputs, cal, val, plan = split_samples(cloud, group_labels(cloud))
        assert (len(inputs), len(cal), len(val)) == (k, -(-n // 2), n // 2)
        assert len(val) >= 1
        assert max(zip(cal.taus, cal.order)) < min(zip(val.taus, val.order))
        assert len(plan.points) == k
