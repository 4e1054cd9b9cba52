"""Wall coordinates and rule-based fiber frames."""

from __future__ import annotations

import re

import numpy as np
import pytest

from monocal import vtkio
from monocal.errors import FormatError, InvalidArgumentError
from monocal.fem import AssemblyPlan
from monocal.fibers import (FiberAngles, FiberField, generate_fibers,
                            solve_apicobasal, solve_transmural)
from monocal.geometry import SurfaceTag, build_lv_mesh, build_slab_mesh

PURE_HELIX = FiberAngles(alpha_endo=60.0, alpha_epi=-60.0,
                         beta_endo=0.0, beta_epi=0.0)


@pytest.fixture(scope="module")
def slab():
    return build_slab_mesh((0.2, 0.1, 0.1), 0.05)


@pytest.fixture(scope="module")
def shell():
    return build_lv_mesh((0.45, 0.45, 1.05), (0.6, 0.6, 1.2), 0.3, 0.07)


def _laplace(mesh):
    return AssemblyPlan(mesh).stiffness(np.eye(3))


def _align(vectors, axis):
    """Flip undirected unit vectors so their `axis` component is >= 0."""
    signs = np.where(vectors[:, axis] >= 0.0, 1.0, -1.0)
    return vectors * signs[:, None]


class TestWallCoordinates:
    def test_slab_transmural_is_linear_in_z(self, slab):
        phi = solve_transmural(slab, _laplace(slab))
        assert np.allclose(phi, 1.0 - slab.nodes[:, 2] / 0.1, atol=1e-9)

    def test_slab_apicobasal_falls_back_to_first_axis(self, slab):
        psi = solve_apicobasal(slab, _laplace(slab))
        assert np.allclose(psi, slab.nodes[:, 0] / 0.2, atol=1e-9)

    def test_spherical_shell_matches_radial_oracle(self):
        # away from the truncation plane the harmonic solution between
        # concentric spheres is radial; the cut perturbs only the base
        errors = {}
        for h in (0.15, 0.1):
            mesh = build_lv_mesh((1.0, 1.0, 1.0), (1.5, 1.5, 1.5), 0.9, h)
            phi = solve_transmural(mesh, _laplace(mesh))
            r = np.linalg.norm(mesh.nodes, axis=1)
            oracle = (1.0 / r - 1.0 / 1.5) / (1.0 - 1.0 / 1.5)
            lower = mesh.nodes[:, 2] < 0.0
            errors[h] = np.max(np.abs(phi[lower] - oracle[lower]))
        assert errors[0.15] < 0.008
        assert errors[0.1] < 0.004
        assert errors[0.1] < 0.65 * errors[0.15]

    def test_shell_transmural_obeys_the_maximum_principle(self, shell):
        phi = solve_transmural(shell, _laplace(shell))
        assert phi.min() >= -1e-10
        assert phi.max() <= 1.0 + 1e-10
        endo = shell.boundary_node_ids(int(SurfaceTag.ENDO))
        epi = shell.boundary_node_ids(int(SurfaceTag.EPI))
        base = shell.boundary_node_ids(int(SurfaceTag.BASE))
        interior_endo = np.setdiff1d(endo, base)
        interior_epi = np.setdiff1d(epi, base)
        assert np.allclose(phi[interior_endo], 1.0, atol=1e-10)
        assert np.allclose(phi[interior_epi], 0.0, atol=1e-10)

    def test_shell_apicobasal_increases_toward_the_base(self, shell):
        psi = solve_apicobasal(shell, _laplace(shell))
        assert psi.min() >= -1e-10
        assert psi.max() <= 1.0 + 1e-10
        base = shell.boundary_node_ids(int(SurfaceTag.BASE))
        assert np.allclose(psi[base], 1.0, atol=1e-10)
        endo = shell.boundary_node_ids(int(SurfaceTag.ENDO))
        z = shell.nodes[endo, 2]
        bins = np.linspace(z.min(), z.max(), 9)
        means = [psi[endo[(z >= lo) & (z < hi)]].mean()
                 for lo, hi in zip(bins[:-1], bins[1:])]
        assert np.all(np.diff(means) > 0.0)


class TestFiberAngles:
    def test_linear_interpolation_in_depth(self):
        angles = FiberAngles()
        assert np.isclose(angles.alpha(1.0), np.radians(60.0), rtol=1e-12)
        assert np.isclose(angles.alpha(0.0), np.radians(-60.0), rtol=1e-12)
        assert np.isclose(angles.alpha(0.5), 0.0, atol=1e-12)
        assert np.isclose(angles.alpha(0.25), np.radians(-30.0), rtol=1e-12)

    def test_helix_angle_bounds_are_enforced(self):
        with pytest.raises(InvalidArgumentError):
            FiberAngles(alpha_endo=95.0)
        with pytest.raises(InvalidArgumentError):
            FiberAngles(alpha_epi=-90.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha_endo", "alpha_epi",
                                      "beta_endo", "beta_epi"])
    def test_non_finite_angle_is_rejected(self, name, value):
        with pytest.raises(InvalidArgumentError, match=name):
            FiberAngles(**{name: value})


class TestGenerateFibersOnSlab:
    def test_epicardial_fiber_direction(self, slab):
        field = generate_fibers(slab, PURE_HELIX)
        epi = slab.nodes[:, 2] == 0.1
        aligned = _align(field.f[epi], axis=1)
        expected = np.array([np.sin(np.radians(-60.0)),
                             np.cos(np.radians(-60.0)), 0.0])
        assert np.allclose(aligned, expected, atol=1e-9)

    def test_endocardial_fiber_direction(self, slab):
        field = generate_fibers(slab, PURE_HELIX)
        endo = slab.nodes[:, 2] == 0.0
        aligned = _align(field.f[endo], axis=1)
        expected = np.array([np.sin(np.radians(60.0)),
                             np.cos(np.radians(60.0)), 0.0])
        assert np.allclose(aligned, expected, atol=1e-9)

    def test_midwall_fiber_is_circumferential(self, slab):
        field = generate_fibers(slab, PURE_HELIX)
        mid = slab.nodes[:, 2] == 0.05
        aligned = _align(field.f[mid], axis=1)
        assert np.allclose(aligned, (0.0, 1.0, 0.0), atol=1e-9)

    def test_negating_helix_angles_mirrors_the_fibers(self, slab):
        field = generate_fibers(slab, PURE_HELIX)
        mirrored = generate_fibers(slab, FiberAngles(
            alpha_endo=-60.0, alpha_epi=60.0, beta_endo=0.0, beta_epi=0.0))
        a = _align(field.f, axis=1)
        b = _align(mirrored.f, axis=1)
        assert np.allclose(b, a * (-1.0, 1.0, 1.0), atol=1e-9)

    def test_zero_angles_recover_the_wall_axes(self, slab):
        field = generate_fibers(slab, FiberAngles(0.0, 0.0, 0.0, 0.0))
        assert np.allclose(np.abs(field.f[:, 1]), 1.0, atol=1e-9)
        assert np.allclose(np.abs(field.s[:, 0]), 1.0, atol=1e-9)
        assert np.allclose(np.abs(field.n[:, 2]), 1.0, atol=1e-9)

    def test_sheet_angle_tilts_the_sheet_axis(self, slab):
        field = generate_fibers(slab, FiberAngles(0.0, 0.0, 30.0, 30.0))
        assert np.allclose(np.abs(field.s[:, 2]), 0.5, atol=1e-9)
        assert np.allclose(np.abs(field.f[:, 1]), 1.0, atol=1e-9)


class TestGenerateFibersOnShell:
    def test_frames_are_orthonormal_everywhere(self, shell):
        field = generate_fibers(shell, FiberAngles())
        field.validate()
        assert field.f.shape == (shell.n_nodes, 3)
        assert field.singular.dtype == bool
        assert field.singular.mean() < 0.01

    def test_validate_rejects_corrupted_frames(self, shell):
        field = generate_fibers(shell, FiberAngles())
        field.f[0] = (2.0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            field.validate()


class TestUniformField:
    def test_uniform_frame_is_the_identity_triad(self):
        field = FiberField.uniform(5)
        field.validate()
        assert np.allclose(field.f, (1.0, 0.0, 0.0))
        assert np.allclose(field.s, (0.0, 1.0, 0.0))
        assert np.allclose(field.n, (0.0, 0.0, 1.0))
        assert not field.singular.any()


class TestFieldFile:
    def test_write_read_round_trip(self, slab, tmp_path):
        field = generate_fibers(slab, FiberAngles(45.0, -30.0, 10.0, -10.0))
        field.singular[::7] = True
        path = tmp_path / "fibers.vtk"
        field.write(path, slab)
        back = FiberField.read(path)
        # the file keeps nine significant digits
        for name in ("f", "s", "n"):
            np.testing.assert_allclose(getattr(back, name),
                                       getattr(field, name), atol=1e-8)
        np.testing.assert_array_equal(back.singular, field.singular)

    def test_missing_axis_is_named_and_singular_is_optional(self, slab,
                                                            tmp_path):
        field = FiberField.uniform(slab.n_nodes)
        path = tmp_path / "fibers.vtk"
        vtkio.write_fields(path, slab, {"fiber": field.f, "sheet": field.s,
                                        "normal": field.n})
        assert not FiberField.read(path).singular.any()
        vtkio.write_fields(path, slab, {"fiber": field.f, "normal": field.n})
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {path}: missing key 'sheet'")):
            FiberField.read(path)

    def test_nan_axes_are_rejected(self, slab, tmp_path):
        field = FiberField.uniform(slab.n_nodes)
        field.s[3] = np.nan
        field.n[3] = np.nan
        path = tmp_path / "fibers.vtk"
        field.write(path, slab)
        assert "nan" in path.read_text()
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {path}: sheet axis is not unit length")):
            FiberField.read(path)
