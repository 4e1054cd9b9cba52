"""Synthetic ventricle dataset with known conductivities.

Builds a truncated-ellipsoid shell, paces it from three septal
endocardial sites and records activation times along an epicardial
vein-like path, then expresses every measured point in a rotated and
translated device frame. The resulting measurement and landmark files
exercise the full pipeline (registration, projection, group split,
calibration) against a known ground truth.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import registration as reg
from . import solver as slv
from . import vtkio
from .activation import Site
from .errors import InvalidArgumentError
from .fibers import FiberAngles, FiberField, generate_fibers
from .geometry import Mesh, SurfaceTag, build_lv_mesh
from .registration import RawCloud, RigidTransform

logger = logging.getLogger(__name__)

# Ground truth of the shipped fixture. The triple sits on the ray the
# default direct search explores from its midpoint start (the update
# direction is the fixed acceleration triple), so the demo calibration
# can recover every component rather than just the best projection.
TRUE_SIGMA = (1.27, 0.28, 0.045)

# A compact ventricle keeps simulations cheap while the wall stays
# three to four elements thick. The default h resolves the transverse
# wavefront well enough that conduction velocities respond smoothly to
# the conductivities, which the calibration loop depends on.
ENDO_AXES = (0.45, 0.45, 1.05)
EPI_AXES = (0.6, 0.6, 1.2)
TRUNCATION_HEIGHT = 0.3
DEFAULT_H = 0.05

# Pacing sites sit on the septal (negative x) endocardium, activated in
# an apex-to-base sequence. Times are referenced to an external fiducial
# (as in clinical maps, where zero is the QRS onset rather than the
# first local activation), so the earliest breakthrough is at 30 ms.
SEPTAL_TARGETS = ((-0.36, 0.00, -0.36), (-0.39, 0.06, 0.00),
                  (-0.36, -0.06, 0.18))
SEPTAL_ONSETS = (30.0, 40.0, 50.0)
N_VEIN_POINTS = 121

# Mesh-frame landmark fiducials: epicardial apex plus two points on the
# basal rim, widely spread so the three-point fit is well conditioned.
LANDMARK_NAMES = ("apex", "base_septal", "base_lateral")
LANDMARKS = ((0.0, 0.0, -1.2), (-0.580947502, 0.0, 0.3),
             (0.0, 0.580947502, 0.3))

_DEVICE_ROTVEC = 0.4 * np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
_DEVICE_TRANSLATION = (2.5, -1.0, 3.0)


def device_transform() -> RigidTransform:
    """The twin's fixed mesh-to-device placement (rotation via quaternion)."""
    angle = np.linalg.norm(_DEVICE_ROTVEC)
    x, y, z = np.sin(0.5 * angle) / angle * _DEVICE_ROTVEC
    w = np.cos(0.5 * angle)
    rotation = np.array([
        [x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w]])
    return RigidTransform(rotation=rotation,
                          translation=np.array(_DEVICE_TRANSLATION))


def vein_path() -> np.ndarray:
    """Points of a vein tree on the lateral epicardial surface.

    A basal trunk sweeps around the free wall like a coronary sinus,
    then a posterolateral branch descends toward the apex. The two legs
    face the paced septum with very different orientations, so their
    activation pattern reacts to the fiber helix as well as to the
    conductivities. All points lie exactly on the epicardial ellipsoid.
    """
    n_trunk = N_VEIN_POINTS // 2 + 1
    n_branch = N_VEIN_POINTS - n_trunk
    t = np.linspace(0.0, 1.0, n_trunk)
    trunk_az = -1.3 + 2.6 * t
    trunk_z = np.full(n_trunk, 0.18)
    s = np.linspace(0.0, 1.0, n_branch + 1)[1:]
    branch_az = 0.15 * np.sin(2.0 * np.pi * s)
    branch_z = 0.18 - 1.08 * s
    z = np.concatenate([trunk_z, branch_z])
    azimuth = np.concatenate([trunk_az, branch_az])
    a, b, c = EPI_AXES
    rho = np.sqrt(1.0 - (z / c) ** 2)
    return np.column_stack([a * rho * np.cos(azimuth),
                            b * rho * np.sin(azimuth), z])


@dataclass
class TwinData:
    """Everything the twin produced, still in the mesh frame."""

    mesh: Mesh
    fiber_field: FiberField
    sigma: tuple[float, float, float]
    septal_nodes: np.ndarray
    septal_onsets: np.ndarray
    vein_nodes: np.ndarray
    vein_taus: np.ndarray
    activation: np.ndarray
    transform: RigidTransform

    def measurement_cloud(self) -> RawCloud:
        """Septal and vein samples as a measurement cloud in the device
        frame, the shape the CSVs are written in."""
        points = self.transform.apply(np.vstack([
            self.mesh.nodes[self.septal_nodes],
            self.mesh.nodes[self.vein_nodes]]))
        taus = np.concatenate([self.septal_onsets, self.vein_taus])
        sites = ([Site.SEPTUM] * len(self.septal_nodes)
                 + [Site.EPI_VEIN] * len(self.vein_nodes))
        return RawCloud(points=points, taus=taus, sites=sites,
                        order=np.arange(len(taus)))


def build_twin(h: float = DEFAULT_H, sigma=TRUE_SIGMA) -> TwinData:
    """Generate the twin: mesh, fibers, paced simulation, device frame.

    Raises MonocalError if the run blows up and InvalidArgumentError if
    any vein point fails to activate, since a fixture with missing
    measurements would be unusable downstream.
    """
    mesh = build_lv_mesh(ENDO_AXES, EPI_AXES, TRUNCATION_HEIGHT, h)
    fiber_field = generate_fibers(mesh, FiberAngles())

    septal_nodes, _ = reg.nns_project(SEPTAL_TARGETS, mesh,
                                      int(SurfaceTag.ENDO))
    vein_nodes, _ = reg.nns_project(vein_path(), mesh, int(SurfaceTag.EPI))
    onsets = np.asarray(SEPTAL_ONSETS, dtype=float)
    plan = slv.StimulusPlan(points=mesh.nodes[septal_nodes], onsets=onsets)

    output = slv.simulate(mesh, fiber_field,
                          slv.SolverParams(sigma=tuple(sigma)), plan)
    logger.info("twin simulation: %d nodes, %d not activated",
                mesh.n_nodes, output.n_not_activated)

    taus = output.activation[vein_nodes]
    unactivated = ~np.isfinite(taus)
    if unactivated.any():
        raise InvalidArgumentError(
            f"twin generation left {unactivated.sum()} vein points unactivated, "
            f"at nodes {np.unique(vein_nodes[unactivated]).tolist()}; "
            "increase t_end or revisit the conductivities")
    return TwinData(mesh=mesh, fiber_field=fiber_field, sigma=tuple(sigma),
                    septal_nodes=septal_nodes, septal_onsets=onsets,
                    vein_nodes=vein_nodes, vein_taus=taus,
                    activation=output.activation,
                    transform=device_transform())


def twin_paths(out_dir) -> dict[str, Path]:
    """The files `write_twin` writes into out_dir, keyed by stem; writing
    the mesh also writes its `vtkio.surface_path` companion."""
    names = ("mesh.vtk", "fibers.vtk", "activation.vtk", "measurements.csv",
             "references.csv", "references_perturbed.csv", "truth.json")
    return {Path(name).stem: Path(out_dir) / name for name in names}


def write_twin(data: TwinData, out_dir, perturb_cm: float = 0.015,
               seed: int = 7) -> dict[str, Path]:
    """Write the twin dataset into a directory.

    Produces the mesh and fiber files, the device-frame measurement CSV,
    the landmark pairs plus a perturbed variant (landmark readings
    jittered by perturb_cm, seeded), the simulated activation map and a
    ground-truth JSON for later comparison. Its mesh_hash is mesh.vtk's, read
    back; the map was simulated on the mesh as built, whose coordinates
    differ from the file's by at most 5.0e-9 cm.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = twin_paths(out)
    vtkio.write_mesh(paths["mesh"], data.mesh)
    data.fiber_field.write(paths["fibers"], data.mesh)
    vtkio.write_fields(paths["activation"], data.mesh,
                       {"activation": data.activation})
    reg.write_measurements(paths["measurements"], data.measurement_cloud())
    landmarks = np.asarray(LANDMARKS, dtype=float)
    device = data.transform.apply(landmarks)
    reg.write_reference_pairs(paths["references"], LANDMARK_NAMES, device,
                              landmarks)
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, perturb_cm, size=(3, 3))
    reg.write_reference_pairs(paths["references_perturbed"], LANDMARK_NAMES,
                              device + jitter, landmarks)
    truth = {
        "sigma": list(data.sigma),
        "rotation": data.transform.rotation.tolist(),
        "translation": data.transform.translation.tolist(),
        "septal_onsets_ms": data.septal_onsets.tolist(),
        "n_vein_points": int(len(data.vein_nodes)),
        "mesh_hash": vtkio.read_mesh(paths["mesh"]).content_hash(),
    }
    paths["truth"].write_text(json.dumps(truth, indent=2) + "\n")
    logger.info("twin dataset written to %s", out)
    return paths
