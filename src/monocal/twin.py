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
from scipy.spatial.transform import Rotation

from . import registration as reg
from . import solver as slv
from . import vtkio
from .activation import Site
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
    """Fixed mesh-to-device rigid placement used by the twin."""
    rotation = Rotation.from_rotvec(_DEVICE_ROTVEC).as_matrix()
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

    def measurement_cloud(self, frame: str = "device") -> RawCloud:
        """Septal and vein samples as a measurement cloud.

        frame='device' applies the rigid placement (the shape the CSVs
        are written in); frame='mesh' keeps simulation coordinates.
        """
        points = np.vstack([self.mesh.nodes[self.septal_nodes],
                            self.mesh.nodes[self.vein_nodes]])
        if frame == "device":
            points = self.transform.apply(points)
        elif frame != "mesh":
            raise ValueError(f"unknown frame {frame!r}")
        taus = np.concatenate([self.septal_onsets, self.vein_taus])
        sites = ([Site.SEPTUM] * len(self.septal_nodes)
                 + [Site.EPI_VEIN] * len(self.vein_nodes))
        return RawCloud(points=points, taus=taus, sites=sites,
                        order=np.arange(len(taus)))


def _snap_to_surface(mesh: Mesh, targets, tag: SurfaceTag) -> np.ndarray:
    from scipy.spatial import cKDTree

    ids = mesh.boundary_node_ids(int(tag))
    tree = cKDTree(mesh.nodes[ids])
    _, idx = tree.query(np.atleast_2d(np.asarray(targets, dtype=float)))
    return ids[idx]


def build_twin(h: float = DEFAULT_H, sigma=TRUE_SIGMA) -> TwinData:
    """Generate the twin: mesh, fibers, paced simulation, device frame.

    Raises SimulationDivergedError if the run blows up and RuntimeError
    if any vein point fails to activate, since a fixture with missing
    measurements would be unusable downstream.
    """
    mesh = build_lv_mesh(ENDO_AXES, EPI_AXES, TRUNCATION_HEIGHT, h)
    fiber_field = generate_fibers(mesh, FiberAngles())

    septal_nodes = _snap_to_surface(mesh, SEPTAL_TARGETS, SurfaceTag.ENDO)
    vein_nodes = _snap_to_surface(mesh, vein_path(), SurfaceTag.EPI)
    onsets = np.asarray(SEPTAL_ONSETS, dtype=float)
    plan = slv.StimulusPlan(points=mesh.nodes[septal_nodes], onsets=onsets)

    params = slv.SolverParams(sigma=tuple(sigma), t_end=150.0,
                              stop_when_activated=True)
    output = slv.simulate(mesh, fiber_field, params, plan)
    logger.info("twin simulation: %d nodes, %d not activated",
                mesh.n_nodes, output.n_not_activated)

    taus = output.activation[vein_nodes]
    if np.any(~np.isfinite(taus)):
        missing = vein_nodes[~np.isfinite(taus)]
        raise RuntimeError(
            f"twin generation left vein nodes {missing.tolist()} unactivated; "
            "increase t_end or revisit the conductivities")
    return TwinData(mesh=mesh, fiber_field=fiber_field, sigma=tuple(sigma),
                    septal_nodes=septal_nodes, septal_onsets=onsets,
                    vein_nodes=vein_nodes, vein_taus=taus,
                    activation=output.activation,
                    transform=device_transform())


def _write_references(path, transform: RigidTransform,
                      jitter: np.ndarray | None = None) -> None:
    landmarks = np.asarray(LANDMARKS, dtype=float)
    device = transform.apply(landmarks)
    if jitter is not None:
        device = device + jitter
    with open(path, "w", newline="") as handle:
        handle.write(",".join(reg.REFERENCE_COLUMNS) + "\n")
        for name, row in zip(LANDMARK_NAMES, device):
            coords = ",".join(f"{v * 10.0:.9g}" for v in row)
            handle.write(f"{name},source,{coords}\n")
        for name, row in zip(LANDMARK_NAMES, landmarks):
            coords = ",".join(f"{v * 10.0:.9g}" for v in row)
            handle.write(f"{name},target,{coords}\n")


def write_twin(data: TwinData, out_dir, perturb_cm: float = 0.015,
               seed: int = 7) -> dict[str, Path]:
    """Write the twin dataset into a directory.

    Produces the mesh and fiber files, the device-frame measurement CSV,
    the landmark pairs plus a perturbed variant (landmark readings
    jittered by perturb_cm, seeded), the simulated activation map and a
    ground-truth JSON for later comparison.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "mesh": out / "mesh.vtk",
        "fibers": out / "fibers.vtk",
        "activation": out / "activation.vtk",
        "measurements": out / "measurements.csv",
        "references": out / "references.csv",
        "references_perturbed": out / "references_perturbed.csv",
        "truth": out / "truth.json",
    }
    vtkio.write_mesh(paths["mesh"], data.mesh)
    ff = data.fiber_field
    vtkio.write_fields(paths["fibers"], data.mesh, {
        "fiber": ff.f, "sheet": ff.s, "normal": ff.n,
        "singular": ff.singular.astype(float)})
    vtkio.write_fields(paths["activation"], data.mesh,
                       {"activation": data.activation})
    reg.write_measurements(paths["measurements"], data.measurement_cloud())
    _write_references(paths["references"], data.transform)
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, perturb_cm, size=(3, 3))
    _write_references(paths["references_perturbed"], data.transform, jitter)
    truth = {
        "sigma": list(data.sigma),
        "rotation": data.transform.rotation.tolist(),
        "translation": data.transform.translation.tolist(),
        "septal_onsets_ms": data.septal_onsets.tolist(),
        "n_vein_points": int(len(data.vein_nodes)),
        "mesh_hash": data.mesh.content_hash(),
    }
    paths["truth"].write_text(json.dumps(truth, indent=2) + "\n")
    logger.info("twin dataset written to %s", out)
    return paths
