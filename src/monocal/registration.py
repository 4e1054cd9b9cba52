"""Alignment of measured activation maps with the simulation mesh.

Measurements arrive in the mapping device's millimeter frame. Three
reference landmarks known in both frames fix a rigid transform; the
transformed points are then snapped to the nearest node of the relevant
tagged surface, and the vein points are split into an early-activating
calibration half and a late-activating validation half. `register` and
`split_samples` chain these steps into the stage the command line runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .activation import ActivationSample, Group, Site
from .errors import (DataFormatError, DegenerateConfigurationError,
                     InvalidArgumentError)
from .geometry import Mesh, SurfaceTag
from .solver import StimulusPlan

MEASUREMENT_COLUMNS = ("x_mm", "y_mm", "z_mm", "t_ms", "site")
REFERENCE_COLUMNS = ("name", "frame", "x_mm", "y_mm", "z_mm")


@dataclass
class RawCloud:
    """Measured activation points (cm, ms) with site tags.

    order holds the acquisition index of each point, which makes the
    group split stable under ties.
    """

    points: np.ndarray
    taus: np.ndarray
    sites: list[Site]
    order: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.taus = np.asarray(self.taus, dtype=float)
        n = len(self.points)
        if self.points.shape != (n, 3) or self.taus.shape != (n,) \
                or len(self.sites) != n or len(self.order) != n:
            raise InvalidArgumentError("cloud arrays have mismatched lengths")
        if not np.isfinite(self.points).all() or not np.isfinite(self.taus).all():
            raise InvalidArgumentError("cloud contains non-finite values")
        if np.any(self.taus < 0.0):
            raise InvalidArgumentError("activation times must be nonnegative")

    def subset(self, mask) -> "RawCloud":
        mask = np.asarray(mask)
        return RawCloud(points=self.points[mask], taus=self.taus[mask],
                        sites=[s for s, keep in zip(self.sites, mask) if keep],
                        order=self.order[mask])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation, lengths in cm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise InvalidArgumentError("rigid transform needs a 3x3 rotation "
                                       "and a 3-vector translation")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-10:
            raise InvalidArgumentError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-10:
            raise InvalidArgumentError("rotation matrix must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(rotation=np.eye(3), translation=np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(rotation=self.rotation.T,
                              translation=-self.rotation.T @ self.translation)


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise DataFormatError(f"non-numeric {column} value {text!r}", row=row)


def read_measurements(path) -> RawCloud:
    """Parse a measurement CSV (mm, ms) into a cloud in cm.

    Expected header: x_mm,y_mm,z_mm,t_ms,site with site one of
    septum/vein. Raises DataFormatError naming the offending row.
    """
    points, taus, sites = [], [], []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in MEASUREMENT_COLUMNS if c not in header]
        if missing:
            raise DataFormatError(f"missing column(s) {', '.join(missing)}", row=1)
        for row_no, record in enumerate(reader, start=2):
            coords = [_parse_float(record[c], c, row_no)
                      for c in ("x_mm", "y_mm", "z_mm")]
            tau = _parse_float(record["t_ms"], "t_ms", row_no)
            if tau < 0.0:
                raise DataFormatError(f"negative activation time {tau}", row=row_no)
            try:
                site = Site(record["site"].strip())
            except ValueError:
                raise DataFormatError(f"unknown site {record['site']!r}", row=row_no)
            points.append([c / 10.0 for c in coords])
            taus.append(tau)
            sites.append(site)
    if not points:
        raise DataFormatError("no measurement rows found")
    return RawCloud(points=np.array(points), taus=np.array(taus), sites=sites,
                    order=np.arange(len(points)))


def write_measurements(path, cloud: RawCloud, groups: list[str] | None = None,
                       ) -> None:
    """Emit a cloud in the measurement CSV schema (mm, ms), optionally
    with a trailing group column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = list(MEASUREMENT_COLUMNS) + (["group"] if groups else [])
        writer.writerow(header)
        for i in range(len(cloud.points)):
            row = [f"{v * 10.0:.9g}" for v in cloud.points[i]]
            row += [f"{cloud.taus[i]:.9g}", cloud.sites[i].value]
            if groups:
                row.append(groups[i])
            writer.writerow(row)


def read_reference_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the landmark file: three named points in each frame (mm).

    Header name,frame,x_mm,y_mm,z_mm with frame source (device) or
    target (mesh). Returns (source, target) as matched (3, 3) arrays in cm.
    """
    frames: dict[str, dict[str, np.ndarray]] = {"source": {}, "target": {}}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in REFERENCE_COLUMNS if c not in header]
        if missing:
            raise DataFormatError(f"missing column(s) {', '.join(missing)}", row=1)
        for row_no, record in enumerate(reader, start=2):
            frame = record["frame"].strip()
            if frame not in frames:
                raise DataFormatError(f"frame must be source or target, "
                                      f"got {frame!r}", row=row_no)
            name = record["name"].strip()
            if name in frames[frame]:
                raise DataFormatError(f"duplicate landmark {name!r} in {frame}",
                                      row=row_no)
            frames[frame][name] = np.array(
                [_parse_float(record[c], c, row_no) / 10.0
                 for c in ("x_mm", "y_mm", "z_mm")])
    names = sorted(frames["source"])
    if len(names) != 3 or sorted(frames["target"]) != names:
        raise DataFormatError("expected exactly 3 landmarks present in both frames")
    source = np.array([frames["source"][n] for n in names])
    target = np.array([frames["target"][n] for n in names])
    return source, target


def _triangle_area(points: np.ndarray) -> float:
    return 0.5 * np.linalg.norm(np.cross(points[1] - points[0],
                                         points[2] - points[0]))


def rigid_from_three_pairs(source: np.ndarray, target: np.ndarray
                           ) -> RigidTransform:
    """Least-squares rotation and translation mapping source onto target.

    Orthogonal-Procrustes construction: the rotation nearest to the
    cross-covariance of the centered triplets, with the determinant
    forced to +1. Exact when the triplets are congruent.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != (3, 3) or target.shape != (3, 3):
        raise InvalidArgumentError("exactly three points per frame required")
    for name, pts in (("source", source), ("target", target)):
        if _triangle_area(pts) <= 1e-8:
            raise DegenerateConfigurationError(
                f"{name} landmarks are collinear (area <= 1e-8 cm^2)")
    p = source - source.mean(axis=0)
    q = target - target.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    d = np.sign(np.linalg.det(u @ vt))
    rotation = (u @ np.diag([1.0, 1.0, d]) @ vt).T
    translation = target.mean(axis=0) - rotation @ source.mean(axis=0)
    return RigidTransform(rotation=rotation, translation=translation)


@dataclass
class ProjectionReport:
    """Per-point displacement of the nearest-node snapping (cm)."""

    displacements: np.ndarray

    @property
    def max(self) -> float:
        return float(self.displacements.max()) if len(self.displacements) else 0.0

    @property
    def mean(self) -> float:
        return float(self.displacements.mean()) if len(self.displacements) else 0.0


def nns_project(cloud: RawCloud, mesh: Mesh, tags
                ) -> tuple[RawCloud, ProjectionReport]:
    """Snap each cloud point to its nearest node on the tagged surface.

    Equidistant candidates resolve to the lowest node index, making the
    projection deterministic; projecting an already-projected cloud is
    the identity.
    """
    tags = np.atleast_1d(np.asarray(tags, dtype=np.int64))
    candidates = np.unique(np.concatenate(
        [mesh.boundary_node_ids(int(t)) for t in tags]))
    if candidates.size == 0:
        raise InvalidArgumentError(f"no boundary nodes carry tags {tags.tolist()}")
    tree = cKDTree(mesh.nodes[candidates])
    k = min(8, len(candidates))
    dist, local = tree.query(cloud.points, k=k)
    dist = np.atleast_2d(dist)
    local = np.atleast_2d(local)
    # among all nearest-within-rounding candidates, keep the lowest node id
    tied = dist <= dist[:, :1] * (1.0 + 1e-12) + 1e-300
    node_ids = np.array([candidates[local[i][tied[i]]].min()
                         for i in range(len(cloud.points))])
    displacements = np.linalg.norm(mesh.nodes[node_ids] - cloud.points, axis=1)
    projected = RawCloud(points=mesh.nodes[node_ids].copy(), taus=cloud.taus,
                         sites=list(cloud.sites), order=cloud.order)
    return projected, ProjectionReport(displacements=displacements)


def split_groups(taus, order=None) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the early (calibration) and late (validation) halves.

    Sorted ascending by activation time, ties broken by acquisition
    order; the first ceil(N/2) points form group I.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or len(taus) < 2:
        raise InvalidArgumentError("group split needs at least 2 samples")
    order = np.arange(len(taus)) if order is None else np.asarray(order)
    ranking = np.lexsort((order, taus))
    n_cal = -(-len(taus) // 2)
    return ranking[:n_cal], ranking[n_cal:]


def build_samples(cloud: RawCloud) -> list[ActivationSample]:
    """Projected cloud to typed samples: septal points become stimulus
    inputs, vein points are split into calibration/validation groups."""
    is_vein = np.array([s is Site.EPI_VEIN for s in cloud.sites])
    samples: list[ActivationSample] = [None] * len(cloud.points)
    for i in np.nonzero(~is_vein)[0]:
        samples[i] = ActivationSample(location=cloud.points[i],
                                      tau=cloud.taus[i], site=Site.SEPTUM,
                                      group=Group.INPUT,
                                      order=int(cloud.order[i]))
    vein_idx = np.nonzero(is_vein)[0]
    if vein_idx.size:
        cal, val = split_groups(cloud.taus[vein_idx], cloud.order[vein_idx])
        for local, group in ((cal, Group.CAL_I), (val, Group.VAL_II)):
            for i in vein_idx[local]:
                samples[i] = ActivationSample(location=cloud.points[i],
                                              tau=cloud.taus[i],
                                              site=Site.EPI_VEIN, group=group,
                                              order=int(cloud.order[i]))
    return samples


def register(mesh: Mesh, measurements_path, references_path
             ) -> tuple[RawCloud, list[ActivationSample], dict]:
    """Read, place, project and group a measured activation map.

    The landmark pairs fix the rigid placement of the device-frame
    cloud; vein points are then projected onto the epicardium and septal
    points onto the endocardium, and the projected cloud (septal points
    first) is turned into samples. Returns that cloud, its samples and
    the registration statistics the command line writes out.
    """
    cloud = read_measurements(measurements_path)
    source, target = read_reference_pairs(references_path)
    transform = rigid_from_three_pairs(source, target)
    moved = RawCloud(points=transform.apply(cloud.points), taus=cloud.taus,
                     sites=cloud.sites, order=cloud.order)
    is_vein = np.array([s is Site.EPI_VEIN for s in cloud.sites])
    if not is_vein.any() or is_vein.all():
        raise InvalidArgumentError(
            "measurements must contain both septum and vein sites")
    vein_cloud, vein_rep = nns_project(moved.subset(is_vein), mesh,
                                       int(SurfaceTag.EPI))
    sept_cloud, sept_rep = nns_project(moved.subset(~is_vein), mesh,
                                       int(SurfaceTag.ENDO))
    merged = RawCloud(
        points=np.vstack([sept_cloud.points, vein_cloud.points]),
        taus=np.concatenate([sept_cloud.taus, vein_cloud.taus]),
        sites=list(sept_cloud.sites) + list(vein_cloud.sites),
        order=np.concatenate([sept_cloud.order, vein_cloud.order]))
    stats = {
        "rotation": transform.rotation.tolist(),
        "translation_cm": transform.translation.tolist(),
        "landmark_rms_cm": float(np.sqrt(np.mean(
            np.sum((transform.apply(source) - target) ** 2, axis=1)))),
        "septum": {"max_displacement_cm": sept_rep.max,
                   "mean_displacement_cm": sept_rep.mean},
        "vein": {"max_displacement_cm": vein_rep.max,
                 "mean_displacement_cm": vein_rep.mean},
    }
    return merged, build_samples(merged), stats


def split_samples(samples: list[ActivationSample]):
    """Pacing inputs, calibration (group I) and validation (group II)
    samples, plus the stimulus plan that paces at the inputs' sites and
    times."""
    inputs = [s for s in samples if s.group is Group.INPUT]
    cal = [s for s in samples if s.group is Group.CAL_I]
    val = [s for s in samples if s.group is Group.VAL_II]
    if not inputs:
        raise InvalidArgumentError("no septum sites to pace from")
    plan = StimulusPlan(points=np.array([s.location for s in inputs]),
                        onsets=np.array([s.tau for s in inputs]))
    return inputs, cal, val, plan
