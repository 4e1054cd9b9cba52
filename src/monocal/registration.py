"""Alignment of measured activation maps with the simulation mesh.

Measurements arrive in the mapping device's millimeter frame. Three
reference landmarks known in both frames fix a rigid transform; the
transformed points are then snapped to the nearest node of the relevant
tagged surface, and the vein points are split into an early-activating
calibration half and a late-activating validation half. A measured map
is one `RawCloud` throughout: `register` returns the projected cloud with
one group label per point (`input`, `I`, `II`), and `split_samples` cuts
it into the three group clouds plus the stimulus plan, the stage the
command line runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .activation import Group, Site
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

    def __len__(self) -> int:
        return len(self.taus)

    def subset(self, index) -> "RawCloud":
        """The points a boolean mask or an index array (in its order) picks."""
        index = np.arange(len(self))[np.asarray(index)]
        return RawCloud(points=self.points[index], taus=self.taus[index],
                        sites=[self.sites[i] for i in index],
                        order=self.order[index])


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
        value = float(text)
    except (TypeError, ValueError):
        raise DataFormatError(f"non-numeric {column} value {text!r}", row=row)
    if not -np.inf < value < np.inf:
        raise DataFormatError(f"non-finite {column} value {text!r}", row=row)
    return value


def read_measurements(path) -> RawCloud:
    """Parse a measurement CSV (mm, ms) into a cloud in cm.

    Expected header: x_mm,y_mm,z_mm,t_ms,site with site one of
    septum/vein. Times must be non-negative, and a vein time positive
    (a septal onset may be 0). Raises DataFormatError naming the
    offending row.
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
            if site is Site.EPI_VEIN and tau == 0.0:
                raise DataFormatError("vein activation time must be positive, "
                                      "got 0", row=row_no)
            points.append([c / 10.0 for c in coords])
            taus.append(tau)
            sites.append(site)
    if not points:
        raise DataFormatError("no measurement rows found")
    return RawCloud(points=np.array(points), taus=np.array(taus), sites=sites,
                    order=np.arange(len(points)))


def write_measurements(path, cloud: RawCloud, groups=None) -> None:
    """Emit a cloud in the measurement CSV schema (mm, ms), optionally
    with a trailing group column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = list(MEASUREMENT_COLUMNS)
        writer.writerow(header if groups is None else header + ["group"])
        for i in range(len(cloud.points)):
            row = [f"{v * 10.0:.9g}" for v in cloud.points[i]]
            row += [f"{cloud.taus[i]:.9g}", cloud.sites[i].value]
            if groups is not None:
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


def nearest_surface_nodes(mesh: Mesh, points, tags) -> np.ndarray:
    """Id of the nearest node on the tagged surface(s) for each point.

    Equidistant candidates resolve to the lowest node id, so the choice
    is deterministic and a point on a node maps to that node.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    candidates = mesh.boundary_node_ids(tags)
    if candidates.size == 0:
        raise InvalidArgumentError(f"no boundary nodes carry tags {tags}")
    k = min(8, len(candidates))
    dist, local = (a.reshape(len(points), k) for a in
                   cKDTree(mesh.nodes[candidates]).query(points, k=k))
    # among all nearest-within-rounding candidates, keep the lowest node id
    tied = dist <= dist[:, :1] * (1.0 + 1e-12) + 1e-300
    return np.array([candidates[local[i][tied[i]]].min()
                     for i in range(len(points))], dtype=np.int64)


def nns_project(cloud: RawCloud, mesh: Mesh, tags
                ) -> tuple[RawCloud, np.ndarray]:
    """Snap each cloud point to its nearest node on the tagged surface.

    Returns the projected cloud and each point's displacement (cm).
    Projecting an already-projected cloud is the identity.
    """
    snapped = mesh.nodes[nearest_surface_nodes(mesh, cloud.points, tags)]
    projected = RawCloud(points=snapped, taus=cloud.taus,
                         sites=list(cloud.sites), order=cloud.order)
    return projected, np.linalg.norm(snapped - cloud.points, axis=1)


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


def group_labels(cloud: RawCloud) -> np.ndarray:
    """One group label per point: septal points are stimulus inputs,
    vein points split into the calibration and validation halves."""
    labels = np.full(len(cloud), Group.INPUT.value)
    vein = np.nonzero([s is Site.EPI_VEIN for s in cloud.sites])[0]
    if vein.size:
        cal, val = split_groups(cloud.taus[vein], cloud.order[vein])
        labels[vein[cal]] = Group.CAL_I.value
        labels[vein[val]] = Group.VAL_II.value
    return labels


def register(mesh: Mesh, measurements_path, references_path
             ) -> tuple[RawCloud, np.ndarray, dict]:
    """Read, place, project and group a measured activation map.

    The landmark pairs fix the rigid placement of the device-frame
    cloud; vein points are then projected onto the epicardium and septal
    points onto the endocardium. Returns the projected cloud (septal
    points first), its `group_labels` and the registration statistics
    the command line writes out.
    """
    cloud = read_measurements(measurements_path)
    source, target = read_reference_pairs(references_path)
    transform = rigid_from_three_pairs(source, target)
    is_vein = np.array([s is Site.EPI_VEIN for s in cloud.sites])
    if not is_vein.any() or is_vein.all():
        raise InvalidArgumentError(
            "measurements must contain both septum and vein sites")
    cloud.points = transform.apply(cloud.points)
    # septal points first; each group snaps to its own surface
    merged = cloud.subset(np.argsort(is_vein, kind="stable"))
    stats = {
        "rotation": transform.rotation.tolist(),
        "translation_cm": transform.translation.tolist(),
        "landmark_rms_cm": float(np.sqrt(np.mean(
            np.sum((transform.apply(source) - target) ** 2, axis=1)))),
    }
    for name, vein, tag in (("vein", True, SurfaceTag.EPI),
                            ("septum", False, SurfaceTag.ENDO)):
        part = np.sort(is_vein) == vein
        projected, moves = nns_project(merged.subset(part), mesh, int(tag))
        merged.points[part] = projected.points
        stats[name] = {"max_displacement_cm": float(moves.max()),
                       "mean_displacement_cm": float(moves.mean())}
    return merged, group_labels(merged), stats


def split_samples(cloud: RawCloud, groups):
    """Pacing inputs, calibration (group I) and validation (group II)
    clouds, plus the stimulus plan that paces at the inputs' sites and
    times."""
    groups = np.asarray(groups)
    inputs, cal, val = (cloud.subset(groups == g.value)
                        for g in (Group.INPUT, Group.CAL_I, Group.VAL_II))
    if not len(inputs):
        raise InvalidArgumentError("no septum sites to pace from")
    return inputs, cal, val, StimulusPlan(points=inputs.points,
                                          onsets=inputs.taus)
