"""Alignment of measured activation maps with the simulation mesh.

Measurements arrive in the mapping device's millimeter frame. Three
reference landmarks known in both frames fix a rigid transform; the
transformed points are then snapped to the nearest node of the relevant
tagged surface, and the vein points are split into an early-activating
calibration half and a late-activating validation half. `register`
accepts only maps with septal points and 2 or more vein points, so both
halves are non-empty. `nns_project` is the one surface snap: it returns
node ids by `Mesh.nearest_nodes` (the lowest id of equally near nodes),
and the twin snaps its septal and vein points with it too. A measured
map is one `RawCloud` throughout, its rows in acquisition order:
`register` returns the projected cloud (septal points first) with one
group label per point (`input`, `I`, `II`), and `split_samples` cuts it
into the three group clouds plus the stimulus plan, the stage the
command line runs. `_ranking` (by time, ties by row) is the one ranking
of vein points: groups I and II are its halves and group I comes in it,
so a short map is its head. Every CSV file is read by `read_rows`, its
numeric cells by `parse_float`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .activation import Group, Site
from .errors import FormatError, InvalidArgumentError, reported_as
from .geometry import Mesh, SurfaceTag
from .solver import StimulusPlan

MEASUREMENT_COLUMNS = ("x_mm", "y_mm", "z_mm", "t_ms", "site")
REFERENCE_COLUMNS = ("name", "frame", "x_mm", "y_mm", "z_mm")


@dataclass
class RawCloud:
    """Measured activation points (cm, ms) with site tags, one row per
    point in acquisition order."""

    points: np.ndarray
    taus: np.ndarray
    sites: list[Site]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.taus = np.asarray(self.taus, dtype=float)
        n = len(self.points)
        if self.points.shape != (n, 3) or self.taus.shape != (n,) \
                or len(self.sites) != n:
            raise InvalidArgumentError("cloud arrays have mismatched lengths")
        if not np.isfinite(self.points).all() or not np.isfinite(self.taus).all():
            raise InvalidArgumentError("cloud contains non-finite values")
        if np.any(self.taus < 0.0):
            raise InvalidArgumentError("activation times must be nonnegative")

    def __len__(self) -> int:
        return len(self.taus)

    def subset(self, index) -> "RawCloud":
        """The points a mask, index array (in its order) or slice picks."""
        index = np.arange(len(self))[index]
        return RawCloud(points=self.points[index], taus=self.taus[index],
                        sites=[self.sites[i] for i in index])


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

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


def parse_float(text: str, column: str, line: int) -> float:
    """A CSV cell as a finite float; FormatError names column and line."""
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"non-numeric {column} value {text!r}", line=line)
    if not -np.inf < value < np.inf:
        raise FormatError(f"non-finite {column} value {text!r}", line=line)
    return value


def read_rows(path, columns) -> list[tuple[int, dict[str, str]]]:
    """The records of a CSV file as (file line, record) pairs; a record's
    line is its last, so blank lines count. The header must name every
    one of columns; a short row reads its missing cells as empty strings."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle, restval="")
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise FormatError(f"missing column(s) {', '.join(missing)}", line=1)
        return [(reader.line_num, record) for record in reader]


def read_measurements(path) -> RawCloud:
    """Parse a measurement CSV (mm, ms) into a cloud in cm.

    Expected header: x_mm,y_mm,z_mm,t_ms,site with site one of
    septum/vein. Times must be non-negative, and a vein time positive
    (a septal onset may be 0). Raises FormatError naming the file and
    the offending line.
    """
    points, taus, sites = [], [], []
    with reported_as(f"file {path}"):
        for line, record in read_rows(path, MEASUREMENT_COLUMNS):
            coords = [parse_float(record[c], c, line)
                      for c in ("x_mm", "y_mm", "z_mm")]
            tau = parse_float(record["t_ms"], "t_ms", line)
            if tau < 0.0:
                raise FormatError(f"negative activation time {tau}", line=line)
            try:
                site = Site(record["site"].strip())
            except ValueError:
                raise FormatError(f"unknown site {record['site']!r}",
                                  line=line)
            if site is Site.EPI_VEIN and tau == 0.0:
                raise FormatError("vein activation time must be positive, "
                                  "got 0", line=line)
            points.append([c / 10.0 for c in coords])
            taus.append(tau)
            sites.append(site)
        if not points:
            raise FormatError("no measurement rows found")
    return RawCloud(points=np.array(points), taus=np.array(taus), sites=sites)


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
    with reported_as(f"file {path}"):
        for line, record in read_rows(path, REFERENCE_COLUMNS):
            frame = record["frame"].strip()
            if frame not in frames:
                raise FormatError(f"frame must be source or target, "
                                  f"got {frame!r}", line=line)
            name = record["name"].strip()
            if name in frames[frame]:
                raise FormatError(f"duplicate landmark {name!r} in {frame}",
                                  line=line)
            frames[frame][name] = np.array(
                [parse_float(record[c], c, line) / 10.0
                 for c in ("x_mm", "y_mm", "z_mm")])
        names = sorted(frames["source"])
        if len(names) != 3 or sorted(frames["target"]) != names:
            raise FormatError("expected exactly 3 landmarks present in both "
                              "frames")
    source = np.array([frames["source"][n] for n in names])
    target = np.array([frames["target"][n] for n in names])
    return source, target


def write_reference_pairs(path, names, source, target) -> None:
    """Emit the landmark file `read_reference_pairs` parses: one row per
    named point, the source (device) rows first, coordinates given in cm
    and written in mm."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(REFERENCE_COLUMNS) + "\n")
        for frame, points in (("source", source), ("target", target)):
            for name, row in zip(names, points):
                coords = ",".join(f"{v * 10.0:.9g}" for v in row)
                handle.write(f"{name},{frame},{coords}\n")


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
    for name, pts in (("source", source), ("target", target)):
        if _triangle_area(pts) <= 1e-8:
            raise InvalidArgumentError(
                f"{name} landmarks are collinear (area <= 1e-8 cm^2)")
    p = source - source.mean(axis=0)
    q = target - target.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    d = np.sign(np.linalg.det(u @ vt))
    rotation = (u @ np.diag([1.0, 1.0, d]) @ vt).T
    translation = target.mean(axis=0) - rotation @ source.mean(axis=0)
    return RigidTransform(rotation=rotation, translation=translation)


def nns_project(points, mesh: Mesh, tag) -> tuple[np.ndarray, np.ndarray]:
    """Nearest node to each point on the surface of one `SurfaceTag` tag.

    Returns each point's node id and its displacement to that node (cm).
    Projecting the nodes found again returns the same ids, unmoved.
    """
    candidates = mesh.boundary_node_ids(tag)
    if candidates.size == 0:
        raise InvalidArgumentError(f"no boundary nodes carry tag {tag}")
    return mesh.nearest_nodes(points, candidates)


def _ranking(taus) -> np.ndarray:
    """Row indices by activation time, ties by row (acquisition order)."""
    return np.argsort(taus, kind="stable")


def split_groups(taus) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the early (calibration) and late (validation) halves,
    each in `_ranking` order; the first ceil(N/2) points form group I."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or len(taus) < 2:
        raise InvalidArgumentError("group split needs at least 2 samples")
    ranking = _ranking(taus)
    n_cal = -(-len(taus) // 2)
    return ranking[:n_cal], ranking[n_cal:]


def group_labels(cloud: RawCloud) -> np.ndarray:
    """One group label per point: septal points are stimulus inputs, the
    vein points (at least 2) split into non-empty group I and II halves."""
    labels = np.full(len(cloud), Group.INPUT.value)
    vein = np.nonzero([s is Site.EPI_VEIN for s in cloud.sites])[0]
    cal, val = split_groups(cloud.taus[vein])
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
    the command line writes out. A map without septal or vein points,
    or with only 1 vein point, raises FormatError naming the measurements
    file.
    """
    cloud = read_measurements(measurements_path)
    source, target = read_reference_pairs(references_path)
    transform = rigid_from_three_pairs(source, target)
    is_vein = np.array([s is Site.EPI_VEIN for s in cloud.sites])
    with reported_as(f"file {measurements_path}"):
        if not is_vein.any() or is_vein.all():
            raise InvalidArgumentError(
                "measurements must contain both septum and vein sites")
        if is_vein.sum() < 2:
            raise InvalidArgumentError(
                "1 vein point; the group split needs at least 2")
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
        nodes, moves = nns_project(merged.points[part], mesh, int(tag))
        merged.points[part] = mesh.nodes[nodes]
        stats[name] = {"max_displacement_cm": float(moves.max()),
                       "mean_displacement_cm": float(moves.mean())}
    return merged, group_labels(merged), stats


def split_samples(cloud: RawCloud, groups):
    """Pacing inputs, calibration (group I) and validation (group II)
    clouds, plus the stimulus plan that paces at the inputs' sites and
    times (which rejects a cloud without inputs). Group I comes in
    `_ranking` order, the others in the cloud's row order."""
    groups = np.asarray(groups)
    inputs, cal, val = (cloud.subset(groups == g.value)
                        for g in (Group.INPUT, Group.CAL_I, Group.VAL_II))
    cal = cal.subset(_ranking(cal.taus))
    return inputs, cal, val, StimulusPlan(points=inputs.points,
                                          onsets=inputs.taus)
