"""Hexahedral mesh generation, audit and surface queries.

Meshes live in centimetres. Two generators are provided: an axis-aligned
slab for verification studies and a truncated-ellipsoid shell that stands
in for a left ventricle. Both tag their boundary with anatomical surface
labels (endocardium, epicardium, base) that downstream modules rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import _hex
from .errors import InvalidArgumentError


def _squared_distances(nodes: np.ndarray, point) -> np.ndarray:
    """Squared distances from point to each node, summed in the order x,
    y, z. Every nearest-node and ball result, and so every output file,
    depends on the bits of this sum: keep the order."""
    return sum((nodes[:, k] - point[k]) ** 2 for k in range(3))


class SurfaceTag(IntEnum):
    """Labels attached to boundary faces."""

    OTHER = 0
    ENDO = 1
    EPI = 2
    BASE = 3


@dataclass
class Mesh:
    """An 8-node hexahedral mesh with a tagged boundary.

    Attributes
    ----------
    nodes : (n_nodes, 3) float array of coordinates in cm.
    elems : (n_elems, 8) int array of corner node ids. Corner ordering is
        the standard one for linear hexahedra (bottom quad counterclockwise,
        then top quad).
    boundary_faces : (n_faces, 4) int array of outward-oriented boundary
        quads.
    boundary_tags : (n_faces,) int array of SurfaceTag values, aligned with
        boundary_faces.
    characteristic_size : target edge length h in cm the mesh was built for.
    """

    nodes: np.ndarray
    elems: np.ndarray
    boundary_faces: np.ndarray
    boundary_tags: np.ndarray
    characteristic_size: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]

    def boundary_node_ids(self, tag=None) -> np.ndarray:
        """Sorted ids of the nodes on boundary faces: all of them, or
        those of the faces tagged tag (one `SurfaceTag` value)."""
        if tag is None:
            return np.unique(self.boundary_faces)
        return np.unique(self.boundary_faces[self.boundary_tags == tag])

    def nearest_nodes(self, points, ids=None) -> tuple[np.ndarray, np.ndarray]:
        """Nearest node to each point among ids (any order; default: all)
        and its distance (cm). Nodes within a relative 1e-12 of the least distance
        tie and the lowest id wins, so a point on a node maps to that node."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.arange(self.n_nodes) if ids is None else np.unique(ids)
        candidates = self.nodes[ids]
        nearest = np.empty(len(points), dtype=np.int64)
        dist = np.empty(len(points))
        for i, point in enumerate(points):
            d = np.sqrt(_squared_distances(candidates, point))
            # ids ascend: the first tied candidate has the lowest id
            j = np.argmax(d <= d.min() * (1.0 + 1e-12) + 1e-300)
            nearest[i], dist[i] = ids[j], d[j]
        return nearest, dist

    def nodes_within(self, point, r: float) -> np.ndarray:
        """Ascending ids of the nodes at most r (cm) from point."""
        return np.flatnonzero(_squared_distances(self.nodes, point) <= r * r)

    def content_hash(self) -> str:
        """Stable hash of node coordinates, connectivity and tags."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.nodes).tobytes())
        digest.update(np.ascontiguousarray(self.elems).tobytes())
        digest.update(np.ascontiguousarray(self.boundary_faces).tobytes())
        digest.update(np.ascontiguousarray(self.boundary_tags).tobytes())
        return digest.hexdigest()

    def validate(self) -> None:
        """Run the structural audit, `check_elements` then
        `check_boundary`; raises InvalidArgumentError on defects."""
        check_elements(self.nodes, self.elems)
        check_boundary(len(self.nodes), self.boundary_faces,
                       self.boundary_tags)


def check_elements(nodes: np.ndarray, elems: np.ndarray) -> None:
    """The audit of the volume: node coordinates of shape (n, 3), all
    finite; at least one element, every corner a known node, no corner
    repeated within an element, every node a corner of some element (a
    free node leaves its matrix row empty), and positive Jacobians at
    the corners. Raises InvalidArgumentError on the first defect."""
    if nodes.ndim != 2 or nodes.shape[1] != 3:
        raise InvalidArgumentError("nodes must have shape (n, 3)")
    if not np.all(np.isfinite(nodes)):
        raise InvalidArgumentError("node coordinates contain non-finite values")
    if elems.ndim != 2 or elems.shape[1] != 8:
        raise InvalidArgumentError("elems must have shape (m, 8)")
    if len(elems) == 0:
        raise InvalidArgumentError("mesh has no elements")
    if elems.min() < 0 or elems.max() >= len(nodes):
        raise InvalidArgumentError("element connectivity references unknown nodes")
    sorted_corners = np.sort(elems, axis=1)
    if np.any(sorted_corners[:, 1:] == sorted_corners[:, :-1]):
        bad = int(np.nonzero(np.any(sorted_corners[:, 1:] == sorted_corners[:, :-1], axis=1))[0][0])
        raise InvalidArgumentError(f"element {bad} has repeated corner nodes")
    used = np.zeros(len(nodes), dtype=bool)
    used[elems] = True
    if not used.all():
        raise InvalidArgumentError(
            f"node {int(np.argmin(used))} belongs to no element")

    for part in _hex.blocks(len(elems)):
        det = _hex.determinants(_hex.jacobians(nodes[elems[part]],
                                               _hex.CORNERS))
        _hex.require_positive(det, "corner", part.start)


def check_boundary(n_nodes: int, quads: np.ndarray, tags: np.ndarray) -> None:
    """The audit of the boundary of a mesh of n_nodes nodes: every face
    node known, one known SurfaceTag per face, and a closed surface.
    Raises InvalidArgumentError on the first defect."""
    if np.any((quads < 0) | (quads >= n_nodes)):
        raise InvalidArgumentError("boundary faces reference unknown nodes")
    if quads.shape[0] != tags.shape[0]:
        raise InvalidArgumentError("boundary tags not aligned with boundary faces")
    known = {int(t) for t in SurfaceTag}
    if not set(np.unique(tags)).issubset(known):
        raise InvalidArgumentError("boundary tags contain unknown labels")

    # The boundary of a watertight solid is a closed surface: every
    # edge of the boundary quads must be shared by exactly two quads.
    # An edge is counted by one int64 key, lo * n_nodes + hi.
    ends = np.stack([quads, np.roll(quads, -1, axis=1)]).astype(np.int64)
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    _, counts = np.unique(lo * n_nodes + hi, return_counts=True)
    if np.any(counts != 2):
        raise InvalidArgumentError("boundary surface is not closed")


def _extract_boundary(elems: np.ndarray) -> np.ndarray:
    """Outward-oriented quads of faces that belong to exactly one element."""
    all_faces = elems[:, _hex.FACES].reshape(-1, 4)
    key = np.sort(all_faces, axis=1)
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    return all_faces[counts[inverse] == 1]


def build_slab_mesh(extents, h: float) -> Mesh:
    """Structured slab of hexahedra covering [0,Lx] x [0,Ly] x [0,Lz].

    The number of cells per axis is round(L/h) (at least one), so h should
    divide each extent up to rounding. The z=0 plane is tagged ENDO, the
    z=Lz plane EPI and the four sides OTHER.
    """
    extents = np.asarray(extents, dtype=float)
    if extents.shape != (3,) or not np.all((extents > 0.0) & (extents < np.inf)):
        raise InvalidArgumentError(
            f"slab extents must be three positive finite lengths, got {extents}")
    if not 0.0 < h < np.inf:
        raise InvalidArgumentError(
            f"characteristic size must be positive and finite, got {h}")

    counts = np.maximum(1, np.rint(extents / h).astype(int))
    nx, ny, nz = counts
    xs = np.linspace(0.0, extents[0], nx + 1)
    ys = np.linspace(0.0, extents[1], ny + 1)
    zs = np.linspace(0.0, extents[2], nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    # x index varies fastest
    nodes = np.stack([X, Y, Z], axis=-1).transpose(2, 1, 0, 3).reshape(-1, 3)

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    elems = np.stack([
        nid(ii, jj, kk), nid(ii + 1, jj, kk), nid(ii + 1, jj + 1, kk), nid(ii, jj + 1, kk),
        nid(ii, jj, kk + 1), nid(ii + 1, jj, kk + 1), nid(ii + 1, jj + 1, kk + 1), nid(ii, jj + 1, kk + 1),
    ], axis=1).astype(np.int64)

    faces = _extract_boundary(elems)
    zc = nodes[faces][:, :, 2]
    tol = 1e-9 * max(extents)
    tags = np.full(len(faces), int(SurfaceTag.OTHER), dtype=np.int16)
    tags[np.all(np.abs(zc) < tol, axis=1)] = int(SurfaceTag.ENDO)
    tags[np.all(np.abs(zc - extents[2]) < tol, axis=1)] = int(SurfaceTag.EPI)

    mesh = Mesh(nodes, elems, faces, tags, float(h))
    mesh.validate()
    return mesh


def _disk_grid(n_arc: int, n_radial: int, square_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Structured quad mesh of the unit disk (butterfly / O-grid layout).

    A central square patch of half-width square_frac is surrounded by four
    transition blocks blending each square side onto the matching quarter
    arc of the unit circle. This avoids the degenerate corner cells that
    any single mapped-square parameterization of the disk produces. The
    outer ring of nodes lies exactly on the unit circle.

    Returns (nodes, quads); quads are wound clockwise when seen from +z.
    """
    s = square_frac
    nc, nr = n_arc, n_radial
    index: dict[tuple, int] = {}
    coords: list[tuple[float, float]] = []

    def node(key, xy) -> int:
        if key not in index:
            index[key] = len(coords)
            coords.append((float(xy[0]), float(xy[1])))
        return index[key]

    for i in range(nc + 1):
        for j in range(nc + 1):
            node(("c", i, j), (-s + 2.0 * s * i / nc, -s + 2.0 * s * j / nc))

    # Square sides walked counterclockwise starting at corner (s, -s);
    # side k spans circle angles theta0 + [0, pi/2], theta0 = -pi/4 + k*pi/2.
    def square_edge_key(k: int, i: int):
        if k == 0:
            return ("c", nc, i)
        if k == 1:
            return ("c", nc - i, nc)
        if k == 2:
            return ("c", 0, nc - i)
        return ("c", i, 0)

    quads: list[list[int]] = []
    for k in range(4):
        theta0 = -np.pi / 4.0 + k * np.pi / 2.0
        ids = np.empty((nc + 1, nr + 1), dtype=int)
        for i in range(nc + 1):
            inner_key = square_edge_key(k, i)
            inner = np.asarray(coords[index[inner_key]])
            theta = theta0 + (np.pi / 2.0) * i / nc
            outer = np.array([np.cos(theta), np.sin(theta)])
            for j in range(nr + 1):
                rho = j / nr
                xy = (1.0 - rho) * inner + rho * outer
                if j == 0:
                    key = inner_key
                elif i == 0:
                    key = ("ray", k, j)
                elif i == nc:
                    key = ("ray", (k + 1) % 4, j)
                else:
                    key = ("b", k, i, j)
                ids[i, j] = node(key, xy)
        for i in range(nc):
            for j in range(nr):
                quads.append([ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]])
    for i in range(nc):
        for j in range(nc):
            quads.append([index[("c", i, j)], index[("c", i + 1, j)],
                          index[("c", i + 1, j + 1)], index[("c", i, j + 1)]])

    nodes = np.asarray(coords)
    quads_arr = np.asarray(quads, dtype=np.int64)
    # Wind every quad clockwise (negative signed area) so that extrusion
    # toward the epicardium yields positively oriented hexahedra.
    p = nodes[quads_arr]
    area2 = np.zeros(len(quads_arr))
    for e in range(4):
        a, b = p[:, e], p[:, (e + 1) % 4]
        area2 += a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    flip = area2 > 0
    quads_arr[flip] = quads_arr[flip][:, ::-1]
    return nodes, quads_arr


def _cap_points(axes, mu_base: float, disk_xy: np.ndarray) -> np.ndarray:
    """Map unit-disk points onto an ellipsoidal cap.

    The cap spans reduced colatitude [0, mu_base] from the apex at
    (0, 0, -c); the unit circle lands exactly on the truncation ring.
    """
    a, b, c = axes
    p, q = disk_xy[..., 0], disk_xy[..., 1]
    r = np.hypot(p, q)
    theta = np.arctan2(q, p)
    mu = r * mu_base
    return np.stack([
        a * np.sin(mu) * np.cos(theta),
        b * np.sin(mu) * np.sin(theta),
        -c * np.cos(mu),
    ], axis=-1)


def _meridian_arc(axes, mu_base: float) -> float:
    """Arc length of the apex-to-base meridian, by fine trapezoid rule."""
    a, _, c = axes
    mu = np.linspace(0.0, mu_base, 2001)
    speed = np.hypot(a * np.cos(mu), c * np.sin(mu))
    return float(np.trapezoid(speed, mu))


def build_lv_mesh(endo_axes, epi_axes, truncation_height: float, h: float) -> Mesh:
    """Truncated-ellipsoid shell between two confocal-ish ellipsoids.

    The shell sits between the endocardial ellipsoid (semiaxes endo_axes)
    and the epicardial one (epi_axes), both centred at the origin with the
    apex pointing down the z axis, cut by the plane z = truncation_height.
    The inner surface is tagged ENDO, the outer EPI and the cut plane BASE;
    together they cover the whole boundary.

    Raises InvalidArgumentError when the wall is thinner than two cells
    anywhere, since a single transmural layer cannot carry fiber rotation.
    """
    endo = np.asarray(endo_axes, dtype=float)
    epi = np.asarray(epi_axes, dtype=float)
    if endo.shape != (3,) or epi.shape != (3,):
        raise InvalidArgumentError("semiaxes must be length-3 sequences")
    axes = np.concatenate([endo, epi])
    if not np.all((axes > 0.0) & (axes < np.inf)):
        raise InvalidArgumentError(
            f"semiaxes must be positive and finite, got {endo.tolist()} "
            f"and {epi.tolist()}")
    if not np.all(epi > endo):
        raise InvalidArgumentError(
            f"epicardial semiaxes {epi.tolist()} must exceed endocardial {endo.tolist()} componentwise")
    if not 0.0 < h < np.inf:
        raise InvalidArgumentError(
            f"characteristic size must be positive and finite, got {h}")
    zb = float(truncation_height)
    # with finite semiaxes this also rejects a NaN or infinite height
    if not (-min(endo[2], epi[2]) < zb < min(endo[2], epi[2])):
        raise InvalidArgumentError(
            f"truncation plane z={zb} must be finite and intersect both "
            "ellipsoids")

    mu_endo = float(np.arccos(-zb / endo[2]))
    mu_epi = float(np.arccos(-zb / epi[2]))
    mid = 0.5 * (endo + epi)
    mu_mid = float(np.arccos(-zb / mid[2]))

    rr, tt = np.meshgrid(np.linspace(0.0, 1.0, 33),
                         np.linspace(0.0, 2.0 * np.pi, 65), indexing="ij")
    probe = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    thickness = np.linalg.norm(_cap_points(epi, mu_epi, probe)
                               - _cap_points(endo, mu_endo, probe), axis=-1)
    if thickness.min() < 2.0 * h:
        raise InvalidArgumentError(
            f"wall thickness {thickness.min():.4g} cm is below 2h = {2 * h:.4g} cm; "
            "choose a finer h or a thicker shell")
    n_layers = max(2, int(round(float(thickness.mean()) / h)))

    # Size the disk grid against mid-surface lengths: the disk radius maps
    # to the apex-to-base meridian and the unit circle to the basal ring.
    arc = _meridian_arc(mid, mu_mid)
    ring_len = np.pi * (mid[0] + mid[1]) * float(np.sin(mu_mid))
    square_frac = float(np.clip(ring_len / 8.0 / arc, 0.25, 0.6))
    n_arc = max(2, 2 * int(round(ring_len / 8.0 / h)))
    n_radial = max(2, int(round((1.0 - square_frac) * arc / h)))

    disk_nodes, disk_quads = _disk_grid(n_arc, n_radial, square_frac)
    surf_endo = _cap_points(endo, mu_endo, disk_nodes)
    surf_epi = _cap_points(epi, mu_epi, disk_nodes)
    rho = np.linspace(0.0, 1.0, n_layers + 1)
    # layers stack from endocardium (k=0) to epicardium (k=n_layers)
    nodes = ((1.0 - rho)[:, None, None] * surf_endo[None]
             + rho[:, None, None] * surf_epi[None]).reshape(-1, 3)

    nd = len(disk_nodes)
    layer_offsets = nd * np.arange(n_layers)
    bottom = disk_quads[None, :, :] + layer_offsets[:, None, None]
    elems = np.concatenate([bottom, bottom + nd], axis=2).reshape(-1, 8)

    faces = _extract_boundary(elems)
    layer_of = faces // nd
    tags = np.full(len(faces), int(SurfaceTag.BASE), dtype=np.int16)
    tags[np.all(layer_of == 0, axis=1)] = int(SurfaceTag.ENDO)
    tags[np.all(layer_of == n_layers, axis=1)] = int(SurfaceTag.EPI)
    base_mask = tags == int(SurfaceTag.BASE)
    if not np.allclose(nodes[faces[base_mask]][:, :, 2], zb, atol=1e-9 * max(epi)):
        raise InvalidArgumentError("base faces do not lie on the truncation plane")

    mesh = Mesh(nodes, elems, faces, tags, float(h))
    mesh.validate()
    return mesh
