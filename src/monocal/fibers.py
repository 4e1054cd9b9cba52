"""Rule-based myocardial fiber architecture from harmonic coordinates.

Two Laplace solves provide a transmural coordinate (1 on the endocardium,
0 on the epicardium) and an apicobasal coordinate (0 at the apex, 1 on the
base). Their gradients span a local wall frame; fibers are laid at an
angle interpolated linearly across the wall, sheets tilted about the
fiber axis.

Frame convention: with e_t the unit transmural gradient, e_l the unit
apicobasal direction orthogonalized against e_t, and e_c = e_l x e_t the
circumferential axis, the fiber is

    f = cos(alpha) e_c + sin(alpha) e_l,

i.e. alpha = 0 lays fibers circumferentially and positive alpha rotates
toward the base. The sheet normal pair starts at (s0, e_t) with
s0 = -sin(alpha) e_c + cos(alpha) e_l and is rotated by beta about f.
On slabs without a BASE surface the apicobasal coordinate falls back to
x/Lx along the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import _hex, fem, vtkio
from .errors import InvalidArgumentError
from .geometry import Mesh, SurfaceTag


@dataclass(frozen=True)
class FiberAngles:
    """Fiber and sheet angles (degrees) on the two wall surfaces."""

    alpha_endo: float = 60.0
    alpha_epi: float = -60.0
    beta_endo: float = -20.0
    beta_epi: float = 20.0

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("alpha_endo", "alpha_epi"):
            a = getattr(self, name)
            if not -90.0 < a < 90.0:
                raise InvalidArgumentError(f"{name}={a} must lie in (-90, 90) degrees")
        for name in ("beta_endo", "beta_epi"):
            b = getattr(self, name)
            if not -np.inf < b < np.inf:
                raise InvalidArgumentError(f"{name}={b} must be finite")

    def alpha(self, phi):
        """Fiber angle (radians) at transmural coordinate phi (1 = endo)."""
        return np.deg2rad(self.alpha_endo * phi + self.alpha_epi * (1.0 - phi))

    def beta(self, phi):
        return np.deg2rad(self.beta_endo * phi + self.beta_epi * (1.0 - phi))


@dataclass
class FiberField:
    """Orthonormal (fiber, sheet, normal) triple at every node."""

    f: np.ndarray
    s: np.ndarray
    n: np.ndarray
    singular: np.ndarray

    def validate(self, tol: float = 1e-8) -> None:
        # written so that a NaN component fails the checks
        for name, v in (("f", self.f), ("s", self.s), ("n", self.n)):
            if not np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= tol:
                raise InvalidArgumentError(f"{name} axis is not unit length")
        if not (np.abs(np.sum(self.f * self.s, axis=1)).max() <= tol
                and np.abs(np.sum(self.f * self.n, axis=1)).max() <= tol
                and np.abs(np.sum(self.s * self.n, axis=1)).max() <= tol):
            raise InvalidArgumentError("fiber frame is not orthogonal")

    def write(self, path, mesh: Mesh) -> None:
        """Store the field as VTK point data, the layout `read` loads."""
        vtkio.write_fields(path, mesh, {
            "fiber": self.f, "sheet": self.s, "normal": self.n,
            "singular": self.singular.astype(float)})

    @classmethod
    def read(cls, path) -> "FiberField":
        """Load and validate a field stored by `write`; a file without
        the 'singular' data has no singular nodes."""
        fields = vtkio.read_fields(path)
        for name in ("fiber", "sheet", "normal"):
            if name not in fields:
                raise InvalidArgumentError(
                    f"fibers file {path} lacks the '{name}' vector field")
        singular = fields.get("singular", np.zeros(len(fields["fiber"])))
        field = cls(f=fields["fiber"], s=fields["sheet"], n=fields["normal"],
                    singular=singular > 0.5)
        field.validate()
        return field

    @classmethod
    def uniform(cls, n_nodes: int) -> "FiberField":
        """Fibers along x, sheets along y, normals along z everywhere
        (slab studies with axis-aligned fibers)."""
        frame = np.eye(3)
        ones = np.ones((n_nodes, 1))
        return cls(f=ones * frame[0], s=ones * frame[1], n=ones * frame[2],
                   singular=np.zeros(n_nodes, dtype=bool))


def solve_transmural(mesh: Mesh, laplace: csr_matrix) -> np.ndarray:
    """Wall-depth coordinate: 1 on the endocardium, 0 on the epicardium.

    laplace is the unit-conductivity stiffness matrix of the mesh.
    """
    endo = mesh.boundary_node_ids(SurfaceTag.ENDO)
    epi = mesh.boundary_node_ids(SurfaceTag.EPI)
    if endo.size == 0 or epi.size == 0:
        raise InvalidArgumentError("mesh lacks tagged ENDO/EPI surfaces")
    ids = np.concatenate([endo, epi])
    vals = np.concatenate([np.ones(endo.size), np.zeros(epi.size)])
    return fem.solve_dirichlet(laplace, np.zeros(mesh.n_nodes), ids, vals)


def apex_node_set(mesh: Mesh) -> np.ndarray:
    """Boundary nodes within 1.5 h of the lowest boundary point."""
    if not mesh.characteristic_size > 0.0:
        raise InvalidArgumentError(
            "the mesh has no size h (its title has no h= token), and the "
            "apex node set is the boundary within 1.5 h of the apex")
    surf = mesh.boundary_node_ids()
    z = mesh.nodes[surf, 2]
    lowest = mesh.nodes[surf[np.argmin(z)]]
    d = np.linalg.norm(mesh.nodes[surf] - lowest, axis=1)
    return surf[d <= 1.5 * mesh.characteristic_size]


def solve_apicobasal(mesh: Mesh, laplace: csr_matrix) -> np.ndarray:
    """Apex-to-base coordinate: 0 at the apex set, 1 on the base.

    laplace is the unit-conductivity stiffness matrix of the mesh. Slabs
    carry no BASE tag; the coordinate then falls back to the normalized
    first axis x/Lx (documented slab convention).
    """
    base = mesh.boundary_node_ids(SurfaceTag.BASE)
    if base.size == 0:
        x = mesh.nodes[:, 0]
        span = x.max() - x.min()
        if span <= 0.0:
            raise InvalidArgumentError("degenerate mesh: zero extent along x")
        return (x - x.min()) / span
    apex = np.setdiff1d(apex_node_set(mesh), base)
    ids = np.concatenate([apex, base])
    vals = np.concatenate([np.zeros(apex.size), np.ones(base.size)])
    return fem.solve_dirichlet(laplace, np.zeros(mesh.n_nodes), ids, vals)


def nodal_gradients(mesh: Mesh, *fields: np.ndarray) -> list[np.ndarray]:
    """Gradient of each node field, averaged element-corner-wise with
    Jacobian-determinant weights. The corner Jacobians, their determinants
    and inverses are built once for all fields, one block of _hex.BLOCK
    elements at a time, and each block's weighted corner gradients are
    added into the node sums in element order (the order one bincount
    over all elements would add them in)."""
    if any(field.shape != (mesh.n_nodes,) for field in fields):
        raise InvalidArgumentError("field length does not match node count")
    # (8 corners, 24) reference gradients: column 3 p + d is dN/dxi_d at p
    dN = _hex.shape_gradients(_hex.CORNERS).transpose(1, 0, 2).reshape(8, 24)
    wsum = np.zeros(mesh.n_nodes)
    sums = [np.zeros((mesh.n_nodes, 3)) for _ in fields]
    for part in _hex.blocks(mesh.n_elems):
        elems = mesh.elems[part]
        jac = _hex.jacobians(mesh.nodes[elems], _hex.CORNERS)
        det, inv_t = _hex.inverse_transposes(jac, InvalidArgumentError,
                                             "corner", part.start)
        corners = elems.ravel()
        np.add.at(wsum, corners, det.ravel())
        for field, out in zip(fields, sums):
            ref_grad = (field[elems] @ dN).reshape(-1, 8, 1, 3)
            grad = np.matmul(ref_grad, inv_t.transpose(0, 1, 3, 2))[:, :, 0]
            for d in range(3):
                np.add.at(out[:, d], corners, (det * grad[:, :, d]).ravel())
    return [out / wsum[:, None] for out in sums]


def generate_fibers(mesh: Mesh, angles: FiberAngles | None = None) -> FiberField:
    """Build the orthonormal fiber frame at every node.

    Nodes where the frame degenerates (vanishing transmural gradient, or
    apicobasal gradient parallel to it, as happens near the apex) are
    flagged singular and inherit the frame of the nearest regular node,
    the lowest id among equally near ones (`Mesh.nearest_nodes`).
    """
    angles = angles or FiberAngles()
    laplace = fem.AssemblyPlan.of(mesh).stiffness(np.eye(3))
    phi = solve_transmural(mesh, laplace)
    psi = solve_apicobasal(mesh, laplace)

    g_t, g_l = nodal_gradients(mesh, phi, psi)
    nt = np.linalg.norm(g_t, axis=1)
    singular = nt < 1e-10
    e_t = g_t / np.where(singular, 1.0, nt)[:, None]

    raw = g_l - np.sum(g_l * e_t, axis=1)[:, None] * e_t
    nl = np.linalg.norm(raw, axis=1)
    singular |= nl < 1e-8 * np.maximum(np.linalg.norm(g_l, axis=1), 1e-300)
    e_l = raw / np.where(nl < 1e-300, 1.0, nl)[:, None]
    e_c = np.cross(e_l, e_t)

    phi_clip = np.clip(phi, 0.0, 1.0)
    a = angles.alpha(phi_clip)[:, None]
    b = angles.beta(phi_clip)[:, None]
    f = np.cos(a) * e_c + np.sin(a) * e_l
    s0 = -np.sin(a) * e_c + np.cos(a) * e_l
    s = np.cos(b) * s0 + np.sin(b) * e_t
    n = -np.sin(b) * s0 + np.cos(b) * e_t

    if singular.all():
        raise InvalidArgumentError("fiber frame is singular everywhere")
    donor, _ = mesh.nearest_nodes(mesh.nodes[singular], np.flatnonzero(~singular))
    for v in (f, s, n):
        v[singular] = v[donor]

    field = FiberField(f=f, s=s, n=n, singular=singular)
    field.validate()
    return field
