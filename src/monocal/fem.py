"""Trilinear (Q1) finite element assembly and the linear solver.

Assembly is fully vectorized over elements. A precomputed AssemblyPlan
maps element-local 8x8 blocks straight into CSR data and knows where
each diagonal entry lives, so a matrix whose diagonal changes every time
step can be updated in place on a fixed sparsity pattern. Every system
this package builds is symmetric positive definite, and one
Jacobi-preconditioned conjugate-gradient solver handles them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import _hex
from .errors import AssemblyError, InvalidArgumentError, NonConvergenceError
from .geometry import Mesh


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference cube [-1,1]^3."""

    points: np.ndarray
    weights: np.ndarray


def gauss2() -> QuadratureRule:
    """Tensor-product 2x2x2 Gauss rule, exact through degree 3 per axis."""
    g = 1.0 / np.sqrt(3.0)
    return QuadratureRule(points=_hex.CORNERS * g, weights=np.ones(8))


@dataclass
class ElementGeometry:
    """Per-element quadrature data on a fixed mesh.

    Attributes
    ----------
    wdet : (n_elems, nq) quadrature weights times Jacobian determinants.
    grads : (n_elems, nq, 8, 3) physical shape-function gradients.
    shapes : (nq, 8) reference shape values.
    """

    wdet: np.ndarray
    grads: np.ndarray
    shapes: np.ndarray


def precompute_geometry(mesh: Mesh) -> ElementGeometry:
    """Evaluate Jacobians and physical gradients at the 2x2x2 Gauss points.

    Raises AssemblyError naming the first inverted element, if any.
    """
    rule = gauss2()
    corner_coords = mesh.nodes[mesh.elems]
    jac = _hex.jacobians(corner_coords, rule.points)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        bad = int(np.nonzero(np.any(det <= 0.0, axis=1))[0][0])
        raise AssemblyError(f"element {bad} has non-positive Jacobian")
    inv_t = np.linalg.inv(jac).transpose(0, 1, 3, 2)
    dN = _hex.shape_gradients(rule.points)
    grads = np.einsum("epab,pkb->epka", inv_t, dN)
    wdet = det * rule.weights[None, :]
    return ElementGeometry(wdet=wdet, grads=grads, shapes=_hex.shape_values(rule.points))


class AssemblyPlan:
    """CSR scatter plan for repeated assembly on one mesh.

    The plan fixes the union sparsity pattern of all node-pair couplings
    and exposes `assemble`, which turns (n_elems, 8, 8) element blocks
    into a CSR matrix on that pattern via a single bincount pass.
    """

    def __init__(self, mesh: Mesh):
        elems = mesh.elems
        rows = np.repeat(elems, 8, axis=1).ravel()
        cols = np.tile(elems, (1, 8)).ravel()
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        new_pair = np.empty(len(rs), dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        slot_of_sorted = np.cumsum(new_pair) - 1
        self.entry_slots = np.empty(len(rs), dtype=np.int64)
        self.entry_slots[order] = slot_of_sorted
        self.nnz = int(slot_of_sorted[-1]) + 1
        n = mesh.n_nodes
        unique_rows = rs[new_pair]
        unique_cols = cs[new_pair]
        self.indices = unique_cols.astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(self.indptr, unique_rows + 1, 1)
        self.indptr = np.cumsum(self.indptr, dtype=np.int32)
        self.shape = (n, n)
        # pairs are sorted by row, so the diagonal slots come in node order
        self.diag_slots = np.nonzero(unique_rows == unique_cols)[0]

    def assemble(self, element_blocks: np.ndarray) -> csr_matrix:
        """A fresh CSR matrix on the plan's pattern; its data array is
        in slot order, so diag_slots index its diagonal."""
        data = np.bincount(self.entry_slots, weights=element_blocks.ravel(),
                           minlength=self.nnz)
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def mass_blocks(geo: ElementGeometry) -> np.ndarray:
    """Element blocks of the consistent mass matrix int phi_i phi_j."""
    N = geo.shapes
    return np.einsum("eq,qi,qj->eij", geo.wdet, N, N, optimize=True)


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """Consistent mass matrix.

    The stepper uses only its row sums (lumped_mass_vector); the full
    matrix is the reference those row sums are checked against.
    """
    return AssemblyPlan(mesh).assemble(mass_blocks(precompute_geometry(mesh)))


def lumped_mass_vector(mesh: Mesh, geo: ElementGeometry | None = None) -> np.ndarray:
    """Row sums of the mass matrix as a vector (integrals of each basis fn)."""
    geo = geo or precompute_geometry(mesh)
    contrib = np.einsum("eq,qi->ei", geo.wdet, geo.shapes)
    return np.bincount(mesh.elems.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_nodes)


def stiffness_blocks(geo: ElementGeometry, tensors: np.ndarray) -> np.ndarray:
    """Element stiffness blocks for per-element symmetric tensors (nel,3,3)."""
    asym = np.abs(tensors - tensors.transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.abs(tensors).max(axis=(1, 2)) + 1e-300
    bad = np.nonzero(asym > 1e-10 * scale)[0]
    if bad.size:
        raise InvalidArgumentError(
            f"conductivity tensor of element {int(bad[0])} is not symmetric")
    return np.einsum("eq,eqid,edc,eqjc->eij", geo.wdet, geo.grads, tensors,
                     geo.grads, optimize=True)


def assemble_stiffness(mesh: Mesh, tensors: np.ndarray) -> csr_matrix:
    """Stiffness matrix int (D grad phi_j) . grad phi_i with D per element."""
    tensors = np.asarray(tensors, dtype=float)
    if tensors.shape == (3, 3):
        tensors = np.broadcast_to(tensors, (len(mesh.elems), 3, 3))
    if tensors.shape != (len(mesh.elems), 3, 3):
        raise InvalidArgumentError(
            f"tensors must have shape (n_elems, 3, 3), got {tensors.shape}")
    plan = AssemblyPlan(mesh)
    return plan.assemble(stiffness_blocks(precompute_geometry(mesh), tensors))


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def gmres_solve(A, b: np.ndarray, x0: np.ndarray | None = None,
                rel_tol: float = 1e-10, max_iter: int = 2000,
                diag: np.ndarray | None = None) -> SolveReport:
    """Jacobi-preconditioned conjugate gradients for an SPD system A x = b.

    The name is kept because perfbench/spans.py hooks this attribute.
    diag, when given, must be A's diagonal; a caller that has just
    written it passes it to save its extraction. Converged means the
    true residual ||b - A x|| <= rel_tol * ||b||, recomputed from A when
    the recursive residual says so. Raises InvalidArgumentError when A is
    not SPD, as shown by a non-positive diagonal entry or a search
    direction with p^T A p <= 0, and NonConvergenceError carrying the
    last iterate when max_iter iterations do not suffice.
    """
    if diag is None:
        diag = A.diagonal()
    if not np.all(diag > 0.0):
        raise InvalidArgumentError("CG needs a positive diagonal (SPD matrix)")
    minv = 1.0 / diag
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveReport(x=np.zeros(len(b)), iterations=0, residual=0.0,
                           converged=True)
    tol = rel_tol * norm_b
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    iterations = 0
    while True:
        r = b - A @ x
        residual = float(np.linalg.norm(r))
        if residual <= tol:
            return SolveReport(x=x, iterations=iterations, residual=residual,
                               converged=True)
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"CG did not reach {tol:.3e} in {max_iter} iterations "
                f"(residual {residual:.3e})", best=x, residual=residual,
                iterations=iterations)
        z = minv * r
        p = z
        rz = r @ z
        while iterations < max_iter:
            q = A @ p
            pq = p @ q
            if pq <= 0.0:
                raise InvalidArgumentError(
                    f"CG found p^T A p = {pq:.3e} <= 0: the matrix is not SPD")
            step = rz / pq
            x += step * p
            r -= step * q
            iterations += 1
            if np.linalg.norm(r) <= tol:
                break
            z = minv * r
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p


def solve_dirichlet(A: csr_matrix, b: np.ndarray, fixed_ids: np.ndarray,
                    fixed_values: np.ndarray) -> np.ndarray:
    """Solve A x = b with prescribed values on a set of nodes.

    The constrained rows and columns are eliminated and the reduced
    system, SPD for a stiffness matrix with at least one fixed node per
    connected part, is solved by conjugate gradients (gmres_solve).
    """
    n = A.shape[0]
    fixed_ids = np.asarray(fixed_ids, dtype=int)
    fixed_values = np.asarray(fixed_values, dtype=float)
    if fixed_ids.size != fixed_values.size:
        raise InvalidArgumentError("fixed ids and values must align")
    if fixed_ids.size == 0:
        raise InvalidArgumentError("Dirichlet solve needs at least one fixed node")
    mask = np.zeros(n, dtype=bool)
    mask[fixed_ids] = True
    free = np.nonzero(~mask)[0]

    x = np.zeros(n)
    x[fixed_ids] = fixed_values
    rhs = b[free] - A[free][:, fixed_ids] @ fixed_values
    x[free] = gmres_solve(A[free][:, free], rhs).x
    return x
