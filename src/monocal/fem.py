"""Trilinear (Q1) finite element assembly and the linear solver.

One AssemblyPlan per mesh holds everything assembly needs that does not
depend on the coefficients: the CSR sparsity pattern, the map that
scatters element-local 8x8 blocks into it in one bincount pass, the
slots of the diagonal (so a matrix whose diagonal changes every time
step can be updated in place), the Jacobian determinants and shape
gradients at the Gauss points, and the lumped mass vector. The Gauss
point geometry comes from _hex's batched 3x3 kernel, and every
contraction over elements is a batched matrix product.
`AssemblyPlan.of` builds it on first use and keeps it on the Mesh, so
the fiber Laplace solve and every simulation on one mesh share it; only
the conductivity tensors change between them.
Every system this package builds is symmetric positive definite, and
one Jacobi-preconditioned conjugate-gradient solver handles them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import _hex
from .errors import AssemblyError, InvalidArgumentError, NonConvergenceError
from .geometry import Mesh


class AssemblyPlan:
    """The coefficient-independent assembly data of one mesh.

    Attributes
    ----------
    nnz, indices, indptr, shape : the CSR pattern of all node-pair
        couplings.
    entry_slots : data slot of every entry of the (n_elems, 8, 8) blocks.
    diag_slots : data slots of the diagonal, in node order.
    wdet : (n_elems, 8) Jacobian determinants at the 2x2x2 Gauss points
        (_hex.GAUSS2, whose weights are all one).
    grads : (n_elems, 8, 8, 3) physical shape-function gradients there,
        indexed [element, shape function, Gauss point, axis] so that
        stiffness contracts each (point, axis) pair in one product.
    lumped_mass : (n_nodes,) read-only row sums of the consistent mass
        matrix, i.e. the integral of each basis function.

    Raises AssemblyError naming the first inverted element, if any.
    """

    def __init__(self, mesh: Mesh):
        self._set_pattern(mesh.elems, mesh.n_nodes)
        elems = mesh.elems
        jac = _hex.jacobians(mesh.nodes[elems], _hex.GAUSS2)
        self.wdet, inv_t = _hex.inverse_transposes(jac, AssemblyError,
                                                   "Gauss point")
        # grads[e, k, q] = J_eq^-T dN_k(q), written as dN_k(q)^T J_eq^-1
        self.grads = np.empty((len(elems), 8, 8, 3))
        np.matmul(_hex.shape_gradients(_hex.GAUSS2),
                  inv_t.transpose(0, 1, 3, 2),
                  out=self.grads.transpose(0, 2, 1, 3))
        contrib = self.wdet @ _hex.shape_values(_hex.GAUSS2)
        self.lumped_mass = np.bincount(elems.ravel(), weights=contrib.ravel(),
                                       minlength=mesh.n_nodes)
        self.lumped_mass.flags.writeable = False

    def _set_pattern(self, elems: np.ndarray, n: int) -> None:
        """The CSR pattern and scatter map; its sort temporaries, several
        times the size of the blocks, are freed on return."""
        corner = elems.astype(np.int64)
        # one key row * n + col per block entry; sorted keys are in CSR
        # order, and the inverse map is each entry's data slot
        keys = (corner[:, :, None] * n + corner[:, None, :]).ravel()
        unique_keys, self.entry_slots = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(unique_keys, n)
        self.nnz = len(unique_keys)
        self.indices = cols.astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.shape = (n, n)
        # keys are sorted by row, so the diagonal slots come in node order
        self.diag_slots = np.nonzero(rows == cols)[0]

    @classmethod
    def of(cls, mesh: Mesh) -> "AssemblyPlan":
        """The mesh's shared plan, built on first use and kept on the
        mesh; no code writes into a Mesh's arrays once it is built."""
        plan = getattr(mesh, "_assembly_plan", None)
        if plan is None:
            plan = mesh._assembly_plan = cls(mesh)
        return plan

    def assemble(self, element_blocks: np.ndarray) -> csr_matrix:
        """A fresh CSR matrix on the plan's pattern; its data array is
        in slot order, so diag_slots index its diagonal."""
        data = np.bincount(self.entry_slots, weights=element_blocks.ravel(),
                           minlength=self.nnz)
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def stiffness(self, tensors) -> csr_matrix:
        """Stiffness matrix int (D grad phi_j) . grad phi_i for one
        symmetric (3, 3) tensor D or one per element (n_elems, 3, 3)."""
        tensors = np.asarray(tensors, dtype=float)
        n_elems = len(self.wdet)
        if tensors.shape == (3, 3):
            tensors = np.broadcast_to(tensors, (n_elems, 3, 3))
        if tensors.shape != (n_elems, 3, 3):
            raise InvalidArgumentError(
                f"tensors must have shape (n_elems, 3, 3), got {tensors.shape}")
        if not np.isfinite(tensors).all():
            raise InvalidArgumentError("conductivity tensors must be finite")
        asym = np.abs(tensors - tensors.transpose(0, 2, 1)).max(axis=(1, 2))
        scale = np.abs(tensors).max(axis=(1, 2)) + 1e-300
        bad = np.nonzero(asym > 1e-10 * scale)[0]
        if bad.size:
            raise InvalidArgumentError(
                f"conductivity tensor of element {int(bad[0])} is not symmetric")
        # K_e = sum_q wdet_eq G_eq D_e G_eq^T, with G_eq the (8, 3)
        # gradients at point q: one (8, 24) @ (24, 8) product per element
        grads = self.grads.reshape(n_elems, 8, 24)
        flux = np.matmul(self.grads.reshape(n_elems, 64, 3), tensors)
        flux = flux.reshape(n_elems, 8, 24)
        flux *= np.repeat(self.wdet, 3, axis=1)[:, None, :]
        return self.assemble(np.matmul(flux, grads.transpose(0, 2, 1)))


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """Consistent mass matrix int phi_i phi_j, from a fresh plan.

    The stepper uses only its row sums (AssemblyPlan.lumped_mass); the
    full matrix is the reference those row sums are checked against.
    """
    plan = AssemblyPlan(mesh)
    N = _hex.shape_values(_hex.GAUSS2)
    return plan.assemble(np.matmul(N.T * plan.wdet[:, None, :], N))


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
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return SolveReport(x=np.zeros(len(b)), iterations=0, residual=0.0,
                           converged=True)
    tol = rel_tol * norm_b
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    iterations = 0
    while True:
        r = b - A @ x
        residual = math.sqrt(r @ r)
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
            if math.sqrt(r @ r) <= tol:
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
