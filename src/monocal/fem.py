"""Trilinear (Q1) finite element assembly and the linear solver.

One AssemblyPlan per mesh holds everything assembly needs that does not
depend on the coefficients: the CSR sparsity pattern, the int32 map that
adds element-local 8x8 blocks into it, the slots of the diagonal (so a
matrix whose diagonal changes every time step can be updated in place),
and the lumped mass vector. It keeps no Gauss point geometry: stiffness
recomputes the Jacobians, determinants and inverses of each block of
elements from the mesh's own arrays, with _hex's batched 3x3 kernels,
and every contraction over elements is a batched matrix product. Set-up
memory stays close to what the plan keeps: the pattern comes from the
element-node incidence product, without sorting one key per block
entry; and every per-element pass (the determinants, the scatter map,
the lumped mass, and the geometry, gradients, fluxes and element
matrices of stiffness) runs over blocks of _hex.BLOCK elements, writing
each block straight into the arrays it fills. No whole-mesh temporary
is built, and the element matrices are added into the data array in
element order, as one bincount over all of them would.
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
from .errors import InvalidArgumentError, MonocalError
from .geometry import Mesh


_GAUSS_GRADIENTS = _hex.shape_gradients(_hex.GAUSS2)


class AssemblyPlan:
    """The coefficient-independent assembly data of one mesh.

    Attributes
    ----------
    nodes, elems : the mesh's own coordinate and connectivity arrays
        (not copies), from which gradients recomputes the geometry.
    nnz, indices, indptr, shape : the CSR pattern of all node-pair
        couplings.
    entry_slots : (64 n_elems,) int32 data slot of every entry of the
        (n_elems, 8, 8) element matrices.
    diag_slots : data slots of the diagonal, in node order.
    lumped_mass : (n_nodes,) read-only row sums of the consistent mass
        matrix, i.e. the integral of each basis function.

    Raises InvalidArgumentError naming the first inverted element, if
    any.
    """

    def __init__(self, mesh: Mesh):
        self.nodes, self.elems = mesh.nodes, mesh.elems
        values = _hex.shape_values(_hex.GAUSS2)
        self.lumped_mass = np.zeros(mesh.n_nodes)
        for part in _hex.blocks(len(self.elems)):
            corners = self.elems[part]
            wdet = _hex.determinants(
                _hex.jacobians(self.nodes[corners], _hex.GAUSS2))
            _hex.require_positive(wdet, "Gauss point", part.start)
            np.add.at(self.lumped_mass, corners.ravel(), (wdet @ values).ravel())
        self.lumped_mass.flags.writeable = False
        self._set_pattern(self.elems, mesh.n_nodes)

    def _set_pattern(self, elems: np.ndarray, n: int) -> None:
        """The CSR pattern and scatter map. Beyond the pattern's own
        int64 keys, no temporary is larger than one block's entries."""
        n_elems = len(elems)
        # node i couples to node j where an element holds both: the
        # pattern of inc^T inc, inc the element-node incidence matrix
        inc = csr_matrix((np.ones(8 * n_elems, dtype=bool), elems.ravel(),
                          np.arange(0, 8 * n_elems + 1, 8)), shape=(n_elems, n))
        pattern = (inc.T @ inc).tocsr()
        pattern.sort_indices()
        self.nnz = pattern.nnz
        self.indices = pattern.indices.astype(np.int32, copy=False)
        self.indptr = pattern.indptr.astype(np.int32, copy=False)
        self.shape = (n, n)
        # the row of every stored entry; rows ascend, so the diagonal
        # slots come in node order
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        self.diag_slots = np.nonzero(keys == self.indices)[0]
        # the keys row * n + col ascend in CSR order too, so a block
        # entry's data slot is where its key sorts among them
        keys *= n
        keys += self.indices
        self.entry_slots = np.empty(64 * n_elems, dtype=np.int32)
        slots = self.entry_slots.reshape(n_elems, 8, 8)
        for part in _hex.blocks(n_elems):
            corner = elems[part].astype(np.int64)
            slots[part] = np.searchsorted(
                keys, corner[:, :, None] * n + corner[:, None, :])

    @classmethod
    def of(cls, mesh: Mesh) -> "AssemblyPlan":
        """The mesh's shared plan, built on first use and kept on the
        mesh; no code writes into a Mesh's arrays once it is built."""
        plan = getattr(mesh, "_assembly_plan", None)
        if plan is None:
            plan = mesh._assembly_plan = cls(mesh)
        return plan

    def gradients(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian determinants (k, 8) at the 2x2x2 Gauss points
        (_hex.GAUSS2, whose weights are all one) of a block of elements,
        and their physical shape-function gradients, (k, 8, 8, 3) indexed
        [element, shape function, Gauss point, axis] so that stiffness
        contracts each (point, axis) pair in one product."""
        wdet, inv = _hex.inverse_transposes(
            _hex.jacobians(self.nodes[self.elems[block]], _hex.GAUSS2),
            "Gauss point", block.start or 0)
        # J^-T turned into a C-ordered J^-1, each temporary freed when
        # the next is made: with that operand contiguous, the matmul
        # runs 3x faster
        inv = np.ascontiguousarray(inv.swapaxes(2, 3))
        grads = np.empty((len(inv), 8, 8, 3))
        # grads[e, k, q] = J_eq^-T dN_k(q), written as dN_k(q)^T J_eq^-1
        np.matmul(_GAUSS_GRADIENTS, inv, out=grads.transpose(0, 2, 1, 3))
        return wdet, grads

    def stiffness(self, tensors) -> csr_matrix:
        """Stiffness matrix int (D grad phi_j) . grad phi_i for one
        finite symmetric (3, 3) tensor D or one per element (n_elems, 3,
        3), taken as given. Its data array is in slot order, so
        diag_slots index its diagonal."""
        tensors = np.asarray(tensors, dtype=float)
        n_elems = len(self.elems)
        if tensors.shape == (3, 3):
            tensors = np.broadcast_to(tensors, (n_elems, 3, 3))
        # K_e = sum_q wdet_eq G_eq D_e G_eq^T, with G_eq the (8, 3)
        # gradients at point q: one (8, 24) @ (24, 8) product per element,
        # a block at a time, added into data in element order
        data = np.zeros(self.nnz)
        slots = self.entry_slots.reshape(n_elems, 64)
        matrices = np.empty((_hex.BLOCK, 8, 8))
        for part in _hex.blocks(n_elems):
            wdet, grads = self.gradients(part)
            k = len(grads)
            flux = np.matmul(grads.reshape(k, 64, 3), tensors[part])
            flux = flux.reshape(k, 8, 24)
            flux *= np.repeat(wdet, 3, axis=1)[:, None, :]
            np.matmul(flux, grads.reshape(k, 8, 24).transpose(0, 2, 1),
                      out=matrices[:k])
            np.add.at(data, slots[part].ravel(), matrices[:k].ravel())
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)


@dataclass
class SolveReport:
    """Outcome of a converged solve: the solution and the iterations it
    took (a solve that does not converge raises)."""

    x: np.ndarray
    iterations: int


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
    direction with p^T A p <= 0, and MonocalError with the tolerance and
    the last residual when max_iter iterations do not suffice.
    """
    if diag is None:
        diag = A.diagonal()
    if not np.all(diag > 0.0):
        raise InvalidArgumentError("CG needs a positive diagonal (SPD matrix)")
    minv = 1.0 / diag
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return SolveReport(x=np.zeros(len(b)), iterations=0)
    tol = rel_tol * norm_b
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    iterations = 0
    while True:
        r = b - A @ x
        residual = math.sqrt(r @ r)
        if residual <= tol:
            return SolveReport(x=x, iterations=iterations)
        if iterations >= max_iter:
            raise MonocalError(
                f"CG did not reach {tol:.3e} in {max_iter} iterations "
                f"(residual {residual:.3e})")
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


def solve_dirichlet(A: csr_matrix, fixed_ids: np.ndarray,
                    fixed_values: np.ndarray) -> np.ndarray:
    """Solve A x = 0 off the fixed nodes, which hold fixed_values.

    The constrained rows and columns are eliminated (right-hand side
    -A[free, fixed] @ fixed_values, taken as the free rows of A x with x
    zero off the fixed nodes) and the reduced system, SPD for a stiffness
    matrix with at least one fixed node per connected part, is solved by
    conjugate gradients (gmres_solve).
    """
    n = A.shape[0]
    fixed_ids = np.asarray(fixed_ids, dtype=int)
    fixed_values = np.asarray(fixed_values, dtype=float)
    if fixed_ids.size == 0:
        raise InvalidArgumentError("Dirichlet solve needs at least one fixed node")
    mask = np.zeros(n, dtype=bool)
    mask[fixed_ids] = True
    free = np.nonzero(~mask)[0]

    x = np.zeros(n)
    x[fixed_ids] = fixed_values
    rhs = -(A @ x)[free]
    x[free] = gmres_solve(A[free][:, free], rhs).x
    return x
