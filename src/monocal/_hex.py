"""Reference-element helpers for 8-node trilinear hexahedra.

Shared by the geometry audit, the finite element assembly and the fiber
gradients, so all three agree on corner ordering and shape function
conventions. This module also owns their batched 3x3 geometry: the
Jacobians of a stack of elements, written as one matrix product, and
their determinants and inverse-transposes, written out in closed form
(cofactors) because generic batched LAPACK calls on 3x3 blocks cost
several times the arithmetic. All three run these per-element passes
over `blocks` of BLOCK elements, so set-up memory beyond the arrays they
keep does not grow with the mesh; each element's result depends only on
its own corners, so it is the same bits at any block size.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# Corner coordinates of the reference cube [-1, 1]^3. Ordering follows the
# usual unstructured-grid convention for linear hexahedra: bottom quad
# counterclockwise (seen from below, normal pointing into the cell), then
# the top quad.
CORNERS = np.array([
    [-1.0, -1.0, -1.0],
    [+1.0, -1.0, -1.0],
    [+1.0, +1.0, -1.0],
    [-1.0, +1.0, -1.0],
    [-1.0, -1.0, +1.0],
    [+1.0, -1.0, +1.0],
    [+1.0, +1.0, +1.0],
    [-1.0, +1.0, +1.0],
])

# Local faces as corner quadruples, oriented so the right-hand normal
# points out of the cell.
FACES = np.array([
    [0, 3, 2, 1],   # zeta = -1
    [4, 5, 6, 7],   # zeta = +1
    [0, 1, 5, 4],   # eta  = -1
    [2, 3, 7, 6],   # eta  = +1
    [1, 2, 6, 5],   # xi   = +1
    [0, 4, 7, 3],   # xi   = -1
])

# The tensor-product 2x2x2 Gauss rule on the reference cube, exact through
# degree 3 per axis: one point per corner direction at +-1/sqrt(3), and
# every weight is one.
GAUSS2 = CORNERS * (1.0 / np.sqrt(3.0))

# Elements per block of every per-element pass. The largest per-block
# temporaries, the stiffness gradients and fluxes, take 8 * 8 * 3 doubles
# (1.5 kB) per element each, 0.8 MB a block
BLOCK = 512


def blocks(n_elems: int):
    """Consecutive slices of at most BLOCK elements covering n_elems."""
    for start in range(0, n_elems, BLOCK):
        yield slice(start, min(start + BLOCK, n_elems))


def shape_values(points: np.ndarray) -> np.ndarray:
    """Trilinear shape functions at reference points.

    Returns an array of shape (npts, 8).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.prod(1.0 + CORNERS[None, :, :] * pts[:, None, :], axis=2) / 8.0


def shape_gradients(points: np.ndarray) -> np.ndarray:
    """Gradients of the shape functions in reference coordinates.

    Returns an array of shape (npts, 8, 3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    grads = np.empty((npts, 8, 3))
    for d in range(3):
        terms = 1.0 + CORNERS[None, :, :] * pts[:, None, :]
        terms[:, :, d] = CORNERS[None, :, d]
        grads[:, :, d] = np.prod(terms, axis=2) / 8.0
    return grads


def jacobians(corner_coords: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
    """Jacobians dx/dxi for a batch of elements at given reference points.

    corner_coords has shape (nel, 8, 3); the result has shape
    (nel, npts, 3, 3) with J[a, d] = d x_a / d xi_d. All of them come
    from one (3 nel x 8) @ (8 x 3 npts) product of the corner
    coordinates with the shape gradients; the result is a view of it.
    """
    dN = shape_gradients(ref_points)
    nel, npts = len(corner_coords), len(dN)
    jac = (corner_coords.transpose(0, 2, 1).reshape(3 * nel, 8)
           @ dN.transpose(1, 0, 2).reshape(8, 3 * npts))
    return jac.reshape(nel, 3, npts, 3).transpose(0, 2, 1, 3)


def _first_row_expansion(jac: np.ndarray):
    """The nine entries of each 3x3 block, the cofactors of its first
    row and the determinant expanded along that row."""
    m = [[jac[..., r, c] for c in range(3)] for r in range(3)]
    (a, b, c), (d, e, f), (g, h, i) = m
    row0 = (e * i - f * h, f * g - d * i, d * h - e * g)
    return m, row0, a * row0[0] + b * row0[1] + c * row0[2]


def determinants(jac: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 3x3 matrices (..., 3, 3), in closed form."""
    return _first_row_expansion(jac)[2]


def require_positive(det: np.ndarray, where: str, first: int = 0) -> None:
    """Raise InvalidArgumentError naming the first element whose
    (nel, npts) determinants are not all positive (a NaN counts as not
    positive); first is the global id of the batch's element 0."""
    bad = ~(det > 0.0)
    if bad.any():
        elem = first + int(np.nonzero(bad.any(axis=1))[0][0])
        raise InvalidArgumentError(f"element {elem} is inverted or degenerate "
                                   f"(non-positive Jacobian at a {where})")


def inverse_transposes(jac: np.ndarray, where: str, first: int = 0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and inverse-transposes of (nel, npts, 3, 3) Jacobians.

    J^-T is the cofactor matrix over det J. The determinants are checked
    with require_positive(det, where, first) before anything is divided.
    """
    m, row0, det = _first_row_expansion(jac)
    require_positive(det, where, first)
    (a, b, c), (d, e, f), (g, h, i) = m
    inv_t = np.empty_like(jac)
    inv_t[..., 0, 0], inv_t[..., 0, 1], inv_t[..., 0, 2] = row0
    inv_t[..., 1, 0] = c * h - b * i
    inv_t[..., 1, 1] = a * i - c * g
    inv_t[..., 1, 2] = b * g - a * h
    inv_t[..., 2, 0] = b * f - c * e
    inv_t[..., 2, 1] = c * d - a * f
    inv_t[..., 2, 2] = a * e - b * d
    inv_t /= det[..., None, None]
    return det, inv_t
