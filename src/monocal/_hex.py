"""Reference-element helpers for 8-node trilinear hexahedra.

Shared by the geometry audit and the finite element assembly so both
agree on corner ordering and shape function conventions.
"""

from __future__ import annotations

import numpy as np

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
    (nel, npts, 3, 3) with J[a, d] = d x_a / d xi_d.
    """
    dN = shape_gradients(ref_points)
    return np.einsum("eka,pkd->epad", corner_coords, dN)
