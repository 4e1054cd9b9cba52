"""Reading and writing meshes and node fields in legacy ASCII VTK.

Volume meshes are written as UNSTRUCTURED_GRID files with hexahedron
cells (type 12). Boundary tags travel in a companion surface file holding
the boundary quads (type 9) with the tag as integer cell data, sharing the
volume file's point numbering. Node fields are written as POINT_DATA
scalars or vectors on the volume grid.

All three files go through one writer, `_write` (header, grid, at most
one POINT_DATA or CELL_DATA section), and one reader, `_read`, which
converts each number block after the header with one numpy call, parses
both data sections with the same code and counts lines only to report
an error. `_read` raises FormatError with the file line at fault, and
`read_mesh` and `read_fields` name the file in it: the volume file, or the
surface file under its own path.

Coordinates and field values are emitted with 9 significant digits, which
is the round-trip precision contract for these files.
"""

from __future__ import annotations

from contextlib import suppress
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidArgumentError, reported_as
from .geometry import Mesh, check_boundary, check_elements

_HEADER = "# vtk DataFile Version 3.0"
_FMT = "%.9g"


def surface_path(path) -> Path:
    """Companion surface-file path for a volume mesh path."""
    p = Path(path)
    return p.with_name(p.stem + "_surface" + p.suffix)


def _rows(values: np.ndarray, fmt: str) -> str:
    """One text line per row of values, each value formatted with fmt
    (one `%` over Python scalars, so the formatting runs in C)."""
    rows = values if values.ndim == 2 else values[:, None]
    line = " ".join([fmt] * rows.shape[1])
    return "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())


def _write(path, title: str, points: np.ndarray, cells: np.ndarray,
           cell_type: int, data_kind: str | None,
           fields: dict[str, np.ndarray]) -> None:
    """Write a grid of one cell type and, unless data_kind is None, one
    POINT_DATA or CELL_DATA section: a field of shape (n,) as SCALARS, of
    shape (n, 3) as VECTORS, typed int if it is an integer array."""
    n_cells, corners = cells.shape
    n = len(points) if data_kind == "POINT_DATA" else n_cells
    parts = [_HEADER, title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(points)} double", _rows(points, _FMT),
             f"CELLS {n_cells} {n_cells * (corners + 1)}",
             _rows(np.column_stack([np.full(n_cells, corners), cells]), "%d"),
             f"CELL_TYPES {n_cells}", "\n".join([str(cell_type)] * n_cells)]
    if data_kind is not None:
        parts.append(f"{data_kind} {n}")
    for name, values in fields.items():
        kind, fmt = ("int", "%d") if values.dtype.kind in "iu" \
            else ("double", _FMT)
        if values.shape == (n,):
            parts += [f"SCALARS {name} {kind} 1", "LOOKUP_TABLE default"]
        elif values.shape == (n, 3):
            parts.append(f"VECTORS {name} {kind}")
        else:
            raise InvalidArgumentError(
                f"field '{name}' has shape {values.shape}, expected "
                f"({n},) or ({n}, 3)")
        parts.append(_rows(values, fmt))
    Path(path).write_text("\n".join(part for part in parts if part) + "\n")


def write_mesh(path, mesh: Mesh) -> None:
    """Write the volume grid to `path` and the boundary quads with their
    surface tags to the companion `surface_path(path)`."""
    _write(path, f"monocal mesh h={_FMT % mesh.characteristic_size}",
           mesh.nodes, mesh.elems, 12, None, {})
    _write(surface_path(path), "monocal boundary surface", mesh.nodes,
           mesh.boundary_faces, 9, "CELL_DATA",
           {"surface_tag": np.asarray(mesh.boundary_tags, dtype=int)})


def write_fields(path, mesh: Mesh, fields: dict[str, np.ndarray]) -> None:
    """Write node fields as POINT_DATA on a copy of the volume grid.

    Scalars must have shape (n_nodes,), vectors (n_nodes, 3). Not-a-number
    entries are preserved as `nan` tokens.
    """
    _write(path, f"monocal fields h={_FMT % mesh.characteristic_size}",
           mesh.nodes, mesh.elems, 12, "POINT_DATA",
           {name: np.asarray(v, dtype=float) for name, v in fields.items()})


def _read(path, cell_type: int, corners: int, data_kind: str | None = None,
          required: tuple[str, ...] = ()):
    """Parse a file laid out by `_write` into its (line, title), points,
    cells and data_kind fields by name (with data_kind None, nothing after
    the cell types is read). Each name in required must be a SCALARS field."""
    text = Path(path).read_text()
    head, rest, start = [], text, 0  # start: the lines read so far
    while len(head) < 4 and rest:
        line, _, rest = rest.partition("\n")
        start += 1
        if line.strip():
            head.append((start, line.strip()))
    if not head or not head[0][1].startswith("# vtk DataFile"):
        raise FormatError("not a legacy VTK file", line=start)
    if len(head) < 4:
        raise FormatError("unexpected end of file while reading header",
                          line=start)
    title, (_, fmt), (_, dataset) = head[1:]
    if fmt != "ASCII" or dataset.split() != ["DATASET", "UNSTRUCTURED_GRID"]:
        raise FormatError(f"expected ASCII and DATASET UNSTRUCTURED_GRID"
                          f", got {fmt!r} and {dataset!r}", line=start)
    used = 0  # tokens taken from the body

    def line_of(index: int) -> int:  # past the last token: the last line
        counts = np.cumsum([len(line.split())
                            for line in text.splitlines()[start:]])
        return start + int(np.searchsorted(counts[:-1], index, "right")) + 1

    def peek() -> str | None:
        return next(iter(rest.split(None, 1)), None)

    def take(count: int, what: str, dtype=None):
        """The next count tokens, converted to dtype with one numpy call."""
        nonlocal rest, used
        block = rest.split(None, max(count, 0))
        rest = block.pop() if len(block) > max(count, 0) else ""
        if not 0 <= count == len(block):
            raise FormatError(
                f"unexpected end of file while reading {what}" if count >= 0
                else f"negative count while reading {what}",
                line=line_of(used + count))
        used += count
        if dtype is None:
            return block
        try:
            return np.array(block, dtype=dtype)
        except ValueError:
            for k, token in enumerate(block):
                try:
                    dtype(token)
                except ValueError:
                    raise FormatError(
                        f"bad value {token!r} while reading {what}",
                        line=line_of(used - count + k)) from None
            raise

    def section(keyword: str, *types):
        """The arguments of the keyword line expected next, as types."""
        words = take(1 + len(types), f"{keyword} header")
        if words[0] == keyword:
            with suppress(ValueError):
                return [t(w) for t, w in zip(types, words[1:])]
        raise FormatError(
            f"expected {keyword} header, got {' '.join(words)!r}",
            line=line_of(used - len(words)))

    n_points, _ = section("POINTS", int, str)
    points = take(3 * n_points, "point coordinates", float).reshape(-1, 3)
    n_cells, total = section("CELLS", int, int)
    raw = take(total, "cell connectivity", np.int64)
    # each cell's corner count, where every cell before it is well formed
    counts = raw[::corners + 1][:n_cells]
    bad = np.flatnonzero(counts != corners)
    if bad.size:
        raise FormatError(
            f"cell {bad[0]} lists {counts[bad[0]]} corner nodes, expected "
            f"{corners}", line=line_of(used - total + bad[0] * (corners + 1)))
    if total != n_cells * (corners + 1):
        raise FormatError(f"CELLS lists {total} values for {n_cells} "
                          f"cells of {corners} corners",
                          line=line_of(used - total))
    cells = raw.reshape(n_cells, corners + 1)[:, 1:].copy()
    n_types, = section("CELL_TYPES", int)
    types = take(n_types, "cell types", np.int64)
    bad = np.flatnonzero(types != cell_type)
    if bad.size:
        raise FormatError(
            f"cell {bad[0]} has type {types[bad[0]]}, expected {cell_type}",
            line=line_of(used - n_types + bad[0]))

    fields: dict[str, np.ndarray] = {}
    n = n_points if data_kind == "POINT_DATA" else n_cells
    if data_kind is not None and section(data_kind, int) != [n]:
        raise FormatError(f"expected {data_kind} {n}", line=line_of(used - 2))
    while data_kind is not None and (keyword := peek()) is not None:
        if keyword not in ("SCALARS", "VECTORS"):
            raise FormatError(f"unexpected section {keyword!r}",
                              line=line_of(used))
        _, name, vtype = take(3, f"{keyword} header")
        if keyword == "SCALARS":
            if peek() != "LOOKUP_TABLE":
                take(1, "SCALARS header")  # the optional component count
            section("LOOKUP_TABLE", str)
            fields[name] = take(n, f"field {name}",
                                np.int64 if vtype == "int" else float)
        else:
            fields[name] = take(3 * n, f"field {name}", float).reshape(-1, 3)
    for name in required:
        if name not in fields or fields[name].ndim != 1:
            raise FormatError(f"expected SCALARS {name} in {data_kind}",
                              line=line_of(used))
    return title, points, cells, fields


def read_mesh(path) -> Mesh:
    """Read a volume mesh and its surface file. The mesh size h is the
    title's last `h=` token, which is required and must be a positive
    finite number. The structural audit (`Mesh.validate`) runs in two
    halves, so a defect is reported with the file at fault: the element
    checks with the volume file, the face and tag checks with the
    surface file."""
    with reported_as(f"file {path}"):
        (line, title), points, elems, _ = _read(path, 12, 8)
        sizes = [t[2:] for t in title.split() if t.startswith("h=")]
        if not sizes:
            raise FormatError("title has no h= token (the mesh size)",
                              line=line)
        h = np.nan
        with suppress(ValueError):
            h = float(sizes[-1])
        if not 0.0 < h < np.inf:
            raise FormatError(f"title token h={sizes[-1]} is not a positive "
                              "finite size", line=line)
        check_elements(points, elems)
    spath = surface_path(path)
    if not spath.exists():
        raise FormatError(f"missing boundary surface file {spath}")
    with reported_as(f"file {spath}"):
        _, spts, faces, data = _read(spath, 9, 4, "CELL_DATA",
                                     ("surface_tag",))
        if len(spts) != len(points):
            raise FormatError(f"surface file has {len(spts)} points, volume "
                              f"has {len(points)}")
        tags = data["surface_tag"].astype(np.int16)
        check_boundary(len(points), faces, tags)
    return Mesh(points, elems, faces, tags, h)


def read_fields(path) -> dict[str, np.ndarray]:
    """Read POINT_DATA fields from a fields file written by write_fields."""
    with reported_as(f"file {path}"):
        return _read(path, 12, 8, "POINT_DATA")[3]
