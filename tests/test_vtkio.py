"""Legacy VTK reading and writing."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from monocal.errors import FormatError, InvalidArgumentError
from monocal.geometry import build_slab_mesh
from monocal.vtkio import (read_fields, read_mesh, surface_path, write_fields,
                           write_mesh)


@pytest.fixture
def slab():
    return build_slab_mesh((0.2, 0.15, 0.1), 0.05)


_CUBE_POINTS = """POINTS 8 double
0 0 0
1 0 0
0 1 0
1 1 0
0 0 1
1 0 1
0 1 1
1 1 1
"""
_CUBE_HEX = _CUBE_POINTS + """CELLS 1 9
8 0 1 3 2 4 5 7 6
CELL_TYPES 1
12
"""


class TestFileFormat:
    """The unit cube's files, byte for byte."""

    def test_mesh_and_surface_files(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        assert path.read_text() == (
            "# vtk DataFile Version 3.0\nmonocal mesh h=1\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\n" + _CUBE_HEX)
        assert surface_path(path).read_text() == (
            "# vtk DataFile Version 3.0\nmonocal boundary surface\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\n" + _CUBE_POINTS + """CELLS 6 30
4 0 2 3 1
4 4 5 7 6
4 0 1 5 4
4 3 2 6 7
4 1 3 7 5
4 0 4 6 2
CELL_TYPES 6
9
9
9
9
9
9
CELL_DATA 6
SCALARS surface_tag int 1
LOOKUP_TABLE default
1
2
0
0
0
0
""")

    def test_fields_file(self, unit_cube, tmp_path):
        path = tmp_path / "fields.vtk"
        tau = np.array([np.nan, 0.5, 1 / 3, -2.0, 1e-12, 123456789.0, 0.0,
                        7.0])
        write_fields(path, unit_cube,
                     {"tau": tau, "dir": np.arange(24).reshape(8, 3) / 4})
        assert path.read_text() == (
            "# vtk DataFile Version 3.0\nmonocal fields h=1\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\n" + _CUBE_HEX + """POINT_DATA 8
SCALARS tau double 1
LOOKUP_TABLE default
nan
0.5
0.333333333
-2
1e-12
123456789
0
7
VECTORS dir double
0 0.25 0.5
0.75 1 1.25
1.5 1.75 2
2.25 2.5 2.75
3 3.25 3.5
3.75 4 4.25
4.5 4.75 5
5.25 5.5 5.75
""")


class TestMeshRoundTrip:
    def test_round_trip_preserves_structure(self, slab, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, slab)
        assert surface_path(path).exists()
        back = read_mesh(path)
        assert np.allclose(back.nodes, slab.nodes, atol=1e-9)
        assert np.array_equal(back.elems, slab.elems)
        assert np.array_equal(back.boundary_faces, slab.boundary_faces)
        assert np.array_equal(back.boundary_tags, slab.boundary_tags)
        assert back.characteristic_size == slab.characteristic_size

    def test_write_read_write_is_idempotent(self, slab, tmp_path):
        first = tmp_path / "a.vtk"
        second = tmp_path / "b.vtk"
        write_mesh(first, slab)
        write_mesh(second, read_mesh(first))
        assert first.read_bytes() == second.read_bytes()
        assert surface_path(first).read_bytes() == \
            surface_path(second).read_bytes()

    def test_missing_surface_companion(self, slab, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, slab)
        surface_path(path).unlink()
        with pytest.raises(FormatError, match="surface"):
            read_mesh(path)


class TestMeshParseErrors:
    def test_seven_node_cell_names_the_cell(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        text = path.read_text()
        path.write_text(text.replace("\n8 ", "\n7 ", 1))
        with pytest.raises(FormatError,
                           match=r"line \d+: cell 0 lists 7 corner nodes"):
            read_mesh(path)

    def test_not_a_vtk_file(self, tmp_path):
        path = tmp_path / "mesh.vtk"
        path.write_text("hello\nworld\n")
        with pytest.raises(FormatError, match="not a legacy VTK file"):
            read_mesh(path)

    def test_non_numeric_token_is_named_with_its_line(self, unit_cube,
                                                       tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        path.write_text(path.read_text().replace("\n1 1 1\n", "\n1 x 1\n"))
        with pytest.raises(FormatError, match="line 13: bad value 'x'"):
            read_mesh(path)

    @pytest.mark.parametrize("token", ["abc", "nan", "inf", "-inf", "0",
                                       "-0.05", ""])
    def test_title_size_must_be_positive_and_finite(self, unit_cube,
                                                    tmp_path, token):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        text = path.read_text()
        path.write_text(text.replace(" h=1\n", f" h={token}\n", 1))
        with pytest.raises(FormatError,
                           match=f"line 2: title token h={token} is not"):
            read_mesh(path)

    def test_title_without_a_size_is_rejected(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        path.write_text(path.read_text().replace(" h=1\n", "\n", 1))
        with pytest.raises(FormatError, match="line 2: title has no h= token"):
            read_mesh(path)

    def test_wrong_cell_type(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        path.write_text(path.read_text().replace("\n12\n", "\n9\n"))
        with pytest.raises(FormatError,
                           match="line 17: cell 0 has type 9, expected 12"):
            read_mesh(path)

    def test_cell_data_count_must_match_the_faces(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        spath = surface_path(path)
        spath.write_text(spath.read_text().replace("CELL_DATA 6",
                                                   "CELL_DATA 5"))
        # the surface file is named, not the volume file read_mesh was given
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {spath}: line 28: expected CELL_DATA 6")):
            read_mesh(path)

    def test_unexpected_section(self, unit_cube, tmp_path):
        path = tmp_path / "fields.vtk"
        write_fields(path, unit_cube, {"u": np.zeros(unit_cube.n_nodes)})
        with path.open("a") as handle:
            handle.write("FIELD FieldData 1\n")
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {path}: line 29: unexpected section 'FIELD'")):
            read_fields(path)

    def test_scalars_without_component_count(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        spath = surface_path(path)
        spath.write_text(spath.read_text().replace(
            "SCALARS surface_tag int 1", "SCALARS surface_tag int"))
        assert np.array_equal(read_mesh(path).boundary_tags,
                              unit_cube.boundary_tags)

    def test_truncated_file(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")
        with pytest.raises(FormatError, match="end of file"):
            read_mesh(path)

    def test_mesh_without_cells_fails_the_audit(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_mesh(path, unit_cube)
        text = path.read_text()
        path.write_text(text[:text.index("CELLS")]
                        + "CELLS 0 0\nCELL_TYPES 0\n")
        # the element checks of the audit name the volume file
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {path}: mesh has no elements")):
            read_mesh(path)

    def test_node_in_no_element_fails_the_audit(self, unit_cube, tmp_path):
        path = tmp_path / "mesh.vtk"
        # a ninth node that the one hexahedron does not use
        nodes = np.vstack([unit_cube.nodes, [2.0, 0.0, 0.0]])
        write_mesh(path, dataclasses.replace(unit_cube, nodes=nodes))
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {path}: node 8 belongs to no element")):
            read_mesh(path)

    def test_surface_with_an_unknown_node_fails_the_audit(self, unit_cube,
                                                          tmp_path):
        path = tmp_path / "mesh.vtk"
        # every occurrence is renumbered, so the surface stays closed
        faces = unit_cube.boundary_faces.copy()
        faces[faces == 7] = 8
        write_mesh(path, dataclasses.replace(unit_cube, boundary_faces=faces))
        # the face checks of the audit name the surface file
        with pytest.raises(FormatError, match=re.escape(
                f"invalid file {surface_path(path)}: boundary faces "
                "reference unknown nodes")):
            read_mesh(path)


class TestFields:
    def test_scalar_and_vector_round_trip(self, slab, tmp_path):
        path = tmp_path / "fields.vtk"
        rng = np.random.default_rng(11)
        scalar = rng.normal(size=slab.n_nodes)
        scalar[3] = np.nan
        vector = rng.normal(size=(slab.n_nodes, 3))
        write_fields(path, slab, {"tau": scalar, "direction": vector})
        back = read_fields(path)
        assert set(back) == {"tau", "direction"}
        assert np.allclose(back["tau"], scalar, atol=1e-9, equal_nan=True)
        assert np.isnan(back["tau"][3])
        assert np.allclose(back["direction"], vector, atol=1e-9)

    def test_zero_field_round_trip(self, unit_cube, tmp_path):
        path = tmp_path / "fields.vtk"
        write_fields(path, unit_cube, {"u": np.zeros(unit_cube.n_nodes)})
        back = read_fields(path)
        assert np.array_equal(back["u"], np.zeros(unit_cube.n_nodes))

    def test_bad_shape_is_rejected(self, unit_cube, tmp_path):
        path = tmp_path / "fields.vtk"
        with pytest.raises(InvalidArgumentError, match="shape"):
            write_fields(path, unit_cube, {"u": np.zeros(5)})
