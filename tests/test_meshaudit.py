"""The standard-library mesh audit of `verify` against spheremesh, the numpy
pipeline of `mesh` export: the same meshes, colors, gluing and audit dicts."""

import numpy as np
import pytest

from hodge_domains import meshaudit, spheremesh
from hodge_domains.meshaudit import (
    Mesh,
    MeshError,
    audit_mesh,
    audit_passes,
    color_pairs,
    levels_pass,
    octahedron,
    subdivide,
    three_color,
)
from conftest import flip
from test_spheremesh import BAD_LINKS, CORRUPTED, outcome

_CHAIN = []


def level(s):
    """(spheremesh triangulation, meshaudit mesh) of the s times subdivided octahedron."""
    if not _CHAIN:
        _CHAIN.append((spheremesh.octahedron(), octahedron()))
    while len(_CHAIN) <= s:
        tri, mesh = _CHAIN[-1]
        _CHAIN.append((spheremesh.subdivide(tri), subdivide(mesh)))
    return _CHAIN[s]


def rows(array):
    return [tuple(row) for row in array.tolist()]


def exported_audit(tri):
    """spheremesh.audit_mesh of tri's three_color, as mesh export runs it."""
    colors = spheremesh.three_color(tri)
    return spheremesh.audit_mesh(tri, colors, spheremesh.mesh_geometry(tri), spheremesh.color_pairs(tri, colors))


def assert_same_audit(ours, theirs):
    """Ints and bools exactly, of the same type; floats within 1e-12."""
    assert ours.keys() == theirs.keys()
    for key, value in theirs.items():
        assert type(ours[key]) is type(value), key
        if isinstance(value, float):
            assert abs(ours[key] - value) <= 1e-12, key
        else:
            assert ours[key] == value, key


SUBDIVISIONS = range(5)


@pytest.mark.parametrize("s", SUBDIVISIONS)
def test_topology_equals_spheremesh(s):
    # the midpoint of sorted edge k is vertex V + k, and the faces come in subdivide's order
    tri, mesh = level(s)
    assert mesh.faces == rows(tri.face_array)
    assert mesh.edges == rows(tri.edges)
    assert mesh.face_edges == rows(tri.face_edges)
    assert mesh.edge_faces == rows(tri.edge_faces)
    assert np.abs(np.array(mesh.vertices) - tri.vertices).max() <= 1e-15


@pytest.mark.parametrize("s", SUBDIVISIONS)
def test_colors_and_gluing_pairs_equal_spheremesh(s):
    tri, mesh = level(s)
    exported = spheremesh.three_color(tri)
    colors = three_color(mesh)
    assert colors == exported.tolist()
    pairs = spheremesh.color_pairs(tri, exported)
    assert color_pairs(mesh, colors) == rows(pairs)
    assert_same_audit(meshaudit._gluing(mesh, color_pairs(mesh, colors)), spheremesh.gluing_pattern(tri, pairs))


@pytest.mark.parametrize("s", SUBDIVISIONS)
def test_audit_equals_audit_mesh(s):
    tri, mesh = level(s)
    ours = audit_mesh(mesh, three_color(mesh))
    assert_same_audit(ours, exported_audit(tri))
    assert audit_passes(ours)


@pytest.mark.parametrize("s", range(3))
def test_inward_faces_audit_as_in_spheremesh(s):
    # every face reversed: the circumcenters are still taken on the faces'
    # side, so the radii stay; the containment test, which reads the
    # orientation, fails in both
    tri, mesh = level(s)
    inward = Mesh(mesh.vertices, [face[::-1] for face in mesh.faces])
    theirs = spheremesh.SphericalTriangulation(tri.vertices, tri.face_array[:, ::-1])
    ours = audit_mesh(inward, three_color(inward))
    assert_same_audit(ours, exported_audit(theirs))
    assert abs(ours["fineness"] - audit_mesh(mesh, three_color(mesh))["fineness"]) <= 1e-12
    assert not ours["circumcenters_inside"]


# one failing value per field that audit_passes judges
FAILING = {
    "even": False,
    "proper_coloring": False,
    "euler_characteristic": 0,
    "circumcenters_inside": False,
    "max_equidistance_residual": meshaudit.ANGLE_TOL,
    "gluing_euler": None,
    "gluing_closed": False,
    "gluing_links_single_cycles": False,
    "gluing_color_matched": False,
}


@pytest.mark.parametrize("key", sorted(FAILING))
def test_audit_passes_judges_every_field(key):
    good = audit_mesh(octahedron(), three_color(octahedron()))
    assert audit_passes(good)
    assert not audit_passes({**good, key: FAILING[key]})


def test_gluing_of_pairs_without_a_proper_coloring():
    # audit_mesh glues only proper colorings, whose glued polyhedron is always
    # a closed sphere; pairs (0, 1) on every edge of the octahedron put each
    # face on three matchings of colors 0 and 1 (one class each) and on none
    # of color 2 (8 classes): 10 - 12 + 8 = 6
    assert meshaudit._gluing(octahedron(), [(0, 1)] * 12) == {
        "gluing_euler": 6,
        "gluing_closed": True,
        "gluing_links_single_cycles": False,
        "gluing_color_matched": True,
    }


def test_levels_pass():
    assert meshaudit.LEVELS == 4
    assert levels_pass()


def test_levels_fail_when_the_fineness_does_not_decrease(monkeypatch):
    # every level passes its own audit, but a subdivision that returns its
    # input leaves the fineness where it was
    monkeypatch.setattr(meshaudit, "subdivide", lambda mesh: mesh)
    assert not levels_pass()


# the first fault of each corrupted copy of the once subdivided octahedron
S1_FAULTS = {
    "s1 without face 1": "edge (6, 10) borders 1 faces",
    "s1 with face 0 flipped": "directed edge (7, 6) repeated: orientation broken",  # at face 3
    "s1 with face 5 repeated": "directed edge (3, 13) repeated: orientation broken",
}


@pytest.mark.parametrize("kind", sorted({**CORRUPTED, **BAD_LINKS}))
def test_corrupted_mesh_fails_as_in_spheremesh(kind):
    num_vertices, faces = CORRUPTED.get(kind) or BAD_LINKS[kind]
    expected = outcome(spheremesh.SphericalTriangulation, np.tile([1.0, 0.0, 0.0], (num_vertices, 1)), np.array(faces))
    assert expected[0] is MeshError and expected[1] == S1_FAULTS.get(kind, expected[1])
    assert outcome(Mesh, [(1.0, 0.0, 0.0)] * num_vertices, faces) == expected


@pytest.mark.parametrize(
    "colors",
    [(0,) * 6, (0, 0, 1, 2, 1, 2), (0, 1, 2, 0, 1), (0, 1, 2, 0, 1, 3), (2, 1, 0, 1, 0, 2)],
    ids=["monochromatic", "one monochromatic edge", "short", "color 3", "not trichromatic"],
)
def test_improper_coloring_fails_the_audit(colors):
    ours = audit_mesh(octahedron(), list(colors))
    assert ours["proper_coloring"] is False and not audit_passes(ours)
    tri = spheremesh.octahedron()
    # with the pairs of the proper coloring, which an improper one never glues
    pairs = spheremesh.color_pairs(tri, spheremesh.three_color(tri))
    theirs = spheremesh.audit_mesh(tri, np.array(colors), spheremesh.mesh_geometry(tri), pairs)
    assert_same_audit(ours, theirs)


def test_odd_mesh_fails_the_audit():
    # one flipped edge of the once subdivided octahedron: a closed sphere
    # with four odd degrees, which no propagation colors properly
    _, mesh = level(1)
    odd = Mesh(mesh.vertices, flip(mesh.faces, *mesh.edges[0]))
    result = audit_mesh(odd, three_color(odd))
    assert sum(d % 2 for d in odd.degrees()) == 4
    assert not result["even"] and not result["proper_coloring"] and not audit_passes(result)
    assert result["euler_characteristic"] == 2


@pytest.mark.parametrize("s, moved, onto", [(0, 4, 3), (0, 1, 5), (1, 3, 16), (1, 3, 7), (1, 4, 10)])
def test_degenerate_face_named_as_in_spheremesh(s, moved, onto):
    tri, mesh = level(s)
    verts = tri.vertices.copy()
    verts[moved] = verts[onto]
    expected = outcome(spheremesh.mesh_geometry, spheremesh.SphericalTriangulation(verts, tri.face_array))
    assert expected[0] is MeshError
    moved_mesh = Mesh(verts.tolist(), mesh.faces)
    assert outcome(audit_mesh, moved_mesh, three_color(moved_mesh)) == expected


def test_antipodal_edge_has_no_midpoint():
    pillow = Mesh([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(MeshError, match="antipodal"):
        subdivide(pillow)


@pytest.mark.parametrize("moved", [(2.0, 0.0, 0.0), (float("nan"), 0.0, 0.0), (1.0, 0.0)], ids=["off", "nan", "short"])
def test_vertices_off_the_sphere_rejected(moved):
    vertices = [moved, *octahedron().vertices[1:]]
    with pytest.raises(MeshError, match="unit sphere"):
        Mesh(vertices, octahedron().faces)
