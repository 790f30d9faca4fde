import json
import math
import tracemalloc
import warnings
from collections import deque, namedtuple
from unittest import mock

import numpy as np
import pytest

from conftest import flip
from hodge_domains import meshaudit, wire
from hodge_domains.meshaudit import MeshError, audit_passes
from hodge_domains.spheremesh import (
    SphericalTriangulation,
    audit_mesh,
    color_pairs,
    gluing_pattern,
    mesh_geometry,
    octahedron,
    off_chunks,
    sidecar_document,
    subdivide,
    three_color,
)


def fineness(tri: SphericalTriangulation) -> float:
    """Largest angular circumradius over all faces."""
    return float(mesh_geometry(tri)[1].max())


_CHAIN = []


def meshes_up_to(s_max):
    if not _CHAIN:
        _CHAIN.append(octahedron())
    while len(_CHAIN) <= s_max:
        _CHAIN.append(subdivide(_CHAIN[-1]))
    for s in range(s_max + 1):
        yield s, _CHAIN[s]


# -- the seed mesh ------------------------------------------------------------


def test_octahedron_counts_and_euler():
    t = octahedron()
    assert (t.num_vertices, t.num_edges, t.num_faces) == (6, 12, 8)
    assert t.euler_characteristic() == 2


def test_octahedron_even_degree_four():
    t = octahedron()
    assert t.vertex_degrees() == [4] * 6
    assert t.is_even()


def test_octahedron_equal_circumradii():
    t = octahedron()
    radii = mesh_geometry(t)[1].tolist()
    assert max(radii) - min(radii) < 1e-12
    assert abs(radii[0] - math.acos(1 / math.sqrt(3))) < 1e-12


# -- subdivision ----------------------------------------------------------------


def test_subdivision_counts():
    t = subdivide(octahedron())
    assert (t.num_vertices, t.num_edges, t.num_faces) == (18, 48, 32)
    assert t.euler_characteristic() == 2


def test_subdivision_preserves_evenness_five_levels():
    for s, tri in meshes_up_to(5):
        assert tri.is_even(), f"odd degree at subdivision {s}"
        assert tri.euler_characteristic() == 2


def test_subdivision_new_vertices_have_degree_six():
    t = subdivide(octahedron())
    degrees = t.vertex_degrees()
    assert degrees[:6] == [4] * 6
    assert degrees[6:] == [6] * 12


def test_fineness_strictly_decreasing_and_bounded():
    values = [fineness(tri) for _, tri in meshes_up_to(5)]
    for a, b in zip(values, values[1:]):
        assert b < a
    # fitted regression constant: observed max of fineness * 2^s is ~1.414
    for s, f in enumerate(values):
        assert f <= 1.45 * 2.0 ** (-s)


# -- coloring ---------------------------------------------------------------------


def test_octahedron_axis_coloring():
    t = octahedron()
    c = three_color(t).tolist()
    # antipodal vertices share a color and the three axes get distinct colors
    assert c[0] == c[3]
    assert c[1] == c[4]
    assert c[2] == c[5]
    assert sorted((c[0], c[1], c[2])) == [0, 1, 2]


def test_coloring_proper_up_to_five_subdivisions():
    for s, tri in meshes_up_to(5):
        colors = three_color(tri)
        assert colors.dtype == np.int64
        assert audit_mesh(tri, colors, mesh_geometry(tri), color_pairs(tri, colors))["proper_coloring"] is True


def test_non_even_mesh_not_colorable():
    # Flip one edge of the octahedron: still a valid closed surface, but four
    # vertices acquire odd degree, so the propagated coloring is improper.
    t = octahedron()
    faces = flip([tuple(face) for face in t.face_array.tolist()], 1, 2)
    flipped, reference = SphericalTriangulation(t.vertices, np.array(faces)), ReferenceTriangulation(t.vertices, faces)
    assert not flipped.is_even()
    with pytest.raises(ValueError):
        reference_verify_coloring(reference, three_color(flipped).tolist())
    with pytest.raises(ValueError):
        reference_three_color(reference)
    # Both audits fail it.  The flipped octahedron has an antipodal edge, so
    # no circumcircle geometry: flip an edge of the subdivided octahedron.
    tri = subdivide(t)
    faces = flip([tuple(face) for face in tri.face_array.tolist()], *tri.edges[0].tolist())
    odd, mesh = SphericalTriangulation(tri.vertices, np.array(faces)), meshaudit.Mesh(tri.vertices.tolist(), faces)
    colors = three_color(odd)
    theirs = audit_mesh(odd, colors, mesh_geometry(odd), color_pairs(odd, colors))
    ours = meshaudit.audit_mesh(mesh, meshaudit.three_color(mesh))
    for audit in (theirs, ours):
        assert not audit["even"] and audit["proper_coloring"] is False and not audit_passes(audit)


def test_verify_coloring_rejects_monochromatic_edge():
    # audit_mesh is the one coloring verifier; the edge (0, 1) is monochromatic
    t = octahedron()
    colors = np.array((0, 0, 1, 2, 1, 2))
    audit = audit_mesh(t, colors, mesh_geometry(t), color_pairs(t, colors))
    assert audit["proper_coloring"] is False and not audit_passes(audit)


# -- face geometry -----------------------------------------------------------------


def test_face_geometry_octant_face():
    t = octahedron()
    face0 = t.face_array[0].tolist()  # [0, 1, 2] = (e1, e2, e3)
    centers, _, inside, residuals = mesh_geometry(t)
    expected = np.ones(3) / math.sqrt(3)
    assert np.allclose(centers[0], expected, atol=1e-14)
    assert inside[0]
    assert residuals[0] < 1e-12
    assert face0 == [0, 1, 2]


def test_face_geometry_equidistance_up_to_five_subdivisions():
    for s, tri in meshes_up_to(5):
        assert mesh_geometry(tri)[3].max() < 1e-10


def test_face_geometry_circumcenters_inside_up_to_five():
    for s, tri in meshes_up_to(5):
        assert mesh_geometry(tri)[2].all()


def test_antipodal_edge_has_no_geodesic_midpoint():
    # A valid two-face "pillow" complex whose faces contain the antipodal
    # edge (e1, -e1); subdivision must refuse to place its midpoint.
    verts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pillow = SphericalTriangulation(verts, np.array([(0, 1, 2), (2, 1, 0)]))
    assert pillow.euler_characteristic() == 2
    with pytest.raises(MeshError, match=r"^edge \(0, 1\) is antipodal"):
        subdivide(pillow)


# -- gluing ------------------------------------------------------------------------


def test_gluing_octahedron_counts():
    t = octahedron()
    pairs = color_pairs(t, three_color(t))
    assert len(t.edge_faces) == len(pairs) == 12
    assert gluing_pattern(t, pairs) == {
        "gluing_euler": 2, "gluing_closed": True, "gluing_links_single_cycles": True, "gluing_color_matched": True}


def test_gluing_color_pairs_match_by_construction():
    for s, tri in meshes_up_to(3):
        colors = three_color(tri).tolist()
        for f, g, pair in identifications(tri, color_pairs(tri, np.array(colors))):
            shared = set(tri.face_array[f].tolist()) & set(tri.face_array[g].tolist())
            assert {colors[v] for v in shared} == set(pair)


def test_gluing_rejects_improper_coloring():
    # color_pairs pairs whatever the coloring gives; both audits reject it
    t = octahedron()
    colors = np.zeros(6, dtype=np.int64)
    theirs = audit_mesh(t, colors, mesh_geometry(t), color_pairs(t, colors))
    ours = meshaudit.audit_mesh(meshaudit.octahedron(), colors.tolist())
    for audit in (theirs, ours):
        assert audit["proper_coloring"] is False and audit["gluing_euler"] is None and not audit_passes(audit)


def test_gluing_audit_up_to_four():
    for s, tri in meshes_up_to(4):
        glue = gluing_pattern(tri, color_pairs(tri, three_color(tri)))
        assert glue["gluing_euler"] == 2
        assert glue["gluing_closed"] and glue["gluing_links_single_cycles"]


# -- invariant validation -------------------------------------------------------------


def test_mesh_rejects_open_surface():
    verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(MeshError):
        SphericalTriangulation(verts, np.array([(0, 1, 2)]))


def test_mesh_rejects_off_sphere_vertices():
    verts = np.array([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(MeshError):
        SphericalTriangulation(verts, np.array([(0, 1, 2)]))


@pytest.mark.parametrize(
    "verts",
    [np.vstack([[np.nan] * 3, octahedron().vertices[1:]]), np.zeros((0, 3))],
    ids=["nan", "empty"],
)
def test_mesh_rejects_nan_or_empty_vertices(verts):
    for faces in (octahedron().face_array, np.zeros((0, 3), dtype=np.int64)):
        with pytest.raises(MeshError):
            SphericalTriangulation(verts, faces)


# -- oracles: the per-vertex link scan and the per-face geometry -------------------
#
# Kept verbatim from the implementation that the one-pass link check, the
# vectorized geometry pass and the cycle-free gluing audit replaced.


def reference_check_link(faces, vertex):
    nxt = {}
    for face in faces:
        if vertex in face:
            j = face.index(vertex)
            a, b = face[(j + 1) % 3], face[(j + 2) % 3]
            if a in nxt:
                raise MeshError(f"vertex {vertex} has a pinched link")
            nxt[a] = b
    if not nxt:
        raise MeshError(f"vertex {vertex} is isolated")
    start = next(iter(nxt))
    seen = 0
    cur = start
    while True:
        cur = nxt[cur]
        seen += 1
        if cur == start:
            break
        if seen > len(nxt):
            raise MeshError(f"vertex {vertex} link does not close up")
    if seen != len(nxt):
        raise MeshError(f"vertex {vertex} link splits into several cycles")


def reference_check_links(num_vertices, faces):
    for vertex in range(num_vertices):
        reference_check_link(faces, vertex)


FaceGeometry = namedtuple(
    "FaceGeometry", "circumcenter circumradius midpoints circumcenter_inside equidistance_residual")


def reference_face_geometry(tri, face_index):
    face = tuple(tri.face_array[face_index].tolist())
    v0, v1, v2 = (tri.vertices[x] for x in face)
    normal = np.cross(v1 - v0, v2 - v0)
    nrm = np.linalg.norm(normal)
    if nrm < 1e-13:
        raise MeshError(f"face {face} is degenerate (collinear vertices)")
    center = normal / nrm
    if np.dot(center, v0 + v1 + v2) < 0:
        center = -center
    cosr = float(np.clip(np.dot(center, v0), -1.0, 1.0))
    radius = float(np.arccos(cosr))
    residual = max(
        abs(float(np.arccos(np.clip(np.dot(center, v), -1.0, 1.0))) - radius)
        for v in (v0, v1, v2)
    )
    mids = []
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        m = a + b
        mn = np.linalg.norm(m)
        if mn < 1e-9:
            raise MeshError(f"face {face} has an antipodal edge")
        mids.append(tuple(m / mn))
    inside = all(
        float(np.dot(np.cross(a, b), center)) >= -1e-12
        for a, b in ((v0, v1), (v1, v2), (v2, v0))
    )
    return FaceGeometry(
        circumcenter=tuple(float(x) for x in center),
        circumradius=radius,
        midpoints=tuple(tuple(float(x) for x in m) for m in mids),
        circumcenter_inside=inside,
        equidistance_residual=residual,
    )


class ReferenceTriangulation:
    """The dict-based SphericalTriangulation that the array topology replaced:
    edge_faces keyed by frozensets, faces checked one by one in a Python
    loop.  Its link check is reference_check_links.  It names an edge by its
    sorted ends, as meshaudit.Mesh does (the replaced code's tuple of a
    frozenset is not sorted once an end reaches 8)."""

    def __init__(self, vertices: np.ndarray, faces):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        self._validate()

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_edges(self) -> int:
        return len(self.edge_faces)

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def _validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        v = self.num_vertices
        norms = np.linalg.norm(self.vertices, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # written so that NaN fails too
            raise MeshError("vertices must lie on the unit sphere")
        directed = set()
        edge_faces: dict[frozenset, list[int]] = {}
        for idx, face in enumerate(self.faces):
            if len(set(face)) != 3 or any(not 0 <= x < v for x in face):
                raise MeshError(f"bad face {face}")
            for j in range(3):
                a, b = face[j], face[(j + 1) % 3]
                if (a, b) in directed:
                    raise MeshError(f"directed edge {(a, b)} repeated: orientation broken")
                directed.add((a, b))
                edge_faces.setdefault(frozenset((a, b)), []).append(idx)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise MeshError(f"edge {tuple(sorted(e))} borders {len(fs)} faces")
        self.edge_faces = edge_faces
        if self.euler_characteristic() != 2:
            raise MeshError(
                f"Euler characteristic {self.euler_characteristic()} != 2"
            )
        reference_check_links(v, self.faces)


def reference_three_color(tri):
    """Proper 3-coloring of an even ReferenceTriangulation by breadth-first
    dual-tree propagation, as a tuple of vertex colors; ValueError if it is
    not proper."""
    colors = [None] * tri.num_vertices
    face_adj = {i: [] for i in range(tri.num_faces)}
    for fs in tri.edge_faces.values():
        f, g = fs
        face_adj[f].append(g)
        face_adj[g].append(f)

    first = tri.faces[0]
    for c, vtx in enumerate(first):
        colors[vtx] = c
    queue = deque([0])
    visited = {0}
    while queue:
        f = queue.popleft()
        for g in sorted(face_adj[f]):
            shared = set(tri.faces[f]) & set(tri.faces[g])
            third = next(x for x in tri.faces[g] if x not in shared)
            got = sorted(colors[x] for x in shared if colors[x] is not None)
            if colors[third] is None and len(got) == 2 and got[0] != got[1]:
                colors[third] = 3 - got[0] - got[1]
            if g not in visited:
                visited.add(g)
                queue.append(g)

    if any(c is None for c in colors):
        raise ValueError("propagation left vertices uncolored")
    reference_verify_coloring(tri, colors)
    return tuple(colors)


def reference_verify_coloring(tri, colors):
    """ValueError unless the vertex colors are a proper 3-coloring of the
    ReferenceTriangulation with every face trichromatic."""
    if len(colors) != tri.num_vertices or any(c not in (0, 1, 2) for c in colors):
        raise ValueError("coloring does not assign 3 colors to all vertices")
    for e in tri.edge_faces:
        a, b = tuple(e)
        if colors[a] == colors[b]:
            raise ValueError(f"edge {(a, b)} is monochromatic")
    for face in tri.faces:
        if sorted(colors[x] for x in face) != [0, 1, 2]:
            raise ValueError(f"face {face} is not trichromatic")


def identifications(tri, pairs):
    """(face_a, face_b, (color_a, color_b)) per mesh edge, from tri.edge_faces
    and color_pairs, as the reference lists them."""
    return tuple((f, g, (a, b)) for (f, g), (a, b) in zip(tri.edge_faces.tolist(), pairs.tolist()))


def glue_fields(tri, pairs):
    """The identifications and gluing_pattern's fields, in the form reference_gluing_pattern returns."""
    return {"identifications": identifications(tri, pairs), **gluing_pattern(tri, pairs)}


def reference_gluing_pattern(tri, colors):
    """Assemble the edge identifications of the glued polyhedron and audit
    that it is a closed surface of Euler characteristic 2.  tri is a
    ReferenceTriangulation; the fields come back as a dict."""
    reference_verify_coloring(tri, colors)

    identifications = []
    for e, fs in sorted(tri.edge_faces.items(), key=lambda kv: tuple(sorted(kv[0]))):
        a, b = tuple(sorted(e))
        f, g = sorted(fs)
        pair = tuple(sorted((colors[a], colors[b])))
        identifications.append((f, g, pair))

    # Corner classes: gluing along an edge with colors {c1, c2} matches the
    # c1 corners of the two copies and likewise the c2 corners.
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for f in range(tri.num_faces):
        for c in range(3):
            parent.setdefault((f, c), (f, c))
    corner_edges: dict[tuple[int, int], int] = {}
    for f, g, pair in identifications:
        for c in pair:
            union((f, c), (g, c))
            corner_edges[(f, c)] = corner_edges.get((f, c), 0) + 1
            corner_edges[(g, c)] = corner_edges.get((g, c), 0) + 1

    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for f in range(tri.num_faces):
        for c in range(3):
            classes.setdefault(find((f, c)), []).append((f, c))

    # Each corner participates in exactly two identifications, so every class
    # is a disjoint union of cycles; a single cycle means the class size
    # equals the cycle through any of its corners.
    links_ok = all(corner_edges.get(k, 0) == 2 for k in parent)
    if links_ok:
        adjacency: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for f, g, pair in identifications:
            for c in pair:
                adjacency.setdefault((f, c), []).append((g, c))
                adjacency.setdefault((g, c), []).append((f, c))
        for members in classes.values():
            start = members[0]
            prev, cur = None, start
            steps = 0
            while True:
                nbrs = adjacency[cur]
                nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
                prev, cur = cur, nxt
                steps += 1
                if cur == start:
                    break
                if steps > len(members):
                    links_ok = False
                    break
            if steps != len(members):
                links_ok = False

    v_w = len(classes)
    e_w = len(identifications)
    f_w = tri.num_faces
    euler = v_w - e_w + f_w
    closed = e_w * 2 == 3 * f_w
    color_matched = all(len(set(pair)) == 2 for _, _, pair in identifications)

    return dict(
        identifications=tuple(identifications),
        gluing_euler=euler,
        gluing_closed=closed,
        gluing_links_single_cycles=links_ok,
        gluing_color_matched=color_matched,
    )


def outcome(fn, *args):
    """(exception type, message) raised by fn(*args), or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_mesh_geometry_matches_per_face_reference_up_to_five():
    for s, tri in meshes_up_to(5):
        centers, radii, inside, residuals = mesh_geometry(tri)
        ref = [reference_face_geometry(tri, i) for i in range(tri.num_faces)]
        assert centers.tobytes() == np.array([r.circumcenter for r in ref]).tobytes()
        assert radii.tobytes() == np.array([r.circumradius for r in ref]).tobytes()
        assert residuals.tobytes() == np.array([r.equidistance_residual for r in ref]).tobytes()
        assert inside.tolist() == [r.circumcenter_inside for r in ref]


def test_face_geometry_equals_reference_up_to_two():
    # Face by face, as plain Python values: row i of mesh_geometry is the
    # reference geometry of face i, with the midpoints left out.
    for s, tri in meshes_up_to(2):
        centers, radii, inside, residuals = mesh_geometry(tri)
        for i in range(tri.num_faces):
            ref = reference_face_geometry(tri, i)
            row = FaceGeometry(
                circumcenter=tuple(float(x) for x in centers[i]),
                circumradius=float(radii[i]),
                midpoints=ref.midpoints,
                circumcenter_inside=bool(inside[i]),
                equidistance_residual=float(residuals[i]),
            )
            assert row == ref


def test_gluing_pattern_equals_reference_up_to_three():
    for s, tri in meshes_up_to(3):
        colors = three_color(tri)
        reference = ReferenceTriangulation(tri.vertices, tri.face_array.tolist())
        assert glue_fields(tri, color_pairs(tri, colors)) == reference_gluing_pattern(reference, colors.tolist())


def _torus_faces():
    """The 7-vertex torus (Moebius-Csaszar), oriented."""
    return [f for i in range(7) for f in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 3) % 7, (i + 2) % 7))]


def _two_octahedra_faces():
    """Two octahedra sharing their antipodal vertices 0 and 3 (Euler characteristic 2)."""
    relabel = {0: 0, 1: 6, 2: 7, 3: 3, 4: 8, 5: 9}
    faces = octahedron().face_array.tolist()
    return faces + [tuple(relabel[x] for x in f) for f in faces]


BAD_LINKS = {
    # vertex 0 gets a second face leaving along the edge (0, 1)
    "pinched link": (6, octahedron().face_array.tolist() + [(0, 1, 5)]),
    "splits into several cycles": (10, _two_octahedra_faces()),
    "is isolated": (9, _torus_faces()),
    # the link of vertex 0 is 1 -> 2 -> 3 -> 2
    "does not close up": (4, [(0, 1, 2), (0, 2, 3), (0, 3, 2)]),
}


# these two pass every edge and Euler check, so the link walk decides
LINK_DECIDED = ["splits into several cycles", "is isolated"]


@pytest.mark.parametrize("kind", sorted(BAD_LINKS))
def test_link_check_matches_reference_scan(kind):
    # a pinched or unclosed link repeats a directed edge, so the edge checks
    # reject it first, with their message; a split or isolated link passes
    # them, and the link walk reports it as the reference scan does
    num_vertices, faces = BAD_LINKS[kind]
    link_fault = outcome(reference_check_links, num_vertices, faces)
    assert link_fault[0] is MeshError and kind in link_fault[1]
    verts = np.tile([1.0, 0.0, 0.0], (num_vertices, 1))
    expected = outcome(ReferenceTriangulation, verts, faces)
    assert outcome(SphericalTriangulation, verts, np.array(faces)) == expected
    if kind not in LINK_DECIDED:
        assert expected[1].startswith("directed edge")


@pytest.mark.parametrize("kind", LINK_DECIDED)
def test_constructor_reports_reference_link_failure(kind):
    num_vertices, faces = BAD_LINKS[kind]
    verts = np.tile([1.0, 0.0, 0.0], (num_vertices, 1))
    expected = outcome(reference_check_links, num_vertices, faces)
    assert outcome(SphericalTriangulation, verts, np.array(faces)) == expected


def test_link_check_accepts_what_reference_accepts():
    # meshes_up_to builds every mesh through the constructor
    for s, tri in meshes_up_to(3):
        assert outcome(reference_check_links, tri.num_vertices, tri.face_array.tolist()) is None


def test_open_link_is_an_invariant_error():
    # the reference scan fails on a link path that ends with a bare KeyError;
    # the constructor's edge checks see the open edge first
    faces = [(0, 1, 2), (0, 2, 3)]
    assert outcome(reference_check_links, 4, faces)[0] is KeyError
    assert outcome(SphericalTriangulation, np.tile([1.0, 0.0, 0.0], (4, 1)), np.array(faces)) == (
        MeshError,
        "edge (0, 1) borders 1 faces",
    )


def _octahedron_faces_with(index, face):
    faces = octahedron().face_array.tolist()
    faces[index:index] = [face]
    return faces


S1_FACES = [tuple(face) for face in subdivide(octahedron()).face_array.tolist()]
CORRUPTED = {
    # name: (number of vertices, faces); every one fails validation
    "repeated directed edge": (6, octahedron().face_array.tolist() + [(2, 0, 1)]),
    "repeated directed edge before a bad face": (6, octahedron().face_array.tolist() + [(1, 2, 0), (0, 0, 0)]),
    "bad face before a repeated directed edge": (6, _octahedron_faces_with(2, (0, 1, 1)) + [(1, 2, 0)]),
    "edge on one face": (6, [f for f in octahedron().face_array.tolist() if f != [3, 4, 2]]),
    # a third face on an edge repeats one of its two directions
    "edge on three faces": (7, octahedron().face_array.tolist() + [(0, 1, 6)]),
    "single triangle": (3, [(0, 1, 2)]),
    "euler characteristic 4": (12, octahedron().face_array.tolist() + (octahedron().face_array + 6).tolist()),
    "repeated vertex": (6, _octahedron_faces_with(3, (4, 4, 2))),
    "vertex out of range": (6, _octahedron_faces_with(5, (3, 1, 6))),
    "negative vertex": (6, _octahedron_faces_with(1, (-1, 1, 5))),
    "torus": (7, _torus_faces()),
    "torus with isolated vertices": BAD_LINKS["is isolated"],
    "two octahedra": BAD_LINKS["splits into several cycles"],
    # the once subdivided octahedron, whose vertices reach 17: an edge named by its sorted ends
    "s1 without face 1": (18, S1_FACES[:1] + S1_FACES[2:]),
    "s1 with face 0 flipped": (18, [S1_FACES[0][::-1]] + S1_FACES[1:]),
    "s1 with face 5 repeated": (18, S1_FACES + [S1_FACES[5]]),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTED))
def test_constructor_matches_reference_on_corrupted_meshes(kind):
    num_vertices, faces = CORRUPTED[kind]
    verts = np.tile([1.0, 0.0, 0.0], (num_vertices, 1))
    expected = outcome(ReferenceTriangulation, verts, faces)
    assert expected is not None and expected[0] is MeshError
    assert outcome(SphericalTriangulation, verts, np.array(faces)) == expected


def test_colors_and_gluing_equal_reference_up_to_five():
    for s, tri in meshes_up_to(5):
        reference = ReferenceTriangulation(tri.vertices, tri.face_array.tolist())
        assert tri.num_edges == reference.num_edges
        assert tri.edges.tolist() == sorted(sorted(e) for e in reference.edge_faces)
        colors = three_color(tri)
        assert tuple(colors.tolist()) == reference_three_color(reference)
        assert glue_fields(tri, color_pairs(tri, colors)) == reference_gluing_pattern(reference, colors.tolist())


@pytest.mark.parametrize(
    "colors",
    [(0, 0, 1, 2, 1, 2), (0,) * 6, (0, 1, 2, 0, 1), (0, 1, 2, 0, 1, 3), (2, 1, 0, 1, 0, 2), (1, 2, 0, 1, 2, 0)],
)
def test_verify_coloring_matches_reference(colors):
    # audit_mesh calls a coloring proper exactly when the reference verifier
    # accepts it; the verdict reads the colors alone, whatever pairs come with them
    t = octahedron()
    reference = ReferenceTriangulation(t.vertices, t.face_array.tolist())
    proper = outcome(reference_verify_coloring, reference, colors) is None
    assert proper is (colors == (1, 2, 0, 1, 2, 0))
    pairs = color_pairs(t, three_color(t))
    assert audit_mesh(t, np.array(colors), mesh_geometry(t), pairs)["proper_coloring"] is proper


@pytest.mark.parametrize("entry", [0.7, 0.0, np.float64(0.0), "0", True, np.bool_(False), None, 2**70])
def test_non_integer_face_entry_rejected(entry):
    t = octahedron()
    faces = np.array(_octahedron_faces_with(0, (entry, 1, 2)), dtype=object)
    with pytest.raises(MeshError, match=r"^bad face \("):
        SphericalTriangulation(t.vertices, faces)


def test_numpy_integer_faces_accepted():
    # any integer array; faces that are not one are rejected even when they describe a valid mesh
    t = octahedron()
    for dtype in (np.int32, np.uint8, np.int64):
        tri = SphericalTriangulation(t.vertices, t.face_array.astype(dtype))
        assert tri.face_array.dtype == np.int64 and tri.face_array.tolist() == t.face_array.tolist()
    for faces in (t.face_array.tolist(), t.face_array.astype(object), t.face_array.ravel(), 5):
        assert outcome(SphericalTriangulation, t.vertices, faces) == (MeshError, "faces must be an (F, 3) integer array")
    assert outcome(SphericalTriangulation, t.vertices, t.face_array.reshape(4, 6)) == (
        MeshError, "bad face (0, 1, 2, 1, 3, 2)")


@pytest.mark.parametrize(
    "verts",
    [
        octahedron().vertices + 0j,
        octahedron().vertices + 1e-3j,
        octahedron().vertices.astype(object) + 1e-3j,
        octahedron().vertices.astype(str),
    ],
    ids=["complex", "imaginary", "object complex", "str"],
)
def test_non_real_vertices_rejected(verts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match="real numbers"):
            SphericalTriangulation(verts, octahedron().face_array)


@pytest.mark.parametrize(
    "moved, onto, message",
    [
        # vertex 4 onto -e1: face 2 (3, 4, 2) repeats a point, face 3 (4, 0, 2) is antipodal
        (4, 3, "face (3, 4, 2) is degenerate (collinear vertices)"),
        # vertex 1 onto -e3: face 0 (0, 1, 2) is antipodal, face 4 (1, 0, 5) repeats a point
        (1, 5, "face (0, 1, 2) has an antipodal edge"),
    ],
)
def test_degenerate_faces_name_first_failing_face(moved, onto, message):
    t = octahedron()
    verts = t.vertices.copy()
    verts[moved] = verts[onto]
    tri = SphericalTriangulation(verts, t.face_array)
    first = next(o for o in (outcome(reference_face_geometry, tri, i) for i in range(8)) if o)
    assert first == (MeshError, message)
    assert outcome(mesh_geometry, tri) == first
    assert outcome(fineness, tri) == first


@pytest.mark.parametrize("block", [5, 7])
def test_mesh_geometry_rows_do_not_depend_on_the_block_size(block):
    for s, tri in meshes_up_to(4):
        with mock.patch.object(wire, "CHUNK_ROWS", tri.num_faces):
            whole = mesh_geometry(tri)
        with mock.patch.object(wire, "CHUNK_ROWS", block):
            blocked = mesh_geometry(tri)
        assert len(blocked) == len(whole) == 4
        for ours, theirs in zip(blocked, whole):
            assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("block", [5, 7])
@pytest.mark.parametrize(
    "moved, onto, message",
    [
        # on the once subdivided octahedron the first failing face is face 20, then face 24
        (3, 16, "face (3, 11, 16) is degenerate (collinear vertices)"),
        (3, 7, "face (3, 11, 16) has an antipodal edge"),
        (4, 10, "face (4, 15, 17) has an antipodal edge"),
    ],
)
def test_degenerate_face_after_the_first_block(block, moved, onto, message):
    t = subdivide(octahedron())
    verts = t.vertices.copy()
    verts[moved] = verts[onto]
    tri = SphericalTriangulation(verts, t.face_array)
    index, first = next((i, o) for i, o in ((i, outcome(reference_face_geometry, tri, i)) for i in range(32)) if o)
    assert index >= block and first == (MeshError, message)
    with mock.patch.object(wire, "CHUNK_ROWS", block):
        assert outcome(mesh_geometry, tri) == first


def traced_transient(fn, *args) -> int:
    """Bytes of the tracemalloc peak of fn(*args) above what is still
    allocated when it returns (its result included)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - kept


def sidecar_text_transient(tri) -> int:
    colors = three_color(tri)
    doc = sidecar_document(tri, colors, mesh_geometry(tri)[0], color_pairs(tri, colors))
    return traced_transient(lambda: sum(map(len, wire.indented_chunks(doc))))


def test_geometry_and_sidecar_text_memory_stays_per_block():
    # The faces grow fourfold from one level to the next; a pass whose
    # temporaries are bounded by wire.CHUNK_ROWS rows keeps the same peak.
    # The text is measured a level lower, at s = 4 and 5: consuming the s = 6
    # sidecar under tracemalloc takes about two seconds on its own.
    chain = dict(meshes_up_to(6))
    geometry = [traced_transient(mesh_geometry, chain[s]) for s in (5, 6)]
    text = [sidecar_text_transient(chain[s]) for s in (4, 5)]
    assert geometry[1] <= 1.5 * geometry[0], geometry
    assert text[1] <= 1.5 * text[0], text


# -- export -----------------------------------------------------------------------


def test_off_export_structure():
    t = octahedron()
    text = "".join(off_chunks(t))
    lines = text.strip().split("\n")
    assert lines[0] == "OFF"
    assert lines[1] == "6 8 12"
    assert lines[2].split() == ["1.0", "0.0", "0.0"]
    assert lines[8].startswith("3 ")
    assert len(lines) == 2 + 6 + 8


def test_sidecar_roundtrip_bit_exact():
    for s, tri in meshes_up_to(2):
        colors = three_color(tri)
        text = wire.dumps_indented(sidecar_document(tri, colors, mesh_geometry(tri)[0], color_pairs(tri, colors)))
        reparsed = json.dumps(json.loads(text), sort_keys=True, indent=1)
        assert reparsed == text


def test_sidecar_fields():
    t = octahedron()
    colors = three_color(t)
    doc = json.loads(wire.dumps_indented(sidecar_document(t, colors, mesh_geometry(t)[0], color_pairs(t, colors))))
    assert doc["schema"] == "hodge-domains/1"
    assert len(doc["colors"]) == 6
    assert set(doc["colors"]) == {"red", "green", "blue"}
    assert len(doc["circumcenters"]) == 8
    assert len(doc["gluing"]) == 12


def test_audit_mesh_summary():
    t = subdivide(octahedron())
    colors = three_color(t)
    audit = audit_mesh(t, colors, mesh_geometry(t), color_pairs(t, colors))
    assert audit["even"] and audit["proper_coloring"]
    assert audit["euler_characteristic"] == 2
    assert audit["gluing_euler"] == 2
    assert audit["circumcenters_inside"]
    assert audit["max_equidistance_residual"] < 1e-10


# "computed": the color pairs of the improper coloring, as mesh export passes
# them; "passed_in": the proper coloring's pairs; neither is glued
@pytest.mark.parametrize("passed_in", [False, True], ids=["computed", "passed_in"])
def test_audit_mesh_reports_improper_coloring(passed_in):
    t = octahedron()
    proper, improper = three_color(t), np.zeros(6, dtype=np.int64)
    pairs = color_pairs(t, proper)
    audit = audit_mesh(t, improper, mesh_geometry(t), pairs if passed_in else color_pairs(t, improper))
    assert audit["proper_coloring"] is False
    assert audit["gluing_euler"] is None
    assert not (audit["gluing_closed"] or audit["gluing_links_single_cycles"] or audit["gluing_color_matched"])
    assert {k: audit[k] for k in meshaudit.UNGLUED} == meshaudit.UNGLUED
    assert not audit_passes(audit)
    # the fields that do not depend on the coloring are those of the proper audit
    good = audit_mesh(t, proper, mesh_geometry(t), pairs)
    same = ("even", "euler_characteristic", "circumcenters_inside", "max_equidistance_residual", "fineness")
    assert {k: audit[k] for k in same} == {k: good[k] for k in same}
