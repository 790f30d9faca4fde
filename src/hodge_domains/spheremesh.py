"""Even geodesic triangulations of the round 2-sphere.

Provides the octahedron seed mesh, midpoint subdivision (which keeps all
vertex degrees even), proper 3-coloring of even triangulations, circumcircle
geometry per face, and the glued polyhedron assembled from one model triangle
per face with edges identified by color pair.

Vertices are float64 unit vectors; geodesic midpoints are normalized chord
midpoints, valid because the meshes here never contain near-antipodal edges.
Angular comparisons use a 1e-10 tolerance.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

ANGLE_TOL = 1e-10
COLOR_NAMES = ("red", "green", "blue")


class MeshInvariantError(ValueError):
    """The face list does not describe an oriented closed triangulated surface."""


class NotThreeColorableError(ValueError):
    """Propagation produced no proper 3-coloring (the mesh is not even)."""


class DegenerateFaceError(ValueError):
    """A face has collinear or antipodal vertices."""


class SphericalTriangulation:
    """An oriented closed triangulation with unit vertices.

    Construction validates that every directed edge occurs exactly once, every
    undirected edge borders two faces, vertex links are single cycles, and the
    Euler characteristic is 2.
    """

    def __init__(self, vertices: np.ndarray, faces: Iterable[tuple[int, int, int]]):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        self._validate()

    # -- basic counts ------------------------------------------------------

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

    def vertex_degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for e in self.edge_faces:
            a, b = tuple(e)
            deg[a] += 1
            deg[b] += 1
        return deg

    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.vertex_degrees())

    # -- validation --------------------------------------------------------

    def _validate(self):
        v, f = self.num_vertices, len(self.faces)
        if self.vertices.shape != (v, 3):
            raise MeshInvariantError("vertices must be an (V, 3) array")
        norms = np.linalg.norm(self.vertices, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise MeshInvariantError("vertices must lie on the unit sphere")
        directed = set()
        edge_faces: dict[frozenset, list[int]] = {}
        for idx, face in enumerate(self.faces):
            if len(set(face)) != 3 or any(not 0 <= x < v for x in face):
                raise MeshInvariantError(f"bad face {face}")
            for j in range(3):
                a, b = face[j], face[(j + 1) % 3]
                if (a, b) in directed:
                    raise MeshInvariantError(f"directed edge {(a, b)} repeated: orientation broken")
                directed.add((a, b))
                edge_faces.setdefault(frozenset((a, b)), []).append(idx)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise MeshInvariantError(f"edge {tuple(e)} borders {len(fs)} faces")
        self.edge_faces = edge_faces
        if self.euler_characteristic() != 2:
            raise MeshInvariantError(
                f"Euler characteristic {self.euler_characteristic()} != 2"
            )
        for vertex in range(v):
            self._check_link(vertex)

    def _check_link(self, vertex: int):
        nxt = {}
        for face in self.faces:
            if vertex in face:
                j = face.index(vertex)
                a, b = face[(j + 1) % 3], face[(j + 2) % 3]
                if a in nxt:
                    raise MeshInvariantError(f"vertex {vertex} has a pinched link")
                nxt[a] = b
        if not nxt:
            raise MeshInvariantError(f"vertex {vertex} is isolated")
        start = next(iter(nxt))
        seen = 0
        cur = start
        while True:
            cur = nxt[cur]
            seen += 1
            if cur == start:
                break
            if seen > len(nxt):
                raise MeshInvariantError(f"vertex {vertex} link does not close up")
        if seen != len(nxt):
            raise MeshInvariantError(f"vertex {vertex} link splits into several cycles")


def octahedron() -> SphericalTriangulation:
    """The regular octahedron: 6 vertices, 8 faces, all degrees 4, oriented outward."""
    vertices = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    faces = [
        (0, 1, 2),
        (1, 3, 2),
        (3, 4, 2),
        (4, 0, 2),
        (1, 0, 5),
        (3, 1, 5),
        (4, 3, 5),
        (0, 4, 5),
    ]
    return SphericalTriangulation(vertices, faces)


def subdivide(tri: SphericalTriangulation) -> SphericalTriangulation:
    """Midpoint (1-to-4) subdivision with geodesic midpoints.

    Old vertex degrees are unchanged; each new midpoint vertex has degree 6,
    so evenness is preserved.
    """
    verts = [tuple(v) for v in tri.vertices]
    edge_index = {}
    for e in sorted(tuple(sorted(e)) for e in tri.edge_faces):
        a, b = e
        mid = tri.vertices[a] + tri.vertices[b]
        nrm = np.linalg.norm(mid)
        if nrm < 1e-9:
            raise DegenerateFaceError(f"edge {e} is antipodal: geodesic midpoint undefined")
        edge_index[e] = len(verts)
        verts.append(tuple(mid / nrm))
    faces = []
    for a, b, c in tri.faces:
        mab = edge_index[tuple(sorted((a, b)))]
        mbc = edge_index[tuple(sorted((b, c)))]
        mca = edge_index[tuple(sorted((c, a)))]
        faces.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
    return SphericalTriangulation(np.array(verts), faces)


# ---------------------------------------------------------------------------
# 3-coloring.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeColoring:
    colors: tuple  # vertex -> 0 | 1 | 2

    def name(self, vertex: int) -> str:
        return COLOR_NAMES[self.colors[vertex]]


def three_color(tri: SphericalTriangulation) -> ThreeColoring:
    """Proper 3-coloring of an even triangulation by dual-tree propagation.

    Colors the first face arbitrarily and propagates across shared edges (the
    third vertex of a neighboring face is forced).  The final global
    verification is the source of truth; its failure raises
    NotThreeColorableError, which on even sphere triangulations never happens.
    """
    colors: list[Optional[int]] = [None] * tri.num_vertices
    face_adj: dict[int, list[int]] = {i: [] for i in range(tri.num_faces)}
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
        raise NotThreeColorableError("propagation left vertices uncolored")
    coloring = ThreeColoring(tuple(colors))
    verify_coloring(tri, coloring)
    return coloring


def verify_coloring(tri: SphericalTriangulation, coloring: ThreeColoring) -> None:
    """Raise NotThreeColorableError unless the coloring is proper and every
    face carries all three colors."""
    colors = coloring.colors
    if len(colors) != tri.num_vertices or any(c not in (0, 1, 2) for c in colors):
        raise NotThreeColorableError("coloring does not assign 3 colors to all vertices")
    for e in tri.edge_faces:
        a, b = tuple(e)
        if colors[a] == colors[b]:
            raise NotThreeColorableError(f"edge {(a, b)} is monochromatic")
    for face in tri.faces:
        if sorted(colors[x] for x in face) != [0, 1, 2]:
            raise NotThreeColorableError(f"face {face} is not trichromatic")


# ---------------------------------------------------------------------------
# Circumcircle geometry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceGeometry:
    circumcenter: tuple  # unit vector on the face's side
    circumradius: float  # angular radius
    midpoints: tuple  # geodesic midpoints of the three edges, in face order
    circumcenter_inside: bool
    equidistance_residual: float


def face_geometry(tri: SphericalTriangulation, face_index: int) -> FaceGeometry:
    """Circumcenter, angular circumradius, edge midpoints, and containment of
    the circumcenter in the closed spherical triangle."""
    face = tri.faces[face_index]
    v0, v1, v2 = (tri.vertices[x] for x in face)
    normal = np.cross(v1 - v0, v2 - v0)
    nrm = np.linalg.norm(normal)
    if nrm < 1e-13:
        raise DegenerateFaceError(f"face {face} is degenerate (collinear vertices)")
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
            raise DegenerateFaceError(f"face {face} has an antipodal edge")
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


def fineness(tri: SphericalTriangulation) -> float:
    """Largest angular circumradius over all faces."""
    return max(face_geometry(tri, i).circumradius for i in range(tri.num_faces))


# ---------------------------------------------------------------------------
# The glued polyhedron: one model triangle per face, edges identified by
# color pair.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GluingPolyhedron:
    num_copies: int
    identifications: tuple  # (face_a, face_b, (color_a, color_b)) per mesh edge
    euler_characteristic: int
    vertex_class_count: int
    color_matched: bool
    closed: bool
    links_single_cycles: bool


def gluing_pattern(tri: SphericalTriangulation, coloring: ThreeColoring) -> GluingPolyhedron:
    """Assemble the edge identifications of the glued polyhedron and audit
    that it is a closed surface of Euler characteristic 2."""
    verify_coloring(tri, coloring)
    colors = coloring.colors

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

    return GluingPolyhedron(
        num_copies=tri.num_faces,
        identifications=tuple(identifications),
        euler_characteristic=euler,
        vertex_class_count=v_w,
        color_matched=color_matched,
        closed=closed,
        links_single_cycles=links_ok,
    )


# ---------------------------------------------------------------------------
# Audits and export.
# ---------------------------------------------------------------------------


def audit_mesh(tri: SphericalTriangulation, coloring: ThreeColoring) -> dict:
    """The full battery of checks used by the verification suites."""
    geo = [face_geometry(tri, i) for i in range(tri.num_faces)]
    glue = gluing_pattern(tri, coloring)
    try:
        verify_coloring(tri, coloring)
        proper = True
    except NotThreeColorableError:
        proper = False
    return {
        "even": tri.is_even(),
        "proper_coloring": proper,
        "euler_characteristic": tri.euler_characteristic(),
        "circumcenters_inside": all(g.circumcenter_inside for g in geo),
        "max_equidistance_residual": max(g.equidistance_residual for g in geo),
        "fineness": max(g.circumradius for g in geo),
        "gluing_euler": glue.euler_characteristic,
        "gluing_closed": glue.closed,
        "gluing_links_single_cycles": glue.links_single_cycles,
        "gluing_color_matched": glue.color_matched,
    }


def audit_passes(audit: dict) -> bool:
    """Whether one level's audit_mesh battery passes (fineness is compared
    across levels by the callers)."""
    return bool(
        audit["even"]
        and audit["proper_coloring"]
        and audit["euler_characteristic"] == 2
        and audit["circumcenters_inside"]
        and audit["max_equidistance_residual"] < 1e-10
        and audit["gluing_euler"] == 2
        and audit["gluing_closed"]
        and audit["gluing_links_single_cycles"]
        and audit["gluing_color_matched"]
    )


def to_off(tri: SphericalTriangulation) -> str:
    lines = ["OFF", f"{tri.num_vertices} {tri.num_faces} {tri.num_edges}"]
    for v in tri.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for f in tri.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    return "\n".join(lines) + "\n"


def sidecar_document(tri: SphericalTriangulation, coloring: ThreeColoring) -> dict:
    glue = gluing_pattern(tri, coloring)
    return {
        "schema": "hodge-domains/1",
        "colors": [COLOR_NAMES[c] for c in coloring.colors],
        "circumcenters": [
            list(face_geometry(tri, i).circumcenter) for i in range(tri.num_faces)
        ],
        "gluing": [
            [f, g, [COLOR_NAMES[pair[0]], COLOR_NAMES[pair[1]]]]
            for f, g, pair in glue.identifications
        ],
    }


def sidecar_dumps(tri: SphericalTriangulation, coloring: ThreeColoring) -> str:
    return json.dumps(sidecar_document(tri, coloring), sort_keys=True, indent=1)
