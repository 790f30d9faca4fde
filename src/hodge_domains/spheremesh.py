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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import wire

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
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshInvariantError("vertices must be an (V, 3) array")
        v = self.num_vertices
        norms = np.linalg.norm(self.vertices, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # written so that NaN fails too
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
        _check_links(v, self.faces)


def _check_links(num_vertices: int, faces) -> None:
    """Raise MeshInvariantError unless every vertex link is a single cycle.
    The links (a -> b for each face (v, a, b) up to rotation) are built in one
    pass over the faces, then checked vertex by vertex in index order."""
    links: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    pinched = set()
    for a, b, c in faces:
        for vertex, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            if x in links[vertex]:
                pinched.add(vertex)
            links[vertex][x] = y
    for vertex, nxt in enumerate(links):
        if vertex in pinched:
            raise MeshInvariantError(f"vertex {vertex} has a pinched link")
        if not nxt:
            raise MeshInvariantError(f"vertex {vertex} is isolated")
        start = next(iter(nxt))
        cur, seen = nxt[start], 1
        while cur != start:
            if seen > len(nxt) or cur not in nxt:
                raise MeshInvariantError(f"vertex {vertex} link does not close up")
            cur, seen = nxt[cur], seen + 1
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
    edges = sorted(tuple(sorted(e)) for e in tri.edge_faces)
    mids = tri.vertices[np.array(edges, dtype=np.intp).reshape(-1, 2)].sum(axis=1)
    nrm = np.sqrt(_dot(mids, mids))
    if np.any(nrm < 1e-9):
        e = edges[int(np.argmax(nrm < 1e-9))]
        raise DegenerateFaceError(f"edge {e} is antipodal: geodesic midpoint undefined")
    edge_index = {e: tri.num_vertices + k for k, e in enumerate(edges)}
    faces = []
    for a, b, c in tri.faces:
        mab = edge_index[tuple(sorted((a, b)))]
        mbc = edge_index[tuple(sorted((b, c)))]
        mca = edge_index[tuple(sorted((c, a)))]
        faces.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
    return SphericalTriangulation(np.vstack([tri.vertices, mids / nrm[:, None]]), faces)


# ---------------------------------------------------------------------------
# 3-coloring.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeColoring:
    colors: tuple  # vertex -> 0 | 1 | 2


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


@dataclass(frozen=True)
class MeshGeometry:
    """FaceGeometry of every face at once: row i belongs to face i."""
    circumcenters: np.ndarray  # (F, 3)
    circumradii: np.ndarray  # (F,)
    midpoints: np.ndarray  # (F, 3, 3)
    circumcenter_inside: np.ndarray  # (F,) bool
    equidistance_residuals: np.ndarray  # (F,)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each through the same kernel as np.dot
    and np.linalg.norm of one 3-vector, so rows match the one-face results bit
    for bit (einsum and a sum of squares round differently)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mesh_geometry(tri: SphericalTriangulation, face_indices: Optional[list[int]] = None) -> MeshGeometry:
    """Circumcenter, angular circumradius, edge midpoints, and containment of
    the circumcenter in the closed spherical triangle, for the given faces (by
    default all of them) in one vectorized pass.

    Raises DegenerateFaceError naming the first face, in the given order,
    that has collinear vertices or an antipodal edge.
    """
    faces = tri.faces if face_indices is None else [tri.faces[i] for i in face_indices]
    corners = tri.vertices[np.array(faces, dtype=np.intp).reshape(-1, 3)]  # (F, 3, 3)
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
    following = corners[:, (1, 2, 0)]  # the second end of each edge, in face order
    normal = np.cross(v1 - v0, v2 - v0)
    nrm = np.sqrt(_dot(normal, normal))
    mids = corners + following
    mid_norms = np.sqrt(_dot(mids, mids))
    bad = (nrm < 1e-13) | np.any(mid_norms < 1e-9, axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        why = "is degenerate (collinear vertices)" if nrm[i] < 1e-13 else "has an antipodal edge"
        raise DegenerateFaceError(f"face {faces[i]} {why}")
    center = normal / nrm[:, None]
    center[_dot(center, v0 + v1 + v2) < 0] *= -1.0
    angles = np.arccos(np.clip(_dot(center[:, None, :], corners), -1.0, 1.0))  # (F, 3)
    sides = _dot(np.cross(corners, following), center[:, None, :])
    return MeshGeometry(
        circumcenters=center,
        circumradii=angles[:, 0],
        midpoints=mids / mid_norms[..., None],
        circumcenter_inside=np.all(sides >= -1e-12, axis=1),
        equidistance_residuals=np.max(np.abs(angles - angles[:, :1]), axis=1),
    )


def face_geometry(tri: SphericalTriangulation, face_index: int) -> FaceGeometry:
    """mesh_geometry of one face."""
    g = mesh_geometry(tri, [face_index])
    return FaceGeometry(
        circumcenter=tuple(g.circumcenters[0].tolist()),
        circumradius=float(g.circumradii[0]),
        midpoints=tuple(tuple(m) for m in g.midpoints[0].tolist()),
        circumcenter_inside=bool(g.circumcenter_inside[0]),
        equidistance_residual=float(g.equidistance_residuals[0]),
    )


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

    corner_edges: dict[tuple[int, int], int] = {}
    for f, g, pair in identifications:
        for c in pair:
            rf, rg = find((f, c)), find((g, c))
            if rf != rg:
                parent[rf] = rg
            corner_edges[(f, c)] = corner_edges.get((f, c), 0) + 1
            corner_edges[(g, c)] = corner_edges.get((g, c), 0) + 1

    # A class is a connected component of the graph whose edges are the
    # identifications, so when every corner lies on exactly two of them each
    # class is a single cycle.
    corners = [(f, c) for f in range(tri.num_faces) for c in range(3)]
    links_ok = all(corner_edges.get(k, 0) == 2 for k in corners)
    v_w = len({find(k) for k in corners})
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


def audit_mesh(
    tri: SphericalTriangulation, coloring: ThreeColoring,
    geometry: Optional[MeshGeometry] = None, glue: Optional[GluingPolyhedron] = None,
) -> dict:
    """The full battery of checks used by the verification suites.  A caller
    that already holds the mesh_geometry and gluing_pattern passes them in.
    An improper coloring has no glued polyhedron: its gluing fields fail."""
    try:
        verify_coloring(tri, coloring)
        proper = True
    except NotThreeColorableError:
        proper = False
    geometry = mesh_geometry(tri) if geometry is None else geometry
    glue = (gluing_pattern(tri, coloring) if glue is None else glue) if proper else None
    return {
        "even": tri.is_even(),
        "proper_coloring": proper,
        "euler_characteristic": tri.euler_characteristic(),
        "circumcenters_inside": bool(geometry.circumcenter_inside.all()),
        "max_equidistance_residual": float(geometry.equidistance_residuals.max()),
        "fineness": float(geometry.circumradii.max()),
        "gluing_euler": getattr(glue, "euler_characteristic", None),
        "gluing_closed": getattr(glue, "closed", False),
        "gluing_links_single_cycles": getattr(glue, "links_single_cycles", False),
        "gluing_color_matched": getattr(glue, "color_matched", False),
    }


def audit_passes(audit: dict) -> bool:
    """Whether one level's audit_mesh battery passes (fineness is compared
    across levels by the callers)."""
    return bool(
        audit["even"]
        and audit["proper_coloring"]
        and audit["euler_characteristic"] == 2
        and audit["circumcenters_inside"]
        and audit["max_equidistance_residual"] < ANGLE_TOL
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


def sidecar_document(
    tri: SphericalTriangulation, coloring: ThreeColoring,
    geometry: Optional[MeshGeometry] = None, glue: Optional[GluingPolyhedron] = None,
) -> dict:
    geometry = mesh_geometry(tri) if geometry is None else geometry
    glue = gluing_pattern(tri, coloring) if glue is None else glue
    return {
        "schema": wire.SCHEMA,
        "colors": [COLOR_NAMES[c] for c in coloring.colors],
        "circumcenters": geometry.circumcenters.tolist(),
        "gluing": [
            [f, g, [COLOR_NAMES[pair[0]], COLOR_NAMES[pair[1]]]]
            for f, g, pair in glue.identifications
        ],
    }


def sidecar_dumps(
    tri: SphericalTriangulation, coloring: ThreeColoring,
    geometry: Optional[MeshGeometry] = None, glue: Optional[GluingPolyhedron] = None,
) -> str:
    return wire.dumps_indented(sidecar_document(tri, coloring, geometry, glue))
