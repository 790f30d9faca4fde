"""The audit of the even triangulations of the sphere, on the standard library.

`verify`'s mesh suite audits the octahedron and its first midpoint
subdivisions.  Those meshes are small (680 faces up to s = 3), so they are
built and checked here as tuples and lists, and `verify` never imports numpy;
`spheremesh` builds the arrays that `mesh` exports.  Both build the same
meshes with the same numbering, and both audits produce the same dict, which
the one predicate `audit_passes` judges.

A level is checked as `spheremesh` checks it: every directed edge occurs
once and every edge borders two faces, the Euler characteristic is 2 and
every vertex link is a single cycle (a `MeshError` naming the first fault
in face order otherwise, which `spheremesh` raises too); then the audit
reports even degrees, the 3-coloring propagated from face 0 and verified,
the circumcircle geometry of every face, and the glued polyhedron, whose
corner classes come from a union-find per color.  Floats are computed with
`math`, so they may differ from numpy's in the last bit.
"""

from __future__ import annotations

import math
from collections import deque

ANGLE_TOL = 1e-10
LEVELS = 4  # verify audits s = 0..3
# the gluing fields of both audits for an improper coloring, which has no glued polyhedron
UNGLUED = {"gluing_euler": None, "gluing_closed": False, "gluing_links_single_cycles": False, "gluing_color_matched": False}


class MeshError(ValueError):
    """The faces do not describe a closed oriented sphere triangulation, or a
    face or an edge is degenerate: the one error of both mesh pipelines."""


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


class Mesh:
    """A validated closed oriented triangulation with unit vertices.

    `edges` lists the undirected edges (u, v), u < v, sorted; `face_edges[i]`
    the edge ids from corner j to j + 1 of face i; `edge_faces[k]` the two
    faces on edge k in increasing order.
    """

    def __init__(self, vertices, faces):
        self.vertices = [tuple(float(x) for x in v) for v in vertices]
        self.faces = [tuple(f) for f in faces]
        if not all(len(v) == 3 and abs(math.sqrt(_dot(v, v)) - 1.0) <= 1e-12 for v in self.vertices):
            raise MeshError("vertices must lie on the unit sphere")
        count = len(self.vertices)
        corner = {}  # directed edge (u, v) -> corner 3i + j of the face i that runs u -> v
        for i, face in enumerate(self.faces):
            if len(face) != 3 or not all(type(x) is int and 0 <= x < count for x in face) or len(set(face)) != 3:
                raise MeshError(f"bad face {face}")
            for j in range(3):
                edge = face[j], face[(j + 1) % 3]
                if edge in corner:
                    raise MeshError(f"directed edge {edge} repeated: orientation broken")
                corner[edge] = 3 * i + j
        for u, v in corner:
            if (v, u) not in corner:
                raise MeshError(f"edge {(min(u, v), max(u, v))} borders 1 faces")
        self.edges = sorted(e for e in corner if e[0] < e[1])
        euler = count - len(self.edges) + len(self.faces)
        if euler != 2:
            raise MeshError(f"Euler characteristic {euler} != 2")
        index = {e: k for k, e in enumerate(self.edges)}
        index.update({(v, u): k for k, (u, v) in enumerate(self.edges)})
        self.face_edges = [tuple(index[f[j], f[(j + 1) % 3]] for j in range(3)) for f in self.faces]
        self.edge_faces = [tuple(sorted((corner[e] // 3, corner[e[::-1]] // 3))) for e in self.edges]
        # The link of face[j] steps from corner 3i + j to the corner that leaves
        # face[j] along the edge corner 3i + (j + 2) % 3 enters by, so each link
        # is a cycle of its vertex's corners; one walk must cover them all.
        succ = [corner[face[j], face[(j + 2) % 3]] for face in self.faces for j in range(3)]
        walks, seen = [0] * count, [False] * len(succ)
        for p in range(len(succ)):
            if not seen[p]:
                walks[self.faces[p // 3][p % 3]] += 1
                while not seen[p]:
                    seen[p], p = True, succ[p]
        for v, n in enumerate(walks):
            if n != 1:
                raise MeshError(f"vertex {v} " + ("link splits into several cycles" if n else "is isolated"))

    def degrees(self) -> list[int]:
        out = [0] * len(self.vertices)
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out


def octahedron() -> Mesh:
    """The regular octahedron, numbered and oriented as spheremesh.octahedron."""
    vertices = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
    faces = [(0, 1, 2), (1, 3, 2), (3, 4, 2), (4, 0, 2), (1, 0, 5), (3, 1, 5), (4, 3, 5), (0, 4, 5)]
    return Mesh(vertices, faces)


def subdivide(mesh: Mesh) -> Mesh:
    """Midpoint (1-to-4) subdivision with geodesic midpoints, numbered as
    spheremesh.subdivide: the midpoint of edge k is vertex V + k."""
    mids = []
    for u, v in mesh.edges:
        m = _add(mesh.vertices[u], mesh.vertices[v])
        nrm = math.sqrt(_dot(m, m))
        if nrm < 1e-9:
            raise MeshError(f"edge {(u, v)} is antipodal: geodesic midpoint undefined")
        mids.append((m[0] / nrm, m[1] / nrm, m[2] / nrm))
    base = len(mesh.vertices)
    faces = []
    for (a, b, c), (ab, bc, ca) in zip(mesh.faces, mesh.face_edges):
        mab, mbc, mca = base + ab, base + bc, base + ca
        faces += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
    return Mesh(mesh.vertices + mids, faces)


def three_color(mesh: Mesh) -> list[int]:
    """Colors 0, 1, 2 on the corners of face 0, propagated across shared
    edges: the third vertex of a face reached from a colored one is forced.
    Vertices the propagation does not reach keep -1; audit_mesh verifies
    the result."""
    colors = [-1] * len(mesh.vertices)
    for c, v in enumerate(mesh.faces[0]):
        colors[v] = c
    reached = {0}
    frontier = deque([0])
    while frontier:
        f = frontier.popleft()
        for k in mesh.face_edges[f]:
            g = mesh.edge_faces[k][0] + mesh.edge_faces[k][1] - f
            if g not in reached:
                reached.add(g)
                frontier.append(g)
                u, v = mesh.edges[k]
                third = sum(mesh.faces[g]) - u - v
                if colors[third] < 0:
                    colors[third] = 3 - colors[u] - colors[v]
    return colors


def color_pairs(mesh: Mesh, colors) -> list[tuple[int, int]]:
    """The sorted colors of the ends of every edge, in edge order."""
    return [tuple(sorted((colors[u], colors[v]))) for u, v in mesh.edges]


def _circumcircle(vertices, face) -> tuple[float, float, bool]:
    """(angular circumradius, equidistance residual, whether the circumcenter
    lies in the closed triangle) of a face."""
    corners = a, b, c = [vertices[v] for v in face]
    edges = (a, b), (b, c), (c, a)
    normal = _cross(_sub(b, a), _sub(c, a))
    nrm = math.sqrt(_dot(normal, normal))
    if nrm < 1e-13:
        raise MeshError(f"face {face} is degenerate (collinear vertices)")
    if any(math.sqrt(_dot(m, m)) < 1e-9 for m in (_add(p, q) for p, q in edges)):
        raise MeshError(f"face {face} has an antipodal edge")
    sign = -1.0 if _dot(normal, _add(_add(a, b), c)) < 0 else 1.0
    center = tuple(sign * x / nrm for x in normal)
    angles = [math.acos(min(1.0, max(-1.0, _dot(center, p)))) for p in corners]
    inside = all(_dot(_cross(p, q), center) >= -1e-12 for p, q in edges)
    return angles[0], max(abs(x - angles[0]) for x in angles), inside


def _gluing(mesh: Mesh, pairs) -> dict:
    """The gluing fields of the audit for a proper coloring's color pairs.

    Gluing along an edge with colors {c1, c2} matches the c1 corners of its
    two faces and likewise the c2 corners; a corner class is a connected
    component of these matchings, found by union-find over the faces one
    color at a time.  A single cycle per class needs every face on exactly
    two matchings of each color."""
    classes, links_single_cycles = 0, True
    for c in range(3):
        parent = list(range(len(mesh.faces)))

        def root(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        degree = [0] * len(mesh.faces)
        for (f, g), pair in zip(mesh.edge_faces, pairs):
            if c in pair:
                degree[f] += 1
                degree[g] += 1
                parent[root(f)] = root(g)
        classes += sum(root(f) == f for f in range(len(mesh.faces)))
        links_single_cycles = links_single_cycles and all(d == 2 for d in degree)
    return {
        "gluing_euler": classes - len(pairs) + len(mesh.faces),
        "gluing_closed": 2 * len(pairs) == 3 * len(mesh.faces),
        "gluing_links_single_cycles": links_single_cycles,
        "gluing_color_matched": all(a != b for a, b in pairs),
    }


def audit_mesh(mesh: Mesh, colors) -> dict:
    """The audit dict of spheremesh.audit_mesh for a mesh and a coloring.  An
    improper coloring has no glued polyhedron: its gluing fields are UNGLUED."""
    proper = len(colors) == len(mesh.vertices) and all(
        {colors[a], colors[b], colors[c]} == {0, 1, 2} for a, b, c in mesh.faces)
    geometry = [_circumcircle(mesh.vertices, face) for face in mesh.faces]
    return {
        "even": all(d % 2 == 0 for d in mesh.degrees()),
        "proper_coloring": proper,
        "euler_characteristic": len(mesh.vertices) - len(mesh.edges) + len(mesh.faces),
        "circumcenters_inside": all(inside for _, _, inside in geometry),
        "max_equidistance_residual": max(residual for _, residual, _ in geometry),
        "fineness": max(radius for radius, _, _ in geometry),
        **(_gluing(mesh, color_pairs(mesh, colors)) if proper else UNGLUED),
    }


def audit_passes(audit: dict) -> bool:
    """Whether one level's audit, from spheremesh.audit_mesh or from
    audit_mesh here, passes (fineness is compared across levels by the
    callers)."""
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


def levels_pass() -> bool:
    """Whether the audit of the octahedron and of each of its first
    LEVELS - 1 midpoint subdivisions passes, with the fineness strictly
    decreasing from one level to the next."""
    mesh, fineness = octahedron(), math.inf
    for s in range(LEVELS):
        if s:
            mesh = subdivide(mesh)
        result = audit_mesh(mesh, three_color(mesh))
        if not audit_passes(result) or result["fineness"] >= fineness:
            return False
        fineness = result["fineness"]
    return True
