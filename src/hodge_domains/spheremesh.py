"""Even geodesic triangulations of the round 2-sphere.

Provides the octahedron seed mesh, midpoint subdivision (which keeps all
vertex degrees even), proper 3-coloring of even triangulations, circumcircle
geometry per face, and the glued polyhedron assembled from one model triangle
per face with edges identified by color pair.

Vertices are float64 unit vectors; geodesic midpoints are normalized chord
midpoints, valid because the meshes here never contain near-antipodal edges.
meshaudit.audit_passes judges audit_mesh's dict, with the angular tolerance
meshaudit.ANGLE_TOL.  The topology is held in numpy arrays; an edge {u, v}
of a mesh with V vertices is keyed by the integer min(u, v) * V + max(u, v).
Every mesh fault raises meshaudit.MeshError, and a mesh the constructor
rejects is named as meshaudit.Mesh names it.
"""

from __future__ import annotations

from itertools import starmap

import numpy as np

from . import meshaudit, wire
from .meshaudit import MeshError

COLOR_NAMES = ("red", "green", "blue")


class SphericalTriangulation:
    """An oriented closed triangulation with unit vertices.

    Construction validates that every directed edge occurs exactly once, every
    undirected edge borders two faces, the Euler characteristic is 2, and
    vertex links are single cycles; the faces must be an (F, 3) integer
    array.  A mesh that fails is handed to meshaudit.Mesh, which names its
    first fault in face order.  Arrays: `face_array` (F, 3); `edges` (E, 2),
    sorted; `face_edges` (F, 3), the edge from corner j to j + 1 of a face;
    `edge_faces` (E, 2), the two faces on an edge in increasing order.
    """

    def __init__(self, vertices: np.ndarray, faces: np.ndarray):
        vertices = np.asarray(vertices)
        if vertices.dtype.kind not in "biuf":
            raise MeshError("vertices must be an array of real numbers")
        self.vertices = vertices.astype(float, copy=False)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        v = self.num_vertices
        norms = np.linalg.norm(self.vertices, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # written so that NaN fails too
            raise MeshError("vertices must lie on the unit sphere")
        if not (isinstance(faces, np.ndarray) and faces.dtype.kind in "iu" and faces.shape[1:] == (3,)):
            raise _fault(self.vertices, faces)
        f = faces.astype(np.int64, copy=False)
        tail = f[:, (1, 2, 0)]  # corner 3i + j is the directed edge f[i, j] -> tail[i, j]
        if np.any((f < 0) | (f >= v) | (f == tail)):
            raise _fault(self.vertices, faces)
        # One stable sort serves both edge checks: the key of a corner is its
        # undirected edge min * v + max, doubled, plus 1 if it runs from max to min.
        key = ((np.minimum(f, tail) * v + np.maximum(f, tail)) * 2 + (f > tail)).ravel()
        del tail
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):  # a repeated directed edge
            raise _fault(self.vertices, faces)
        # the undirected edges, sorted; no directed edge repeats, so each borders one face or two
        key >>= 1
        if len(key) % 2 or np.any(key[0::2] != key[1::2]):
            raise _fault(self.vertices, faces)
        self.face_array = f
        self.edges = np.stack([key[0::2] // v, key[0::2] % v], axis=1)
        del key
        if self.euler_characteristic() != 2 or not _walk_links(v, f, order):
            raise _fault(self.vertices, faces)
        face_edges = np.empty(len(order), dtype=np.intp)
        face_edges[order.reshape(-1, 2)] = np.arange(len(order) // 2)[:, None]
        self.face_edges = face_edges.reshape(-1, 3)
        order //= 3  # each edge's two faces, in the order of its key's direction bit
        self.edge_faces = order.reshape(-1, 2)
        self.edge_faces.sort(axis=1)

    # -- basic counts ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.face_array)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def vertex_degrees(self) -> list[int]:
        return np.bincount(self.edges.ravel(), minlength=self.num_vertices).tolist()

    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.vertex_degrees())


def _fault(vertices: np.ndarray, faces) -> MeshError:
    """The MeshError naming the first fault, in face order, of faces that the
    constructor's array checks reject: the one meshaudit.Mesh raises."""
    try:
        meshaudit.Mesh(vertices.tolist(), faces.tolist() if isinstance(faces, np.ndarray) else faces)
    except MeshError as exc:
        return exc
    except TypeError:  # faces that are not a sequence of faces
        pass
    return MeshError("faces must be an (F, 3) integer array")  # or a valid list of faces, say


def _walk_links(num_vertices: int, f: np.ndarray, order: np.ndarray) -> bool:
    """Whether every vertex link is a single cycle.

    `order` is the constructor's sort of the corners by edge: order[2k] and
    order[2k + 1] are the two directed occurrences of edge k, each the other's
    partner.  The link of f[i, j] steps from corner 3i + j to the partner of
    corner 3i + (j + 2) % 3, the corner of f[i, j] that leaves along the edge
    that corner 3i + (j + 2) % 3 enters by.  So each link is a permutation of
    its vertex's corners, and a walk from any corner closes; all links are
    walked in step.
    """
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    succ = partner.reshape(-1, 3)[:, (2, 0, 1)].ravel()
    del partner
    vertex = f.ravel()
    degree = np.bincount(vertex, minlength=num_vertices)
    start = np.empty(num_vertices, dtype=np.intp)
    start[vertex] = np.arange(len(vertex))  # some corner of each vertex that has one
    at = np.flatnonzero(degree)
    start = start[at]
    cycle = np.full(num_vertices, -1)  # the length of the walk from start; -1: isolated
    live, corner, steps = np.arange(len(at)), succ[start], 1
    while live.size:
        closed = corner == start[live]
        cycle[at[live[closed]]] = steps
        live, corner, steps = live[~closed], succ[corner[~closed]], steps + 1
    return bool(np.array_equal(cycle, degree))


def octahedron() -> SphericalTriangulation:
    """The regular octahedron of meshaudit.octahedron, all degrees 4, oriented outward."""
    mesh = meshaudit.octahedron()
    return SphericalTriangulation(np.array(mesh.vertices), np.array(mesh.faces))


def subdivide(tri: SphericalTriangulation) -> SphericalTriangulation:
    """Midpoint (1-to-4) subdivision with geodesic midpoints.

    Old vertex degrees are unchanged; each new midpoint vertex has degree 6,
    so evenness is preserved.  The midpoint of edge k is vertex V + k.
    """
    mids = tri.vertices[tri.edges].sum(axis=1)
    nrm = np.sqrt(_dot(mids, mids))
    if np.any(nrm < 1e-9):
        e = tuple(tri.edges[int(np.argmax(nrm < 1e-9))].tolist())
        raise MeshError(f"edge {e} is antipodal: geodesic midpoint undefined")
    a, b, c = tri.face_array.T
    mab, mbc, mca = (tri.num_vertices + tri.face_edges).T
    faces = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1).reshape(-1, 3)
    return SphericalTriangulation(np.vstack([tri.vertices, mids / nrm[:, None]]), faces)


# ---------------------------------------------------------------------------
# 3-coloring.
# ---------------------------------------------------------------------------


def three_color(tri: SphericalTriangulation) -> np.ndarray:
    """The vertex colors by dual-tree propagation, proper on an even triangulation.

    Colors the first face (0, 1, 2) and propagates over a frontier of faces
    across shared edges (the third vertex of a neighboring face is forced), so
    each face is reached once.  audit_mesh verifies the result, which on a
    mesh that is not even is improper, so the audit fails.
    """
    f = tri.face_array
    across = tri.edge_faces[tri.face_edges, 0]
    across += tri.edge_faces[tri.face_edges, 1]
    across -= np.arange(len(f))[:, None]  # the other face on each edge
    colors = np.full(tri.num_vertices, -1)
    colors[f[0]] = (0, 1, 2)
    reached = np.zeros(len(f), dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        g = across[frontier].ravel()
        fresh = ~reached[g]
        rows = f[frontier]
        # the neighbor's vertex off the shared edge
        t = (f[g].sum(axis=1) - rows.ravel() - rows[:, (1, 2, 0)].ravel())[fresh]
        ends = colors[rows]
        ca, cb = ends.ravel()[fresh], ends[:, (1, 2, 0)].ravel()[fresh]
        paint = colors[t] < 0  # a non-even mesh may get junk here; the audit rejects it
        colors[t[paint]] = 3 - ca[paint] - cb[paint]
        frontier = np.sort(g[fresh])  # deduplicated without np.unique, which imports numpy.ma
        frontier = frontier[np.diff(frontier, prepend=-1) != 0]
        reached[frontier] = True
    return colors


# ---------------------------------------------------------------------------
# Circumcircle geometry.
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each through the same kernel as np.dot
    and np.linalg.norm of one 3-vector, so rows match a face-by-face
    computation bit for bit (einsum and a sum of squares round differently)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def mesh_geometry(tri: SphericalTriangulation) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The circumcircle of every face, row i for face i: circumcenters (F, 3), unit
    vectors on the faces' side; angular circumradii (F,); circumcenter_inside (F,), in
    the closed spherical triangle; equidistance_residuals (F,).

    The faces are taken in blocks of wire.CHUNK_ROWS, each vectorized and
    written into the preallocated rows of the result, so the temporaries
    grow with the block and not with the mesh; a row does not depend on the
    block size, bit for bit.

    Raises MeshError naming the first face with collinear vertices or an antipodal edge.
    """
    faces = tri.face_array
    n = len(faces)
    centers, radii, inside, residuals = np.empty((n, 3)), np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    for start in range(0, n, wire.CHUNK_ROWS):
        block = slice(start, start + wire.CHUNK_ROWS)
        corners = tri.vertices[faces[block]]  # (B, 3, 3)
        v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
        following = corners[:, (1, 2, 0)]  # the second end of each edge, in face order
        normal = np.cross(v1 - v0, v2 - v0)
        nrm = np.sqrt(_dot(normal, normal))
        mids = corners + following
        bad = (nrm < 1e-13) | np.any(np.sqrt(_dot(mids, mids)) < 1e-9, axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            why = "is degenerate (collinear vertices)" if nrm[i] < 1e-13 else "has an antipodal edge"
            raise MeshError(f"face {tuple(faces[start + i].tolist())} {why}")
        center = normal / nrm[:, None]
        center[_dot(center, v0 + v1 + v2) < 0] *= -1.0
        angles = np.arccos(np.clip(_dot(center[:, None, :], corners), -1.0, 1.0))  # (B, 3)
        sides = _dot(np.cross(corners, following), center[:, None, :])
        centers[block] = center
        radii[block] = angles[:, 0]
        inside[block] = np.all(sides >= -1e-12, axis=1)
        residuals[block] = np.max(np.abs(angles - angles[:, :1]), axis=1)
    return centers, radii, inside, residuals


# ---------------------------------------------------------------------------
# The glued polyhedron: one model triangle per face, edges identified by
# color pair.
# ---------------------------------------------------------------------------


def color_pairs(tri: SphericalTriangulation, colors: np.ndarray) -> np.ndarray:
    """The sorted colors of the ends of every edge, (E, 2) in edge order."""
    pairs = colors[tri.edges]
    pairs.sort(axis=1)
    return pairs


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component in the graph on
    range(n) with edges (a[i], b[i]): hook the larger root of every edge that
    joins two trees onto the smaller, jump pointers to a fixed point, and
    repeat until no edge joins two trees."""
    parent = np.arange(n)
    while True:
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        ra, rb = parent[a], parent[b]
        join = ra != rb
        if not join.any():
            return parent
        np.minimum.at(parent, np.maximum(ra, rb)[join], np.minimum(ra, rb)[join])


def gluing_pattern(tri: SphericalTriangulation, pairs: np.ndarray) -> dict:
    """The audit's gluing fields for a proper coloring's color_pairs, as meshaudit._gluing gives them.

    Corner classes: gluing along an edge with colors {c1, c2} matches the
    c1 corners of its two faces and likewise the c2 corners.  A class is a
    connected component of the graph whose edges are these matchings, so
    when every corner lies on exactly two of them each class is a single
    cycle.  A matching joins two corners of one color, so the classes of
    each color are found apart, in a graph whose nodes are the faces."""
    f_w = tri.num_faces
    v_w, links_single_cycles = 0, True
    for c in range(3):
        ends = np.concatenate([tri.edge_faces[pairs[:, k] == c] for k in (0, 1)])
        roots = _component_roots(f_w, ends[:, 0], ends[:, 1])
        v_w += int(np.count_nonzero(roots == np.arange(f_w)))
        links_single_cycles &= bool(np.all(np.bincount(ends.ravel(), minlength=f_w) == 2))
    e_w = len(pairs)
    return {
        "gluing_euler": v_w - e_w + f_w,
        "gluing_closed": e_w * 2 == 3 * f_w,
        "gluing_links_single_cycles": links_single_cycles,
        "gluing_color_matched": bool(np.all(pairs[:, 0] != pairs[:, 1])),
    }


# ---------------------------------------------------------------------------
# Audits and export.
# ---------------------------------------------------------------------------


def audit_mesh(tri: SphericalTriangulation, colors: np.ndarray, geometry: tuple, pairs: np.ndarray) -> dict:
    """The full battery of checks that mesh export runs on the mesh, its
    colors, its mesh_geometry and their color_pairs; meshaudit.audit_mesh
    builds the same dict without numpy for verify's mesh suite.  The coloring
    is verified here, as there, and only a proper one is glued: an improper
    one has no glued polyhedron, whatever pairs come with it (meshaudit.UNGLUED)."""
    proper = len(colors) == tri.num_vertices and bool(np.all(np.sort(colors[tri.face_array], axis=1) == (0, 1, 2)))
    _, radii, inside, residuals = geometry
    return {
        "even": tri.is_even(),
        "proper_coloring": proper,
        "euler_characteristic": tri.euler_characteristic(),
        "circumcenters_inside": bool(inside.all()),
        "max_equidistance_residual": float(residuals.max()),
        "fineness": float(radii.max()),
        **(gluing_pattern(tri, pairs) if proper else meshaudit.UNGLUED),
    }


def off_chunks(tri: SphericalTriangulation):
    """The OFF text of the mesh in pieces of wire.CHUNK_ROWS rows; coordinates
    are written by float.__repr__."""
    yield f"OFF\n{tri.num_vertices} {tri.num_faces} {tri.num_edges}\n"
    for rows, line in ((tri.vertices, "{!r} {!r} {!r}\n"), (tri.face_array, "3 {} {} {}\n")):
        for start in range(0, len(rows), wire.CHUNK_ROWS):
            yield "".join(starmap(line.format, rows[start:start + wire.CHUNK_ROWS].tolist()))


def sidecar_document(tri: SphericalTriangulation, colors: np.ndarray, centers: np.ndarray, pairs: np.ndarray) -> dict:
    """The sidecar (colors, circumcenters, gluing) of a mesh's vertex colors,
    the circumcenters of its mesh_geometry and their color_pairs, as a
    document whose arrays are wire.Tables."""
    names = np.array(COLOR_NAMES, dtype=object)  # a pointer per cell, not a 5-character string
    return {
        "schema": wire.SCHEMA,
        "colors": wire.Table(None, (names[colors],)),
        "circumcenters": wire.Table([None] * 3, tuple(centers.T)),
        "gluing": wire.Table([None, None, [None, None]], (*tri.edge_faces.T, *names[pairs].T)),
    }
