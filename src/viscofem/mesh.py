"""Structured tetrahedral meshes of boxes and annuli with tagged boundaries.

Hexahedral cells are split into 6 tetrahedra sharing the cell's main
diagonal (Kuhn/Freudenthal subdivision), which is conforming under
structured refinement, including across the periodic seam of the annulus.
All tetrahedra are stored with positive signed volume and boundary facets
are stored with outward-oriented vertex triples.

Coordinates are SI (meters). A mesh is immutable after construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class BoundaryKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    SLIP = "slip"


@dataclass(frozen=True)
class BoundaryTag:
    """Boundary condition kind plus a user-facing label."""

    kind: BoundaryKind
    label: str


# Local faces of tet (v0,v1,v2,v3), ordered so that for a positively
# oriented tet the facet triple (a,b,c) has cross(b-a, c-a) pointing outward.
_OUTWARD_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))

# Kuhn subdivision: one tet per permutation of the axes, all sharing the
# main diagonal (0,0,0)-(1,1,1) of the unit cell.
_KUHN_PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))


@dataclass(frozen=True)
class Mesh:
    """Conforming tetrahedral mesh with tagged boundary facets.

    Attributes
    ----------
    vertices : (n_vertices, 3) float array
    tets : (n_tets, 4) int array, positively oriented
    boundary_facets : (n_facets, 3) int array, outward-oriented triples
    facet_tags : (n_facets,) int array of indices into ``tags``
    facet_owner : (n_facets,) int array, owning tet of each boundary facet
    tags : tuple of BoundaryTag
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_facets: np.ndarray
    facet_tags: np.ndarray
    facet_owner: np.ndarray
    tags: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("vertices", "tets", "boundary_facets", "facet_tags", "facet_owner"):
            getattr(self, name).setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_tets(self):
        return self.tets.shape[0]

    def facet_areas(self):
        v = self.vertices[self.boundary_facets]
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def facet_normals(self):
        """Outward unit normals of all boundary facets."""
        v = self.vertices[self.boundary_facets]
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return cr / np.linalg.norm(cr, axis=1)[:, None]

    def tag_index(self, label):
        for i, tag in enumerate(self.tags):
            if tag.label == label:
                return i
        raise ValueError(f"no boundary tag labelled {label!r}")

    def facets_with_label(self, label):
        """Indices of boundary facets carrying the given tag label."""
        return np.nonzero(self.facet_tags == self.tag_index(label))[0]

    def facets_with_kind(self, kind: BoundaryKind):
        sel = np.array([tag.kind == kind for tag in self.tags], dtype=bool)
        return np.nonzero(sel[self.facet_tags])[0]


def _kuhn_tets(cells, vid):
    """(6 * prod(cells), 4) tets of a structured grid of ``cells`` hexahedra
    per axis, six per cell by Kuhn subdivision; ``vid(i, j, k)`` gives the
    vertex index of grid point (i, j, k) for index arrays."""
    grid = np.meshgrid(*(np.arange(c) for c in cells), indexing="ij")
    ci, cj, ck = (g.ravel() for g in grid)
    tets = np.empty((6 * len(ci), 4), dtype=np.int64)
    for t, perm in enumerate(_KUHN_PERMUTATIONS):
        steps = np.zeros((4, 3), dtype=np.int64)
        for s, axis in enumerate(perm):
            steps[s + 1] = steps[s]
            steps[s + 1, axis] += 1
        for v in range(4):
            di, dj, dk = steps[v]
            tets[t::6, v] = vid(ci + di, cj + dj, ck + dk)
    return tets


def _fix_orientation(vertices, tets):
    v = vertices[tets]
    vol = np.linalg.det(v[:, 1:] - v[:, :1])
    flip = vol < 0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def _extract_boundary(vertices, tets):
    """Facets belonging to exactly one tet, outward oriented, with owners."""
    n_tets = len(tets)
    faces = np.empty((4 * n_tets, 3), dtype=np.int64)
    owners = np.repeat(np.arange(n_tets), 4)
    for f, loc in enumerate(_OUTWARD_FACES):
        faces[f::4] = tets[:, loc]
    key = np.sort(faces, axis=1)
    order = np.lexsort(key.T[::-1])
    key_sorted = key[order]
    # boundary facets appear exactly once among the sorted keys
    same_prev = np.zeros(len(key_sorted), dtype=bool)
    same_prev[1:] = np.all(key_sorted[1:] == key_sorted[:-1], axis=1)
    same_next = np.zeros(len(key_sorted), dtype=bool)
    same_next[:-1] = same_prev[1:]
    unique = ~(same_prev | same_next)
    sel = order[unique]
    return faces[sel], owners[sel]


def _tag_facets(vertices, facets, owners, tagger, default_tag):
    """Assign one BoundaryTag per facet via the tagger callback."""
    tri = vertices[facets]
    centroids = tri.mean(axis=1)
    cr = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normals = cr / np.linalg.norm(cr, axis=1)[:, None]
    tags = []
    tag_ids = {}
    facet_tags = np.empty(len(facets), dtype=np.int64)
    for i in range(len(facets)):
        tag = tagger(centroids[i], normals[i]) if tagger is not None else default_tag
        if tag is None:
            tag = default_tag
        if tag not in tag_ids:
            tag_ids[tag] = len(tags)
            tags.append(tag)
        facet_tags[i] = tag_ids[tag]
    return tuple(tags), facet_tags


def build_box_mesh(n, extent=(1.0, 1.0, 1.0), tagger=None):
    """Structured box mesh with ``n`` cells per axis, 6 tets per cell.

    Parameters
    ----------
    n : int or (3,) ints
        Cells per axis; mesh size along an axis is extent/n.
    extent : (3,) floats
        Box side lengths; the box is [0, extent[0]] x ... x [0, extent[2]].
    tagger : callable(centroid, normal) -> BoundaryTag, optional
        Boundary tagging predicate. Default tags everything Neumann.
    """
    nx, ny, nz = (int(n),) * 3 if np.isscalar(n) else tuple(int(v) for v in n)
    if min(nx, ny, nz) < 1:
        raise ValueError("need at least one cell per axis")
    ex, ey, ez = (float(v) for v in extent)
    if min(ex, ey, ez) <= 0:
        raise ValueError("extent must be positive")

    xs = np.linspace(0.0, ex, nx + 1)
    ys = np.linspace(0.0, ey, ny + 1)
    zs = np.linspace(0.0, ez, nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    tets = _fix_orientation(vertices, _kuhn_tets((nx, ny, nz), vid))

    facets, owners = _extract_boundary(vertices, tets)
    default = BoundaryTag(BoundaryKind.NEUMANN, "boundary")
    tags, facet_tags = _tag_facets(vertices, facets, owners, tagger, default)
    return Mesh(vertices, tets, facets, facet_tags, owners, tags)


def box_face_tagger(extent=(1.0, 1.0, 1.0), faces=None, default=None):
    """Tagger keyed by box face: 'x-', 'x+', 'y-', 'y+', 'z-', 'z+'.

    ``faces`` maps face keys to BoundaryTag. Tolerance is 1e-10 times the
    domain diameter.
    """
    extent = np.asarray(extent, dtype=float)
    tol = 1e-10 * np.linalg.norm(extent)
    faces = faces or {}
    default = default or BoundaryTag(BoundaryKind.NEUMANN, "boundary")
    bounds = {
        "x-": (0, 0.0), "x+": (0, extent[0]),
        "y-": (1, 0.0), "y+": (1, extent[1]),
        "z-": (2, 0.0), "z+": (2, extent[2]),
    }

    def tagger(centroid, normal):
        for key, tag in faces.items():
            axis, value = bounds[key]
            if abs(centroid[axis] - value) < tol:
                return tag
        return default

    return tagger


def build_annulus_mesh(r_in, r_out, length_z, divisions):
    """Structured cylindrical-shell (pipe) mesh.

    The cross-section circles are approximated by regular polygons with
    ``n_theta`` sides; the polygonal radius defect is O(n_theta^-2).
    Boundary tags: inner surface Slip ('inner'), outer surface Dirichlet
    ('outer'), both end caps Neumann ('cap').

    Parameters
    ----------
    r_in, r_out : float
        Inner and outer radii, 0 < r_in < r_out.
    length_z : float
        Axial length; the pipe spans z in [0, length_z].
    divisions : (n_r, n_theta, n_z) ints
        Cells radially, circumferentially (>= 3), and axially.
    """
    if not 0 < r_in < r_out:
        raise ValueError("radii must satisfy 0 < r_in < r_out")
    if length_z <= 0:
        raise ValueError("length must be positive")
    n_r, n_t, n_z = (int(v) for v in divisions)
    if min(n_r, n_z) < 1 or n_t < 3:
        raise ValueError("divisions must be >= 1 with n_theta >= 3")

    rs = np.linspace(r_in, r_out, n_r + 1)
    thetas = 2.0 * np.pi * np.arange(n_t) / n_t
    zs = np.linspace(0.0, length_z, n_z + 1)
    R, T, Z = np.meshgrid(rs, thetas, zs, indexing="ij")
    vertices = np.stack(
        [(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel(), Z.ravel()], axis=1
    )

    def vid(i, j, k):
        return (i * n_t + (j % n_t)) * (n_z + 1) + k

    tets = _fix_orientation(vertices, _kuhn_tets((n_r, n_t, n_z), vid))

    facets, owners = _extract_boundary(vertices, tets)
    tol = 1e-10 * (2 * r_out + length_z)
    tags = (
        BoundaryTag(BoundaryKind.SLIP, "inner"),
        BoundaryTag(BoundaryKind.DIRICHLET, "outer"),
        BoundaryTag(BoundaryKind.NEUMANN, "cap"),
    )
    # mesh vertices lie exactly on the inner/outer vertex circles, so
    # classify radial surfaces by vertex radius; everything else is a cap
    vr = np.hypot(vertices[:, 0], vertices[:, 1])
    facet_vr = vr[facets]
    on_inner = np.all(np.abs(facet_vr - r_in) < tol, axis=1)
    on_outer = np.all(np.abs(facet_vr - r_out) < tol, axis=1)
    facet_z = vertices[facets][:, :, 2]
    on_cap = np.all(np.abs(facet_z) < tol, axis=1) | np.all(
        np.abs(facet_z - length_z) < tol, axis=1
    )
    facet_tags = np.full(len(facets), 2, dtype=np.int64)
    facet_tags[on_inner & ~on_cap] = 0
    facet_tags[on_outer & ~on_cap] = 1
    return Mesh(vertices, tets, facets, facet_tags, owners, tags)
