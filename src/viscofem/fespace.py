"""Lagrange finite element spaces of degree 1..3 on tetrahedral meshes.

Scalar reference bases are nodal Lagrange polynomials on the principal
lattice of the reference tetrahedron, evaluated in barycentric
coordinates. Vector-valued fields store 3 components per scalar node,
interleaved: vector dof = 3*node + component.

Quadrature rules are conical (Duffy) products of Gauss-Jacobi rules, so
all weights are positive and a rule of requested exactness degree d uses
ceil((d+1)/2)^dim points.

Essential constraints (Dirichlet and slip) are imposed by symmetric
elimination. Slip nodes are rotated into an orthonormal frame (n, t1, t2)
built from area-weighted facet normals; the normal component is
prescribed strongly and the tangential components stay free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from .mesh import Mesh

_MAX_QUAD_DEGREE = 8

_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# gradients of the barycentric coordinates wrt reference coords (x,y,z)
_GRAD_LAMBDA = np.array(
    [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points (barycentric) and weights in reference measure."""

    points: np.ndarray
    weights: np.ndarray


def _jacobi01(n, alpha):
    """Gauss nodes/weights for integral of (1-u)^alpha * f(u) over [0,1]."""
    if alpha == 0:
        x, w = roots_legendre(n)
    else:
        x, w = roots_jacobi(n, alpha, 0.0)
    return (1.0 + x) / 2.0, w * 2.0 ** (-alpha - 1.0)


def quadrature(exactness_degree):
    """Conical-product rule on the reference tetrahedron.

    Exact for all polynomials of total degree <= exactness_degree; the
    weights are positive and sum to the reference volume 1/6.
    """
    d = int(exactness_degree)
    if d < 0 or d > _MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported quadrature degree {d} (max {_MAX_QUAD_DEGREE})")
    n = max(1, (d + 2) // 2)
    u, wu = _jacobi01(n, 2)
    v, wv = _jacobi01(n, 1)
    w, ww = _jacobi01(n, 0)
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    x = U.ravel()
    y = (V * (1 - U)).ravel()
    z = (W * (1 - U) * (1 - V)).ravel()
    weights = (wu[:, None, None] * wv[None, :, None] * ww[None, None, :]).ravel()
    points = np.stack([1 - x - y - z, x, y, z], axis=1)
    return QuadratureRule(points, weights)


def triangle_quadrature(exactness_degree):
    """Conical-product rule on the reference triangle (weights sum to 1/2)."""
    d = int(exactness_degree)
    if d < 0 or d > _MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported quadrature degree {d} (max {_MAX_QUAD_DEGREE})")
    n = max(1, (d + 2) // 2)
    u, wu = _jacobi01(n, 1)
    v, wv = _jacobi01(n, 0)
    U, V = np.meshgrid(u, v, indexing="ij")
    x = U.ravel()
    y = (V * (1 - U)).ravel()
    weights = (wu[:, None] * wv[None, :]).ravel()
    points = np.stack([1 - x - y, x, y], axis=1)
    return QuadratureRule(points, weights)


def reference_nodes(p):
    """Lattice multi-indices of the degree-p nodal basis, canonical order.

    Order: the 4 vertices, then edge nodes (edges (0,1),(0,2),(0,3),
    (1,2),(1,3),(2,3), each traversed from its first to second vertex),
    then one node per face for p=3.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {p}")
    nodes = []
    for v in range(4):
        alpha = [0, 0, 0, 0]
        alpha[v] = p
        nodes.append(tuple(alpha))
    for a, b in _EDGES:
        for s in range(1, p):
            alpha = [0, 0, 0, 0]
            alpha[a] = p - s
            alpha[b] = s
            nodes.append(tuple(alpha))
    if p >= 3:
        for f in _FACES:
            alpha = [0, 0, 0, 0]
            for v in f:
                alpha[v] = 1
            nodes.append(tuple(alpha))
    return tuple(nodes)


def reference_basis(p, points):
    """Nodal basis values and reference-coordinate gradients.

    Parameters
    ----------
    p : int
        Degree in {1, 2, 3}.
    points : (4,) or (nq, 4) array
        Barycentric coordinates (nonnegative, summing to 1).

    Returns
    -------
    values : (nq, n_nodes) array
    gradients : (nq, n_nodes, 3) array, gradients wrt reference (x,y,z)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 4:
        raise ValueError("barycentric points must have 4 components")
    nodes = reference_nodes(p)
    nq = pts.shape[0]
    values = np.empty((nq, len(nodes)))
    dlam = np.empty((nq, len(nodes), 4))
    for m, alpha in enumerate(nodes):
        # N = prod_d prod_{r<alpha_d} (p*lam_d - r)/(alpha_d - r)
        factors = np.ones((nq, 4))
        dfactors = np.zeros((nq, 4))
        for d in range(4):
            if alpha[d] == 0:
                continue
            terms = np.stack(
                [(p * pts[:, d] - r) / (alpha[d] - r) for r in range(alpha[d])]
            )
            factors[:, d] = np.prod(terms, axis=0)
            for r in range(alpha[d]):
                others = np.prod(np.delete(terms, r, axis=0), axis=0)
                dfactors[:, d] += others * p / (alpha[d] - r)
        values[:, m] = np.prod(factors, axis=1)
        for d in range(4):
            rest = np.prod(np.delete(factors, d, axis=1), axis=1)
            dlam[:, m, d] = dfactors[:, d] * rest
    gradients = np.einsum("qmd,di->qmi", dlam, _GRAD_LAMBDA)
    return values, gradients


def _number_entities(vertex_tuples, n_vertices):
    """(index, count) of the entities (edges or faces) given by vertex
    tuples (..., k): each tuple's index among the distinct ones, in the
    lexicographic order of their sorted vertices, found by one np.unique
    over the scalar keys (a n + b) n + c..., which sort in that order (in
    int64, faces fit below 2 million vertices)."""
    tuples = np.sort(vertex_tuples, axis=-1)
    keys = tuples[..., 0]
    for j in range(1, tuples.shape[-1]):
        keys = keys * n_vertices + tuples[..., j]
    distinct, index = np.unique(keys, return_inverse=True)
    return index.reshape(keys.shape), len(distinct)


class FeSpace:
    """Conforming vector-valued Lagrange space of degree p on a mesh.

    Scalar dofs sit at vertices, edge lattice points, and (for p=3) face
    barycenters; ``cell_dofs`` maps each tet's reference nodes to global
    scalar dofs with edge nodes oriented by ascending global vertex id.
    """

    def __init__(self, mesh: Mesh, p: int):
        if p not in (1, 2, 3):
            raise ValueError(f"unsupported polynomial degree {p}")
        self.mesh = mesh
        self.p = p
        self.ref_nodes = reference_nodes(p)
        self._build_dof_map()
        self._build_facets()

    # -- construction -------------------------------------------------

    def _build_dof_map(self):
        mesh, p = self.mesh, self.p
        tets = mesh.tets
        n_vert = mesh.n_vertices

        edge_of, n_edge = _number_entities(tets[:, _EDGES], n_vert)
        n_face = 0
        if p >= 3:
            face_of, n_face = _number_entities(tets[:, _FACES], n_vert)

        self.n_scalar_dofs = n_vert + (p - 1) * n_edge + n_face
        cell_dofs = np.empty((mesh.n_tets, len(self.ref_nodes)), dtype=np.int64)
        coords = np.empty((self.n_scalar_dofs, 3))
        coords[:n_vert] = mesh.vertices

        m = 0
        for v in range(4):
            cell_dofs[:, m] = tets[:, v]
            m += 1
        for e, (a, b) in enumerate(_EDGES):
            ga, gb = tets[:, a], tets[:, b]
            base = n_vert + (p - 1) * edge_of[:, e]
            for s in range(1, p):
                # node at weight s on local vertex b; global slot counts
                # the weight on the larger-global-id endpoint
                w_on_max = np.where(gb > ga, s, p - s)
                dof = base + (w_on_max - 1)
                cell_dofs[:, m] = dof
                coords[dof] = (
                    (p - s) / p * mesh.vertices[ga] + s / p * mesh.vertices[gb]
                )
                m += 1
        if p >= 3:
            for f, tri in enumerate(_FACES):
                dof = n_vert + (p - 1) * n_edge + face_of[:, f]
                cell_dofs[:, m] = dof
                coords[dof] = mesh.vertices[tets[:, tri]].mean(axis=1)
                m += 1
        self.cell_dofs = cell_dofs
        self.dof_coords = coords

    def _build_facets(self):
        """Per boundary facet: local vertex slots in the owner tet and
        the scalar dofs supported on the facet."""
        mesh = self.mesh
        # slot of each facet vertex in its owner tet: the first match
        facet_local = np.argmax(
            mesh.tets[mesh.facet_owner][:, None, :] == mesh.boundary_facets[:, :, None],
            axis=2,
        )
        self.facet_local = facet_local

        # reference nodes lying on local face (facet_local) = nodes whose
        # weight on the opposite vertex is zero; every face holds as many,
        # so the slots are one row per facet
        opp = 6 - facet_local.sum(axis=1)
        alphas = np.array(self.ref_nodes)
        nodes_off_vertex = np.array([np.nonzero(alphas[:, v] == 0)[0] for v in range(4)])
        self.facet_dof_slots = nodes_off_vertex[opp]

    # -- queries -------------------------------------------------------

    @property
    def n_dofs(self):
        return 3 * self.n_scalar_dofs

    def facet_scalar_dofs(self, facets):
        """Global scalar dofs supported on boundary facets: an array for one
        facet index, one row per facet for an array of indices."""
        owners = np.expand_dims(self.mesh.facet_owner[facets], -1)
        return self.cell_dofs[owners, self.facet_dof_slots[facets]]

    def label_nodes(self, label):
        """Sorted scalar dofs lying on all facets with the given label."""
        return np.unique(self.facet_scalar_dofs(self.mesh.facets_with_label(label)))

    def facet_barycentric_in_owner(self, facet_index, tri_points):
        """Map triangle barycentric points onto the owner tet's barycentric."""
        tri_points = np.atleast_2d(tri_points)
        out = np.zeros((tri_points.shape[0], 4))
        for s, v in enumerate(self.facet_local[facet_index]):
            out[:, v] = tri_points[:, s]
        return out

    def interpolate(self, fn):
        """Nodal interpolation of fn(points (n,3)) -> (n,3) onto the space."""
        vals = np.asarray(fn(self.dof_coords), dtype=float)
        if vals.shape != (self.n_scalar_dofs, 3):
            vals = np.broadcast_to(vals, (self.n_scalar_dofs, 3))
        return vals.reshape(-1).copy()


# -- essential constraints ---------------------------------------------


def _as_vector_fn(value):
    if callable(value):
        return value
    const = np.asarray(value, dtype=float)

    def fn(x, t=0.0):
        return np.broadcast_to(const, (len(np.atleast_2d(x)), 3))

    return fn


def _as_scalar_fn(value):
    if callable(value):
        return value
    const = float(value)

    def fn(x, t=0.0):
        return np.full(len(np.atleast_2d(x)), const)

    return fn


class DirichletBC:
    """Prescribed displacement vector on all nodes of a tag label: a
    constant, or a function value(x, t) -> (n, 3)."""

    def __init__(self, value=(0.0, 0.0, 0.0)):
        self.constant = not callable(value)
        self.value = _as_vector_fn(value)


class SlipBC:
    """Prescribed displacement along the stored outward nodal normal;
    tangential components are traction-free (left unconstrained). The
    normal value is a constant or a function normal_value(x, t) -> (n,)."""

    def __init__(self, normal_value=0.0):
        self.constant = not callable(normal_value)
        self.normal_value = _as_scalar_fn(normal_value)


def _row_norms(v):
    """Euclidean norm of each row of v (n, 3), each a dot product, as
    ``np.linalg.norm`` takes the norm of one vector: the reduction over an
    axis sums in another order and rounds differently."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


class Constraints:
    """Essential constraint bookkeeping for a space.

    Owns the prescribed nodes (``dirichlet_nodes`` and ``slip_nodes``,
    sorted node arrays), the nodal frames (n, t1, t2) of the slip nodes,
    the fixed frame-dof set, and the prescribed values. Constrained solves
    work in frame coordinates W with U = R W, where the orthogonal change
    of basis R is the identity except at the slip nodes' 3x3 blocks, whose
    columns are their frames. ``to_frame`` and ``from_frame`` apply R' and
    R by rotating those blocks only; the sparse ``rotation`` R serves the
    matrix products of ``reduce`` and the full stepper.
    """

    def __init__(self, space: FeSpace, spec: dict):
        self.space = space
        self.spec = dict(spec)
        # per scalar node and BC kind, the index into ``spec`` of the BC
        # prescribing it, or -1: labels are written in ``spec`` order, so a
        # later label overrides an earlier one of its kind
        dirichlet = np.full(space.n_scalar_dofs, -1)
        slip = np.full(space.n_scalar_dofs, -1)
        for i, (label, bc) in enumerate(self.spec.items()):
            if isinstance(bc, DirichletBC):
                dirichlet[space.label_nodes(label)] = i
            elif isinstance(bc, SlipBC):
                slip[space.label_nodes(label)] = i
            else:
                raise TypeError(f"unsupported constraint for {label!r}: {bc!r}")
        # a node carrying both is fully prescribed
        slip[dirichlet >= 0] = -1
        self.dirichlet_nodes = np.nonzero(dirichlet >= 0)[0]
        self.slip_nodes = np.nonzero(slip >= 0)[0]
        self._build_frames()
        self._build_rotation()
        self._build_fixed()
        self._build_targets(dirichlet, slip)

    def _build_frames(self):
        """``slip_frames[k]``, the orthonormal frame (n, t1, t2) as columns
        at the k-th slip node: n is the area-weighted mean of the adjacent
        slip facets' normals."""
        space = self.space
        mesh = space.mesh
        nodes = self.slip_nodes
        position = np.full(space.n_scalar_dofs, -1)
        position[nodes] = np.arange(len(nodes))
        acc = np.zeros((len(nodes), 3))
        for label, bc in self.spec.items():
            if not isinstance(bc, SlipBC):
                continue
            facets = mesh.facets_with_label(label)
            weighted = mesh.facet_areas()[facets, None] * mesh.facet_normals()[facets]
            pos = position[space.facet_scalar_dofs(facets)]
            on_slip = pos >= 0
            # facet by facet, node by node, as a loop over them would add
            np.add.at(acc, pos[on_slip], np.broadcast_to(
                weighted[:, None], pos.shape + (3,))[on_slip])
        nlen = _row_norms(acc)
        degenerate = np.nonzero(nlen < 1e-30)[0]
        if len(degenerate):
            raise ValueError(f"degenerate slip normal at node {nodes[degenerate[0]]}")
        n = acc / nlen[:, None]
        helper = np.zeros_like(n)
        helper[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
        t1 = np.cross(n, helper)
        t1 /= _row_norms(t1)[:, None]
        t2 = np.cross(n, t1)
        self.slip_frames = np.stack([n, t1, t2], axis=2)

    def _build_rotation(self):
        n = self.space.n_dofs
        if not len(self.slip_nodes):
            self.rotation = sp.identity(n, format="csr")
            return
        nodes = self.slip_nodes
        comp = np.arange(3)
        # frame blocks of the slip nodes, then the identity on the other nodes
        block = (3 * nodes[:, None, None] + comp[:, None]).repeat(3, axis=2)
        in_frame = np.zeros(self.space.n_scalar_dofs, dtype=bool)
        in_frame[nodes] = True
        plain = (3 * np.nonzero(~in_frame)[0][:, None] + comp).ravel()
        rows = np.concatenate([block.ravel(), plain])
        cols = np.concatenate([block.transpose(0, 2, 1).ravel(), plain])
        data = np.concatenate([self.slip_frames.ravel(), np.ones(len(plain))])
        self.rotation = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def _build_fixed(self):
        # the three slots of each Dirichlet node, the normal slot of each
        # slip node's frame
        self.fixed = np.sort(np.concatenate([
            (3 * self.dirichlet_nodes[:, None] + np.arange(3)).ravel(), 3 * self.slip_nodes]))
        mask = np.ones(self.space.n_dofs, dtype=bool)
        mask[self.fixed] = False
        self.free = np.nonzero(mask)[0]

    # -- values ---------------------------------------------------------

    def _build_targets(self, dirichlet, slip):
        """Per ``spec`` entry that owns nodes in the node owner arrays of
        each kind: (bc, nodes, slots), with the positions in ``fixed`` of
        the nodes' values, (n, 3) for Dirichlet nodes and (n,) for the
        normal slot of slip nodes. The constant BCs' values are filled in
        ``_constant_values`` here, once; only the others are kept in
        ``_targets``, to evaluate per time."""
        self._targets = []
        values = np.zeros(len(self.fixed))
        bcs = list(self.spec.values())
        for owner, offsets in ((dirichlet, np.arange(3)), (slip, 0)):
            for i in np.unique(owner[owner >= 0]):
                nodes = np.nonzero(owner == i)[0]
                first = np.searchsorted(self.fixed, 3 * nodes)
                target = (bcs[i], nodes, np.add.outer(first, offsets))
                if bcs[i].constant:
                    self._fill(values, target, 0.0)
                else:
                    self._targets.append(target)
        values.flags.writeable = False
        self._constant_values = values
        self._last = None  # (t, values) of the last time-dependent evaluation

    def _fill(self, out, target, t):
        """Write the values of one (bc, nodes, slots) target at time t."""
        bc, nodes, slots = target
        coords = self.space.dof_coords[nodes]
        if isinstance(bc, DirichletBC):
            vals = np.asarray(bc.value(coords, t), dtype=float)
        else:
            vals = np.atleast_1d(np.asarray(bc.normal_value(coords, t), dtype=float))
        out[slots] = np.broadcast_to(vals, slots.shape)

    def fixed_values(self, t=0.0):
        """Prescribed displacement values at the fixed frame dofs, as a
        read-only array. When every BC is constant, this is one array for
        every t. Otherwise the values of the last t asked for are kept: a
        march asks for each step's start after the previous step's end, so
        both steps use the same values bit for bit, as the energy identity
        needs."""
        if not self._targets:
            return self._constant_values
        if self._last is None or self._last[0] != t:
            out = self._constant_values.copy()
            for target in self._targets:
                self._fill(out, target, t)
            out.flags.writeable = False
            self._last = (t, out)
        return self._last[1]

    def _rotate_blocks(self, v, frames):
        """A new vector, v + 0.0, except that the 3-block x of v at the k-th
        slip node becomes 0.0 + sum_c x[c] frames[k, c], the terms added in
        c order. The sparse product with the rotation starts each row's sum
        from 0.0 and adds in that order, so the two are equal bit for bit,
        signed zeros included."""
        out = v + 0.0
        x = v.reshape(-1, 3)[self.slip_nodes]
        out.reshape(-1, 3)[self.slip_nodes] = (
            0.0 + x[:, :1] * frames[:, 0] + x[:, 1:2] * frames[:, 1] + x[:, 2:] * frames[:, 2])
        return out

    def to_frame(self, u):
        """R'u, a new vector: each slip node's block in its frame's
        coordinates (n, t1, t2)."""
        return self._rotate_blocks(u, self.slip_frames)

    def from_frame(self, w):
        """R w, a new vector: each slip node's block, given in its frame's
        coordinates, back in Cartesian ones."""
        return self._rotate_blocks(w, self.slip_frames.transpose(0, 2, 1))

    def apply_values(self, u, t=0.0):
        """Overwrite the constrained components of u with prescribed values."""
        w = self.to_frame(u)
        w[self.fixed] = self.fixed_values(t)
        return self.from_frame(w)

    def reduce(self, matrix):
        """Symmetric elimination: rotate to frame coordinates and split."""
        if len(self.slip_nodes):
            a = (self.rotation.T @ matrix @ self.rotation).tocsr()
        else:
            a = matrix.tocsr()
        rows = a[self.free]
        a_ff = rows[:, self.free].tocsr()
        a_fx = rows[:, self.fixed].tocsr()
        return ConstrainedSystem(self, a_ff, a_fx)


class ConstrainedSystem:
    """A symmetric system reduced to the free frame dofs."""

    def __init__(self, constraints: Constraints, a_ff, a_fx):
        self.constraints = constraints
        self.matrix = a_ff
        self.coupling = a_fx

    def reduced_rhs(self, rhs, fixed_values):
        b = self.constraints.to_frame(rhs)[self.constraints.free]
        # with all values zero, b - A 0 would equal b bit for bit
        if np.any(fixed_values):
            b = b - self.coupling @ fixed_values
        return b

    def solve(self, rhs, fixed_values, solver):
        """Solve for the full vector given a global rhs, fixed values and solver."""
        con = self.constraints
        b = self.reduced_rhs(rhs, fixed_values)
        w = np.zeros(con.space.n_dofs)
        w[con.free] = solver.solve(self.matrix, b)
        w[con.fixed] = fixed_values
        return con.from_frame(w)

