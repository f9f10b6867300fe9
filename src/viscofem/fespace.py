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

        edges = tets[:, _EDGES].reshape(-1, 2)
        edges = np.sort(edges, axis=1)
        uniq_edges, edge_of = np.unique(edges, axis=0, return_inverse=True)
        edge_of = edge_of.reshape(-1, len(_EDGES))
        n_edge = len(uniq_edges)

        n_face = 0
        if p >= 3:
            faces = tets[:, _FACES].reshape(-1, 3)
            faces = np.sort(faces, axis=1)
            uniq_faces, face_of = np.unique(faces, axis=0, return_inverse=True)
            face_of = face_of.reshape(-1, len(_FACES))
            n_face = len(uniq_faces)

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
        owners = mesh.facet_owner
        facet_local = np.empty((len(owners), 3), dtype=np.int64)
        for i, (facet, owner) in enumerate(zip(mesh.boundary_facets, owners)):
            tet = mesh.tets[owner]
            for s, gv in enumerate(facet):
                facet_local[i, s] = int(np.where(tet == gv)[0][0])
        self.facet_local = facet_local

        # reference nodes lying on local face (facet_local) = nodes whose
        # weight on the opposite vertex is zero
        opp = 6 - facet_local.sum(axis=1)
        alphas = np.array(self.ref_nodes)
        self._nodes_off_vertex = [
            np.nonzero(alphas[:, v] == 0)[0] for v in range(4)
        ]
        self.facet_dof_slots = [self._nodes_off_vertex[v] for v in opp]

    # -- queries -------------------------------------------------------

    @property
    def n_dofs(self):
        return 3 * self.n_scalar_dofs

    def facet_scalar_dofs(self, facet_index):
        """Global scalar dofs supported on a boundary facet."""
        slots = self.facet_dof_slots[facet_index]
        return self.cell_dofs[self.mesh.facet_owner[facet_index], slots]

    def label_nodes(self, label):
        """Sorted scalar dofs lying on all facets with the given label."""
        out = set()
        for f in self.mesh.facets_with_label(label):
            out.update(self.facet_scalar_dofs(f).tolist())
        return np.array(sorted(out), dtype=np.int64)

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
    """Prescribed displacement vector on all nodes of a tag label."""

    def __init__(self, value=(0.0, 0.0, 0.0)):
        self.value = _as_vector_fn(value)


class SlipBC:
    """Prescribed displacement along the stored outward nodal normal;
    tangential components are traction-free (left unconstrained)."""

    def __init__(self, normal_value=0.0):
        self.normal_value = _as_scalar_fn(normal_value)


class Constraints:
    """Essential constraint bookkeeping for a space.

    Builds the orthogonal change of basis R (identity except slip-node
    blocks, whose columns are the nodal frame (n, t1, t2)), the fixed
    frame-dof set, and prescribed-value evaluation. Constrained solves
    work in frame coordinates W with U = R W.
    """

    def __init__(self, space: FeSpace, spec: dict):
        self.space = space
        self.spec = dict(spec)
        dirichlet_nodes = {}
        slip_nodes = {}
        for label, bc in self.spec.items():
            nodes = space.label_nodes(label)
            if isinstance(bc, DirichletBC):
                for nd in nodes:
                    dirichlet_nodes[int(nd)] = bc
            elif isinstance(bc, SlipBC):
                for nd in nodes:
                    slip_nodes[int(nd)] = bc
            else:
                raise TypeError(f"unsupported constraint for {label!r}: {bc!r}")
        # a node carrying both is fully prescribed
        for nd in dirichlet_nodes:
            slip_nodes.pop(nd, None)
        self.dirichlet_nodes = dirichlet_nodes
        self.slip_nodes = slip_nodes
        self._build_frames()
        self._build_rotation()
        self._build_fixed()
        self._build_targets()

    def _build_frames(self):
        space = self.space
        mesh = space.mesh
        slip_labels = [
            label for label, bc in self.spec.items() if isinstance(bc, SlipBC)
        ]
        normal_acc = {nd: np.zeros(3) for nd in self.slip_nodes}
        for label in slip_labels:
            facets = mesh.facets_with_label(label)
            if len(facets) == 0:
                continue
            normals = mesh.facet_normals()[facets]
            areas = mesh.facet_areas()[facets]
            for f, nrm, area in zip(facets, normals, areas):
                for nd in space.facet_scalar_dofs(f):
                    if int(nd) in normal_acc:
                        normal_acc[int(nd)] += area * nrm
        frames = {}
        for nd, acc in normal_acc.items():
            nlen = np.linalg.norm(acc)
            if nlen < 1e-30:
                raise ValueError(f"degenerate slip normal at node {nd}")
            n = acc / nlen
            helper = np.zeros(3)
            helper[np.argmin(np.abs(n))] = 1.0
            t1 = np.cross(n, helper)
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(n, t1)
            frames[nd] = np.column_stack([n, t1, t2])
        self.slip_frames = frames

    def _build_rotation(self):
        n = self.space.n_dofs
        if not self.slip_frames:
            self.rotation = sp.identity(n, format="csr")
            return
        rows, cols, data = [], [], []
        in_frame = np.zeros(self.space.n_scalar_dofs, dtype=bool)
        for nd, frame in self.slip_frames.items():
            in_frame[nd] = True
            for a in range(3):
                for b in range(3):
                    rows.append(3 * nd + a)
                    cols.append(3 * nd + b)
                    data.append(frame[a, b])
        plain = np.nonzero(~in_frame)[0]
        for nd in plain:
            for a in range(3):
                rows.append(3 * nd + a)
                cols.append(3 * nd + a)
                data.append(1.0)
        self.rotation = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def _build_fixed(self):
        fixed = []
        for nd in self.dirichlet_nodes:
            fixed.extend((3 * nd, 3 * nd + 1, 3 * nd + 2))
        for nd in self.slip_nodes:
            fixed.append(3 * nd)  # normal slot of the frame
        self.fixed = np.array(sorted(fixed), dtype=np.int64)
        mask = np.ones(self.space.n_dofs, dtype=bool)
        mask[self.fixed] = False
        self.free = np.nonzero(mask)[0]

    # -- values ---------------------------------------------------------

    def _build_targets(self):
        """Per BC object, the nodes it prescribes and the positions of
        their values in ``fixed``: (bc, nodes, slots) with slots (n, 3)
        for Dirichlet nodes and (n,) for the normal slot of slip nodes."""
        self._targets = []
        for table, offsets in ((self.dirichlet_nodes, np.arange(3)),
                               (self.slip_nodes, 0)):
            groups = {}
            for nd in sorted(table):
                groups.setdefault(id(table[nd]), (table[nd], []))[1].append(nd)
            for bc, nodes in groups.values():
                nodes = np.array(nodes, dtype=np.int64)
                first = np.searchsorted(self.fixed, 3 * nodes)
                self._targets.append((bc, nodes, np.add.outer(first, offsets)))

    def fixed_values(self, t=0.0):
        """Prescribed displacement values at the fixed frame dofs."""
        coords = self.space.dof_coords
        out = np.zeros(len(self.fixed))
        for bc, nodes, slots in self._targets:
            if isinstance(bc, DirichletBC):
                vals = np.asarray(bc.value(coords[nodes], t), dtype=float)
            else:
                vals = np.atleast_1d(
                    np.asarray(bc.normal_value(coords[nodes], t), dtype=float)
                )
            out[slots] = np.broadcast_to(vals, slots.shape)
        return out

    def to_frame(self, u):
        return self.rotation.T @ u

    def from_frame(self, w):
        return self.rotation @ w

    def apply_values(self, u, t=0.0):
        """Overwrite the constrained components of u with prescribed values."""
        w = self.to_frame(u)
        w[self.fixed] = self.fixed_values(t)
        return self.from_frame(w)

    def reduce(self, matrix):
        """Symmetric elimination: rotate to frame coordinates and split."""
        if self.slip_frames:
            a = (self.rotation.T @ matrix @ self.rotation).tocsr()
        else:
            a = matrix.tocsr()
        a_ff = a[self.free][:, self.free].tocsr()
        a_fx = a[self.free][:, self.fixed].tocsr()
        return ConstrainedSystem(self, a_ff, a_fx)


class ConstrainedSystem:
    """A symmetric system reduced to the free frame dofs."""

    def __init__(self, constraints: Constraints, a_ff, a_fx):
        self.constraints = constraints
        self.matrix = a_ff
        self.coupling = a_fx

    def reduced_rhs(self, rhs, fixed_values):
        b = self.constraints.to_frame(rhs)[self.constraints.free]
        if len(fixed_values):
            b = b - self.coupling @ fixed_values
        return b

    def solve(self, rhs, fixed_values=None, solver=None):
        """Solve for the full vector given a global rhs and fixed values."""
        con = self.constraints
        if fixed_values is None:
            fixed_values = np.zeros(len(con.fixed))
        b = self.reduced_rhs(rhs, fixed_values)
        if solver is None:
            from .dynamics import LinearSolver

            solver = LinearSolver()
        w = np.zeros(con.space.n_dofs)
        w[con.free] = solver.solve(self.matrix, b)
        w[con.fixed] = fixed_values
        return con.from_frame(w)

