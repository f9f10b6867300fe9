"""Lagrange finite element spaces of degree 1..3 on tetrahedral meshes.

Scalar reference bases are nodal Lagrange polynomials on the principal
lattice of the reference tetrahedron, evaluated in barycentric
coordinates. Vector-valued fields store 3 components per scalar node,
interleaved: vector dof = 3*node + component.

Quadrature rules are conical (Duffy) products of Gauss-Jacobi rules, so
all weights are positive and a rule of requested exactness degree d uses
ceil((d+1)/2)^dim points.

Essential constraints (Dirichlet and slip) are imposed by symmetric
elimination, into a free-free and a free-fixed block that the caller
holds. Slip nodes are rotated into an orthonormal frame (n, t1, t2)
built from area-weighted facet normals; the normal component is
prescribed strongly and the tangential components stay free. One frame
kernel, ``_frame_sum``, rotates the slip nodes' 3-blocks of vectors and
of matrices alike; no other dof is touched.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
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


def _conical_rule(exactness_degree, dim):
    """Conical-product rule on the reference simplex of dimension ``dim``:
    the product of Gauss-Jacobi rules of weight (1-u)^alpha, alpha = dim-1
    down to 0, with collapsed coordinate i = u_i (1-u_0) ... (1-u_{i-1})."""
    d = int(exactness_degree)
    if d < 0 or d > _MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported quadrature degree {d} (max {_MAX_QUAD_DEGREE})")
    n = max(1, (d + 2) // 2)
    nodes, weights = zip(*(_jacobi01(n, dim - 1 - i) for i in range(dim)))
    grid = np.meshgrid(*nodes, indexing="ij")
    coords = [reduce(lambda c, u: c * (1 - u), grid[:i], grid[i]).ravel() for i in range(dim)]
    weights = reduce(np.multiply, np.meshgrid(*weights, indexing="ij")).ravel()
    points = np.stack([reduce(np.subtract, coords, 1.0)] + coords, axis=1)
    return QuadratureRule(points, weights)


def quadrature(exactness_degree):
    """Conical-product rule on the reference tetrahedron.

    Exact for all polynomials of total degree <= exactness_degree; the
    weights are positive and sum to the reference volume 1/6.
    """
    return _conical_rule(exactness_degree, 3)


def triangle_quadrature(exactness_degree):
    """Conical-product rule on the reference triangle (weights sum to 1/2)."""
    return _conical_rule(exactness_degree, 2)


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
    alpha = np.array(reference_nodes(p))  # (m, 4)
    # N = prod_d prod_{r<alpha_d} t_rd with t_rd = (p*lam_d - r)/(alpha_d - r),
    # every node at once: terms[r, q, m, d], padded with 1.0 for r >= alpha_d.
    # Each product multiplies its factors in order from 1.0, and a factor of
    # 1.0 leaves it exact, so the values equal a node-by-node evaluation's
    r = np.arange(p)[:, None, None, None]
    live = r < alpha
    denom = np.where(live, alpha - r, 1)
    terms = np.where(live, (p * pts[None, :, None, :] - r) / denom, 1.0)
    factors = reduce(np.multiply, terms, 1.0)  # (q, m, d)
    # d/dlam_d of the product: sum_r (prod_{s != r} t_sd) p / (alpha_d - r),
    # added in r order from 0.0, with 0.0 for the padding
    dfactors = 0.0
    for i in range(p):
        others = reduce(np.multiply, (terms[s] for s in range(p) if s != i), 1.0)
        dfactors = dfactors + np.where(live[i], others * p / denom[i], 0.0)
    values = np.prod(factors, axis=2)
    rest = [reduce(np.multiply, (factors[..., e] for e in range(4) if e != d), 1.0)
            for d in range(4)]
    dlam = np.stack([dfactors[..., d] * rest[d] for d in range(4)], axis=2)
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


# parts of the node graph with at most this many nodes are not dissected
DISSECTION_LEAF_NODES = 16


def nested_dissection(coords, cells):
    """A geometric nested dissection of the node graph in which two nodes
    are adjacent when a cell (a row of ``cells``) holds both: (rank,
    splits), the rank of each node and one row (first, left, right,
    separator) per dissected part. A part holds the ranks from ``first``
    on: its left child's ``left`` ranks, its right child's ``right``, then
    its ``separator`` ranks, so children come before their separator.

    A part of more than ``DISSECTION_LEAF_NODES`` nodes is split along its
    longest coordinate extent. The candidate planes are the nodes'
    coordinate value at the part's median and the next distinct values
    below and above it. The separator of a plane is its nodes, plus, where
    cells of the part straddle the plane, the nodes of those cells on one
    side of it (curved boundaries put few nodes on any coordinate plane).
    Each plane and side is scored by separator size + |left - right| / 4
    and the best is kept; a plane no cell straddles scores its nodes alone
    on both sides. Within a leaf or a separator, the nodes keep the order
    of the last coordinate sort, which breaks ties by the order before it.

    All parts of one level are split together, in array operations over
    the level's nodes and the cells.
    """
    n = len(coords)
    cells = np.ascontiguousarray(np.asarray(cells).T)  # one row per local node
    entries = cells.ravel()
    rank = np.empty(n, dtype=np.int64)
    splits = []
    nodes = np.arange(n)  # the unranked nodes, grouped by part
    part = np.zeros(n, dtype=np.int64)  # the part of each of ``nodes``
    start = np.zeros(1, dtype=np.int64)  # the first rank of each part
    while len(nodes):
        size = np.bincount(part, minlength=len(start))
        first = np.cumsum(size) - size
        in_leaf = (size <= DISSECTION_LEAF_NODES)[part]
        rank[nodes[in_leaf]] = (start[part] + np.arange(len(nodes)) - first[part])[in_leaf]
        # the parts left to split, numbered anew
        split = np.nonzero(size > DISSECTION_LEAF_NODES)[0]
        if not len(split):
            break
        nodes, part = nodes[~in_leaf], np.searchsorted(split, part[~in_leaf])
        start, size = start[split], size[split]
        first = np.cumsum(size) - size
        n_parts = len(start)

        # the longest extent of each part, and the nodes' coordinate along
        # it, in ascending order within each part
        x = coords[nodes]
        extent = np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first)
        c = x[np.arange(len(nodes)), np.argmax(extent, axis=1)[part]]
        by_coord = np.lexsort((c, part))
        nodes, c = nodes[by_coord], c[by_coord]

        # for each node, the coordinates its cells span: a cell holds the
        # unranked nodes of one part only, and a plane strictly inside a
        # cell's span has nodes of the cell on both sides
        low = np.full(n, np.inf)
        high = np.full(n, -np.inf)
        low[nodes] = high[nodes] = c
        reach_lo, reach_hi = low.copy(), high.copy()
        np.minimum.at(reach_lo, entries, np.tile(low[cells].min(axis=0), len(cells)))
        np.maximum.at(reach_hi, entries, np.tile(high[cells].max(axis=0), len(cells)))
        reach_lo, reach_hi = reach_lo[nodes, None], reach_hi[nodes, None]

        # runs of equal coordinate within a part, and the three around each
        # part's median node: [part, plane] -> run
        new_run = np.ones(len(nodes), dtype=bool)
        new_run[1:] = (c[1:] != c[:-1]) | (part[1:] != part[:-1])
        run_first = np.nonzero(new_run)[0]
        run_end = np.append(run_first[1:], len(nodes))
        run = np.cumsum(new_run) - 1
        cand = np.clip(run[first + size // 2][:, None] + np.arange(-1, 2), 0, len(run_first) - 1)
        plane = c[run_first[cand]]
        on_plane = run_end[cand] - run_first[cand]
        balance = (run_first[cand] - first[:, None]) - ((first + size)[:, None] - run_end[cand])

        # the separator of a plane and side: the plane's nodes, and the nodes
        # on that side of the cells straddling the plane
        at = plane[part]
        col = c[:, None]
        sides = np.stack([(col < at) & (reach_hi > at), (col > at) & (reach_lo < at)], axis=2)
        extra = np.add.reduceat(sides, first, dtype=np.int64)
        score = on_plane[..., None] + extra + np.abs(balance[..., None] + [-1, 1] * extra) / 4.0
        in_part = part[run_first[cand]] == np.arange(n_parts)[:, None]
        best = np.argmin(np.where(in_part[..., None], score, np.inf).reshape(n_parts, 6), axis=1)
        pick = best[part]
        sides = sides.reshape(len(nodes), 6)[np.arange(len(nodes)), pick]
        at = at[np.arange(len(nodes)), pick // 2]
        sep = (c == at) | sides
        right_side = ~sep & (c > at)
        n_left = np.bincount(part[~sep & ~right_side], minlength=n_parts)
        n_right = np.bincount(part[right_side], minlength=n_parts)
        before = np.cumsum(sep) - sep
        rank[nodes[sep]] = (start + n_left + n_right - before[first])[part[sep]] + before[sep]
        splits.append(np.stack([start, n_left, n_right, size - n_left - n_right], axis=1))

        # the children: left then right of each part, in the order of
        # ``nodes``, which the coordinate sort grouped that way
        start = np.stack([start, start + n_left], axis=1).ravel()
        nodes, part = nodes[~sep], (2 * part + right_side)[~sep]
    return rank, np.concatenate(splits or [np.zeros((0, 4), dtype=np.int64)])


class FeSpace:
    """Conforming vector-valued Lagrange space of degree p on a mesh.

    Scalar dofs sit at vertices, edge lattice points, and (for p=3) face
    barycenters; ``cell_dofs`` maps each tet's reference nodes to global
    scalar dofs with edge nodes oriented by ascending global vertex id.
    ``tables`` keeps the tables that ``assembly`` derives from the space.
    """

    def __init__(self, mesh: Mesh, p: int):
        self.mesh = mesh
        self.p = p
        self.ref_nodes = reference_nodes(p)
        self.tables = {}
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

    @cached_property
    def node_order(self):
        """The scalar nodes in fill-reducing order, the ``nested_dissection``
        of the dof coordinates and the cells, computed once, when first
        read."""
        rank, _ = nested_dissection(self.dof_coords, self.cell_dofs)
        order = np.empty(self.n_scalar_dofs, dtype=np.int64)
        order[rank] = np.arange(self.n_scalar_dofs)
        return order

    def facet_scalar_dofs(self, facets):
        """Global scalar dofs supported on boundary facets: an array for one
        facet index, one row per facet for an array of indices."""
        owners = np.expand_dims(self.mesh.facet_owner[facets], -1)
        return self.cell_dofs[owners, self.facet_dof_slots[facets]]

    def label_nodes(self, label):
        """Sorted scalar dofs lying on all facets with the given label."""
        return np.unique(self.facet_scalar_dofs(self.mesh.facets_with_label(label)))

    def interpolate(self, fn):
        """Nodal interpolation of fn(points (n,3)) -> (n,3) onto the space."""
        vals = np.asarray(fn(self.dof_coords), dtype=float)
        if vals.shape != (self.n_scalar_dofs, 3):
            vals = np.broadcast_to(vals, (self.n_scalar_dofs, 3))
        return vals.reshape(-1).copy()


# -- essential constraints ---------------------------------------------


class DirichletBC:
    """Prescribed displacement vector on all nodes of a tag label: ``value``,
    a constant or a function value(x, t) of points x (n, 3), broadcast to (n, 3)."""

    def __init__(self, value=(0.0, 0.0, 0.0)):
        self.value = value


class SlipBC:
    """Prescribed displacement along the stored outward nodal normal;
    tangential components are traction-free (left unconstrained). The
    normal value, kept as ``value``, is a constant or a function
    normal_value(x, t), broadcast to (n,)."""

    def __init__(self, normal_value=0.0):
        self.value = normal_value


def _row_norms(v):
    """Euclidean norm of each row of v (n, 3), each a dot product, as
    ``np.linalg.norm`` takes the norm of one vector: the reduction over an
    axis sums in another order and rounds differently."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _frame_sum(x, frames):
    """sum_c x[..., c] F[..., c, :] for F = frames, started from 0.0 and
    added in c order: x F for each 3-vector x along x's last axis, with one
    3x3 F per 3-vector by broadcasting. A sparse product with the change
    of basis sums each entry so, and the two are equal bit for bit, signed
    zeros included."""
    return (0.0 + x[..., :1] * frames[..., 0, :] + x[..., 1:2] * frames[..., 1, :]
            + x[..., 2:] * frames[..., 2, :])


class Constraints:
    """Essential constraint bookkeeping for a space.

    Owns the prescribed nodes (``dirichlet_nodes`` and ``slip_nodes``,
    sorted node arrays), the nodal frames (n, t1, t2) of the slip nodes,
    the fixed frame-dof set (sorted), the free frame dofs in the space's
    nested-dissection order (``free``), and the prescribed values. So a
    reduced matrix comes numbered for a fill-reducing factorization.
    Constrained solves work in frame coordinates W with U = R W, where the
    orthogonal change of basis R is the identity except at the slip nodes'
    3x3 blocks, whose columns are their frames. R is never formed:
    ``to_frame`` and ``from_frame`` apply R' and R, to a vector or to each
    row of an array of them, and ``reduce`` forms R'AR, by rotating those
    blocks only, with the one kernel ``_frame_sum``, and splits it into the
    pair (A_ff, A_fx) that its caller holds. ``expand`` joins the free and
    fixed frame values of a solve into Cartesian vectors.
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

    def _build_fixed(self):
        # the three slots of each Dirichlet node, the normal slot of each
        # slip node's frame
        self.fixed = np.sort(np.concatenate([
            (3 * self.dirichlet_nodes[:, None] + np.arange(3)).ravel(), 3 * self.slip_nodes]))

    @cached_property
    def free(self):
        """The free frame dofs in the space's ``node_order``, a node's free
        components together in component order, so a reduced matrix is
        numbered for a fill-reducing factorization. Formed when first read,
        which a space's order is too."""
        dofs = (3 * self.space.node_order[:, None] + np.arange(3)).ravel()
        mask = np.ones(self.space.n_dofs, dtype=bool)
        mask[self.fixed] = False
        return dofs[mask[dofs]]

    # -- values ---------------------------------------------------------

    def _build_targets(self, dirichlet, slip):
        """Per ``spec`` entry that owns nodes in the node owner arrays of
        each kind: (bc, nodes, slots), with the positions in ``fixed`` of
        the nodes' values, (n, 3) for Dirichlet nodes and (n,) for the
        normal slot of slip nodes. The constant BCs' values are filled in
        ``_constant_values`` here, once; only the callable ones are kept in
        ``_targets``, to evaluate per time."""
        self._targets = []
        values = np.zeros(len(self.fixed))
        bcs = list(self.spec.values())
        for owner, offsets in ((dirichlet, np.arange(3)), (slip, 0)):
            for i in np.unique(owner[owner >= 0]):
                nodes = np.nonzero(owner == i)[0]
                first = np.searchsorted(self.fixed, 3 * nodes)
                target = (bcs[i], nodes, np.add.outer(first, offsets))
                if callable(bcs[i].value):
                    self._targets.append(target)
                else:
                    self._fill(values, target, 0.0)
        values.flags.writeable = False
        self._constant_values = values
        self._last = None  # (t, values) of the last time-dependent evaluation

    def _fill(self, out, target, t):
        """Write one (bc, nodes, slots) target's value at time t, evaluated
        at the nodes if callable, broadcast to the slots."""
        bc, nodes, slots = target
        vals = bc.value(self.space.dof_coords[nodes], t) if callable(bc.value) else bc.value
        out[slots] = np.broadcast_to(np.asarray(vals, dtype=float), slots.shape)

    def fixed_values(self, t=0.0):
        """Prescribed displacement values at the fixed frame dofs, as a
        read-only array. When every BC is constant, this is one array for
        every t. Otherwise the values of the last t asked for are kept: a
        march asks for each step's start right after the previous step's
        end, so an n-step march evaluates the callables n + 1 times, not
        2n (the values would be bit-equal without this, too)."""
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
        slip node becomes ``_frame_sum(x, frames[k])``; each row of a 2-D v
        is rotated so."""
        out = np.ascontiguousarray(v) + 0.0  # C order, so reshape gives a view
        blocks = v.shape[:-1] + (self.space.n_scalar_dofs, 3)
        out.reshape(blocks)[..., self.slip_nodes, :] = _frame_sum(
            v.reshape(blocks)[..., self.slip_nodes, :], frames)
        return out

    def to_frame(self, u):
        """R'u, a new vector: each slip node's block in its frame's
        coordinates (n, t1, t2)."""
        return self._rotate_blocks(u, self.slip_frames)

    def from_frame(self, w):
        """R w, a new vector: each slip node's block, given in its frame's
        coordinates, back in Cartesian ones."""
        return self._rotate_blocks(w, self.slip_frames.transpose(0, 2, 1))

    def expand(self, free_values, fixed_values):
        """R w of the frame vector w that holds ``free_values`` at the free
        dofs and ``fixed_values`` at the fixed ones; of 2-D values, one
        vector per row."""
        w = np.zeros(free_values.shape[:-1] + (self.space.n_dofs,))
        w[..., self.free] = free_values
        w[..., self.fixed] = fixed_values
        return self.from_frame(w)

    def _rotate_matrix(self, matrix):
        """R'AR of the matrix A as CSR. Only the slip nodes' 3-blocks are
        rotated: a block B of their block rows becomes F'B, then a block B
        of their block columns BF. The result equals the sparse products
        R'AR bit for bit, in their index order too, and like them it drops
        exact zeros. A method of its own, so the block copy is freed before
        ``reduce`` splits."""
        a = matrix.tobsr(blocksize=(3, 3), copy=True)
        slot = np.full(self.space.n_scalar_dofs, -1)
        slot[self.slip_nodes] = np.arange(len(self.slip_nodes))
        block_row = slot[np.repeat(np.arange(len(a.indptr) - 1), np.diff(a.indptr))]
        block_col = slot[a.indices]
        blocks, frames = a.data, self.slip_frames
        on = block_row >= 0  # F'B = (B'F)'
        blocks[on] = _frame_sum(blocks[on].transpose(0, 2, 1),
                                frames[block_row[on], None]).transpose(0, 2, 1)
        on = block_col >= 0
        blocks[on] = _frame_sum(blocks[on], frames[block_col[on], None])
        a = a.tocsr()
        a.eliminate_zeros()
        return a

    def reduce(self, matrix):
        """Symmetric elimination: rotate to frame coordinates and split
        into (A_ff, A_fx), the free-free and free-fixed blocks, both CSR."""
        a = self._rotate_matrix(matrix) if len(self.slip_nodes) else matrix.tocsr()
        rows = a[self.free]
        return rows[:, self.free].tocsr(), rows[:, self.fixed].tocsr()

    def reduced_rhs(self, rhs, coupling, fixed_values):
        """The free part of R'rhs, less the ``coupling`` block A_fx times
        the fixed frame values."""
        b = self.to_frame(rhs)[self.free]
        # with all values zero, b - A 0 would equal b bit for bit
        if np.any(fixed_values):
            b = b - coupling @ fixed_values
        return b

    def solve(self, matrix, rhs, fixed_values, solver):
        """The full vector solving ``matrix`` under the constraints, given
        a global rhs and the fixed frame values, by one solve of A_ff."""
        a_ff, a_fx = self.reduce(matrix)
        b = self.reduced_rhs(rhs, a_fx, fixed_values)
        return self.expand(solver.solve(a_ff, b), fixed_values)

