"""Assembly of the weak-form operators and load functionals.

Operators are scipy CSR matrices over interleaved vector dofs
(3*node + component):

* mass         M  : w'Mv  = rho * integral(w . v)
* elastic      K_E: w'Kv  = integral(2*mu*eps(w):eps(v) + lam*div(w)*div(v))
* deviatoric   D  : w'Dv  = integral(dev(w):dev(v))
                  = integral(eps:eps - div*div/3)

K_E = mu*S + lam*V and D = S/2 - V/3 combine the unit kernels
S = integral(2*eps:eps) and V = integral(div*div); arm m acts through
kappa_m*D. The elements are affine, so each element integral is a
reference integral, formed once with the form rule, times the element's
Jacobian terms: M's element matrix is rho*det*M_ref, and the 3x3 blocks of
K_E and D are one matrix product of the elements' Jacobian products by the
reference tensor. The operators sit on a node-pair pattern, built once
per space, which keeps the node pair of each element entry (i, j); each
chunk's 3x3 blocks are added, in element order, into the CSR data of
their node pairs. K_E and D share one pattern. M couples only equal
components: it stores the scalar mass of each node pair at the entries
(3i + a, 3j + a) alone, on its own pattern of a third as many entries.

Element loops run over chunks of elements. Per element only the inverse
Jacobian and the Jacobian determinant are kept, once per space; basis
gradients, quadrature points and weights, element matrices and stresses
are formed one chunk at a time, so set-up memory grows with the elements,
not with the quadrature points.
The quadrature is fixed by the space: exactness 2p (``form_degree``) for
the bilinear forms and 2p+2 (``load_degree``) for loads and error
integrals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import FeSpace, quadrature, reference_basis, triangle_quadrature
from .mesh import BoundaryKind

# elements per chunk of an element loop, which bounds its temporaries on
# fine meshes: at 27 quadrature points per element (P1 loads) a chunk
# evaluates a field on 110,592 points, where a whole h = 1/32 cube (196,608
# elements) needs 5.3 million
ELEMENT_CHUNK = 4096
# bytes of one element-matrix array per chunk of operator assembly, which
# holds a few such arrays at once: 291 elements at P2, 1,820 at P1
OPERATOR_CHUNK_BYTES = 2**21


def _chunks(n, element_bytes=0):
    """Slices covering range(n) of at most ``ELEMENT_CHUNK`` elements, and
    of at most ``OPERATOR_CHUNK_BYTES // element_bytes`` (at least one)
    when ``element_bytes`` is given."""
    size = ELEMENT_CHUNK
    if element_bytes:
        size = max(1, min(size, OPERATOR_CHUNK_BYTES // element_bytes))
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _vector_dofs(cell_dofs):
    """Interleaved vector dofs 3*node + component of each cell's nodes."""
    return (3 * cell_dofs[:, :, None] + np.arange(3)).reshape(len(cell_dofs), -1)


def _physical_gradients(dN, jinv):
    """G[e,q,n,a] = sum_i dN[(e,)q,n,i] * Jinv[e,i,a] as one batched matmul,
    from reference gradients dN (nq, n, 3), shared by every element, or
    (ne, nq, n, 3), one table per element."""
    flat = dN.reshape(dN.shape[:-3] + (-1, 3))
    return (flat @ jinv).reshape((len(jinv),) + dN.shape[-3:])


def _evaluate_field(table, cell_values):
    """A field at quadrature points from its values on each cell's nodes,
    cell_values (ne, n, 3): values sum_n N[(e,)q,n] u[e,n,a] from a basis
    table N, (nq, n) shared by every cell or (ne, nq, n), and gradients
    sum_n G[e,q,n,i] u[e,n,a] = d u_a / d x_i from G (ne, nq, n, 3).

    Batched matmuls, not ``einsum(..., optimize=True)``: that sends the
    values to one threaded GEMM, which on a 2-vCPU host took 50 times as
    long as the matmul unless BLAS is pinned to one thread."""
    if np.ndim(table) == 4:
        return np.swapaxes(cell_values, 1, 2)[:, None] @ table
    return table @ cell_values


def form_degree(space):
    return 2 * space.p


def load_degree(space):
    return 2 * space.p + 2


@dataclass
class LoadSpec:
    """Time-dependent body force [N/m^3] and boundary traction [Pa], the
    traction acting on every Neumann-tagged facet, in time-separable form:
    ``body_terms`` of pairs (c(t), F(x)) and ``traction_terms`` of pairs
    (c(t), G(x, normal)), meaning f = sum_j c_j(t) F_j(x) and
    g = sum_j c_j(t) G_j(x, normal).

    The spatial vector of each F_j and G_j is assembled once per (space,
    field) by ``load_vectors`` and kept in ``space.tables`` under the field
    object, so a field should keep its identity across calls (a function
    or a bound method, not a fresh lambda); only the scalars c_j are
    evaluated per time. Give one term per distinct spatial field, with the
    coefficients summed: a body field repeated in one call is assembled
    once per term. A load that is not a finite sum of such terms cannot be
    expressed.
    """

    body_terms: tuple = ()
    traction_terms: tuple = ()


def element_geometry(space: FeSpace):
    """(jinv, det) of every element of the space: inverse Jacobians
    (ne, 3, 3) and Jacobian determinants (ne,), kept in ``space.tables``
    and shared by every volume and facet quadrature."""

    def build():
        v = space.mesh.vertices[space.mesh.tets]  # (ne,4,3)
        jac = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # J[a,i] = dx_a/dxi_i
        return _read_only(np.linalg.inv(jac)), _read_only(np.linalg.det(jac))

    return _cached(space, ("geometry",), build)


class VolumeData:
    """Volume quadrature of one degree. It keeps the rule, the reference
    basis values ``N`` and gradients ``dN``, and per element only the
    space's ``element_geometry``; basis gradients, quadrature points and
    weights are formed for one chunk of elements (a slice, by default the
    whole mesh) when asked for, a chunk at a time over ``chunks()``."""

    def __init__(self, space: FeSpace, degree: int):
        self.space = space
        self.rule = quadrature(degree)
        self.N, self.dN = reference_basis(space.p, self.rule.points)
        self.jinv, self.det = element_geometry(space)

    def chunks(self):
        return _chunks(len(self.det))

    def weights(self, chunk=slice(None)):
        """Quadrature weights times Jacobian determinants, (nc, nq)."""
        return self.rule.weights[None, :] * self.det[chunk, None]

    def points(self, chunk=slice(None)):
        """Physical quadrature points, (nc, nq, 3)."""
        mesh = self.space.mesh
        return self.rule.points @ mesh.vertices[mesh.tets[chunk]]

    def basis_gradients(self, chunk=slice(None)):
        """G[e,q,n,i] = d N_n / d x_i, (nc, nq, nloc, 3)."""
        return _physical_gradients(self.dN, self.jinv[chunk])

    # -- discrete field evaluation at the quadrature points ------------

    def cell_values(self, u, chunk=slice(None)):
        return u.reshape(-1, 3)[self.space.cell_dofs[chunk]]  # (nc, nloc, 3)

    def value(self, u, chunk=slice(None)):
        return _evaluate_field(self.N, self.cell_values(u, chunk))


class FacetData:
    """Facet quadrature tables of one degree for a set of boundary facets:
    the owners' basis values ``N`` and physical gradients ``G``, the
    ``points``, and the mesh's unit ``normals`` and weights times twice the
    area ``warea``. The basis is evaluated in one call, once per distinct
    placement of a facet in its owner (``space.facet_local``)."""

    def __init__(self, space: FeSpace, degree: int, facets):
        self.facets = np.asarray(facets, dtype=np.int64)
        rule = triangle_quadrature(degree)
        mesh = space.mesh
        nq, nloc = len(rule.weights), len(space.ref_nodes)
        placements, placement = np.unique(space.facet_local[self.facets], axis=0,
                                          return_inverse=True)
        # the triangle's barycentric points in the owner's, per placement
        bar = np.zeros((len(placements), nq, 4))
        np.put_along_axis(bar, placements[:, None, :], rule.points, axis=2)
        vals, grads = reference_basis(space.p, bar.reshape(-1, 4))
        self.N = vals.reshape(len(placements), nq, nloc)[placement]
        dn_ref = grads.reshape(len(placements), nq, nloc, 3)[placement]
        owners = mesh.facet_owner[self.facets]
        # physical basis gradients of the owner element at the facet points
        self.G = _physical_gradients(dn_ref, element_geometry(space)[0][owners])
        self.points = rule.points @ mesh.vertices[mesh.boundary_facets[self.facets]]
        self.normals = mesh.facet_normals()[self.facets]
        # reference weights sum to 1/2; physical scale factor is 2*area
        self.warea = rule.weights[None, :] * (2.0 * mesh.facet_areas()[self.facets])[:, None]
        self.cell_dofs = space.cell_dofs[owners]
        self.vdofs = _vector_dofs(self.cell_dofs)


def _cached(space, key, build):
    """build(), computed once per (space, key) and kept in ``space.tables``."""
    if key not in space.tables:
        space.tables[key] = build()
    return space.tables[key]


def volume_data(space: FeSpace, degree=None) -> VolumeData:
    degree = form_degree(space) if degree is None else int(degree)
    return _cached(space, ("vol", degree), lambda: VolumeData(space, degree))


def facet_data(space: FeSpace, degree=None, label=None) -> FacetData:
    """Facet quadrature of ``degree`` (default ``load_degree``) on the
    facets tagged ``label``, or on every Neumann-tagged facet for None."""
    degree = load_degree(space) if degree is None else int(degree)

    def build():
        if label is None:
            facets = space.mesh.facets_with_kind(BoundaryKind.NEUMANN)
        else:
            facets = space.mesh.facets_with_label(label)
        return FacetData(space, degree, facets)

    return _cached(space, ("facet", degree, label), build)


def _read_only(vec):
    vec.flags.writeable = False
    return vec


class Pattern:
    """CSR sparsity patterns of the element-to-element dof couplings of a
    space, built once per space: ``indptr`` and ``indices`` couple every
    component pair of two nodes (3i + a, 3j + b), shared by every vector
    operator; ``mass_indptr`` and ``mass_indices`` only the entries
    (3i + a, 3j + a), shared by every mass. All arrays are read-only and
    in one index dtype.

    The node pairs s = (i, c) are sorted, row i holding rowlen[i] of them
    from sptr[i]. The mass pattern stores entry (a, a) of pair s at slot
    3 sptr[i] + a rowlen[i] + s - sptr[i], column 3c + a, so the pair's
    entry a = 0 is at m = 2 sptr[i] + s, which ``mass_source`` gives for
    every mass slot. The vector pattern, in the order a sort of the vector
    dof pairs gives, stores entry (a, b) at 3 m + a stride[i] + b, column
    3c + b, with stride[i] = 3 rowlen[i]. ``pair`` (ne, nloc*nloc) holds m
    of each element entry (i, j), in C order, and ``stride`` (ne, nloc)
    the stride of each element node."""

    def __init__(self, space: FeSpace):
        cd = space.cell_dofs
        ne, nloc = cd.shape
        ns = space.n_scalar_dofs
        keys, pair = np.unique((cd[:, :, None] * ns + cd[:, None, :]).ravel(),
                               return_inverse=True)
        n_pairs = len(keys)
        n, nnz = 3 * ns, 9 * n_pairs
        index = np.int32 if max(n, nnz) < 2**31 else np.int64
        sptr = np.searchsorted(keys, np.arange(ns + 1) * ns)
        rowlen = np.diff(sptr)
        # the mass slots in order, row i, then component a, then pair s
        row = np.repeat(np.arange(ns), 3 * rowlen)
        slot = np.arange(3 * n_pairs)
        comp = (slot - 3 * sptr[row]) // rowlen[row]
        source = slot - comp * rowlen[row]
        column = (3 * (keys % ns)[source - 2 * sptr[row]]).astype(index)
        del row, slot
        self.mass_source = _read_only(source.astype(index))
        self.mass_indices = _read_only(column + comp.astype(index))
        self.indices = _read_only((column[:, None] + np.arange(3, dtype=index)).ravel())
        del source, column, comp
        start = 3 * sptr[:-1, None] + rowlen[:, None] * np.arange(3)  # (ns, a)
        self.mass_indptr = _read_only(np.append(start, 3 * n_pairs).astype(index))
        self.indptr = _read_only(np.append(3 * start, nnz).astype(index))
        mass_slot = (2 * sptr[keys // ns] + np.arange(n_pairs)).astype(index)
        del keys
        self.pair = _read_only(mass_slot[pair].reshape(ne, nloc * nloc))
        self.stride = _read_only((3 * rowlen).astype(index)[cd])
        self.shape = (n, n)

    def assemble(self, element_blocks, mass=False):
        """CSR matrices, one per array that ``element_blocks(chunk)``
        returns for a slice of elements: the 3x3 block of each element
        entry (i, j), (nc, 9, nloc*nloc) as [e, 3a + b, nloc*i + j], on
        the vector pattern, or with ``mass`` a scalar (nc, nloc*nloc),
        stored at each entry (a, a), on the mass pattern. The chunks hold
        at most ``OPERATOR_CHUNK_BYTES`` per array, each added into the
        data slot by slot in element order, the order of a sum over all
        elements at once: the data, and the exact zeros where
        contributions cancel, do not depend on the chunks."""
        ne, nloc = self.stride.shape
        comp = np.arange(3)
        sums = None
        for chunk in _chunks(ne, 8 * (1 if mass else 9) * nloc * nloc):
            arrays = element_blocks(chunk)
            if sums is None:
                sums = [np.zeros(len(self.mass_indices if mass else self.indices)) for _ in arrays]
            slot = self.pair[chunk].astype(np.intp)
            if not mass:
                # entry (a, b) of each block, (nc, a, b, i, j)
                row = comp[:, None] * self.stride[chunk, None, :]  # (nc, a, i)
                slot = 3 * slot.reshape(-1, 1, nloc, nloc) + row[..., None]
                slot = slot[:, :, None] + comp[:, None, None]
            for out, blocks in zip(sums, arrays):
                np.add.at(out, slot.ravel(), blocks.ravel())
        if mass:
            return [sp.csr_matrix((np.take(s, self.mass_source), self.mass_indices,
                                   self.mass_indptr), shape=self.shape) for s in sums]
        return [sp.csr_matrix((s, self.indices, self.indptr), shape=self.shape) for s in sums]


def pattern(space: FeSpace) -> Pattern:
    return _cached(space, ("pattern",), lambda: Pattern(space))


def assemble_mass(space: FeSpace, rho):
    """Vector mass matrix with density rho, on the space's mass pattern:
    it couples only equal components, each by the scalar mass
    rho det_e M_ref of the reference mass M_ref."""
    if rho <= 0:
        raise ValueError("density must be positive")
    vd = volume_data(space)
    # M_ref[i, j] = integral of N_i N_j, exact under the form rule
    ref = ((vd.rule.weights[:, None] * vd.N).T @ vd.N).ravel()

    def element_blocks(chunk):
        return ((rho * vd.det[chunk])[:, None] * ref,)

    (mass,) = pattern(space).assemble(element_blocks, mass=True)
    return mass


def assemble_strain_operators(space: FeSpace, mu, lam):
    """(K_E, D) = (mu*S + lam*V, S/2 - V/3) on the space's ``pattern``,
    from the unit kernels S = integral(2*eps:eps) and V = integral(div*div),
    formed and added into both operators one chunk of elements at a time.

    On an affine element, integral(d_a N_i d_b N_j) = P[a, b] . R[i, j] over
    (r, s), with P[a, b, r, s] = det Jinv[r, a] Jinv[s, b] and R the
    reference integral of d_r N_i d_s N_j. So block (a, b) of entry (i, j)
    is V = P[a, b] . R and S = P[a, b] . R' + delta_ab tr(P) . R, R' being R
    with r, s swapped: the blocks of each operator are one matrix product of
    the elements' 9 x 9 matrices P by a combination of R and R'.

    The kernels are combined per element, before the scatter, so that an
    entry whose element contributions cancel sums to an exact zero, which a
    sparse sum of the operators drops; combining the scattered kernels
    instead leaves rounding residues there that grow the LU factor."""
    vd = volume_data(space)
    nn = vd.N.shape[1] ** 2
    # R[r, s, i, j], exact under the form rule, and R with r, s swapped
    ref = np.einsum("q,qir,qjs->rsij", vd.rule.weights, vd.dN, vd.dN).reshape(3, 3, nn)
    swapped = np.swapaxes(ref, 0, 1).reshape(9, nn)
    ref = ref.reshape(9, nn)
    kernels = ((mu * swapped + lam * ref, mu), (0.5 * swapped - ref / 3.0, 0.5))

    def element_blocks(chunk):
        jt = np.swapaxes(vd.jinv[chunk], 1, 2)  # jt[e, a, r] = Jinv[e, r, a]
        scaled = vd.det[chunk, None, None] * jt
        prod = (scaled[:, :, None, :, None] * jt[:, None, :, None, :]).reshape(-1, 9)
        trace = (np.swapaxes(scaled, 1, 2) @ jt).reshape(-1, 9) @ ref  # (nc, nn)
        blocks = []
        for kernel, diagonal in kernels:
            out = (prod @ kernel).reshape(len(jt), 9, nn)
            out[:, ::4] += diagonal * trace[:, None]  # the entries (a, a)
            blocks.append(out)
        return blocks

    return tuple(pattern(space).assemble(element_blocks))


def assemble_volume_load(space: FeSpace, fields):
    """[(F, v) for F in fields] of body-force fields F(x)->(n,3). The fields
    are evaluated ``ELEMENT_CHUNK`` elements at a time, so the memory their
    evaluation takes stays bounded on fine meshes, and one after another
    on the same points, so fields derived from one evaluation can share
    it. A field that is a method of an object keeping that shared work
    (``release_points``, as ``verify.ManufacturedSolution`` has) has the
    object release it when the pass ends."""
    vd = volume_data(space, load_degree(space))
    out = [np.zeros(space.n_dofs) for _ in fields]
    for chunk in vd.chunks():
        points, wdet = vd.points(chunk), vd.weights(chunk)
        vdofs = _vector_dofs(space.cell_dofs[chunk])
        x = points.reshape(-1, 3)
        for vec, field in zip(out, fields):
            f = np.asarray(field(x), dtype=float).reshape(points.shape)
            contrib = vd.N.T @ (wdet[..., None] * f)
            np.add.at(vec, vdofs, contrib.reshape(len(contrib), -1))
    for field in fields:
        release = getattr(getattr(field, "__self__", None), "release_points", None)
        if release is not None:
            release()
    return out


def assemble_traction_load(space: FeSpace, field):
    """(G, v)_Gamma_N of a traction field G(x, normal)->(n,3) on the
    Neumann-tagged facets."""
    out = np.zeros(space.n_dofs)
    fd = facet_data(space)
    if len(fd.facets) == 0:
        return out
    nrm = np.repeat(fd.normals, fd.points.shape[1], axis=0)
    g = np.asarray(field(fd.points.reshape(-1, 3), nrm), dtype=float)
    contrib = np.swapaxes(fd.N, 1, 2) @ (fd.warea[..., None] * g.reshape(fd.points.shape))
    np.add.at(out, fd.vdofs, contrib.reshape(len(contrib), -1))
    return out


def load_vectors(space: FeSpace, loads: LoadSpec):
    """(body, traction): the spatial vectors (F_j, v) and (G_j, v)_Gamma_N
    of the terms of ``loads``, one per term in term order, each assembled
    once per (space, field) and kept read-only in ``space.tables``. The
    body fields not yet kept are assembled in one pass."""
    tables = space.tables
    fields = [field for _, field in loads.body_terms]
    missing = [field for field in fields if ("body_term", field) not in tables]
    if missing:
        for field, vec in zip(missing, assemble_volume_load(space, missing)):
            tables[("body_term", field)] = _read_only(vec)
    traction = [_cached(space, ("traction_term", field),
                        lambda field=field: _read_only(assemble_traction_load(space, field)))
                for _, field in loads.traction_terms]
    return [tables[("body_term", field)] for field in fields], traction


# -- stress evaluation ----------------------------------------------------


def stress_from_gradients(grad_u0, grad_ve, mu, lam):
    """Total stress sigma_E(u0) + dev eps(w) from the gradients, laid out
    [..., a, i] = d u_a / d x_i, of the displacement u0 and of the field
    w = sum_m kappa_m uve_m: dev eps(w) = sum_m kappa_m dev eps(uve_m)."""
    eps = 0.5 * (grad_u0 + np.swapaxes(grad_u0, -1, -2))
    tr = np.trace(eps, axis1=-2, axis2=-1)
    sigma = 2.0 * mu * eps
    idx = np.arange(3)
    sigma[..., idx, idx] += lam * tr[..., None]
    dev = 0.5 * (grad_ve + np.swapaxes(grad_ve, -1, -2))
    dev[..., idx, idx] -= np.trace(dev, axis1=-2, axis2=-1)[..., None] / 3.0
    return sigma + dev


def surface_strain_maps(space: FeSpace, label):
    """(nodes, normal, div) of the facets tagged ``label``: their sorted
    scalar dofs, and two sparse maps from a displacement u to each node's
    area-weighted mean, over its facets, of the facet means of the normal
    strain n.eps(u).n and of div u, taken from the owning elements at the
    facet quadrature of degree 2p. Kept in ``space.tables`` per label."""

    def build():
        fd = facet_data(space, degree=2 * space.p, label=label)
        areas = fd.warea.sum(axis=1)
        # facet means of the basis gradients d N_i / d x_a, (nf, nloc, 3)
        grad = np.einsum("fq,fqia->fia", fd.warea / areas[:, None], fd.G)
        normal = (grad @ fd.normals[:, :, None]) * fd.normals[:, None, :]
        facet_nodes = space.facet_scalar_dofs(fd.facets)
        nf, k = facet_nodes.shape
        nodes, node = np.unique(facet_nodes.ravel(), return_inverse=True)
        average = sp.csr_matrix((np.repeat(areas, k), (node, np.repeat(np.arange(nf), k))),
                                shape=(len(nodes), nf))
        average = sp.diags(1.0 / average.sum(axis=1).A1) @ average
        rows, cols = np.repeat(np.arange(nf), fd.vdofs.shape[1]), fd.vdofs.ravel()

        def node_map(values):
            return average @ sp.csr_matrix((values.ravel(), (rows, cols)), (nf, space.n_dofs))

        return nodes, node_map(normal), node_map(grad)

    return _cached(space, ("surface_strain", label), build)


def recover_nodal_stress(space: FeSpace, material, u0, uve):
    """Elementwise stress averaged to the scalar dofs (one 3x3 per node),
    formed one chunk of elements at a time, from the displacement and the
    internal fields, an (M, n) array or a sequence of M rows."""
    nodes = np.array([np.array(a) / space.p for a in space.ref_nodes])
    _, dN = reference_basis(space.p, nodes)
    jinv, _ = element_geometry(space)
    weighted = material.kappa @ np.reshape(uve, (-1, len(u0)))
    out = np.zeros((space.n_scalar_dofs, 3, 3))
    for chunk in _chunks(len(jinv)):
        G = _physical_gradients(dN, jinv[chunk])
        cd = space.cell_dofs[chunk]
        grad_u0, grad_ve = (_evaluate_field(G, u.reshape(-1, 3)[cd]) for u in (u0, weighted))
        np.add.at(out, cd, stress_from_gradients(grad_u0, grad_ve, material.mu, material.lam))
    count = np.bincount(space.cell_dofs.ravel(), minlength=space.n_scalar_dofs)
    return out / count[:, None, None]


def von_mises(sigma):
    """Von Mises equivalent stress of (..., 3, 3) stress tensors."""
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    dev = sigma.copy()
    idx = np.arange(3)
    dev[..., idx, idx] -= tr[..., None] / 3.0
    return np.sqrt(1.5 * np.sum(dev * dev, axis=(-2, -1)))
