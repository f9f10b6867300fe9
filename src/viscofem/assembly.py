"""Assembly of the weak-form operators and load functionals.

Operators are scipy CSR matrices over interleaved vector dofs
(3*node + component):

* mass         M  : w'Mv  = rho * integral(w . v)
* elastic      K_E: w'Kv  = integral(2*mu*eps(w):eps(v) + lam*div(w)*div(v))
* deviatoric   D  : w'Dv  = integral(dev(w):dev(v))
                  = integral(eps:eps - div*div/3)

K_E = mu*S + lam*V and D = S/2 - V/3 combine the unit kernels
S = integral(2*eps:eps) and V = integral(div*div); arm m acts through
kappa_m*D. All three matrices share one CSR sparsity pattern, built once
per space with a map from element-matrix entries to data slots, so each
operator is one ``np.bincount`` of its element matrices.

Element loops are vectorized over all tets at once; reference basis
tables and element geometry are cached per (space, quadrature degree).
Default quadrature exactness is 2p for the bilinear forms and 2p+2 for
loads and error integrals.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import FeSpace, quadrature, reference_basis, triangle_quadrature
from .mesh import BoundaryKind

_space_caches = weakref.WeakKeyDictionary()

# elements per batch of a volume load's field evaluation: at 27 quadrature
# points per element (P1 loads) a batch evaluates the field on 110,592
# points, where a whole h = 1/32 cube (196,608 elements) needs 5.3 million
VOLUME_LOAD_CHUNK = 4096


def form_degree(space):
    return 2 * space.p


def load_degree(space):
    return 2 * space.p + 2


@dataclass
class LoadSpec:
    """Time-dependent body force [N/m^3] and boundary traction [Pa]
    applied on the given tag labels (default: all Neumann-tagged facets),
    in time-separable form: ``body_terms`` of pairs (c(t), F(x)) and
    ``traction_terms`` of pairs (c(t), G(x, normal)), meaning
    f = sum_j c_j(t) F_j(x) and g = sum_j c_j(t) G_j(x, normal).

    The spatial vector of each F_j and G_j is assembled once per (space,
    quadrature degree, labels) and cached under the field object, so a
    field should keep its identity across calls (a function or a bound
    method, not a fresh lambda); only the scalars c_j are evaluated per
    time. A load that is not a finite sum of such terms cannot be
    expressed.
    """

    traction_labels: tuple = None
    body_terms: tuple = ()
    traction_terms: tuple = ()


class VolumeData:
    """Cached geometry and basis tables for one quadrature degree."""

    def __init__(self, space: FeSpace, degree: int):
        self.space = space
        self.rule = quadrature(degree)
        self.N, dN = reference_basis(space.p, self.rule.points)
        v = space.mesh.vertices[space.mesh.tets]  # (ne,4,3)
        jac = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # J[a,i] = dx_a/dxi_i
        det = np.linalg.det(jac)
        jinv = np.linalg.inv(jac)
        self.det = det
        # physical gradients: G[e,q,n,a] = sum_i dN[q,n,i] * Jinv[e,i,a]
        self.G = np.einsum("qni,eia->eqna", dN, jinv)
        self.wdet = self.rule.weights[None, :] * (det[:, None])
        self.points = np.einsum("qv,eva->eqa", self.rule.points, v)
        cd = space.cell_dofs
        self.vdofs = (3 * cd[:, :, None] + np.arange(3)).reshape(len(cd), -1)

    # -- discrete field evaluation at the quadrature points ------------

    def cell_values(self, u):
        return u.reshape(-1, 3)[self.space.cell_dofs]  # (ne, nloc, 3)

    def value(self, u):
        return np.einsum("qn,ena->eqa", self.N, self.cell_values(u))

    def gradient(self, u):
        """grad[e,q,a,i] = d u_a / d x_i."""
        return np.einsum("eqni,ena->eqai", self.G, self.cell_values(u))

    def integrate(self, density):
        """Integrate a (ne, nq) density over the mesh."""
        return float(np.sum(self.wdet * density))


class FacetData:
    """Cached facet quadrature tables for a set of boundary facets."""

    def __init__(self, space: FeSpace, degree: int, facets):
        self.space = space
        self.facets = np.asarray(facets, dtype=np.int64)
        rule = triangle_quadrature(degree)
        mesh = space.mesh
        nq = len(rule.weights)
        nloc = len(space.ref_nodes)
        self.N = np.empty((len(self.facets), nq, nloc))
        dn_ref = np.empty((len(self.facets), nq, nloc, 3))
        # group facets by local-slot signature: only a handful of distinct
        # barycentric embeddings exist, evaluate the basis once per group
        sig = {}
        for i, f in enumerate(self.facets):
            sig.setdefault(tuple(space.facet_local[f]), []).append(i)
        for key, idxs in sig.items():
            bar = space.facet_barycentric_in_owner(self.facets[idxs[0]], rule.points)
            vals, grads = reference_basis(space.p, bar)
            self.N[idxs] = vals
            dn_ref[idxs] = grads
        owners_all = mesh.facet_owner[self.facets]
        vo = mesh.vertices[mesh.tets[owners_all]]
        jinv = np.linalg.inv((vo[:, 1:] - vo[:, :1]).transpose(0, 2, 1))
        # physical basis gradients of the owner element at the facet points
        self.G = np.einsum("fqni,fia->fqna", dn_ref, jinv)
        tri = mesh.vertices[mesh.boundary_facets[self.facets]]
        self.points = np.einsum("qv,fva->fqa", rule.points, tri)
        cr = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        areas = 0.5 * np.linalg.norm(cr, axis=1)
        self.normals = cr / (2.0 * areas)[:, None]
        # reference weights sum to 1/2; physical scale factor is 2*area
        self.warea = rule.weights[None, :] * (2.0 * areas)[:, None]
        owners = mesh.facet_owner[self.facets]
        self.cell_dofs = space.cell_dofs[owners]
        cd = self.cell_dofs
        self.vdofs = (3 * cd[:, :, None] + np.arange(3)).reshape(len(cd), -1)

    def value(self, u):
        return np.einsum("fqn,fna->fqa", self.N, u.reshape(-1, 3)[self.cell_dofs])

    def gradient(self, u):
        """grad[f,q,a,i] = d u_a / d x_i at the facet quadrature points,
        taken from the owning element."""
        return np.einsum(
            "fqni,fna->fqai", self.G, u.reshape(-1, 3)[self.cell_dofs]
        )


def _cached(space, key, build):
    """build(), computed once per (space, key) and kept while the space
    lives."""
    cache = _space_caches.setdefault(space, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def volume_data(space: FeSpace, degree=None) -> VolumeData:
    degree = form_degree(space) if degree is None else int(degree)
    return _cached(space, ("vol", degree), lambda: VolumeData(space, degree))


def _label_key(labels):
    """Hashable form of a traction label selection; None selects every
    Neumann-tagged facet."""
    if labels is None:
        return ("<neumann>",)
    return (labels,) if isinstance(labels, str) else tuple(labels)


def facet_data(space: FeSpace, degree=None, labels=None) -> FacetData:
    degree = load_degree(space) if degree is None else int(degree)
    key_labels = _label_key(labels)

    def build():
        if labels is None:
            facets = space.mesh.facets_with_kind(BoundaryKind.NEUMANN)
        elif key_labels:
            facets = np.concatenate(
                [space.mesh.facets_with_label(lb) for lb in key_labels]
            )
        else:
            facets = np.array([], dtype=np.int64)
        return FacetData(space, degree, facets)

    return _cached(space, ("facet", degree, key_labels), build)


def _read_only(vec):
    vec.flags.writeable = False
    return vec


class Pattern:
    """CSR sparsity pattern of the element-to-element dof couplings of a
    space, with ``slot`` mapping each entry of an (ne, nld, nld) element
    matrix array, in C order, to its data slot: an operator's data is
    ``np.bincount(slot, weights)``. Built once per space; every operator
    shares its read-only ``indptr`` and ``indices``."""

    def __init__(self, space: FeSpace):
        cd = space.cell_dofs
        vdofs = (3 * cd[:, :, None] + np.arange(3)).reshape(len(cd), -1)
        n, nld = space.n_dofs, vdofs.shape[1]
        keys = (np.repeat(vdofs, nld, axis=1) * n + np.tile(vdofs, (1, nld))).ravel()
        keys, self.slot = np.unique(keys, return_inverse=True)
        index = np.int32 if max(n, len(keys)) < 2**31 else np.int64
        self.indices = _read_only((keys % n).astype(index))
        self.indptr = _read_only(
            np.searchsorted(keys, np.arange(n + 1) * n).astype(index)
        )
        self.shape = (n, n)

    def scatter(self, dense):
        """CSR matrix of the element matrices ``dense`` (ne, nld, nld),
        duplicates summed in element order."""
        data = np.bincount(self.slot, weights=dense.ravel(), minlength=len(self.indices))
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def pattern(space: FeSpace) -> Pattern:
    return _cached(space, ("pattern",), lambda: Pattern(space))


def assemble_mass(space: FeSpace, rho, degree=None):
    """Vector mass matrix with density rho."""
    if rho <= 0:
        raise ValueError("density must be positive")
    vd = volume_data(space, degree)
    nn = np.einsum("eq,qi,qj->eij", vd.wdet, vd.N, vd.N)
    dense = rho * np.einsum("eij,ab->eiajb", nn, np.eye(3))
    nld = 3 * nn.shape[1]
    return pattern(space).scatter(dense.reshape(-1, nld, nld))


def assemble_strain_operators(space: FeSpace, mu, lam, degree=None):
    """(K_E, D) = (mu*S + lam*V, S/2 - V/3) on the space's ``pattern``,
    from the unit kernels S = integral(2*eps:eps) and
    V = integral(div*div) of one pass over the element gradients.

    The kernels are combined per element, before the scatter, so that an
    entry whose element contributions cancel sums to an exact zero, which a
    sparse sum of the operators drops; combining the scattered kernels
    instead leaves rounding residues there that grow the LU factor."""
    vd = volume_data(space, degree)
    gw = vd.G * vd.wdet[:, :, None, None]
    gg = np.einsum("eqik,eqjk->eij", gw, vd.G)
    strain = np.einsum("eqja,eqib->eiajb", gw, vd.G)
    strain += np.einsum("eij,ab->eiajb", gg, np.eye(3))
    div = np.einsum("eqia,eqjb->eiajb", gw, vd.G)
    shape = (len(gg), 3 * gg.shape[1], 3 * gg.shape[1])
    scatter = pattern(space).scatter
    elastic = scatter((mu * strain + lam * div).reshape(shape))
    deviatoric = scatter((0.5 * strain - div / 3.0).reshape(shape))
    return elastic, deviatoric


def assemble_volume_load(space: FeSpace, field, degree=None):
    """(F, v) of a body-force field F(x)->(n,3): the field is evaluated
    and scattered ``VOLUME_LOAD_CHUNK`` elements at a time, so the memory
    its evaluation takes stays bounded on fine meshes."""
    vd = volume_data(space, degree if degree is not None else load_degree(space))
    out = np.zeros(space.n_dofs)
    for start in range(0, len(vd.points), VOLUME_LOAD_CHUNK):
        chunk = slice(start, start + VOLUME_LOAD_CHUNK)
        points = vd.points[chunk]
        f = np.asarray(field(points.reshape(-1, 3)), dtype=float)
        f = f.reshape(points.shape)
        contrib = np.einsum("eq,qn,eqa->ena", vd.wdet[chunk], vd.N, f)
        np.add.at(out, vd.vdofs[chunk], contrib.reshape(len(contrib), -1))
    return out


def assemble_traction_load(space: FeSpace, field, degree=None, labels=None):
    """(G, v)_Gamma of a traction field G(x, normal)->(n,3) on the
    labelled facets (default: every Neumann-tagged facet)."""
    out = np.zeros(space.n_dofs)
    fd = facet_data(space, degree, labels)
    if len(fd.facets) == 0:
        return out
    nrm = np.repeat(fd.normals, fd.points.shape[1], axis=0)
    g = np.asarray(field(fd.points.reshape(-1, 3), nrm), dtype=float)
    contrib = np.einsum("fq,fqn,fqa->fna", fd.warea, fd.N, g.reshape(fd.points.shape))
    np.add.at(out, fd.vdofs, contrib.reshape(len(contrib), -1))
    return out


def body_term_vector(space: FeSpace, field, degree=None):
    """(F, v) of a time-independent body-force field F(x)->(n,3), assembled
    once per (space, degree, field) and cached read-only."""
    degree = load_degree(space) if degree is None else int(degree)
    return _cached(
        space, ("body_term", degree, field),
        lambda: _read_only(assemble_volume_load(space, field, degree)),
    )


def traction_term_vector(space: FeSpace, field, degree=None, labels=None):
    """(G, v)_Gamma of a time-independent traction field G(x, normal)->(n,3)
    on the labelled facets, assembled once per (space, degree, labels,
    field) and cached read-only."""
    degree = load_degree(space) if degree is None else int(degree)
    return _cached(
        space, ("traction_term", degree, _label_key(labels), field),
        lambda: _read_only(assemble_traction_load(space, field, degree, labels)),
    )


def assemble_load(space: FeSpace, loads: LoadSpec, t, degree=None):
    """Load vector (f, v) + (g, v)_Gamma_N at a fixed time, from the
    separable terms of ``loads`` (zero for None)."""
    out = np.zeros(space.n_dofs)
    if loads is None:
        return out
    for coef, field in loads.body_terms:
        out += coef(t) * body_term_vector(space, field, degree)
    for coef, field in loads.traction_terms:
        out += coef(t) * traction_term_vector(
            space, field, degree, loads.traction_labels
        )
    return out


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


def arm_weighted_sum(space: FeSpace, material, uve):
    """sum_m kappa_m uve_m (zero without arms): the one internal field whose
    deviatoric strain is the stress of all arms together."""
    terms = (arm.kappa * u for arm, u in zip(material.arms, uve))
    return sum(terms, np.zeros(space.n_dofs))


def state_stress(gradient, space: FeSpace, material, u0, uve):
    """Total stress where ``gradient`` (u -> grad u) evaluates, from one
    displacement and one arm-weighted internal-field gradient."""
    grad_ve = gradient(arm_weighted_sum(space, material, uve))
    return stress_from_gradients(gradient(u0), grad_ve, material.mu, material.lam)


def recover_nodal_stress(space: FeSpace, material, u0, uve):
    """Elementwise stress averaged to the scalar dofs (one 3x3 per node)."""
    nodes = np.array([np.array(a) / space.p for a in space.ref_nodes])
    _, dN = reference_basis(space.p, nodes)
    v = space.mesh.vertices[space.mesh.tets]
    jinv = np.linalg.inv((v[:, 1:] - v[:, :1]).transpose(0, 2, 1))
    G = np.einsum("qni,eia->eqna", dN, jinv)

    def grad_at_nodes(u):
        ue = u.reshape(-1, 3)[space.cell_dofs]
        return np.einsum("eqni,ena->eqai", G, ue)

    sigma = state_stress(grad_at_nodes, space, material, u0, uve)
    out = np.zeros((space.n_scalar_dofs, 3, 3))
    count = np.zeros(space.n_scalar_dofs)
    np.add.at(out, space.cell_dofs, sigma)
    np.add.at(count, space.cell_dofs, 1.0)
    return out / count[:, None, None]


def von_mises(sigma):
    """Von Mises equivalent stress of (..., 3, 3) stress tensors."""
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    dev = sigma.copy()
    idx = np.arange(3)
    dev[..., idx, idx] -= tr[..., None] / 3.0
    return np.sqrt(1.5 * np.sum(dev * dev, axis=(-2, -1)))
