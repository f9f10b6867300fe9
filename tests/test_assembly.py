"""Operator assembly against hand values and independent quadrature."""
import itertools

import numpy as np
import pytest

from viscofem.assembly import (
    FacetData,
    _evaluate_field,
    _vector_dofs,
    assemble_mass,
    assemble_traction_load,
    assemble_volume_load,
    facet_data,
    load_vectors,
    LoadSpec,
    recover_nodal_stress,
    volume_data,
    von_mises,
)
from viscofem.dynamics import OperatorSet
from viscofem.fespace import FeSpace, reference_basis, triangle_quadrature
from viscofem.material import MaterialModel
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh
from oracles import PreparingSolver, body_force, tet_volumes

MU, LAM, RHO, KAPPA = 0.4, 0.6, 100.0, 2.5


@pytest.fixture(scope="module", params=[1, 2])
def space(request):
    return FeSpace(build_box_mesh(2), request.param)


def operators(space, lam=LAM):
    """Mass, elastic (MU, lam) and unit deviatoric operators of one set."""
    return OperatorSet(space, MaterialModel(RHO, MU, lam, arms=((KAPPA, 1.0),)))


def _rand_field(space, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(space.n_dofs)


def test_mass_constant_field(space):
    M = assemble_mass(space, RHO)
    c = space.interpolate(lambda x: np.array([1.0, 2.0, 3.0]) + 0 * x)
    assert abs(c @ (M @ c) - RHO * 14.0) < 1e-9


def test_mass_row_sums(space):
    M = assemble_mass(space, RHO)
    # sum of all entries per component = rho * |Omega|
    ones = space.interpolate(lambda x: np.ones((len(x), 3)))
    total = ones @ (M @ ones)
    assert abs(total - 3 * RHO) < 1e-9


def test_mass_quadratic_form_vs_quadrature(space):
    M = assemble_mass(space, RHO)
    w = _rand_field(space, 1)
    vd = volume_data(space, 2 * space.p + 2)  # independent, higher order
    vals = vd.value(w)
    oracle = RHO * np.sum(vd.weights() * np.einsum("eqa,eqa->eq", vals, vals))
    assert abs(w @ (M @ w) - oracle) < 1e-10 * abs(oracle)


def test_elastic_nullspace_and_dilation(space):
    K = operators(space).elastic
    scale = np.abs(K.data).max()
    c = space.interpolate(lambda x: np.array([1.0, -2.0, 0.5]) + 0 * x)
    rot = space.interpolate(lambda x: np.cross(np.array([0.3, -1.2, 2.0]), x))
    assert np.abs(K @ c).max() < 1e-12 * scale * np.abs(c).max()
    assert np.abs(K @ rot).max() < 1e-12 * scale * np.abs(rot).max()
    dil = space.interpolate(lambda x: x)
    assert abs(dil @ (K @ dil) - (6 * MU + 9 * LAM)) < 1e-10


def test_deviatoric_nullspace_and_shear(space):
    K = KAPPA * operators(space).deviatoric
    scale = np.abs(K.data).max()
    dil = space.interpolate(lambda x: x)
    assert np.abs(K @ dil).max() < 1e-12 * scale * np.abs(dil).max()
    shear = space.interpolate(
        lambda x: np.stack([x[:, 1], 0 * x[:, 0], 0 * x[:, 0]], axis=1)
    )
    assert abs(shear @ (K @ shear) - KAPPA / 2) < 1e-10


def test_deviatoric_identity_vs_pieces(space):
    # a_VE(w,w) = kappa*(int eps:eps - int div^2 / 3), both sides via
    # independent evaluations
    K = KAPPA * operators(space).deviatoric
    w = _rand_field(space, 7)
    vd = volume_data(space, 2 * space.p + 2)
    g = _evaluate_field(vd.basis_gradients(), vd.cell_values(w))
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = np.einsum("eqaa->eq", g)
    oracle = KAPPA * np.sum(
        vd.weights() * (np.einsum("eqab,eqab->eq", eps, eps) - div * div / 3.0)
    )
    assert abs(w @ (K @ w) - oracle) < 1e-10 * abs(oracle)


def test_operator_symmetry(space):
    ops = operators(space)
    for K in (assemble_mass(space, RHO), ops.elastic, KAPPA * ops.deviatoric):
        assert abs(K - K.T).max() < 1e-12 * np.abs(K.data).max()


def test_energy_norms_nonnegative(space):
    ops = operators(space)
    KE, KV = ops.elastic, KAPPA * ops.deviatoric
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = rng.standard_normal(space.n_dofs)
        assert w @ (KE @ w) >= 0
        assert w @ (KV @ w) >= 0


def test_pointwise_deviatoric_bound(space):
    # kappa*e:e <= kappa*eps:eps implies w'KVw <= (kappa/2mu) w'KEw at lam=0
    ops = operators(space, lam=0.0)
    KE, KV = ops.elastic, KAPPA * ops.deviatoric
    rng = np.random.default_rng(17)
    for _ in range(10):
        w = rng.standard_normal(space.n_dofs)
        assert w @ (KV @ w) <= (KAPPA / (2 * MU)) * (w @ (KE @ w)) * (1 + 1e-12)


def _coo_operator(space, dense):
    """Oracle scatter: a COO matrix of the element matrices, summed by
    scipy's conversion to CSR."""
    import scipy.sparse as sp

    vdofs = _vector_dofs(space.cell_dofs)
    nld = vdofs.shape[1]
    rows = np.repeat(vdofs, nld, axis=1).ravel()
    cols = np.tile(vdofs, (1, nld)).ravel()
    return sp.coo_matrix((dense.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2).tocsr()


def _element_matrices(blocks):
    """Element matrices (ne, nld, nld) over the vector dofs 3i + a of each
    element from its node-pair blocks (ne, 9, nloc*nloc), [e, 3a + b,
    nloc*i + j]."""
    ne, nloc = len(blocks), int(round(np.sqrt(blocks.shape[2])))
    return blocks.reshape(ne, 3, 3, nloc, nloc).transpose(0, 3, 1, 4, 2).reshape(
        ne, 3 * nloc, 3 * nloc)


def _vector_element_mass(space, chunk=slice(None)):
    """The element mass blocks on the vector pattern (nc, 9, nloc*nloc):
    each scalar element mass, rho det_e M_ref as M is formed, at the
    equal-component entries (a, a) and exact zeros elsewhere."""
    vd = volume_data(space)
    ref = ((vd.rule.weights[:, None] * vd.N).T @ vd.N).ravel()
    scalar = (RHO * vd.det[chunk])[:, None] * ref
    return np.eye(3).reshape(1, 9, 1) * scalar[:, None, :]


def full_pattern_mass(space):
    """M on the vector pattern that K_E and D share, with its exact zeros
    at the cross-component entries."""
    from viscofem import assembly

    (mass,) = assembly.pattern(space).assemble(
        lambda chunk: (_vector_element_mass(space, chunk),))
    return mass


@pytest.mark.parametrize("p", [1, 2, 3])
def test_mass_keeps_a_third_of_the_shared_pattern(p):
    space = FeSpace(build_box_mesh(2), p)
    ops = OperatorSet(space, MaterialModel(RHO, MU, LAM, arms=((KAPPA, 1.0),) * 3))
    assert np.array_equal(ops.deviatoric.indptr, ops.elastic.indptr)
    assert np.array_equal(ops.deviatoric.indices, ops.elastic.indices)
    assert 3 * ops.mass.nnz == ops.elastic.nnz
    full = full_pattern_mass(space).copy()  # the pattern's arrays are read-only
    assert np.array_equal(full.indices, ops.elastic.indices)
    assert np.count_nonzero(full.data == 0) == 2 * ops.mass.nnz
    full.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ops.mass, name), getattr(full, name))
    # and the sums equal those of a COO conversion, whose order may differ
    want = _coo_operator(space, _element_matrices(_vector_element_mass(space)))
    want.eliminate_zeros()
    assert np.array_equal(ops.mass.indptr, want.indptr)
    assert np.array_equal(ops.mass.indices, want.indices)
    assert np.abs(ops.mass.data - want.data).max() <= 1e-15 * np.abs(want.data).max()


@pytest.mark.parametrize("kind, p", [("box", 1), ("box", 2), ("annulus", 2)])
def test_schur_matrix_bit_equal_with_full_pattern_mass(kind, p):
    # the sparse sum drops the full-pattern mass's zeros, so the Schur
    # matrix does not see which pattern M is stored on
    from viscofem.dynamics import ReducedStepper
    from viscofem.fespace import Constraints, DirichletBC, SlipBC
    from viscofem.mesh import build_annulus_mesh

    if kind == "box":
        tagger = box_face_tagger(faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")})
        space = FeSpace(build_box_mesh(2, tagger=tagger), p)
        con = Constraints(space, {"bottom": DirichletBC()})
    else:
        space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 6, 2)), p)
        con = Constraints(space, {"outer": DirichletBC(), "inner": SlipBC(0.1)})
    ops = OperatorSet(space, MaterialModel(RHO, MU, LAM, arms=((KAPPA, 1.0), (1.0, 0.1))))
    solver = PreparingSolver("direct")
    ReducedStepper(ops, con, 0.01, solver=solver)
    ops.mass = full_pattern_mass(space)
    ReducedStepper(ops, con, 0.01, solver=solver)
    got, want = solver.prepared
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("n, p", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_bincount_scatter_matches_coo_oracle(monkeypatch, n, p):
    # at p = 2 the element matrices of a box mesh cancel in some entries of
    # K_E and D: the scatter must leave those exact zeros, as the oracle does
    from viscofem import assembly

    element_matrices = []
    assemble = assembly.Pattern.assemble

    def captured(self, kernel, mass=False):
        # each vector operator's element matrices, gathered over the chunks
        chunks = []
        out = assemble(self, lambda chunk: chunks.append(kernel(chunk)) or chunks[-1], mass)
        if not mass:
            element_matrices.extend(np.concatenate(parts) for parts in zip(*chunks))
        return out

    monkeypatch.setattr(assembly.Pattern, "assemble", captured)
    space = FeSpace(build_box_mesh(n), p)
    operators(space)
    assert len(element_matrices) == 2
    cancelled_total = 0
    for blocks in element_matrices:
        dense = _element_matrices(blocks)
        want = _coo_operator(space, dense)
        (got,) = assemble(assembly.pattern(space), lambda chunk: (blocks[chunk],))
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
        cancelled = (want.data == 0) & (_coo_operator(space, np.abs(dense)).data > 0)
        assert np.all(got.data[cancelled] == 0)
        cancelled_total += cancelled.sum()
    assert cancelled_total > 0 or p != 2


def _vector_key_pattern(space):
    """Reference pattern: np.unique over every (row, column) pair of
    vector dofs of the element matrices, in C order."""
    vdofs = _vector_dofs(space.cell_dofs)
    n, nld = space.n_dofs, vdofs.shape[1]
    keys = (np.repeat(vdofs, nld, axis=1) * n + np.tile(vdofs, (1, nld))).ravel()
    keys, slot = np.unique(keys, return_inverse=True)
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n, slot


@pytest.mark.parametrize("kind, p", [("box", 1), ("box", 2), ("box", 3), ("annulus", 2)])
def test_pattern_matches_vector_key_reference(kind, p):
    from viscofem import assembly
    from viscofem.mesh import build_annulus_mesh

    mesh = build_box_mesh(2) if kind == "box" else build_annulus_mesh(0.5, 1.0, 0.4, (2, 6, 2))
    space = FeSpace(mesh, p)
    got = assembly.Pattern(space)
    indptr, indices, slot = _vector_key_pattern(space)
    assert np.array_equal(got.indptr, indptr)
    assert np.array_equal(got.indices, indices)
    # entry (a, b) of element entry (i, j) goes to slot 3 pair + a stride + b
    ne, nloc = got.stride.shape
    comp = np.arange(3)
    pair = got.pair.reshape(ne, nloc, 1, nloc, 1).astype(np.int64)
    stride = got.stride.reshape(ne, nloc, 1, 1, 1) * comp.reshape(3, 1, 1)
    assert np.array_equal((3 * pair + stride + comp).ravel(), slot)


def test_operators_bit_equal_across_element_chunks(monkeypatch):
    from viscofem import assembly
    from viscofem.mesh import build_annulus_mesh

    # the annulus's elements differ in shape and size, unlike the box's
    space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 6, 2)), 2)
    whole = operators(space)
    assert len(assembly._chunks(len(space.mesh.tets), 8 * 30**2)) == 1
    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    chunked = operators(space)
    for a, b in ((whole.mass, chunked.mass), (whole.elastic, chunked.elastic),
                 (whole.deviatoric, chunked.deviatoric)):
        assert np.array_equal(a.data, b.data)
        assert np.count_nonzero(a.data == 0) == np.count_nonzero(b.data == 0)


def test_operator_chunks_are_sized_by_bytes(monkeypatch):
    # a P2 element matrix holds 30 x 30 floats, so a chunk of at most
    # OPERATOR_CHUNK_BYTES holds fewer elements than ELEMENT_CHUNK, and the
    # operators equal those of one chunk bit for bit
    from viscofem import assembly

    space = FeSpace(build_box_mesh(4), 2)
    sizes = []
    assemble = assembly.Pattern.assemble

    def recorded(self, kernel, mass=False):
        return assemble(self, lambda chunk: sizes.append(chunk.stop - chunk.start)
                        or kernel(chunk), mass)

    monkeypatch.setattr(assembly.Pattern, "assemble", recorded)
    chunked = operators(space)
    per_chunk = assembly.OPERATOR_CHUNK_BYTES // (8 * 30**2)
    assert per_chunk < len(space.mesh.tets) <= assembly.ELEMENT_CHUNK
    # one pass over the elements for the mass, whose scalar 10 x 10 element
    # matrices fit in one chunk, and one for K_E and D together
    ne = len(space.mesh.tets)
    assert sizes[0] == ne and max(sizes[1:]) == per_chunk and sum(sizes[1:]) == ne
    monkeypatch.setattr(assembly, "OPERATOR_CHUNK_BYTES", 2**40)
    sizes.clear()
    whole = operators(space)
    assert sizes == [len(space.mesh.tets)] * 2
    for a, b in ((whole.mass, chunked.mass), (whole.elastic, chunked.elastic),
                 (whole.deviatoric, chunked.deviatoric)):
        assert np.array_equal(a.data, b.data)
        assert np.count_nonzero(a.data == 0) == np.count_nonzero(b.data == 0)


def test_pattern_slot_in_index_dtype(space):
    from viscofem import assembly

    pat = assembly.pattern(space)
    arrays = (pat.pair, pat.stride, pat.indices, pat.indptr, pat.mass_indices,
              pat.mass_indptr, pat.mass_source)
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


@pytest.mark.parametrize("p", [1, 2])
def test_pattern_memory_grows_with_node_pairs(p):
    # no array of the element entries' vector size, ne (3 nloc)^2: the
    # pattern keeps one int32 per element entry (i, j), its CSR arrays and
    # one map per mass slot
    from viscofem import assembly

    space = FeSpace(build_box_mesh(3), p)
    pat = assembly.pattern(space)
    ne, nloc = space.cell_dofs.shape
    arrays = [a for a in vars(pat).values() if isinstance(a, np.ndarray)]
    assert max(a.size for a in arrays) < ne * (3 * nloc) ** 2
    nnz = len(pat.indices)
    assert sum(a.nbytes for a in arrays) <= (ne * nloc**2 + 3 * nnz + 2 * space.n_dofs + 2) * 4


def test_volume_data_chunks_match_whole_mesh_formulas(monkeypatch, space):
    from viscofem import assembly

    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    vd = assembly.VolumeData(space, 6)
    chunks = vd.chunks()
    assert len(chunks) == -(-len(space.mesh.tets) // 7)
    u = _rand_field(space, 4)
    v = space.mesh.vertices[space.mesh.tets]
    jac = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)
    G = np.einsum("qnk,eki->eqni", vd.dN, np.linalg.inv(jac))
    ue = u.reshape(-1, 3)[space.cell_dofs]
    pairs = [
        (vd.value, np.einsum("qn,ena->eqa", vd.N, ue)),
        (lambda u, chunk: _evaluate_field(vd.basis_gradients(chunk), vd.cell_values(u, chunk)),
         np.einsum("eqni,ena->eqai", G, ue)),
    ]
    for evaluate, want in pairs:
        got = np.concatenate([evaluate(u, chunk) for chunk in chunks])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    tables = [
        (vd.weights, vd.rule.weights * np.linalg.det(jac)[:, None]),
        (vd.points, np.einsum("qv,eva->eqa", vd.rule.points, v)),
        (vd.basis_gradients, G),
    ]
    for table, want in tables:
        got = np.concatenate([table(chunk) for chunk in chunks])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_volume_data_keeps_per_element_geometry_only(space):
    # per element only the inverse Jacobian and the determinant, 10
    # floats, whatever the quadrature degree
    from viscofem.assembly import VolumeData

    ne = len(space.mesh.tets)
    for degree in (2, 6):
        vd = VolumeData(space, degree)
        arrays = [a for a in vars(vd).values() if isinstance(a, np.ndarray)]
        tables = vd.N.nbytes + vd.dN.nbytes
        assert sum(a.nbytes for a in arrays) == tables + 10 * 8 * ne


@pytest.mark.parametrize("n, p", [(1, 2), (2, 1), ("annulus", 2), (1, 3)])
def test_strain_operators_match_per_element_loop(n, p):
    # K_E and D from each element's strain tensors of its vector basis
    # functions, one element and one quadrature point at a time; the
    # annulus's elements are not congruent, unlike the box's
    import scipy.sparse as sp

    from viscofem.fespace import quadrature, reference_basis
    from viscofem.mesh import build_annulus_mesh

    if n == "annulus":
        space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (1, 4, 1)), p)
    else:
        space = FeSpace(build_box_mesh(n), p)
    ops = operators(space)
    rule = quadrature(2 * p)
    _, dN = reference_basis(p, rule.points)
    nld = 3 * dN.shape[1]
    rows, cols, k_vals, d_vals = [], [], [], []
    for tet, dofs in zip(space.mesh.vertices[space.mesh.tets], space.cell_dofs):
        jac = (tet[1:] - tet[:1]).T
        jinv, det = np.linalg.inv(jac), np.linalg.det(jac)
        S = np.zeros((nld, nld))
        V = np.zeros((nld, nld))
        for w, dn in zip(rule.weights, dN):
            grads = dn @ jinv
            eps = np.zeros((nld, 3, 3))
            for node, g in enumerate(grads):
                for a in range(3):
                    eps[3 * node + a, a] += 0.5 * g
                    eps[3 * node + a, :, a] += 0.5 * g
            flat = eps.reshape(nld, 9)
            div = np.trace(eps, axis1=1, axis2=2)
            S += w * det * 2.0 * flat @ flat.T
            V += w * det * np.outer(div, div)
        vdofs = (3 * dofs[:, None] + np.arange(3)).ravel()
        rows.append(np.repeat(vdofs, nld))
        cols.append(np.tile(vdofs, nld))
        k_vals.append((MU * S + LAM * V).ravel())
        d_vals.append((S / 2 - V / 3).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    for got, vals in ((ops.elastic, k_vals), (ops.deviatoric, d_vals)):
        want = sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=got.shape).toarray()
        assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()


def test_one_pattern_build_serves_all_operators(monkeypatch):
    from viscofem import assembly

    builds = []
    original = assembly.Pattern.__init__

    def counted(self, space):
        builds.append(space)
        original(self, space)

    monkeypatch.setattr(assembly.Pattern, "__init__", counted)
    space = FeSpace(build_box_mesh(2), 2)
    ops = operators(space)
    other = OperatorSet(space, MaterialModel(2 * RHO, 2 * MU, LAM))
    assert len(builds) == 1
    pat = assembly.pattern(space)
    # K_E and D on the vector pattern, M on the mass pattern
    for K in (ops.elastic, ops.deviatoric, other.elastic, other.deviatoric):
        assert np.shares_memory(K.indices, pat.indices)
        assert np.shares_memory(K.indptr, pat.indptr)
    for M in (ops.mass, other.mass):
        assert np.shares_memory(M.indices, pat.mass_indices)
        assert np.shares_memory(M.indptr, pat.mass_indptr)
    assert 3 * ops.mass.nnz == ops.elastic.nnz


def test_stress_of_weighted_field_equals_per_arm_sum():
    # dev eps(sum_m kappa_m uve_m) = sum_m kappa_m dev eps(uve_m)
    from viscofem.assembly import stress_from_gradients

    material = MaterialModel(RHO, MU, LAM, arms=((3.0, 0.1), (0.5, 1.0), (7.0, 9.0)))
    space = FeSpace(build_box_mesh(1), 2)
    rng = np.random.default_rng(11)
    vd = volume_data(space)
    u0 = rng.standard_normal(space.n_dofs)
    uve = rng.standard_normal((material.n_arms, space.n_dofs))

    def gradient(u):
        return _evaluate_field(vd.basis_gradients(), vd.cell_values(u))

    got = stress_from_gradients(gradient(u0), gradient(material.kappa @ uve), MU, LAM)

    def strain(u):
        g = gradient(u)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def trace_id(e):
        return np.trace(e, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)

    eps = strain(u0)
    want = 2 * MU * eps + LAM * trace_id(eps)
    for arm, u in zip(material.arms, uve):
        e = strain(u)
        want += arm.kappa * (e - trace_id(e) / 3)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_field_evaluations_match_einsum_definitions(space):
    # values and gradients at volume and facet quadrature points, and the
    # nodal stress, against the plain index sums they stand for
    u = _rand_field(space, 5)
    vd, fd = volume_data(space, 6), facet_data(space)
    assert len(fd.facets) > 0
    ue, uf = u.reshape(-1, 3)[space.cell_dofs], u.reshape(-1, 3)[fd.cell_dofs]
    pairs = [
        (vd.value(u), np.einsum("qn,ena->eqa", vd.N, ue)),
        (_evaluate_field(vd.basis_gradients(), ue),
         np.einsum("eqni,ena->eqai", vd.basis_gradients(), ue)),
        (_evaluate_field(fd.N, uf), np.einsum("fqn,fna->fqa", fd.N, uf)),
        (_evaluate_field(fd.G, uf), np.einsum("fqni,fna->fqai", fd.G, uf)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # a field linear in x has one constant stress, recovered at every vertex
    x = space.dof_coords
    grad = np.array([[0.3, -0.2, 0.1], [0.05, 0.4, -0.3], [0.2, 0.1, -0.1]])
    material = MaterialModel(RHO, MU, LAM)
    sigma = recover_nodal_stress(space, material, (x @ grad.T).ravel(), ())
    eps = 0.5 * (grad + grad.T)
    want = 2 * MU * eps + LAM * np.trace(eps) * np.eye(3)
    assert np.abs(sigma - want).max() <= 1e-13 * np.abs(want).max()


def _all_node_stress(space, material, u0, uve):
    """The stress recovered at every node of the space: each element's
    stress at its reference nodes, averaged onto the scalar dofs."""
    from viscofem.assembly import (
        _chunks,
        _physical_gradients,
        element_geometry,
        stress_from_gradients,
    )

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


@pytest.mark.parametrize("mesh_name, p", [("box", 2), ("box", 3), ("annulus", 2)])
def test_recover_nodal_stress_is_the_vertex_rows_of_all_node_recovery(mesh_name, p):
    from viscofem.mesh import build_annulus_mesh

    if mesh_name == "box":
        mesh, arms = build_box_mesh(2), ()
    else:
        mesh, arms = build_annulus_mesh(0.006, 0.01, 0.02, (2, 12, 2)), ((2.5, 1.0), (0.7, 3.0))
    space = FeSpace(mesh, p)
    material = MaterialModel(RHO, MU, LAM, arms=arms)
    u0 = _rand_field(space, 7)
    uve = np.reshape([_rand_field(space, 8 + m) for m in range(len(arms))],
                     (len(arms), space.n_dofs))
    sigma = recover_nodal_stress(space, material, u0, uve)
    assert sigma.shape == (mesh.n_vertices, 3, 3)
    assert np.array_equal(sigma, _all_node_stress(space, material, u0, uve)[: mesh.n_vertices])


def _per_facet_tables(space, degree, facets):
    """The facet tables of ``FacetData`` one facet at a time: the basis at
    the facet's triangle points placed in its owner's barycentric
    coordinates, and the normal and area from the facet's own cross
    product."""
    rule = triangle_quadrature(degree)
    mesh = space.mesh
    tables = {name: [] for name in ("N", "G", "points", "normals", "warea", "vdofs")}
    for f in facets:
        bar = np.zeros((len(rule.weights), 4))
        bar[:, space.facet_local[f]] = rule.points
        vals, grads = reference_basis(space.p, bar)
        owner = mesh.facet_owner[f]
        v = mesh.vertices[mesh.tets[owner]]
        jinv = np.linalg.inv((v[1:] - v[:1]).T)
        tri = mesh.vertices[mesh.boundary_facets[f]]
        cr = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        norm = np.sqrt(np.sum(cr * cr))
        tables["N"].append(vals)
        tables["G"].append((grads.reshape(-1, 3) @ jinv).reshape(grads.shape))
        tables["points"].append(rule.points @ tri)
        tables["normals"].append(cr / norm)
        tables["warea"].append(rule.weights * norm)
        tables["vdofs"].append((3 * space.cell_dofs[owner][:, None] + np.arange(3)).ravel())
    return {name: np.array(rows) for name, rows in tables.items()}


@pytest.mark.parametrize("kind", ["box-p2", "annulus-p3"])
def test_facet_data_bit_equal_to_per_facet_tables(kind):
    # the owners' local vertices are reordered by the 12 even permutations
    # in turn, which keep the orientation, so the facets take each of the
    # 12 placements in their owners that a positively oriented tet allows
    from viscofem.mesh import Mesh, build_annulus_mesh

    if kind == "box-p2":
        mesh, p = build_box_mesh(2), 2
    else:
        mesh, p = build_annulus_mesh(0.5, 1.0, 0.4, (2, 8, 2)), 3
    even = [q for q in itertools.permutations(range(4))
            if sum(a > b for a, b in itertools.combinations(q, 2)) % 2 == 0]
    order = np.tile(np.arange(4), (mesh.n_tets, 1))
    order[mesh.facet_owner] = np.array(even)[np.arange(len(mesh.facet_owner)) % len(even)]
    mesh = Mesh(mesh.vertices, np.take_along_axis(mesh.tets, order, axis=1),
                mesh.boundary_facets, mesh.facet_tags, mesh.facet_owner, mesh.tags)
    space = FeSpace(mesh, p)
    facets = np.arange(len(mesh.boundary_facets))
    assert len(np.unique(space.facet_local, axis=0)) == 12
    for degree in (2 * p, 2 * p + 2):
        fd = FacetData(space, degree, facets)
        for name, want in _per_facet_tables(space, degree, facets).items():
            got = getattr(fd, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_load_constant_body_force(space):
    c = np.array([2.0, -1.0, 0.5])
    d_vec = np.array([1.0, 3.0, -2.0])
    loads = LoadSpec(body_terms=(
        (lambda t: 1.0, lambda x: np.broadcast_to(c, (len(x), 3))),
    ))
    (F,), _ = load_vectors(space, loads)
    d = space.interpolate(lambda x: d_vec + 0 * x)
    assert abs(d @ F - c @ d_vec) < 1e-12  # |Omega| = 1


def test_load_traction_single_face():
    def make(p):
        mesh = build_box_mesh(
            2,
            tagger=box_face_tagger(
                faces={"z+": BoundaryTag(BoundaryKind.NEUMANN, "lid")},
                default=BoundaryTag(BoundaryKind.DIRICHLET, "rest"),
            ),
        )
        return FeSpace(mesh, p)

    for p in (1, 2):
        space = make(p)
        pressure = 3.5
        n_hat = np.array([0.0, 0.0, 1.0])
        g = lambda x, n: pressure * n
        F = assemble_traction_load(space, g)  # the lid is the only Neumann face
        d_vec = np.array([0.2, -0.4, 1.0])
        d = space.interpolate(lambda x: d_vec + 0 * x)
        assert abs(d @ F - pressure * (n_hat @ d_vec)) < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_load_traction_acts_on_every_neumann_label(p):
    # the lid and the x+ face are Neumann under different labels; a
    # LoadSpec traction acts on both
    mesh = build_box_mesh(2, tagger=box_face_tagger(
        faces={"z+": BoundaryTag(BoundaryKind.NEUMANN, "lid"),
               "x+": BoundaryTag(BoundaryKind.NEUMANN, "side")},
        default=BoundaryTag(BoundaryKind.DIRICHLET, "rest"),
    ))
    space = FeSpace(mesh, p)
    pressure = 3.5
    g = lambda x, n: pressure * n
    _, (F,) = load_vectors(space, LoadSpec(traction_terms=((lambda t: 1.0, g),)))
    d_vec = np.array([0.2, -0.4, 1.0])
    d = space.interpolate(lambda x: d_vec + 0 * x)
    assert abs(d @ F - pressure * (d_vec[0] + d_vec[2])) < 1e-12


def _red_children():
    """Barycentric vertices of the 8 children of the red-refined tet."""
    v = np.eye(4)
    mid = lambda i, j: (v[i] + v[j]) / 2
    verts = [v[0], v[1], v[2], v[3],
             mid(0, 1), mid(0, 2), mid(0, 3), mid(1, 2), mid(1, 3), mid(2, 3)]
    idx = [(0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
           (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)]
    return [np.array([verts[i] for i in quad]) for quad in idx]


def _subdivided_load_functional(space, f, w, t):
    """Independent refined-quadrature oracle for the load functional
    (f(t), w_h): a degree-8 rule mapped into every child of each
    red-refined element."""
    from viscofem.fespace import quadrature, reference_basis

    rule = quadrature(8)
    mesh = space.mesh
    vcoords = mesh.vertices[mesh.tets]
    vols = tet_volumes(mesh)
    wcell = w.reshape(-1, 3)[space.cell_dofs]
    total = 0.0
    for child in _red_children():
        xyz = child[:, 1:]
        frac = abs(np.linalg.det(xyz[1:] - xyz[:1]))
        bar = rule.points @ child
        vals, _ = reference_basis(space.p, bar)
        pts = np.einsum("qv,eva->eqa", bar, vcoords)
        fv = f(pts.reshape(-1, 3), t).reshape(pts.shape)
        wh = np.einsum("qn,ena->eqa", vals, wcell)
        total += np.sum(
            (rule.weights * frac)[None, :]
            * np.einsum("eqa,eqa->eq", fv, wh)
            * (6 * vols)[:, None]
        )
    return total


def test_manufactured_load_vs_refined_quadrature():
    from viscofem.material import MaterialModel
    from viscofem.verify import ManufacturedSolution

    mat = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))
    ms = ManufacturedSolution(mat)
    space = FeSpace(build_box_mesh(4), 2)
    t = 0.7
    w = space.interpolate(lambda x: ms.velocity(t, x))
    oracle = _subdivided_load_functional(space, lambda x, t: body_force(ms, x, t), w, t)
    body = lambda x: body_force(ms, x, t)
    # (f, w) at degree 8, from the tables of that volume quadrature
    vd = volume_data(space, 8)
    points = vd.points()
    f = body(points.reshape(-1, 3)).reshape(points.shape)
    full = np.sum(vd.weights() * np.einsum("eqa,eqa->eq", f, vd.value(w)))
    assert abs(full - oracle) < 1e-10 * abs(oracle)
    # the configured default order is converged well past discretization needs
    default = w @ assemble_volume_load(space, [body])[0]
    assert abs(default - oracle) < 1e-7 * abs(oracle)


def test_von_mises_uniaxial():
    s = -7.3
    sigma = np.zeros((4, 3, 3))
    sigma[:, 2, 2] = s
    assert np.allclose(von_mises(sigma), abs(s))
    hydro = -2.0 * np.eye(3)[None]
    assert np.allclose(von_mises(hydro), 0.0)


def test_volume_load_chunks_match_one_chunk(monkeypatch, space):
    from viscofem import assembly

    calls = []

    def body(x):
        calls.append(len(x))
        return np.stack([np.sin(3 * x[:, 0]) + 0.4, x[:, 1] * x[:, 2], np.cos(x[:, 2])],
                        axis=1)

    n_elem = len(space.mesh.tets)
    assert n_elem <= assembly.ELEMENT_CHUNK
    (whole,) = assemble_volume_load(space, [body])
    assert calls == [n_elem * len(volume_data(space, 2 * space.p + 2).rule.weights)]
    calls.clear()
    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    (chunked,) = assemble_volume_load(space, [body])
    assert len(calls) == -(-n_elem // 7)
    assert np.abs(chunked - whole).max() <= 1e-14 * np.abs(whole).max()


def _push(x):
    return np.stack([np.sin(x[:, 0]), x[:, 1], 1.0 + 0.0 * x[:, 2]], axis=1)


def _pull(x, normal):
    return -x[:, :1] * normal


def _space_with_every_table(n, p):
    """A box space on which every table ``assembly`` keeps per space was
    built: the volume quadratures of the form and load degrees, the
    Neumann facets', the pattern and the operators on it, the surface
    strain maps of the boundary, and a body and a traction term vector."""
    from viscofem import assembly

    space = FeSpace(build_box_mesh(n), p)
    volume_data(space)
    volume_data(space, assembly.load_degree(space))
    facet_data(space)
    operators(space)
    assembly.surface_strain_maps(space, "boundary")
    one = lambda t: 1.0
    assembly.load_vectors(space, LoadSpec(((one, _push),), ((one, _pull),)))
    return space


def test_space_is_freed_with_its_tables():
    import gc
    import weakref

    space = weakref.ref(_space_with_every_table(2, 2))
    gc.collect()
    assert space() is None


# traced memory that the four builds after the first may leave allocated
# after a collection: a space kept alive by its tables holds 1.8 MiB per
# build of the n = 3, P2 box, 7.2 MiB after the fifth
RETAINED_BOUND_BYTES = 2**18


def test_repeated_builds_hold_no_memory():
    import gc
    import tracemalloc

    held = []
    tracemalloc.start()
    try:
        for _ in range(5):
            _space_with_every_table(3, 2)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[-1] - held[0] < RETAINED_BOUND_BYTES, held
