"""Operator assembly against hand values and independent quadrature."""
import numpy as np
import pytest

from viscofem.assembly import (
    assemble_load,
    assemble_mass,
    assemble_traction_load,
    assemble_volume_load,
    LoadSpec,
    volume_data,
    von_mises,
)
from viscofem.dynamics import OperatorSet
from viscofem.fespace import FeSpace
from viscofem.material import MaterialModel
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh

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
    oracle = RHO * np.sum(vd.wdet * np.einsum("eqa,eqa->eq", vals, vals))
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
    g = vd.gradient(w)
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = np.einsum("eqaa->eq", g)
    oracle = KAPPA * np.sum(
        vd.wdet * (np.einsum("eqab,eqab->eq", eps, eps) - div * div / 3.0)
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


def test_operators_share_one_sparsity_pattern(space):
    ops = OperatorSet(space, MaterialModel(RHO, MU, LAM, arms=((KAPPA, 1.0),) * 3))
    for K in (ops.elastic, ops.deviatoric):
        assert np.array_equal(K.indptr, ops.mass.indptr)
        assert np.array_equal(K.indices, ops.mass.indices)


def _coo_operator(space, dense):
    """Oracle scatter: a COO matrix of the element matrices, summed by
    scipy's conversion to CSR."""
    import scipy.sparse as sp

    vdofs = volume_data(space).vdofs
    nld = vdofs.shape[1]
    rows = np.repeat(vdofs, nld, axis=1).ravel()
    cols = np.tile(vdofs, (1, nld)).ravel()
    return sp.coo_matrix((dense.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2).tocsr()


@pytest.mark.parametrize("n, p", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_bincount_scatter_matches_coo_oracle(monkeypatch, n, p):
    # at p = 2 the element matrices of a box mesh cancel in some entries of
    # K_E and D: the scatter must leave those exact zeros, as the oracle does
    from viscofem import assembly

    element_matrices = []
    scatter = assembly.Pattern.scatter

    def captured(self, dense):
        element_matrices.append(dense)
        return scatter(self, dense)

    monkeypatch.setattr(assembly.Pattern, "scatter", captured)
    space = FeSpace(build_box_mesh(n), p)
    operators(space)
    assert len(element_matrices) == 3
    cancelled_total = 0
    for dense in element_matrices:
        want = _coo_operator(space, dense)
        got = scatter(assembly.pattern(space), dense)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
        cancelled = (want.data == 0) & (_coo_operator(space, np.abs(dense)).data > 0)
        assert np.all(got.data[cancelled] == 0)
        cancelled_total += cancelled.sum()
    assert cancelled_total > 0 or p != 2


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
    OperatorSet(space, MaterialModel(2 * RHO, 2 * MU, LAM))
    assert len(builds) == 1
    for K in (ops.elastic, ops.deviatoric):
        assert np.shares_memory(K.indices, ops.mass.indices)
        assert np.shares_memory(K.indptr, ops.mass.indptr)


def test_stress_of_weighted_field_equals_per_arm_sum():
    # dev eps(sum_m kappa_m uve_m) = sum_m kappa_m dev eps(uve_m)
    from viscofem.assembly import arm_weighted_sum, stress_from_gradients

    material = MaterialModel(RHO, MU, LAM, arms=((3.0, 0.1), (0.5, 1.0), (7.0, 9.0)))
    space = FeSpace(build_box_mesh(1), 2)
    rng = np.random.default_rng(11)
    vd = volume_data(space)
    u0 = rng.standard_normal(space.n_dofs)
    uve = tuple(rng.standard_normal(space.n_dofs) for _ in material.arms)
    got = stress_from_gradients(
        vd.gradient(u0), vd.gradient(arm_weighted_sum(space, material, uve)), MU, LAM
    )

    def strain(u):
        g = vd.gradient(u)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def trace_id(e):
        return np.trace(e, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)

    eps = strain(u0)
    want = 2 * MU * eps + LAM * trace_id(eps)
    for arm, u in zip(material.arms, uve):
        e = strain(u)
        want += arm.kappa * (e - trace_id(e) / 3)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_load_constant_body_force(space):
    c = np.array([2.0, -1.0, 0.5])
    d_vec = np.array([1.0, 3.0, -2.0])
    loads = LoadSpec(body_terms=(
        (lambda t: 1.0, lambda x: np.broadcast_to(c, (len(x), 3))),
    ))
    F = assemble_load(space, loads, 0.0)
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
        F = assemble_traction_load(space, g, labels="lid")
        d_vec = np.array([0.2, -0.4, 1.0])
        d = space.interpolate(lambda x: d_vec + 0 * x)
        assert abs(d @ F - pressure * (n_hat @ d_vec)) < 1e-12


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
    vols = mesh.tet_volumes()
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
    oracle = _subdivided_load_functional(space, ms.body_force, w, t)
    body = lambda x: ms.body_force(x, t)
    full = w @ assemble_volume_load(space, body, degree=8)
    assert abs(full - oracle) < 1e-10 * abs(oracle)
    # the configured default order is converged well past discretization needs
    default = w @ assemble_volume_load(space, body)
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
    assert n_elem <= assembly.VOLUME_LOAD_CHUNK
    whole = assemble_volume_load(space, body)
    assert calls == [n_elem * len(volume_data(space, 2 * space.p + 2).rule.weights)]
    calls.clear()
    monkeypatch.setattr(assembly, "VOLUME_LOAD_CHUNK", 7)
    chunked = assemble_volume_load(space, body)
    assert len(calls) == -(-n_elem // 7)
    assert np.abs(chunked - whole).max() <= 1e-14 * np.abs(whole).max()
