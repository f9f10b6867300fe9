"""Reference bases, quadrature, dof maps, and constraint application."""
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from viscofem.dynamics import LinearSolver, OperatorSet
from viscofem.fespace import (
    Constraints,
    DirichletBC,
    FeSpace,
    SlipBC,
    quadrature,
    reference_basis,
    reference_nodes,
    triangle_quadrature,
)
from viscofem.material import MaterialModel
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh
from oracles import per_node_rotation


def exact_tet_monomial(a, b, c):
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def exact_tri_monomial(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(9))
def test_tet_quadrature_monomial_exactness(degree):
    rule = quadrature(degree)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 1 / 6) < 1e-14
    x, y, z = rule.points[:, 1], rule.points[:, 2], rule.points[:, 3]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                val = np.sum(rule.weights * x**a * y**b * z**c)
                assert abs(val - exact_tet_monomial(a, b, c)) < 1e-12


def test_one_point_rule():
    rule = quadrature(1)
    assert len(rule.weights) == 1
    assert abs(rule.weights[0] - 1 / 6) < 1e-15
    # integral of x over the reference tet via any rule of degree >= 1
    for degree in range(1, 9):
        r = quadrature(degree)
        assert abs(np.sum(r.weights * r.points[:, 1]) - 1 / 24) < 1e-15


@pytest.mark.parametrize("degree", range(9))
def test_triangle_quadrature_exactness(degree):
    rule = triangle_quadrature(degree)
    assert (rule.weights > 0).all()
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x**a * y**b)
            assert abs(val - exact_tri_monomial(a, b)) < 1e-13


def test_unsupported_quadrature_degree():
    with pytest.raises(ValueError):
        quadrature(9)
    with pytest.raises(ValueError):
        triangle_quadrature(11)


def test_p1_vertex_values():
    vals, _ = reference_basis(1, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(vals[0], [1, 0, 0, 0])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_partition_of_unity(p):
    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(4), size=20)
    vals, grads = reference_basis(p, pts)
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-14
    assert np.abs(grads.sum(axis=1)).max() < 1e-13


@pytest.mark.parametrize("p", [1, 2, 3])
def test_nodal_property(p):
    nodes = np.array([np.array(a) / p for a in reference_nodes(p)])
    vals, _ = reference_basis(p, nodes)
    assert np.abs(vals - np.eye(len(nodes))).max() < 1e-12


def test_p2_edge_midpoint_nodal():
    # node 4 is the midpoint of edge (0,1)
    mid = np.array([0.5, 0.5, 0.0, 0.0])
    vals, _ = reference_basis(2, mid)
    expected = np.zeros(10)
    expected[4] = 1.0
    assert np.allclose(vals[0], expected, atol=1e-14)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        reference_basis(4, np.array([0.25, 0.25, 0.25, 0.25]))
    with pytest.raises(ValueError):
        FeSpace(build_box_mesh(1), 0)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_dof_count(p, n):
    space = FeSpace(build_box_mesh(n), p)
    assert space.n_scalar_dofs == (p * n + 1) ** 3
    assert space.cell_dofs.shape[1] == (p + 1) * (p + 2) * (p + 3) // 6


@pytest.mark.parametrize("p", [1, 2, 3])
def test_affine_interpolation_exact(p):
    space = FeSpace(build_box_mesh(2), p)
    B = np.array([[0.3, 1.2, -0.7], [0.4, -0.2, 0.9], [-1.1, 0.5, 0.8]])
    u = space.interpolate(lambda x: x @ B.T)
    assert np.abs(u.reshape(-1, 3) - space.dof_coords @ B.T).max() < 1e-13


def _bottom_space(n=1, p=1):
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    return FeSpace(build_box_mesh(n, tagger=tagger), p)


def test_dirichlet_zero_values():
    space = _bottom_space(2, 1)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((space.n_dofs, space.n_dofs))
    mat = sp.csr_matrix(raw @ raw.T + space.n_dofs * np.eye(space.n_dofs))
    rhs = rng.standard_normal(space.n_dofs)
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})
    u = con.solve(mat, rhs, con.fixed_values(0.0), LinearSolver())
    assert np.abs(u[con.fixed]).max() == 0.0


def test_dirichlet_identity_prescribed_value():
    space = _bottom_space(1, 1)
    mat = sp.identity(space.n_dofs, format="csr")
    rhs = np.zeros(space.n_dofs)
    con = Constraints(space, {"bottom": DirichletBC((1.0, 2.0, 3.0))})
    u = con.solve(mat, rhs, con.fixed_values(0.0), LinearSolver())
    bottom = space.label_nodes("bottom")
    assert np.allclose(u.reshape(-1, 3)[bottom], [1.0, 2.0, 3.0])


def test_dirichlet_matches_dense_reduced_solve():
    space = _bottom_space(1, 1)  # 24 dofs: small enough for a dense oracle
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((space.n_dofs, space.n_dofs))
    dense = raw @ raw.T + space.n_dofs * np.eye(space.n_dofs)
    rhs = rng.standard_normal(space.n_dofs)
    con = Constraints(space, {"bottom": DirichletBC(0.0)})
    u = con.solve(sp.csr_matrix(dense), rhs, con.fixed_values(0.0), LinearSolver(method="direct"))
    free = con.free
    expect = np.linalg.solve(dense[np.ix_(free, free)], rhs[free])
    assert np.abs(u[free] - expect).max() < 1e-10 * np.abs(expect).max()


def test_slip_flat_face():
    tagger = box_face_tagger(faces={"z+": BoundaryTag(BoundaryKind.SLIP, "top")})
    space = FeSpace(build_box_mesh(2, tagger=tagger), 1)
    mat = sp.identity(space.n_dofs, format="csr")
    c = 0.3
    con = Constraints(space, {"top": SlipBC(c)})
    for frame in con.slip_frames:
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-14
        assert np.allclose(frame[:, 0], [0, 0, 1])
    u = con.solve(mat, np.zeros(space.n_dofs), con.fixed_values(0.0), LinearSolver())
    top = space.label_nodes("top")
    uz = u.reshape(-1, 3)[top, 2]
    assert np.abs(uz - c).max() < 1e-12
    # u.n = 0 everywhere when nothing is prescribed
    con0 = Constraints(space, {"top": SlipBC(0.0)})
    u0 = con0.solve(mat, np.zeros(space.n_dofs), np.zeros(len(con.fixed)), LinearSolver())
    assert np.abs(u0.reshape(-1, 3)[top, 2]).max() < 1e-12


def test_slip_constrained_solve_tangential_free():
    # SPD system with slip on the top face: tangential components follow
    # the unconstrained minimizer, the normal one is pinned
    tagger = box_face_tagger(faces={"z+": BoundaryTag(BoundaryKind.SLIP, "top")})
    space = FeSpace(build_box_mesh(1, tagger=tagger), 1)
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((space.n_dofs, space.n_dofs))
    dense = raw @ raw.T + space.n_dofs * np.eye(space.n_dofs)
    rhs = rng.standard_normal(space.n_dofs)
    con = Constraints(space, {"top": SlipBC(0.25)})
    u = con.solve(sp.csr_matrix(dense), rhs, con.fixed_values(0.0), LinearSolver(method="direct"))
    top = space.label_nodes("top")
    assert np.abs(u.reshape(-1, 3)[top, 2] - 0.25).max() < 1e-12
    # residual orthogonal to the free subspace
    resid = con.to_frame(dense @ u - rhs)
    assert np.abs(resid[con.free]).max() < 1e-9


def _per_node_owners(con):
    """Per prescribed node, the BC owning it, as dicts {node: bc} for the
    Dirichlet and the slip nodes, rebuilt from ``spec`` and
    ``label_nodes`` label by label: a later label overrides an earlier one
    of its kind, and a Dirichlet node is no slip node."""
    dirichlet, slip = {}, {}
    for label, bc in con.spec.items():
        table = dirichlet if isinstance(bc, DirichletBC) else slip
        for nd in con.space.label_nodes(label):
            table[int(nd)] = bc
    for nd in dirichlet:
        slip.pop(nd, None)
    return dirichlet, slip


def _per_node_fixed_values(con, t):
    """The fixed values as a loop over the prescribed nodes evaluates them,
    with the owners of ``_per_node_owners``."""
    dirichlet, slip = _per_node_owners(con)
    coords = con.space.dof_coords
    fixed = sorted([3 * nd + a for nd in dirichlet for a in range(3)]
                   + [3 * nd for nd in slip])
    assert np.array_equal(con.fixed, fixed)
    pos = {dof: i for i, dof in enumerate(fixed)}
    want = np.full(len(fixed), np.nan)

    def value(bc, nd):
        return bc.value(coords[[nd]], t) if callable(bc.value) else bc.value

    for nd, bc in dirichlet.items():
        val = np.broadcast_to(value(bc, nd), (1, 3))[0]
        for a in range(3):
            want[pos[3 * nd + a]] = val[a]
    for nd, bc in slip.items():
        want[pos[3 * nd]] = np.atleast_1d(value(bc, nd))[0]
    return want


def _mixed_space(p=2):
    tagger = box_face_tagger(faces={
        "z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom"),
        "x-": BoundaryTag(BoundaryKind.DIRICHLET, "side"),
        "z+": BoundaryTag(BoundaryKind.SLIP, "top"),
    })
    return FeSpace(build_box_mesh(2, tagger=tagger), p)


def test_fixed_values_match_per_node_evaluation():
    space = _mixed_space()
    evaluated = []

    def timed(fn):
        def value(x, t):
            evaluated.append(t)
            return fn(x, t)

        return value

    mixed = {
        "bottom": DirichletBC(timed(lambda x, t: np.stack(
            [x[:, 0] * t, x[:, 1] - t, x[:, 0] * x[:, 1] + t], axis=1))),
        "side": DirichletBC((0.1, -0.2, 0.3)),
        "top": SlipBC(timed(lambda x, t: x[:, 0] * x[:, 1] - 2.0 * t)),
    }
    # a constant clamp and a moving slip surface, as in the seal
    seal = {
        "bottom": DirichletBC((0.0, 0.0, 0.0)),
        "top": SlipBC(timed(lambda x, t: 0.01 * np.sin(15.0 * t) * x[:, 0])),
    }
    # the other forms a value is stored in: a scalar Dirichlet value, a
    # callable giving one 3-vector for every node, and slip values as a
    # scalar or a callable giving a 0-d scalar
    forms = {
        "bottom": DirichletBC(0.5),
        "side": DirichletBC(timed(lambda x, t: np.array([t, -2.0 * t, 0.25]))),
        "top": SlipBC(timed(lambda x, t: np.float64(0.1 - t))),
    }
    scalar_slip = {"side": DirichletBC((0.1, -0.2, 0.3)), "top": SlipBC(-0.25)}
    for spec, n_callables in ((mixed, 2), (seal, 1), (forms, 2), (scalar_slip, 0)):
        con = Constraints(space, spec)
        assert len(con.dirichlet_nodes) and len(con.slip_nodes)
        for t in (0.0, 0.37, 0.5):
            evaluated.clear()
            got = con.fixed_values(t)
            # every callable BC is evaluated once, at t
            assert evaluated == [t] * n_callables
            assert np.array_equal(got, _per_node_fixed_values(con, t))


def test_constant_fixed_values_evaluated_once():
    space = _mixed_space()
    spec = {"bottom": DirichletBC((0.0, 0.0, 0.0)), "side": DirichletBC((0.1, -0.2, 0.3)),
            "top": SlipBC(0.25)}
    con = Constraints(space, spec)
    want = _per_node_fixed_values(con, 0.0)

    def never(*args):
        raise AssertionError("a constant BC was evaluated after construction")

    for bc in spec.values():
        bc.value = never
    first = con.fixed_values(0.0)
    assert not first.flags.writeable
    for t in (0.0, 0.37, 2.5):
        assert con.fixed_values(t) is first
    assert np.array_equal(first, want)


@pytest.mark.parametrize("order", ["slip-first", "slip-last"])
def test_overlapping_labels_match_per_node_owners(order):
    # "side" meets "bottom" and "top" along edges: a later Dirichlet label
    # wins on the bottom edge, and Dirichlet wins over slip on the top
    # edge whichever label comes first
    space = _mixed_space()
    moving = DirichletBC(lambda x, t: np.stack([x[:, 0] + t, -x[:, 1], x[:, 2] * t], axis=1))
    spec = {"bottom": moving, "side": DirichletBC((0.1, -0.2, 0.3))}
    slip = {"top": SlipBC(lambda x, t: x[:, 1] - t)}
    spec = {**slip, **spec} if order == "slip-first" else {**spec, **slip}
    con = Constraints(space, spec)
    dirichlet, slip_owners = _per_node_owners(con)
    assert np.array_equal(con.dirichlet_nodes, sorted(dirichlet))
    assert np.array_equal(con.slip_nodes, sorted(slip_owners))
    bottom, side, top = (set(space.label_nodes(lb).tolist()) for lb in ("bottom", "side", "top"))
    assert bottom & side and top & side
    assert all(dirichlet[nd] is spec["side"] for nd in bottom & side)
    assert not (top & side) & set(slip_owners)
    for t in (0.0, 0.25):
        got = con.fixed_values(t)
        assert np.array_equal(got, _per_node_fixed_values(con, t))
    # the side's constant value at a node of the bottom edge
    nd = min(bottom & side)
    assert np.array_equal(got[np.searchsorted(con.fixed, 3 * nd + np.arange(3))],
                          [0.1, -0.2, 0.3])


def test_bc_shared_by_two_labels():
    space = _mixed_space()
    shake = DirichletBC(lambda x, t: np.outer(np.sin(7.0 * t) * (1.0 + x[:, 2]),
                                              [1e-3, -2e-3, 5e-4]))
    con = Constraints(space, {"bottom": shake, "side": shake})
    union = np.union1d(space.label_nodes("bottom"), space.label_nodes("side"))
    assert np.array_equal(con.dirichlet_nodes, union)
    for t in (0.0, 0.3):
        got = con.fixed_values(t)
        assert np.isfinite(got).all()
        assert np.array_equal(got, _per_node_fixed_values(con, t))


def test_fixed_values_keep_last_time():
    # a time-dependent set evaluates once per new time and returns the
    # same read-only array while the time is asked for again
    space = _mixed_space()
    times = []

    def lift(x, t):
        times.append(t)
        return x[:, 0] * t

    con = Constraints(space, {"bottom": DirichletBC(), "top": SlipBC(lift)})
    first = con.fixed_values(0.5)
    assert not first.flags.writeable
    assert con.fixed_values(0.5) is first
    second = con.fixed_values(0.75)
    assert second is not first and not second.flags.writeable
    assert con.fixed_values(0.5) is not first
    assert times == [0.5, 0.75, 0.5]
    assert np.array_equal(con.fixed_values(0.5), first)


def test_reduced_rhs_of_zero_values_equals_product_path():
    space = _mixed_space()
    rng = np.random.default_rng(4)
    raw = sp.random(space.n_dofs, space.n_dofs, density=0.05, random_state=5)
    con = Constraints(space, {"bottom": DirichletBC(0.0), "top": SlipBC(0.0)})
    _, coupling = con.reduce((raw + raw.T).tocsr())
    assert coupling.nnz
    rhs = rng.standard_normal(space.n_dofs)
    rhs[::7] = -0.0
    zeros = np.zeros(len(con.fixed))
    want = con.to_frame(rhs)[con.free] - coupling @ zeros
    assert con.reduced_rhs(rhs, coupling, zeros).tobytes() == want.tobytes()
    assert con.reduced_rhs(rhs, coupling, con.fixed_values(0.0)).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2])
def test_batched_slip_frames_equal_per_node_loop(p):
    from viscofem.mesh import build_annulus_mesh

    space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 12, 3)), p)
    con = Constraints(space, {"outer": DirichletBC(), "inner": SlipBC(0.1)})
    frames, _ = per_node_rotation(con)
    assert len(frames) == len(con.slip_nodes) > 0
    assert np.array_equal(con.slip_frames, frames)


def _bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", ["box", "annulus"])
@pytest.mark.parametrize("p", [1, 2])
def test_frame_maps_equal_rotation_products(kind, p):
    # the frame maps rotate only the slip nodes' blocks, and equal the
    # sparse products with the rotation bit for bit, signed zeros included
    from viscofem.mesh import build_annulus_mesh

    if kind == "box":
        tagger = box_face_tagger(faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")})
        space = FeSpace(build_box_mesh(2, tagger=tagger), p)
        con = Constraints(space, {"bottom": DirichletBC()})
        assert not len(con.slip_nodes)
    else:
        space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 12, 3)), p)
        con = Constraints(space, {"outer": DirichletBC(), "inner": SlipBC(0.1)})
        assert len(con.slip_nodes)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(space.n_dofs)
    u[rng.random(space.n_dofs) < 0.3] = 0.0
    u[rng.random(space.n_dofs) < 0.3] = -0.0
    _, rotation = per_node_rotation(con)
    for got, want in ((con.to_frame(u), rotation.T @ u), (con.from_frame(u), rotation @ u)):
        assert np.array_equal(_bits(got), _bits(want))
        # a new array, which callers may write into
        assert not np.shares_memory(got, u)


@pytest.mark.parametrize("kind, p", [("annulus", 1), ("annulus", 2), ("box", 3)])
def test_reduce_equals_rotation_products(kind, p):
    # rotating the slip nodes' blocks gives the sparse products R'AR bit
    # for bit, and in their index order, which sets the order Jacobi-CG's
    # products sum in
    from viscofem.mesh import build_annulus_mesh

    if kind == "box":
        space = _mixed_space(p)
        con = Constraints(space, {"bottom": DirichletBC(), "side": DirichletBC(),
                                  "top": SlipBC(0.0)})
    else:
        space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 12, 3)), p)
        con = Constraints(space, {"outer": DirichletBC(), "inner": SlipBC(0.1)})
    assert len(con.slip_nodes)
    ops = OperatorSet(space, MaterialModel(1.0, 0.4, 0.6, arms=((2.5, 1.0),)))
    _, rotation = per_node_rotation(con)
    for a in (ops.mass, ops.elastic, ops.deviatoric, (ops.mass + ops.elastic).tocsr()):
        a_ff, a_fx = con.reduce(a)
        rows = (rotation.T @ a @ rotation).tocsr()[con.free]
        for got, cols in ((a_ff, con.free), (a_fx, con.fixed)):
            want = rows[:, cols].tocsr()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(_bits(got.data), _bits(want.data))


def _row_unique_numbering(vertex_tuples, n_vertices):
    """Oracle numbering: np.unique over the sorted vertex rows."""
    rows = np.sort(vertex_tuples, axis=-1).reshape(-1, vertex_tuples.shape[-1])
    distinct, index = np.unique(rows, axis=0, return_inverse=True)
    return index.reshape(vertex_tuples.shape[:-1]), len(distinct)


@pytest.mark.parametrize("kind", ["box", "annulus"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_dof_map_matches_row_unique_numbering(monkeypatch, kind, p):
    from viscofem import fespace
    from viscofem.mesh import build_annulus_mesh

    mesh = build_box_mesh(3) if kind == "box" else build_annulus_mesh(0.5, 1.0, 0.4, (2, 6, 2))
    got = FeSpace(mesh, p)
    monkeypatch.setattr(fespace, "_number_entities", _row_unique_numbering)
    want = FeSpace(mesh, p)
    assert got.n_scalar_dofs == want.n_scalar_dofs
    assert got.cell_dofs.dtype == want.cell_dofs.dtype
    assert np.array_equal(got.cell_dofs, want.cell_dofs)
    assert np.array_equal(got.dof_coords, want.dof_coords)


@pytest.mark.parametrize("kind", ["box", "annulus"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_facet_local_matches_per_vertex_search(kind, p):
    from viscofem.mesh import build_annulus_mesh

    mesh = build_box_mesh(3) if kind == "box" else build_annulus_mesh(0.5, 1.0, 0.4, (2, 6, 2))
    space = FeSpace(mesh, p)
    # oracle: each facet vertex's slot in its owner tet, one search each
    want = np.empty((len(mesh.facet_owner), 3), dtype=np.int64)
    for i, (facet, owner) in enumerate(zip(mesh.boundary_facets, mesh.facet_owner)):
        tet = mesh.tets[owner]
        for s, gv in enumerate(facet):
            want[i, s] = int(np.where(tet == gv)[0][0])
    assert space.facet_local.dtype == want.dtype
    assert np.array_equal(space.facet_local, want)


def _per_node_reference_basis(p, points):
    """The nodal basis evaluated node by node and factor by factor, with
    np.delete for the products that leave one factor out."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = reference_nodes(p)
    nq = pts.shape[0]
    values = np.empty((nq, len(nodes)))
    dlam = np.empty((nq, len(nodes), 4))
    for m, alpha in enumerate(nodes):
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
    grad_lambda = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0]])
    return values, np.einsum("qmd,di->qmi", dlam, grad_lambda)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reference_basis_bit_equal_to_per_node_evaluation(p):
    space = FeSpace(build_box_mesh(2), p)
    # the volume rules of the forms and the loads, the facet points of the
    # loads' facet rule in each owner embedding, and the reference nodes
    # the nodal stress recovery evaluates at
    point_sets = [quadrature(2 * p).points, quadrature(2 * p + 2).points]
    _, first = np.unique(space.facet_local, axis=0, return_index=True)
    tri = triangle_quadrature(2 * p + 2).points
    for f in first:
        points = np.zeros((len(tri), 4))
        points[:, space.facet_local[f]] = tri
        point_sets.append(points)
    point_sets.append(np.array([np.array(a) / p for a in reference_nodes(p)]))
    assert len(point_sets) > 3
    for points in point_sets:
        got = reference_basis(p, points)
        want = _per_node_reference_basis(p, points)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


# -- the space's nested-dissection order -------------------------------------


def _annulus_slip_constraints(p):
    from viscofem.mesh import build_annulus_mesh

    space = FeSpace(build_annulus_mesh(0.5, 1.0, 0.4, (2, 8, 2)), p)
    return Constraints(space, {"outer": DirichletBC((0.0, 0.0, 0.0)), "inner": SlipBC(0.0)})


def _box_clamped_constraints(p):
    tagger = box_face_tagger(faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")})
    space = FeSpace(build_box_mesh(3, tagger=tagger), p)
    return Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})


@pytest.mark.parametrize("make", [_box_clamped_constraints, _annulus_slip_constraints])
@pytest.mark.parametrize("p", [1, 2])
def test_free_dofs_hold_each_free_dof_once_by_node_rank(make, p):
    con = make(p)
    space = con.space
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[con.fixed] = False
    assert np.array_equal(np.sort(con.free), np.nonzero(mask)[0])
    # node rank, then component: a node's free components are adjacent
    rank = np.empty(space.n_scalar_dofs, dtype=np.int64)
    rank[space.node_order] = np.arange(space.n_scalar_dofs)
    node_rank = rank[con.free // 3]
    assert np.all(np.diff(node_rank) >= 0)
    assert np.all(np.diff(con.free)[np.diff(node_rank) == 0] > 0)
    assert not np.array_equal(con.free, np.nonzero(mask)[0])


def test_node_order_depends_only_on_the_space():
    from viscofem.mesh import build_annulus_mesh

    for build in (lambda: build_box_mesh(3), lambda: build_annulus_mesh(0.5, 1.0, 0.4, (2, 8, 2))):
        mesh = build()
        orders = [FeSpace(mesh, 2).node_order, FeSpace(mesh, 2).node_order,
                  FeSpace(build(), 2).node_order]
        assert np.array_equal(np.sort(orders[0]), np.arange(len(orders[0])))
        for order in orders[1:]:
            assert np.array_equal(order, orders[0])


def test_node_order_computed_once_for_all_systems_of_a_space(monkeypatch):
    import scipy.sparse.linalg as spla

    from viscofem import fespace
    from viscofem.dynamics import OperatorSet, ReducedStepper, static_solve
    from viscofem.material import MaterialModel

    calls = []
    dissect = fespace.nested_dissection
    monkeypatch.setattr(fespace, "nested_dissection",
                        lambda *args: calls.append(1) or dissect(*args))
    orderings = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: orderings.append(
        kwargs["permc_spec"]) or splu(*args, **kwargs))

    def tagger(centroid, normal):
        if abs(centroid[2]) < 1e-10:
            return BoundaryTag(BoundaryKind.DIRICHLET, "bottom")
        if abs(centroid[2] - 1.0) < 1e-10 and centroid[0] <= 0.5:
            return BoundaryTag(BoundaryKind.DIRICHLET, "held")
        return BoundaryTag(BoundaryKind.NEUMANN, "free")

    space = FeSpace(build_box_mesh(3, tagger=tagger), 2)
    ops = OperatorSet(space, MaterialModel.from_engineering(
        100.0, 1e5, 0.3, arms=((1e5, 1e-2),)))
    zero = DirichletBC((0.0, 0.0, 0.0))
    held = Constraints(space, {"bottom": zero, "held": DirichletBC((0.0, 0.0, 0.1))})
    released = Constraints(space, {"bottom": zero})
    # constraints that are never reduced never order the space
    assert calls == []
    direct = LinearSolver("direct")
    static_solve(ops, held, solver=direct)
    ReducedStepper(ops, held, 0.01, solver=direct)
    ReducedStepper(ops, released, 0.01, solver=direct)
    assert calls == [1]
    assert orderings == ["NATURAL"] * 3


def _separator_violations(space):
    """The splits of the space's dissection whose children share a cell."""
    from viscofem.fespace import nested_dissection

    rank, splits = nested_dissection(space.dof_coords, space.cell_dofs)
    assert np.array_equal(np.sort(rank), np.arange(space.n_scalar_dofs))
    assert len(splits) > 2
    cell_rank = rank[space.cell_dofs]
    bad = []
    for first, left, right, _ in splits:
        in_left = ((cell_rank >= first) & (cell_rank < first + left)).any(axis=1)
        right_first = first + left
        in_right = ((cell_rank >= right_first) & (cell_rank < right_first + right)).any(axis=1)
        if np.any(in_left & in_right):
            bad.append((first, left, right))
    return bad


@pytest.mark.parametrize("kind, p", [("box", 1), ("box", 3), ("annulus", 1), ("annulus", 3),
                                     ("seal annulus", 2)])
def test_every_separator_separates(kind, p):
    from viscofem.mesh import build_annulus_mesh

    meshes = {
        "box": lambda: build_box_mesh(4),
        "annulus": lambda: build_annulus_mesh(0.5, 1.0, 0.4, (2, 12, 3)),
        "seal annulus": lambda: build_annulus_mesh(0.006, 0.01, 0.02, (3, 16, 4)),
    }
    assert _separator_violations(FeSpace(meshes[kind](), p)) == []
