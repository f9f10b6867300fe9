"""Reference bases, quadrature, dof maps, and constraint application."""
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from viscofem.dynamics import LinearSolver
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
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh


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
    system = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))}).reduce(mat)
    u = system.solve(rhs, system.constraints.fixed_values(0.0))
    fixed = system.constraints.fixed
    assert np.abs(u[fixed]).max() == 0.0


def test_dirichlet_identity_prescribed_value():
    space = _bottom_space(1, 1)
    mat = sp.identity(space.n_dofs, format="csr")
    rhs = np.zeros(space.n_dofs)
    system = Constraints(space, {"bottom": DirichletBC((1.0, 2.0, 3.0))}).reduce(mat)
    u = system.solve(rhs, system.constraints.fixed_values(0.0))
    bottom = space.label_nodes("bottom")
    assert np.allclose(u.reshape(-1, 3)[bottom], [1.0, 2.0, 3.0])


def test_dirichlet_matches_dense_reduced_solve():
    space = _bottom_space(1, 1)  # 24 dofs: small enough for a dense oracle
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((space.n_dofs, space.n_dofs))
    dense = raw @ raw.T + space.n_dofs * np.eye(space.n_dofs)
    rhs = rng.standard_normal(space.n_dofs)
    system = Constraints(space, {"bottom": DirichletBC(0.0)}).reduce(sp.csr_matrix(dense))
    con = system.constraints
    u = system.solve(rhs, con.fixed_values(0.0), LinearSolver(method="direct"))
    free = con.free
    expect = np.linalg.solve(dense[np.ix_(free, free)], rhs[free])
    assert np.abs(u[free] - expect).max() < 1e-10 * np.abs(expect).max()


def test_slip_flat_face():
    tagger = box_face_tagger(faces={"z+": BoundaryTag(BoundaryKind.SLIP, "top")})
    space = FeSpace(build_box_mesh(2, tagger=tagger), 1)
    mat = sp.identity(space.n_dofs, format="csr")
    c = 0.3
    system = Constraints(space, {"top": SlipBC(c)}).reduce(mat)
    con = system.constraints
    for frame in con.slip_frames.values():
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-14
        assert np.allclose(frame[:, 0], [0, 0, 1])
    u = system.solve(np.zeros(space.n_dofs), con.fixed_values(0.0))
    top = space.label_nodes("top")
    uz = u.reshape(-1, 3)[top, 2]
    assert np.abs(uz - c).max() < 1e-12
    # u.n = 0 everywhere when nothing is prescribed
    system0 = Constraints(space, {"top": SlipBC(0.0)}).reduce(mat)
    u0 = system0.solve(np.zeros(space.n_dofs), np.zeros(len(con.fixed)))
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
    system = Constraints(space, {"top": SlipBC(0.25)}).reduce(sp.csr_matrix(dense))
    con = system.constraints
    u = system.solve(rhs, con.fixed_values(0.0), LinearSolver(method="direct"))
    top = space.label_nodes("top")
    assert np.abs(u.reshape(-1, 3)[top, 2] - 0.25).max() < 1e-12
    # residual orthogonal to the free subspace
    resid = con.to_frame(dense @ u - rhs)
    assert np.abs(resid[con.free]).max() < 1e-9


def test_fixed_values_match_per_node_evaluation():
    tagger = box_face_tagger(faces={
        "z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom"),
        "x-": BoundaryTag(BoundaryKind.DIRICHLET, "side"),
        "z+": BoundaryTag(BoundaryKind.SLIP, "top"),
    })
    space = FeSpace(build_box_mesh(2, tagger=tagger), 2)
    spec = {
        "bottom": DirichletBC(
            lambda x, t: np.stack([x[:, 0] * t, x[:, 1] - t, x[:, 0] * x[:, 1] + t], axis=1)
        ),
        "side": DirichletBC((0.1, -0.2, 0.3)),
        "top": SlipBC(lambda x, t: x[:, 0] * x[:, 1] - 2.0 * t),
    }
    con = Constraints(space, spec)
    assert con.dirichlet_nodes and con.slip_nodes
    coords = space.dof_coords
    pos = {dof: i for i, dof in enumerate(con.fixed)}
    for t in (0.0, 0.37):
        want = np.full(len(con.fixed), np.nan)
        for nd, bc in con.dirichlet_nodes.items():
            val = np.broadcast_to(bc.value(coords[[nd]], t), (1, 3))[0]
            for a in range(3):
                want[pos[3 * nd + a]] = val[a]
        for nd, bc in con.slip_nodes.items():
            want[pos[3 * nd]] = np.atleast_1d(bc.normal_value(coords[[nd]], t))[0]
        assert np.array_equal(con.fixed_values(t), want)
