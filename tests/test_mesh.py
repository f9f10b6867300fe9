"""Mesh construction, tagging, and geometry checks."""
import numpy as np
import pytest

from viscofem.mesh import (
    BoundaryKind,
    BoundaryTag,
    box_face_tagger,
    build_annulus_mesh,
    build_box_mesh,
)
from oracles import facet_centroids, tet_volumes


def test_single_cell_kuhn_counts():
    mesh = build_box_mesh(1)
    assert mesh.n_vertices == 8
    assert mesh.n_tets == 6
    assert len(mesh.boundary_facets) == 12


def test_volume_partition_of_unity():
    mesh = build_box_mesh(2)
    vols = tet_volumes(mesh)
    assert (vols > 0).all()
    assert abs(vols.sum() - 1.0) < 1e-14


def test_structured_mesh_spacing():
    mesh = build_box_mesh(5)
    # structured box: cell edge length = extent / n
    assert mesh.n_tets == 6 * 125
    xs = np.unique(mesh.vertices[:, 0])
    assert np.allclose(np.diff(xs), 0.2)


def test_refinement_scaling():
    coarse = build_box_mesh(2)
    fine = build_box_mesh(4)
    assert fine.n_tets == 8 * coarse.n_tets
    h_coarse = np.diff(np.unique(coarse.vertices[:, 0]))[0]
    h_fine = np.diff(np.unique(fine.vertices[:, 0]))[0]
    assert abs(h_fine - h_coarse / 2) < 1e-15


def test_boundary_cover_and_face_areas():
    extent = (2.0, 1.0, 0.5)
    mesh = build_box_mesh((4, 2, 1), extent=extent)
    areas = mesh.facet_areas()
    centroids = facet_centroids(mesh)
    face_area = {
        0: extent[1] * extent[2],
        1: extent[0] * extent[2],
        2: extent[0] * extent[1],
    }
    for axis in range(3):
        for value in (0.0, extent[axis]):
            on_face = np.abs(centroids[:, axis] - value) < 1e-12
            total = areas[on_face].sum()
            assert abs(total - face_area[axis]) < 1e-12 * face_area[axis]
    # facets partition the boundary: total facet area = box surface area
    surface = 2 * sum(face_area.values())
    assert abs(areas.sum() - surface) < 1e-12 * surface


def test_interior_facets_shared_conformity():
    mesh = build_box_mesh(2)
    counts = {}
    faces = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
    for tet in mesh.tets:
        for loc in faces:
            key = frozenset(int(tet[i]) for i in loc)
            counts[key] = counts.get(key, 0) + 1
    boundary = {frozenset(f) for f in mesh.boundary_facets.tolist()}
    for key, cnt in counts.items():
        assert cnt == (1 if key in boundary else 2)


def test_box_facet_normals():
    mesh = build_box_mesh(1)
    centroids = facet_centroids(mesh)
    normals = mesh.facet_normals()
    bottom = np.nonzero(np.abs(centroids[:, 2]) < 1e-12)[0]
    for idx in bottom:
        assert np.allclose(normals[idx], [0, 0, -1])
    right = np.nonzero(np.abs(centroids[:, 0] - 1.0) < 1e-12)[0]
    for idx in right:
        assert np.allclose(normals[idx], [1, 0, 0])


def test_tagger_assigns_labels():
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    mesh = build_box_mesh(2, tagger=tagger)
    bottom = mesh.facets_with_label("bottom")
    assert len(bottom) == 8
    assert np.all(np.abs(facet_centroids(mesh)[bottom][:, 2]) < 1e-12)
    # every facet carries exactly one tag
    assert len(mesh.facet_tags) == len(mesh.boundary_facets)
    kinds = {mesh.tags[t].kind for t in mesh.facet_tags}
    assert kinds == {BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN}


def test_annulus_geometry():
    r_in, r_out, length = 0.006, 0.01, 0.02
    mesh = build_annulus_mesh(r_in, r_out, length, (4, 24, 5))
    assert mesh.n_tets == 2880  # matches the seal model size
    assert (tet_volumes(mesh) > 0).all()
    vol = tet_volumes(mesh).sum()
    exact = np.pi * (r_out**2 - r_in**2) * length
    # polygonal radius defect is O(n_theta^-2)
    assert abs(vol - exact) / exact < 2.0 * (2 * np.pi / 24) ** 2 / 6


def test_annulus_coarse_orientation():
    mesh = build_annulus_mesh(1.0, 2.0, 1.0, (1, 4, 1))
    assert (tet_volumes(mesh) > 0).all()


def test_annulus_inner_normals_point_to_axis():
    mesh = build_annulus_mesh(0.006, 0.01, 0.02, (2, 12, 3))
    inner = mesh.facets_with_label("inner")
    assert len(inner) > 0
    normals = mesh.facet_normals()[inner]
    centroids = facet_centroids(mesh)[inner]
    radial = centroids[:, :2] / np.linalg.norm(centroids[:, :2], axis=1)[:, None]
    assert (np.einsum("ij,ij->i", normals[:, :2], radial) < 0).all()
    theta = np.arctan2(centroids[:, 1], centroids[:, 0])
    approx = -np.stack([np.cos(theta), np.sin(theta), 0 * theta], axis=1)
    # facet normals agree with the cylinder normal up to the facet tolerance
    assert np.abs(np.einsum("ij,ij->i", normals, approx) - 1.0).max() < 0.05


def test_annulus_tags_partition():
    mesh = build_annulus_mesh(0.5, 1.0, 2.0, (2, 8, 3))
    labels = [mesh.tags[t].label for t in mesh.facet_tags]
    assert set(labels) == {"inner", "outer", "cap"}
    kinds = {tag.label: tag.kind for tag in mesh.tags}
    assert kinds["inner"] == BoundaryKind.SLIP
    assert kinds["outer"] == BoundaryKind.DIRICHLET
    assert kinds["cap"] == BoundaryKind.NEUMANN


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        build_annulus_mesh(1.0, 0.5, 1.0, (2, 8, 2))
    with pytest.raises(ValueError):
        build_annulus_mesh(0.5, 1.0, 1.0, (2, 2, 2))
    with pytest.raises(ValueError):
        build_box_mesh(0)
