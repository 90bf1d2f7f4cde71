import numpy as np
import pytest

from polyagg import _kernels
from polyagg.geometry import COLLINEAR_TOL, KERNEL_REL_TOL
from polyagg.quality import mesh_quality_report, scores_from_points

from conftest import (
    NON_STAR_POLY,
    equilateral_cell,
    grid_mesh,
    kernel_sampling_oracle,
    mixed_region_mesh,
    quality_cases,
    random_polygon,
    ref_quality_scores,
    square_cell,
    tri_grid_mesh,
    unit_triangle_cell,
)
from polyagg import geometry


def combined(r1, r2, r3, r4):
    return np.sqrt(r1 * (r2 + r3 + r4) / 3.0)


def test_rho1_square():
    assert scores_from_points(square_cell()).rho1 == pytest.approx(1.0, abs=1e-12)


def test_rho1_non_star_shaped_zero():
    assert scores_from_points(NON_STAR_POLY).rho1 == 0.0
    assert not kernel_sampling_oracle(NON_STAR_POLY)


def test_rho1_concave_quad():
    v = scores_from_points([[0, 0], [2, 0], [2, 2], [1, 0.5]]).rho1
    # kernel area 5/6 by half-plane clipping, cell area 3/2
    assert 0.0 < v < 1.0
    assert v == pytest.approx((5.0 / 6.0) / 1.5, rel=1e-9)


def test_rho2_square():
    assert scores_from_points(square_cell()).rho2 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_rho2_equilateral():
    expected = np.sqrt(np.sqrt(3.0) / 4.0)  # sqrt(area), below the unit edge
    assert scores_from_points(equilateral_cell()).rho2 == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.65804, abs=5e-6)


def test_rho2_square_with_midside_node():
    r2 = scores_from_points([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]]).rho2
    assert r2 == pytest.approx(0.5 / np.sqrt(2.0), abs=1e-12)
    assert r2 == pytest.approx(0.35355, abs=5e-6)


def test_rho3_values():
    assert scores_from_points(unit_triangle_cell()).rho3 == 1.0
    assert scores_from_points(square_cell()).rho3 == 0.75
    hexagon = [[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 7)[:-1]]
    assert scores_from_points(hexagon).rho3 == 0.5


def test_rho4_square_and_triangle():
    assert scores_from_points(square_cell()).rho4 == 1.0
    assert scores_from_points(unit_triangle_cell()).rho4 == 1.0


def test_rho4_split_edge():
    r4 = scores_from_points([[0, 0], [0.25, 0], [2, 0], [2, 1], [0, 1]]).rho4
    assert r4 == pytest.approx(0.25 / 1.75, rel=1e-12)
    assert r4 == pytest.approx(1.0 / 7.0, rel=1e-9)


def test_rho_square():
    s = scores_from_points(square_cell())
    assert s.rho == pytest.approx(combined(1, 1 / np.sqrt(2), 0.75, 1), abs=1e-12)
    assert s.rho == pytest.approx(0.905006, abs=1e-6)


def test_rho_equilateral():
    s = scores_from_points(equilateral_cell())
    r2 = np.sqrt(np.sqrt(3.0) / 4.0)
    assert s.rho == pytest.approx(combined(1, r2, 1, 1), abs=1e-12)
    assert s.rho == pytest.approx(0.941282, abs=1e-6)


def test_rho_zero_iff_not_star_shaped():
    s = scores_from_points(NON_STAR_POLY)
    assert s.rho == 0.0 and s.rho1 == 0.0


def test_monotone_hanging_node():
    base = scores_from_points(square_cell())
    split = scores_from_points([[0, 0], [0.3, 0], [1, 0], [1, 1], [0, 1]])
    assert split.rho2 < base.rho2
    assert split.rho3 < base.rho3
    assert split.rho4 < base.rho4
    assert split.rho < base.rho


def test_invariances(rng):
    checked = 0
    for _ in range(120):
        poly = random_polygon(rng)
        if not geometry.is_simple_polygon(poly):
            continue
        poly = geometry.ensure_ccw(poly)
        base = scores_from_points(poly)
        for t in base.as_tuple():
            assert 0.0 <= t <= 1.0
        s, ang, shift = 2.7, 0.61, np.array([3.2, -1.4])
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = scores_from_points(s * poly @ R.T + shift)
        assert np.allclose(moved.as_tuple(), base.as_tuple(), atol=1e-12)
        checked += 1
    assert checked > 60


def test_rho_zero_matches_combination_rule(rng):
    for _ in range(80):
        poly = random_polygon(rng, kind=2)
        if not geometry.is_simple_polygon(poly):
            continue
        poly = geometry.ensure_ccw(poly)
        s = scores_from_points(poly)
        assert (s.rho == 0.0) == (s.rho1 == 0.0)


def test_mesh_report_uniform_grid():
    m = grid_mesh(4, 4)
    rep = mesh_quality_report(m)
    vals = rep.scores[:, 4]
    assert np.allclose(vals, vals[0], atol=1e-12)
    assert rep.min_rho == pytest.approx(0.905006, abs=1e-6)


def test_mesh_report_triangles():
    m = tri_grid_mesh(2, 2)
    rep = mesh_quality_report(m)
    # right isoceles triangle: rho2 = sqrt(area)/hyp with legs 0.5
    r2 = np.sqrt(0.125) / np.sqrt(0.5)
    expected = combined(1.0, r2, 1.0, 1.0)
    assert rep.min_rho == pytest.approx(expected, rel=1e-12)
    assert rep.mean_rho == pytest.approx(expected, rel=1e-12)


def test_mesh_report_with_bad_cell():
    pts = np.vstack([NON_STAR_POLY, [[10, 0], [11, 0], [11, 1], [10, 1]]])
    m_cells = [list(range(8)), [8, 9, 10, 11]]
    from polyagg.mesh import build_mesh

    m = build_mesh(pts, m_cells)
    rep = mesh_quality_report(m)
    assert rep.min_rho == 0.0


def _scores(pts):
    return _kernels.quality_scores(pts)


def _reference(poly):
    return np.array(ref_quality_scores(poly, COLLINEAR_TOL, KERNEL_REL_TOL), dtype=float)


def test_quality_scores_match_reference(rng):
    cells = quality_cases(rng)
    single = [_scores(poly) for poly in cells]
    for poly, out in zip(cells, single):
        assert out.shape == (5,)
        assert np.array_equal(out, _reference(poly))
    assert sum(out[0] == 0.0 for out in single) > 50  # non-star-shaped cells score 0
    for n in sorted({len(p) for p in cells}):
        stack = np.array([p for p in cells if len(p) == n])
        if len(stack) % 2 == 0:  # two leading axes
            stack = stack.reshape(2, -1, n, 2)
        out = _scores(stack)
        assert out.shape == stack.shape[:-2] + (5,)
        for i in np.ndindex(stack.shape[:-2]):
            assert np.array_equal(out[i], _reference(stack[i]))


def test_quality_score_blocks_agree(monkeypatch, rng):
    """Splitting a stack into memory blocks does not change any value."""
    stack = np.array([random_polygon(rng, kind=t % 4)[:4] for t in range(60)])
    stack[::5, 2] = stack[::5, 1]  # zero-length edges
    whole = _scores(stack)
    monkeypatch.setattr(_kernels, "_QUALITY_BLOCK", 3 * 16)  # 3 quads per block
    assert np.array_equal(_scores(stack), whole)
    assert np.array_equal(_scores(stack[:0]), np.zeros((0, 5)))


def test_mesh_report_one_call_per_vertex_count(monkeypatch):
    mesh = mixed_region_mesh()
    shapes = []
    scores = _kernels.quality_scores

    def counted(pts, *args):
        shapes.append(np.shape(pts))
        return scores(pts, *args)

    monkeypatch.setattr(_kernels, "quality_scores", counted)
    rep = mesh_quality_report(mesh)
    counts = sorted({len(ids) for ids in mesh.cells})
    assert sorted(s[-2] for s in shapes) == counts and len(counts) > 3
    assert rep.scores.shape == (mesh.n_cells, 5) and rep.scores.dtype == np.float64
    for ids, row in zip(mesh.cells, rep.scores):
        assert np.array_equal(row, _reference(mesh.points[ids]))
