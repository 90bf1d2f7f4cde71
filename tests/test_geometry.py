import numpy as np
import pytest

from polyagg import geometry
from polyagg.mesh import CellError, build_mesh

from conftest import (
    NON_STAR_POLY,
    kernel_sampling_oracle,
    quality_cases,
    random_polygon,
    ref_convex_clip,
    ref_ear_clip,
    ref_is_simple_polygon,
    ref_kernel_clip,
    ref_polygon_area_centroid,
    ref_polygon_diameter,
    sees_all_vertices,
)


def test_cell_geometry_unit_square():
    pts = geometry.as_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    area, cx, cy = geometry.polygon_area_centroid(pts)
    assert area == pytest.approx(1.0, abs=1e-15)
    assert [cx, cy] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert geometry.polygon_diameter(pts) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_cell_geometry_triangle():
    pts = geometry.as_points([[0, 0], [1, 0], [0, 1]])
    area, cx, cy = geometry.polygon_area_centroid(pts)
    assert area == pytest.approx(0.5)
    assert [cx, cy] == pytest.approx([1 / 3, 1 / 3])
    assert geometry.polygon_diameter(pts) == pytest.approx(np.sqrt(2.0))


def test_cell_geometry_rectangle():
    pts = geometry.as_points([[0, 0], [2, 0], [2, 1], [0, 1]])
    area, cx, cy = geometry.polygon_area_centroid(pts)
    assert area == pytest.approx(2.0)
    assert [cx, cy] == pytest.approx([1.0, 0.5])
    assert geometry.polygon_diameter(pts) == pytest.approx(np.sqrt(5.0))


def test_degenerate_cell_rejected():
    with pytest.raises(CellError, match="^cell 0 is not a simple polygon$"):
        build_mesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


def test_cw_input_becomes_ccw():
    pts = geometry.ensure_ccw([[0, 0], [0, 1], [1, 1], [1, 0]])
    assert geometry.polygon_area(pts) > 0


def test_kernel_convex_is_whole_polygon():
    poly = np.array([[0, 0], [3, 0], [4, 2], [1, 3], [-1, 1]], dtype=float)
    kern = geometry.polygon_kernel_points(poly)
    assert abs(geometry.polygon_area(kern)) == pytest.approx(geometry.polygon_area(poly), rel=1e-12)


def test_kernel_non_star_shaped_empty():
    kern = geometry.polygon_kernel_points(NON_STAR_POLY)
    assert len(kern) == 0 or abs(geometry.polygon_area(kern)) < 1e-12
    assert not kernel_sampling_oracle(NON_STAR_POLY)


def test_kernel_concave_quad():
    poly = np.array([[0, 0], [2, 0], [2, 2], [1, 0.5]], dtype=float)
    kern = geometry.polygon_kernel_points(poly)
    ka = abs(geometry.polygon_area(kern))
    assert 0.0 < ka < geometry.polygon_area(poly)
    assert kernel_sampling_oracle(poly)
    # every kernel vertex must see every polygon vertex
    eps = 1e-9 * geometry.polygon_diameter(poly)
    centroid = kern.mean(axis=0)
    assert sees_all_vertices(poly, centroid, eps)


def test_kernel_contained_in_polygon(rng):
    for _ in range(60):
        poly = random_polygon(rng)
        if not geometry.is_simple_polygon(poly):
            continue
        poly = geometry.ensure_ccw(poly)
        kern = geometry.polygon_kernel_points(poly)
        for p in kern:
            assert geometry.point_in_polygon(poly, p) >= 0


def test_triangulate_triangle_identity():
    poly = geometry.as_points([[0, 0], [1, 0], [0, 1]])
    tris = poly[geometry.ear_clip(poly)]
    assert tris.shape == (1, 3, 2)


def test_triangulate_pentagon_area():
    poly = geometry.as_points([[0, 0], [2, 0], [2.5, 1.5], [1, 3], [-0.5, 1.5]])
    tris = poly[geometry.ear_clip(poly)]
    assert len(tris) == 3
    total = sum(abs(geometry.polygon_area(t)) for t in tris)
    assert total == pytest.approx(geometry.polygon_area(poly), rel=1e-12)


def test_triangulate_concave_quad_inside():
    poly = np.array([[0, 0], [2, 0], [2, 2], [1, 0.5]], dtype=float)
    tris = poly[geometry.ear_clip(poly)]
    assert len(tris) == 2
    for t in tris:
        centroid = t.mean(axis=0)
        assert geometry.point_in_polygon(poly, centroid) == 1
    total = sum(abs(geometry.polygon_area(t)) for t in tris)
    assert total == pytest.approx(geometry.polygon_area(poly), rel=1e-12)


def test_triangulate_with_hanging_nodes():
    poly = geometry.as_points([[0, 0], [0.3, 0], [1, 0], [1, 1], [0.4, 1], [0, 1]])
    tris = poly[geometry.ear_clip(poly)]
    total = sum(abs(geometry.polygon_area(t)) for t in tris)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_ear_clip_triangle_needs_no_diameter(monkeypatch):
    """A triangle is its own ear: ear_clip returns it before it measures the
    polygon."""

    def no_diameter(pts):
        raise AssertionError("polygon_diameter called for a triangle")

    monkeypatch.setattr(geometry, "polygon_diameter", no_diameter)
    tris = geometry.ear_clip([[0, 0], [1, 0], [0, 1]])
    assert tris.dtype == np.int64 and tris.tolist() == [[0, 1, 2]]


def test_stacked_ear_clip_matches_per_polygon_reference(rng):
    """Each polygon of a stack is clipped into the triangles, in the order,
    that clipping it alone one vertex at a time gives; the rows of dropped
    straight vertices are -1.  A polygon the reference cannot clip makes
    its stack raise."""
    cells = quality_cases(rng) + [random_polygon(rng, kind=t % 4) for t in range(200)]
    by_n = {}
    for poly in cells:
        poly = geometry.ensure_ccw(poly)
        try:
            want = ref_ear_clip(poly)
        except geometry.GeometryError:
            with pytest.raises(geometry.GeometryError):
                geometry.ear_clip(poly)
            continue
        by_n.setdefault(len(poly), []).append((poly, want))
    dropped = 0
    for n, cases in by_n.items():
        got = geometry.ear_clip(np.stack([poly for poly, _ in cases]))
        assert got.shape == (len(cases), n - 2, 3)
        for tris, (poly, want) in zip(got, cases):
            kept = tris[..., 0] >= 0
            assert (tris[~kept] == -1).all() and np.array_equal(tris[kept], want)
            assert np.array_equal(geometry.ear_clip(poly), want)
            dropped += int((~kept).sum())
    assert dropped > 0 and len(by_n) > 10


def test_triangulate_random_polygons(rng):
    done = 0
    for _ in range(200):
        poly = random_polygon(rng)
        if not geometry.is_simple_polygon(poly):
            continue
        poly = geometry.ensure_ccw(poly)
        tris = geometry.ear_clip(poly)
        total = sum(abs(geometry.polygon_area(poly[t])) for t in tris)
        assert total == pytest.approx(abs(geometry.polygon_area(poly)), rel=1e-9)
        done += 1
    assert done > 100


def test_is_simple_rejects_bowtie():
    assert not geometry.is_simple_polygon([[0, 0], [1, 1], [1, 0], [0, 1]])


def test_convex_clip_quad():
    # the line x + y = 3 removes a corner triangle of area 1/2 from the quad
    quad = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    tri = np.array([[0, 0], [3, 0], [0, 3]], dtype=float)
    buf, m = geometry.kernel_clip(tri, 1e-12 * 3 * np.sqrt(2), start=quad)
    assert buf.shape == (7, 2) and m == 5
    assert abs(geometry.polygon_area(buf[:m])) == pytest.approx(3.5)
    assert geometry.polygon_area(buf) == geometry.polygon_area(buf[:m])


def random_convex_polygon(rng, n):
    """A random convex CCW n-gon: points on a circle, sheared, scaled and shifted."""
    angles = np.sort(rng.random(n) * 2 * np.pi)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    shear = np.array([[1.0 + rng.random(), rng.uniform(-0.5, 0.5)], [0.0, 0.5 + rng.random()]])
    return pts @ shear.T + rng.uniform(-1, 1, 2)


def test_kernel_clip_start_matches_convex_clip_reference(rng):
    """One convex polygon clips a stack of convex start polygons as the
    per-polygon Sutherland-Hodgman loop does, within 1e-12 x diameter."""
    partial = empty = 0
    for _ in range(40):
        clip = random_convex_polygon(rng, int(rng.integers(3, 9)))
        starts = np.array([random_convex_polygon(rng, 5) for _ in range(30)])
        eps = 1e-12 * geometry.polygon_diameter(clip)
        buf, m = geometry.kernel_clip(clip, eps, start=starts)
        assert buf.shape == (30, 5 + len(clip), 2) and m.shape == (30,)
        for start, b, k in zip(starts, buf, m.tolist()):
            ref = ref_convex_clip(start, clip)
            assert k == len(ref)
            np.testing.assert_allclose(b[:k], ref, rtol=0.0,
                                       atol=1e-12 * geometry.polygon_diameter(start))
            assert (b[k:] == (b[0] if k else 0.0)).all()
            partial += 0 < k and k != 5
            empty += k == 0
    assert partial > 100 and empty > 10


# non-simple cells of every kind the simplicity test rejects
NON_SIMPLE = {
    "bow-tie": [[0, 0], [1, 1], [1, 0], [0, 1]],
    "spike": [[0, 0], [2, 0], [2, 2], [2, 1], [0, 2]],
    "repeated vertex": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 1]],
    "zero-length edge": [[0, 0], [1, 0], [1, 0], [0, 1]],
    "collinear overlap": [[0, 0], [4, 0], [4, 2], [3, 2], [3, 0], [1, 0], [1, 2], [0, 2]],
    "vertex within snap": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 1 + 1e-13]],
    "pinched": [[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]],
    "pinched within eps": [[0, 0], [2, 0], [2, 2], [1, 1e-13], [0, 2]],
}


def _oracle_cases(rng):
    """Seeded random polygons of all four kinds, a third of them broken by
    moving one vertex onto, near or past another, plus vertices drawn from a
    small integer grid, where collinear and touching edges are common."""
    polys = []
    for t in range(400):
        poly = random_polygon(rng, kind=t % 4)
        if t % 3 == 1:
            k, other = rng.integers(len(poly), size=2)
            poly[k] = poly[other] + rng.normal(size=2) * rng.choice([0.0, 1e-13, 0.3, 2.0])
        polys.append(poly)
    for _ in range(300):
        polys.append(rng.integers(0, 4, size=(int(rng.integers(3, 8)), 2)).astype(float))
    polys += [np.array(p, dtype=float) for p in NON_SIMPLE.values()]
    return polys


def _assert_matches_reference(poly, area, cx, cy, diam, simple):
    assert (area, cx, cy) == ref_polygon_area_centroid(poly)
    assert diam == ref_polygon_diameter(poly)
    assert simple == ref_is_simple_polygon(poly)


def test_single_cell_primitives_match_reference(rng):
    simple = 0
    for poly in _oracle_cases(rng):
        out = geometry.polygon_area_centroid(poly)
        assert geometry.polygon_area(poly) == out[0]
        verdict = geometry.is_simple_polygon(poly)
        assert type(verdict) is bool
        _assert_matches_reference(poly, *out, geometry.polygon_diameter(poly), verdict)
        simple += verdict
        assert geometry.is_simple_polygon(poly, eps=0.05) == ref_is_simple_polygon(poly, eps=0.05)
    assert 300 < simple < 600  # both verdicts are well represented


def test_stacked_primitives_match_reference(rng):
    polys = _oracle_cases(rng)
    for n in sorted({len(p) for p in polys}):
        stack = np.array([p for p in polys if len(p) == n])
        if len(stack) % 2 == 0:  # two leading axes
            stack = stack.reshape(2, -1, n, 2)
        area, cx, cy = geometry.polygon_area_centroid(stack)
        diam = geometry.polygon_diameter(stack)
        simple = geometry.is_simple_polygon(stack)
        assert area.shape == diam.shape == simple.shape == stack.shape[:-2]
        assert np.array_equal(geometry.polygon_area(stack), area)
        for i in np.ndindex(stack.shape[:-2]):
            _assert_matches_reference(stack[i], area[i], cx[i], cy[i], diam[i], simple[i])


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_is_simple_rejects(name):
    poly = np.array(NON_SIMPLE[name], dtype=float)
    assert not ref_is_simple_polygon(poly)
    assert not geometry.is_simple_polygon(poly)
    assert not geometry.is_simple_polygon(poly[::-1])


def test_is_simple_stack_blocks_agree(monkeypatch, rng):
    """Splitting a stack into memory blocks does not change any verdict."""
    stack = np.array([random_polygon(rng, kind=0)[:4] for _ in range(50)])
    stack[::3, 2] = stack[::3, 0]
    whole = geometry.is_simple_polygon(stack)
    monkeypatch.setattr(geometry, "_SIMPLE_BLOCK", 16)
    assert np.array_equal(geometry.is_simple_polygon(stack), whole)
    assert 0 < whole.sum() < len(stack)


def _assert_kernel_matches_reference(poly, buf, m, eps):
    ref = ref_kernel_clip(poly, eps)
    assert buf.shape == (2 * len(poly) + 8, 2)
    assert m == len(ref) and np.array_equal(buf[:m], ref)
    # padding repeats row 0, so a whole-buffer shoelace is the kernel area
    assert (buf[m:] == (buf[0] if m else 0.0)).all()
    assert geometry.polygon_area(buf) == geometry.polygon_area(ref)


def test_kernel_clip_matches_reference(rng):
    cells = quality_cases(rng)
    empty = 0
    for poly in cells:
        eps = 1e-12 * geometry.polygon_diameter(poly)
        buf, m = geometry.kernel_clip(poly, eps)
        assert type(m) is int
        _assert_kernel_matches_reference(poly, buf, m, eps)
        empty += m == 0
    assert 50 < empty < len(cells) - 100
    for n in sorted({len(p) for p in cells}):
        stack = np.array([p for p in cells if len(p) == n])
        if len(stack) % 2 == 0:  # two leading axes
            stack = stack.reshape(2, -1, n, 2)
        eps = 1e-12 * geometry.polygon_diameter(stack)
        buf, m = geometry.kernel_clip(stack, eps)
        assert buf.shape == stack.shape[:-2] + (2 * n + 8, 2) and m.shape == stack.shape[:-2]
        for i in np.ndindex(stack.shape[:-2]):
            _assert_kernel_matches_reference(stack[i], buf[i], m[i], eps[i])


def test_kernel_points_match_reference(rng):
    for poly in quality_cases(rng):
        ref = ref_kernel_clip(poly, 1e-12 * max(geometry.polygon_diameter(poly), 1e-300))
        kern = geometry.polygon_kernel_points(poly)
        keep = len(ref) >= 3 and abs(geometry.polygon_area(ref)) > 0.0
        assert np.array_equal(kern, ref if keep else np.empty((0, 2)))
