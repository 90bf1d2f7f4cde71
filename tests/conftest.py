import numpy as np
import pytest
from hypothesis import settings, strategies as st

from polyagg.mesh import build_mesh, make_cell


def square_cell(side=1.0):
    return make_cell([[0, 0], [side, 0], [side, side], [0, side]])


def unit_triangle_cell():
    return make_cell([[0, 0], [1, 0], [0, 1]])


def equilateral_cell(side=1.0):
    h = side * np.sqrt(3) / 2
    return make_cell([[0, 0], [side, 0], [side / 2, h]])


def grid_mesh(nx, ny, lx=1.0, ly=1.0, constrained_edges=(), jitter=0.0, seed=0):
    """Quad grid mesh over [0,lx]x[0,ly]; optional interior vertex jitter."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pts = np.array([[x, y] for y in ys for x in xs])
    if jitter:
        rng = np.random.default_rng(seed)
        hx, hy = lx / nx, ly / ny
        for j in range(1, ny):
            for i in range(1, nx):
                v = j * (nx + 1) + i
                pts[v, 0] += jitter * hx * (rng.random() - 0.5)
                pts[v, 1] += jitter * hy * (rng.random() - 0.5)
    cells = []
    for j in range(ny):
        for i in range(nx):
            v = lambda a, b: (j + b) * (nx + 1) + (i + a)
            cells.append([v(0, 0), v(1, 0), v(1, 1), v(0, 1)])
    return build_mesh(pts, cells, constrained_edges)


def tri_grid_mesh(nx, ny, lx=1.0, ly=1.0):
    """Structured triangle mesh: each grid quad split along its diagonal."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pts = np.array([[x, y] for y in ys for x in xs])
    cells = []
    for j in range(ny):
        for i in range(nx):
            v = lambda a, b: (j + b) * (nx + 1) + (i + a)
            cells.append([v(0, 0), v(1, 0), v(1, 1)])
            cells.append([v(0, 0), v(1, 1), v(0, 1)])
    return build_mesh(pts, cells)


NON_STAR_POLY = np.array(
    [[0, 0], [5, 0], [5, 3], [4, 3], [4, 1], [1, 1], [1, 3], [0, 3]], dtype=float
)


def random_polygon(rng, kind=None):
    """Random simple polygon.

    Kinds 0-2 are radial constructions (convex, mildly concave, spiky), all
    star-shaped around the origin by construction; kind 3 is a randomized
    U-shape whose two inner walls carry conflicting half-planes, so its
    kernel is provably empty.  A random rotation/scale/shift is applied.
    """
    kind = kind if kind is not None else int(rng.integers(0, 4))
    if kind == 3:
        W = 2.0 + 3.0 * rng.random()
        H = 1.5 + 2.5 * rng.random()
        arm = (0.12 + 0.18 * rng.random()) * W
        bar = (0.15 + 0.45 * rng.random()) * H
        pts = np.array(
            [
                [0, 0], [W, 0], [W, H], [W - arm, H],
                [W - arm, bar], [arm, bar], [arm, H], [0, H],
            ],
            dtype=float,
        )
    else:
        n = int(rng.integers(4, 12))
        angles = np.sort(rng.random(n) * 2 * np.pi)
        while np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 1e-2:
            angles = np.sort(rng.random(n) * 2 * np.pi)
        if kind == 0:
            radii = 0.5 + rng.random(n)
        elif kind == 1:
            radii = 0.4 + 0.6 * rng.random(n)
        else:
            radii = np.where(rng.random(n) < 0.5, 0.08 + 0.04 * rng.random(n),
                             1.0 + rng.random(n))
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    ang = 2 * np.pi * rng.random()
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = 0.5 + 2.0 * rng.random()
    shift = rng.uniform(-3, 3, 2)
    return scale * pts @ R.T + shift


def sees_all_vertices(poly, p, eps=1e-9):
    """Visibility oracle: every boundary vertex visible from p along a segment."""
    poly = np.asarray(poly, dtype=float)
    n = len(poly)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for v in range(n):
        q = poly[v]
        for e in range(n):
            if e == v or (e + 1) % n == v:
                continue
            a, b = poly[e], poly[(e + 1) % n]
            d1 = orient(p, q, a)
            d2 = orient(p, q, b)
            d3 = orient(a, b, p)
            d4 = orient(a, b, q)
            if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
                (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
            ):
                return False
    return True


def kernel_sampling_oracle(poly, grid=25):
    """True when some sample point inside the polygon sees every vertex."""
    from polyagg.geometry import point_in_polygon, polygon_diameter

    poly = np.asarray(poly, dtype=float)
    eps = 1e-9 * polygon_diameter(poly)
    lo = poly.min(0)
    hi = poly.max(0)
    for x in np.linspace(lo[0], hi[0], grid):
        for y in np.linspace(lo[1], hi[1], grid):
            p = np.array([x, y])
            if point_in_polygon(poly, p) == 1 and sees_all_vertices(poly, p, eps):
                return True
    return False


# Reference oracles: the scalar per-polygon loops that the stacked geometry
# primitives replace, kept verbatim.  The stacked primitives must give the
# same area, centroid and diameter bit for bit and the same simplicity verdict.

def ref_polygon_area_centroid(pts):
    n = pts.shape[0]
    a2 = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        w = pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
        a2 += w
        cx += (pts[i, 0] + pts[j, 0]) * w
        cy += (pts[i, 1] + pts[j, 1]) * w
    area = 0.5 * a2
    if a2 != 0.0:
        cx /= 3.0 * a2
        cy /= 3.0 * a2
    return area, cx, cy


def ref_polygon_diameter(pts):
    n = pts.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            d = dx * dx + dy * dy
            if d > best:
                best = d
    return np.sqrt(best)


def _ref_orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def ref_segments_properly_intersect(p, q, r, s, eps) -> bool:
    d1 = _ref_orient(r[0], r[1], s[0], s[1], p[0], p[1])
    d2 = _ref_orient(r[0], r[1], s[0], s[1], q[0], q[1])
    d3 = _ref_orient(p[0], p[1], q[0], q[1], r[0], r[1])
    d4 = _ref_orient(p[0], p[1], q[0], q[1], s[0], s[1])
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    # collinear overlap
    if abs(d1) <= eps and abs(d2) <= eps and abs(d3) <= eps and abs(d4) <= eps:
        lo0, hi0 = sorted((p[0], q[0]))
        lo1, hi1 = sorted((r[0], s[0]))
        mo0, mh0 = sorted((p[1], q[1]))
        mo1, mh1 = sorted((r[1], s[1]))
        if min(hi0, hi1) - max(lo0, lo1) > eps or min(mh0, mh1) - max(mo0, mo1) > eps:
            return True
    return False


def ref_is_simple_polygon(pts, eps=None) -> bool:
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return False
    diam = ref_polygon_diameter(pts)
    if diam <= 0.0:
        return False
    if eps is None:
        eps = 1e-12 * diam * diam
    snap = 1e-12 * diam
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i, 0] - pts[j, 0]) <= snap and abs(pts[i, 1] - pts[j, 1]) <= snap:
                return False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if np.hypot(*(b - a)) <= snap:
            return False
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                # adjacent edges: reject zero-area spikes (reversal)
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if ref_segments_properly_intersect(a, b, c, d, eps):
                return False
    for i in range(n):
        # spike test at vertex i
        p = pts[i - 1]
        q = pts[i]
        r = pts[(i + 1) % n]
        u = q - p
        v = r - q
        cr = u[0] * v[1] - u[1] * v[0]
        if abs(cr) <= eps and (u @ v) < 0.0:
            return False
    return True


def ref_build_mesh_cells(points, cells, compact=True):
    """Cell validation and edge table of ``build_mesh``, one cell at a time.

    Returns (cells, edges, edge_cells) or raises the ``CellError`` of the
    first failing cell; constraints and cell geometry do not take part.
    """
    from polyagg.mesh import CellError

    pts = np.ascontiguousarray(points, dtype=np.float64)
    nv = len(pts)

    cell_arrays = []
    for ci, raw in enumerate(cells):
        try:
            ids = np.asarray(raw, dtype=np.int64)
        except OverflowError:
            raise CellError(ci, "references a missing vertex") from None
        if ids.ndim != 1 or len(ids) < 3:
            raise CellError(ci, "must list at least 3 vertices")
        if ids.min() < 0 or ids.max() >= nv:
            raise CellError(ci, "references a missing vertex")
        if np.any(ids == np.roll(ids, 1)):
            raise CellError(ci, "repeats consecutive vertices")
        if len(np.unique(ids)) != len(ids):
            raise CellError(ci, "visits a vertex twice")
        loop = pts[ids]
        if ref_polygon_area_centroid(loop)[0] < 0.0:
            ids = ids[::-1].copy()
            loop = pts[ids]
        if not ref_is_simple_polygon(loop):
            raise CellError(ci, "is not a simple polygon")
        cell_arrays.append(ids)

    if compact:
        used = np.zeros(nv, dtype=bool)
        for ids in cell_arrays:
            used[ids] = True
        if not used.all():
            remap = -np.ones(nv, dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            cell_arrays = [remap[ids] for ids in cell_arrays]

    edges = []
    edge_index = {}
    edge_cells = []
    edge_dir = []  # directions already seen, for orientation consistency
    for ci, ids in enumerate(cell_arrays):
        for k in range(len(ids)):
            u, v = int(ids[k]), int(ids[(k + 1) % len(ids)])
            key = (u, v) if u < v else (v, u)
            e = edge_index.get(key)
            if e is None:
                e = len(edges)
                edge_index[key] = e
                edges.append(key)
                edge_cells.append([ci])
                edge_dir.append(u < v)
            else:
                if len(edge_cells[e]) >= 2:
                    raise CellError(ci, f"has edge {key}, which is shared by more than 2 cells")
                if edge_dir[e] == (u < v):
                    raise CellError(ci, f"has edge {key} traversed twice in the same "
                                        "direction (overlapping cells)")
                edge_cells[e].append(ci)

    return cell_arrays, edges, [tuple(cs) for cs in edge_cells]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# tokens a file mutation may write: numbers at and beyond the float and
# int64 ranges, non-finite values, every block keyword and plain junk
FUZZ_TOKENS = ("0", "1", "-1", "2", "3", "5", "0.5", "-0.25", "1e308", "1e400", "inf",
               "-inf", "nan", "99999999999999999999", "x", "x + y", "log(x)", "#",
               "V", "C", "E", "F", "K", "T", "BC", "dirichlet")


@st.composite
def mutated_file(draw, text):
    """``text`` after 1-4 random line drops, duplications, swaps and token
    replacements, insertions and deletions."""
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "dup", "swap", "replace", "insert", "delete")))
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, list(line))
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif op == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(FUZZ_TOKENS)))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if op == "replace":
                line[j] = draw(st.sampled_from(FUZZ_TOKENS))
            else:
                del line[j]
    return "".join(" ".join(line) + "\n" for line in lines)


# settings of the parser fuzz tests: a fixed example sequence keeps Tier-1
# reproducible and fast
FUZZ_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
