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
