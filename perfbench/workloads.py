"""The benchmark's workloads: one ``polyagg dfn-solve`` call each on network1.

Each workload fixes the CLI arguments except ``--area``, which the seed
perturbs (seed 0 runs the nominal area), and carries the references its
outputs are checked against.
"""

import math
import random
from dataclasses import dataclass, field

# network1 has three fractures; the CLI writes one VTK file per fracture
NETWORK = "builtin:network1"
N_FRACTURES = 3

# Seeds other than 0 scale the area by a factor drawn from this range, so
# the program never sees the nominal area.  The mesh depends on the area
# only through the per-fracture grid counts, which step by one grid line:
# within this range the area-1e-2 workload gets the coarser neighbouring mesh
# (6% fewer triangles) for a factor above 1.0079, and the area-5e-3 workload
# keeps its mesh.  A range as wide as [0.9, 1.1] makes mesh jumps of 5-15% in
# cells and up to 30% in wall time common between seeds, wider than any
# bound that can still catch a regression.
AREA_FACTOR_RANGE = (0.99, 1.01)

# relative tolerance of the seed-0 error references: tight enough that any
# change of the discretization shows, loose enough for summation reordering
ERR_RTOL = 1e-6
# at other seeds the errors may reach this multiple of the seed-0 references;
# the neighbouring meshes measured within 10% of them
ERR_CEILING = 2.0


@dataclass(frozen=True)
class OrderReference:
    """Outputs of one report row at seed 0, as the seed commit printed them."""

    cells: int
    dofs: int
    energy_final: int
    err_l2: float
    err_h1: float


@dataclass(frozen=True)
class Workload:
    name: str
    area: float
    lam: float
    orders: tuple
    why: str
    # order -> OrderReference at seed 0; empty for an unreferenced workload
    references: dict = field(default_factory=dict)

    def area_for(self, seed: int) -> float:
        if seed == 0:
            return self.area
        return self.area * random.Random(seed).uniform(*AREA_FACTOR_RANGE)

    def cli_args(self, area: float, out_dir) -> list:
        return [
            "--out", str(out_dir), "--format", "json",
            "dfn-solve", "--network", NETWORK,
            "--area", repr(area),
            "--lambda", repr(self.lam),
            "--order", *(str(k) for k in self.orders),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "n1-agglo", 5e-3, 1.0, (1,),
            "swap solver and union-quality precompute dominate; VEM at k=1 does little",
            {1: OrderReference(1389, 2387, 6551369, 0.010110987226029513, 0.36552578272101943)},
        ),
        Workload(
            "n1-k3", 1e-2, 0.0, (3,),
            "lambda=0 skips the swap solver; k=3 element build and the largest factor dominate",
            {3: OrderReference(2351, 15899, 0, 4.547878604559681e-06, 0.0004830946820496747)},
        ),
    )
}


def check_report(workload: Workload, seed: int, rows: list) -> list:
    """Problems found in one run's report rows; an empty list means correct."""
    problems = []
    ks = [r.get("k") for r in rows]
    if ks != list(workload.orders):
        return [f"report rows for orders {ks}, expected {list(workload.orders)}"]
    for row in rows:
        for key, val in row.items():
            if isinstance(val, (int, float)) and not math.isfinite(val):
                problems.append(f"k={row['k']}: {key} is {val!r}")
    if problems:
        return problems
    for row in rows:
        k = row["k"]
        ref = workload.references.get(k)
        if ref is None:
            continue
        if seed == 0:
            for key in ("cells", "dofs", "energy_final"):
                if row[key] != getattr(ref, key):
                    problems.append(f"k={k}: {key}={row[key]} differs from the reference {getattr(ref, key)}")
        for key in ("err_l2", "err_h1"):
            want = getattr(ref, key)
            if seed == 0 and not math.isclose(row[key], want, rel_tol=ERR_RTOL, abs_tol=0.0):
                problems.append(f"k={k}: {key}={row[key]!r} differs from the reference {want!r}")
            if seed != 0 and not row[key] <= ERR_CEILING * want:
                problems.append(f"k={k}: {key}={row[key]!r} exceeds {ERR_CEILING} x {want!r}")
    return problems
