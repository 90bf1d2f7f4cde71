"""Command line front end: quality, agglomerate, solve, dfn-solve, convergence.

Exit codes: 0 success, 2 input error, 3 numerical failure (out of memory
included).
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import dfn, quality, vtkio
from .agglomerate import AgglomerationConfig, agglomerate
from .mesh import MeshError, load_mesh, save_mesh
from .solutions import CATALOG
from .vem import SolverError

# after "mesh" and "lambda", each report column is a NetworkRunReport field
REPORT_COLUMNS = [
    "mesh", "lambda", "k", "cells", "dofs", "energy_initial", "energy_final",
    "err_l2", "err_h1", "nnz", "cond", "max_pi_nabla", "max_pi_0", "wall_time",
]
QUALITY_COLUMNS = ["cell_id", "rho1", "rho2", "rho3", "rho4", "rho"]
ENERGY_COLUMNS = ["cycle", "data", "smooth", "total"]
RATE_COLUMNS = ["k", "lambda", "rate_h_l2", "rate_h_h1", "rate_dof_l2", "rate_dof_h1"]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_table(rows, columns, path, fmt):
    """Write the dicts ``rows`` to ``path.csv`` (a header of ``columns``, then
    each row's values under them) or to ``path.json`` (each row's ``columns``)."""
    rows = [{c: r.get(c) for c in columns} for r in rows]
    if fmt == "json":
        with open(f"{path}.json", "w") as fh:
            json.dump(rows, fh, indent=1, default=_fmt)
            fh.write("\n")
        return
    with open(f"{path}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_fmt(v) for v in r.values()] for r in rows)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_quality(args) -> int:
    mesh = load_mesh(args.mesh)
    report = quality.mesh_quality_report(mesh)
    out = _outdir(args)
    write_table([dict(zip(QUALITY_COLUMNS, (i, *s.as_tuple())))
                 for i, s in enumerate(report.scores)],
                QUALITY_COLUMNS, out / "quality", args.format)
    rhos = [s.rho for s in report.scores]
    vtkio.write_mesh_vtk(out / "quality.vtk", mesh, {"rho": rhos})
    print(f"cells={mesh.n_cells} min_rho={report.min_rho:.5f} "
          f"mean_rho={report.mean_rho:.5f}")
    print("histogram " + " ".join(str(int(c)) for c in report.histogram))
    return 0


def cmd_agglomerate(args) -> int:
    mesh = load_mesh(args.mesh)
    config = AgglomerationConfig(lam=args.lam, sc_mode=args.sc_mode,
                                 dc_power=args.dc_power,
                                 max_cycles=args.max_cycles)
    result = agglomerate(mesh, config)
    out = _outdir(args)
    save_mesh(result.mesh, out / "agglomerated.mesh")
    write_table([dict(zip(ENERGY_COLUMNS, (h.iterations, h.data_term, h.smooth_term, h.total)))
                 for h in result.history], ENERGY_COLUMNS, out / "energy", args.format)
    s = result.stats
    print(f"cells {s.cells_before} -> {s.cells_after}")
    print(f"edges {s.edges_before} -> {s.edges_after}")
    print(f"vertices {s.vertices_before} -> {s.vertices_after}")
    print(f"energy {s.energy_initial} -> {s.energy_final} "
          f"saved {100.0 * s.energy_saved:.3f}% in {s.cycles} cycles")
    return 0


def _mesh_discretization(path, solution):
    mesh = load_mesh(path)
    if solution not in CATALOG:
        raise MeshError(
            f"unknown manufactured solution '{solution}' "
            f"(have: {', '.join(sorted(CATALOG))})"
        )
    return dfn.mesh_discretization(mesh, CATALOG[solution], name=str(path))


def cmd_solve(args) -> int:
    disc = _mesh_discretization(args.mesh, args.solution)
    rep = dfn.solve_discretized(disc, args.order)
    out = _outdir(args)
    write_table([_report_from_run(rep, str(args.mesh))], REPORT_COLUMNS,
                out / "solve", args.format)
    print(f"k={args.order} dofs={rep.dofs} err_l2={rep.err_l2:.3e} "
          f"err_h1={rep.err_h1:.3e} nnz={rep.nnz} cond={rep.cond:.3e}")
    return 0


def _load_case(spec: str):
    if spec == "builtin:network1":
        return dfn.network1()
    return dfn.load_network(spec)


def _report_from_run(rep, mesh_id):
    return {"mesh": mesh_id, "lambda": rep.lam,
            **{c: getattr(rep, c) for c in REPORT_COLUMNS[2:]}}


def cmd_dfn(args) -> int:
    case = _load_case(args.network)
    out = _outdir(args)
    rows = []
    for target in args.area or [None]:
        cells = None if target is not None else args.cells
        for lam in args.lam:
            disc = dfn.discretize_network(
                case, max_area=target, n_cells=cells, lam=lam,
                sc_mode=args.sc_mode,
            )
            mesh_id = f"area={target}" if target is not None else f"cells={cells}"
            for k in args.order:
                rep = dfn.solve_discretized(disc, k)
                rows.append(_report_from_run(rep, mesh_id))
                print(f"{mesh_id} lambda={lam} k={k} dofs={rep.dofs} "
                      f"cells={rep.cells} err_l2={rep.err_l2} err_h1={rep.err_h1}")
            # per-fracture VTK for the last order solved
            gmap = rep.gmap
            frs = {f.fid: f for f in case.network.fractures}
            for fid, mesh in disc.meshes.items():
                xloc = rep.solution[gmap.g[fid]]
                # vertex mean is a cheap per-cell sample of the solution;
                # a vertex's DOF id is its vertex id
                sizes = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=mesh.n_cells)
                uh_cell = np.add.reduceat(xloc[np.concatenate(mesh.cells)],
                                          np.cumsum(sizes) - sizes) / sizes
                vtkio.write_mesh_vtk(
                    out / f"{mesh_id.replace('=', '_')}_lambda_{lam}_fracture_{fid}.vtk",
                    mesh,
                    {"u": uh_cell,
                     "rho": [s.rho for s in quality.mesh_quality_report(mesh).scores]},
                    to_global=frs[fid].to_global,
                )
    write_table(rows, REPORT_COLUMNS, out / "dfn", args.format)
    return 0


def _fit_slope(xs, ys):
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    A = np.column_stack([xs, np.ones_like(xs)])
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sol[0])


def cmd_convergence(args) -> int:
    out = _outdir(args)
    if args.network:
        case = _load_case(args.network)
        if case.exact is None:
            raise MeshError(f"{args.network} has no exact solution to measure "
                            "convergence rates against")
        families = (  # lazily: one lambda's meshes in memory at a time
            [dfn.discretize_network(case, max_area=a, lam=lam,
                                    sc_mode=args.sc_mode)
             for a in sorted(args.area, reverse=True)]
            for lam in args.lam
        )
    else:
        families = [[_mesh_discretization(m, args.solution) for m in args.meshes]]
    rows = []
    rates = []
    for discs in families:
        # a rate fit through fewer than 3 mesh sizes is rank-deficient or exact
        hs = sorted({d.h for d in discs})
        if len(hs) < 3:
            raise MeshError(f"convergence needs at least 3 distinct mesh sizes h, got {hs}")
        for k in args.order:
            reps = [dfn.solve_discretized(d, k, estimate_condition=not args.network)
                    for d in discs]
            for r in reps:
                rows.append(_report_from_run(
                    r, f"h={r.h!r}" if args.network else r.case))
            hs = [r.h for r in reps]
            dofs = [r.dofs for r in reps]
            l2 = [r.err_l2 for r in reps]
            h1 = [r.err_h1 for r in reps]
            rates.append({
                "k": k, "lambda": reps[0].lam,
                "rate_h_l2": _fit_slope(hs, l2),
                "rate_h_h1": _fit_slope(hs, h1),
                "rate_dof_l2": -2.0 * _fit_slope(dofs, l2),
                "rate_dof_h1": -2.0 * _fit_slope(dofs, h1),
            })

    # expected-error columns: lambda = 0 errors rescaled by DOF counts
    by_key = {(r["mesh"], r["k"]): r for r in rows if r["lambda"] == 0.0}
    for r in rows:
        base = by_key.get((r["mesh"], r["k"]))
        if base is None or not r.get("err_l2"):
            continue
        ratio = base["dofs"] / r["dofs"]
        r["expected_l2"] = base["err_l2"] * ratio ** ((r["k"] + 1) / 2.0)
        r["expected_h1"] = base["err_h1"] * ratio ** (r["k"] / 2.0)

    write_table(rows, REPORT_COLUMNS + ["expected_l2", "expected_h1"],
                out / "convergence_rows", args.format)
    write_table(rates, RATE_COLUMNS, out / "rates", args.format)
    for r in rates:
        print(f"k={r['k']} lambda={r['lambda']} rate_h_l2={r['rate_h_l2']:.3f} "
              f"rate_h_h1={r['rate_h_h1']:.3f}")
    return 0


def _lambda(text) -> float:
    """argparse type of ``--lambda``: a float in [0, 1], else a usage error."""
    try:
        lam = float(text)
    except ValueError:
        lam = None
    if lam is None or not 0.0 <= lam <= 1.0:
        raise argparse.ArgumentTypeError(f"lambda must be a number in [0, 1], got {text!r}")
    return lam


def _positive(cast, what):
    """argparse type of a positive finite ``cast`` value, else a usage error."""

    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"{what} must be a positive number, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polyagg")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quality", help="per-cell quality report")
    q.add_argument("mesh")
    q.set_defaults(func=cmd_quality)

    a = sub.add_parser("agglomerate", help="graph-cut mesh agglomeration")
    a.add_argument("mesh")
    a.add_argument("--lambda", dest="lam", type=_lambda, required=True)
    a.add_argument("--sc-mode", choices=("literal", "potts"), default="potts")
    a.add_argument("--dc-power", type=int, choices=(1, 2), default=2)
    a.add_argument("--max-cycles", type=_positive(int, "max-cycles"), default=50)
    a.set_defaults(func=cmd_agglomerate)

    s = sub.add_parser("solve", help="single-mesh VEM solve")
    s.add_argument("mesh")
    s.add_argument("--order", type=int, choices=(1, 2, 3), default=1)
    s.add_argument("--solution", default="sinsin")
    s.set_defaults(func=cmd_solve)

    d = sub.add_parser("dfn-solve", help="full DFN pipeline solve")
    d.add_argument("--network", required=True,
                   help="DFN file or builtin:network1")
    size = d.add_mutually_exclusive_group(required=True)
    size.add_argument("--area", type=_positive(float, "area"), nargs="+")
    size.add_argument("--cells", type=_positive(int, "cells"))
    d.add_argument("--lambda", dest="lam", type=_lambda, nargs="+", default=[0.0])
    d.add_argument("--order", type=int, choices=(1, 2, 3), nargs="+", default=[1])
    d.add_argument("--sc-mode", choices=("literal", "potts"), default="potts")
    d.set_defaults(func=cmd_dfn)

    c = sub.add_parser("convergence", help="rate table over refinements")
    family = c.add_mutually_exclusive_group(required=True)
    family.add_argument("--network")
    family.add_argument("--meshes", nargs="+")
    c.add_argument("--area", type=_positive(float, "area"), nargs="*", default=[])
    c.add_argument("--solution", default="sinsin")
    c.add_argument("--lambda", dest="lam", type=_lambda, nargs="+", default=[0.0])
    c.add_argument("--order", type=int, choices=(1, 2, 3), nargs="+", default=[1])
    c.add_argument("--sc-mode", choices=("literal", "potts"), default="potts")
    c.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, dfn.NetworkError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError, MemoryError) as err:
        print(f"numerical failure: {err or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
