import csv
import json

import numpy as np
import pytest

from polyagg import dfn, quality, vem, vtkio
from polyagg.agglomerate import AgglomerationConfig, agglomerate
from polyagg.cli import main, write_table
from polyagg.dfn import cut_by_traces
from polyagg.mesh import load_mesh, save_mesh
from polyagg.solutions import CATALOG

from conftest import (
    TWO_CROSSING_PAIRS,
    cell_dofs,
    grid_mesh,
    ref_fmt,
    ref_report_row,
    ref_write_convergence,
    ref_write_energy_csv,
    ref_write_polydata,
    ref_write_quality_csv,
    random_networks,
    ref_write_report,
    tri_grid_mesh,
)


def run(args):
    return main([str(a) for a in args])


def save_grid(tmp_path, nx=3, ny=3):
    path = tmp_path / "grid.mesh"
    save_mesh(grid_mesh(nx, ny), path)
    return path


def test_quality_command(tmp_path):
    mesh = save_grid(tmp_path)
    out = tmp_path / "out"
    assert run(["--out", out, "quality", mesh]) == 0
    rows = list(csv.DictReader(open(out / "quality.csv")))
    assert len(rows) == 9
    for r in rows:
        assert float(r["rho"]) == pytest.approx(0.905006, abs=1e-6)
    assert (out / "quality.vtk").exists()


def test_quality_malformed_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("V 2\n0 0\n1 oops\n")
    assert run(["quality", bad]) == 2
    assert "line 3" in capsys.readouterr().err


def test_quality_empty_mesh_exit2(tmp_path):
    bad = tmp_path / "empty.mesh"
    bad.write_text("V 0\nC 0\n")
    assert run(["quality", bad]) == 2


# header of two orthogonal unit fractures, 11 lines
TWO_FRACTURES = "F 2\n4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4\n0 0 -1\n1 0 -1\n1 0 1\n0 0 1\n"
TRIANGLE = "V 3\n0 0\n1 0\n0 1\n"


@pytest.mark.parametrize("suffix, text, line", [
    pytest.param(".mesh", "", 1, id="mesh-empty-file"),
    pytest.param(".mesh", "V two\n", 1, id="mesh-vertex-count"),
    pytest.param(".mesh", "V -1\n", 1, id="mesh-negative-count"),
    pytest.param(".mesh", TRIANGLE + "C one\n", 5, id="mesh-cell-count"),
    pytest.param(".mesh", TRIANGLE + "C 1\n0 1 x\n", 6, id="mesh-cell-index"),
    pytest.param(".mesh", TRIANGLE + "C 1\n0 1 2\nE z\n", 7, id="mesh-edge-count"),
    pytest.param(".mesh", TRIANGLE + "C 2\n0 1 7\n0 1 2\n", 6, id="mesh-missing-vertex"),
    pytest.param(".mesh", TRIANGLE + "C 1\n0 1\n", 6, id="mesh-two-vertex-cell"),
    pytest.param(".mesh", TRIANGLE + "C 1\n0 1 2\nE 1\n0 5\n", 8, id="mesh-edge-not-an-edge"),
    pytest.param(".mesh", "V 3\n0 0\nnan 0\n0 1\nC 1\n0 1 2\n", 3, id="mesh-nan-vertex"),
    pytest.param(".mesh", TRIANGLE + "C 1\n0 1 99999999999999999999\n", 6,
                 id="mesh-huge-index"),
    pytest.param(".mesh", "V 99999999999999999999\n0 0\n", 2, id="mesh-huge-count"),
    pytest.param(".mesh", "V 5\n0 0\n2 0\n2 2\n1 0\n0 2\nC 1\n0 1 2 3 4\n", 8,
                 id="mesh-pinched-cell"),
    pytest.param(".mesh", (TRIANGLE + "C 1\n0 1 2").encode() + b"\xff\n", 6, id="mesh-not-utf8"),
    pytest.param(".dfn", TWO_FRACTURES[:24].encode() + b"\xff" + TWO_FRACTURES[24:].encode(), 6,
                 id="dfn-not-utf8"),
    pytest.param(".dfn", "", 1, id="dfn-empty-file"),
    pytest.param(".dfn", "F two\n", 1, id="dfn-fracture-count"),
    pytest.param(".dfn", "F 0\n", 1, id="dfn-no-fractures"),
    pytest.param(".dfn", "F 1\nthree\n", 2, id="dfn-vertex-count"),
    pytest.param(".dfn", "F 1\n3\n0 0 0\n1 0 0\n0 1 zero\n", 5, id="dfn-vertex"),
    pytest.param(".dfn", "F 1\n3\n0 0 0\n1 0 0\n0 1 0\nK 1 0 one\n", 6,
                 id="dfn-transmissivity"),
    pytest.param(".dfn", "F 1\n3\n0 0 0\n", 3, id="dfn-truncated"),
    pytest.param(".dfn", "F 2\n5\n0 0 0\n" + TWO_FRACTURES[6:], 7, id="dfn-repeated-vertex"),
    pytest.param(".dfn", "F 3" + TWO_FRACTURES[3:] + "4\n5 5 5\n6 5 5\n6 6 5\n5 6 5\n", 12,
                 id="dfn-isolated-fracture"),
    pytest.param(".dfn", TWO_FRACTURES + "T x\n", 12, id="dfn-trace-count"),
    pytest.param(".dfn", TWO_FRACTURES + "T\n", 12, id="dfn-trace-header"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 5 0 0 0 1 0 0\n", 13,
                 id="dfn-trace-fracture"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 0 0 0 1 0 nil\n", 13,
                 id="dfn-trace-point"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 0 0 0.3 1 0 0.3\n", 13,
                 id="dfn-trace-off-plane"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 5 5 5 6 6 6\n", 13,
                 id="dfn-trace-off-fractures"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 0 0 0 2 0 0\n", 13,
                 id="dfn-trace-outside-polygon"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 0.5 0 0 0.5 0 0\n", 13,
                 id="dfn-trace-zero-length"),
    pytest.param(".dfn", TWO_FRACTURES + "T 1\n0 1 0.5 0 0 0.5000000001 0 0\n", 13,
                 id="dfn-trace-length-1e-10"),
    pytest.param(".dfn", TWO_FRACTURES + "BC\n", 12, id="dfn-bc-header"),
    pytest.param(".dfn", TWO_FRACTURES + "BC 1\ndirichlet 0 0 one 1 10\n", 13,
                 id="dfn-bc-plane"),
    pytest.param(".dfn", TWO_FRACTURES + "K 1 2 1\n", 12, id="dfn-indefinite-k"),
    pytest.param(".dfn", TWO_FRACTURES + "BC 1\ndirichlet 0 0 1 1 foo\n", 13,
                 id="dfn-bc-unknown-name"),
    pytest.param(".dfn", TWO_FRACTURES + "BC 1\ndirichlet 0 0 1 1 __import__('os')\n", 13,
                 id="dfn-bc-call"),
    pytest.param(".dfn", TWO_FRACTURES + "BC 1\ndirichlet 0 0 1 1 " + "+".join(["x"] * 2000) + "\n",
                 13, id="dfn-bc-long-sum"),
    pytest.param(".dfn", TWO_FRACTURES + "BC 1\ndirichlet 0 0 1 1 " + "-" * 3000 + "x\n", 13,
                 id="dfn-bc-deep-unary-minus"),
])
def test_malformed_input_exit2_with_line(tmp_path, capsys, suffix, text, line):
    path = tmp_path / f"bad{suffix}"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    if suffix == ".mesh":
        args = ["quality", path]
    else:
        args = ["dfn-solve", "--network", path, "--area", "0.1"]
    assert run(["--out", tmp_path / "out", *args]) == 2
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    pytest.param(["agglomerate", "any.mesh"], id="agglomerate"),
    pytest.param(["dfn-solve", "--network", "builtin:network1"], id="dfn-solve"),
])
@pytest.mark.parametrize("lam", ["2", "-0.5", "nan", "one"])
def test_lambda_out_of_range_exit2(capsys, command, lam):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--lambda", lam])
    assert exc.value.code == 2
    assert "lambda must be a number in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["dfn-solve", "--area", "0"], id="dfn-area-zero"),
    pytest.param(["dfn-solve", "--area", "-1"], id="dfn-area-negative"),
    pytest.param(["dfn-solve", "--area", "nan"], id="dfn-area-nan"),
    pytest.param(["dfn-solve", "--area", "inf"], id="dfn-area-inf"),
    pytest.param(["dfn-solve", "--cells", "-3"], id="dfn-cells-negative"),
    pytest.param(["dfn-solve", "--cells", "0"], id="dfn-cells-zero"),
    pytest.param(["dfn-solve"], id="dfn-no-area-or-cells"),
    pytest.param(["dfn-solve", "--area", "0.1", "--cells", "50"], id="dfn-area-and-cells"),
    pytest.param(["dfn-solve", "--area", "0.1", "--order", "4"], id="dfn-order"),
    pytest.param(["convergence", "--area", "0.1", "0.05", "0.02", "--order", "4"],
                 id="convergence-order"),
    pytest.param(["convergence", "--area", "0.1", "0", "0.05"], id="convergence-area-zero"),
    pytest.param(["convergence", "--meshes", "a.mesh", "b.mesh", "c.mesh"],
                 id="convergence-network-and-meshes"),
    pytest.param(["convergence", "--area", "0.1", "0.05", "0.02", "--solution", "nope"],
                 id="convergence-network-and-solution"),
])
def test_bad_arguments_exit2_with_usage(capsys, args):
    command, *rest = args
    with pytest.raises(SystemExit) as exc:
        run([command, "--network", "builtin:network1", *rest])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("option", [["--lambda", "1"], ["--area", "5"], ["--area"],
                                    ["--sc-mode", "literal"]])
def test_convergence_meshes_rejects_network_options(tmp_path, capsys, option):
    """--area, --lambda and --sc-mode belong to --network: with --meshes they
    are a usage error, and nothing is written."""
    with pytest.raises(SystemExit) as exc:
        run(["--out", tmp_path / "out", "convergence", "--meshes", "a.mesh", "b.mesh",
             "c.mesh", *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    assert f"error: argument {option[0]}: not allowed with argument --meshes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cycles", ["0", "-3"])
def test_agglomerate_max_cycles_not_positive_exit2(capsys, cycles):
    with pytest.raises(SystemExit) as exc:
        run(["agglomerate", "any.mesh", "--lambda", "0.5", "--max-cycles", cycles])
    assert exc.value.code == 2
    assert f"max-cycles must be a positive number, got '{cycles}'" in capsys.readouterr().err


def test_missing_file_exit2(tmp_path):
    assert run(["quality", tmp_path / "nope.mesh"]) == 2


@pytest.mark.parametrize("command", [["quality"], ["dfn-solve", "--area", "0.1", "--network"]],
                         ids=["mesh", "dfn"])
def test_unreadable_input_path_exit2(tmp_path, capsys, command):
    """A directory given as the input file is an input error, not a traceback."""
    assert run(["--out", tmp_path / "out", *command, tmp_path]) == 2
    assert "input error" in capsys.readouterr().err


def test_agglomerate_lambda_zero_identity(tmp_path):
    mesh = save_grid(tmp_path)
    out = tmp_path / "out"
    assert run(["--out", out, "agglomerate", mesh, "--lambda", "0.0"]) == 0
    m2 = load_mesh(out / "agglomerated.mesh")
    assert m2.n_cells == 9
    rows = list(csv.DictReader(open(out / "energy.csv")))
    totals = [int(r["total"]) for r in rows]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_agglomerate_aggressive_on_cut_triangles(tmp_path):
    base = tri_grid_mesh(14, 14, 2.0, 2.0)
    cut = cut_by_traces(base, [((0.0, 1.03), (2.0, 1.03))])
    path = tmp_path / "cut.mesh"
    save_mesh(cut, path)
    out = tmp_path / "out"
    assert run(["--out", out, "agglomerate", path, "--lambda", "1.0"]) == 0
    m2 = load_mesh(out / "agglomerated.mesh")
    reduction = 1.0 - m2.n_cells / cut.n_cells
    assert 0.6 <= reduction <= 0.8
    # constraints survive the CLI round trip
    assert len(m2.constrained_edge_pairs()) > 0


def test_agglomerate_command_warns_each_skipped_merge(tmp_path):
    """``agglomerate`` warns once per merge the library skipped, with
    ``warn_skipped``'s text, in the library's order."""
    network = random_networks(1)[0]
    for fr in network.fractures:
        segs = [t.local_segment(fr) for t in network.fracture_traces(fr.fid)]
        cut = cut_by_traces(dfn.triangulate_fracture(fr, max_area=2e-2), segs,
                            tol_rel=dfn.TOL_REL * network.scale / fr.diameter)
        skipped = agglomerate(cut, AgglomerationConfig(lam=1.0)).stats.skipped
        if skipped:
            break
    assert skipped
    path = tmp_path / "cut.mesh"
    save_mesh(cut, path)
    with pytest.warns(RuntimeWarning) as caught:
        assert run(["--out", tmp_path / "out", "agglomerate", path, "--lambda", "1"]) == 0
    assert [str(w.message) for w in caught] == [
        f"label {label}: merge of cells {comp} skipped ({reason})"
        for label, comp, reason in skipped]


def test_solve_patch_and_report(tmp_path):
    mesh = save_grid(tmp_path)
    out = tmp_path / "out"
    assert run(["--out", out, "solve", mesh, "--order", "1",
                "--solution", "linear"]) == 0
    rows = list(csv.DictReader(open(out / "solve.csv")))
    assert len(rows) == 1
    assert float(rows[0]["err_l2"]) <= 1e-10
    assert float(rows[0]["err_h1"]) <= 1e-10
    assert int(rows[0]["nnz"]) > 0
    assert float(rows[0]["cond"]) >= 1.0


def test_solve_unknown_solution_exit2(tmp_path):
    mesh = save_grid(tmp_path)
    assert run(["solve", mesh, "--solution", "nope"]) == 2


@pytest.mark.parametrize("k", ["1", "3"])
def test_dfn_solve_without_dirichlet_data_on_a_fracture_group_exit2(tmp_path, capsys, k):
    """Fractures 2 and 3 meet no Dirichlet plane: their head is only fixed
    up to a constant, so the solve stops before it starts."""
    path = tmp_path / "pairs.dfn"
    path.write_text(TWO_CROSSING_PAIRS)
    out = tmp_path / "out"
    assert run(["--out", out, "dfn-solve", "--network", path, "--area", "0.01", "--order", k]) == 2
    assert "no Dirichlet boundary on fractures 2, 3" in capsys.readouterr().err
    assert not (out / "dfn.csv").exists()


def test_dfn_solve_builtin(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", out, "dfn-solve", "--network", "builtin:network1",
                "--area", "0.1", "--lambda", "0.25", "--order", "1"]) == 0
    rows = list(csv.DictReader(open(out / "dfn.csv")))
    assert len(rows) == 1
    assert int(rows[0]["dofs"]) > 0
    vtks = sorted(out.glob("*.vtk"))
    assert len(vtks) == 3  # one per fracture


def vtk_scalars(path, name):
    lines = path.read_text().splitlines()
    n = int(next(line for line in lines if line.startswith("CELL_DATA")).split()[1])
    at = lines.index(f"SCALARS {name} double 1") + 2  # after the lookup table line
    return np.array([float(v) for v in lines[at: at + n]])


def test_vtk_text_matches_per_number_reference(tmp_path):
    """Each stitched network1 mesh, in 3D with a ``u`` and a ``rho`` field,
    is written byte for byte as by formatting each number on its own."""
    case = dfn.network1()
    disc = dfn.discretize_network(case, max_area=5e-2, lam=1.0)
    for fr in case.network.fractures:
        mesh = disc.meshes[fr.fid]
        fields = {"u": case.exact[fr.fid].u(mesh.cell_centroid),
                  "rho": quality.mesh_quality_report(mesh).scores[:, 4]}
        vtkio.write_mesh_vtk(tmp_path / "got.vtk", mesh, fields, to_global=fr.to_global)
        ref_write_polydata(tmp_path / "want.vtk", fr.to_global(mesh.points),
                           [list(map(int, ids)) for ids in mesh.cells], fields)
        assert (tmp_path / "got.vtk").read_bytes() == (tmp_path / "want.vtk").read_bytes()


def test_dfn_vtk_cell_sample_is_vertex_mean(tmp_path):
    """The VTK ``u`` of each cell is the mean of the solution at its vertex
    DOFs, as the per-cell ``np.mean`` over ``cell_dofs`` gave it (1e-14)."""
    out = tmp_path / "out"
    assert run(["--out", out, "dfn-solve", "--network", "builtin:network1",
                "--area", "0.05", "--lambda", "1", "--order", "2"]) == 0
    disc = dfn.discretize_network(dfn.network1(), max_area=0.05, lam=1.0)
    rep = dfn.solve_discretized(disc, 2)
    for fid, mesh in disc.meshes.items():
        xloc = rep.solution[rep.gmap.g[fid]]
        dm = rep.gmap.locals[fid]
        rows = cell_dofs(dm)
        want = [np.mean(xloc[rows[ci][: len(mesh.cells[ci])]])
                for ci in range(mesh.n_cells)]
        (path,) = out.glob(f"*_fracture_{fid}.vtk")
        np.testing.assert_allclose(vtk_scalars(path, "u"), want, rtol=1e-14,
                                   atol=1e-14 * np.abs(xloc).max())


def test_dfn_solve_json_format(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", out, "--format", "json", "dfn-solve",
                "--network", "builtin:network1", "--area", "0.1",
                "--lambda", "0.0", "--order", "1"]) == 0
    assert (out / "dfn.json").exists()


def test_convergence_needs_three_points(tmp_path):
    assert run(["convergence", "--network", "builtin:network1",
                "--area", "0.1", "0.05"]) == 2


@pytest.mark.parametrize("areas", [["0.1", "0.1", "0.1"], ["0.1", "0.099", "0.098"]],
                         ids=["same-area", "same-mesh"])
def test_convergence_needs_three_distinct_mesh_sizes(tmp_path, capsys, areas):
    """Three areas that give fewer than three distinct h make no rate fit:
    0.1, 0.099 and 0.098 give two identical meshes."""
    out = tmp_path / "out"
    assert run(["--out", out, "convergence", "--network", "builtin:network1",
                "--area", *areas]) == 2
    assert "at least 3 distinct mesh sizes h" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


def test_convergence_mesh_family_needs_three_distinct_mesh_sizes(tmp_path, capsys):
    mesh = save_grid(tmp_path, 4, 4)
    other = tmp_path / "g8.mesh"
    save_mesh(grid_mesh(8, 8), other)
    assert run(["--out", tmp_path / "out", "convergence", "--meshes", mesh, other, mesh]) == 2
    assert "at least 3 distinct mesh sizes h" in capsys.readouterr().err


def test_convergence_file_network_exit2(tmp_path, capsys):
    """A file network has no exact solution, so it has no rates to fit."""
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES + "BC 1\ndirichlet 0 0 1 1 10.0\n")
    assert run(["--out", tmp_path / "out", "convergence", "--network", path,
                "--area", "0.1", "0.05", "0.02"]) == 2
    assert "has no exact solution" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rates.csv").exists()


def test_convergence_mesh_family(tmp_path):
    paths = []
    for n in (4, 8, 16):
        p = tmp_path / f"g{n}.mesh"
        save_mesh(grid_mesh(n, n), p)
        paths.append(p)
    out = tmp_path / "out"
    assert run(["--out", out, "convergence", "--meshes", *paths,
                "--solution", "sinsin", "--order", "1"]) == 0
    rows = list(csv.DictReader(open(out / "rates.csv")))
    assert len(rows) == 1
    assert float(rows[0]["rate_h_l2"]) == pytest.approx(2.0, rel=0.15)
    assert float(rows[0]["rate_h_h1"]) == pytest.approx(1.0, rel=0.15)


def test_single_mesh_route_matches_reference(tmp_path):
    """solve and convergence --meshes report what the single-mesh VEM gives."""
    ms = CATALOG["sinsin"]
    paths = []
    for n in (4, 6, 8):
        p = tmp_path / f"j{n}.mesh"
        save_mesh(grid_mesh(n, n, jitter=0.3, seed=n), p)
        paths.append(p)

    def reference(path, k):
        mesh = load_mesh(path)
        system, groups = vem.assemble(mesh, k, f=ms.f, dirichlet=ms.u)
        x = vem.solve_spd(system)
        err_l2, err_h1 = vem.error_norms(groups, vem.projected_solution(groups, x),
                                         [ms.u], [ms.grad])
        dn, d0 = vem.projection_discrepancy(groups)
        return {"mesh": str(path), "k": str(k), "dofs": str(vem.build_dof_map(mesh, k).total),
                "nnz": str(system.nnz), "err_l2": float(err_l2),
                "err_h1": float(err_h1),
                "cond": float(vem.condition_estimate(system).cond),
                "max_pi_nabla": float(dn.max()), "max_pi_0": float(d0.max())}

    out = tmp_path / "out"
    assert run(["--out", out, "solve", paths[1], "--order", "3"]) == 0
    assert run(["--out", out, "convergence", "--meshes", *paths,
                "--order", "1", "2"]) == 0
    rows = list(csv.DictReader(open(out / "solve.csv")))
    rows += list(csv.DictReader(open(out / "convergence_rows.csv")))
    expected = [reference(paths[1], 3)]
    expected += [reference(p, k) for k in (1, 2) for p in paths]
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        for col, want in ref.items():
            got = float(row[col]) if isinstance(want, float) else row[col]
            assert got == want, (col, row["mesh"], row["k"])


def test_determinism_byte_identical(tmp_path):
    mesh = save_grid(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["--out", out1, "quality", mesh]) == 0
    assert run(["--out", out2, "quality", mesh]) == 0
    assert (out1 / "quality.csv").read_bytes() == (out2 / "quality.csv").read_bytes()
    assert (out1 / "quality.vtk").read_bytes() == (out2 / "quality.vtk").read_bytes()


def test_dfn_determinism_modulo_walltime(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run(["--out", out, "dfn-solve", "--network", "builtin:network1",
                    "--area", "0.1", "--lambda", "1.0", "--order", "1"]) == 0
    r1 = list(csv.DictReader(open(out1 / "dfn.csv")))
    r2 = list(csv.DictReader(open(out2 / "dfn.csv")))
    for a, b in zip(r1, r2):
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def cli_tables(tmp_path_factory):
    """Every command run under both formats into ``<dir>/<name>/csv`` and
    ``<dir>/<name>/json``: (dir, name -> (CLI arguments, tables written),
    (grid, cut, jittered) input meshes)."""
    tmp_path = tmp_path_factory.mktemp("tables")
    grid = save_grid(tmp_path, 2, 2)
    cut = tmp_path / "cut.mesh"
    save_mesh(cut_by_traces(tri_grid_mesh(6, 6), [((0.0, 0.53), (1.0, 0.53))]), cut)
    jittered = []
    for n in (4, 6, 8):
        jittered.append(tmp_path / f"j{n}.mesh")
        save_mesh(grid_mesh(n, n, jitter=0.3, seed=n), jittered[-1])
    network = ["--network", "builtin:network1"]
    commands = {
        "quality": (["quality", grid], ["quality"]),
        "agglomerate": (["agglomerate", cut, "--lambda", "1"], ["energy"]),
        "solve": (["solve", jittered[1], "--order", "2"], ["solve"]),
        "dfn-solve": (["dfn-solve", *network, "--area", "0.1", "--lambda", "0", "1",
                       "--order", "1", "2"], ["dfn"]),
        "convergence-meshes": (["convergence", "--meshes", *jittered, "--order", "1", "2"],
                               ["convergence_rows", "rates"]),
        "convergence-network": (["convergence", *network, "--area", "0.2", "0.1", "0.05",
                                 "--lambda", "0", "1"], ["convergence_rows", "rates"]),
    }
    for name, (args, _) in commands.items():
        assert run(["--out", tmp_path / name / "csv", *args]) == 0
        assert run(["--out", tmp_path / name / "json", "--format", "json", *args]) == 0
    return tmp_path, commands, (grid, cut, jittered)


def test_every_json_table_is_strict_json(cli_tables, tmp_path):
    """Every ``--format json`` table parses with NaN and infinities refused:
    a value not measured (the network families' ``cond``) or not finite is
    null."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    root, commands, _ = cli_tables
    for name, (_, tables) in commands.items():
        for table in tables:
            json.loads((root / name / "json" / f"{table}.json").read_text(),
                       parse_constant=refuse)
    rows = json.loads((root / "convergence-network" / "json" / "convergence_rows.json").read_text())
    assert [r["cond"] for r in rows] == [None] * 6
    write_table([{"a": float("nan"), "b": -np.inf, "c": 1.5}], ["a", "b", "c"],
                tmp_path / "t", "json")
    assert json.loads((tmp_path / "t.json").read_text(), parse_constant=refuse) == [
        {"a": None, "b": None, "c": 1.5}]


def test_every_table_matches_the_reference_writers(cli_tables):
    """Each command's CSV tables are byte for byte what the reference writers
    write for the same data (a report table with the CLI's wall times), and
    under ``--format json`` each table is ``<name>.json`` holding the CSV's rows."""
    tmp_path, commands, (grid, cut, jittered) = cli_tables
    for name, (_, tables) in commands.items():
        json_dir = tmp_path / name / "json"
        assert sorted(p.name for p in json_dir.iterdir() if p.suffix in (".csv", ".json")) == [
            f"{t}.json" for t in sorted(tables)]
        for table in tables:
            got = read_csv(tmp_path / name / "csv" / f"{table}.csv")
            want = [{c: ref_fmt(v) for c, v in r.items()}
                    for r in json.loads((json_dir / f"{table}.json").read_text())]
            for r in got + want:
                r.pop("wall_time", None)
            assert got == want, (name, table)

    lines = (tmp_path / "quality" / "csv" / "quality.csv").read_text().splitlines()
    assert lines[0] == "cell_id,rho1,rho2,rho3,rho4,rho"
    assert len(lines) == 5

    def with_cli_wall_times(rows, name, table):
        for r, got in zip(rows, read_csv(tmp_path / name / "csv" / f"{table}.csv")):
            r["wall_time"] = float(got["wall_time"])
        return rows

    ref = tmp_path / "ref"
    for name in commands:
        (ref / name).mkdir(parents=True)
    ref_write_quality_csv(quality.mesh_quality_report(load_mesh(grid)),
                          ref / "quality" / "quality.csv")
    ref_write_energy_csv(agglomerate(load_mesh(cut), AgglomerationConfig(lam=1.0)).history,
                         ref / "agglomerate" / "energy.csv")
    disc = dfn.mesh_discretization(load_mesh(jittered[1]), CATALOG["sinsin"],
                                   name=str(jittered[1]))
    rows = [ref_report_row(dfn.solve_discretized(disc, 2), str(jittered[1]))]
    ref_write_report(with_cli_wall_times(rows, "solve", "solve"), ref / "solve" / "solve.csv")
    rows = []
    for lam in (0.0, 1.0):
        disc = dfn.discretize_network(dfn.network1(), max_area=0.1, lam=lam)
        rows += [ref_report_row(dfn.solve_discretized(disc, k), "area=0.1") for k in (1, 2)]
    ref_write_report(with_cli_wall_times(rows, "dfn-solve", "dfn"), ref / "dfn-solve" / "dfn.csv")
    for name in ("convergence-meshes", "convergence-network"):
        json_dir = tmp_path / name / "json"
        rows = json.loads((json_dir / "convergence_rows.json").read_text())
        ref_write_convergence(with_cli_wall_times(rows, name, "convergence_rows"),
                              json.loads((json_dir / "rates.json").read_text()), ref / name)
    for name, (_, tables) in commands.items():
        for table in tables:
            got = (tmp_path / name / "csv" / f"{table}.csv").read_bytes()
            assert got == (ref / name / f"{table}.csv").read_bytes(), (name, table)
