"""The forked per-fracture workers and quality reports give the results of
one fracture after another, and leave no child process behind."""

import json
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from polyagg import _fork, dfn, vem
from polyagg.cli import main
from polyagg.mesh import MeshError, build_mesh
from polyagg.vem import SolverError

from conftest import grid_mesh, mesh_fields


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the workers see n available CPUs; it returns a list
    that collects the pid of every child forked from then on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(_fork.os, "fork", counted_fork)

    def set_cpus(n):
        monkeypatch.setattr(_fork, "available_cpus", lambda: n)
        forks.clear()
        return forks

    return set_cpus


def _disc_values(disc):
    return (
        {fid: mesh_fields(mesh) for fid, mesh in disc.meshes.items()},
        disc.info,
        disc.matches,
        disc.h,
    )


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("area", [1e-2, 5e-3])
def test_forked_discretization_matches_in_process(cpus, area, lam):
    """Meshes, infos (with the energy histories), trace matches and h of the
    forked pipeline equal those of the in-process one, bit for bit."""
    case = dfn.network1()
    forks = cpus(2)
    forked = dfn.discretize_network(case, max_area=area, lam=lam)
    assert len(forks) == 1
    forks = cpus(1)
    alone = dfn.discretize_network(case, max_area=area, lam=lam)
    assert forks == []
    assert _disc_values(forked) == _disc_values(alone)


def test_balanced_shares_put_the_largest_fracture_first():
    areas = {0: 3.0, 1: 2.0, 2: 4.0}  # network1
    assert dfn._balanced_shares(areas, 2) == [[2], [0, 1]]
    assert dfn._balanced_shares(areas, 1) == [[0, 1, 2]]
    assert dfn._balanced_shares(areas, 3) == [[2], [0], [1]]


def _dfn_solve_outputs(tmp_path, name):
    out = tmp_path / name
    assert main(["--out", str(out), "--format", "json", "dfn-solve",
                 "--network", "builtin:network1", "--area", "0.05",
                 "--lambda", "0", "1", "--order", "1", "2"]) == 0
    rows = json.loads((out / "dfn.json").read_text())
    for row in rows:
        del row["wall_time"]
    vtks = {p.name: p.read_bytes() for p in sorted(out.glob("*.vtk"))}
    return rows, vtks


def test_forked_dfn_solve_writes_the_same_files(cpus, tmp_path):
    """The dfn-solve report (but its wall times) and the VTK files, whose rho
    fields come from the forked quality reports, are byte-identical."""
    forks = cpus(2)
    forked = _dfn_solve_outputs(tmp_path, "forked")
    assert len(forks) == 4  # per lambda: one pipeline child, one report child
    cpus(1)
    alone = _dfn_solve_outputs(tmp_path, "alone")
    assert len(forked[1]) == 6
    assert forked == alone


def _fid_by_cut_cells(case, area):
    """fid of each network1 fracture's cut mesh, keyed by its cell count."""
    out = {}
    for fr in case.network.fractures:
        tri = dfn.triangulate_fracture(fr, max_area=area)
        segs = [tr.local_segment(fr) for tr in case.network.fracture_traces(fr.fid)]
        cut = dfn.cut_by_traces(tri, segs, tol_rel=dfn.TOL_REL * case.network.scale / fr.diameter)
        out[cut.n_cells] = fr.fid
    assert sorted(out.values()) == [0, 1, 2]
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_lowest_failing_fracture_raises(cpus, monkeypatch, n):
    """With fracture 0 (a child's share) and fracture 2 (this process's)
    failing, the error is fracture 0's, as in a run of one after another."""
    case = dfn.network1()
    fid_of = _fid_by_cut_cells(case, 0.05)
    agglomerate = dfn.agglomerate

    def failing(mesh, config):
        fid = fid_of[mesh.n_cells]
        if fid == 0:
            raise MeshError("fracture 0 failed")
        if fid == 2:
            raise ValueError("fracture 2 failed")
        return agglomerate(mesh, config)

    monkeypatch.setattr(dfn, "agglomerate", failing)
    forks = cpus(n)
    with pytest.raises(MeshError, match="fracture 0 failed"):
        dfn.discretize_network(case, max_area=0.05, lam=1.0)
    assert len(forks) == n - 1


def test_fracture_failing_only_in_its_worker_is_solved_here(cpus, monkeypatch):
    """Fracture 0, in the child's share, fails there only: this process
    solves it again, and meshes, infos and warnings are those of a run in
    one process."""
    case = dfn.network1()
    pipeline = dfn._fracture_pipeline
    here = os.getpid()

    def fails_in_worker(network, fid, *args):
        warnings.warn(f"fracture {fid} starts", RuntimeWarning)
        if fid == 0 and os.getpid() != here:
            raise MemoryError("fracture 0 fails in its worker")
        return pipeline(network, fid, *args)

    monkeypatch.setattr(dfn, "_fracture_pipeline", fails_in_worker)
    runs = []
    for n in (2, 1):
        forks = cpus(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            disc = dfn.discretize_network(case, max_area=0.05, lam=1.0)
        assert len(forks) == n - 1
        runs.append(({fid: mesh_fields(mesh) for fid, mesh in disc.meshes.items()}, disc.info,
                     [(w.category, str(w.message)) for w in caught]))
    assert runs[0] == runs[1]
    assert [text for _, text in runs[0][2] if text.endswith("starts")] == [
        f"fracture {fid} starts" for fid in range(3)]


@pytest.mark.parametrize("n", [1, 2])
def test_cli_exit_codes_leave_no_child(cpus, monkeypatch, tmp_path, capsys, n):
    """An input error in a fracture exits 2 and a failed solve exits 3, and
    neither leaves a child process."""
    args = ["--out", str(tmp_path), "dfn-solve", "--network", "builtin:network1",
            "--area", "0.05", "--lambda", "1"]
    fid_of = _fid_by_cut_cells(dfn.network1(), 0.05)
    agglomerate = dfn.agglomerate

    def failing(mesh, config):
        if fid_of[mesh.n_cells] == 0:
            raise MeshError("fracture 0 failed")
        return agglomerate(mesh, config)

    forks = cpus(n)
    with monkeypatch.context() as patch:
        patch.setattr(dfn, "agglomerate", failing)
        assert main(args) == 2
    assert "fracture 0 failed" in capsys.readouterr().err

    def singular(system):
        raise SolverError("singular")

    monkeypatch.setattr(vem, "solve_spd", singular)
    assert main(args) == 3
    assert len(forks) == 3 * (n - 1)  # a pipeline child per run, a report child in the second
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2])
def test_fracture_warnings_arrive_in_fid_order(cpus, monkeypatch, n):
    case = dfn.network1()
    fid_of = _fid_by_cut_cells(case, 0.05)
    agglomerate = dfn.agglomerate

    def warning(mesh, config):
        fid = fid_of[mesh.n_cells]
        for k in range(2):
            warnings.warn(f"merge of cells: fracture {fid}, warning {k}", RuntimeWarning)
        return agglomerate(mesh, config)

    monkeypatch.setattr(dfn, "agglomerate", warning)
    cpus(n)
    with pytest.warns(RuntimeWarning) as caught:
        dfn.discretize_network(case, max_area=0.05, lam=1.0)
    assert [str(w.message) for w in caught] == [
        f"merge of cells: fracture {fid}, warning {k}" for fid in range(3) for k in range(2)
    ]
    assert {w.filename for w in caught} == {__file__}


def test_mesh_pickle_keeps_every_field():
    empty = build_mesh(np.zeros((0, 2)), [])
    one = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]], [(0, 1)])
    fracture = dfn.network1().network.fractures[0]
    meshes = (empty, one, grid_mesh(3, 2), dfn.triangulate_fracture(fracture, max_area=0.05))
    for mesh in meshes:
        back = pickle.loads(pickle.dumps(mesh))
        assert mesh_fields(back) == mesh_fields(mesh)
        assert back.n_cells == mesh.n_cells


def test_forked_call_returns_the_childs_value(cpus):
    forks = cpus(2)
    with _fork.Forked(os.getpid) as child:
        pid = child.result()
    assert forks == [pid] and pid != os.getpid()
    cpus(1)
    with _fork.Forked(os.getpid) as alone:
        assert alone.result() == os.getpid()


def _warn_twice():
    for k in range(2):
        warnings.warn(f"from the child, warning {k}", RuntimeWarning)
    return "value"


def test_child_warnings_are_emitted_here_and_not_printed(cpus, capfd):
    forks = cpus(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _fork.Forked(_warn_twice) as child:
            assert child.result() == "value"
    assert len(forks) == 1
    assert [str(w.message) for w in caught] == [f"from the child, warning {k}" for k in range(2)]
    assert {(w.category, w.filename) for w in caught} == {(RuntimeWarning, __file__)}
    assert capfd.readouterr() == ("", "")


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("pickle cannot carry this")

    def __repr__(self):
        return "<unpicklable>"


def _warn_unpicklable(path):
    """Record this pid in ``path``, then warn with an argument and with a
    ``source`` (an open file) that pickle cannot carry."""
    with open(path, "a") as out:
        out.write(f"{os.getpid()}\n")
    warnings.warn(UserWarning("leaked", _Unpicklable()))
    with open(path) as src:
        warnings.warn("unclosed file", ResourceWarning, source=src)
    return 42


def test_unpicklable_warnings_come_back_without_a_rerun(cpus, tmp_path):
    """Warnings whose arguments or source pickle cannot carry come back with
    their category and text, and the call runs in the child only."""
    forks = cpus(2)
    path = tmp_path / "pids"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _fork.Forked(_warn_unpicklable, path) as child:
            assert child.result() == 42
    assert path.read_text().split() == [str(pid) for pid in forks] and len(forks) == 1
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (UserWarning, "('leaked', <unpicklable>)", __file__),
        (ResourceWarning, "unclosed file", __file__),
    ]


def test_unpicklable_fracture_warnings_run_each_fracture_once(cpus, monkeypatch, tmp_path):
    """A child's share whose warnings pickle cannot carry is not solved again
    here: each fracture runs once, and its warnings arrive in fid order."""
    case = dfn.network1()
    fid_of = _fid_by_cut_cells(case, 0.05)
    agglomerate = dfn.agglomerate
    path = tmp_path / "runs"

    def warning(mesh, config):
        fid = fid_of[mesh.n_cells]
        with open(path, "a") as out:
            out.write(f"{fid}\n")
        warnings.warn(UserWarning(f"fracture {fid}", _Unpicklable()))
        return agglomerate(mesh, config)

    monkeypatch.setattr(dfn, "agglomerate", warning)
    forks = cpus(2)
    with pytest.warns(UserWarning) as caught:
        dfn.discretize_network(case, max_area=0.05, lam=1.0)
    assert len(forks) == 1
    assert sorted(path.read_text().split()) == ["0", "1", "2"]
    assert [str(w.message) for w in caught] == [
        f"('fracture {fid}', <unpicklable>)" for fid in range(3)]


def _only_here(parent):
    if os.getpid() != parent:
        raise RuntimeError("fails in the child")
    return "here"


def test_failed_child_runs_the_call_again_here(cpus):
    """A call that raises in the child, or returns what pickle cannot carry,
    is run again in this process."""
    forks = cpus(2)
    with _fork.Forked(_only_here, os.getpid()) as child:
        assert child.result() == "here"
    with _fork.Forked(lambda: lambda: 7) as child:
        assert child.result()() == 7
    assert len(forks) == 2


def test_leaving_the_block_kills_the_child(cpus):
    forks = cpus(2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        with _fork.Forked(time.sleep, 60):
            raise KeyboardInterrupt
    assert len(forks) == 1 and time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

