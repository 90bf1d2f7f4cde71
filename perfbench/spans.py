"""Outside-in tracing of one ``polyagg`` run.

The tracer wraps the layers' public functions by module attribute, so the
program under test is not edited.  Each call records a span (id, name,
start, end, parent id, thread id); counters are recorded at the same
boundaries.  Self times subtract the union of the child spans, taken across
threads, because ``discretize_network`` and ``assemble_network`` run the
fractures on a thread pool.  Span times are wall time per thread, so the
summed times of spans that ran at once on the pool add up to more than the
run's wall time, and each includes the time its thread waited for the
interpreter lock.
"""

import functools
import importlib
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, n=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn, after=None):
        """``fn`` traced as ``name``; ``after(tracer, args, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def _run_under(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's open span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current(), fn, *args, **kwargs)

        return TracedExecutor


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - _union_length(children.get(sp.sid, ()), sp.start, sp.end)
        for sp in spans
    }


def span_totals(spans):
    """Per name: (calls, summed duration, summed self time)."""
    selfs = self_times(spans)
    out = {}
    for sp in spans:
        calls, total, own = out.get(sp.name, (0, 0.0, 0.0))
        out[sp.name] = (calls + 1, total + (sp.end - sp.start), own + selfs[sp.sid])
    return out


# ---------------------------------------------------------------------------
# counters recorded after a traced call returns
# ---------------------------------------------------------------------------

def _after_maxflow(tr, args, out):
    nodes = len(args[0])
    tr.add("agglomerate.swaps")
    tr.add("swap_nodes_sum", nodes)
    tr.maximum("agglomerate.swap_nodes_max", nodes)


def _after_minimize(tr, args, out):
    tr.add("agglomerate.cycles", len(out[1]) - 1)


def _after_apply_labeling(tr, args, out):
    tr.add("cells_before_merge", args[0].n_cells)
    tr.add("cells_after_merge", out.n_cells)


def _after_cut(tr, args, out):
    tr.add("dfn.cells_cut", out.n_cells)


def _after_solve(tr, args, out):
    system = args[0]
    tr.add("vem.nnz", system.nnz)
    factor = system._factor  # cached by solve_spd; reading it starts no new span
    if factor is not None:
        tr.add("vem.factor_nnz", factor.L.nnz + factor.U.nnz)


def _after_cond(tr, args, out):
    tr.add("vem.cond_iterations", out.iterations)
    tr.add("vem.cond_unconverged", int(not out.converged))


def _after_vtk(tr, args, out):
    tr.add("vtkio.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, counter hook).  The pipeline looks some
# functions up in its caller's namespace (``dfn`` imports ``agglomerate`` by
# name), so the attribute is patched where the caller reads it.
TRACED = [
    ("polyagg.dfn", "discretize_network", "dfn.discretize_network", None),
    ("polyagg.dfn", "solve_discretized", "dfn.solve_discretized", None),
    ("polyagg.dfn", "triangulate_fracture", "dfn.triangulate_fracture", None),
    ("polyagg.dfn", "cut_by_traces", "dfn.cut_by_traces", _after_cut),
    ("polyagg.dfn", "stitch_meshes", "dfn.stitch_meshes", None),
    ("polyagg.dfn", "build_global_dofmap", "dfn.build_global_dofmap", None),
    ("polyagg.dfn", "assemble_network", "dfn.assemble_network", None),
    ("polyagg.dfn", "agglomerate", "agglomerate.agglomerate", None),
    ("polyagg.agglomerate", "agglomerate", "agglomerate.agglomerate", None),
    ("polyagg.agglomerate", "minimize", "agglomerate.minimize", _after_minimize),
    ("polyagg.agglomerate", "apply_labeling", "agglomerate.apply_labeling", _after_apply_labeling),
    ("polyagg._kernels", "maxflow", "kernels.maxflow", _after_maxflow),
    ("polyagg._kernels", "quality_scores", "kernels.quality_scores", None),
    ("polyagg.vem", "build_local_system", "vem.build_local_system", None),
    ("polyagg.vem", "build_element", "vem.build_element", None),
    ("polyagg.vem", "local_stiffness", "vem.local_stiffness", None),
    ("polyagg.vem", "local_load", "vem.local_load", None),
    ("polyagg.vem", "solve_spd", "vem.solve_spd", _after_solve),
    ("polyagg.vem", "condition_estimate", "vem.condition_estimate", _after_cond),
    ("polyagg.vem", "solution_norms", "vem.norms", None),
    ("polyagg.vem", "error_norms", "vem.norms", None),
    ("polyagg.vem", "projection_discrepancy", "vem.projection_discrepancy", None),
    ("polyagg.quality", "mesh_quality_report", "quality.mesh_quality_report", None),
    ("polyagg.vtkio", "write_mesh_vtk", "vtkio.write_mesh_vtk", _after_vtk),
]


def install(tracer: Tracer) -> None:
    """Patch every traced attribute, the factorization and the thread pools."""
    for module, attr, name, after in TRACED:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), after))
    vem = importlib.import_module("polyagg.vem")
    vem.SparseSpdSystem.factor = tracer.wrap("vem.factor", vem.SparseSpdSystem.factor)
    importlib.import_module("polyagg.dfn").ThreadPoolExecutor = tracer.executor_class()


# per-layer metric -> (span name, "total" | "self" | "calls") or a counter
_SPAN_METRICS = {
    "agglomerate.agglomerate.self_s": ("agglomerate.agglomerate", "self"),
    "agglomerate.minimize.self_s": ("agglomerate.minimize", "self"),
    "agglomerate.apply_labeling_s": ("agglomerate.apply_labeling", "total"),
    "kernels.maxflow_s": ("kernels.maxflow", "total"),
    "kernels.quality_scores_s": ("kernels.quality_scores", "total"),
    "kernels.quality_scores.calls": ("kernels.quality_scores", "calls"),
    "vem.build_element_s": ("vem.build_element", "total"),
    "vem.build_element.calls": ("vem.build_element", "calls"),
    "vem.local_stiffness_s": ("vem.local_stiffness", "total"),
    "vem.local_load_s": ("vem.local_load", "total"),
    "vem.build_local_system.self_s": ("vem.build_local_system", "self"),
    "dfn.assemble_network.self_s": ("dfn.assemble_network", "self"),
    "vem.factor_s": ("vem.factor", "total"),
    "vem.solve_spd.self_s": ("vem.solve_spd", "self"),
    "vem.condition_estimate.self_s": ("vem.condition_estimate", "self"),
    "vem.norms_s": ("vem.norms", "total"),
    "vem.projection_discrepancy_s": ("vem.projection_discrepancy", "total"),
    "dfn.triangulate_fracture_s": ("dfn.triangulate_fracture", "total"),
    "dfn.cut_by_traces_s": ("dfn.cut_by_traces", "total"),
    "dfn.stitch_meshes_s": ("dfn.stitch_meshes", "total"),
    "dfn.build_global_dofmap_s": ("dfn.build_global_dofmap", "total"),
    "dfn.discretize_network.self_s": ("dfn.discretize_network", "self"),
    "dfn.solve_discretized.self_s": ("dfn.solve_discretized", "self"),
    "quality.mesh_quality_report_s": ("quality.mesh_quality_report", "total"),
    "vtkio.write_mesh_vtk_s": ("vtkio.write_mesh_vtk", "total"),
    "cli.self_s": ("cli.main", "self"),
}
_COUNTERS = (
    "agglomerate.swaps", "agglomerate.swap_nodes_max", "agglomerate.cycles",
    "agglomerate.merges_skipped", "vem.cond_iterations", "vem.cond_unconverged",
    "vem.nnz", "vem.factor_nnz", "dfn.cells_cut", "vtkio.bytes",
)


def metric_names() -> list:
    return [*_SPAN_METRICS, *_COUNTERS, "agglomerate.swap_nodes_mean", "agglomerate.cell_reduction"]


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced run; absent layers read 0."""
    totals = span_totals(tracer.spans)
    counts = tracer.counts
    out = {}
    for metric, (span, kind) in _SPAN_METRICS.items():
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        out[metric] = {"total": total, "self": own, "calls": calls}[kind]
    for key in _COUNTERS:
        out[key] = counts.get(key, 0)
    swaps = counts.get("agglomerate.swaps", 0)
    out["agglomerate.swap_nodes_mean"] = counts.get("swap_nodes_sum", 0) / swaps if swaps else 0.0
    before = counts.get("cells_before_merge", 0)
    out["agglomerate.cell_reduction"] = (
        1.0 - counts.get("cells_after_merge", 0) / before if before else 0.0
    )
    return out
