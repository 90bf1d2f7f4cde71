import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from polyagg import _kernels
from conftest import packed_min_cut

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_maxflow_int64_saturation_safe():
    big = np.int64(1) << 40
    flow, mask = packed_min_cut([big], [big + 5], [], [])
    assert flow == big
    assert mask.tolist() == [False]


def test_maxflow_int64_saturation_safe_above_enumeration():
    n = _kernels.ENUM_MAX_NODES + 1  # solved by augmenting paths
    big = np.int64(1) << 40
    cap_s = np.zeros(n, dtype=np.int64)
    cap_t = np.zeros(n, dtype=np.int64)
    cap_s[0] = big
    cap_t[-1] = big + 5
    chain = [(i, i + 1) for i in range(n - 1)]
    flow, mask = packed_min_cut(cap_s, cap_t, chain, [big << 1] * (n - 1))
    assert flow == big
    assert mask.tolist() == [False] * n


def test_benchmark_patch_targets_exist():
    """Every attribute the benchmark tracer patches or reads is still there."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr, _, _ in spans.TRACED]
    targets += [("polyagg.cli", "main"), ("polyagg._kernels", "NUMBA_ENABLED")]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    vem = importlib.import_module("polyagg.vem")
    assert callable(vem.SparseSpdSystem.factor)


def test_benchmark_traced_functions_are_called_by_module_global_name(tmp_path, monkeypatch):
    """A dfn-solve run reaches every function the benchmark tracer patches
    through the module attribute it patches, so no span misses its calls.
    ``polyagg.agglomerate.agglomerate`` is the exception: the pipeline calls
    it by the name ``dfn`` imports, which the tracer patches as well."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    called = set()
    for module, attr, _, _ in spans.TRACED:
        mod = importlib.import_module(module)

        def recorded(*args, _target=(module, attr), _fn=getattr(mod, attr), **kwargs):
            called.add(_target)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, recorded)
    cli = importlib.import_module("polyagg.cli")
    assert cli.main(["--out", str(tmp_path), "dfn-solve", "--network", "builtin:network1",
                     "--area", "0.05", "--lambda", "1", "--order", "2"]) == 0
    expected = {(module, attr) for module, attr, _, _ in spans.TRACED}
    assert called == expected - {("polyagg.agglomerate", "agglomerate")}


def test_submodules_are_modules():
    """No package-level name shadows a submodule."""
    import polyagg.agglomerate as agglomerate
    import polyagg.dfn as dfn
    import polyagg.mesh as mesh

    for module in (agglomerate, dfn, mesh):
        assert isinstance(module, types.ModuleType)
