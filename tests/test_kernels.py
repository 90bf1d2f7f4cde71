import importlib
import importlib.util
from pathlib import Path

import numpy as np

from polyagg import _kernels

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_maxflow_int64_saturation_safe():
    big = np.int64(1) << 40
    flow, mask = _kernels.maxflow(
        np.array([big], dtype=np.int64),
        np.array([big + 5], dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    assert flow == big
    assert mask.tolist() == [False]


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
