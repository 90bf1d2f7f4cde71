"""One measured ``polyagg`` call in a fresh interpreter.

Usage: python3 child.py RESULT.json T0 SRC [--trace] [-- CLI ARGS...]

``T0`` is the parent's ``time.time()`` just before it started this process,
so ``setup_s`` covers interpreter start plus the import of ``polyagg.cli``
from ``SRC``.  Without CLI arguments the child only imports and reports the
set-up time.  The result is written to RESULT.json, not to stdout, which
belongs to the CLI.
"""

import sys
import time


def main() -> int:
    result_path, t0, src = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    rest = sys.argv[4:]
    traced = bool(rest) and rest[0] == "--trace"
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []

    sys.path.insert(0, src)
    from polyagg import cli  # noqa: E402  (the import is what setup_s times)

    setup_s = time.time() - t0

    import json
    import os
    import platform
    import resource

    import numpy
    import scipy

    from polyagg import _kernels

    result = {
        "setup_s": setup_s,
        "env": {
            "cpu_count": os.cpu_count(),
            "numba": bool(_kernels.NUMBA_ENABLED),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "polyagg_threads_set": "POLYAGG_THREADS" in os.environ,
        },
    }
    code = 0
    if cli_args:
        if traced:
            code, result["layers"] = _traced_main(cli, cli_args)
            result["layers"]["kernels.numba"] = int(_kernels.NUMBA_ENABLED)
        else:
            start = time.perf_counter()
            code = cli.main(cli_args)
            result["wall_s"] = time.perf_counter() - start
        result["exit"] = code
        rss = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = rss / 1024.0  # ru_maxrss is in KiB on Linux
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


def _traced_main(cli, cli_args):
    import warnings

    import spans  # found next to this script, which is sys.path[0]

    tracer = spans.Tracer()
    spans.install(tracer)
    # the merge-skip RuntimeWarnings become a failure count, not terminal output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = tracer.call("cli.main", cli.main, cli_args)
        wall = time.perf_counter() - start
    skipped = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning) and "merge of cells" in str(w.message):
            skipped += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    tracer.add("agglomerate.merges_skipped", skipped)
    layers = spans.layer_metrics(tracer)
    layers["traced_wall_s"] = wall
    return code, layers


if __name__ == "__main__":
    sys.exit(main())
