"""End-to-end benchmark of ``polyagg dfn-solve`` on network1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload n1-k3 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Every measured call is ``polyagg.cli.main`` in a fresh interpreter that
imports the checkout's own ``src/``; nothing is installed.  One caller runs
one CLI process at a time (a closed loop), and ``POLYAGG_THREADS`` is passed
through unchanged, so the program's per-fracture thread pool runs unless the
caller's environment turns it off.  Each call's report and VTK files are
checked; a call that fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: medians over the calls made in
``--seconds`` and, for ``setup_s``, over extra import-only starts.  ``--trace
1`` makes one untraced call, then traced calls for the rest of ``--seconds``,
and reports the per-layer metrics (medians over the traced calls).  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, starting with ``record``,
holds the environment and the raw samples.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import N_FRACTURES, WORKLOADS, Workload, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_BUDGET_S = 170.0  # hard stop for one invocation, below the 180 s limit

# end-to-end metric -> unit; taken from the highest order solved where it is a
# report value.  energy_final is checked and printed but not a metric: it is 0
# by construction at lambda = 0, which leaves no spread to bound.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_l2": "1",
    "err_h1": "1",
    "dofs": "count",
    "cells": "count",
}
REPORT_VALUES = ("err_l2", "err_h1", "dofs", "cells", "energy_final")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {
        "agglomerate.cell_reduction": "ratio",
        "agglomerate.swap_nodes_mean": "nodes",
        "agglomerate.swap_nodes_max": "nodes",
        "vtkio.bytes": "B",
        "kernels.numba": "flag",
    }.get(name, "count")


def median(values):
    """The median; for counts the lower median, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


class Runner:
    """Starts children one at a time and counts attempts and failures."""

    def __init__(self, work_dir: Path, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def child(self, cli_args=None, traced=False):
        """Run child.py once; returns (result dict or None, run directory)."""
        self.attempted += 1
        run_dir = self.work_dir / f"run{self.attempted}"
        run_dir.mkdir(parents=True)
        result_path = run_dir / "result.json"
        with open(run_dir / "log.txt", "wb") as log:
            cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
                   repr(time.time()), str(SRC)]
            if traced:
                cmd.append("--trace")
            if cli_args is not None:
                cmd += ["--", *cli_args(run_dir / "out")]
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code is None:
            return self.fail(run_dir, "timed out"), run_dir
        if code != 0 or not result_path.is_file():
            return self.fail(run_dir, f"exit code {code}"), run_dir
        return json.loads(result_path.read_text()), run_dir

    def fail(self, run_dir: Path, why: str):
        self.failed += 1
        log = run_dir / "log.txt"
        tail = log.read_text(errors="replace")[-2000:] if log.is_file() else ""
        print(f"run {run_dir.name} failed: {why}\n{tail}", file=sys.stderr)
        return None


def check_cli_run(workload: Workload, seed: int, run_dir: Path):
    """Problems of one CLI call's outputs, and its report rows without wall times."""
    report = run_dir / "out" / "dfn.json"
    if not report.is_file():
        return ["no report written"], []
    rows = json.loads(report.read_text())
    problems = check_report(workload, seed, rows)
    vtks = sorted((run_dir / "out").glob("*.vtk"))
    if len(vtks) != N_FRACTURES or any(p.stat().st_size == 0 for p in vtks):
        problems.append(f"expected {N_FRACTURES} non-empty VTK files, found {len(vtks)}")
    return problems, [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, deadline: float) -> dict:
    runner = Runner(work_dir, deadline)
    area = workload.area_for(seed)

    def cli_args(out_dir):
        return workload.cli_args(area, out_dir)

    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    layer_samples = []
    first_rows = []
    env = {}

    def cli_call(traced: bool) -> bool:
        result, run_dir = runner.child(cli_args, traced=traced)
        if result is None:
            return False
        problems = [f"exit code {result['exit']}"] if result["exit"] != 0 else []
        found, rows = check_cli_run(workload, seed, run_dir)
        problems += found
        if first_rows and rows != first_rows[0]:
            problems.append("report differs from the first call of this run")
        if problems:
            runner.fail(run_dir, "; ".join(problems))
            return False
        if not first_rows:
            first_rows.append(rows)
        env.update(result["env"])
        if traced:
            layer_samples.append(result["layers"])
        else:
            for key in samples:
                samples[key].append(result[key])
        return True

    # Calls while the next one, taking as long as the last, still ends within
    # --seconds, so that a run lasts --seconds whatever the workload's call
    # time; a failed call ends the run early.  An import-only start follows
    # each untraced call, so that every set-up sample is taken in the same
    # state of the machine.
    end = time.monotonic() + seconds
    if trace:
        cli_call(traced=False)
    else:
        runner.child()  # unmeasured: fills the bytecode caches of a fresh checkout
    while True:
        started = time.monotonic()
        if not cli_call(traced=trace):
            break
        if not trace:
            result, _ = runner.child()
            if result is not None:
                samples["setup_s"].append(result["setup_s"])
        now = time.monotonic()
        if now + (now - started) > end:
            break

    metrics = {}
    if trace and layer_samples:
        for name in layer_samples[0]:
            metrics[name] = median([s[name] for s in layer_samples])
        if samples["wall_s"]:
            metrics["trace_overhead_s"] = metrics["traced_wall_s"] - median(samples["wall_s"])
    elif not trace and samples["wall_s"]:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            metrics[name] = median(samples[name])
    last = first_rows[0][-1] if first_rows else {}
    report_values = {key: last[key] for key in REPORT_VALUES if key in last}
    if not trace:
        metrics.update({k: v for k, v in report_values.items() if k in END_TO_END})
    env.update({"git_commit": git_commit(), "seed": seed, "area": area})
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "report": report_values,
        "env": env,
        "samples": samples,
    }


def expected_metrics(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END)
    names = [*spans.metric_names(), "kernels.numba", "traced_wall_s", "trace_overhead_s"]
    return {name: layer_unit(name) for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints the table and the record, returns the result."""
    work_dir = HERE / ".work" / f"{name}-{seed}-{time.time_ns()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        m = measure(WORKLOADS[name], seed, seconds, trace, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = expected_metrics(trace)
    complete = set(units) <= set(m["metrics"])
    n_wall = len(m["samples"]["wall_s"])
    for metric, unit in units.items():
        value = m["metrics"].get(metric, "missing")
        print(f"{name} {metric} = {value} {unit}")
    if not trace:
        print(f"{name} energy_final = {m['report'].get('energy_final', 'missing')} count")
        print(f"{name} samples: {n_wall} calls, {len(m['samples']['setup_s'])} set-ups")
    record = {"workload": name, "trace": int(trace), **m}
    print("record " + json.dumps(record))
    return {
        "correct": m["failed"] == 0 and complete,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": m["metrics"][k], "unit": u}
                    for k, u in units.items() if k in m["metrics"]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "polyagg" / "cli.py").is_file():
        print(f"no polyagg sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
