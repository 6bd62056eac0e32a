"""Benchmark of the nonseq-sts library: build, write, verify, certify and
sequence, on four workloads that each load a different layer.

    python3 perfbench/run.py --workload climb --seed 0 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every run also writes a record under ``perfbench/out/``.

    python3 perfbench/run.py --workload all --repeat 10 --seconds 20

runs each workload (or the one named) in its own process, once per seed
from ``--seed`` on, and prints each end-to-end metric's median and
quartile spread against its bound in BENCHMARK.json.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy, and every GDD cache is a fresh directory
under ``perfbench/out/``: a user cache would turn a cold build into a
cache read.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "nonseq_sts"
STARTER_ORDERS = (13, 19, 25, 31, 43)
SETUP_SAMPLES = 9

sys.path.insert(0, str(HERE))


def import_package():
    """Import the package from this checkout's src/, or exit."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no {PACKAGE} sources at {init.relative_to(ROOT)}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module(PACKAGE)
    if Path(module.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {PACKAGE} from {module.__file__}, not from this checkout")
    return module


def measure_setup() -> tuple[object, list[float]]:
    """Import the package and build the five starter systems, several
    times from a clean module table; the last import is the one used."""
    samples = []
    ns = None
    for _ in range(SETUP_SAMPLES):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        start = time.perf_counter()
        ns = import_package()
        for n in STARTER_ORDERS:
            ns.base_case(n)
        samples.append(time.perf_counter() - start)
    return ns, samples


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checker
    from tracer import Tracer
    from workloads import WORKLOADS

    ns, setup_samples = measure_setup()
    workload = WORKLOADS[name]
    tmp = OUT / f"tmp-{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    plain_rounds, traced_rounds, layer_rounds, spans = [], [], [], []
    correct = True
    error = ""
    try:
        tmp.mkdir(parents=True)
        state = workload.prepare(ns, seed, tmp)
        started = time.perf_counter()
        r = 0
        while True:
            rnd = workload.run_round(ns, state, seed, r, tmp)
            plain_rounds.append(rnd)
            if tracer is not None:
                # The same round again, traced: the difference is the overhead.
                tracer.reset()
                tracer.install()
                try:
                    traced = workload.run_round(ns, state, seed, r, tmp)
                finally:
                    tracer.uninstall()
                traced_rounds.append(traced)
                layers = tracer.layer_metrics()
                layers["documents.bytes"] = traced.doc_bytes
                layers["phase.build_s"] = traced.phases["build"]
                layers["phase.write_s"] = traced.phases["write"]
                layers["phase.search_s"] = traced.phases["search"]
                layers["trace.overhead_s"] = traced.metrics()["total_s"] - rnd.metrics()["total_s"]
                layer_rounds.append(layers)
                spans.append(tracer.spans)
            r += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / r > seconds:
                break
    except checker.CheckError as exc:
        correct = False
        error = str(exc)
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    every_round = plain_rounds + traced_rounds
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(plain_rounds),
        "correct": correct,
        "error": error,
        "attempted": sum(rnd.attempted for rnd in every_round),
        "failed": sum(rnd.failed for rnd in every_round),
        "setup_samples_s": setup_samples,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "round_metrics": [rnd.metrics() for rnd in plain_rounds],
    }
    if plain_rounds and correct:
        phases = medians(record["round_metrics"])
        record["end_to_end"] = {
            "setup_s": statistics.median(setup_samples),
            "total_s": phases["total_s"],
            "verify_s": phases["verify_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        # Phase metrics a workload does not exercise read 0, so they are
        # kept in the record rather than gated.
        record["phases"] = phases
        if trace:
            record["per_layer"] = medians(layer_rounds)
            record["layer_rounds"] = layer_rounds
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"columns": ["name", "start", "end", "parent", "outcome"], "rounds": spans}) + "\n")
    return record


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(record: dict) -> dict:
    """The result JSON: the metrics BENCHMARK.json lists, with its units."""
    metrics = {}
    if "end_to_end" in record:
        kind = "per_layer" if record["trace"] else "end_to_end"
        for metric in load_spec()[kind]:
            metrics[metric["name"]] = {"value": record[kind][metric["name"]], "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def repeat(workloads: list[str], first_seed: int, count: int, seconds: float, trace: int) -> int:
    """Run each workload ``count`` times, each in its own process, and
    print each end-to-end metric's spread against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    status = 0
    for name in workloads:
        runs = []
        for seed in range(first_seed, first_seed + count):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        shares = sorted({run["failed"] / run["attempted"] for run in runs})
        row = {"runs": len(runs), "failed_shares": shares, "metrics": {}}
        print(f"{name}: {len(runs)} runs, failed share {shares}")
        for key in runs[0]["metrics"]:
            values = [run["metrics"][key]["value"] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(key) if not trace else None
            row["metrics"][key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            mark = "" if bound is None else (" ok" if spread <= bound / 3 else (" within bound" if spread <= bound else " OVER BOUND"))
            print(f"  {key:40s} median {med:12.6g}  spread {spread:7.2%}  bound {bound}{mark}")
        summary[name] = row
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-seed{first_seed}x{count}-trace{trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, each in its own process")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if args.workload == "all" or args.repeat > 1:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return repeat(names, args.seed, args.repeat, args.seconds, args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] and "end_to_end" in record else 1


if __name__ == "__main__":
    sys.exit(main())
