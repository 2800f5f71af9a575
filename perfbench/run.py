"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 24 --trace 0

Workloads, metrics and units are those of ``BENCHMARK.json`` at the
checkout root.  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it stamps the environment (commit, CPU
count, Python version, load shape, daemon argv, seed); the same record,
with every problem found, goes to ``perfbench/out/``.  A layer a
workload does not exercise reports 0 (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Every run ends well inside the three minutes a run may take.
WATCHDOG_S = 170


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {WATCHDOG_S} s")


def load_program():
    """Import the ``repro`` package from this checkout's ``src``, and
    nothing else: a checkout without the program must fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")
    for needed in (ROOT / "specs" / "queue.spec",):
        if not needed.is_file():
            raise FileNotFoundError(needed)


def environment(args, config: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "specs").rglob("*"))
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **config,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: the program is not in this checkout: {exc}", file=sys.stderr)
        return 2

    import procs

    strays = procs.serve_processes()
    if strays:
        # They would share the cores with this run.
        print(f"perfbench: stray repro serve processes: {strays}", file=sys.stderr)
        return 4
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        if args.workload == "symtab-compile":
            import symtab_bench as bench
        else:
            import serve_bench as bench
        result = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT
        )
    finally:
        signal.alarm(0)

    left = procs.serve_processes()
    if left:
        result["correct"] = False
        result["problems"].append(f"repro serve processes left after the run: {left}")
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing and not args.trace:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {
            "value": float(result["metrics"].get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in wanted
    }
    env = environment(args, result["config"])
    record = {
        "env": env,
        "not_exercised": missing,
        "problems": result["problems"],
        "span_self_times": result["self_times"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in result["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
