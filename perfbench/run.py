"""Seeded benchmark for tempobf: counting, enumeration and sliding-window streaming.

Run from the repository root:

    python3 perfbench/run.py --workload skew-wide --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The parent process checks the input generator against the hashes pinned in
workloads.json, writes the workload's input for --seed under perfbench/.work,
and runs the workload in a child process under a wall-clock cap.  It prints
the run's metadata and every metric by name and unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones, and then also writes the run's spans to
perfbench/.work.  End-to-end timings are scaled to a reference host speed
(hostspeed.py).  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path

from gen import edge_list_text, sha256_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SRC = ROOT / "src"
# A run must end within 180 s; the parent's own work takes about a second.
CHILD_CAP_S = 165


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured and no result printed."""


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_metadata() -> dict:
    try:
        sc = metadata.version("sortedcontainers")
    except metadata.PackageNotFoundError:
        sc = "missing"
    digest = hashlib.sha256()
    for path in sorted((SRC / "tempobf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "sortedcontainers": sc,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "cpus": os.cpu_count(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def checked_input(conf: dict, workload: str, seed: int) -> str:
    """The workload's input for seed, after proving the generator against its pin."""
    spec = conf["inputs"][conf["workloads"][workload]["input"]]
    default = edge_list_text(**spec["params"], seed=spec["default_seed"])
    if sha256_text(default) != spec["sha256"]:
        raise Refused(
            f"the generator no longer reproduces input {conf['workloads'][workload]['input']!r} "
            f"at seed {spec['default_seed']} (sha256 {sha256_text(default)}, pinned {spec['sha256']})"
        )
    return default if seed == spec["default_seed"] else edge_list_text(**spec["params"], seed=seed)


def run_workload(conf: dict, bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    text = checked_input(conf, workload, seed)
    WORK.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    path = WORK / f"{stem}-{os.getpid()}.txt"
    path.write_text(text, encoding="utf-8")
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--input", str(path),
        "--trace-out", str(WORK / f"trace-{stem}.jsonl"),
    ]
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace} input_sha256={sha256_text(text)}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_CAP_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded the {CHILD_CAP_S} s cap and was stopped", file=sys.stderr)
        proc = None
    finally:
        path.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines() if proc is not None else []
    if proc is None or proc.returncode != 0 or not lines:
        # a capped or crashed child is one failed operation
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    raw = json.loads(lines[-1])
    host = raw.pop("host_speed_factor", None)
    if host is not None:
        # timings are scaled to the reference host speed; seconds on this host are factor times larger
        print(f"# {workload} host_speed_factor={host:.4f}")
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing:
        print(f"perfbench: {workload} did not report {', '.join(missing)}", file=sys.stderr)
        return {"correct": False, "attempted": raw["attempted"], "failed": max(1, raw["failed"]), "metrics": {}}
    raw["metrics"] = {name: {"value": raw["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, m in raw["metrics"].items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{workload}\tfail_ratio\t{raw['failed'] / raw['attempted']:.6g}\t({raw['failed']} of {raw['attempted']})")
    return raw


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import bench

    conf = load_json(HERE / "workloads.json")
    spec = conf["workloads"][args.workload]
    default_seed = conf["inputs"][spec["input"]]["default_seed"]
    pinned = spec["pinned"] if args.seed == default_seed else None
    tally = bench.Tally()
    host = None
    try:
        if args.trace:
            tracer = bench.Tracer(args.workload)
            metrics = bench.run_traced(spec, conf, args.input, pinned, tally, tracer)
            tracer.dump(args.trace_out)
        else:
            metrics, host = bench.run_timed(spec, conf, args.input, pinned, args.seconds, tally)
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        metrics = {}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
        "host_speed_factor": host,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    conf_path = HERE / "workloads.json"
    names = list(load_json(conf_path)["workloads"])
    parser = argparse.ArgumentParser(description="Seeded tempobf benchmark; see perfbench/NOTES.md.")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=int, default=None, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--input", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        if not (SRC / "tempobf" / "__init__.py").is_file():
            raise Refused(f"no tempobf sources under {SRC}; run from a full checkout")
        bench_conf = load_json(ROOT / "BENCHMARK.json")
        conf = load_json(conf_path)
        seconds = args.seconds if args.seconds is not None else bench_conf["run_seconds"]
        meta = run_metadata()
        print("# perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
        workloads = names if args.workload == "all" else [args.workload]
        results = {}
        for name in workloads:
            default_seed = conf["inputs"][conf["workloads"][name]["input"]]["default_seed"]
            seed = args.seed if args.seed is not None else default_seed
            results[name] = run_workload(conf, bench_conf, name, seed, seconds, args.trace)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
