"""Benchmark of muxsim: one workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0

It writes the workload's inputs from --seed under .bench_work/, times a
fresh interpreter's set-up, runs the workload's rounds in one
single-threaded worker process, checks every output, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0
SETUP_CODE = """
import sys
import muxsim.cli
from muxsim.fitting import load_observations_csv
for path in sys.argv[1:]:
    (muxsim.cli.load_scenario if path.endswith(".json") else load_observations_csv)(path)
"""


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MUXSIM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(files, root: Path, env: dict) -> float:
    """Median of SETUP_SAMPLES fresh interpreters that import muxsim.cli and
    parse the workload's inputs; one more run first fills the file cache."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *files], cwd=root, env=env,
                       check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "muxsim" / "cli.py").is_file():
        return fail(f"no muxsim source under {root / 'src'}; run from the repository root")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import inputs

    if args.workload not in inputs.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    plan = inputs.make_plan(args.workload, args.seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = environment(root)

    metrics = {}
    if args.trace == "0":
        metrics["setup_s"] = setup_seconds(plan["setup_parses"], root, env)
    result_path = work / "result.json"
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(args.seconds),
         args.trace, str(result_path)],
        cwd=root, env=env, timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        return fail(f"worker exited with {worker.returncode}")
    result = json.loads(result_path.read_text())
    metrics.update(result["metrics"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"worker did not report {missing}")
    for line in dict.fromkeys(result["failed"] + result["problems"]):
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
