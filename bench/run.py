"""The infdilog benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
One run is a closed loop of passes, each in a fresh single-threaded process
(bench/child.py): a pass runs every check of the workload once, back to back,
and the next pass starts when the previous one has returned, until --seconds
have passed (at least one pass).  Pass k runs with seed N + k * PASS_SEED_STRIDE,
so pass 0 is exactly `--seed N`; fresh processes keep one pass's caches from
serving the next.

Times are scaled to the host's reference speed (bench/reference.py): the
reference kernel is timed just before and after each check and before each
process spawn, and each time is multiplied by NOMINAL_S / kernel time.  The raw
times stay in the run record.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s        median pass time, sum of the check times from each check call
                to its report being written
  points_per_s  median over passes of the points attempted / pass time
  setup_s       median spawn-to-ready time of a fresh process that imports
                infdilog.cli and builds the pass (SETUP_SAMPLES extra processes
                plus one per pass)
  peak_rss_mib  largest peak RSS of any pass process
--trace 1 runs untraced and traced passes in pairs, then the layer micro-run,
and reports the per-layer metrics: counts and ratios of the first traced pass
(seed N itself), self times as medians over the traced passes (raw seconds).

Every pass goes through the correctness gate: each check's verdict must be
`pass`; checks that pass with zero valid points are counted as vacuous and must
number exactly workloads.EXPECTED_VACUOUS; the seed-0 suite report must hash
to the seed commit's digest.  The full record (environment, report digests, raw
and scaled times, micro numbers next to the ROADMAP baseline, span trees) goes
to bench/out/<workload>-seed<N>-trace<T>.json; all of it but the span trees is
also printed, and the last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PASS_SEED_STRIDE = 1_000_003
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> tuple[dict, dict | None]:
    """Run one child; return its set-up time, raw and scaled, and its JSON result."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), workload, str(seed), mode]
    kernel = reference.kernel_time()
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process for {workload} seed {seed} timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} seed {seed} exited {proc.returncode}")
    timing = {"s": setup, "scaled_s": reference.scale(setup, kernel, kernel), "kernel_s": kernel}
    return timing, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def gate(workload: str, passes: list[dict]) -> dict:
    """Correctness of every pass: verdicts, vacuous count, pinned suite digest."""
    checks = failed = 0
    problems = []
    vacuous_per_pass = []
    for p in passes:
        vacuous = 0
        for unit in p["units"]:
            for check in unit["checks"]:
                checks += 1
                if check["verdict"] != "pass":
                    failed += 1
                    problems.append(f"seed {p['seed']}: {check['name']} is {check['verdict']}")
                elif check["valid"] == 0:
                    vacuous += 1
        vacuous_per_pass.append(vacuous)
        if vacuous != workloads.EXPECTED_VACUOUS[workload]:
            failed += 1
            problems.append(f"seed {p['seed']}: {vacuous} vacuous checks, expected "
                            f"{workloads.EXPECTED_VACUOUS[workload]}")
        if workload == "suite" and p["seed"] == 0 and p["units"][0]["sha256"] != workloads.SUITE_SEED0_SHA256:
            failed += 1
            problems.append("seed 0 suite report differs from the seed commit's")
    return {"checks": checks, "failed": failed, "vacuous_per_pass": vacuous_per_pass,
            "problems": problems}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def end_to_end(passes: list[dict], setup_samples: list[dict]) -> dict[str, float]:
    points = [sum(c["attempted"] for u in p["units"] for c in u["checks"]) for p in passes]
    return {
        "wall_s": statistics.median(p["scaled_s"] for p in passes),
        "points_per_s": statistics.median(n / p["scaled_s"] for n, p in zip(points, passes)),
        "setup_s": statistics.median(s["scaled_s"] for s in setup_samples),
        "peak_rss_mib": max(p["maxrss_kib"] for p in passes) / 1024,
    }


def per_layer(plain: list[dict], traced: list[dict], micro: dict, checked: dict) -> dict[str, float]:
    out = dict(traced[0]["layers"])
    for name in out:
        if name.endswith("self_s") or name.endswith(".s"):
            out[name] = statistics.median(p["layers"][name] for p in traced)
    out["trace.overhead_ratio"] = statistics.median(
        t["scaled_s"] / u["scaled_s"] for u, t in zip(plain, traced)) - 1
    out["fail_ratio"] = checked["failed"] / checked["checks"]
    out["vacuous_checks"] = checked["vacuous_per_pass"][0]
    out.update(micro)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "infdilog" / "cli.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    setup_samples = [spawn(args.workload, args.seed, "setup")[0] for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        pass_seed = args.seed + len(plain) * PASS_SEED_STRIDE
        setup, result = spawn(args.workload, pass_seed, "pass")
        setup_samples.append(setup)
        plain.append(result)
        if args.trace:
            traced.append(spawn(args.workload, pass_seed, "trace")[1])
    checked = gate(args.workload, plain + traced)

    if args.trace:
        micro = spawn(args.workload, args.seed, "micro")[1]
        values = per_layer(plain, traced, micro, checked)
        baseline = json.loads((BENCH / "interactions.json").read_text())["roadmap_baseline"]
        record["micro_vs_roadmap"] = {name: {"measured": micro[name], "roadmap": baseline.get(name)}
                                      for name in micro}
        record["span_trees"] = [{"seed": t["seed"], "tree": t["tree"]} for t in traced]
    else:
        values = end_to_end(plain, setup_samples)
    record["setup_samples"] = setup_samples
    record["passes"] = [{key: value for key, value in p.items() if key not in ("layers", "tree")}
                        for p in plain + traced]
    record["gate"] = checked

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    summary = {
        "correct": checked["failed"] == 0,
        "attempted": checked["checks"],
        "failed": checked["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record["summary"] = summary
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in record if key != "span_trees"}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
