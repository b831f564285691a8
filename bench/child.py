"""One workload process, started fresh by run.py for every pass.

    python3 bench/child.py ROOT WORKLOAD SEED MODE

It imports the program from ROOT/src, builds the pass's unit list and prints
`ready`: run.py times set-up from the spawn to that line.  Then, by MODE:

- setup: exit;
- pass:  run every unit once, closed loop, and print the pass as JSON;
- trace: the same under the outside-in tracer, adding per-layer numbers;
- micro: run the layer micro-run and print its numbers as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import reference
import workloads


def _run_unit(unit, cli, verify) -> bytes:
    """Run one unit and return its JSON report, as `infdilog ... --format json` writes it."""
    if unit[0] == "cli":
        saved = sys.stdout
        sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        sys.stdout = sink
        try:
            cli.main(unit[1])
        finally:
            sys.stdout = saved
        sink.flush()
        return sink.buffer.getvalue()
    _, name, kwargs = unit
    report = getattr(verify, name)(**kwargs)
    return verify.SuiteReport({"check": name, **kwargs}, [report]).to_json_bytes()


def _summary(unit, payload: bytes, seconds: float, before: float, after: float) -> dict:
    checks = json.loads(payload)["checks"]
    return {
        "unit": workloads.label(unit),
        "s": seconds,
        "scaled_s": reference.scale(seconds, before, after),
        "kernel_s": [before, after],
        "sha256": hashlib.sha256(payload).hexdigest(),
        "checks": [{key: check[key] for key in ("name", "verdict", "attempted", "valid")}
                   for check in checks],
    }


def main() -> int:
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    from infdilog import cli, verify

    plan = workloads.WORKLOADS[workload](seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if mode == "micro":
        import micro
        print(json.dumps(micro.run()))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    outcomes = []
    before = reference.kernel_time()
    with tracer or contextlib.nullcontext():
        for unit in plan:
            start = perf_counter()
            payload = _run_unit(unit, cli, verify)
            seconds = perf_counter() - start
            after = reference.kernel_time()
            outcomes.append((unit, payload, seconds, before, after))
            before = after
    units = [_summary(*outcome) for outcome in outcomes]
    result = {
        "seed": seed,
        "wall_s": sum(u["s"] for u in units),
        "scaled_s": sum(u["scaled_s"] for u in units),
        "digest": hashlib.sha256("".join(u["sha256"] for u in units).encode()).hexdigest(),
        "units": units,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["tree"] = tracer.tree()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
