"""The benchmark's tracer patches the program by name; pin the names it needs.

bench/tracer.py wraps public functions and methods of `src/` from outside.  A
refactor that deletes or renames one of them would break a traced benchmark
run, so these tests load the tracer from its file and check that every span
owner still holds its attribute and that a tracer installs and removes itself
cleanly on this tree.  The layer micro-run calls the program directly, so
one quick run checks that it still reports every micro metric BENCHMARK.json
declares.  The benchmark's workloads pin report bytes; one pass of each timed
workload at seed 1, the claim seed, and at seed 2, the confirmation seed,
checks that a refactor keeps them.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from infdilog import cli, fields, verify

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute the tracer may patch: span owners, field ops, module names."""
    tracer = _load_tracer()
    snapshot = {}
    for owner in {id(owner): owner for owner, _, _ in tracer.SPANS}.values():
        snapshot[id(owner)] = dict(vars(owner))
    for name, module in sys.modules.items():
        if module is not None and (name == "infdilog" or name.startswith("infdilog.")):
            snapshot[id(module)] = dict(vars(module))
    snapshot[id(fields.FieldElement)] = dict(vars(fields.FieldElement))
    return snapshot


def test_every_span_owner_holds_its_attribute():
    tracer = _load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.SPANS if attr not in vars(owner)]
    assert missing == []
    for attr in (*tracer.FIELD_OPS, "inverse"):
        assert callable(getattr(fields.FieldElement, attr))


def test_tracer_counts_spans_and_restores_the_originals():
    before = _bindings()
    tracer_module = _load_tracer()
    with tracer_module.Tracer() as tracer:
        assert cli.main(["periodicity", "--pattern", "A2", "--trials", "3"]) == 0
    assert _bindings() == before
    layers = tracer.layers()
    # one predicate call per attempted point: 3 valid, 2 rejected
    assert layers["verify.periodicity.points"] == 5
    assert layers["cluster.check_periodicity.calls"] == layers["verify.periodicity.points"]
    assert layers["cluster.YSeed.mutate.calls"] >= 15
    assert layers["cli.main.self_s"] > 0


MICRO_PATH = TRACER_PATH.parent / "micro.py"
BENCHMARK_PATH = TRACER_PATH.parent.parent / "BENCHMARK.json"


def test_micro_run_reports_every_declared_micro_metric(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_micro", MICRO_PATH)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    monkeypatch.setattr(micro, "BATCHES", 1)
    monkeypatch.setattr(micro, "MIN_BATCH_S", 0)
    declared = {metric["name"] for metric in json.loads(BENCHMARK_PATH.read_text())["per_layer"]
                if metric["name"].startswith("micro.")}
    numbers = micro.run()
    assert set(numbers) == declared
    assert all(value > 0 for value in numbers.values())


BENCH_DIR = TRACER_PATH.parent
# sha256 of the joined per-unit report sha256s of one pass, as the benchmark
# child computes a pass digest; a deliberate report change re-pins these
SEED1_PASS_DIGESTS = {
    "charp-exhaustive": "256f26553d08fde8af740b8ed061b3814e1c1912ec1542ade6ce9fb47a8b470e",
    "wedge-deep": "4fb843caf60777579fa5c63fba4daf26c7301a495d173b5bc1a7a2108b02efe9",
}
SEED2_PASS_DIGESTS = {
    "charp-exhaustive": "699a43a60ec86a4d098c7a97df8c0e271d4976c8d62c2841f88598aad041bff4",
    "wedge-deep": "aab3cb512424419e52dc090de18c9f41b0b5a691d274e888ba7b813e821af48b",
}


def _load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_timed_workloads_keep_their_report_bytes(monkeypatch):
    # the child imports its sibling modules from bench/, as when run.py starts it
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in ("reference", "workloads"):
        _load_bench_module(monkeypatch, name)
    child = _load_bench_module(monkeypatch, "child")
    for seed, pinned in ((1, SEED1_PASS_DIGESTS), (2, SEED2_PASS_DIGESTS)):
        digests = {}
        for workload in pinned:
            units = child.workloads.WORKLOADS[workload](seed)
            shas = [hashlib.sha256(child._run_unit(unit, cli, verify)).hexdigest() for unit in units]
            digests[workload] = hashlib.sha256("".join(shas).encode()).hexdigest()
        assert digests == pinned, seed


def test_seed_dependent_charp_units_pass_at_later_pass_seeds(monkeypatch):
    """Pass k of a benchmark run uses seed N + k * PASS_SEED_STRIDE; the pinned digests only
    reach pass 0.  The charp-exhaustive units whose points depend on the seed (the cluster-p
    checks and the a2 five-term identity) must pass, with valid points, at eight later passes."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in ("reference", "workloads"):
        _load_bench_module(monkeypatch, name)
    child = _load_bench_module(monkeypatch, "child")
    stride = _load_bench_module(monkeypatch, "run").PASS_SEED_STRIDE
    for k in range(1, 9):
        units = [unit for unit in child.workloads.WORKLOADS["charp-exhaustive"](1 + k * stride)
                 if "cluster-p" in unit[1] or "a2_five_term_charp" in unit[1]]
        assert len(units) == 4
        for unit in units:
            for check in json.loads(child._run_unit(unit, cli, verify))["checks"]:
                assert check["verdict"] == "pass" and check["valid"] > 0, (k, check["name"])
