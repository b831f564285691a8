"""Start-up imports, and the hand-written records and reports that keep them small.

Every `infdilog` command is its own process, so what importing the package
loads is paid on every check.  The records are namedtuple subclasses and the
reports plain classes, so that no stdlib module is imported for class
boilerplate or annotations.
"""

import os
import subprocess
import sys

import pytest

from infdilog import bloch, cluster, verify
from infdilog.fields import QQ
from infdilog.series import TruncatedSeries

# stdlib modules whose only use in src/ would be class boilerplate or annotations
BOILERPLATE_MODULES = {"dataclasses", "inspect", "typing"}
FIELDS = {
    "ZeroTestResult": ("verdict", "failing_component", "detail"),
    "MutationSchedule": ("directions", "nu", "theta", "name"),
    "YSeed": ("matrix", "ys"),
    "TrajectoryStep": ("direction", "value"),
    "Trajectory": ("steps", "final"),
}


def test_importing_the_package_loads_no_boilerplate_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    # -S: no site, so no .pth file loads typing before the package does
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import infdilog, infdilog.cli, infdilog.verify; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert {"infdilog.cli", "infdilog.verify"} <= loaded
    assert not loaded & BOILERPLATE_MODULES, sorted(loaded & BOILERPLATE_MODULES)


def _series(*values):
    return TruncatedSeries.from_coeffs(QQ, values)


def _records():
    """Two equal instances of each record, built by keyword and positionally, and one that differs."""
    matrix, _ = cluster.builtin_pattern("A2")
    ys = (_series(2, 1), _series(3, 1))
    seed = cluster.YSeed(matrix=matrix, ys=ys)
    steps = (cluster.TrajectoryStep(0, ys[0]),)
    return {
        "ZeroTestResult": (bloch.ZeroTestResult(verdict="nonzero", failing_component="mixed", detail="q=2"),
                           bloch.ZeroTestResult("nonzero", "mixed", "q=2"),
                           bloch.ZeroTestResult("nonzero", "constants", "q=2")),
        "MutationSchedule": (cluster.MutationSchedule(directions=(0, 1), nu=(1, 0), theta=(1, 1), name="A2"),
                             cluster.MutationSchedule((0, 1), (1, 0), (1, 1), "A2"),
                             cluster.MutationSchedule((0, 1), (1, 0), (1, 1), "B2")),
        "YSeed": (seed, cluster.YSeed(matrix, ys), cluster.YSeed(matrix, ys[::-1])),
        "TrajectoryStep": (cluster.TrajectoryStep(direction=0, value=ys[0]), steps[0],
                           cluster.TrajectoryStep(1, ys[0])),
        "Trajectory": (cluster.Trajectory(steps=steps, final=seed), cluster.Trajectory(steps, seed),
                       cluster.Trajectory((), seed)),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_frozen_and_compare_by_their_fields(name):
    record, same, other = _records()[name]
    assert type(record).__name__ == name
    assert record == same and hash(record) == hash(same) and len({record, same}) == 1
    assert record != other
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == same


def test_record_defaults_and_rank_check():
    schedule = cluster.MutationSchedule((0,), (0,))
    assert schedule.theta is None and schedule.name == "custom"
    result = bloch.ZeroTestResult("zero")
    assert result.failing_component is None and result.detail == "" and result.is_zero
    matrix, _ = cluster.builtin_pattern("A2")
    with pytest.raises(ValueError, match="rank mismatch"):
        cluster.YSeed(matrix=matrix, ys=(_series(2, 1),))


def test_check_report_to_dict_is_a_copy_with_the_report_keys():
    witness = {"inputs": {"a": "2"}, "value": "1/3"}
    report = verify.CheckReport("pentagon[m=2,w=3]", {"m": 2, "w": 3, "theta": [1, 2]},
                                3, 2, 1, 1, 0, [witness], "fail")
    expected = {"name": "pentagon[m=2,w=3]", "params": {"m": 2, "w": 3, "theta": [1, 2]},
                "attempted": 3, "valid": 2, "rejected": 1, "failed": 1, "inconclusive": 0,
                "witnesses": [{"inputs": {"a": "2"}, "value": "1/3"}], "verdict": "fail"}
    document = report.to_dict()
    assert document == expected
    document["params"]["theta"].append(3)
    document["params"]["m"] = 7
    document["witnesses"][0]["inputs"]["a"] = "5"
    document["witnesses"].append({})
    assert report.to_dict() == expected
    fresh = verify.CheckReport(name="x", params={})
    assert fresh.to_dict() == {"name": "x", "params": {}, "attempted": 0, "valid": 0, "rejected": 0,
                               "failed": 0, "inconclusive": 0, "witnesses": [], "verdict": "pass"}
    assert fresh.witnesses is not verify.CheckReport("y", {}).witnesses
    suite = verify.SuiteReport({"seed": 0}, [report])
    assert suite.to_dict()["checks"] == [expected] and not suite.all_pass
