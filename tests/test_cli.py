import json
import os
import re
import subprocess
import sys
import time

import pytest

from infdilog import cli, cluster, verify
from infdilog.fields import GF

# A2's matrix after three mutations is -B, which is not nu(B) for nu = identity
APERIODIC = {"B": [[0, -1], [1, 0]], "sequence": [0, 1, 0], "nu": [0, 1]}
A2 = {"B": [[0, -1], [1, 0]], "sequence": [0, 1, 0, 1, 0], "nu": [1, 0]}
# malformed pattern files, each written to a file named after its key
BAD_PATTERNS = {
    "NOT_OBJECT": 5,
    "B_NOT_LISTS": {**A2, "B": 5},
    "NU_NOT_LIST": {**A2, "nu": 5},
    "SEQUENCE_NOT_LIST": {**A2, "sequence": 0},
    "THETA_NOT_LIST": {**A2, "theta": 3},
    "BOOL_SEQUENCE": {**A2, "sequence": [True, 1, 0, 1, 0]},
    "BOOL_NU": {**A2, "nu": [True, False]},
    # an empty sequence makes every cluster sum an empty sum, passing vacuously
    "EMPTY_SEQUENCE": {"B": [[0]], "sequence": [], "nu": [0]},
    # the name is part of every report name and of the per-trial rng seed
    "NULL_NAME": {**A2, "name": None},
    "NUMBER_NAME": {**A2, "name": 5},
    "OBJECT_NAME": {**A2, "name": {"a": 1}},
}


def run(argv):
    return cli.main(argv)


def test_named_four_term_passes(capsys):
    assert run(["check", "named", "four_term", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "four_term" in out


def test_theta_output(capsys):
    assert run(["theta", "--pattern", "B2"]) == 0
    assert capsys.readouterr().out.strip() == "(1, 2)"


def test_invalid_modulus_weight_is_config_error():
    with pytest.raises(SystemExit) as err:
        run(["check", "cluster", "--pattern", "A2", "--m", "2", "--w", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize("check", ["pentagon", "cluster", "welldef"])
def test_m_and_w_are_required_by_argparse(check, capsys):
    pattern = ["--pattern", "A2"] if check == "cluster" else []
    for given, missing in (([], "--m, --w"), (["--m", "2"], "--w"), (["--w", "3"], "--m")):
        with pytest.raises(SystemExit) as err:
            run(["check", check, *pattern, *given])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"infdilog check {check}: error: the following arguments are required: {missing}\n")


def test_fp_requires_prime(capsys):
    with pytest.raises(SystemExit) as err:
        run(["check", "lemma", "--pattern", "A2", "--field", "fp"])
    assert err.value.code == 2
    for argv in (["periodicity", "--pattern", "A2", "--field", "fp", "--p", "4"],
                 ["check", "cluster-p", "--pattern", "A2", "--p", "4"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        # an even p above 2 is composite, not characteristic 2
        assert "4 is not prime" in capsys.readouterr().err
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(["check", "lemma", "--pattern", "A2", "--p", "5"])
    assert err.value.code == 2
    assert "--p requires --field fp" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "cluster", "--pattern-file", "APERIODIC", "--m", "2", "--w", "3"],
    ["check", "cluster-p", "--pattern-file", "APERIODIC", "--p", "5"],
    ["check", "lemma", "--pattern-file", "APERIODIC"],
    ["check", "pentagon", "--m", "2", "--w", "3", "--height", "0"],
    ["check", "lemma", "--pattern", "A2", "--field", "fp", "--p", "7", "--precision", "8"],
    ["check", "lemma", "--pattern", "A2", "--field", "fp", "--p", "7", "--precision", "2", "--exhaustive"],
    ["check", "lemma", "--pattern", "A2", "--precision", "0"],
    ["check", "cluster-p", "--pattern", "A2", "--p", "5", "--trials", "-3"],
    ["check", "pentagon", "--m", "2", "--w", "3", "--trials", "0"],
    ["check", "cluster-p", "--pattern", "A2", "--p", "37"],
    ["check", "named", "four_term", "--p", "1009"],
    ["check", "welldef", "--m", "2", "--w", "3", "--perturbations", "-4"],
    *(["theta", "--pattern-file", key] for key in BAD_PATTERNS),
    ["check", "cluster", "--pattern-file", "BOOL_NU", "--m", "2", "--w", "3"],
    ["check", "cluster", "--pattern-file", "EMPTY_SEQUENCE", "--m", "2", "--w", "3", "--trials", "3"],
    *(["periodicity", "--pattern-file", key] for key in ("NULL_NAME", "NUMBER_NAME", "OBJECT_NAME")),
    ["mutate", "--pattern", "A2", "--point", "[1, 2]"],
    ["mutate", "--pattern", "A2", "--point", "[[1], 2]"],
    ["check", "lemma", "--pattern", "A2", "--exhaustive"],
    ["mutate", "--pattern", "A2", "--point", "2,3", "--out", "trajectory.txt"],
    ["mutate", "--pattern", "A2", "--point", "2,3", "--format", "json"],
    ["check", "pentagon", "--field", "fp", "--p", "5"],
    ["check", "cluster-p", "--pattern", "A2", "--p", "4"],
])
def test_bad_input_is_config_error(argv, tmp_path):
    files = {"APERIODIC": APERIODIC, **BAD_PATTERNS}
    for key, config in files.items():
        (tmp_path / key).write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        run([str(tmp_path / arg) if arg in files else arg for arg in argv])
    assert err.value.code == 2


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "infdilog.cli", "theta", "--pattern", "B2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "(1, 2)"


def test_exhaustive_lemma_obeys_the_exhaustive_limit():
    """--exhaustive over the GF(1000003)^2 constants is refused at once, as cluster-p refuses it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["lemma", "--pattern", "A2", "--field", "fp", "--p", "1000003",
                  "--precision", "3", "--exhaustive"],
                 ["cluster-p", "--pattern", "A2", "--p", "1000003"]):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "infdilog.cli", "check", *argv],
                              capture_output=True, text=True, env=env, timeout=30)
        assert time.perf_counter() - start < 10, argv  # 10^12 points would never finish
        assert done.returncode == 2, done.stderr
        assert "points, more than the exhaustive limit 1000000" in done.stderr, argv


def test_unknown_pattern_is_config_error():
    with pytest.raises(SystemExit) as err:
        run(["theta", "--pattern", "E8"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["check", "lemma"])
    assert err.value.code == 2


def test_pattern_file_validation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"name": "mirror-A2", "B": [[0, 1], [-1, 0]], "sequence": [0, 1, 0, 1, 0],
         "nu": [1, 0]}
    ))
    assert run(["periodicity", "--pattern-file", str(good), "--trials", "10"]) == 0

    bad_matrix = tmp_path / "bad_matrix.json"
    bad_matrix.write_text(json.dumps(
        {"B": [[0, 1], [1, 0]], "sequence": [0], "nu": [0, 1]}
    ))
    with pytest.raises(SystemExit) as err:
        run(["theta", "--pattern-file", str(bad_matrix)])
    assert err.value.code == 2

    bad_nu = tmp_path / "bad_nu.json"
    bad_nu.write_text(json.dumps(
        {"B": [[0, -1], [1, 0]], "sequence": [0], "nu": [0, 0]}
    ))
    with pytest.raises(SystemExit) as err:
        run(["periodicity", "--pattern-file", str(bad_nu)])
    assert err.value.code == 2


def test_pattern_file_names_the_report(tmp_path, capsys):
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"name": "mirror", **A2}))
    nameless = tmp_path / "nameless.json"
    nameless.write_text(json.dumps(A2))
    for path, name in ((named, "mirror"), (nameless, str(nameless))):
        assert run(["periodicity", "--pattern-file", str(path), "--trials", "3"]) == 0
        assert f"[PASS] periodicity[{name}]: valid=3" in capsys.readouterr().out
        assert run(["check", "cluster", "--pattern-file", str(path), "--m", "2", "--w", "3",
                    "--trials", "2", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["checks"][0]
        assert report["name"] == f"cluster0[{name},m=2,w=3]"
        assert report["params"]["pattern"] == name


def test_pentagon_check_runs(capsys):
    assert run(["check", "pentagon", "--m", "2", "--w", "3", "--trials", "10"]) == 0
    assert "pentagon[q,m=2,w=3]" in capsys.readouterr().out


def test_charp_pentagon_via_field_flag(capsys):
    # the char-p pentagon is the named dual identity; check pentagon has no field flags
    with pytest.raises(SystemExit) as err:
        run(["check", "pentagon", "--m", "2", "--w", "3", "--field", "fp", "--p", "5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --field fp --p 5" in capsys.readouterr().err
    assert run(["check", "named", "pentagon", "--p", "5"]) == 0
    assert capsys.readouterr().out == ("[PASS] named[pentagon,p=5,exhaustive]: valid=150 rejected=475 failed=0\n"
                                       "1/1 checks passed\n")


def test_insufficient_samples_exit_one(capsys):
    # A2 over GF(3) has no valid points, so random sampling cannot succeed
    code = run(["check", "cluster-p", "--pattern", "A2", "--p", "3", "--trials", "2"])
    assert code == 1
    assert "insufficient" in capsys.readouterr().out.lower()
    # exhaustive constants over GF(3): every A2 point is rejected
    code = run(["check", "lemma", "--pattern", "A2", "--field", "fp", "--p", "3",
                "--precision", "3", "--exhaustive"])
    assert code == 1
    assert "[INSUFFICIENT-VALID-SAMPLES] lemma[A2,fp3" in capsys.readouterr().out


def test_json_report_is_replayable(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["check", "lemma", "--pattern", "A2", "--trials", "5",
                    "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["all_pass"] is True
    assert doc["config"]["check"] == "lemma"
    assert doc["checks"][0]["name"].startswith("lemma[A2,q,N=6")


def test_mutate_prints_trajectory(capsys):
    assert run(["mutate", "--pattern", "A2", "--point", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "direction 1" in out and "value 2" in out
    assert "final y_1: 3" in out
    # rationals and explicit coefficient lists parse too
    assert run(["mutate", "--pattern", "A2", "--point", "[[\"3/4\", 1], [2]]"]) == 0
    capsys.readouterr()


def test_mutate_point_with_a_leading_minus_takes_the_equals_form(capsys):
    # argparse reads "-1/2,2" after a space as an option, so the help names the = form
    assert run(["mutate", "--pattern", "A2", "--point=-1/2,2"]) == 0
    assert "step 0: direction 1, value -1/2 + 0*t" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        run(["mutate", "--help"])
    assert err.value.code == 0
    assert "--point=-1/2,2" in "".join(capsys.readouterr().out.split())


def test_mutate_pads_every_row_to_one_precision(capsys):
    # rows of different lengths share the longest row's precision
    assert run(["mutate", "--pattern", "A2", "--point", "[[1, 2, 3], [4]]"]) == 0
    out = capsys.readouterr().out
    assert "step 0: direction 1, value 1 + 2*t + 3*t^2" in out
    assert "final y_1: 4 + 0*t + 0*t^2" in out


def test_mutate_invalid_point(capsys):
    assert run(["mutate", "--pattern", "A2", "--point", "0,3"]) == 1
    assert "invalid point" in capsys.readouterr().err


def test_mutate_rank_mismatch():
    with pytest.raises(SystemExit) as err:
        run(["mutate", "--pattern", "A2", "--point", "2,3,4"])
    assert err.value.code == 2


def test_welldef_command(capsys):
    assert run(["check", "welldef", "--m", "2", "--w", "3", "--trials", "5",
                "--perturbations", "3"]) == 0
    assert "welldef" in capsys.readouterr().out


def test_periodicity_exit_codes(tmp_path, capsys):
    assert run(["periodicity", "--pattern", "A2", "--trials", "10"]) == 0
    assert capsys.readouterr().out == "[PASS] periodicity[A2]: valid=10 rejected=6 failed=0\n1/1 checks passed\n"
    aperiodic = tmp_path / "aperiodic.json"
    aperiodic.write_text(json.dumps(APERIODIC))
    assert run(["periodicity", "--pattern-file", str(aperiodic), "--trials", "5"]) == 1
    assert capsys.readouterr().out == (
        f"[FAIL] periodicity[{aperiodic}]: valid=0 rejected=0 failed=1\n"
        "    witness: {'inputs': {}, 'value': 'matrix does not return to nu of itself'}\n0/1 checks passed\n")
    # A2 over GF(3) has no valid point: the first trial spends its 100 attempts
    # on rejected points, too few samples, not a pass
    assert run(["periodicity", "--pattern", "A2", "--field", "fp", "--p", "3",
                "--trials", "5"]) == 1
    assert capsys.readouterr().out == ("[INSUFFICIENT-VALID-SAMPLES] periodicity[A2]:"
                                       " valid=0 rejected=100 failed=0\n0/1 checks passed\n")
    for argv in (["--pattern-file", str(tmp_path / "missing.json")],
                 ["--pattern", "A2", "--trials", "0"]):
        with pytest.raises(SystemExit) as err:
            run(["periodicity", *argv])
        assert err.value.code == 2


# each report command's resolved config: a report carries every dest and default of its
# subcommand, so the parser must keep them all
PINNED_CONFIGS = {
    "pentagon-q": (
        ["check", "pentagon", "--m", "2", "--w", "3", "--trials", "3"],
        {"check": "pentagon", "height": 10, "m": 2, "seed": 0, "trials": 3, "w": 3}),
    "pentagon-fp": (
        ["check", "named", "pentagon", "--p", "5", "--trials", "3"],
        {"check": "named", "identity": "pentagon", "p": 5, "seed": 0, "trials": 3}),
    "cluster": (
        ["check", "cluster", "--pattern", "A2", "--m", "2", "--w", "3", "--trials", "3"],
        {"check": "cluster", "height": 10, "m": 2, "pattern": "A2", "seed": 0, "trials": 3, "w": 3}),
    "cluster-p": (
        ["check", "cluster-p", "--pattern", "A2", "--p", "5"],
        {"check": "cluster-p", "p": 5, "pattern": "A2", "seed": 0}),
    "named": (
        ["check", "named", "four_term", "--p", "5"],
        {"check": "named", "identity": "four_term", "p": 5, "seed": 0}),
    "lemma": (
        ["check", "lemma", "--pattern", "A2", "--trials", "3"],
        {"check": "lemma", "exhaustive": False, "field": "q", "height": 10, "pattern": "A2",
         "seed": 0, "trials": 3}),
    "welldef": (
        ["check", "welldef", "--m", "2", "--w", "3", "--trials", "3"],
        {"check": "welldef", "height": 10, "m": 2, "perturbations": 10, "seed": 0, "trials": 3, "w": 3}),
    "periodicity": (
        ["periodicity", "--pattern", "A2", "--trials", "3"],
        {"field": "q", "height": 10, "pattern": "A2", "seed": 0, "trials": 3}),
}


@pytest.mark.parametrize("argv,config", PINNED_CONFIGS.values(), ids=PINNED_CONFIGS)
def test_every_report_command_keeps_its_config(argv, config, capsys):
    assert run([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == config


def test_periodicity_writes_a_report_in_either_format(tmp_path, capsys):
    argv = ["periodicity", "--pattern", "B2", "--field", "fp", "--p", "7", "--precision", "3",
            "--trials", "3"]
    assert run(argv) == 0
    human = "[PASS] periodicity[B2]: valid=3 rejected=5 failed=0\n1/1 checks passed\n"
    assert capsys.readouterr().out == human
    report = verify.check_periodicity_report("B2", trials=3, height=10, seed=0, field=GF(7), precision=3)
    config = {"field": "fp", "height": 10, "p": 7, "pattern": "B2", "precision": 3, "seed": 0, "trials": 3}
    expected = verify.SuiteReport(config, [report]).to_json_bytes()
    out = tmp_path / "periodicity.json"
    assert run([*argv, "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert run([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == expected


def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        run(["check", "pentagon", "--m", "2", "--w", "3", "--trials", "1", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "cannot write --out: [Errno 21] Is a directory" in capsys.readouterr().err
    # a one-check stand-in for the battery, which takes seconds; suite writes it the same way
    monkeypatch.setattr(verify, "run_suite", lambda seed: verify.SuiteReport(
        {"seed": seed}, [verify.check_pentagon(m=2, w=3, trials=1, seed=seed)]))
    missing = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as err:
        run(["suite", "--format", "json", "--out", str(missing)])
    assert err.value.code == 2
    assert "cannot write --out: [Errno 2] No such file or directory" in capsys.readouterr().err
    assert not missing.parent.exists()


REPORT_COMMANDS = {
    "pentagon": ["check", "pentagon", "--m", "2", "--w", "3"],
    "cluster": ["check", "cluster", "--pattern", "A2", "--m", "2", "--w", "3"],
    "cluster-p": ["check", "cluster-p", "--pattern", "A2", "--p", "5"],
    "named": ["check", "named", "four_term", "--p", "5"],
    "lemma": ["check", "lemma", "--pattern", "A2"],
    "welldef": ["check", "welldef", "--m", "2", "--w", "3"],
    "periodicity": ["periodicity", "--pattern", "A2"],
    "suite": ["suite"],
}


def _refuse_to_run(monkeypatch):
    def ran(*args, **kwargs):
        pytest.fail("a check ran before --out was checked")

    monkeypatch.setattr(verify, "run_suite", ran)
    for name in verify.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, ran)


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_unwritable_out_is_refused_before_any_check_runs(command, tmp_path, capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    missing = tmp_path / "missing" / "report.json"
    a_file = tmp_path / "a_file"
    a_file.write_text("kept")
    for out, reason in ((tmp_path, "[Errno 21] Is a directory"), (missing, "[Errno 2] No such file or directory"),
                        ("", "[Errno 2] No such file or directory"),
                        (f"{missing.parent}{os.sep}", "[Errno 21] Is a directory"),
                        (a_file / "report.json", "[Errno 20] Not a directory")):
        with pytest.raises(SystemExit) as err:
            run([*REPORT_COMMANDS[command], "--out", str(out)])
        assert err.value.code == 2
        # the text open() would give
        assert f"cannot write --out: {reason}: {str(out)!r}" in capsys.readouterr().err
        with pytest.raises(OSError, match=re.escape(reason)):
            open(out, "w")
    assert not missing.parent.exists()
    assert a_file.read_text() == "kept"


def test_out_in_a_read_only_directory_is_refused_before_the_battery_runs(tmp_path, capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    # a stand-in for a directory without write permission, which a superuser does not have
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    with pytest.raises(SystemExit) as err:
        run(["suite", "--out", str(tmp_path / "report.json")])
    assert err.value.code == 2
    assert "cannot write --out: [Errno 13] Permission denied" in capsys.readouterr().err


def test_out_is_neither_created_nor_truncated_by_a_refused_run(tmp_path, capsys):
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("an earlier report")
    for out in (fresh, kept):
        with pytest.raises(SystemExit) as err:
            run(["check", "pentagon", "--m", "3", "--w", "2", "--out", str(out)])
        assert err.value.code == 2
    assert not fresh.exists()
    assert kept.read_text() == "an earlier report"


def test_a_write_that_fails_after_the_run_is_still_a_config_error(tmp_path, capsys, monkeypatch):
    # an --out that passes the early check can still fail when the report is written
    monkeypatch.setattr(cli, "_check_out", lambda path, parser: None)
    with pytest.raises(SystemExit) as err:
        run(["check", "pentagon", "--m", "2", "--w", "3", "--trials", "1", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "cannot write --out: [Errno 21] Is a directory" in capsys.readouterr().err


def test_suite_fault_is_not_a_config_error(monkeypatch):
    # suite has no configuration to refuse, so a ValueError in the battery is a
    # program fault and keeps its traceback
    def broken(seed):
        raise ValueError("battery fault")

    monkeypatch.setattr(verify, "run_suite", broken)
    with pytest.raises(ValueError, match="battery fault"):
        run(["suite"])


def test_pattern_help_lists_every_builtin(capsys):
    with pytest.raises(SystemExit) as err:
        run(["theta", "--help"])
    assert err.value.code == 0
    assert f"({', '.join(cluster.BUILTIN_PATTERNS)})" in " ".join(capsys.readouterr().out.split())


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """The parser is built once; no call's flags, --out or error leak into the next call."""
    cli._build_parser.cache_clear()
    lemma = ["check", "lemma", "--pattern", "A2", "--field", "fp", "--p", "7", "--precision", "3",
             "--format", "json"]
    assert run([*lemma, "--exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["exhaustive"] is True
    assert run([*lemma, "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["exhaustive"] is False
    assert doc["checks"][0]["name"] == "lemma[A2,fp7,N=3,random[3]]"

    named = ["check", "named", "four_term", "--p", "5", "--format", "json"]
    out = tmp_path / "named.json"
    assert run([*named, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(named) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()

    with pytest.raises(SystemExit) as err:
        run(["check", "named", "four_term", "--p", "4", "--format", "human"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run(named) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "infdilog.cli", *named], capture_output=True,
                           env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert capsys.readouterr().out.encode() == fresh.stdout

    pages = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            run(["--help"])
        assert err.value.code == 0
        pages.append(capsys.readouterr().out)
    assert pages[0] == pages[1] and "usage: infdilog" in pages[0]
    assert cli._build_parser.cache_info().misses == 1
