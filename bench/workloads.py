"""The benchmark's workloads: which checks one pass runs, and what a correct pass looks like.

A workload is a list of units.  A "cli" unit is an argument vector for
`infdilog.cli.main`, run in-process exactly as `infdilog <argv>` would run it.
A "verify" unit calls a checker that has no command of its own.  The seed
reaches the program only as `--seed` / `seed=`.

Why each workload exists (BENCHMARK.json carries one line for each):

- suite: `infdilog suite`, the full 88-check battery, the command users run.
  It is run by hand (`--workload suite --seconds 1`), not listed in
  BENCHMARK.json: one pass takes 26-41 s on a 2-vCPU host, so a timed run
  would hold a single pass and the benchmark's run budget could not afford it.
  Its gate pins the seed-0 report digest and the five vacuous battery entries.
- charp-exhaustive: precision-2 GF(p) enumeration.  It stresses the prime-field
  element path, mutation at N=2, li2p and pounds1, and makes no log_circ call,
  so series and Bloch optimisations must leave it unchanged.
- wedge-deep: series precision 8 to 11 over QQ and GF(p).  log_circ and mul
  dominate and the same logs are recomputed many times, so a faster or cached
  log shows here; it does almost no pounds1 or mutation work, so char-p
  optimisations must leave it unchanged.  It mixes both fields, so a backend
  change that helps one field and costs the other shows too.
"""

from __future__ import annotations

# `infdilog suite --seed 0 --format json` as written by the seed commit.
# Refactors must keep these bytes (ROADMAP aim 2).
SUITE_SEED0_SHA256 = "3770404f995b0e5473cb3c9256b767fda270c46051bae85bb2e3d430b43e54d5"

# Battery entries that pass with zero valid points: clusterp[A2|B2,p=3] and
# named[four_term|a2_pentagon_substitution|a2_five_term_charp,p=3].
EXPECTED_VACUOUS = {"suite": 5, "charp-exhaustive": 0, "wedge-deep": 0}


def _cli(*argv, seed: int) -> tuple:
    return ("cli", [*argv, "--seed", str(seed), "--format", "json"])


def _suite(seed: int) -> list[tuple]:
    return [_cli("suite", seed=seed)]


# Sizes keep one pass near 3-9 s on a 2-vCPU host, so that a 45 s run holds
# five or more passes and its median pass time is steady.
def _charp_exhaustive(seed: int) -> list[tuple]:
    return [
        _cli("check", "cluster-p", "--pattern", "A2", "--p", "7", seed=seed),
        _cli("check", "cluster-p", "--pattern", "B2", "--p", "7", seed=seed),
        _cli("check", "named", "four_term", "--p", "43", seed=seed),
        _cli("check", "named", "a2_pentagon_substitution", "--p", "43", seed=seed),
        _cli("check", "named", "a2_five_term_charp", "--p", "7", seed=seed),
        _cli("check", "cluster-p", "--pattern", "A2", "--p", "101", "--trials", "100", seed=seed),
    ]


def _wedge_deep(seed: int) -> list[tuple]:
    return [
        _cli("check", "lemma", "--pattern", "A2", "--precision", "8", "--trials", "5", seed=seed),
        _cli("check", "lemma", "--pattern", "B2", "--field", "fp", "--p", "11",
             "--precision", "8", "--exhaustive", seed=seed),
        ("verify", "check_li2p_lift", {"p": 11, "perturbations": 1, "seed": seed}),
        _cli("check", "welldef", "--m", "5", "--w", "9", "--trials", "5", seed=seed),
    ]


WORKLOADS = {
    "suite": _suite,
    "charp-exhaustive": _charp_exhaustive,
    "wedge-deep": _wedge_deep,
}


def label(unit: tuple) -> str:
    if unit[0] == "cli":
        return "infdilog " + " ".join(unit[1])
    _, name, kwargs = unit
    return f"verify.{name}(" + ", ".join(f"{k}={v}" for k, v in kwargs.items()) + ")"
