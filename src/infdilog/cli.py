"""Command-line front end for the identity checkers.

Commands:

  check pentagon     five-term relation of li_{m,w} over the rationals
  check cluster      weighted cluster sum of li_{m,w} over the rationals
  check cluster-p    weighted cluster sum of li2p over GF(p) dual numbers
  check named ID     a named char-p functional equation, such as the li2p pentagon
  check lemma        wedge-sum zero test along a trajectory
  check welldef      lift independence of the differential formula
  suite              the full acceptance battery
  mutate             print a trajectory at a point
  theta              print the skew-symmetrizer of a pattern
  periodicity        sample nu-periodicity of a pattern, as a check report

Directions are 0-indexed in pattern files and 1-indexed in human output.
Every check, periodicity and suite print a report and take --seed, --out and
--format.  Exit codes: 0 when every executed check passes, 1 on a failure or
too few valid samples, 2 on a configuration error or an unwritable --out.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction

from . import cluster, verify
from .fields import GF, QQ, Field
from .series import TruncatedSeries

__all__ = ["entry", "main"]

# every flag: its argparse keywords, and the least value a check can use (None: unbounded);
# a subcommand adds its flags in this order
_FLAGS: dict[str, tuple[dict, int | None]] = {
    "field": ({"choices": ("q", "fp"), "default": "q",
               "help": "coefficient field: rationals (q) or GF(p) (fp); default q"}, None),
    "p": ({"type": int, "help": "odd prime characteristic (required with --field fp)"}, None),
    "m": ({"type": int, "help": "modulus (1 < m)"}, None),
    "w": ({"type": int, "help": "weight (m < w < 2m)"}, None),
    "pattern": ({"help": f"built-in pattern name ({', '.join(cluster.BUILTIN_PATTERNS)})"}, None),
    "pattern-file": ({"help": "path to a JSON pattern config"}, None),
    "trials": ({"type": int, "default": 100, "help": "requested valid sample count; default 100"}, 1),
    "height": ({"type": int, "default": 10, "help": "height bound for random rationals; default 10"}, 1),
    "precision": ({"type": int, "help": "series precision N (command-specific default)"}, 1),
    "seed": ({"type": int, "default": 0, "help": "master seed; default 0"}, None),
    "perturbations": ({"type": int, "default": 10, "help": "lift perturbations per point; default 10"}, 0),
    "exhaustive": ({"action": "store_true", "help": "enumerate all constant terms"
                    " (prime fields; refused above the exhaustive limit)"}, None),
    "point": ({"required": True, "help": "comma-separated constants (e.g. '2,3' or '3/4,1/2'),"
               " or a JSON list of coefficient lists; write a leading minus as --point=-1/2,2"}, None),
    "out": ({"help": "write the report to this path"}, None),
    "format": ({"choices": ("human", "json"), "default": "human",
                "help": "report format; default human"}, None),
}
_PATTERN = ("pattern", "pattern-file")
# cluster-p and named work over GF(--p) and enumerate every point when no count is given
_CHARP = {"p": {"required": True, "help": "odd prime characteristic"},
          "trials": {"default": None, "help": "random valid sample count; omit for auto-exhaustive"}}


def _add_flags(parser: argparse.ArgumentParser, *names: str, **overrides: dict) -> None:
    """Add the named flags from _FLAGS; a keyword named after a flag replaces some of its keywords."""
    for name, (kwargs, _) in _FLAGS.items():
        if name in names:
            parser.add_argument(f"--{name}", **{**kwargs, **overrides.get(name, {})})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process at the first main call, not at import, so set-up stays lean."""
    parser = argparse.ArgumentParser(prog="infdilog", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    checks = sub.add_parser("check", help="run a single identity check").add_subparsers(
        dest="check", required=True)
    # every report command shares these three actions, added once
    report_flags = argparse.ArgumentParser(add_help=False)
    _add_flags(report_flags, "seed", "out", "format")

    _add_flags(checks.add_parser("pentagon", parents=[report_flags], help="five-term relation"),
               "m", "w", "trials", "height")
    _add_flags(checks.add_parser("cluster", parents=[report_flags], help="cluster sum over the rationals"),
               *_PATTERN, "m", "w", "trials", "height")
    _add_flags(checks.add_parser("cluster-p", parents=[report_flags], help="cluster sum over GF(p)"),
               *_PATTERN, "p", "trials", **_CHARP)
    named = checks.add_parser("named", parents=[report_flags], help="a named char-p functional equation")
    named.add_argument("identity", choices=sorted(verify.NAMED_IDENTITIES),
                       help="which identity to check")
    _add_flags(named, "p", "trials", **_CHARP)
    _add_flags(checks.add_parser("lemma", parents=[report_flags], help="wedge-sum zero test"), *_PATTERN,
               "field", "p", "trials", "height", "precision", "exhaustive")
    _add_flags(checks.add_parser("welldef", parents=[report_flags], help="lift independence"),
               "m", "w", "trials", "height", "perturbations")

    sub.add_parser("suite", parents=[report_flags], help="run the full acceptance battery")
    _add_flags(sub.add_parser("mutate", help="print a trajectory at a point"),
               *_PATTERN, "field", "p", "precision", "point")
    _add_flags(sub.add_parser("theta", help="print the skew-symmetrizer"), *_PATTERN)
    _add_flags(sub.add_parser("periodicity", parents=[report_flags], help="sample nu-periodicity"),
               *_PATTERN, "field", "p", "trials", "height", "precision")
    return parser


def _field(args) -> Field:
    """The field that --field and --p choose; a command without --field works over GF(--p)."""
    if getattr(args, "field", "fp") == "q":
        if args.p is not None:
            raise ValueError("--p requires --field fp")
        return QQ
    if args.p is None:
        raise ValueError("--field fp requires --p")
    return GF(args.p)


def _load_pattern(args):
    name, path = args.pattern, args.pattern_file
    if (name is None) == (path is None):
        raise ValueError("give exactly one of --pattern or --pattern-file")
    try:
        if name is not None:
            return cluster.builtin_pattern(name)
        with open(path) as handle:
            config = json.load(handle)
        if isinstance(config, dict):
            config.setdefault("name", path)
        return cluster.pattern_from_dict(config)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"invalid pattern: {exc}") from exc


def _validate_mw(args) -> tuple[int, int]:
    if args.m is None or args.w is None:
        raise ValueError("this check requires --m and --w")
    return args.m, args.w


def _parse_point(text: str, field: Field, precision: int) -> tuple[TruncatedSeries, ...]:
    try:
        if text.lstrip().startswith("["):
            rows = json.loads(text)
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ValueError("a JSON point is a list of coefficient lists")
            coords = [[Fraction(str(c)) for c in row] for row in rows]
        else:
            coords = [[Fraction(token.strip())] for token in text.split(",")]
        precision = max([precision, *map(len, coords)])
        return tuple(TruncatedSeries.from_coeffs(field, row, precision) for row in coords)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse --point: {exc}") from exc


def _mutate(args) -> int:
    matrix, schedule = _load_pattern(args)
    point = _parse_point(args.point, _field(args), 2 if args.precision is None else args.precision)
    if len(point) != matrix.n:
        raise ValueError(f"{schedule.name} has rank {matrix.n}, point has {len(point)} coordinates")
    try:
        trajectory = cluster.run_schedule(matrix, point, schedule)
    except cluster.InvalidPointError as exc:
        print(f"invalid point: {exc} (step {exc.step})", file=sys.stderr)
        return 1
    for j, step in enumerate(trajectory.steps):
        print(f"step {j}: direction {step.direction + 1}, value {step.value}")
    print(f"final B: {[list(r) for r in trajectory.final.matrix.rows]}")
    for i, y in enumerate(trajectory.final.ys):
        print(f"final y_{i + 1}: {y}")
    return 0


def _report(args) -> verify.CheckReport:
    """Run the check or periodicity report that args name, reading `verify` at call time.

    Each refuses a configuration it cannot evaluate with ValueError (a bad
    modulus/weight, an aperiodic pattern, a point space too large to enumerate
    without --trials, a lemma precision above p).
    """
    kind = args.check if args.command == "check" else args.command
    if kind == "pentagon":
        return verify.check_pentagon(*_validate_mw(args), trials=args.trials, height=args.height, seed=args.seed)
    if kind == "cluster":
        return verify.check_cluster_char0(_load_pattern(args), *_validate_mw(args), trials=args.trials,
                                          height=args.height, seed=args.seed)
    if kind == "cluster-p":
        return verify.check_cluster_charp(_load_pattern(args), _field(args).characteristic,
                                          trials=args.trials, seed=args.seed)
    if kind == "named":
        return verify.check_named_identity(args.identity, _field(args).characteristic,
                                           trials=args.trials, seed=args.seed)
    if kind == "lemma":
        return verify.check_lemma_wedge(_load_pattern(args), field=_field(args), trials=args.trials,
                                        precision=6 if args.precision is None else args.precision,
                                        height=args.height, seed=args.seed,
                                        exhaustive_constants=args.exhaustive)
    if kind == "welldef":
        return verify.check_welldef(*_validate_mw(args), trials=args.trials,
                                    perturbations=args.perturbations, height=args.height, seed=args.seed)
    return verify.check_periodicity_report(_load_pattern(args), trials=args.trials, height=args.height,
                                           seed=args.seed, field=_field(args),
                                           precision=2 if args.precision is None else args.precision)


def _check_out(path: str, parser) -> None:
    """Refuse an --out that open() could not write, before any check runs and with the OSError it
    would raise, without creating or truncating the file; _emit still refuses a write that fails later."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    parser.error(f"cannot write --out: {OSError(code, os.strerror(code), path)}")


def _emit(doc_config: dict, checks: list, args, parser) -> int:
    report = verify.SuiteReport(config=doc_config, checks=checks)
    binary = args.format == "json"
    payload = report.to_json_bytes() if binary else report.to_text() + "\n"
    if not args.out:
        (sys.stdout.buffer if binary else sys.stdout).write(payload)
    else:
        try:
            with open(args.out, "wb" if binary else "w") as handle:
                handle.write(payload)
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    return 0 if report.all_pass else 1


def _resolved_config(args) -> dict:
    # keep only the semantic configuration; output routing does not belong in
    # a replayable report
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "out", "format") and v is not None}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is not None:
        _check_out(args.out, parser)

    if args.command == "suite":
        # outside the configuration boundary: the battery has nothing to refuse,
        # so a ValueError here is a fault and keeps its traceback
        report = verify.run_suite(seed=args.seed)
        return _emit(report.config, report.checks, args, parser)

    try:
        for name, (_, low) in _FLAGS.items():
            value = getattr(args, name.replace("-", "_"), None)
            if low is not None and value is not None and value < low:
                raise ValueError(f"--{name} must be at least {low}, got {value}")
        if args.command == "theta":
            print("(" + ", ".join(str(t) for t in cluster.skew_symmetrizer(_load_pattern(args)[0])) + ")")
            return 0
        if args.command == "mutate":
            return _mutate(args)
        report = _report(args)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit(_resolved_config(args), [report], args, parser)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
