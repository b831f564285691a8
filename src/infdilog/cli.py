"""Command-line front end for the identity checkers.

Commands:

  check pentagon     five-term relation (rationals with --m/--w, or --field fp --p P)
  check cluster      weighted cluster sum of li_{m,w} over the rationals
  check cluster-p    weighted cluster sum of li2p over GF(p) dual numbers
  check named ID     one of the named char-p functional equations
  check lemma        wedge-sum zero test along a trajectory
  check welldef      lift independence of the differential formula
  suite              the full acceptance battery
  mutate             print a trajectory at a point
  theta              print the skew-symmetrizer of a pattern
  periodicity        certify nu-periodicity of a pattern, as a check report

Directions are 0-indexed in pattern files and 1-indexed in human output.
Every check and periodicity print a check report.  Exit codes: 0 when every
executed check passes, 1 on a failure or too few valid samples, 2 on a
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cluster, verify
from .fields import GF, QQ, Field
from .series import TruncatedSeries

__all__ = ["entry", "main"]


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "field" in names:
        parser.add_argument("--field", choices=("q", "fp"), default="q",
                            help="coefficient field: rationals (q) or GF(p) (fp); default q")
    if "p" in names:
        parser.add_argument("--p", type=int, default=None,
                            help="odd prime characteristic (required with --field fp)")
    if "m" in names:
        parser.add_argument("--m", type=int, default=None, help="modulus (1 < m)")
    if "w" in names:
        parser.add_argument("--w", type=int, default=None, help="weight (m < w < 2m)")
    if "pattern" in names:
        parser.add_argument("--pattern", default=None,
                            help="built-in pattern name (A1, A2, B2)")
        parser.add_argument("--pattern-file", default=None,
                            help="path to a JSON pattern config")
    if "trials" in names:
        parser.add_argument("--trials", type=int, default=100,
                            help="requested valid sample count; default 100")
    if "height" in names:
        parser.add_argument("--height", type=int, default=10,
                            help="height bound for random rationals; default 10")
    if "precision" in names:
        parser.add_argument("--precision", type=int, default=None,
                            help="series precision N (command-specific default)")
    if "seed" in names:
        parser.add_argument("--seed", type=int, default=0, help="master seed; default 0")
    if "factor-bound" in names:
        parser.add_argument("--factor-bound", type=int, default=10**6,
                            help="trial-division bound for the zero test; default 10^6")
    if "out" in names:
        parser.add_argument("--out", default=None, help="write the report to this path")
    if "format" in names:
        parser.add_argument("--format", choices=("human", "json"), default="human",
                            help="report format; default human")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="infdilog", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a single identity check")
    checks = check.add_subparsers(dest="check_command", required=True)

    pent = checks.add_parser("pentagon", help="five-term relation")
    _add_common(pent, "field", "p", "m", "w", "trials", "height", "seed", "out", "format")

    clus = checks.add_parser("cluster", help="cluster sum over the rationals")
    _add_common(clus, "pattern", "m", "w", "trials", "height", "seed", "out", "format")

    clusp = checks.add_parser("cluster-p", help="cluster sum over GF(p)")
    _add_common(clusp, "pattern", "p", "seed", "out", "format")
    clusp.add_argument("--trials", type=int, default=None,
                       help="random valid sample count; omit for auto-exhaustive")

    named = checks.add_parser("named", help="a named char-p functional equation")
    named.add_argument("identity", choices=sorted(verify.NAMED_IDENTITIES),
                       help="which identity to check")
    _add_common(named, "p", "seed", "out", "format")
    named.add_argument("--trials", type=int, default=None,
                       help="random valid sample count; omit for auto-exhaustive")

    lemma = checks.add_parser("lemma", help="wedge-sum zero test")
    _add_common(lemma, "pattern", "field", "p", "trials", "height",
                "precision", "seed", "factor-bound", "out", "format")
    lemma.add_argument("--exhaustive", action="store_true",
                       help="enumerate all constant terms (prime fields; refused above the exhaustive limit)")

    welldef = checks.add_parser("welldef", help="lift independence")
    _add_common(welldef, "m", "w", "trials", "height", "seed", "out", "format")
    welldef.add_argument("--perturbations", type=int, default=10,
                         help="lift perturbations per point; default 10")

    suite = sub.add_parser("suite", help="run the full acceptance battery")
    _add_common(suite, "seed", "out", "format")

    mutate = sub.add_parser("mutate", help="print a trajectory at a point")
    _add_common(mutate, "pattern", "field", "p", "precision")
    mutate.add_argument("--point", required=True,
                        help="comma-separated constants (e.g. '2,3' or '3/4,1/2'),"
                             " or a JSON list of coefficient lists")

    theta = sub.add_parser("theta", help="print the skew-symmetrizer")
    _add_common(theta, "pattern")

    period = sub.add_parser("periodicity", help="certify nu-periodicity")
    _add_common(period, "pattern", "field", "p", "trials", "height", "precision", "seed")

    return parser


def _check_bounds(args, parser) -> None:
    """Reject a numeric flag below the least value its check can use."""
    for flag, low in (("trials", 1), ("height", 1), ("precision", 1), ("factor_bound", 2),
                      ("perturbations", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            parser.error(f"--{flag.replace('_', '-')} must be at least {low}, got {value}")


def _prime_field(args, parser, missing: str) -> Field:
    if args.p is None:
        parser.error(missing)
    try:
        return GF(args.p)
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_field(args, parser) -> Field:
    if args.field == "fp":
        return _prime_field(args, parser, "--field fp requires --p")
    if args.p is not None:
        parser.error("--p requires --field fp")
    return QQ


def _load_pattern(args, parser):
    name = getattr(args, "pattern", None)
    path = getattr(args, "pattern_file", None)
    if (name is None) == (path is None):
        parser.error("give exactly one of --pattern or --pattern-file")
    try:
        if name is not None:
            return cluster.builtin_pattern(name)
        with open(path) as handle:
            config = json.load(handle)
        if isinstance(config, dict):
            config.setdefault("name", path)
        return cluster.pattern_from_dict(config)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        parser.error(f"invalid pattern: {exc}")


def _validate_mw(args, parser) -> tuple[int, int]:
    if args.m is None or args.w is None:
        parser.error("this check requires --m and --w")
    return args.m, args.w


def _parse_point(text: str, field: Field, precision: int, parser) -> tuple[TruncatedSeries, ...]:
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
    except (ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        parser.error(f"cannot parse --point: {exc}")


def _emit(doc_config: dict, checks: list, args) -> int:
    report = verify.SuiteReport(config=doc_config, checks=checks)
    if getattr(args, "format", "human") == "json":
        payload = report.to_json_bytes()
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    else:
        text = report.to_text() + "\n"
        if getattr(args, "out", None):
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    return 0 if report.all_pass else 1


def _resolved_config(args, **extra) -> dict:
    # keep only the semantic configuration; output routing does not belong in
    # a replayable report
    skip = ("command", "check_command", "out", "format")
    config = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    config.update(extra)
    return {k: (v if isinstance(v, (int, str, bool, list)) else str(v))
            for k, v in sorted(config.items())}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_bounds(args, parser)

    if args.command == "suite":
        report = verify.run_suite(seed=args.seed)
        return _emit(report.config, report.checks, args)

    if args.command == "theta":
        matrix, _ = _load_pattern(args, parser)
        theta = cluster.skew_symmetrizer(matrix)
        print("(" + ", ".join(str(t) for t in theta) + ")")
        return 0

    if args.command == "periodicity":
        pattern = _load_pattern(args, parser)
        field = _resolve_field(args, parser)
        report = verify.check_periodicity_report(
            pattern, trials=args.trials, height=args.height, seed=args.seed,
            field=field, precision=2 if args.precision is None else args.precision,
        )
        return _emit(_resolved_config(args), [report], args)

    if args.command == "mutate":
        matrix, schedule = _load_pattern(args, parser)
        field = _resolve_field(args, parser)
        precision = 2 if args.precision is None else args.precision
        point = _parse_point(args.point, field, precision, parser)
        if len(point) != matrix.n:
            parser.error(f"{schedule.name} has rank {matrix.n}, point has {len(point)} coordinates")
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

    # single checks; each refuses a configuration it cannot evaluate with ValueError
    # (a bad modulus/weight, an aperiodic pattern, a point space too large to
    # enumerate without --trials, a lemma precision above p)
    kind = args.check_command
    try:
        if kind == "pentagon":
            field = _resolve_field(args, parser)
            # over GF(p), --m/--w reach check_pentagon, which refuses them
            m, w = _validate_mw(args, parser) if field is QQ else (args.m, args.w)
            report = verify.check_pentagon(m=m, w=w, p=field.characteristic or None,
                                           trials=args.trials, height=args.height, seed=args.seed)
        elif kind == "cluster":
            pattern = _load_pattern(args, parser)
            m, w = _validate_mw(args, parser)
            report = verify.check_cluster_char0(pattern, m, w, trials=args.trials,
                                                height=args.height, seed=args.seed)
        elif kind == "cluster-p":
            pattern = _load_pattern(args, parser)
            field = _prime_field(args, parser, "cluster-p requires --p")
            report = verify.check_cluster_charp(pattern, field.characteristic,
                                                trials=args.trials, seed=args.seed)
        elif kind == "named":
            field = _prime_field(args, parser, "named identities require --p")
            report = verify.check_named_identity(args.identity, field.characteristic,
                                                 trials=args.trials, seed=args.seed)
        elif kind == "lemma":
            pattern = _load_pattern(args, parser)
            field = _resolve_field(args, parser)
            report = verify.check_lemma_wedge(
                pattern, field=field, precision=6 if args.precision is None else args.precision,
                trials=args.trials, height=args.height, seed=args.seed,
                factor_bound=args.factor_bound, exhaustive_constants=args.exhaustive,
            )
        else:  # welldef; argparse enforces the choices
            m, w = _validate_mw(args, parser)
            report = verify.check_welldef(m, w, trials=args.trials,
                                          perturbations=args.perturbations,
                                          height=args.height, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    return _emit(_resolved_config(args, check=kind), [report], args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
