"""Y-seed mutation at evaluated points, skew-symmetrizers, and periodicity.

A seed is an n x n integer exchange matrix B together with an n-tuple of unit
series (the evaluated y-values).  Mutation in direction k (0-indexed) acts by

    y'_k = 1 / y_k
    y'_i = y_i * y_k^max(b_ki, 0) * (1 + y_k)^(-b_ki)      for i != k
    b'_ij = -b_ij                  if k in {i, j}
    b'_ij = b_ij + sgn(b_ik) * max(b_ik * b_kj, 0)          otherwise

The exponent placement is pinned by the rank-2 test vector: mutating the seed
with B = [[0, -1], [1, 0]] in direction 0 must send (y1, y2) to
(1/y1, y2(1 + y1)).  Evaluation points where a required inversion fails lie in
the excluded locus and surface as InvalidPointError, to be resampled by
callers.  `YSeed.mutate` is the one mutation routine; it reads row k once and
builds the next seed from the preserved rank, without checking it again.  The
one mutation loop is the lazy `walk`, which mutates only when the next seed is
asked for; `run_schedule` is built on it.  nu-periodicity is exact
in its matrix half (`matrix_returns`) and judged one point at a time in its y
half (`check_periodicity`); drawing the points is the check driver's job
(`verify.check_periodicity_report`).

Each factor is computed as the single power (1 + y_k^sgn(b))^(-b), b = b_ki.
For b < 0 this is (1 + y_k)^|b| as displayed.  For b > 0 it is
(1 + 1/y_k)^(-b) = (y_k / (1 + y_k))^b = y_k^b * (1 + y_k)^(-b).  It needs an
inversion exactly when the displayed factor does (b > 0), and for a unit y_k,
1 + 1/y_k is a unit exactly when 1 + y_k is: the same points are invalid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .series import NonUnitError, TruncatedSeries

__all__ = [
    "BUILTIN_PATTERNS",
    "ExchangeMatrix",
    "InvalidPointError",
    "MutationSchedule",
    "NotSkewSymmetrizableError",
    "Trajectory",
    "TrajectoryStep",
    "YSeed",
    "builtin_pattern",
    "check_periodicity",
    "matrix_path",
    "matrix_returns",
    "pattern_from_dict",
    "run_schedule",
    "skew_symmetrizer",
    "skew_symmetrizes",
    "walk",
]


class NotSkewSymmetrizableError(ValueError):
    """The matrix admits no positive integer skew-symmetrizer."""


class InvalidPointError(ValueError):
    """A mutation step needed an inversion that fails at this evaluation point."""

    def __init__(self, message: str, step: int | None = None, direction: int | None = None):
        super().__init__(message)
        self.step = step
        self.direction = direction


class ExchangeMatrix:
    """An integer exchange matrix, validated to be sign-skew-symmetric.

    The matrix is immutable, so each instance remembers its mutation in each
    direction once computed (at most n entries): a schedule's matrix path is
    built and validated once, however many points walk it.
    """

    __slots__ = ("rows", "_mutations")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(entry for entry in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("exchange matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                entry = rows[i][j]
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise ValueError(f"matrix entry ({i},{j}) is not an integer: {entry!r}")
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0, got {rows[i][i]}")
            for j in range(i + 1, n):
                a, b = rows[i][j], rows[j][i]
                if (a == 0) != (b == 0) or a * b > 0:
                    raise ValueError(
                        f"sign-skew-symmetry violated at ({i},{j}): {a} vs {b}"
                    )
        self.rows = rows
        self._mutations: dict[int, ExchangeMatrix] = {}

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k."""
        memo = self._mutations.get(k)
        if memo is not None:
            return memo
        n = self.n
        if not 0 <= k < n:
            raise IndexError(f"direction {k} out of range for rank {n}")
        old = self.rows
        new = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == k or j == k:
                    row.append(-old[i][j])
                else:
                    extra = old[i][k] * old[k][j]
                    if extra > 0:
                        sign = 1 if old[i][k] > 0 else -1
                        row.append(old[i][j] + sign * extra)
                    else:
                        row.append(old[i][j])
            new.append(row)
        mutated = self._mutations[k] = ExchangeMatrix(new)
        return mutated

    def permuted(self, nu: tuple[int, ...]) -> "ExchangeMatrix":
        """Apply a permutation to rows and columns: result[nu[i]][nu[j]] = self[i][j]."""
        n = self.n
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                new[nu[i]][nu[j]] = self.rows[i][j]
        return ExchangeMatrix(new)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self.rows]})"


def skew_symmetrizer(matrix: ExchangeMatrix) -> tuple[int, ...]:
    """Componentwise-minimal positive integers theta with theta_j b_ij = -theta_i b_ji.

    Ratios propagate along nonzero entries, all positive as ExchangeMatrix gives
    b_ij and b_ji opposite signs; each connected component is normalized by
    clearing denominators and dividing by the gcd.  Inconsistent constraints
    around a cycle leave an entry unmet, so theta is checked once at the end.
    """
    n = matrix.n
    ratios: list[Fraction | None] = [None] * n
    for root in range(n):
        if ratios[root] is not None:
            continue
        component = [root]
        ratios[root] = Fraction(1)
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                b_ij = matrix.entry(i, j)
                if ratios[j] is None and b_ij:  # theta_j * b_ij = -theta_i * b_ji
                    ratios[j] = ratios[i] * Fraction(-matrix.entry(j, i), b_ij)
                    component.append(j)
                    queue.append(j)
        scale = math.lcm(*(r.denominator for r in (ratios[i] for i in component)))
        scaled = {i: int(ratios[i] * scale) for i in component}
        common = math.gcd(*scaled.values())
        for i in component:
            ratios[i] = Fraction(scaled[i] // common)
    theta = tuple(int(r) for r in ratios)
    if not skew_symmetrizes(theta, matrix):
        raise NotSkewSymmetrizableError(f"no positive theta skew-symmetrizes {matrix}")
    return theta


def skew_symmetrizes(theta, matrix: ExchangeMatrix) -> bool:
    """Whether theta_j b_ij = -theta_i b_ji at every entry of the matrix."""
    return all(theta[j] * matrix.entry(i, j) == -theta[i] * matrix.entry(j, i)
               for i in range(matrix.n) for j in range(matrix.n))


class MutationSchedule(namedtuple("MutationSchedule", "directions nu theta name", defaults=(None, "custom"))):
    """A pattern's keys besides B: directions (`sequence`), nu, optional theta (int tuples), name."""

    __slots__ = ()

    def validate(self, matrix: ExchangeMatrix) -> None:
        n = matrix.n
        if not all(type(v) is int for v in (*self.directions, *self.nu, *(self.theta or ()))):
            raise ValueError("sequence, nu and theta must hold integers")
        if not self.directions:
            raise ValueError("sequence is empty: a cluster sum over no step vanishes vacuously")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for r in self.directions:
            if not 0 <= r < n:
                raise ValueError(f"direction {r} out of range for rank {n}")
        if sorted(self.nu) != list(range(n)):
            raise ValueError(f"nu {list(self.nu)} is not a permutation of 0..{n - 1}")
        if self.theta is not None:
            if len(self.theta) != n or any(t < 1 for t in self.theta):
                raise ValueError("theta must be an n-tuple of positive integers")
            if not skew_symmetrizes(self.theta, matrix):
                raise ValueError("theta does not skew-symmetrize the matrix")

    def resolved_theta(self, matrix: ExchangeMatrix) -> tuple[int, ...]:
        return self.theta if self.theta is not None else skew_symmetrizer(matrix)


class YSeed(namedtuple("YSeed", "matrix ys")):
    """An exchange matrix paired with evaluated y-values (a tuple of unit series)."""

    __slots__ = ()

    def __new__(cls, matrix: ExchangeMatrix, ys: tuple[TruncatedSeries, ...]) -> "YSeed":
        if len(ys) != matrix.n:
            raise ValueError(f"rank mismatch: matrix {matrix.n}, point {len(ys)}")
        return tuple.__new__(cls, (matrix, ys))

    @classmethod
    def _make(cls, iterable) -> "YSeed":
        """Build through __new__, so _make and _replace (which calls it) check the rank too."""
        return cls(*iterable)

    def mutate(self, k: int) -> "YSeed":
        matrix = self.matrix
        if not 0 <= k < matrix.n:
            raise IndexError(f"direction {k} out of range for rank {matrix.n}")
        yk = self.ys[k]
        try:
            yk_inv = yk.invert()
        except NonUnitError as exc:
            raise InvalidPointError(f"y_{k + 1} is not invertible here", direction=k) from exc
        new_ys = list(self.ys)
        new_ys[k] = yk_inv
        for i, b in enumerate(matrix.rows[k]):
            if b == 0:  # b_kk = 0 too: y_k itself is only inverted
                continue
            try:
                factor = (1 + (yk_inv if b > 0 else yk)) ** (-b)
            except NonUnitError as exc:
                raise InvalidPointError(
                    f"1 + y_{k + 1} is not invertible here", direction=k
                ) from exc
            new_ys[i] = new_ys[i] * factor
        # mutation preserves the rank, so the next seed skips __new__'s rank check
        return tuple.__new__(YSeed, (matrix.mutate(k), tuple(new_ys)))


class TrajectoryStep(namedtuple("TrajectoryStep", "direction value")):
    """One mutation step: its direction and that direction's y-value before the step."""

    __slots__ = ()


class Trajectory(namedtuple("Trajectory", "steps final")):
    """The steps of a schedule, a tuple of TrajectorySteps, and the final YSeed."""

    __slots__ = ()


def walk(matrix: ExchangeMatrix, point: tuple[TruncatedSeries, ...], directions):
    """Yield the seed at point, then the seed after each step, mutating only when that seed is asked for;
    a failed step raises InvalidPointError carrying its step index and direction."""
    seed = YSeed(matrix, tuple(point))
    yield seed
    for j, r in enumerate(directions):
        try:
            seed = seed.mutate(r)
        except InvalidPointError as exc:
            raise InvalidPointError(str(exc), step=j, direction=r) from exc
        yield seed


def run_schedule(
    matrix: ExchangeMatrix,
    point: tuple[TruncatedSeries, ...],
    schedule: MutationSchedule,
) -> Trajectory:
    """Mutate along a validated schedule, recording each y_{r_j} before its step."""
    seeds = list(walk(matrix, point, schedule.directions))
    steps = tuple(TrajectoryStep(r, seed.ys[r]) for r, seed in zip(schedule.directions, seeds))
    return Trajectory(steps, seeds[-1])


def matrix_path(matrix: ExchangeMatrix, directions) -> list[ExchangeMatrix]:
    """The matrix followed by its mutation after each step along `directions`."""
    path = [matrix]
    for r in directions:
        path.append(path[-1].mutate(r))
    return path


def matrix_returns(matrix: ExchangeMatrix, schedule: MutationSchedule) -> bool:
    """The exact half of nu-periodicity: mutating along the schedule gives nu(B)."""
    return matrix_path(matrix, schedule.directions)[-1] == matrix.permuted(schedule.nu)


def check_periodicity(
    matrix: ExchangeMatrix,
    schedule: MutationSchedule,
    point: tuple[TruncatedSeries, ...],
) -> bool:
    """The y half of nu-periodicity at one point: the schedule puts y_i in place nu[i].

    A point where a mutation fails raises InvalidPointError.
    """
    final = run_schedule(matrix, point, schedule).final.ys
    return all(final[j] == y for j, y in zip(schedule.nu, point))


# Built-in patterns.  B2's closing permutation is the identity: six alternating
# mutations return the seed exactly, which the periodicity check samples.
BUILTIN_PATTERNS: dict[str, dict] = {
    "A1": {"name": "A1", "B": [[0]], "sequence": [0, 0], "nu": [0]},
    "A2": {"name": "A2", "B": [[0, -1], [1, 0]], "sequence": [0, 1, 0, 1, 0], "nu": [1, 0]},
    "B2": {"name": "B2", "B": [[0, -1], [2, 0]], "sequence": [0, 1, 0, 1, 0, 1], "nu": [0, 1]},
}


def pattern_from_dict(config: dict) -> tuple[ExchangeMatrix, MutationSchedule]:
    """Validate a pattern config: lists B, sequence (not empty), nu, optional theta; optional string name.

    A nameless config is named "custom"; a malformed one raises ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError(f"pattern config must be an object, got {config!r}")
    for key in ("B", "sequence", "nu"):
        if config.get(key) is None:
            raise ValueError(f"pattern config is missing the key {key!r}")
    for key in ("B", "sequence", "nu", "theta"):
        if config.get(key) is not None and not isinstance(config[key], list):
            raise ValueError(f"{key} must be a list, got {config[key]!r}")
    if not all(isinstance(row, list) for row in config["B"]):
        raise ValueError(f"B must be a list of lists, got {config['B']!r}")
    matrix = ExchangeMatrix(config["B"])
    theta = config.get("theta")
    schedule = MutationSchedule(
        directions=tuple(config["sequence"]),
        nu=tuple(config["nu"]),
        theta=tuple(theta) if theta is not None else None,
        name=config.get("name", "custom"),
    )
    schedule.validate(matrix)
    skew_symmetrizer(matrix)  # reject non-symmetrizable matrices outright
    return matrix, schedule


def builtin_pattern(name: str) -> tuple[ExchangeMatrix, MutationSchedule]:
    if name not in BUILTIN_PATTERNS:
        known = ", ".join(sorted(BUILTIN_PATTERNS))
        raise ValueError(f"unknown pattern {name!r}; built-ins are {known}")
    return pattern_from_dict(BUILTIN_PATTERNS[name])
