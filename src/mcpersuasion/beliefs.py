"""Posterior-belief geometry.

Finite distributions over exact posterior points, the Bayes-plausibility
test, mean-preserving-spread couplings decided by a feasibility LP, and
a single-receiver concavification computed by support enumeration.  The
enumeration route is deliberate: it shares no machinery with the
simplex solver, so the two can vouch for each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import lcm
from operator import sub
from typing import Iterable, Mapping, Sequence

from . import lp
from .errors import PriorOutsideHull, StateSpaceMismatch, ValidationError
from .model import Posterior, Prior, check_posterior

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BeliefDistribution:
    """Finite-support distribution over posterior points.

    Canonical form: distinct support points in sorted order, strictly
    positive masses summing to one.  Build through from_pairs, which
    merges duplicates and drops zeros.
    """

    points: tuple[Posterior, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.points) != len(self.masses):
            raise ValidationError("support and mass lists differ in length")
        if not self.points:
            raise ValidationError("belief distribution has empty support")
        dim = len(self.points[0])
        for p in self.points:
            if len(p) != dim:
                raise StateSpaceMismatch("support points of mixed dimension")
            check_posterior(p)
        if any(m <= 0 for m in self.masses):
            raise ValidationError("masses must be positive in canonical form")
        if sum(self.masses) != 1:
            raise ValidationError("masses must sum to 1")
        if list(self.points) != sorted(set(self.points)):
            raise ValidationError(
                "support must be sorted and duplicate-free; use from_pairs"
            )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Posterior, Fraction]]) -> "BeliefDistribution":
        acc: dict[Posterior, Fraction] = {}
        for point, mass in pairs:
            point = tuple(Fraction(x) for x in point)
            mass = Fraction(mass)
            if mass < 0:
                raise ValidationError(f"negative mass {mass} at {point}")
            if mass:
                acc[point] = acc.get(point, Fraction(0)) + mass
        items = sorted(acc.items())
        return cls(tuple(p for p, _ in items), tuple(m for _, m in items))

    @classmethod
    def point_mass(cls, point: Posterior) -> "BeliefDistribution":
        return cls.from_pairs([(point, Fraction(1))])

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def mean(self) -> Posterior:
        out = [Fraction(0)] * self.dim
        for point, mass in zip(self.points, self.masses):
            for b, x in enumerate(point):
                out[b] += mass * x
        return tuple(out)

    def mass_at(self, point: Posterior) -> Fraction:
        for p, m in zip(self.points, self.masses):
            if p == point:
                return m
        return Fraction(0)


def is_bayes_plausible(dist: BeliefDistribution, prior: Prior) -> bool:
    """True iff the mass-weighted mean of the support equals the prior."""
    if dist.dim != prior.space.size:
        raise StateSpaceMismatch(
            f"distribution over {dist.dim} states, prior over {prior.space.size}"
        )
    return dist.mean() == prior.values


@dataclass(frozen=True)
class Coupling:
    """Witness that source spreads target: a joint flow on their supports
    whose rows have the source masses, whose columns have the target
    masses, and whose flow-weighted barycenter over each target column
    equals that target point."""

    source: BeliefDistribution
    target: BeliefDistribution
    flow: Mapping[tuple[Posterior, Posterior], Fraction]

    def __post_init__(self):
        source, target = self.source, self.target
        if source.dim != target.dim:
            raise StateSpaceMismatch("coupling endpoints of mixed dimension")
        row_of = {l: a for a, l in enumerate(source.points)}
        col_of = {r: c for c, r in enumerate(target.points)}
        # per source point its row sum; per target point its column sum,
        # then its flow-weighted moment in each coordinate
        row_sums = [_ZERO] * len(row_of)
        col_sums = [[_ZERO] * (1 + target.dim) for _ in col_of]
        clean = {}
        for (l, r), f in self.flow.items():
            f = Fraction(f)
            if f < 0:
                raise ValidationError(f"negative flow at ({l}, {r})")
            if f:
                l, r = tuple(l), tuple(r)
                a, c = row_of.get(l), col_of.get(r)
                if a is None or c is None:
                    raise ValidationError(f"flow at ({l}, {r}) lies off the supports")
                clean[(l, r)] = f
                row_sums[a] += f
                col = col_sums[c]
                col[0] += f
                for b, x in enumerate(l, 1):
                    col[b] += f * x
        object.__setattr__(self, "flow", clean)
        for l, row, mass in zip(source.points, row_sums, source.masses):
            if row != mass:
                raise ValidationError(f"row sum {row} != source mass {mass} at {l}")
        for r, (total, *moments), mass in zip(target.points, col_sums, target.masses):
            if total != mass:
                raise ValidationError(f"column sum {total} != target mass {mass} at {r}")
            if any(m != mass * x for m, x in zip(moments, r)):
                raise ValidationError(f"barycenter violated at target {r}")


def coupling_rows(spread: Sequence[Posterior], coarse: Sequence[Posterior], base=0) -> list:
    """Left-hand sides of the rows that make flows y(l, r) >= 0 witness
    spread ⊒ coarse, with y(spread[a], coarse[c]) the variable
    base + a * len(coarse) + c, each as (integer coefficients, den).  In
    order: a row sum per spread point and a column sum per coarse point,
    coefficients 1 over den 1; then per coarse point r a barycenter row
    sum_l y(l, r)(l_b - r_b) for every coordinate b but the last, which
    the column sum implies, as D l_b - D r_b over the coordinates' common
    denominator D."""
    nl, nr = len(spread), len(coarse)
    rows = [(dict.fromkeys(range(base + a * nr, base + a * nr + nr), 1), 1) for a in range(nl)]
    rows += [(dict.fromkeys(range(base + c, base + nl * nr, nr), 1), 1) for c in range(nr)]
    D = lcm(*(x.denominator for p in (*spread, *coarse) for x in p))

    def scaled(points):
        """Per posed coordinate b, each point's D * p_b."""
        return list(zip(*([x.numerator * (D // x.denominator) for x in p[:-1]] for p in points)))

    ls, rs = scaled(spread), scaled(coarse)
    at = [{} for _ in ls]  # per coordinate, the spread points at each value
    for where, lb in zip(at, ls):
        for a, v in enumerate(lb):
            where.setdefault(v, []).append(a)
    for c in range(nr):
        column = range(base + c, base + nl * nr, nr)  # y(., coarse[c])
        for lb, rb, where in zip(ls, rs, at):
            w = rb[c]
            row = dict(zip(column, map(sub, lb, repeat(w))))
            for a in where.get(w, ()):
                del row[column[a]]  # l_b = r_b: no coefficient
            rows.append((row, D))
    return rows


def coupling_flows(spread, coarse, assignment: Sequence[Fraction], base=0) -> dict:
    """The nonzero flows {(l, r): y(l, r)} of an assignment to the variables
    of coupling_rows(spread, coarse, base), in variable order."""
    nr = len(coarse)
    rows = (assignment[base + a * nr : base + a * nr + nr] for a in range(len(spread)))
    return {(l, r): f for l, row in zip(spread, rows) for r, f in zip(coarse, row) if f}


def mps_coupling(
    spread: BeliefDistribution, coarse: BeliefDistribution
) -> Coupling | None:
    """A coupling witnessing spread ⊒ coarse, or None when none exists,
    decided by an exact feasibility program: coupling_rows, with the
    masses on the right of the row and column sums."""
    if spread.dim != coarse.dim:
        raise StateSpaceMismatch("cannot couple distributions of mixed dimension")
    rows = coupling_rows(spread.points, coarse.points)
    # a row or column sum over den 1 equals its mass m: scaled by m's denominator
    constraints = [
        (dict.fromkeys(row, m.denominator), lp.EQ, m.numerator, m.denominator)
        for (row, _), m in zip(rows, (*spread.masses, *coarse.masses))
    ]
    constraints += [(row, lp.EQ, 0, den) for row, den in rows[len(constraints) :]]
    n = len(spread.points) * len(coarse.points)
    sol = lp.solve(lp.LinearProgram.integral(n, ({}, 1), constraints))
    if sol.status != lp.OPTIMAL:
        return None
    flow = coupling_flows(spread.points, coarse.points, sol.assignment)
    return Coupling(source=spread, target=coarse, flow=flow)


def _solve_unique(rows, rhs):
    """Exact solution of an overdetermined system if it exists and is
    unique; None on inconsistency or underdetermination."""
    m, s = len(rows), len(rows[0]) if rows else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    row_at = 0
    for col in range(s):
        pivot = next((i for i in range(row_at, m) if aug[i][col]), None)
        if pivot is None:
            return None  # free column: not unique
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        pv = aug[row_at][col]
        aug[row_at] = [v / pv for v in aug[row_at]]
        for i in range(m):
            if i != row_at and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row_at])]
        pivots.append(col)
        row_at += 1
    for i in range(row_at, m):
        if aug[i][s]:
            return None  # inconsistent
    return [aug[r][s] for r in range(s)]


def concavify_single(
    u_table: Mapping[Posterior, Fraction],
    prior: Prior,
    points: Iterable[Posterior] | None = None,
) -> Fraction:
    """Best expected value of u over Bayes-plausible distributions
    supported on the given points (defaults: the table's own keys)."""
    value, _ = concavify_support(u_table, prior, points)
    return value


def concavify_support(
    u_table: Mapping[Posterior, Fraction],
    prior: Prior,
    points: Iterable[Posterior] | None = None,
) -> tuple[Fraction, BeliefDistribution]:
    """concavify_single together with an optimal distribution.

    Works by exhausting supports of at most |states| points: some
    optimal distribution is basic for the moment system, hence has a
    support of that size with linearly independent moment columns, and
    on such a support the weights are the unique solution of the
    system.  Larger or dependent supports never need to be examined.
    """
    pts = sorted(points) if points is not None else sorted(u_table)
    dim = prior.space.size
    for p in pts:
        if len(p) != dim:
            raise StateSpaceMismatch("grid point dimension differs from the prior's")
    target = list(prior.values) + [Fraction(1)]
    best: tuple[Fraction, BeliefDistribution] | None = None
    for size in range(1, dim + 1):
        for support in combinations(pts, size):
            rows = [[p[b] for p in support] for b in range(dim)]
            rows.append([Fraction(1)] * size)
            weights = _solve_unique(rows, target)
            if weights is None or any(w < 0 for w in weights):
                continue
            value = sum(
                (w * u_table[p] for w, p in zip(weights, support)), Fraction(0)
            )
            if best is None or value > best[0]:
                best = (
                    value,
                    BeliefDistribution.from_pairs(zip(support, weights)),
                )
    if best is None:
        raise PriorOutsideHull(
            "prior is not a convex combination of the given grid points"
        )
    return best
