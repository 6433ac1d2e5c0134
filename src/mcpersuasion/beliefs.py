"""Posterior-belief geometry.

Finite distributions over exact posterior points, the Bayes-plausibility
test, and mean-preserving-spread couplings with the rows and flows of
the program that finds them.  The tests keep a single-receiver
concavification by support enumeration, which shares no machinery with
the simplex solver, so the two can vouch for each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product, repeat
from math import lcm
from operator import sub
from typing import Iterable, Mapping, Sequence

from .errors import StateSpaceMismatch, ValidationError
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

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def mean(self) -> Posterior:
        out = [Fraction(0)] * self.dim
        for point, mass in zip(self.points, self.masses):
            for b, x in enumerate(point):
                out[b] += mass * x
        return tuple(out)


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
    block = assignment[base : base + len(spread) * len(coarse)]
    return dict(compress(zip(product(spread, coarse), block), block))
