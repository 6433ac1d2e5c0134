"""Posterior-belief geometry.

Finite distributions over exact posterior points, the Bayes-plausibility
test, and mean-preserving-spread couplings with the rows and flows of
the program that finds them, every check in integers over one
denominator (BeliefDistribution.scaled).  The tests keep a single-receiver
concavification by support enumeration, which shares no machinery with
the simplex solver, so the two can vouch for each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product, repeat
from math import lcm
from operator import lt, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import StateSpaceMismatch, ValidationError
from .model import Posterior, Prior, _exact, _integers, _probability, check_posterior, format_label


@dataclass(frozen=True)
class BeliefDistribution:
    """Finite-support distribution over posterior points.

    Canonical form: distinct support points in sorted order, strictly
    positive masses summing to one.  Build through from_pairs, which
    merges duplicates and drops zeros.  scaled is (L, coordinates, M,
    masses), integers over the least common denominators L and M.
    """

    points: tuple[Posterior, ...]
    masses: tuple[Fraction, ...]
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) != len(self.masses):
            raise ValidationError("support and mass lists differ in length")
        if not self.points:
            raise ValidationError("belief distribution has empty support")
        dim, points = len(self.points[0]), []
        for p in self.points:
            if len(p) != dim:
                raise StateSpaceMismatch("support points of mixed dimension")
            points.append(check_posterior(p))
        L = lcm(*(den for den, _ in points))
        points = [[x * (L // den) for x in xs] for den, xs in points]
        M, masses = _integers([_exact(m, "belief mass") for m in self.masses])
        if min(masses) <= 0:
            raise ValidationError("masses must be positive in canonical form")
        if sum(masses) != M:
            raise ValidationError("masses must sum to 1")
        if not all(map(lt, self.points, self.points[1:])):
            raise ValidationError(
                "support must be sorted and duplicate-free; use from_pairs"
            )
        object.__setattr__(self, "scaled", (L, points, M, masses))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Posterior, Fraction]]) -> "BeliefDistribution":
        acc: dict[Posterior, Fraction] = {}
        for point, mass in pairs:
            point = tuple(Fraction(_exact(x, "posterior coordinate")) for x in point)
            mass = Fraction(_exact(mass, "belief mass"))
            if mass < 0:
                raise ValidationError(f"negative mass {mass} at {format_label(point)}")
            if mass:
                acc[point] = acc.get(point, Fraction(0)) + mass
        items = sorted(acc.items())
        return cls(tuple(p for p, _ in items), tuple(m for _, m in items))

    @property
    def dim(self) -> int:
        return len(self.points[0])


def is_bayes_plausible(dist: BeliefDistribution, prior: Prior) -> bool:
    """True iff the mass-weighted mean of the support, in integers, is the prior."""
    if dist.dim != prior.space.size:
        raise StateSpaceMismatch(
            f"distribution over {dist.dim} states, prior over {prior.space.size}"
        )
    L, points, M, masses = dist.scaled
    means = (sum(map(mul, masses, xs)) for xs in zip(*points))  # times L M
    return all(s * q.denominator == q.numerator * L * M for s, q in zip(means, prior.values))


def _position(points: Sequence[Posterior], ids: dict[int, int], w) -> int | None:
    """The index of w among points, by object (ids maps id to index) and
    else, for an equal copy, by value; None when w is not there."""
    a = ids.get(id(w))
    return a if a is not None or w not in points else points.index(w)


@dataclass(frozen=True)
class Coupling:
    """Witness that source spreads target: a joint flow on their supports
    whose rows have the source masses, whose columns have the target
    masses, and whose flow-weighted barycenter over each target column
    equals that target point.  The sums are checked in integers."""

    source: BeliefDistribution
    target: BeliefDistribution
    flow: Mapping[tuple[Posterior, Posterior], Fraction]

    def __post_init__(self):
        source, target = self.source, self.target
        if source.dim != target.dim:
            raise StateSpaceMismatch("coupling endpoints of mixed dimension")
        row_of, col_of = ({id(w): a for a, w in enumerate(d.points)} for d in (source, target))
        clean, entries = {}, []
        for (l, r), f in self.flow.items():
            f = _probability(f)
            if f.numerator < 0:
                raise ValidationError(f"negative flow at ({l}, {r})")
            if f:
                a, c = _position(source.points, row_of, l), _position(target.points, col_of, r)
                if a is None or c is None:
                    raise ValidationError(f"flow at ({l}, {r}) lies off the supports")
                clean[l, r] = f
                entries.append((a, c))
        object.__setattr__(self, "flow", clean)
        # per source point its row sum; per target point its column sum, then
        # its moment in each coordinate: integers over Q, Q L for the moments
        Q, flows = _integers(list(clean.values()))
        L, ls, M, row_masses = source.scaled
        R, rs, N, col_masses = target.scaled
        rows, cols = [0] * len(ls), [[0] * (1 + target.dim) for _ in rs]
        for (a, c), f in zip(entries, flows):
            rows[a] += f
            col = cols[c]
            col[0] += f
            for b, x in enumerate(ls[a], 1):
                col[b] += f * x
        for l, row, m, mass in zip(source.points, rows, row_masses, source.masses):
            if row * M != m * Q:
                raise ValidationError(f"row sum {Fraction(row, Q)} != source mass {mass} at {l}")
        for r, (total, *moments), m, xs in zip(target.points, cols, col_masses, rs):
            if total * N != m * Q:
                mass = f"target mass {Fraction(m, N)}"
                raise ValidationError(f"column sum {Fraction(total, Q)} != {mass} at {r}")
            if any(s * N * R != m * x * Q * L for s, x in zip(moments, xs)):
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
