"""Posterior-belief geometry and signaling tables.

Finite distributions over exact posterior points, the Bayes-plausibility
test, and mean-preserving-spread couplings with the rows and flows of
the program that finds them, every check in integers over one
denominator (BeliefDistribution.scaled).  SignalingTable and
payoff_by_state live here, so the modules that read, share or audit a
table (io, sharing, hardness) import neither forest nor lp.  The tests
keep a single-receiver concavification by support enumeration, which
shares no machinery with the simplex solver, so the two can vouch for
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product, repeat
from math import lcm
from operator import ge, getitem, itemgetter, lt, mul, sub
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import InvariantViolation, StateSpaceMismatch, ValidationError
from .model import (
    PersuasionInstance,
    Posterior,
    Prior,
    StateSpace,
    _exact,
    _integers,
    _probability,
    check_posterior,
    dot,
    format_label,
)

_ZERO = Fraction(0)


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
                raise ValidationError(f"negative flow at ({format_label(l)}, {format_label(r)})")
            if f:
                a, c = _position(source.points, row_of, l), _position(target.points, col_of, r)
                if a is None or c is None:
                    where = f"({format_label(l)}, {format_label(r)})"
                    raise ValidationError(f"flow at {where} lies off the supports")
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
                want = f"source mass {mass} at {format_label(l)}"
                raise ValidationError(f"row sum {Fraction(row, Q)} != {want}")
        for r, (total, *moments), m, xs in zip(target.points, cols, col_masses, rs):
            if total * N != m * Q:
                mass = f"target mass {Fraction(m, N)} at {format_label(r)}"
                raise ValidationError(f"column sum {Fraction(total, Q)} != {mass}")
            if any(s * N * R != m * x * Q * L for s, x in zip(moments, xs)):
                raise ValidationError(f"barycenter violated at target {format_label(r)}")


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


def _divergence(
    masses: list[tuple[int, int]],
    labels: list[Posterior],
    size: int,
    key: Callable[[Posterior], Hashable],
) -> tuple[Posterior, int] | None:
    """The first (label, state index) at which a label differs from the
    posterior given it, with the entries grouped by key(label); None when
    every label is its posterior.  masses[e] is entry e's (state index,
    integer mass) and labels[e] its label."""
    sums: dict[Hashable, tuple[Posterior, list[int]]] = {}
    for (b, m), label in zip(masses, labels):
        sums.setdefault(key(label), (label, [0] * size))[1][b] += m
    for label, weighted in sums.values():
        total = sum(weighted)
        for b in range(size):
            if weighted[b] * label[b].denominator != label[b].numerator * total:
                return label, b
    return None


@dataclass(frozen=True)
class SignalingTable:
    """Per-state conditional distribution over posterior-label profiles.

    profiles are sorted and distinct; rows maps each state name to the
    probability vector aligned with profiles.
    """

    space: StateSpace
    profiles: tuple[tuple[Posterior, ...], ...]
    rows: Mapping[str, tuple[Fraction, ...]]

    def __post_init__(self):
        if not self.profiles:
            raise ValidationError("table has no profiles")
        if len(set(map(len, self.profiles))) != 1:
            raise ValidationError("profiles of unequal receiver count")
        size = self.space.size
        bad = next((w for p in self.profiles for w in p if len(w) != size), None)
        if bad is not None:
            raise StateSpaceMismatch(f"label {format_label(bad)} is not over the {size} states")
        if any(map(ge, self.profiles, self.profiles[1:])):
            raise ValidationError("profiles must be sorted and distinct")
        rows = {s: tuple(map(_probability, vec)) for s, vec in self.rows.items()}
        object.__setattr__(self, "rows", rows)
        if set(rows) != set(self.space.states):
            raise ValidationError("table rows do not cover the state space")
        for state, vec in rows.items():
            if len(vec) != len(self.profiles):
                raise ValidationError(f"row {state!r} has wrong length")
            # the row in integers over its common denominator
            scale, scaled = _integers(vec)
            if min(scaled) < 0:
                raise ValidationError(f"negative probability in row {state!r}")
            if sum(scaled) != scale:
                raise ValidationError(f"row {state!r} sums to {sum(vec)}, not 1")

    @property
    def k(self) -> int:
        return len(self.profiles[0])

    def joint_law(self, prior: Prior) -> dict[tuple[str, int], Fraction]:
        """Map (state, profile index) -> unconditional probability."""
        out = {}
        for b, state in enumerate(self.space.states):
            vec = self.rows[state]
            for idx in range(len(self.profiles)):
                if vec[idx]:
                    out[(state, idx)] = prior[b] * vec[idx]
        return out

    def receiver_marginal(self, i: int, prior: Prior) -> BeliefDistribution:
        acc: dict[Posterior, Fraction] = {}
        for (state, idx), mass in self.joint_law(prior).items():
            label = self.profiles[idx][i]
            acc[label] = acc.get(label, Fraction(0)) + mass
        return BeliefDistribution.from_pairs(acc.items())

    def validate(self, prior: Prior) -> None:
        """Check that every receiver's posterior given his own label is
        that label; raises InvariantViolation with the offender.

        Works in integers over the joint law's common denominator.  Each
        receiver's entries are grouped by label object first, which needs
        no hashing of Fractions: the condition is linear in the entries,
        so groups that each pass pass together, and only a failure is
        checked again with equal labels grouped by value.  Equal labels
        are one object in a table from from_signals and in one read from
        a file, so there the first grouping is the only one."""
        if prior.space != self.space:
            raise InvariantViolation("table and prior disagree on the state space")
        size = self.space.size
        # (state index, profile index, joint mass as numerator and denominator)
        joint = [
            (b, idx, q.numerator * p.numerator, q.denominator * p.denominator)
            for b, (q, state) in enumerate(zip(prior.values, self.space.states))
            for idx, p in enumerate(self.rows[state])
            if p
        ]
        scale = lcm(*(d for _, _, _, d in joint))
        masses = [(b, n * (scale // d)) for b, _, n, d in joint]
        # receivers whose labels are the same objects split the joint law
        # alike: check each split once, at its first receiver
        splits = list(zip(*(map(id, self.profiles[idx]) for _, idx, _, _ in joint)))
        for split in dict.fromkeys(splits):
            i = splits.index(split)
            labels = [self.profiles[idx][i] for _, idx, _, _ in joint]
            if _divergence(masses, labels, size, id) is None:
                continue
            found = _divergence(masses, labels, size, lambda label: label)
            if found is not None:
                label, b = found
                raise InvariantViolation(
                    f"receiver {i + 1}: posterior given label {format_label(label)} "
                    f"diverges from the label in state {self.space.states[b]!r}"
                )

    @classmethod
    def from_signals(
        cls,
        prior: Prior,
        per_state: Mapping[str, Mapping[tuple, Fraction]],
    ) -> "SignalingTable":
        """Canonicalize an arbitrary-signal table: each receiver's signal
        is renamed to the posterior it induces, by Bayes' rule, and
        equal-label profiles are merged.  Equal posteriors, of one receiver
        or of several, are one label object, as they are in a table read
        from a file (io.table_from_doc)."""
        space, size = prior.space, prior.space.size
        if set(per_state) != set(space.states):
            raise ValidationError("signal table does not cover the state space")
        per_state = {s: dict(zip(d, map(_probability, d.values()))) for s, d in per_state.items()}
        lengths = {len(prof) for dist in per_state.values() for prof in dist}
        if len(lengths) > 1:
            raise ValidationError("signal profiles of unequal receiver count")
        if not lengths:
            raise ValidationError("signal table is empty")
        sent = [
            (b, prof, p)
            for b, state in enumerate(space.states)
            for prof, p in per_state[state].items()
            if p
        ]
        labels: dict[Posterior, Posterior] = {}
        names = []
        for i in range(lengths.pop()):
            acc: dict = {}
            for b, prof, p in sent:
                acc.setdefault(prof[i], [_ZERO] * size)[b] += prior.values[b] * p
            # each signal's mass summed once, not once per coordinate
            totals = map(sum, acc.values())
            posteriors = (tuple(v / t for v in vec) for vec, t in zip(acc.values(), totals))
            names.append({sig: labels.setdefault(w, w) for sig, w in zip(acc, posteriors)})
        merged: dict[tuple[Posterior, ...], list[Fraction]] = {}
        for b, prof, p in sent:
            merged.setdefault(tuple(map(getitem, names, prof)), [_ZERO] * size)[b] += p
        return _table(space, merged.items())


def _table(
    space: StateSpace, mass: Iterable[tuple[tuple[Posterior, ...], Sequence[Fraction]]]
) -> SignalingTable:
    """The table that sends profile p in the b-th state with probability
    vec[b], for each (p, vec) in mass; the profiles, distinct, are sorted."""
    items = sorted(mass, key=itemgetter(0))
    rows = dict(zip(space.states, zip(*(vec for _, vec in items))))
    return SignalingTable(space=space, profiles=tuple(p for p, _ in items), rows=rows)


def payoff_by_state(
    table: SignalingTable, instance: PersuasionInstance
) -> dict[str, Fraction]:
    """The sender's expected utility in each state under the table: the
    utility of each profile the state sends, weighted by its row."""
    if table.k != instance.k:
        raise ValidationError("table and instance disagree on receiver count")
    space, evaluate = instance.space, instance.utilities.evaluate
    rows = [table.rows[state] for state in space.states]
    sent = map(any, zip(*rows))
    values = [
        evaluate(profile, space) if s else None for profile, s in zip(table.profiles, sent)
    ]
    return {state: dot(vec, values) for state, vec in zip(space.states, rows)}
