"""Grid relaxation and signaling-table extraction for forest structures.

The pipeline: discretize the simplex at a unit-fraction step, assemble
the linear program over the covering edges of the dominance forest,
solve exactly, then unwind the solution into a per-state table of
posterior-label profiles.  Dominating receivers sit on the spread side
of every coupling; trees of the forest are kept conditionally
independent given the state.  On two states the program is over
marginals alone, and the lattice module builds the couplings after the
solve and certifies the answer on the 1/D lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import ge, getitem, itemgetter, mul
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from . import beliefs, lp
from .beliefs import BeliefDistribution, Coupling, _position, is_bayes_plausible
from .dominance import domination_graph
from .errors import (
    BadEpsilon,
    InvariantViolation,
    NotAForest,
    StateSpaceMismatch,
    ValidationError,
)
from .lattice import (
    _breakpoints,
    _curtain,
    _lattice_dual,
    _lattice_failure,
    _path_certificate,
    _prior_split,
)
from .model import (
    AdditiveUtility,
    PersuasionInstance,
    Posterior,
    Prior,
    StateSpace,
    _exact,
    _integers,
    _probability,
    check_epsilon,
    dot,
    format_label,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PosteriorGrid:
    """All points of the simplex with coordinates in (1/denominator)Z."""

    dim: int
    denominator: int

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (self.dim, self.denominator)):
            raise ValidationError(f"grid needs int dim and denominator, got {self!r}")
        if self.dim < 1 or self.denominator < 1:
            raise ValidationError("grid needs dim >= 1 and denominator >= 1")

    @property
    def step(self) -> Fraction:
        return Fraction(1, self.denominator)

    @classmethod
    def for_epsilon(cls, dim: int, epsilon: Fraction) -> "PosteriorGrid":
        check_epsilon(epsilon)
        d = -((-epsilon.denominator) // epsilon.numerator)
        return cls(dim=dim, denominator=d)

    def points(self) -> tuple[Posterior, ...]:
        """The grid points in increasing lexicographic order, which is the
        order the recursion makes them in: each coordinate counts up with
        the ones before it fixed."""
        d = self.denominator
        out: list[Posterior] = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(tuple(prefix + [Fraction(remaining, d)]))
                return
            for l in range(remaining + 1):
                rec(prefix + [Fraction(l, d)], remaining - l, slots - 1)

        rec([], d, self.dim)
        return tuple(out)

    def contains(self, point: Posterior) -> bool:
        """Whether point, of exact coordinates (model._exact), is on the grid."""
        xs = [_exact(x, "posterior coordinate") for x in point]
        return (
            len(xs) == self.dim
            and all(x >= 0 and (x * self.denominator).denominator == 1 for x in xs)
            and sum(xs) == 1
        )


@dataclass(frozen=True)
class GridLP:
    """The program lp.solve is handed for a grid, plus its variable
    bookkeeping.  For k receivers and n points, x(i, points[a]) is
    variable i * n + a.  Rows are each receiver's Bayes-plausibility
    rows, one per state, then the covering edges' rows, edge by edge.
    edges are the domination forest's sorted covering edges, and
    values[i] receiver i's utility.  Past two states the program is over
    every grid point, a normalization row per receiver comes last,
    values[i][a] is the utility at points[a], propose is None, and on
    the e-th edge the flow y(points[a], points[c]) is k * n + e * n * n
    + a * n + c.  On two states the potential program over the
    breakpoints has no flows and no normalization rows: row
    2k + e (n - 2) + s - 1 is sum_a (x(i1, a) - x(i2, a)) |a - positions[s]|
    >= 0 on the e-th edge (i1, i2), positions[s] being points[s]'s, a
    for (a/D, 1 - a/D); values[i] is (V, w), w mapping a position to V
    times the utility there (_breakpoints), and propose, lp.solve's
    proposal (x, y), is _path_certificate's on a forest of paths, with a
    dual, else _prior_split's, without one."""

    program: lp.LinearProgram
    grid: PosteriorGrid
    points: tuple[Posterior, ...]
    edges: tuple[tuple[int, int], ...]
    propose: tuple[list, list | None] | None
    values: tuple[Sequence[Fraction] | tuple[int, dict[int, int]], ...]
    positions: list[int] | None = None


def _forest_edges(instance: PersuasionInstance) -> tuple[tuple[int, int], ...]:
    graph = domination_graph(instance.structure)
    if not graph.is_forest:
        raise NotAForest("dominance covering graph has a receiver with two incomparable dominators")
    return tuple(sorted(graph.edges))


def build_grid_lp(instance: PersuasionInstance, grid: PosteriorGrid) -> GridLP:
    """The GridLP of a forest instance on the grid: past two states the
    coupling program over every grid point; on two states the potential
    program over the breakpoints and its proposal.  Nonnegativity is
    carried by the solver's variable bounds."""
    if not isinstance(instance.utilities, AdditiveUtility):
        raise ValidationError("grid program needs additive per-receiver utilities")
    if grid.dim != instance.space.size:
        raise ValidationError("grid dimension differs from the state space")
    edges = _forest_edges(instance)
    D = grid.denominator
    space, receivers = instance.space, instance.utilities.receivers
    if grid.dim == 2:
        p = instance.prior.values[0]
        at, pts, values = _breakpoints(receivers, space, D, p * D)
        table = [(V, [w[a] for a in at]) for V, w in values]
        if len({i1 for i1, _ in edges}) == len(edges):
            # no receiver spreads onto two: every tree is a path
            propose = _path_certificate(p, edges, table, at)
        else:
            propose = _prior_split(p * D, instance.k, at)
        program = _potential_program(instance.prior, edges, D, at, table)
        return GridLP(program, grid, pts, edges, propose, values, at)
    pts = grid.points()
    values = tuple(tuple(u.value_at(w, space) for w in pts) for u in receivers)
    program = _grid_program(instance.prior, edges, D, pts, values)
    return GridLP(program, grid, pts, edges, None, values)


def _program(prior, D, lattice, values, rows, n_vars) -> lp.LinearProgram:
    """The program over the sorted points of the 1/D lattice whose
    coordinates times D are lattice[a], values[i] = (V, w), w[a] V times
    receiver i's utility at the a-th point: the receivers'
    Bayes-plausibility rows, then rows, each (coeffs, rel, rhs, den) in
    integers, numbered as GridLP."""
    k, n = len(values), len(lattice)
    flat = [(V, v) for V, w in values for v in w]  # x(i, a) is variable i * n + a
    obj_den = lcm(*(V for V, _ in values))
    objective = {j: v * (obj_den // V) for j, (V, v) in enumerate(flat) if v}
    # integer rows (coeffs, rel, rhs, den)
    constraints = []
    for base in range(0, k * n, n):
        for b, q in enumerate(prior.values):
            row = {base + a: c[b] * q.denominator for a, c in enumerate(lattice) if c[b]}
            constraints.append((row, lp.EQ, q.numerator * D, q.denominator * D))
    return lp.LinearProgram(n_vars, (objective, obj_den), constraints + rows)


def _grid_program(prior, edges, D, pts, values) -> lp.LinearProgram:
    """The coupling program over the points pts (_program), less rows left
    without a coefficient, such as a barycenter row at a lone point, and
    with a normalization row per receiver last."""
    k, n = len(values), len(pts)
    rows = []
    for e, (i1, i2) in enumerate(edges):
        block = beliefs.coupling_rows(pts, pts, k * n + e * n * n)
        for a in range(n):
            block[a][0][i1 * n + a] = -1  # row sum = x_{i1}(pts[a])
            block[n + a][0][i2 * n + a] = -1  # column sum = x_{i2}(pts[a])
        rows += [(row, lp.EQ, 0, den) for row, den in block if row]
    rows += [(dict.fromkeys(range(base, base + n), 1), lp.EQ, 1, 1) for base in range(0, k * n, n)]
    lattice = [[x.numerator * (D // x.denominator) for x in w] for w in pts]
    return _program(prior, D, lattice, [*map(_integers, values)], rows, k * n + len(edges) * n * n)


def _potential_program(prior, edges, D, at, values) -> lp.LinearProgram:
    """The potential program over the breakpoints at the lattice
    positions at (_program), with no normalization rows: on two states
    each receiver's two Bayes-plausibility rows add up to its own, so
    the program has full row rank."""
    n, rows = len(at), []
    for i1, i2 in edges:
        for t in at[1:-1]:
            row = {i1 * n + s: abs(a - t) for s, a in enumerate(at) if a != t}
            row.update({i2 * n + s: -abs(a - t) for s, a in enumerate(at) if a != t})
            rows.append((row, lp.GE, 0, 1))
    return _program(prior, D, [(a, D - a) for a in at], values, rows, len(values) * n)


@dataclass(frozen=True)
class GridSolution:
    """Solved masses: one belief distribution per receiver, one coupling
    per covering edge (spread side = dominating receiver), and the exact
    objective."""

    step: Fraction
    marginals: tuple[BeliefDistribution, ...]
    couplings: Mapping[tuple[int, int], Coupling]
    objective: Fraction

    def validate(self, instance: PersuasionInstance) -> None:
        """Re-check every invariant against the instance; raises
        InvariantViolation on the first failure, and ValidationError on
        utilities that build_grid_lp refuses, whose objective is unchecked."""
        self._validate(instance, _forest_edges(instance))

    def _validate(self, instance: PersuasionInstance, edges) -> None:
        """validate, given the instance's sorted covering edges, in integers."""
        if not isinstance(instance.utilities, AdditiveUtility):
            raise ValidationError("grid solution needs additive per-receiver utilities")
        if len(self.marginals) != instance.k:
            raise InvariantViolation("marginal count differs from receiver count")
        for i, dist in enumerate(self.marginals):
            if (w := self._off_lattice(dist)) is not None:
                raise InvariantViolation(f"marginal of receiver {i + 1} has {w}")
        for i, dist in enumerate(self.marginals):
            if not is_bayes_plausible(dist, instance.prior):
                raise InvariantViolation(f"marginal of receiver {i + 1} is not Bayes-plausible")
        for i1, i2 in sorted(set(edges).symmetric_difference(self.couplings)):
            if (i1, i2) in edges:
                raise InvariantViolation(f"no coupling for covering edge ({i1 + 1},{i2 + 1})")
            raise InvariantViolation(f"coupling ({i1 + 1},{i2 + 1}) is not on a covering edge")
        for (i1, i2), coupling in self.couplings.items():
            for dist in (coupling.source, coupling.target):
                if (w := self._off_lattice(dist)) is not None:
                    raise InvariantViolation(f"coupling ({i1 + 1},{i2 + 1}) has {w}")
            for side, dist, i in (("spread", coupling.source, i1), ("coarse", coupling.target, i2)):
                if dist != self.marginals[i]:
                    side = f"coupling ({i1 + 1},{i2 + 1}) {side} side"
                    raise InvariantViolation(f"{side} is not receiver {i + 1}'s marginal")
        space, pairs = instance.space, zip(self.marginals, instance.utilities.receivers)
        values = (u.value_at(p, space) for dist, u in pairs for p in dist.points)
        total = dot(chain.from_iterable(dist.masses for dist in self.marginals), values)
        if total != self.objective:
            raise InvariantViolation(f"stored objective {self.objective} != recomputed {total}")

    def _off_lattice(self, dist: BeliefDistribution) -> str | None:
        """The first support point x / L of dist off the lattice of the step
        n / d, where L n does not divide x d, named with the lattice; None
        when every point lies on it.  A coupling's flows lie on its sides' supports."""
        step = self.step
        L, points, _, _ = dist.scaled
        for w, xs in zip(dist.points, points):
            if any(x * step.denominator % (L * step.numerator) for x in xs):
                return f"the point {format_label(w)} off the {step} lattice"
        return None


def _read_solution(glp: GridLP, assignment, objective) -> GridSolution:
    """The marginals and couplings of an assignment to glp's variables:
    receiver i's marginal from its block of n, in canonical form at the
    sorted points.  Past two states each flow is coupling_flows' on its
    edge's block of n²; on two states each coupling is built from its
    marginals (_curtain), and one not in convex order leaves its edge
    without, which GridSolution._validate refuses."""
    pts = glp.points
    n, k = len(pts), len(glp.values)
    rows = (assignment[i * n : i * n + n] for i in range(k))
    marginals = tuple(
        BeliefDistribution(tuple(compress(pts, row)), tuple(compress(row, row))) for row in rows
    )
    couplings = {}
    for e, (i1, i2) in enumerate(glp.edges):
        if glp.grid.dim == 2:
            coupling = _curtain(marginals[i1], marginals[i2])
        else:
            flow = beliefs.coupling_flows(pts, pts, assignment, k * n + e * n * n)
            coupling = Coupling(marginals[i1], marginals[i2], flow)
        if coupling is not None:
            couplings[i1, i2] = coupling
    return GridSolution(glp.grid.step, marginals, couplings, objective)


def solve_grid(instance: PersuasionInstance, grid: PosteriorGrid) -> GridSolution:
    """Assemble, solve and validate at a fixed grid.  The LP is always
    feasible and bounded, so lp.solve raising that it is not is a solver
    defect.  On two states the program is the potential program, and its
    dual certifies the solution on the whole lattice (_lattice_failure);
    a certificate that fails is named in an InvariantViolation."""
    glp = build_grid_lp(instance, grid)
    sol = lp.solve(glp.program, propose=glp.propose)
    solution = _read_solution(glp, sol.assignment, sol.objective)
    solution._validate(instance, glp.edges)
    if grid.dim == 2:
        lines, g = _lattice_dual(glp, sol.dual)
        failure = _lattice_failure(glp, instance.prior.values[0], lines, g, solution.objective)
        if failure is not None:
            raise InvariantViolation(f"lattice certificate failed: {failure}")
    return solution


def solve_fptas(
    instance: PersuasionInstance, epsilon: Fraction | None = None
) -> tuple[GridSolution, "SignalingTable"]:
    """Solve to additive accuracy epsilon and extract the table.

    epsilon falls back to the instance's own; the grid step is the unit
    fraction 1/ceil(1/epsilon).
    """
    if epsilon is None:
        epsilon = instance.epsilon
    if epsilon is None:
        raise BadEpsilon("no epsilon given and the instance carries none")
    grid = PosteriorGrid.for_epsilon(instance.space.size, epsilon)
    solution = solve_grid(instance, grid)  # validates the solution
    return solution, _extract_validated(solution, instance)


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


def extract_table(solution: GridSolution, instance: PersuasionInstance) -> SignalingTable:
    """Turn a grid solution into an explicit per-state table.

    Labels are drawn top-down in one walk: each root from its marginal,
    independently of the other roots, and each child from its parent's
    coupling column, so distinct trees are independent given the state.
    Conditioning on the state reweights a profile by
    prod_roots label_root(state)/prior(state), which is exactly Bayes'
    rule because only root labels carry direct state information.
    """
    solution._validate(instance, _forest_edges(instance))
    return _extract_validated(solution, instance)


def _extract_validated(solution: GridSolution, instance: PersuasionInstance) -> SignalingTable:
    """extract_table of a validated solution, in integers, each entry made
    a Fraction once.  Each child's parent is read off the couplings, and
    receivers are walked by their count of dominators, their ancestors."""
    marginals, prior = solution.marginals, instance.prior.values
    size, k = len(prior), instance.k
    parent, above = {v: p for p, v in solution.couplings}, instance.structure.dominance_masks[1]
    # a label is an index into its receiver's marginal; a path holds the labels
    # drawn so far in walk order, after a label 0 that every root is drawn given,
    # and its weight in each state b, x[b] / d[b]
    at, paths = {None: 0}, [((0,), [1] * size, [1] * size)]
    for v in sorted(range(k), key=lambda v: above[v].bit_count()):
        p, dist = parent.get(v), marginals[v]
        if p is None:
            # a root's label: its mass times, in state b, its coordinate b over q_b
            L, points, M, masses = dist.scaled
            den = [M * L * q.numerator for q in prior]
            xs = [[m * x * q.denominator for x, q in zip(w, prior)] for m, w in zip(masses, points)]
            law = [[(c, x, den) for c, x in enumerate(xs)]]
        else:
            # v's label given its parent's, from their coupling: f over the parent's mass
            source = marginals[p]
            _, _, N, masses = source.scaled
            row, col = ({id(w): a for a, w in enumerate(d.points)} for d in (source, dist))
            law = [[] for _ in source.points]
            for (l, r), f in solution.couplings[(p, v)].flow.items():
                a, c = _position(source.points, row, l), _position(dist.points, col, r)
                law[a].append((c, [f.numerator * N] * size, [f.denominator * masses[a]] * size))
        n, at[v] = at[p], len(at)
        grown = ((ls + (c,), x, d, y, e) for ls, x, d in paths for c, y, e in law[ls[n]])
        paths = [(ls, list(map(mul, x, y)), list(map(mul, d, e))) for ls, x, d, y, e in grown]
    # every path's weight in state b over one denominator
    dens = [lcm(*ds) for ds in zip(*(d for _, _, d in paths))]
    weights = [[x * (D // d) for x, d, D in zip(xs, ds, dens)] for _, xs, ds in paths]
    for state, total, den in zip(instance.space.states, map(sum, zip(*weights)), dens):
        if total != den:
            total = Fraction(total, den)
            raise InvariantViolation(f"extracted row for state {state!r} sums to {total}")
    # distinct paths draw distinct profiles, so none need merging
    profiles = (tuple(marginals[i].points[ls[at[i]]] for i in range(k)) for ls, _, _ in paths)
    table = _table(instance.space, zip(profiles, (map(Fraction, w, dens) for w in weights)))
    table.validate(instance.prior)
    return table


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


def evaluate_table(table: SignalingTable, instance: PersuasionInstance) -> Fraction:
    """Exact expected sender utility of a table under the instance."""
    return dot(instance.prior.values, payoff_by_state(table, instance).values())
