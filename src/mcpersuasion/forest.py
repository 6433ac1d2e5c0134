"""Grid relaxation and signaling-table extraction for forest structures.

The pipeline: discretize the simplex at a unit-fraction step, assemble
the mass/coupling linear program over the covering edges of the
dominance forest, solve exactly, then unwind the solution into a
per-state table of posterior-label profiles.  Dominating receivers sit
on the spread side of every coupling; trees of the forest are kept
conditionally independent given the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import ge, getitem, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from . import beliefs, lp
from .beliefs import BeliefDistribution, Coupling, is_bayes_plausible
from .dominance import DominationGraph, domination_graph
from .errors import (
    BadEpsilon,
    InvariantViolation,
    NotAForest,
    StateSpaceMismatch,
    ValidationError,
)
from .model import (
    AdditiveUtility,
    PersuasionInstance,
    Posterior,
    Prior,
    StateSpace,
    check_epsilon,
    dot,
    format_label,
)


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
        d = self.denominator
        out: list[Posterior] = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(tuple(prefix + [Fraction(remaining, d)]))
                return
            for l in range(remaining + 1):
                rec(prefix + [Fraction(l, d)], remaining - l, slots - 1)

        rec([], d, self.dim)
        return tuple(sorted(out))

    def contains(self, point: Posterior) -> bool:
        return (
            len(point) == self.dim
            and all(x >= 0 and (x * self.denominator).denominator == 1 for x in point)
            and sum(point) == 1
        )


@dataclass(frozen=True)
class GridLP:
    """The assembled program plus its variable bookkeeping.  Variables
    are numbered by point position, which is how a solution is read
    back: x(i, points[a]) is x_base[i] + a, and on the e-th edge
    y(points[a], points[c]) is y_base[e] + a * n + c for n points.
    graph is the instance's domination forest, whose sorted covering
    edges are edges.  rungs are the (program, columns) pairs lp.solve
    climbs first: the program over a rung's points (_rungs), and the
    full program's column of each of its variables; empty past two
    states."""

    program: lp.LinearProgram
    grid: PosteriorGrid
    points: tuple[Posterior, ...]
    edges: tuple[tuple[int, int], ...]
    x_base: tuple[int, ...]
    y_base: tuple[int, ...]
    graph: DominationGraph
    rungs: tuple[tuple[lp.LinearProgram, tuple[int, ...]], ...]

    def var_names(self) -> list[str]:
        """lp.dump's names, formatted when asked: x{i}@(w) per receiver
        and point, then y{i1}>{i2}@(w|w') per covering edge and point pair."""
        text = [",".join(map(str, w)) for w in self.points]
        names = [f"x{i + 1}@({t})" for i in range(len(self.x_base)) for t in text]
        for i1, i2 in self.edges:
            names.extend(f"y{i1 + 1}>{i2 + 1}@({tl}|{tr})" for tl in text for tr in text)
        return names


def _forest_edges(instance: PersuasionInstance) -> tuple[DominationGraph, tuple]:
    graph = domination_graph(instance.structure)
    if not graph.is_forest:
        raise NotAForest(
            "dominance covering graph has a receiver with two incomparable dominators"
        )
    return graph, tuple(sorted(graph.edges))


def build_grid_lp(instance: PersuasionInstance, grid: PosteriorGrid) -> GridLP:
    """Assemble the exact grid program for a forest instance and, on two
    states, its ladder's programs: _grid_program over each rung's points.

    Families, in row order: Bayes-plausibility per receiver per state;
    per covering edge the spread-side row sums, coarse-side column
    sums, and per-coarse-point barycenter equalities (one per state but
    the last, which is implied); one normalization row per receiver.
    Nonnegativity is carried by the solver's variable bounds.
    """
    if not isinstance(instance.utilities, AdditiveUtility):
        raise ValidationError("grid program needs additive per-receiver utilities")
    if grid.dim != instance.space.size:
        raise ValidationError("grid dimension differs from the state space")
    graph, edges = _forest_edges(instance)
    pts = grid.points()
    k = instance.k
    n = len(pts)
    x_base = tuple(i * n for i in range(k))
    y_base = tuple(k * n + e * n * n for e in range(len(edges)))
    # each receiver's utility at each point, aligned with pts
    values = [[u.value_at(w, instance.space) for w in pts] for u in instance.utilities.receivers]
    D = grid.denominator

    def program(points):
        """The program over pts[a] for a in points."""
        sub = [[u[a] for a in points] for u in values]
        return _grid_program(instance.prior, edges, D, [pts[a] for a in points], sub)

    ladder = _rungs(instance.prior.values[0] * D, values) if grid.dim == 2 else []
    rungs = []
    for points in ladder:
        xs = [base + a for base in x_base for a in points]
        ys = [base + a * n + c for base in y_base for a in points for c in points]
        rungs.append((program(points), tuple(xs + ys)))
    return GridLP(
        program=program(range(n)),
        grid=grid,
        points=pts,
        edges=edges,
        x_base=x_base,
        y_base=y_base,
        graph=graph,
        rungs=tuple(rungs),
    )


def _grid_program(prior, edges, D, pts, values) -> lp.LinearProgram:
    """The grid program over the points pts, sorted and on the 1/D
    lattice, values[i][a] receiver i's utility at pts[a]; variables
    numbered as GridLP numbers them over pts.  A row left without a
    coefficient and with a zero right-hand side, such as a barycenter
    row at a lone point, is left out."""
    k, n = len(values), len(pts)
    x_base = [i * n for i in range(k)]
    flat = [v for u in values for v in u]  # x(i, pts[a]) is variable i * n + a
    obj_den = lcm(*(v.denominator for v in flat))
    objective = {j: v.numerator * (obj_den // v.denominator) for j, v in enumerate(flat) if v}
    # integer rows (coeffs, rel, rhs, den); a point's coordinates are its lattice ones over D
    lattice = [[x.numerator * (D // x.denominator) for x in w] for w in pts]
    constraints = []
    for base in x_base:
        for b, q in enumerate(prior.values):
            row = {base + a: c[b] * q.denominator for a, c in enumerate(lattice) if c[b]}
            constraints.append((row, lp.EQ, q.numerator * D, q.denominator * D))
    for e, (i1, i2) in enumerate(edges):
        rows = beliefs.coupling_rows(pts, pts, k * n + e * n * n)
        for a in range(n):
            rows[a][0][x_base[i1] + a] = -1  # row sum = x_{i1}(pts[a])
            rows[n + a][0][x_base[i2] + a] = -1  # column sum = x_{i2}(pts[a])
        constraints += [(row, lp.EQ, 0, den) for row, den in rows if row]
    for base in x_base:
        constraints.append((dict.fromkeys(range(base, base + n), 1), lp.EQ, 1, 1))
    n_vars = k * n + len(edges) * n * n
    return lp.LinearProgram.integral(n_vars, (objective, obj_den), constraints)


def _rungs(prior, values) -> list[list[int]]:
    """The points of the ladder of a two-state grid program, whose point
    a is (a/D, 1 - a/D): rung 1 holds the point at prior (the first
    state's prior times D) or, off the grid, the two points next to it;
    rung 2 adds 0, D and every point where some receiver's utility
    (values[i][a]) bends down, u(a-1) - 2u(a) + u(a+1) < 0.  Between two
    neighbouring points of rung 2 every utility is convex, so pushing
    each mass onto them keeps the mean and the convex order and lowers
    no utility: the program on rung 2 already holds an optimum of the
    full one.  A rung with every point is left out."""
    n = len(values[0])
    first = {floor(prior), ceil(prior)}
    bends = {
        a
        for u in values
        for a in range(1, n - 1)
        if u[a - 1] - 2 * u[a] + u[a + 1] < 0
    }
    ladder = [sorted(first), sorted(first | bends | {0, n - 1})]
    return [points for points in ladder if len(points) < n]


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
        InvariantViolation on the first failure."""
        self._validate(instance, _forest_edges(instance)[1])

    def _validate(self, instance: PersuasionInstance, edges) -> None:
        """validate, given the instance's sorted covering edges."""
        if len(self.marginals) != instance.k:
            raise InvariantViolation("marginal count differs from receiver count")
        for i, dist in enumerate(self.marginals):
            if not is_bayes_plausible(dist, instance.prior):
                raise InvariantViolation(f"marginal of receiver {i + 1} is not Bayes-plausible")
        for i1, i2 in sorted(set(edges).symmetric_difference(self.couplings)):
            if (i1, i2) in edges:
                raise InvariantViolation(f"no coupling for covering edge ({i1 + 1},{i2 + 1})")
            raise InvariantViolation(f"coupling ({i1 + 1},{i2 + 1}) is not on a covering edge")
        for (i1, i2), coupling in self.couplings.items():
            for side, dist, i in (("spread", coupling.source, i1), ("coarse", coupling.target, i2)):
                if dist != self.marginals[i]:
                    side = f"coupling ({i1 + 1},{i2 + 1}) {side} side"
                    raise InvariantViolation(f"{side} is not receiver {i + 1}'s marginal")
        if isinstance(instance.utilities, AdditiveUtility):
            total = Fraction(0)
            for dist, u in zip(self.marginals, instance.utilities.receivers):
                total += sum(
                    (m * u.value_at(p, instance.space) for p, m in zip(dist.points, dist.masses)),
                    Fraction(0),
                )
            if total != self.objective:
                raise InvariantViolation(
                    f"stored objective {self.objective} != recomputed {total}"
                )


def _read_solution(glp: GridLP, assignment, objective) -> GridSolution:
    pts = glp.points
    marginals = []
    for base in glp.x_base:
        pairs = [(w, assignment[base + a]) for a, w in enumerate(pts) if assignment[base + a]]
        marginals.append(BeliefDistribution.from_pairs(pairs))
    couplings = {}
    for (i1, i2), base in zip(glp.edges, glp.y_base):
        flow = beliefs.coupling_flows(pts, pts, assignment, base)
        couplings[(i1, i2)] = Coupling(source=marginals[i1], target=marginals[i2], flow=flow)
    return GridSolution(
        step=glp.grid.step,
        marginals=tuple(marginals),
        couplings=couplings,
        objective=objective,
    )


def solve_grid(instance: PersuasionInstance, grid: PosteriorGrid) -> GridSolution:
    """Assemble and solve at a fixed grid; the LP is always feasible and
    bounded, so anything but an optimal status is a solver defect."""
    return _solve_grid(instance, grid)[0]


def _solve_grid(
    instance: PersuasionInstance, grid: PosteriorGrid
) -> tuple[GridSolution, DominationGraph]:
    """solve_grid, with the domination forest the program was built on."""
    glp = build_grid_lp(instance, grid)
    sol = lp.solve(glp.program, rungs=glp.rungs)
    if sol.status != lp.OPTIMAL:
        raise InvariantViolation(f"grid program reported {sol.status}")
    solution = _read_solution(glp, sol.assignment, sol.objective)
    solution._validate(instance, glp.edges)
    return solution, glp.graph


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
    solution, graph = _solve_grid(instance, grid)  # validates the solution
    return solution, _extract_validated(solution, instance, graph)


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


def _probability(v) -> Fraction:
    """v, exactly: a Fraction, or an int that is not a bool."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise ValidationError(f"probability {v!r} is neither an int nor a Fraction")


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
            scale = lcm(*(v.denominator for v in vec))
            scaled = [v.numerator * (scale // v.denominator) for v in vec]
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
        checked again with equal labels grouped by value."""
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
        is renamed to the posterior it induces, equal-label profiles are
        merged.  Works in integers over the joint law's common
        denominator; equal posteriors are one label object."""
        space, size = prior.space, prior.space.size
        if set(per_state) != set(space.states):
            raise ValidationError("signal table does not cover the state space")
        per_state = {s: dict(zip(d, map(_probability, d.values()))) for s, d in per_state.items()}
        lengths = {len(prof) for dist in per_state.values() for prof in dist}
        if len(lengths) > 1:
            raise ValidationError("signal profiles of unequal receiver count")
        if not lengths:
            raise ValidationError("signal table is empty")
        # (state index, raw profile, joint mass as numerator and denominator)
        joint = [
            (b, prof, q.numerator * p.numerator, q.denominator * p.denominator)
            for b, (q, state) in enumerate(zip(prior.values, space.states))
            for prof, p in per_state[state].items()
            if p
        ]
        scale = lcm(*(d for _, _, _, d in joint))
        joint = [(b, prof, n * (scale // d)) for b, prof, n, d in joint]
        # each receiver's signals, numbered by the primitive integer
        # direction, of positive sum, of the posterior they induce
        number: dict[tuple[int, ...], int] = {}
        codes = []
        for i in range(lengths.pop()):
            acc: dict = {}
            for b, prof, m in joint:
                acc.setdefault(prof[i], [0] * size)[b] += m
            code = {}
            for sig, vec in acc.items():
                g = gcd(*vec) if sum(vec) > 0 else -gcd(*vec)
                code[sig] = number.setdefault(tuple(v // g for v in vec), len(number))
            codes.append(code)
        labels = [tuple(Fraction(v, t) for v in key) for key, t in zip(number, map(sum, number))]
        merged: dict[tuple[int, ...], list[int]] = {}
        for b, prof, m in joint:
            merged.setdefault(tuple(map(getitem, codes, prof)), [0] * size)[b] += m
        # state b sends a joint mass m / scale with probability m / (scale * prior[b])
        given = [(q.denominator, scale * q.numerator) for q in prior.values]
        rows = [
            (tuple(labels[c] for c in key), [Fraction(m * d, n) for m, (d, n) in zip(vec, given)])
            for key, vec in merged.items()
        ]
        return _table(space, rows)


def _table(
    space: StateSpace, mass: Iterable[tuple[tuple[Posterior, ...], Sequence[Fraction]]]
) -> SignalingTable:
    """The table that sends profile p in the b-th state with probability
    vec[b], for each (p, vec) in mass; the profiles, distinct, are sorted."""
    items = sorted(mass, key=itemgetter(0))
    rows = dict(zip(space.states, zip(*(vec for _, vec in items))))
    return SignalingTable(space=space, profiles=tuple(p for p, _ in items), rows=rows)


def extract_table(
    solution: GridSolution, instance: PersuasionInstance
) -> SignalingTable:
    """Turn a grid solution into an explicit per-state table.

    Labels are drawn top-down in one walk: each root from its marginal,
    independently of the other roots, and each child from its parent's
    coupling column, so distinct trees are independent given the state.
    Conditioning on the state reweights a profile by
    prod_roots label_root(state)/prior(state), which is exactly Bayes'
    rule because only root labels carry direct state information.
    """
    graph, edges = _forest_edges(instance)
    solution._validate(instance, edges)
    return _extract_validated(solution, instance, graph)


def _extract_validated(
    solution: GridSolution, instance: PersuasionInstance, graph: DominationGraph
) -> SignalingTable:
    parent, roots, marginals = graph.parent, graph.roots(), solution.marginals
    prior = instance.prior.values
    # a label is an index into its receiver's marginal; a path holds the labels
    # drawn so far in walk order, after a label 0 that every root is drawn given
    at, paths = {None: 0}, [((0,), Fraction(1))]
    for v in graph.top_down():
        p, dist = parent[v], marginals[v]
        law = [list(enumerate(dist.masses))]
        if p is not None:
            # the law of v's label given its parent's, from their coupling
            source = marginals[p]
            row, col = ({w: a for a, w in enumerate(d.points)} for d in (source, dist))
            law = [[] for _ in source.points]
            for (l, r), f in solution.couplings[(p, v)].flow.items():
                a = row[l]
                law[a].append((col[r], f / source.masses[a]))
        n, at[v] = at[p], len(at)
        paths = [(labels + (c,), mass * m) for labels, mass in paths for c, m in law[labels[n]]]
    # distinct paths draw distinct profiles, so none need merging
    rows = []
    for labels, mass in paths:
        vec = [mass] * len(prior)
        for v in roots:
            vec = [x * w / q for x, w, q in zip(vec, marginals[v].points[labels[at[v]]], prior)]
        rows.append((tuple(marginals[i].points[labels[at[i]]] for i in range(instance.k)), vec))
    for state, total in zip(instance.space.states, map(sum, zip(*(vec for _, vec in rows)))):
        if total != 1:
            raise InvariantViolation(f"extracted row for state {state!r} sums to {total}")
    table = _table(instance.space, rows)
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
