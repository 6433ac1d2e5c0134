"""Grid relaxation and signaling-table extraction for forest structures.

The pipeline: discretize the simplex at a unit-fraction step, assemble
the mass/coupling linear program over the covering edges of the
dominance forest, solve exactly, then unwind the solution into a
per-state table of posterior-label profiles.  Dominating receivers sit
on the spread side of every coupling; trees of the forest are kept
conditionally independent given the state.

On two states the solve needs no simplex pivots on the full program:
the grid program comes with a proposal (GridLP.propose).  A forest of
paths has its optimum in closed form, a nested concavification along
each path (_path_certificate); any other forest solves the smaller
grid program over its breakpoints through lp.solve and reads the
answer off it (_breakpoint_answer).  Both build each edge's duals the
same way (_edge_dual), and lp.solve returns the answer only once it has
checked it as an optimality certificate of the full program.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import compress
from math import floor, lcm
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
    edges are edges.  propose, given exactly on two states, is what
    lp.solve is handed to reach the optimum: it gives the program's
    optimal point and dual, in closed form when the forest is made of
    paths (_path_certificate), and otherwise read off the breakpoint
    program (_breakpoint_answer).  It is None past two states."""

    program: lp.LinearProgram
    grid: PosteriorGrid
    points: tuple[Posterior, ...]
    edges: tuple[tuple[int, int], ...]
    x_base: tuple[int, ...]
    y_base: tuple[int, ...]
    graph: DominationGraph
    propose: Callable[[], tuple[list, list]] | None

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
    states, the proposal lp.solve is to reach its optimum by: for a
    forest of paths the certificate in closed form (_path_certificate),
    and for any other forest the breakpoint program's answer
    (_breakpoint_answer), which builds nothing until it is called.

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
    # each receiver's utility at each point, aligned with pts
    values = [[u.value_at(w, instance.space) for w in pts] for u in instance.utilities.receivers]
    full = _grid_program(instance.prior, edges, grid.denominator, pts, values)
    propose = None
    if grid.dim == 2 and len({i1 for i1, _ in edges}) == len(edges):
        # no receiver spreads onto two: every tree is a path
        propose = partial(_path_certificate, instance.prior.values[0], edges, values)
    elif grid.dim == 2:
        propose = partial(_breakpoint_answer, instance.prior, edges, pts, values)
    return GridLP(
        program=full,
        grid=grid,
        points=pts,
        edges=edges,
        x_base=tuple(i * n for i in range(k)),
        y_base=tuple(k * n + e * n * n for e in range(len(edges))),
        graph=graph,
        propose=propose,
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


def _breakpoint_answer(prior, edges, pts, values) -> tuple[list, list]:
    """The optimal point and dual of the two-state grid program over the
    sorted points pts of the 1/D lattice (values[i][a] receiver i's
    utility at pts[a], whose first coordinate is a/D), in _grid_program's
    numbering, read off the breakpoint program: the grid program over 0,
    D, the prior's grid point p = prior * D, or the two next to it, and
    every point where some utility bends down, u(a-1) - 2u(a) + u(a+1) < 0.
    Between neighbouring breakpoints every utility is convex, so pushing
    each mass onto them keeps the mean and the convex order and lowers no
    utility: the breakpoint program holds an optimum of the full one.

    lp.solve starts it from the one feasible point of the grid program
    over the prior's neighbours alone, written down: every marginal the
    prior split onto them (_split), every coupling the identity.  It
    solves faster from there than afresh, and the start fixes which
    optimum, and so which table, is reached.  A grid program is feasible
    and bounded, so anything but an optimal status is a solver defect.

    x is the breakpoint program's point on the full program's columns.
    y keeps its Bayes-plausibility and normalization duals, and gives
    each edge _edge_dual's duals for -alpha, alpha its row-sum duals
    interpolated linearly between breakpoints.  At a breakpoint c, dual
    feasibility of the y(l, c) columns puts a line above -alpha, so the
    column-sum dual was at least cav(-alpha)(c): lowering it only lowers
    the reduced cost of the coarse x column at c.  Between breakpoints
    every utility is convex and every dual linear, so every x column
    stays priced out; each y column prices at a supporting line of
    cav(-alpha); and the edge rows' right-hand sides are 0, so y'b is
    unchanged."""
    k, n, n_edges = len(values), len(pts), len(edges)
    D = n - 1
    p = prior.values[0] * D
    q = floor(p)
    first = {q: Fraction(1)} if p == q else _split(p, (q, q + 1), Fraction(1))
    bends = {a for u in values for a in range(1, D) if u[a - 1] - 2 * u[a] + u[a + 1] < 0}
    points = sorted(first.keys() | bends | {0, D})
    m = len(points)
    program = _grid_program(
        prior, edges, D, [pts[a] for a in points], [[u[a] for a in points] for u in values]
    )
    start = [_ZERO] * program.n_vars
    for a, v in first.items():
        t = points.index(a)
        start[t : k * m : m] = [v] * k  # x(i, a) for every receiver i
        start[k * m + t * (m + 1) :: m * m] = [v] * n_edges  # y(a, a) on every edge
    sol = lp.solve(program, propose=lambda: (start, None))
    if sol.status != lp.OPTIMAL:
        raise InvariantViolation(f"breakpoint program reported {sol.status}")
    columns = [i * n + a for i in range(k) for a in points]
    columns += [
        k * n + e * n * n + a * n + c for e in range(n_edges) for a in points for c in points
    ]
    x = [_ZERO] * (k * n + n_edges * n * n)
    for j, v in zip(columns, sol.assignment):
        x[j] = v
    # -alpha between breakpoints r < s, in integers over lcm(alpha's
    # denominators) * L, L the lcm of the gaps s - r
    gaps = [s - r for r, s in zip(points, points[1:])]
    L, dual = lcm(*gaps), sol.dual
    y = list(dual[: 2 * k])
    for at in range(2 * k, 2 * k + 3 * m * n_edges, 3 * m):
        S = lcm(*(v.denominator for v in dual[at : at + m]))
        ends = [-v.numerator * (S // v.denominator) * L for v in dual[at : at + m]]
        f = [
            fr + (fs - fr) // gap * j
            for gap, fr, fs in zip(gaps, ends, ends[1:])
            for j in range(gap)
        ]
        y += _edge_dual(f + ends[-1:], S * L)[0]
    y += dual[len(dual) - k :]
    return x, y


def _edge_dual(f, S) -> tuple[list[Fraction], tuple[list, int, list]]:
    """One covering edge's row-sum, column-sum and barycenter duals at
    every point 0..D for the values f / S, f integers at each point:
    -f / S, cav f / S and D times cav f's slope to the right (to the left
    at D), per unit of the first coordinate.  A y(l, c) column then prices
    at cav f's supporting line at c, less f(l).  Also the majorant
    (_concave_majorant over 0..D of f), which the closed form splits
    masses by."""
    D = len(f) - 1
    cav, M, pieces = _concave_majorant(range(D + 1), f)
    slopes = [D * (r - l) for l, r in zip(cav, cav[1:])]
    rows = [Fraction(-v, S) for v in f]
    return rows + [Fraction(v, S * M) for v in cav + slopes + slopes[-1:]], (cav, M, pieces)


def _concave_majorant(xs, values) -> tuple[list, int, list[tuple[int, int]]]:
    """The least concave majorant of the points (xs[t], values[t]), xs
    increasing integers, at each xs[t]: (M times it at each t, M, the
    piece of each t).  The pieces are the segments between neighbouring
    vertices of the upper hull, M the lcm of their lengths, so that
    integer values give an integer majorant; the piece of t is the one,
    (l, r) as indices, with l <= t < r, and the last one for the last t."""
    hull: list[int] = []
    for t, (x, v) in enumerate(zip(xs, values)):
        # drop the last vertex while it lies on or below the chord to t
        while len(hull) > 1 and (
            (values[hull[-1]] - values[hull[-2]]) * (x - xs[hull[-2]])
            <= (v - values[hull[-2]]) * (xs[hull[-1]] - xs[hull[-2]])
        ):
            hull.pop()
        hull.append(t)
    M = lcm(*(xs[r] - xs[l] for l, r in zip(hull, hull[1:])))
    majorant, pieces = [v * M for v in values], [(hull[-2], hull[-1])] * len(xs)
    for l, r in zip(hull, hull[1:]):
        step = (values[r] - values[l]) * (M // (xs[r] - xs[l]))
        for t in range(l, r):
            majorant[t] = majorant[l] + step * (xs[t] - xs[l])
            pieces[t] = (l, r)
    return majorant, M, pieces


def _path_certificate(prior, edges, values) -> tuple[list, list]:
    """The optimal point and dual of the two-state grid program over
    0..D, in _grid_program's numbering, when no receiver spreads onto
    two (edges, sorted, make a forest of paths); prior is the first
    state's prior, values[i][a] receiver i's utility at point a, whose
    first coordinate is a/D.

    Walking each path from its root, the most informed receiver, set
    f(root) = u(root) and f(child) = u(child) + cav f(parent), each cav
    the least concave majorant over the lattice; the optimum is the sum
    over paths of cav f(leaf) at the prior (Kamenica and Gentzkow's
    cav u, nested).  The dual: on each covering edge, _edge_dual of
    f(parent), so that the x columns of every receiver but a leaf price
    at 0.
    A leaf's Bayes-plausibility duals are the supporting line of
    cav f(leaf) at the prior; every other one, and every normalization
    dual, is 0.  The point: a leaf puts its mass on the prior, or on the
    two hull vertices around it; up the path, each atom c stays where
    f(parent) is cav f(parent), and otherwise splits onto the ends of
    its piece of the hull, keeping its mean.  Every column with mass
    prices at 0, so c.x = y'b.

    Values are integers over one denominator per receiver, which grows
    by each majorant's M (_concave_majorant) down the path."""
    k, n = len(values), len(values[0])
    D = n - 1
    below, number = dict(edges), {edge: e for e, edge in enumerate(edges)}
    V = lcm(*(v.denominator for u in values for v in u))
    x: list[Fraction] = [_ZERO] * (k * n + len(edges) * n * n)
    y: list[Fraction] = [_ZERO] * (3 * k + 3 * n * len(edges))
    for root in sorted(set(range(k)) - set(below.values())):
        path = [root]
        while path[-1] in below:
            path.append(below[path[-1]])
        # down the path: f(i) in integers over S, each parent's majorant
        S, f, parents = V, [v.numerator * (V // v.denominator) for v in values[root]], []
        for i, child in zip(path, path[1:]):
            at = 2 * k + 3 * n * number[i, child]
            y[at : at + 3 * n], (cav, M, pieces) = _edge_dual(f, S)
            parents.append((f, cav, M, pieces))
            S *= M
            f = [v.numerator * (S // v.denominator) + c for v, c in zip(values[child], cav)]
        # the leaf's Bayes-plausibility duals: cav f's line over the piece
        # that holds the prior, at (1, 0) and at (0, 1)
        cav, M, pieces = _concave_majorant(range(n), f)
        p = prior * D
        q = floor(p)
        step, leaf = cav[q + 1] - cav[q], 2 * path[-1]
        line = (cav[q] + step * (D - q), cav[q] - step * q)
        y[leaf : leaf + 2] = (Fraction(v, S * M) for v in line)
        if p == q and f[q] * M == cav[q]:
            mass = {q: Fraction(1)}
        else:
            mass = _split(p, pieces[q], Fraction(1))
        # up the path: each receiver's marginal, and its parent's by the split
        for t in range(len(path) - 1, 0, -1):
            f, cav, M, pieces = parents[t - 1]
            base = k * n + number[path[t - 1], path[t]] * n * n
            spread: dict[int, Fraction] = {}
            for c, m in mass.items():
                x[path[t] * n + c] = m
                for a, v in ({c: m} if f[c] * M == cav[c] else _split(c, pieces[c], m)).items():
                    x[base + a * n + c] = v
                    spread[a] = spread.get(a, _ZERO) + v
            mass = spread
        for a, m in mass.items():
            x[root * n + a] = m
    return x, y


def _split(c, piece: tuple[int, int], m: Fraction) -> dict[int, Fraction]:
    """Mass m at c, strictly inside piece (l, r), spread onto l and r
    with its mean kept."""
    l, r = piece
    return {l: m * (r - c) / (r - l), r: m * (c - l) / (r - l)}


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
    """The marginals and couplings of an assignment to glp's variables:
    its nonzero entries, found in one pass and binned by block in
    variable order, so that each coupling's flow is coupling_flows' on
    its edge."""
    pts = glp.points
    n = len(pts)
    pairs = [[] for _ in glp.x_base]
    flows = [{} for _ in glp.y_base]
    for j in compress(range(len(assignment)), assignment):
        e = bisect_right(glp.y_base, j) - 1
        if e >= 0 and j - glp.y_base[e] < n * n:
            a, c = divmod(j - glp.y_base[e], n)
            flows[e][(pts[a], pts[c])] = assignment[j]
        else:
            i = bisect_right(glp.x_base, j) - 1
            pairs[i].append((pts[j - glp.x_base[i]], assignment[j]))
    marginals = tuple(map(BeliefDistribution.from_pairs, pairs))
    couplings = {
        (i1, i2): Coupling(source=marginals[i1], target=marginals[i2], flow=flow)
        for (i1, i2), flow in zip(glp.edges, flows)
    }
    return GridSolution(
        step=glp.grid.step,
        marginals=marginals,
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
    sol = lp.solve(glp.program, propose=glp.propose)
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
        is renamed to the posterior it induces, by Bayes' rule, and
        equal-label profiles are merged.  Equal posteriors, of one receiver
        or of several, are one label object."""
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
            posteriors = (tuple(v / sum(vec) for v in vec) for vec in acc.values())
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
