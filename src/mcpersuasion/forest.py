"""Grid relaxation and signaling-table extraction for forest structures.

The pipeline: discretize the simplex at a unit-fraction step, assemble
the mass/coupling linear program over the covering edges of the
dominance forest, solve exactly, then unwind the solution into a
per-state table of posterior-label profiles.  Dominating receivers sit
on the spread side of every coupling; trees of the forest are kept
conditionally independent given the state.

On two states only the grid program over the breakpoints is built
(_breakpoints); it holds an optimum of the full one.  lp.solve answers
it from a proposal: a forest of paths in closed form, a nested
concavification along each path (_path_certificate), any other forest
from the prior split (_breakpoint_answer).  Its dual then certifies the
answer on the whole 1/D lattice in O((k + E) n) integer work, with no
coupling program (_lattice_dual, _lattice_failure).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import compress, count, repeat
from math import ceil, floor, lcm
from operator import add, ge, getitem, itemgetter, mul
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
        return (
            len(point) == self.dim
            and all(x >= 0 and (x * self.denominator).denominator == 1 for x in point)
            and sum(point) == 1
        )


@dataclass(frozen=True)
class GridLP:
    """The program lp.solve is handed for a grid, plus its variable
    bookkeeping.  Variables are numbered by point position, which is how
    a solution is read back: x(i, points[a]) is x_base[i] + a, and on the
    e-th edge y(points[a], points[c]) is y_base[e] + a * n + c for n
    points.  graph is the instance's domination forest, whose sorted
    covering edges are edges.  values[i][a] is receiver i's utility at
    grid.points()[a].  Past two states the program is over every grid
    point and propose is None.  On two states it is over the breakpoints
    alone, and propose is what lp.solve is handed to reach its optimum:
    the closed form for a forest of paths (_path_certificate), else the
    prior split as a start (_breakpoint_answer)."""

    program: lp.LinearProgram
    grid: PosteriorGrid
    points: tuple[Posterior, ...]
    edges: tuple[tuple[int, int], ...]
    x_base: tuple[int, ...]
    y_base: tuple[int, ...]
    graph: DominationGraph
    propose: Callable[[], tuple[list, list | None]] | None
    values: tuple[tuple[Fraction, ...], ...]

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
    """The GridLP of a forest instance on the grid, every receiver's
    utility tabulated at every grid point; on two states, the breakpoint
    program and its proposal, computed only when called.

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
    D, k = grid.denominator, instance.k
    lattice = grid.points()
    space, receivers = instance.space, instance.utilities.receivers
    values = tuple(tuple(u.value_at(w, space) for w in lattice) for u in receivers)
    at, propose = range(len(lattice)), None
    if grid.dim == 2:
        p = instance.prior.values[0]
        at = _breakpoints(p * D, values)
        if len({i1 for i1, _ in edges}) == len(edges):
            # no receiver spreads onto two: every tree is a path
            propose = partial(_path_certificate, p, edges, values, at)
        else:
            propose = partial(_breakpoint_answer, p * D, k, len(edges), at)
    pts = tuple(lattice[a] for a in at)
    n = len(pts)
    return GridLP(
        program=_grid_program(instance.prior, edges, D, pts, [[u[a] for a in at] for u in values]),
        grid=grid,
        points=pts,
        edges=edges,
        x_base=tuple(i * n for i in range(k)),
        y_base=tuple(k * n + e * n * n for e in range(len(edges))),
        graph=graph,
        propose=propose,
        values=values,
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


def _breakpoints(p, values) -> list[int]:
    """The breakpoints of a two-state grid as lattice positions: 0, D,
    p (prior times D) or the two next to it, and every a where some
    utility bends down, u(a-1) - 2u(a) + u(a+1) < 0, values[i][a] being
    receiver i's utility at a/D.  Every utility is convex between
    neighbouring breakpoints, so pushing each mass onto them keeps the
    mean and the convex order and lowers no utility: the grid program
    over them holds an optimum of the full one."""
    D = len(values[0]) - 1
    bends = {0, D, floor(p), ceil(p)}
    for u in values:
        V = lcm(*(v.denominator for v in u))
        u = [v.numerator * (V // v.denominator) for v in u]
        bends.update(a for a, l, c, r in zip(count(1), u, u[1:], u[2:]) if l + r < 2 * c)
    return sorted(bends)


def _breakpoint_answer(p, k, n_edges, points) -> tuple[list[Fraction], None]:
    """The start of the breakpoint program (k receivers, n_edges covering
    edges, over the lattice positions points; p is prior times D),
    proposed without a dual: the one feasible point of the grid program
    over the prior's neighbours alone, every marginal the prior split
    onto them, every coupling the identity.  lp.solve solves from there
    faster than afresh, and the start fixes which optimum, and so which
    table, is reached.

    Any optimal dual of the breakpoint program certifies its answer on
    the whole lattice (_lattice_dual; ROADMAP item 14).  Let alpha be an
    edge's row-sum duals interpolated between breakpoints and g =
    cav(-alpha).  Dual feasibility of the y(l, c) columns puts each
    column-sum dual at or above g, so lowering it to g, and raising the
    row-sum duals to -g, only lowers the x columns' reduced costs.
    Between breakpoints every utility is convex and every dual linear,
    so every x column stays priced out; each y column prices at a
    supporting line of the concave g; y'b is unchanged."""
    q = floor(p)
    first = {q: Fraction(1)} if p == q else _split(p, (q, q + 1), Fraction(1))
    m = len(points)
    start = [_ZERO] * (k * m + n_edges * m * m)
    for a, v in first.items():
        t = points.index(a)
        start[t : k * m : m] = [v] * k  # x(i, a) for every receiver i
        start[k * m + t * (m + 1) :: m * m] = [v] * n_edges  # y(a, a) on every edge
    return start, None


def _edge_dual(f, S, points) -> tuple[list[Fraction], tuple[list, int, list]]:
    """One covering edge's row-sum, column-sum and barycenter duals at the
    lattice positions points for the values
    f / S, f integers at each point 0..D: -f / S, cav f / S and D times
    cav f's slope to the right (to the left at D), per unit of the first
    coordinate.  A y(l, c) column then prices at cav f's supporting line
    at c, less f(l).  Also the majorant (_concave_majorant over 0..D of
    f), which the closed form splits masses by."""
    D = len(f) - 1
    cav, M, pieces = _concave_majorant(range(D + 1), f)
    slopes = [D * (cav[c + 1] - cav[c]) for c in (min(a, D - 1) for a in points)]
    duals = [Fraction(-f[a], S) for a in points] + [Fraction(cav[a], S * M) for a in points]
    return duals + [Fraction(v, S * M) for v in slopes], (cav, M, pieces)


def _concave_majorant(xs, values) -> tuple[list, int, list[tuple[int, int]]]:
    """The least concave majorant of the points (xs[t], values[t]), xs
    increasing integers (the majorant of the function linear between the
    points): (M times it, M, the piece of each t).  The majorant is
    listed at every integer from xs[0] to xs[-1], so its j-th entry is at
    xs[0] + j; the pieces are listed by position t in xs.  The two
    indexings agree only when xs is range(n), as for every caller that
    reads the pieces.  The pieces are the segments between neighbouring
    vertices of the upper hull, M the lcm of their lengths, so that
    integer values give an integer majorant; the piece of t is the one,
    (l, r) as positions in xs, with l <= t < r, and the last one for the
    last t."""
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
    majorant: list[int] = []
    pieces = [(hull[-2], hull[-1])] * len(xs)
    for l, r in zip(hull, hull[1:]):
        start, width = values[l] * M, xs[r] - xs[l]
        step = (values[r] - values[l]) * (M // width)
        majorant += range(start, values[r] * M, step) if step else [start] * width
        pieces[l:r] = [(l, r)] * (r - l)
    majorant.append(values[-1] * M)
    return majorant, M, pieces


def _path_certificate(prior, edges, values, points) -> tuple[list, list]:
    """The optimal point and dual of the two-state breakpoint program over
    the lattice positions points, in _grid_program's numbering, when no
    receiver spreads onto two (edges, sorted, make a forest of paths);
    prior is the first state's prior, values[i][a] receiver i's utility
    at a/D.  It is the full grid program's certificate restricted to the
    breakpoints: the programs share their columns there.

    Walking each path from its root, the most informed receiver, set
    f(root) = u(root) and f(child) = u(child) + cav f(parent), each cav
    the least concave majorant over 0..D; the optimum is the sum over
    paths of cav f(leaf) at the prior (Kamenica and Gentzkow's cav u,
    nested).  The dual: on each covering edge, _edge_dual of f(parent),
    so that the x columns of every receiver but a leaf price at 0.  A
    leaf's Bayes-plausibility duals are the supporting line of cav
    f(leaf) at the prior; every other dual is 0.  The point: a leaf puts
    its mass on the prior, or on the two hull vertices around it; up the
    path, each atom c stays where f(parent) is cav f(parent), and
    otherwise splits onto the ends of its piece of the hull, keeping its
    mean.  Every column with mass prices at 0, so c.x = y'b.  Every atom
    is a breakpoint, as a hull vertex inside 0..D is a point where f,
    and so a utility on the path, bends down.

    Values are integers over one denominator per receiver, which grows
    by each majorant's M (_concave_majorant) down the path."""
    k, n, m = len(values), len(values[0]), len(points)
    D = n - 1
    below, number = dict(edges), {edge: e for e, edge in enumerate(edges)}
    place = {a: t for t, a in enumerate(points)}
    V = lcm(*(v.denominator for u in values for v in u))
    x: list[Fraction] = [_ZERO] * (k * m + len(edges) * m * m)
    y: list[Fraction] = [_ZERO] * (3 * k + 3 * m * len(edges))
    for root in sorted(set(range(k)) - set(below.values())):
        path = [root]
        while path[-1] in below:
            path.append(below[path[-1]])
        # down the path: f(i) in integers over S, each parent's majorant
        S, f, parents = V, [v.numerator * (V // v.denominator) for v in values[root]], []
        for i, child in zip(path, path[1:]):
            at = 2 * k + 3 * m * number[i, child]
            y[at : at + 3 * m], (cav, M, pieces) = _edge_dual(f, S, points)
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
            base = k * m + number[path[t - 1], path[t]] * m * m
            spread: dict[int, Fraction] = {}
            for c, w in mass.items():
                x[path[t] * m + place[c]] = w
                for a, v in ({c: w} if f[c] * M == cav[c] else _split(c, pieces[c], w)).items():
                    x[base + place[a] * m + place[c]] = v
                    spread[a] = spread.get(a, _ZERO) + v
            mass = spread
        for a, w in mass.items():
            x[root * m + place[a]] = w
    return x, y


def _split(c, piece: tuple[int, int], m: Fraction) -> dict[int, Fraction]:
    """Mass m at c, strictly inside piece (l, r), spread onto l and r
    with its mean kept."""
    l, r = piece
    return {l: m * (r - c) / (r - l), r: m * (c - l) / (r - l)}


def _lattice_dual(glp: GridLP, dual) -> tuple[list[tuple[Fraction, Fraction]], list]:
    """The lattice certificate (lines, g) of a dual of glp's breakpoint
    program: per receiver i, lines[i] = (l_i(1, 0), l_i(0, 1)), its
    Bayes-plausibility duals each raised by its normalization dual; per
    covering edge, g[e] = (h, S), the integers h over S at each point
    0..D of cav(-alpha), alpha the edge's row-sum duals interpolated
    between breakpoints.  It stands for the full program's dual with
    row-sum duals -g, column-sum duals g and barycenter duals D times g's
    slope to the right (to the left at D)."""
    k, D = len(glp.x_base), glp.grid.denominator
    at = [w[0].numerator * (D // w[0].denominator) for w in glp.points]
    m = len(at)
    lines = [
        (dual[2 * i] + nu, dual[2 * i + 1] + nu) for i, nu in enumerate(dual[len(dual) - k :])
    ]
    g = []
    for start in range(2 * k, 2 * k + 3 * m * len(glp.edges), 3 * m):
        alpha = dual[start : start + m]
        S = lcm(*(v.denominator for v in alpha))
        h, M, _ = _concave_majorant(at, [-v.numerator * (S // v.denominator) for v in alpha])
        g.append((h, S * M))
    return lines, g


def _lattice_failure(values, edges, prior, lines, g, objective) -> str | None:
    """The first part of the lattice certificate (lines, g), as
    _lattice_dual gives them, that fails, in the order checked: an edge
    whose g is not concave at a point, a receiver priced above its line
    at a point, and the gap between the lines' value at the prior (the
    first state's) and objective; None when every check holds.
    values[i][a] is receiver i's utility at a/D.  The receiver i's price
    at a is u_i(a), less g_e(a) on each edge e that spreads from i, plus
    g_e(a) on the edge that spreads onto i; it is checked in integers
    over one denominator per receiver.

    Expanded (_lattice_dual), these are lp.check_optimal's checks on the
    full program: its y columns are priced out exactly when each g is
    concave, its x columns by the prices, and y'b is the lines' value.
    So with a validated, lattice-supported GridSolution of value
    objective, weak duality proves it optimal on the grid; on two
    states, Jensen's inequality stands in for the couplings."""
    D = len(values[0]) - 1
    for (i1, i2), (h, _) in zip(edges, g):
        bent = next((a for a, l, c, r in zip(count(1), h, h[1:], h[2:]) if l + r > 2 * c), None)
        if bent is not None:
            return f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {_lattice_label(bent, D)}"
    for i, (u, (top, bottom)) in enumerate(zip(values, lines)):
        terms = [(-1 if i1 == i else 1, g[e]) for e, (i1, i2) in enumerate(edges) if i in (i1, i2)]
        T = lcm(*(v.denominator for v in (*u, top, bottom)), *(S for _, (_, S) in terms))
        # D T times receiver i's price at each a, against T times its line, D l_i(a)
        price = [v.numerator * (T // v.denominator) * D for v in u]
        for sign, (h, S) in terms:
            price = list(map(add, price, map(mul, h, repeat(sign * (T // S) * D))))
        low = bottom.numerator * (T // bottom.denominator)
        rise = top.numerator * (T // top.denominator) - low
        above = next((a for a, v in enumerate(price) if v > low * D + rise * a), None)
        if above is not None:
            return f"receiver {i + 1} is priced above its line at {_lattice_label(above, D)}"
    value = sum((top * prior + bottom * (1 - prior) for top, bottom in lines), _ZERO)
    if value != objective:
        return f"the lines' value {value} at the prior differs from c.x = {objective}"
    return None


def _lattice_label(a: int, D: int) -> str:
    return format_label((Fraction(a, D), Fraction(D - a, D)))


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


    def _off_lattice(self, dist: BeliefDistribution) -> str | None:
        """The first support point of dist off the lattice of the step,
        named with the lattice; None when every point lies on it.  A
        coupling's flows lie on its sides' supports."""
        step = self.step
        for w in dist.points:
            if any((x / step).denominator != 1 for x in w):
                return f"the point {format_label(w)} off the {step} lattice"
        return None


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
    """solve_grid, with the domination forest the program was built on.
    On two states the program is the breakpoint program, and its dual
    certifies the solution on the whole lattice (_lattice_failure); a
    certificate that fails is named in an InvariantViolation."""
    glp = build_grid_lp(instance, grid)
    sol = lp.solve(glp.program, propose=glp.propose)
    if sol.status != lp.OPTIMAL:
        raise InvariantViolation(f"grid program reported {sol.status}")
    solution = _read_solution(glp, sol.assignment, sol.objective)
    solution._validate(instance, glp.edges)
    if grid.dim == 2:
        lines, g = _lattice_dual(glp, sol.dual)
        prior = instance.prior.values[0]
        failure = _lattice_failure(glp.values, glp.edges, prior, lines, g, solution.objective)
        if failure is not None:
            raise InvariantViolation(f"lattice certificate failed: {failure}")
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
