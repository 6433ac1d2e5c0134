"""The two-state 1/D lattice: the breakpoint program's points, its
proposals, and the certificate of its answer on the whole lattice.

Each utility names its kinks (ReceiverUtility.kinks) and is linear
between them, so it is looked up only beside them, and the breakpoints,
where some utility bends down, are found among those points
(_breakpoints).  The grid program over the breakpoints holds an optimum
of the full one.  lp.solve answers it from a proposal: a forest of
paths in closed form, a nested concavification along each path
(_path_certificate), any other forest from the prior split
(_breakpoint_answer).  Its dual then certifies the answer on the whole
lattice, with no coupling program (_lattice_dual, _lattice_failure), in
integer work over the points looked up: O(k b) for k receivers and b
breakpoints and kinks, whatever the step.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm
from typing import TYPE_CHECKING

from .model import Posterior, format_label

if TYPE_CHECKING:
    from .forest import GridLP

_ZERO = Fraction(0)


def _breakpoints(receivers, space, D, p) -> tuple[list[int], tuple[Posterior, ...], tuple]:
    """The breakpoints of a two-state grid as lattice positions and as
    points, and each receiver's utility at the positions looked up, a
    dict by position (a is the point (a/D, 1 - a/D)).  The breakpoints
    are 0, D, p (prior times D) or the two next to it, and every a where
    some utility bends down, u(a-1) - 2u(a) + u(a+1) < 0.  Every utility
    is convex between neighbouring breakpoints, so pushing each mass onto
    them keeps the mean and the convex order and lowers no utility: the
    grid program over them holds an optimum of the full one.

    A utility is linear on every stretch of the lattice that holds no
    kink (ReceiverUtility.kinks), so it is looked up at 0, D, each
    kink's lattice neighbours, ceil(bD) - 1 to floor(bD) + 1 for a kink
    b, and every breakpoint, in increasing order; one that names no
    kinks, a table among them, at every position.  It is then linear
    between neighbouring positions looked up, which the lattice
    certificate relies on (_lattice_failure), and it bends down at such
    a position exactly when its slope falls there: a point utility below
    its otherwise, or a threshold that drops at its cutoff, bends beside
    the kink, not on it."""
    ends = {0, D, floor(p), ceil(p)}
    found = set(ends)
    made: dict[int, Posterior] = {}

    def point(a: int) -> Posterior:
        w = made.get(a)
        if w is None:
            w = made[a] = (Fraction(a, D), Fraction(D - a, D))
        return w

    values = []
    for u in receivers:
        kinks = u.kinks(space)
        if kinks is None:
            at = range(D + 1)
        else:
            # ceil(bD) - 1 to floor(bD) + 1 for b = x / y, kept on the lattice
            near = ((b.numerator * D, b.denominator) for b in kinks)
            runs = (range(max(-(-x // y) - 1, 0), min(x // y + 2, D + 1)) for x, y in near)
            at = sorted(ends.union(*runs))
        v = {a: u.value_at(point(a), space) for a in at}
        V = lcm(*(x.denominator for x in v.values()))
        w = [v[a].numerator * (V // v[a].denominator) for a in at]
        found.update(at[t] for t in range(1, len(at) - 1) if _bend(at, w, t - 1, t, t + 1) > 0)
        values.append(v)
    for u, v in zip(receivers, values):
        for a in found.difference(v):
            v[a] = u.value_at(point(a), space)
    at = sorted(found)
    return at, tuple(map(point, at)), tuple(values)


def _bend(xs, vs, l, a, r) -> int:
    """The bend at index a, between indices l < a < r, of the function
    through the points (xs[t], vs[t]): positive where its slope falls at
    a (it bends down), negative where it rises, 0 where it is straight."""
    return (vs[a] - vs[l]) * (xs[r] - xs[a]) - (vs[r] - vs[a]) * (xs[a] - xs[l])


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
    lattice positions points (0 and D among them) for the values f / S,
    f integers at each point, convex on the lattice between neighbouring
    points: -f / S, cav f / S and D times cav f's slope to the right (to
    the left at D), per unit of the first coordinate.  A y(l, c) column
    then prices at cav f's supporting line at c, less f(l).  Also the
    majorant (_concave_majorant of f over points), which the closed form
    splits masses by.  Its vertices are points, as f is convex between
    them, so it is the majorant over the whole lattice there, and linear
    between them."""
    cav, M, pieces = _concave_majorant(points, f)
    last = len(points) - 1
    right = [(t, t + 1) if t < last else (t - 1, t) for t in range(last + 1)]
    D = points[last]
    slopes = [D * (cav[r] - cav[l]) // (points[r] - points[l]) for l, r in right]
    duals = [Fraction(-v, S) for v in f] + [Fraction(c, S * M) for c in cav]
    return duals + [Fraction(v, S * M) for v in slopes], (cav, M, pieces)


def _concave_majorant(xs, values) -> tuple[list, int, list[tuple[int, int]]]:
    """The least concave majorant of the points (xs[t], values[t]), xs
    increasing integers (the majorant of the function linear between the
    points), at each xs[t]: (M times it, M, the piece of each t).  The
    pieces are the segments between neighbouring vertices of the upper
    hull, as pairs of xs, M the lcm of their lengths, so that integer
    values give a majorant that is an integer at every integer from
    xs[0] to xs[-1]; the piece of t is the one, (l, r), with l <= xs[t]
    < r, and the last one for the last t."""
    hull: list[int] = []
    for t in range(len(xs)):
        # drop the last vertex while it does not bend down on the way to t
        while len(hull) > 1 and _bend(xs, values, hull[-2], hull[-1], t) <= 0:
            hull.pop()
        hull.append(t)
    M = lcm(*(xs[r] - xs[l] for l, r in zip(hull, hull[1:])))
    majorant: list[int] = []
    pieces: list[tuple[int, int]] = []
    for l, r in zip(hull, hull[1:]):
        x, start = xs[l], values[l] * M
        step = (values[r] - values[l]) * (M // (xs[r] - x))
        majorant += [start + step * (xs[t] - x) for t in range(l, r)]
        pieces += [(x, xs[r])] * (r - l)
    majorant.append(values[-1] * M)
    pieces.append(pieces[-1])
    return majorant, M, pieces


def _path_certificate(prior, edges, values, points) -> tuple[list, list]:
    """The optimal point and dual of the two-state breakpoint program over
    the lattice positions points, in _grid_program's numbering, when no
    receiver spreads onto two (edges, sorted, make a forest of paths);
    prior is the first state's prior, values[i][t] receiver i's utility
    at points[t] / D.  It is the full grid program's certificate
    restricted to the breakpoints: the programs share their columns
    there.

    Walking each path from its root, the most informed receiver, set
    f(root) = u(root) and f(child) = u(child) + cav f(parent), each cav
    the least concave majorant, over the breakpoints, where it is the
    one over the whole lattice (_edge_dual); the optimum is the sum over
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
    k, m, D = len(values), len(points), points[-1]
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
        cav, M, pieces = _concave_majorant(points, f)
        p = prior * D
        q = floor(p)
        t, leaf = place[q], 2 * path[-1]
        step = (cav[t + 1] - cav[t]) // (points[t + 1] - q)
        line = (cav[t] + step * (D - q), cav[t] - step * q)
        y[leaf : leaf + 2] = (Fraction(v, S * M) for v in line)
        if p == q and f[t] * M == cav[t]:
            mass = {q: Fraction(1)}
        else:
            mass = _split(p, pieces[t], Fraction(1))
        # up the path: each receiver's marginal, and its parent's by the split
        for t in range(len(path) - 1, 0, -1):
            f, cav, M, pieces = parents[t - 1]
            base = k * m + number[path[t - 1], path[t]] * m * m
            spread: dict[int, Fraction] = {}
            for c, w in mass.items():
                s = place[c]
                x[path[t] * m + s] = w
                for a, v in ({c: w} if f[s] * M == cav[s] else _split(c, pieces[s], w)).items():
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
    covering edge, g[e] = (h, S), the integers h over S at each
    breakpoint of cav(-alpha), alpha the edge's row-sum duals.  g is
    linear between breakpoints.  It stands for the full program's dual
    with row-sum duals -g, column-sum duals g and barycenter duals D
    times g's slope to the right (to the left at D), at every lattice
    point."""
    k, at = len(glp.values), _positions(glp)
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


def _positions(glp: GridLP) -> list[int]:
    """The lattice positions of a two-state GridLP's points."""
    D = glp.grid.denominator
    return [w[0].numerator * (D // w[0].denominator) for w in glp.points]


def _lattice_failure(glp: GridLP, prior, lines, g, objective) -> str | None:
    """The first part of the lattice certificate (lines, g) of glp's
    breakpoint program, as _lattice_dual gives them, that fails, in the
    order checked: an edge whose g is not concave at a lattice point, a
    receiver priced above its line at a lattice point, and the gap
    between the lines' value at the prior (the first state's) and
    objective; None when every check holds.  Each names the first
    lattice point where it fails.  The receiver i's price at a is
    u_i(a), less g_e(a) on each edge e that spreads from i, plus g_e(a)
    on the edge that spreads onto i.

    g is linear between breakpoints, so it is concave exactly when its
    slope falls at each breakpoint.  Between neighbouring positions where
    u_i was looked up (glp.values[i], every breakpoint among them), u_i
    is linear (_breakpoints), so the price less the line is linear too:
    it is checked at those positions, and between two of them, where it
    turns positive, the first lattice point above the line is found in
    closed form.  Each run between neighbouring breakpoints is worked in
    integers over one denominator per receiver, scaled by the run's
    width.

    Expanded (_lattice_dual), these are lp.check_optimal's checks on the
    full program: its y columns are priced out exactly when each g is
    concave, its x columns by the prices, and y'b is the lines' value.
    So with a validated, lattice-supported GridSolution of value
    objective, weak duality proves it optimal on the grid; on two
    states, Jensen's inequality stands in for the couplings."""
    at, edges = _positions(glp), glp.edges
    D = at[-1]
    runs = list(zip(at, at[1:]))
    for (i1, i2), (h, _) in zip(edges, g):
        bent = next((t for t in range(1, len(at) - 1) if _bend(at, h, t - 1, t, t + 1) < 0), None)
        if bent is not None:
            return f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {_lattice_label(at[bent], D)}"
    for i, (u, (top, bottom)) in enumerate(zip(glp.values, lines)):
        terms = [(-1 if i1 == i else 1, g[e]) for e, (i1, i2) in enumerate(edges) if i in (i1, i2)]
        T = lcm(*(v.denominator for v in (*u.values(), top, bottom)), *(S for _, (_, S) in terms))
        low = bottom.numerator * (T // bottom.denominator)
        rise = top.numerator * (T // top.denominator) - low
        # D T times the price less the line: the g terms at each breakpoint,
        # the rest at each position looked up
        G = [0] * len(at)
        for sign, (h, S) in terms:
            c = sign * (T // S) * D
            G = [x + c * y for x, y in zip(G, h)]
        looked = sorted(u)
        rest = [
            u[a].numerator * (T // u[a].denominator) * D - low * D - rise * a for a in looked
        ]
        j = 0
        for t, (l, r) in enumerate(runs):
            # in the run from l to r, times its width r - l; looked[j] is l
            w, gl, gr = r - l, G[t], G[t + 1]
            b, gap = l, w * (rest[j] + gl)
            above = 0 if t == 0 and gap > 0 else None
            while above is None and b < r:
                j += 1
                c = looked[j]
                next_gap = w * rest[j] + gl * (r - c) + gr * (c - l)
                if next_gap > 0:
                    # linear from b to c: the first lattice point where it is positive
                    above = b + -gap * (c - b) // (next_gap - gap) + 1
                b, gap = c, next_gap
            if above is not None:
                return f"receiver {i + 1} is priced above its line at {_lattice_label(above, D)}"
    # the lines' value at the prior, in integers over one denominator
    n, d = prior.numerator, prior.denominator
    L = lcm(objective.denominator, *(v.denominator for line in lines for v in line))
    value = sum(
        t.numerator * (L // t.denominator) * n + b.numerator * (L // b.denominator) * (d - n)
        for t, b in lines
    )
    if value != objective.numerator * (L // objective.denominator) * d:
        value = Fraction(value, L * d)
        return f"the lines' value {value} at the prior differs from c.x = {objective}"
    return None


def _lattice_label(a: int, D: int) -> str:
    return format_label((Fraction(a, D), Fraction(D - a, D)))
