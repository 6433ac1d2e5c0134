"""The two-state 1/D lattice: the potential program's points and
proposals, its couplings, and the certificate of its answer on the
whole lattice.

Each utility names its kinks (ReceiverUtility.kinks) and is linear
between them, so it is looked up only beside them, and the breakpoints,
where some utility bends down, are found among those points
(_breakpoints).  The potential program over them (forest.GridLP) holds
an optimum of the full grid program and is built with its proposal to
lp.solve: a forest of paths in closed form, a nested concavification
along each path (_path_certificate), any other forest the prior split
(_prior_split).  Each edge's coupling is built afterwards from its two
marginals (_curtain), and the dual certifies the answer on the whole
lattice (_lattice_dual, _lattice_failure) in integer work over the points
looked up: O(k b) for k receivers and b breakpoints and kinks, whatever
the step.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain
from math import ceil, floor, lcm
from typing import TYPE_CHECKING

from .beliefs import BeliefDistribution, Coupling
from .model import Posterior, _integers, format_label

if TYPE_CHECKING:
    from .forest import GridLP

_ZERO = Fraction(0)


def _breakpoints(receivers, space, D, p) -> tuple[list[int], tuple[Posterior, ...], tuple]:
    """The breakpoints of a two-state grid as lattice positions and as
    points, and per receiver (V, w), w mapping each position looked up, in
    order, a for (a/D, 1 - a/D), to V times the utility there.  The breakpoints
    are 0, D, p (prior times D) or the two next to it, and every a where
    some utility bends down, u(a-1) - 2u(a) + u(a+1) < 0.  Every utility
    is convex between neighbouring breakpoints, so pushing each mass onto
    them keeps the mean and the convex order and lowers no utility: the
    grid program over them holds an optimum of the full one.

    A utility is linear on every stretch of the lattice that holds no
    kink (ReceiverUtility.kinks), and is looked up once.  One that names
    no kinks, a table among them, goes first, at every position, so a
    table off the step is refused at its first missing point; every
    other is then looked up at one shared set: 0, D, the prior's
    neighbours, ceil(bD) - 1 to floor(bD) + 1 for every receiver's kink
    b, and the bends found so far, which holds every later bend.  So
    each is looked up at every breakpoint and is linear between
    neighbouring positions looked up, which the lattice certificate
    relies on (_lattice_failure), and it bends down at such a position
    exactly when its slope falls there: a point utility below its
    otherwise, or a threshold that drops at its cutoff, bends beside the
    kink, not on it."""
    near = {0, D, floor(p), ceil(p)}
    found = set(near)
    made: dict[int, Posterior] = {}

    def point(a: int) -> Posterior:
        w = made.get(a)
        if w is None:
            w = made[a] = (Fraction(a, D), Fraction(D - a, D))
        return w

    kinks = [u.kinks(space) for u in receivers]
    for x, y in ((b.numerator * D, b.denominator) for b in chain(*filter(None, kinks))):
        # ceil(bD) - 1 to floor(bD) + 1 for b = x / y, kept on the lattice
        near.update(range(max(-(-x // y) - 1, 0), min(x // y + 2, D + 1)))
    values: list = [None] * len(receivers)
    for plain in (True, False):
        at = range(D + 1) if plain else sorted(near.union(found))
        for i in [i for i, b in enumerate(kinks) if (b is None) is plain]:
            V, vs = _integers([receivers[i].value_at(point(a), space) for a in at])
            found.update(at[t] for t in range(1, len(at) - 1) if _bend(at, vs, t - 1, t, t + 1) > 0)
            values[i] = (V, dict(zip(at, vs)))
    at = sorted(found)
    return at, tuple(map(point, at)), tuple(values)


def _bend(xs, vs, l, a, r) -> int:
    """The bend at index a, between indices l < a < r, of the function
    through the points (xs[t], vs[t]): positive where its slope falls at
    a (it bends down), negative where it rises, 0 where it is straight."""
    return (vs[a] - vs[l]) * (xs[r] - xs[a]) - (vs[r] - vs[a]) * (xs[a] - xs[l])


def _prior_split(p, k, points) -> tuple[list[Fraction], None]:
    """The start of the potential program (k receivers, over the lattice
    positions points; p is prior times D), proposed without a dual: every
    marginal the prior split onto its grid point or the two next to it.
    The start fixes which optimum, and so which table, is reached."""
    q = floor(p)
    first = {q: Fraction(1)} if p == q else _split(p, (q, q + 1), Fraction(1))
    m, start = len(points), [_ZERO] * (k * len(points))
    for a, v in first.items():
        start[points.index(a) :: m] = [v] * k  # x(i, a) for every receiver i
    return start, None


def _concave_majorant(xs, values) -> tuple[list, int, list[tuple[int, int]]]:
    """The least concave majorant of the points (xs[t], values[t]), xs
    increasing integers, at each xs[t]: (M times it, M, the piece of each
    t).  The pieces are the segments between neighbouring vertices of the
    upper hull, as pairs of xs, M the lcm of their lengths, so that
    integer values give a majorant that is an integer at every integer
    from xs[0] to xs[-1]; the piece of t is the one, (l, r), with
    l <= xs[t] < r, and the last one for the last t."""
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
    """The optimal point and dual of the potential program over the
    lattice positions points (forest.GridLP) when no receiver spreads
    onto two (edges, sorted, make a forest of paths); prior is the first
    state's prior, values[i] = (V, w), w[t] V times receiver i's utility
    at points[t] / D.

    Down each path from its root, f(root) = u(root) and f(child) =
    u(child) + cav f(parent), each cav the least concave majorant over
    the breakpoints, which is the one over the lattice; the optimum is
    the sum over paths of cav f(leaf) at the prior (Kamenica and
    Gentzkow's cav u, nested).  The dual, 2k + E (m - 2) long for E
    edges and m points, holds each receiver's line as its two
    Bayes-plausibility duals, then each edge's row duals.  On each edge,
    g = cav f(parent) is sum_t y_t |a - t|, y_t half its slope drop at
    t, plus a linear part, added to the parent's line and taken off the
    child's; a leaf's line holds cav f(leaf)'s supporting line at the
    prior.  The point: a
    leaf's mass sits on the prior or the hull vertices around it; up the
    path, an atom stays where f(parent) is cav f(parent), else splits
    onto the ends of its hull piece, which are breakpoints.  Values are
    integers over one denominator per receiver, which grows by each
    majorant's M down the path."""
    k, m, D = len(values), len(points), points[-1]
    below, number = dict(edges), {edge: e for e, edge in enumerate(edges)}
    place = {a: t for t, a in enumerate(points)}
    V = lcm(*(V for V, _ in values))
    x, y = [_ZERO] * (k * m), [_ZERO] * (2 * k + len(edges) * (m - 2))
    # per receiver its Bayes-plausibility duals' terms, each (top, bottom, den)
    lines: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]

    for root in sorted(set(range(k)) - set(below.values())):
        path = [root]
        while path[-1] in below:
            path.append(below[path[-1]])
        # down the path: f(i) in integers over S, each parent's majorant
        W, f = values[root]
        S, f, parents = V, [v * (V // W) for v in f], []
        for i, child in zip(path, path[1:]):
            cav, M, pieces = _concave_majorant(points, f)
            parents.append((f, cav, M, pieces))
            S *= M
            # g = cav / S: 2 S y_t is its slope drop at t, an integer
            slopes = [(r - l) // (b - a) for a, b, l, r in zip(points, points[1:], cav, cav[1:])]
            drops = [r - l for l, r in zip(slopes, slopes[1:])]
            at = 2 * k + number[i, child] * (m - 2)
            y[at : at + m - 2] = (Fraction(d, 2 * S) for d in drops)
            # 2 S times the linear part at (1, 0) and at (0, 1)
            top = 2 * cav[-1] - sum(d * (D - t) for d, t in zip(drops, points[1:]))
            bottom = 2 * cav[0] - sum(d * t for d, t in zip(drops, points[1:]))
            lines[i].append((top, bottom, 2 * S))
            lines[child].append((-top, -bottom, 2 * S))
            W, f = values[child]
            f = [v * (S // W) + c for v, c in zip(f, cav)]
        # the leaf's line: cav f's over the piece that holds the prior
        cav, M, pieces = _concave_majorant(points, f)
        q = floor(p := prior * D)
        t = place[q]
        step = (cav[t + 1] - cav[t]) // (points[t + 1] - q)
        lines[path[-1]].append((cav[t] + step * (D - q), cav[t] - step * q, S * M))
        one = Fraction(1)
        mass = {q: one} if p == q and f[t] * M == cav[t] else _split(p, pieces[t], one)
        # up the path: each receiver's marginal, and its parent's by the split
        for t in range(len(path) - 1, 0, -1):
            f, cav, M, pieces = parents[t - 1]
            spread: dict[int, Fraction] = {}
            for c, w in mass.items():
                s = place[c]
                x[path[t] * m + s] = w
                for a, v in ({c: w} if f[s] * M == cav[s] else _split(c, pieces[s], w)).items():
                    spread[a] = spread.get(a, _ZERO) + v
            mass = spread
        for a, w in mass.items():
            x[root * m + place[a]] = w
    for i, terms in enumerate(lines):
        S = lcm(*(S for _, _, S in terms))
        y[2 * i] = Fraction(sum(top * (S // T) for top, _, T in terms), S)
        y[2 * i + 1] = Fraction(sum(bottom * (S // T) for _, bottom, T in terms), S)
    return x, y


def _split(c, piece: tuple[int, int], m: Fraction) -> dict[int, Fraction]:
    """Mass m at c, strictly inside piece (l, r), spread onto l and r
    with its mean kept."""
    l, r = piece
    return {l: m * (r - c) / (r - l), r: m * (c - l) / (r - l)}


def _curtain(spread: BeliefDistribution, coarse: BeliefDistribution) -> Coupling | None:
    """The left-curtain coupling (Beiglböck and Juillet, Ann. Probab.
    2016) of two distributions on two states, along the first coordinate:
    coarse's atoms, left to right, each take their shadow (_shadow) in
    what is left of spread.  None when one has none, exactly when spread
    is not a mean-preserving spread of coarse.  Positions are integers
    over X, masses over Q, which a shadow may refine (_shadow)."""
    (L, xs, M, left), (R, ys, N, ms) = spread.scaled, coarse.scaled
    X, Q = lcm(L, R), lcm(M, N)
    xs, left, flow = [w[0] * (X // L) for w in xs], [m * (Q // M) for m in left], {}
    for c, y, m in zip(coarse.points, ys, ms):
        if (shadow := _shadow(xs, left, m * (Q // N), y[0] * (X // R))) is None:
            return None
        window, refine = shadow
        left, Q = [v * refine for v in left], Q * refine
        for j, v in window.items():
            left[j] -= v
            flow[spread.points[j], c] = Fraction(v, Q)
    return Coupling(source=spread, target=coarse, flow=flow)


def _shadow(xs, left, m, x) -> tuple[dict[int, int], int] | None:
    """({j: mass}, refine) of the integer masses left[j] at the increasing
    xs[j] between the quantiles s and s + m (m at most their total), for
    the s at which their mean is x, in units refine times finer; None when
    there is none.  Their first moment W(s) rises with s, linearly between
    the s where an end crosses an edge."""
    at = [j for j, w in enumerate(left) if w]
    cum = list(accumulate((left[j] for j in at), initial=0))
    # i and r: the atoms holding the quantiles s and s + m
    i, r, s, goal, refine = 0, bisect_left(cum, m, 1) - 1, 0, m * x, 1
    W = sum((left[j] * xs[j] for j in at[:r]), (m - cum[r]) * xs[at[r]])
    if W > goal:
        return None
    while W < goal:
        if r == len(at):  # the window is at the right end, its mean still short
            return None
        dl, dr, slope = cum[i + 1] - s, cum[r + 1] - s - m, xs[at[r]] - xs[at[i]]
        if W + slope * (d := min(dl, dr)) >= goal:
            # s moves on by (goal - W) / slope: count in units of 1 / slope
            s, refine = s * slope + goal - W, slope
            break
        W, s, i, r = W + slope * d, s + d, i + (d == dl), r + (d == dr)
    cum, m = [v * refine for v in cum], m * refine
    window = ((at[t], min(cum[t + 1], s + m) - max(cum[t], s)) for t in range(i, r + 1))
    return {j: v for j, v in window if v > 0}, refine


def _lattice_dual(glp: GridLP, dual) -> tuple[list[tuple[Fraction, Fraction]], list]:
    """The lattice certificate (lines, g) of a dual of glp's potential
    program: per receiver i, lines[i] = (l_i(1, 0), l_i(0, 1)), its two
    Bayes-plausibility duals; per covering edge, g[e] = (h, S), the
    integers h over S at each breakpoint a of sum_t y_t |a - t|, y_t the
    dual of the edge's row at t, so linear between breakpoints and, with
    every y_t <= 0, concave.  It stands for the full program's dual with
    row-sum duals -g, column-sum duals g, barycenter duals D times g's
    slope to the right (to the left at D) and normalization duals 0.
    So any optimal dual certifies the answer on the lattice (ROADMAP
    item 14): between breakpoints every utility is convex and every g
    linear."""
    k, at, n = len(glp.values), glp.positions, len(glp.points) - 2
    lines = list(zip(dual[0 : 2 * k : 2], dual[1 : 2 * k : 2]))
    g = []
    for e in range(len(glp.edges)):
        S, w = _integers(dual[2 * k + e * n : 2 * k + e * n + n])
        g.append(([sum(c * abs(a - t) for c, t in zip(w, at[1:])) for a in at], S))
    return lines, g


def _lattice_failure(glp: GridLP, prior, lines, g, objective) -> str | None:
    """The first part of the lattice certificate (lines, g) of glp's
    potential program, as _lattice_dual gives them, that fails, in the
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
    full program, so with a validated, lattice-supported GridSolution of
    value objective, weak duality proves it optimal on the grid."""
    at, edges = glp.positions, glp.edges
    D = at[-1]
    runs = list(zip(at, at[1:]))
    for (i1, i2), (h, _) in zip(edges, g):
        bent = next((t for t in range(1, len(at) - 1) if _bend(at, h, t - 1, t, t + 1) < 0), None)
        if bent is not None:
            return f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {_lattice_label(at[bent], D)}"
    for i, ((V, u), (top, bottom)) in enumerate(zip(glp.values, lines)):
        terms = [(-1 if i1 == i else 1, g[e]) for e, (i1, i2) in enumerate(edges) if i in (i1, i2)]
        T = lcm(V, top.denominator, bottom.denominator, *(S for _, (_, S) in terms))
        low = bottom.numerator * (T // bottom.denominator)
        rise = top.numerator * (T // top.denominator) - low
        # D T times the price less the line: the g terms at each breakpoint,
        # the rest at each position looked up
        G = [0] * len(at)
        for sign, (h, S) in terms:
            c = sign * (T // S) * D
            G = [x + c * y for x, y in zip(G, h)]
        looked = list(u)
        rest = [x * (T // V) * D - low * D - rise * a for a, x in u.items()]
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
