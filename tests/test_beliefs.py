import random
from fractions import Fraction
from itertools import combinations

import pytest

from mcpersuasion import lp
from mcpersuasion.beliefs import (
    BeliefDistribution,
    Coupling,
    coupling_flows,
    coupling_rows,
    is_bayes_plausible,
)
from mcpersuasion.errors import (
    InvariantViolation,
    PreconditionError,
    StateSpaceMismatch,
    ValidationError,
)
from mcpersuasion.lattice import _curtain
from mcpersuasion.model import Prior, StateSpace, format_label

F = Fraction
TWO = StateSpace(("0", "1"))


class PriorOutsideHull(PreconditionError):
    """Prior is not a convex combination of the given grid points."""


def _mean(dist):
    """The mass-weighted mean of dist's support, in Fractions."""
    out = [Fraction(0)] * dist.dim
    for point, mass in zip(dist.points, dist.masses):
        for b, x in enumerate(point):
            out[b] += mass * x
    return tuple(out)


def mps_coupling(spread, coarse):
    """A coupling witnessing spread ⊒ coarse, or None when none exists,
    decided by an exact feasibility program: coupling_rows, with the
    masses on the right of the row and column sums.  The oracle of
    lattice._curtain, which builds the couplings of two-state solutions
    with no program."""
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
    try:
        sol = lp.solve(lp.LinearProgram(n, ({}, 1), constraints))
    except InvariantViolation as exc:
        if str(exc) != "the program is infeasible":
            raise
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


def concavify_single(u_table, prior, points=None):
    """Best expected value of u over Bayes-plausible distributions
    supported on the given points (defaults: the table's own keys)."""
    value, _ = concavify_support(u_table, prior, points)
    return value


def concavify_support(u_table, prior, points=None):
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
    best = None
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


def pt(*xs):
    return tuple(F(x) for x in xs)


def binary_grid(d):
    return [pt(F(d - l, d), F(l, d)) for l in range(d + 1)]


def test_from_pairs_canonicalizes():
    d = BeliefDistribution.from_pairs(
        [
            (pt(1, 0), F(1, 4)),
            (pt(0, 1), F(1, 2)),
            (pt(1, 0), F(1, 4)),
            (pt("1/2", "1/2"), F(0)),
        ]
    )
    assert d.points == (pt(0, 1), pt(1, 0))
    assert d.masses == (F(1, 2), F(1, 2))
    with pytest.raises(ValidationError):
        BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2))])
    with pytest.raises(ValidationError):
        BeliefDistribution.from_pairs([(pt(1, 0), F(-1)), (pt(0, 1), F(2))])


@pytest.mark.parametrize(
    "pairs, refused",
    [
        ([((0.5, 0.5), 1)], "posterior coordinate 0.5"),
        ([(("1/2", "1/2"), "1")], "posterior coordinate '1/2'"),
        ([((True, False), True)], "posterior coordinate True"),
        ([(pt(1, 0), 1.0)], "belief mass 1.0"),
        ([(pt(1, 0), "1")], "belief mass '1'"),
        ([((1, 0), True)], "belief mass True"),
    ],
    ids=["float-point", "str-point", "bool-point", "float-mass", "str-mass", "bool-mass"],
)
def test_from_pairs_refuses_inexact_input(pairs, refused):
    """from_pairs reads every coordinate and mass as the constructor
    does (model._exact): a float, a str or a bool is refused with the
    constructor's message, never converted; ints are exact."""
    with pytest.raises(ValidationError, match=f"^{refused} is neither an int nor a Fraction$"):
        BeliefDistribution.from_pairs(pairs)
    assert BeliefDistribution.from_pairs([((1, 0), 1)]).points == (pt(1, 0),)


def test_bayes_plausibility():
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    assert is_bayes_plausible(BeliefDistribution.from_pairs([(prior.values, 1)]), prior)
    full = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    assert is_bayes_plausible(full, prior)
    assert not is_bayes_plausible(BeliefDistribution.from_pairs([(pt(1, 0), 1)]), prior)
    with pytest.raises(StateSpaceMismatch):
        is_bayes_plausible(
            BeliefDistribution.from_pairs([(pt(1, 0, 0), 1)]), prior
        )


def test_identity_coupling_always_feasible():
    rng = random.Random(3)
    for _ in range(30):
        d = rng.randint(2, 6)
        pairs = []
        remaining = F(1)
        pts = rng.sample(binary_grid(6), d)
        for i, p in enumerate(pts):
            m = remaining if i == d - 1 else F(rng.randint(1, 3), 12)
            if m > remaining:
                m = remaining
            pairs.append((p, m))
            remaining -= m
            if remaining == 0:
                break
        dist = BeliefDistribution.from_pairs(pairs)
        c = mps_coupling(dist, dist)
        assert c is not None


def test_spread_to_point_mass():
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    full = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    c = mps_coupling(full, BeliefDistribution.from_pairs([(prior.values, 1)]))
    assert c is not None
    # the other direction collapses information and must fail
    assert mps_coupling(BeliefDistribution.from_pairs([(prior.values, 1)]), full) is None


def test_worked_two_by_two_flows():
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs(
        [(pt("3/4", "1/4"), F(1, 2)), (pt("1/4", "3/4"), F(1, 2))]
    )
    c = mps_coupling(spread, coarse)
    assert c is not None
    # the 2x2 transport system has a unique solution
    assert c.flow[(pt(1, 0), pt("3/4", "1/4"))] == F(3, 8)
    assert c.flow[(pt(0, 1), pt("3/4", "1/4"))] == F(1, 8)
    assert c.flow[(pt(1, 0), pt("1/4", "3/4"))] == F(1, 8)
    assert c.flow[(pt(0, 1), pt("1/4", "3/4"))] == F(3, 8)


def test_coupling_validation_rejects_bad_flows():
    """Each refusal writes its points as labels (model.format_label)."""
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs([(pt("1/2", "1/2"), 1)])
    with pytest.raises(ValidationError) as refused:
        Coupling(
            source=spread,
            target=coarse,
            flow={(pt(1, 0), pt("1/2", "1/2")): F(1)},
        )
    assert str(refused.value) == "row sum 0 != source mass 1/2 at (0, 1)"
    with pytest.raises(ValidationError) as refused:
        Coupling(source=spread, target=coarse, flow={(pt(0, 1), pt("1/2", "1/2")): F(-1)})
    assert str(refused.value) == "negative flow at ((0, 1), (1/2, 1/2))"


def test_coupling_refuses_endpoints_of_mixed_dimension():
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs([(pt("1/3", "1/3", "1/3"), 1)])
    with pytest.raises(StateSpaceMismatch) as refused:
        Coupling(source=spread, target=coarse, flow={})
    assert str(refused.value) == "coupling endpoints of mixed dimension"


def _random_grid_distribution(rng, pts, max_support):
    chosen = rng.sample(pts, rng.randint(1, max_support))
    weights = [rng.randint(1, 4) for _ in chosen]
    total = sum(weights)
    return BeliefDistribution.from_pairs(
        (p, F(w, total)) for p, w in zip(chosen, weights)
    )


def _coarsen(rng, dist):
    """Merge a random partition of the support onto group barycenters."""
    groups = {}
    labels = [rng.randint(0, 2) for _ in dist.points]
    for label, p, m in zip(labels, dist.points, dist.masses):
        groups.setdefault(label, []).append((p, m))
    pairs = []
    for members in groups.values():
        total = sum(m for _, m in members)
        bary = tuple(
            sum(m * p[b] for p, m in members) / total for b in range(dist.dim)
        )
        pairs.append((bary, total))
    return BeliefDistribution.from_pairs(pairs)


def test_mps_transitivity_and_mean_preservation():
    rng = random.Random(11)
    pts = binary_grid(6)
    for _ in range(40):
        A = _random_grid_distribution(rng, pts, 5)
        B = _coarsen(rng, A)
        C = _coarsen(rng, B)
        ab = mps_coupling(A, B)
        bc = mps_coupling(B, C)
        assert ab is not None and bc is not None
        assert _mean(A) == _mean(B) == _mean(C)
        assert mps_coupling(A, C) is not None
        # unequal means can never couple
        if _mean(A) != pts[0]:
            assert mps_coupling(A, BeliefDistribution.from_pairs([(pts[0], 1)])) is None


def _two_state_pairs(rng):
    """Pairs (spread, coarse) of two-state distributions: a distribution
    and a coarsening of it (_coarsen), in convex order; the pair swapped,
    in order only when both are one distribution; and two drawn apart, on
    one 1/d grid or with unrelated denominators (_random_points), rarely
    in order and often with unequal means."""
    pts = binary_grid(rng.choice((2, 4, 6, 10)))
    spread = _random_grid_distribution(rng, pts, min(len(pts), 6))
    coarse = _coarsen(rng, spread)
    yield spread, coarse
    yield coarse, spread
    for on_grid in (True, False):
        drawn = []
        for _ in range(2):
            points = _random_points(rng, 2, on_grid)
            weights = [rng.randint(1, 4) for _ in points]
            drawn.append(BeliefDistribution.from_pairs(
                (w, F(v, sum(weights))) for w, v in zip(points, weights)
            ))
        yield tuple(drawn)
        # the second moved onto the first's mean by one atom at its mean
        mean = _mean(drawn[0])
        yield drawn[0], BeliefDistribution.from_pairs([(mean, 1)])
        yield BeliefDistribution.from_pairs([(mean, 1)]), drawn[0]


def test_curtain_couples_exactly_when_a_coupling_exists():
    """lattice._curtain, the left-curtain coupling, against mps_coupling's
    feasibility program on random two-state pairs in and out of convex
    order: it returns a Coupling (which checks itself) exactly when
    mps_coupling finds one, and None otherwise."""
    rng = random.Random(1709)
    outcomes = []
    for _ in range(300):
        for spread, coarse in _two_state_pairs(rng):
            got, want = _curtain(spread, coarse), mps_coupling(spread, coarse)
            assert (got is None) == (want is None)
            assert got is None or (got.source, got.target) == (spread, coarse)
            outcomes.append(got is None)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 500


def test_curtain_takes_the_left_curtain_shadows():
    """The worked 2x2 pair has one coupling, which the curtain finds.  In
    the collinear case, spread {0: 1/10, 9/10: 1/2, 1: 2/5} onto coarse
    {4/5: 1/2, 9/10: 1/2} (first coordinates), the coarse atom at 4/5,
    taken first, takes the narrowest window of spread with its mass and
    mean, from 0 and 9/10; the atom at 9/10 takes the rest."""
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs(
        [(pt("3/4", "1/4"), F(1, 2)), (pt("1/4", "3/4"), F(1, 2))]
    )
    assert _curtain(spread, coarse).flow == mps_coupling(spread, coarse).flow
    a, b, c, d = (pt(x, 1 - F(x)) for x in (0, "4/5", "9/10", 1))
    spread = BeliefDistribution.from_pairs([(a, F(1, 10)), (c, F(1, 2)), (d, F(2, 5))])
    coarse = BeliefDistribution.from_pairs([(b, F(1, 2)), (c, F(1, 2))])
    flow = {(a, b): F(1, 18), (c, b): F(4, 9), (a, c): F(2, 45), (c, c): F(1, 18), (d, c): F(2, 5)}
    assert _curtain(spread, coarse).flow == flow


def test_concavify_constant():
    grid = binary_grid(4)
    prior = Prior(TWO, (F(1, 4), F(3, 4)))
    table = {p: F(7, 2) for p in grid}
    assert concavify_single(table, prior) == F(7, 2)


def test_concavify_threshold_worked_example():
    # reward 1 once the second state's probability reaches 1/2
    grid = binary_grid(10)
    prior = Prior(TWO, (F(7, 10), F(3, 10)))
    table = {p: (F(1) if p[1] >= F(1, 2) else F(0)) for p in grid}
    value, dist = concavify_support(table, prior)
    assert value == F(3, 5)
    masses = dict(zip(dist.points, dist.masses))
    assert masses[pt("1/2", "1/2")] == F(3, 5)
    assert masses[pt(1, 0)] == F(2, 5)
    assert is_bayes_plausible(dist, prior)


def test_concavify_prior_at_maximizer():
    grid = binary_grid(4)
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = {p: (F(2) if p == prior.values else F(0)) for p in grid}
    assert concavify_single(table, prior) == F(2)


def test_concavify_outside_hull():
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = {pt(1, 0): F(1), pt("3/4", "1/4"): F(0)}
    with pytest.raises(PriorOutsideHull):
        concavify_single(table, prior)


def _concavify_oracle(table, prior):
    """Brute force over all support pairs on a binary grid."""
    pts = sorted(table)
    best = None
    for p in pts:
        if p == prior.values:
            best = table[p]
    for a in pts:
        for b in pts:
            if a[1] == b[1]:
                continue
            lam = (prior.values[1] - b[1]) / (a[1] - b[1])
            if 0 <= lam <= 1:
                val = lam * table[a] + (1 - lam) * table[b]
                if best is None or val > best:
                    best = val
    return best


def test_concavify_matches_brute_force_binary():
    rng = random.Random(29)
    for _ in range(60):
        d = rng.randint(2, 6)
        grid = binary_grid(d)
        table = {p: F(rng.randint(-3, 6)) for p in grid}
        num = rng.randint(1, 2 * d - 1)
        prior = Prior(TWO, (F(2 * d - num, 2 * d), F(num, 2 * d)))
        assert concavify_single(table, prior) == _concavify_oracle(table, prior)


def test_coupling_refuses_flow_off_the_supports():
    # rows, columns and barycenters all check out, but half the mass moves
    # from a point outside the source's support to one outside the target's
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    mid = pt("1/2", "1/2")
    coarse = BeliefDistribution.from_pairs([(mid, 1)])
    flow = {
        (pt(1, 0), mid): F(1, 4),
        (pt(1, 0), pt(1, 0)): F(1, 4),
        (pt(0, 1), mid): F(1, 4),
        (pt(0, 1), pt(1, 0)): F(1, 4),
        (mid, mid): F(1, 2),
    }
    with pytest.raises(ValidationError, match="off the supports"):
        Coupling(source=spread, target=coarse, flow=flow)


# ---------------------------------------------------------------------------
# The shared coupling program against the row loops and flow comprehension
# that mps_coupling first wrote for itself, with a variable offset added


def _reference_coupling_rows(spread, coarse, base):
    nl, nr = len(spread), len(coarse)
    var = {(li, ri): base + li * nr + ri for li in range(nl) for ri in range(nr)}
    rows = []
    for li in range(nl):
        rows.append({var[(li, ri)]: F(1) for ri in range(nr)})
    for ri in range(nr):
        rows.append({var[(li, ri)]: F(1) for li in range(nl)})
    for ri, r in enumerate(coarse):
        for b in range(len(r) - 1):
            rows.append(
                {var[(li, ri)]: l[b] - r[b] for li, l in enumerate(spread) if l[b] != r[b]}
            )
    return rows


def _reference_coupling_flows(spread, coarse, assignment, base):
    nr = len(coarse)
    var = {(li, ri): base + li * nr + ri for li in range(len(spread)) for ri in range(nr)}
    return {
        (l, r): assignment[var[(li, ri)]]
        for li, l in enumerate(spread)
        for ri, r in enumerate(coarse)
        if assignment[var[(li, ri)]]
    }


def _random_points(rng, dim, on_grid):
    """Distinct posteriors in a random order: on one 1/d grid, or with
    coordinates of unrelated denominators."""
    points = set()
    denominator = rng.randint(1, 12)
    for _ in range(rng.randint(1, 8)):
        if on_grid:
            cuts = sorted(rng.randint(0, denominator) for _ in range(dim - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            points.add(tuple(F(x, denominator) for x in parts))
        else:
            weights = [rng.randint(0, 9) * rng.randint(1, 7) for _ in range(dim)]
            weights[-1] += 1
            points.add(tuple(F(w, sum(weights)) for w in weights))
    points = sorted(points)
    rng.shuffle(points)
    return points


def test_coupling_rows_and_flows_match_the_reference():
    rng = random.Random(1601)
    for trial in range(300):
        dim, base = rng.randint(1, 3), rng.choice([0, rng.randint(1, 60)])
        spread = _random_points(rng, dim, on_grid=trial % 2 == 0)
        coarse = _random_points(rng, dim, on_grid=trial % 3 != 0)
        got = coupling_rows(spread, coarse, base)
        want = _reference_coupling_rows(spread, coarse, base)
        # the same rows in the same order, keys in the same order, values
        # equal: integer coefficients over each row's den
        assert all(type(v) is int for row, den in got for v in (*row.values(), den))
        rational = [[(j, F(a, den)) for j, a in row.items()] for row, den in got]
        assert rational == [list(row.items()) for row in want]
        size = base + len(spread) * len(coarse)
        assignment = tuple(
            rng.choice([F(0), F(rng.randint(1, 9), rng.randint(1, 9))]) for _ in range(size + 3)
        )
        got = coupling_flows(spread, coarse, assignment, base)
        want = _reference_coupling_flows(spread, coarse, assignment, base)
        assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# Coupling's one-pass check against the per-point sums it first made


def _reference_coupling(source, target, flow):
    """Coupling's checks as first written: each source point's row sum,
    then each target point's column sum and moments, each summed over
    every flow.  Returns the cleaned flow."""
    if source.dim != target.dim:
        raise StateSpaceMismatch("coupling endpoints of mixed dimension")
    rows, cols = set(source.points), set(target.points)
    clean = {}
    for (l, r), f in flow.items():
        f = Fraction(f)
        if f < 0:
            raise ValidationError(f"negative flow at ({format_label(l)}, {format_label(r)})")
        if f:
            l, r = tuple(l), tuple(r)
            if l not in rows or r not in cols:
                where = f"({format_label(l)}, {format_label(r)})"
                raise ValidationError(f"flow at {where} lies off the supports")
            clean[(l, r)] = f
    for l, mass in zip(source.points, source.masses):
        row = sum((f for (a, _), f in clean.items() if a == l), Fraction(0))
        if row != mass:
            raise ValidationError(f"row sum {row} != source mass {mass} at {format_label(l)}")
    for r, mass in zip(target.points, target.masses):
        col = [(a, f) for (a, b), f in clean.items() if b == r]
        total = sum((f for _, f in col), Fraction(0))
        if total != mass:
            raise ValidationError(f"column sum {total} != target mass {mass} at {format_label(r)}")
        for b_idx in range(source.dim):
            moment = sum((f * a[b_idx] for a, f in col), Fraction(0))
            if moment != mass * r[b_idx]:
                raise ValidationError(f"barycenter violated at target {format_label(r)}")
    return clean


def _coupling_outcome(build, source, target, flow):
    try:
        built = build(source=source, target=target, flow=flow)
    except Exception as exc:  # the differential test compares refusals too
        return type(exc), str(exc)
    return built.flow if isinstance(built, Coupling) else built


def _flow_mutations(coupling):
    """The flow itself, and each single-entry mutation of it: an entry
    nudged up, or down past zero, moved to another source or target point
    (or off either support), or dropped; and, since no single entry can
    break a barycenter alone, a little mass swapped around each rectangle
    of two entries."""
    flow, sources, targets = coupling.flow, coupling.source.points, coupling.target.points
    off = tuple(F(1, 7) for _ in sources[0])
    yield dict(flow)
    for (l, r), f in flow.items():
        for g in (f + F(1, 97), -f):
            yield {**flow, (l, r): g}
        rest = {key: v for key, v in flow.items() if key != (l, r)}
        yield rest
        for to in [(a, r) for a in sources if a != l] + [(l, c) for c in targets if c != r]:
            yield {**rest, to: rest.get(to, 0) + f}
        yield {**rest, (off, r): f}
        yield {**rest, (l, off): f}
    entries = list(flow.items())
    for ((l1, r1), f1), ((l2, r2), f2) in zip(entries, entries[1:]):
        if l1 != l2 and r1 != r2:
            d = min(f1, f2) / 2
            yield {
                **flow,
                (l1, r1): f1 - d,
                (l2, r2): f2 - d,
                (l1, r2): flow.get((l1, r2), 0) + d,
                (l2, r1): flow.get((l2, r1), 0) + d,
            }


def assert_coupling_check_matches_the_reference(coupling):
    """Coupling accepts each of _flow_mutations(coupling) exactly when the
    reference does, and otherwise raises its first message; returns the
    first word of each message seen."""
    seen = set()
    source, target = coupling.source, coupling.target
    for flow in _flow_mutations(coupling):
        expected = _coupling_outcome(_reference_coupling, source, target, flow)
        assert _coupling_outcome(Coupling, source, target, flow) == expected
        if isinstance(expected, tuple):
            seen.add(expected[1].split()[0])
    return seen


def test_coupling_checks_each_flow_once_and_agrees_with_the_reference():
    rng = random.Random(29)
    seen = set()
    third = [pt(F(a, 3), F(b, 3), F(3 - a - b, 3)) for a in range(4) for b in range(4 - a)]
    for pts in (binary_grid(6), third):
        for _ in range(20):
            spread = _random_grid_distribution(rng, pts, 4)
            coupling = mps_coupling(spread, _coarsen(rng, spread))
            seen |= assert_coupling_check_matches_the_reference(coupling)
    assert seen >= {"negative", "row", "column", "barycenter", "flow"}


# ---------------------------------------------------------------------------
# The integer checks against the Fraction checks they replaced


def _fraction_distribution(points, masses):
    """BeliefDistribution's checks as they ran in Fractions: the same
    refusals, in the same order, with the same messages."""
    if len(points) != len(masses):
        raise ValidationError("support and mass lists differ in length")
    if not points:
        raise ValidationError("belief distribution has empty support")
    dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise StateSpaceMismatch("support points of mixed dimension")
        if any(x < 0 for x in p):
            raise ValidationError(f"negative coordinate in posterior {format_label(p)}")
        if sum(p) != 1:
            raise ValidationError(f"posterior does not sum to 1: {format_label(p)}")
    if any(m <= 0 for m in masses):
        raise ValidationError("masses must be positive in canonical form")
    if sum(masses) != 1:
        raise ValidationError("masses must sum to 1")
    if list(points) != sorted(set(points)):
        raise ValidationError("support must be sorted and duplicate-free; use from_pairs")
    return points, masses


def _distribution_outcome(build, points, masses):
    try:
        built = build(points, masses)
    except ValidationError as exc:
        return type(exc), str(exc)
    return tuple(built.points) if isinstance(built, BeliefDistribution) else tuple(built[0])


def _copied(point):
    """point as a fresh tuple of fresh Fractions: equal, no object shared."""
    return tuple(F(x.numerator, x.denominator) for x in point)


def _distribution_mutations(rng, dist):
    """dist's support and masses, then each with one defect, named: a
    negative coordinate, a posterior off 1, a zero mass, masses off 1,
    the support unsorted or with a duplicate, of mixed dimension, or of
    another length than the masses; and the support as equal copies."""
    points, masses = list(dist.points), list(dist.masses)
    yield "valid", points, masses
    yield "copies", [_copied(p) for p in points], masses
    t = rng.randrange(len(points))
    p = points[t]
    negative = (p[0] - 1 - F(1, rng.randint(2, 9)), p[1] + 1 + F(1, rng.randint(2, 9)), *p[2:])
    negative = (negative[0], 1 - negative[0] - sum(negative[2:]), *negative[2:])
    yield "negative", points[:t] + [negative] + points[t + 1 :], masses
    yield "off-one", points[:t] + [(p[0] + F(1, 11), *p[1:])] + points[t + 1 :], masses
    yield "zero-mass", points, masses[:t] + [F(0)] + masses[t + 1 :]
    yield "masses-off-one", points, [m * F(9, 10) for m in masses]
    if len(points) > 1:
        yield "unsorted", points[::-1], masses[::-1]
        half = masses[t] / 2
        doubled = points[: t + 1] + [_copied(p)] + points[t + 1 :]
        yield "duplicate", doubled, masses[:t] + [half, half] + masses[t + 1 :]
    yield "mixed-dimension", points[:t] + [(*p, F(0))] + points[t + 1 :], masses
    yield "lengths", points, masses + [F(0)]


def test_distribution_checks_refuse_as_the_fraction_checks_did():
    """BeliefDistribution, checked in integers, accepts exactly what its
    Fraction checks accepted and refuses the rest with the same type and
    message, over seeded distributions on two and three states, each
    with one defect at a time (_distribution_mutations); a copied
    support reads as the original."""
    rng = random.Random(3901)
    third = [pt(F(a, 3), F(b, 3), F(3 - a - b, 3)) for a in range(4) for b in range(4 - a)]
    seen = set()
    for pts in (binary_grid(6), binary_grid(10), third):
        for _ in range(40):
            dist = _random_grid_distribution(rng, pts, 4)
            for name, points, masses in _distribution_mutations(rng, dist):
                want = _distribution_outcome(_fraction_distribution, points, masses)
                assert _distribution_outcome(BeliefDistribution, points, masses) == want, name
                seen.add((name, isinstance(want[0], type)))
    assert {name for name, refused in seen if refused} >= {
        "negative", "off-one", "zero-mass", "masses-off-one", "unsorted", "duplicate",
        "mixed-dimension", "lengths",
    }
    assert ("valid", False) in seen and ("copies", False) in seen


def test_bayes_plausibility_agrees_with_the_fraction_mean():
    rng = random.Random(3902)
    verdicts = set()
    for _ in range(300):
        pts = binary_grid(rng.randint(2, 12))
        dist = _random_grid_distribution(rng, pts, min(4, len(pts)))
        mean = _mean(dist)
        if 0 < mean[0] < 1 and rng.random() < 0.5:
            prior = Prior(TWO, mean)
        else:
            a = F(rng.randint(1, 11), 12)
            prior = Prior(TWO, (1 - a, a))
        want = mean == prior.values
        assert is_bayes_plausible(dist, prior) == want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "point, bad",
    [((0.5, 0.5), 0.5), ((True, False), True), (("1/2", "1/2"), "1/2")],
    ids=["float", "bool", "str"],
)
def test_support_masses_and_flows_that_are_not_exact_are_refused(point, bad):
    """A coordinate, a mass or a flow that is not an int or a Fraction is
    a ValidationError, as model._exact refuses one elsewhere.  The
    Fraction checks read a float or bool support, float or bool masses
    and every one of these flows as numbers."""
    half = F(1, 2)
    with pytest.raises(ValidationError, match="posterior coordinate"):
        BeliefDistribution((point,), (F(1),))
    with pytest.raises(ValidationError, match="belief mass"):
        BeliefDistribution((pt(0, 1), pt(1, 0)), (bad, half))
    spread = BeliefDistribution((pt(0, 1), pt(1, 0)), (half, half))
    coarse = BeliefDistribution((pt(half, half),), (F(1),))
    flow = {(pt(0, 1), pt(half, half)): half, (pt(1, 0), pt(half, half)): bad}
    with pytest.raises(ValidationError, match="neither an int nor a Fraction"):
        Coupling(spread, coarse, flow)


def test_coupling_checks_agree_with_the_fraction_checks_on_copied_points():
    """Coupling, which finds each flow's points among its sides' supports
    by object first and by value only when that misses, refuses and
    accepts _flow_mutations as the Fraction checks (_reference_coupling)
    do, with every key an equal copy of its point too, and keeps the
    same flow."""
    rng = random.Random(3903)
    seen = set()
    for pts in (binary_grid(6), binary_grid(10)):
        for _ in range(20):
            spread = _random_grid_distribution(rng, pts, 4)
            coupling = mps_coupling(spread, _coarsen(rng, spread))
            for flow in _flow_mutations(coupling):
                for keyed in (flow, {(_copied(l), _copied(r)): f for (l, r), f in flow.items()}):
                    want = _coupling_outcome(_reference_coupling, spread, coupling.target, keyed)
                    assert _coupling_outcome(Coupling, spread, coupling.target, keyed) == want
                    if isinstance(want, tuple):
                        seen.add(want[1].split()[0])
    assert seen >= {"negative", "row", "column", "barycenter", "flow"}
