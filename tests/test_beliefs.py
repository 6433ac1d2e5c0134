import random
from fractions import Fraction

import pytest

from mcpersuasion.beliefs import (
    BeliefDistribution,
    Coupling,
    concavify_single,
    concavify_support,
    coupling_flows,
    coupling_rows,
    is_bayes_plausible,
    mps_coupling,
)
from mcpersuasion.errors import PriorOutsideHull, StateSpaceMismatch, ValidationError
from mcpersuasion.model import Prior, StateSpace

F = Fraction
TWO = StateSpace(("0", "1"))


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


def test_bayes_plausibility():
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    assert is_bayes_plausible(BeliefDistribution.point_mass(prior.point()), prior)
    full = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    assert is_bayes_plausible(full, prior)
    assert not is_bayes_plausible(BeliefDistribution.point_mass(pt(1, 0)), prior)
    with pytest.raises(StateSpaceMismatch):
        is_bayes_plausible(
            BeliefDistribution.point_mass(pt(1, 0, 0)), prior
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
    c = mps_coupling(full, BeliefDistribution.point_mass(prior.point()))
    assert c is not None
    # the other direction collapses information and must fail
    assert mps_coupling(BeliefDistribution.point_mass(prior.point()), full) is None


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
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.point_mass(pt("1/2", "1/2"))
    with pytest.raises(ValidationError):
        Coupling(
            source=spread,
            target=coarse,
            flow={(pt(1, 0), pt("1/2", "1/2")): F(1)},
        )


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
        assert A.mean() == B.mean() == C.mean()
        assert mps_coupling(A, C) is not None
        # unequal means can never couple
        if A.mean() != pts[0]:
            assert mps_coupling(A, BeliefDistribution.point_mass(pts[0])) is None


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
    assert dist.mass_at(pt("1/2", "1/2")) == F(3, 5)
    assert dist.mass_at(pt(1, 0)) == F(2, 5)
    assert is_bayes_plausible(dist, prior)


def test_concavify_prior_at_maximizer():
    grid = binary_grid(4)
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = {p: (F(2) if p == prior.point() else F(0)) for p in grid}
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
        if p == prior.point():
            best = table[p]
    for a in pts:
        for b in pts:
            if a[1] == b[1]:
                continue
            lam = (prior.point()[1] - b[1]) / (a[1] - b[1])
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
    coarse = BeliefDistribution.point_mass(mid)
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
            raise ValidationError(f"negative flow at ({l}, {r})")
        if f:
            l, r = tuple(l), tuple(r)
            if l not in rows or r not in cols:
                raise ValidationError(f"flow at ({l}, {r}) lies off the supports")
            clean[(l, r)] = f
    for l, mass in zip(source.points, source.masses):
        row = sum((f for (a, _), f in clean.items() if a == l), Fraction(0))
        if row != mass:
            raise ValidationError(f"row sum {row} != source mass {mass} at {l}")
    for r, mass in zip(target.points, target.masses):
        col = [(a, f) for (a, b), f in clean.items() if b == r]
        total = sum((f for _, f in col), Fraction(0))
        if total != mass:
            raise ValidationError(f"column sum {total} != target mass {mass} at {r}")
        for b_idx in range(source.dim):
            moment = sum((f * a[b_idx] for a, f in col), Fraction(0))
            if moment != mass * r[b_idx]:
                raise ValidationError(f"barycenter violated at target {r}")
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
