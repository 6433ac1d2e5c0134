import hashlib
import json
import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import compress, count
from pathlib import Path

import pytest

from mcpersuasion import forest, lattice, lp
from mcpersuasion.beliefs import BeliefDistribution, Coupling, coupling_flows
from mcpersuasion.dominance import dominance_set
from mcpersuasion.errors import (
    BadEpsilon,
    DuplicateRows,
    GridMismatch,
    InvariantViolation,
    NotAForest,
    ValidationError,
)
from mcpersuasion.forest import (
    GridSolution,
    PosteriorGrid,
    SignalingTable,
    build_grid_lp,
    evaluate_table,
    extract_table,
    solve_fptas,
    solve_grid,
)
from mcpersuasion.model import (
    AdditiveUtility,
    CommunicationStructure,
    ConstantUtility,
    Group,
    LinearUtility,
    MemberRule,
    PersuasionInstance,
    PiecewiseUtility,
    PointUtility,
    Prior,
    ReceiverUtility,
    StateSpace,
    SupermajorityUtility,
    TableUtility,
    ThresholdUtility,
    format_label,
    validate_instance,
)
from test_beliefs import (
    _copied,
    assert_coupling_check_matches_the_reference,
    concavify_single,
    mps_coupling,
)
from test_lp import (
    GRID_CASES,
    _engines_built,
    _restriction,
    dump,
    full_grid_lp,
    rational_program,
    var_names,
)

F = Fraction
TWO = StateSpace(("0", "1"))


def pt(*xs):
    return tuple(F(x) for x in xs)


def make_instance(structure_rows, utilities, prior=("7/10", "3/10"), states=("0", "1")):
    space = StateSpace(tuple(states))
    return PersuasionInstance(
        space=space,
        prior=Prior(space, tuple(F(p) for p in prior)),
        structure=CommunicationStructure(tuple(tuple(r) for r in structure_rows)),
        utilities=AdditiveUtility(tuple(utilities)),
    )


def test_grid_points_and_membership():
    g = PosteriorGrid(dim=2, denominator=2)
    assert g.points() == (pt(0, 1), pt("1/2", "1/2"), pt(1, 0))
    g3 = PosteriorGrid(dim=3, denominator=2)
    assert len(g3.points()) == 6
    for dim, d in ((2, 7), (3, 5), (4, 3)):
        points = PosteriorGrid(dim=dim, denominator=d).points()
        assert list(points) == sorted(set(points))
    assert g.contains(pt("1/2", "1/2"))
    assert not g.contains(pt("1/3", "2/3"))
    assert not g.contains(pt("1/2", "1/4"))


def test_grid_membership_refuses_inexact_coordinates():
    """contains reads each coordinate as a posterior's (model._exact): a
    float, a str or a bool is a ValidationError, never converted; exact
    points off the grid, negative ones, ones of another length and ones
    not summing to 1 are not members."""
    g = PosteriorGrid(dim=2, denominator=2)
    for point in [(0.5, 0.5), ("1/2", "1/2"), (True, False)]:
        with pytest.raises(ValidationError, match="^posterior coordinate .* is neither"):
            g.contains(point)
    assert g.contains((1, 0)) and g.contains(pt("1/2", "1/2"))
    for point in [pt("1/4", "3/4"), pt("-1/2", "3/2"), pt("1/2", "1/2", 0), pt("1/2", 0)]:
        assert not g.contains(point)


def test_grid_for_epsilon():
    assert PosteriorGrid.for_epsilon(2, F(1, 10)).denominator == 10
    assert PosteriorGrid.for_epsilon(2, F(3, 10)).denominator == 4
    with pytest.raises(BadEpsilon):
        PosteriorGrid.for_epsilon(2, F(1))
    with pytest.raises(BadEpsilon):
        PosteriorGrid.for_epsilon(2, F(0))
    # an epsilon that is not a Fraction: 1/3 as a float lies below 1/3,
    # and Fraction(1/3) would give the grid 1/4
    inst = make_instance([[1]], [ConstantUtility(F(1))])
    for epsilon in (1 / 3, 0.1, "1/3", Decimal("0.1")):
        with pytest.raises(BadEpsilon):
            PosteriorGrid.for_epsilon(2, epsilon)
        with pytest.raises(BadEpsilon):
            solve_fptas(inst, epsilon)
        with pytest.raises(BadEpsilon):
            replace(inst, epsilon=epsilon)
    assert replace(inst, epsilon=F(1, 3)).epsilon == F(1, 3)
    # a dim or denominator that is not an int, bools and floats included
    for dim, denominator in ((True, 4), (2, True), (2.0, 4), (2, 4.0), (2, F(4)), ("2", 4)):
        with pytest.raises(ValidationError):
            PosteriorGrid(dim, denominator)


def test_build_sizes_single_receiver():
    inst = make_instance([[1]], [ThresholdUtility(state="1", cutoff=F(1, 2))])
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=2))
    assert glp.program.n_vars == 3
    assert glp.program.n_constraints == 2  # two Bayes rows
    assert glp.edges == ()


def test_build_sizes_two_receiver_chain():
    inst = make_instance(
        [[1, 1], [0, 1]],
        [ThresholdUtility(state="1", cutoff=F(1, 2)), ConstantUtility(F(0))],
    )
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=2))
    assert glp.edges == ((0, 1),)
    assert glp.program.n_vars == 6  # 2 receivers x 3 breakpoints, no coupling
    assert glp.program.n_constraints == 5  # 4 Bayes + 1 spread


def test_build_rejects_non_forest_and_duplicates():
    inst = make_instance(
        [[1, 1, 0], [0, 1, 1], [0, 1, 0]],
        [ConstantUtility(F(0))] * 3,
    )
    with pytest.raises(NotAForest):
        build_grid_lp(inst, PosteriorGrid(dim=2, denominator=2))
    dup = make_instance([[1, 0], [1, 0]], [ConstantUtility(F(0))] * 2)
    with pytest.raises(DuplicateRows):
        build_grid_lp(dup, PosteriorGrid(dim=2, denominator=2))


def test_single_receiver_threshold_matches_concavification():
    inst = make_instance([[1]], [ThresholdUtility(state="1", cutoff=F(1, 2))])
    solution, table = solve_fptas(inst, F(1, 10))
    assert solution.objective == F(3, 5)
    assert evaluate_table(table, inst) == F(3, 5)
    grid = PosteriorGrid(dim=2, denominator=10)
    u = inst.utilities.receivers[0]
    oracle_table = {w: u.value_at(w, inst.space) for w in grid.points()}
    assert concavify_single(oracle_table, inst.prior) == F(3, 5)


def test_single_receiver_random_utilities_match_concavification():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(2, 6)
        breaks = sorted(
            rng.sample([F(i, d) for i in range(1, d)], rng.randint(0, min(2, d - 1)))
        )
        values = tuple(F(rng.randint(-2, 4)) for _ in range(len(breaks) + 1))
        u = PiecewiseUtility(state="1", breakpoints=tuple(breaks), values=values)
        num = rng.randint(1, 2 * d - 1)
        inst = make_instance([[1]], [u], prior=(F(2 * d - num, 2 * d), F(num, 2 * d)))
        grid = PosteriorGrid(dim=2, denominator=2 * d)
        solution = solve_grid(inst, grid)
        oracle_table = {w: u.value_at(w, inst.space) for w in grid.points()}
        assert solution.objective == concavify_single(oracle_table, inst.prior)


def test_three_state_single_receiver_against_concavification():
    space = StateSpace(("a", "b", "c"))
    prior = Prior(space, (F(1, 2), F(1, 4), F(1, 4)))
    u = LinearUtility(coeffs=(F(0), F(1), F(2)))
    inst = PersuasionInstance(
        space=space,
        prior=prior,
        structure=CommunicationStructure(((1,),)),
        utilities=AdditiveUtility((u,)),
    )
    grid = PosteriorGrid(dim=3, denominator=4)
    solution = solve_grid(inst, grid)
    table = {w: u.value_at(w, space) for w in grid.points()}
    assert solution.objective == concavify_single(table, prior)
    # linear utility: revelation cannot help
    assert solution.objective == u.value_at(prior.values, space)


CHAIN_UTILITIES = [
    ThresholdUtility(state="1", cutoff=F(1, 2)),
    PointUtility(point=(F(7, 10), F(3, 10)), value=F(1)),
]


def test_chain_worked_example_value():
    inst = make_instance([[1, 1], [0, 1]], CHAIN_UTILITIES)
    solution, table = solve_fptas(inst, F(1, 10))
    assert solution.objective == F(8, 5)
    assert evaluate_table(table, inst) == F(8, 5)
    # finer grid agrees because every relevant point is already coarse
    fine = solve_grid(inst, PosteriorGrid(dim=2, denominator=20))
    assert fine.objective == F(8, 5)
    # couplings hold for every dominating pair
    for i1, i2 in dominance_set(inst.structure):
        assert mps_coupling(solution.marginals[i1], solution.marginals[i2]) is not None
    table.validate(inst.prior)


def test_constant_utilities_objective_is_k():
    inst = make_instance(
        [[1, 1], [0, 1]],
        [ConstantUtility(F(1)), ConstantUtility(F(1))],
        prior=("1/2", "1/2"),
    )
    solution, table = solve_fptas(inst, F(1, 2))
    assert solution.objective == 2
    assert evaluate_table(table, inst) == 2

    # a hand-built no-revelation solution extracts to the trivial table
    prior_point = pt("1/2", "1/2")
    no_rev = BeliefDistribution.from_pairs([(prior_point, 1)])
    manual = GridSolution(
        step=F(1, 2),
        marginals=(no_rev, no_rev),
        couplings={
            (0, 1): Coupling(
                source=no_rev, target=no_rev, flow={(prior_point, prior_point): F(1)}
            )
        },
        objective=F(2),
    )
    table = extract_table(manual, inst)
    assert table.profiles == ((prior_point, prior_point),)
    assert table.rows["0"] == (F(1),)
    assert table.rows["1"] == (F(1),)


def test_extract_full_revelation_single_receiver():
    inst = make_instance(
        [[1]], [LinearUtility(coeffs=(F(1), F(0)))], prior=("1/2", "1/2")
    )
    full = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    manual = GridSolution(
        step=F(1, 2), marginals=(full,), couplings={}, objective=F(1, 2)
    )
    table = extract_table(manual, inst)
    assert table.profiles == ((pt(0, 1),), (pt(1, 0),))
    assert table.rows["0"] == (F(0), F(1))
    assert table.rows["1"] == (F(1), F(0))


def test_extract_chain_with_worked_coupling():
    inst = make_instance(
        [[1, 1], [0, 1]],
        [LinearUtility(coeffs=(F(1), F(0))), LinearUtility(coeffs=(F(1), F(0)))],
        prior=("1/2", "1/2"),
    )
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs(
        [(pt("3/4", "1/4"), F(1, 2)), (pt("1/4", "3/4"), F(1, 2))]
    )
    coupling = mps_coupling(spread, coarse)
    assert coupling is not None
    manual = GridSolution(
        step=F(1, 4),
        marginals=(spread, coarse),
        couplings={(0, 1): coupling},
        objective=F(1),
    )
    table = extract_table(manual, inst)
    assert len(table.profiles) == 4
    table.validate(inst.prior)
    marg = table.receiver_marginal(1, inst.prior)
    assert marg == coarse
    # spot-check one conditional row entry: state 0, profile ((1,0),(3/4,1/4))
    idx = table.profiles.index((pt(1, 0), pt("3/4", "1/4")))
    assert table.rows["0"][idx] == F(3, 4)


def test_grid_refinement_never_loses_value():
    rng = random.Random(53)
    for _ in range(8):
        d = rng.randint(2, 4)
        breaks = sorted(
            set(F(i, d) for i in rng.sample(range(1, d), rng.randint(0, d - 1)))
        )
        u1 = PiecewiseUtility(
            state="1",
            breakpoints=tuple(breaks),
            values=tuple(F(rng.randint(0, 4)) for _ in range(len(breaks) + 1)),
        )
        u2 = ThresholdUtility(state="1", cutoff=F(rng.randint(1, d - 1) if d > 1 else 0, d))
        inst = make_instance(
            [[1, 1], [0, 1]], [u1, u2], prior=(F(2 * d - 1, 2 * d), F(1, 2 * d))
        )
        coarse = solve_grid(inst, PosteriorGrid(dim=2, denominator=d)).objective
        fine = solve_grid(inst, PosteriorGrid(dim=2, denominator=2 * d)).objective
        assert fine >= coarse


def test_solution_validate_catches_corruption():
    inst = make_instance([[1]], [ConstantUtility(F(3))])
    solution = solve_grid(inst, PosteriorGrid(dim=2, denominator=2))
    broken = GridSolution(
        step=solution.step,
        marginals=solution.marginals,
        couplings=solution.couplings,
        objective=solution.objective + 1,
    )
    with pytest.raises(InvariantViolation):
        broken.validate(inst)
    off_prior = GridSolution(
        step=solution.step,
        marginals=(BeliefDistribution.from_pairs([(pt(1, 0), 1)]),),
        couplings={},
        objective=F(3),
    )
    with pytest.raises(InvariantViolation):
        off_prior.validate(inst)


def test_table_from_signals():
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = SignalingTable.from_signals(
        prior,
        {
            "0": {("a",): F(1)},
            "1": {("a",): F(1, 2), ("b",): F(1, 2)},
        },
    )
    assert table.profiles == ((pt(0, 1),), (pt("2/3", "1/3"),))
    assert table.rows["0"] == (F(0), F(1))
    assert table.rows["1"] == (F(1, 2), F(1, 2))
    table.validate(prior)


def test_table_validation_rejects_bad_rows():
    with pytest.raises(ValidationError):
        SignalingTable(
            space=TWO,
            profiles=((pt(1, 0),),),
            rows={"0": (F(1, 2),), "1": (F(1),)},
        )
    # mislabeled profile: claims full revelation but sends the same label always
    bad = SignalingTable(
        space=TWO,
        profiles=((pt(0, 1),), (pt(1, 0),)),
        rows={"0": (F(0), F(1)), "1": (F(0), F(1))},
    )
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    with pytest.raises(InvariantViolation):
        bad.validate(prior)


def test_table_validation_merges_equal_labels_held_as_different_objects():
    # receiver 1 hears nothing: his label is the prior in both profiles, but
    # as two equal objects, each sent in one state only; only together are
    # they his posterior
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = SignalingTable(
        space=TWO,
        profiles=((pt("1/2", "1/2"), pt(0, 1)), (pt("1/2", "1/2"), pt(1, 0))),
        rows={"0": (F(0), F(1)), "1": (F(1), F(0))},
    )
    assert table.profiles[0][0] is not table.profiles[1][0]
    table.validate(prior)
    # the same split with a label that is not the prior fails
    skewed = SignalingTable(
        space=TWO,
        profiles=((pt("1/3", "2/3"), pt(0, 1)), (pt("1/3", "2/3"), pt(1, 0))),
        rows={"0": (F(0), F(1)), "1": (F(1), F(0))},
    )
    with pytest.raises(InvariantViolation, match="receiver 1"):
        skewed.validate(prior)


def test_table_validation_names_the_receiver_at_fault():
    # receiver 1 keeps the prior correctly; receiver 2 claims to learn the
    # state from a signal that is sent in both states alike
    prior = Prior(TWO, (F(1, 2), F(1, 2)))
    table = SignalingTable(
        space=TWO,
        profiles=((pt("1/2", "1/2"), pt(0, 1)), (pt("1/2", "1/2"), pt(1, 0))),
        rows={"0": (F(1, 2), F(1, 2)), "1": (F(1, 2), F(1, 2))},
    )
    with pytest.raises(InvariantViolation, match=r"receiver 2: .* given label \(0, 1\)"):
        table.validate(prior)


def test_evaluate_no_revelation():
    inst = make_instance(
        [[1, 0], [0, 1]],
        [ThresholdUtility(state="1", cutoff=F(1, 4)), ConstantUtility(F(2))],
        prior=("1/2", "1/2"),
    )
    prior_point = pt("1/2", "1/2")
    table = SignalingTable(
        space=inst.space,
        profiles=((prior_point, prior_point),),
        rows={"0": (F(1),), "1": (F(1),)},
    )
    assert evaluate_table(table, inst) == 3


def test_solve_fptas_epsilon_handling():
    inst = make_instance([[1]], [ConstantUtility(F(1))])
    with pytest.raises(BadEpsilon):
        solve_fptas(inst)
    with pytest.raises(BadEpsilon):
        solve_fptas(inst, F(2))
    solution, _ = solve_fptas(inst, F(1, 3))
    assert solution.step == F(1, 3)


def _three_state_chain(rng):
    """A criterion-5 style chain over three states: piecewise utilities
    on seeded states, breakpoints and prior on the 1/8 grid."""
    utilities = []
    for _ in range(2):
        count = rng.randint(1, 3)
        breaks = sorted(rng.sample([F(i, 8) for i in range(1, 8)], count))
        utilities.append(
            PiecewiseUtility(
                state=rng.choice(("0", "1", "2")),
                breakpoints=tuple(breaks),
                values=tuple(F(rng.randint(0, 6)) for _ in range(count + 1)),
            )
        )
    a, b = sorted(rng.sample(range(1, 8), 2))
    return make_instance(
        [[1, 1], [0, 1]],
        utilities,
        prior=(F(a, 8), F(b - a, 8), F(8 - b, 8)),
        states=("0", "1", "2"),
    )


def _data_instance(name):
    path = Path(__file__).parent / "data" / f"{name}.instance.json"
    return validate_instance(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "make, denominator, digest",
    [
        (lambda: _data_instance("chain2"), 40, "e50e5e52b30bb50e2632caf3a4adf6ea"),
        (lambda: _data_instance("star3"), 20, "f11d60417fc55aa5daa11c451a91f480"),
        (lambda: _three_state_chain(random.Random(8)), 4, "3c3108d1a4d6f5eadbc536963a2f1faa"),
    ],
    ids=["chain2@1/40", "star3@1/20", "three-state-chain@1/4"],
)
def test_grid_program_listing_is_pinned(make, denominator, digest):
    """md5 of dump of the grid program over every grid point:
    objective, every row in order, and the variable names
    var_names formats, as the tuple-keyed builder emitted them.
    On two states that program is only built here (full_grid_lp)."""
    inst = make()
    glp = full_grid_lp(inst, PosteriorGrid(dim=inst.space.size, denominator=denominator))
    assert hashlib.md5(dump(glp.program, var_names(glp)).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Two-state grid programs answered by their potential program

CHAIN2 = [[1, 1], [0, 1]]
CHAIN3 = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
STAR3 = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]


def _two_state_forest(rng, structure):
    """The criterion-5 and grid2 generator: piecewise utilities in state
    1 with 1 to 3 breakpoints on 1/10 and values 0..6, prior on 1/10."""
    high = F(rng.randint(1, 9), 10)
    utilities = []
    for _ in structure:
        count = rng.randint(1, 3)
        breaks = sorted(rng.sample([F(i, 10) for i in range(1, 10)], count))
        values = tuple(F(rng.randint(0, 6)) for _ in range(count + 1))
        utilities.append(PiecewiseUtility(state="1", breakpoints=tuple(breaks), values=values))
    return make_instance(structure, utilities, prior=(1 - high, high))


#: md5 of the repr of each objective, one line per solve, that solve_grid
#: reaches on _two_state_forest(random.Random(seed), STAR3) for seeds
#: 1-40, each at 1/10, 1/20 and 1/40.  Recorded when the coupling program
#: over the breakpoints was solved, and kept since.
STAR3_OBJECTIVES = "8e369b085f222f542a440c0d648c3178"

#: md5 of repr((objective, assignment)) of the same solves, the
#: assignment the solution on the full grid program (_full_assignment):
#: branching vertices, which no CLI document pins beyond star3's.
#: Re-pinned when the potential program replaced the coupling program;
#: 60 of the 120 vertices moved there, with every objective kept.
STAR3_VERTICES = "058b7e66d200a7643848e7fbfee85792"


def test_branching_grid_solves_are_pinned(monkeypatch):
    solved = []
    real_solve = forest.lp.solve

    def solve(program, **kwargs):
        solved.append(real_solve(program, **kwargs))
        return solved[-1]

    monkeypatch.setattr(forest.lp, "solve", solve)
    objectives, vertices = [], []
    for seed in range(1, 41):
        inst = _two_state_forest(random.Random(seed), STAR3)
        for denominator in (10, 20, 40):
            solution = solve_grid(inst, PosteriorGrid(dim=2, denominator=denominator))
            sol = solved[-1]  # the potential program's, which solve_grid reads back
            assert sol.objective == solution.objective
            edges = tuple(solution.couplings)
            assignment = tuple(_full_assignment(solution, edges, denominator))
            objectives.append(repr(sol.objective))
            vertices.append(repr((sol.objective, assignment)))
    assert hashlib.md5("\n".join(objectives).encode()).hexdigest() == STAR3_OBJECTIVES
    assert hashlib.md5("\n".join(vertices).encode()).hexdigest() == STAR3_VERTICES


def _full_assignment(solution, edges, D):
    """A two-state GridSolution on the 1/D lattice as a point of the full
    grid program, numbered as full_grid_lp numbers it, edges its sorted
    covering edges."""
    n, k = D + 1, len(solution.marginals)
    x = [F(0)] * (k * n + len(edges) * n * n)

    def at(w):
        return w[0].numerator * (D // w[0].denominator)

    for i, dist in enumerate(solution.marginals):
        for w, m in zip(dist.points, dist.masses):
            x[i * n + at(w)] = m
    for e, edge in enumerate(edges):
        for (l, r), flow in solution.couplings[edge].flow.items():
            x[k * n + e * n * n + at(l) * n + at(r)] = flow
    return x


def _expanded(lines, g, D):
    """The full two-state grid program's dual that a lattice certificate
    (lines, g) stands for: per receiver its line's values at (1, 0) and
    (0, 1) as Bayes-plausibility duals; per covering edge, with g's
    values h over den S, row-sum duals -h / S, column-sum duals h / S
    and barycenter duals D times h's slope to the right (to the left at
    D) over S; every normalization dual 0."""
    y = [v for line in lines for v in line]
    for h, S in g:
        right = [min(c, D - 1) for c in range(D + 1)]
        y += [F(-v, S) for v in h] + [F(v, S) for v in h]
        y += [F(D * (h[c + 1] - h[c]), S) for c in right]
    return y + [F(0)] * len(lines)


def _lifted(glp, solution, dual):
    """The potential program's answer on the full program: the point of
    solution (read off glp's potential program, its couplings built
    after) in the full numbering, and the dual expanded from the lattice
    certificate of dual."""
    D = glp.grid.denominator
    lines, g = lattice._lattice_dual(glp, dual)
    return _full_assignment(solution, glp.edges, D), _expanded(lines, _on_lattice(glp, g), D)


def _on_lattice(glp, g):
    """A lattice certificate's g, given at glp's breakpoints, at every
    point 0..D of the lattice, linear between breakpoints: per edge the
    integers over S W, W the lcm of the gaps between breakpoints."""
    at = glp.positions
    runs = list(zip(at, at[1:]))
    W = math.lcm(*(r - l for l, r in runs))
    out = []
    for h, S in g:
        H = [
            (h[t] * (r - a) + h[t + 1] * (a - l)) * (W // (r - l))
            for t, (l, r) in enumerate(runs)
            for a in range(l, r)
        ]
        out.append((H + [h[-1] * W], S * W))
    return out


def _breakpoint_proposal(inst, glp):
    """The breakpoint answer for glp's full program (full_grid_lp) as a
    proposal (_breakpoint_run), for a path forest too, whose GridLP
    proposes its closed form instead."""
    return _breakpoint_run(inst, glp)[:2]


def _breakpoint_run(inst, glp):
    """(x, y, points, program, start) for the full program of glp
    (full_grid_lp): the potential program build_grid_lp builds, solved
    through lp.solve from start, the prior split that lattice._prior_split
    proposes without a dual, for a path forest too; its answer on the
    full program (_lifted); and the breakpoints as positions in
    glp.points."""
    bp = build_grid_lp(inst, glp.grid)
    points = bp.positions
    start, dual = lattice._prior_split(inst.prior.values[0] * glp.grid.denominator, inst.k, points)
    assert dual is None
    sol = lp.solve(bp.program, propose=(start, None))
    solution = forest._read_solution(bp, sol.assignment, sol.objective)
    x, y = _lifted(bp, solution, sol.dual)
    return x, y, points, bp.program, start


def _climb_and_compare(inst, denominator):
    """The breakpoint answer's point, its marginals and the couplings
    built from them, proposed as a start without a dual, against plain
    lp.solve on the grid program: the same objective, certified against
    the full program, and the start completes to a feasible basis of the
    full program, so phase 1 is skipped.
    solve_grid, which takes the closed form on path forests, reaches the
    same objective.  Returns the GridLP of the full program."""
    grid = PosteriorGrid(dim=2, denominator=denominator)
    glp = full_grid_lp(inst, grid)
    x, _ = _breakpoint_proposal(inst, glp)
    assert lp._Engine(glp.program)._complete(lp._start(glp.program, x))
    climbed = lp.solve(glp.program, propose=(x, None))
    plain = lp.solve(glp.program)
    assert climbed.objective == plain.objective
    assert lp.check_optimal(glp.program, climbed.assignment, climbed.dual)
    assert solve_grid(inst, grid).objective == plain.objective
    return glp


def test_ladder_matches_the_plain_solve_on_the_generators():
    """Seeded criterion-5 chains at 1/10, 1/20 and 1/40, and grid2's mix
    of chains and three-receiver forests."""
    rng = random.Random(2026)
    for _ in range(3):
        inst = _two_state_forest(rng, CHAIN2)
        for denominator in (10, 20, 40):
            _climb_and_compare(inst, denominator)
    rng = random.Random(7)
    for structure, steps in [(CHAIN2, (10, 20, 40)), (CHAIN3, (10, 20)), (STAR3, (10, 20))]:
        inst = _two_state_forest(rng, structure)
        for denominator in steps:
            _climb_and_compare(inst, denominator)


#: utilities that are not upper-semicontinuous, and a prior off the grid:
#: (utilities, prior, whether the prior lies between grid points)
JUMPS = {
    "strict-thresholds": (
        [
            ThresholdUtility(state="1", cutoff=F(1, 2), strict=True),
            ThresholdUtility(state="1", cutoff=F(3, 10), high=F(2), strict=True),
        ],
        ("7/10", "3/10"),
        False,
    ),
    "point-below-otherwise": (
        [
            PointUtility(point=pt("1/2", "1/2"), value=F(0), otherwise=F(1)),
            ThresholdUtility(state="1", cutoff=F(7, 10)),
        ],
        ("1/2", "1/2"),
        False,
    ),
    "prior-off-the-grid": (
        [
            ThresholdUtility(state="1", cutoff=F(1, 2)),
            ThresholdUtility(state="1", cutoff=F(4, 5), high=F(3)),
        ],
        ("2/3", "1/3"),
        True,
    ),
}


@pytest.mark.parametrize("utilities, prior, off_grid", list(JUMPS.values()), ids=list(JUMPS))
def test_ladder_matches_the_plain_solve_on_jumps_and_off_grid_priors(
    utilities, prior, off_grid, monkeypatch
):
    """Utilities that are not upper-semicontinuous, and a prior of 1/3
    between grid points (the potential program's start then holds two
    points).  The breakpoints bend on the tabulated values, so they need
    no semicontinuity.  The prior off the grid leaves the completed start
    short of optimal on the full program, but the breakpoint answer is
    certified as it is, so on the grid or off it one engine is built, on
    the potential program, and none on the full one; solve_grid, which
    takes the closed form of these chains, builds no engine at all."""
    built = _engines_built(monkeypatch)
    inst = make_instance(CHAIN2, utilities, prior=prior)
    for denominator in (10, 20, 40):
        glp = _climb_and_compare(inst, denominator)
        _, _, points, program, start = _breakpoint_run(inst, glp)
        first = [a for a, v in zip(points, start) if v]  # receiver 1's x block comes first
        assert len(first) == (2 if off_grid else 1)
        built.clear()
        lp.solve(glp.program, propose=_breakpoint_proposal(inst, glp))
        assert len(built) == 1 and built[0].rows == program.rows
        built.clear()
        solve_grid(inst, glp.grid)
        assert built == []


def test_the_lift_certifies_every_two_state_grid(monkeypatch):
    """The theorem behind lattice._lattice_dual: on a two-state grid, the
    potential program's optimal marginals, with each edge's coupling
    built from them, and its dual, with each edge's g = sum_t y_t |a - t|
    of its spread-row duals, are an optimality certificate of the full
    program.  Over GRID_CASES, the JUMPS instances (the prior off the
    grid among them) and seeds 1-3 of the grid2 generator (chains and
    three-receiver forests), the answer is never refused, solve returns
    it as given, and the one engine built is on the potential program;
    at steps up to 1/20, where a plain solve is cheap, the objective is
    the plain solve's.  The steps 1/2 to 1/6 include grids whose
    breakpoints are every point.  The chains, which build_grid_lp
    certifies in closed form, take the breakpoint answer directly
    (_breakpoint_proposal), so the theorem stays covered on them.  The
    potential program starts from the prior split, largest values first.
    The answer on the full program is the potential program's point with
    its couplings and the dual expanded from its lattice certificate
    (_lifted)."""
    built, starts = _engines_built(monkeypatch), []
    real_solve = lp._Engine.solve

    def solve(engine, start=None):
        starts.append(start)
        return real_solve(engine, start)

    monkeypatch.setattr(lp._Engine, "solve", solve)
    whole = 0
    for inst, denominator in _rung_programs():
        glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        x, y, points, program, start = _breakpoint_run(inst, glp)
        whole += len(points) == len(glp.points)
        refused = lp._optimality(glp.program, x, y)[0]
        assert refused is None, f"breakpoint answer refused at 1/{denominator}: {refused}"
        built.clear()
        starts.clear()
        sol = lp.solve(glp.program, propose=_breakpoint_proposal(inst, glp))
        assert len(built) == 1 and built[0].rows == program.rows
        support = {t: v for t, v in enumerate(start) if v}
        assert starts == [sorted(support, key=lambda t: (-support[t], t))]
        assert (sol.assignment, sol.dual) == (tuple(x), tuple(y))
        assert lp.check_optimal(glp.program, sol.assignment, sol.dual)
        if denominator <= 20:
            assert sol.objective == lp.solve(glp.program).objective
    assert whole


def test_the_prior_split_is_the_one_point_over_its_neighbours():
    """The program over the prior's grid point, or the two next to it,
    has one feasible point, so lp.solve on it returns exactly the start
    that lattice._prior_split writes down: over _rung_programs(), the
    solution of the coupling program over those points, its marginals
    carried onto the potential program's columns, is that start."""
    for inst, denominator in _rung_programs():
        glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        _, _, points, program, start = _breakpoint_run(inst, glp)
        p = inst.prior.values[0] * denominator
        near = sorted({math.floor(p), math.ceil(p)})
        near_pts = [glp.points[a] for a in near]
        values = [[u.value_at(w, inst.space) for w in near_pts] for u in inst.utilities.receivers]
        rung = forest._grid_program(inst.prior, glp.edges, denominator, near_pts, values)
        sol = lp.solve(rung)
        k, m, t = inst.k, len(points), [points.index(a) for a in near]
        columns = [i * m + a for i in range(k) for a in t]
        carried = [F(0)] * program.n_vars
        for j, v in zip(columns, sol.assignment[: len(columns)]):
            carried[j] = v
        assert carried == start


@pytest.mark.parametrize("name, denominator", [("chain2", 400), ("star3", 80)])
def test_fine_two_state_grids_need_no_engine_on_the_full_program(name, denominator, monkeypatch):
    """chain2 at 1/400 (161,603 columns) and star3 at 1/80 through
    solve_fptas: its one lp.solve call is on the potential program, and
    its answer, chain2's in closed form and star3's solved from the prior
    split, lifted to the full program (_lifted), is certified there by
    check_optimal; the objective is the 1/40 one, since every breakpoint
    and the prior lie on 1/10.  chain2 builds no engine at all; star3
    builds one, on its potential program."""
    inst = _data_instance(name)
    reference = solve_fptas(inst, F(1, 40))[0].objective
    built, solved = _engines_built(monkeypatch), []
    real_solve = forest.lp.solve

    def solve(program, **kwargs):
        solved.append((program, real_solve(program, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(forest.lp, "solve", solve)
    solution, table = solve_fptas(inst, F(1, denominator))
    [(program, sol)] = solved
    assert built == ([program] if name == "star3" else [])
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    assert program.rows == glp.program.rows
    full = full_grid_lp(inst, glp.grid).program
    assert lp.check_optimal(full, *_lifted(glp, solution, sol.dual))
    assert solution.objective == sol.objective == reference
    assert evaluate_table(table, inst) == reference


def test_a_refused_lift_falls_back_to_completion_and_phase_2(monkeypatch):
    """A real breakpoint answer with one column-sum dual moved down by
    1/den, at a point that is no breakpoint, prices a y column positive,
    so check_optimal refuses it.  solve, handed it as its proposal, then
    completes the breakpoint answer's point on the full program, skips
    phase 1 and runs phase 2 there, to the plain solve's objective,
    certified."""
    inst = _data_instance("chain2")
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=20))
    x, y, points, _, _ = _breakpoint_run(inst, glp)
    n, k = len(glp.points), len(glp.values)
    row = 2 * k + n + min(set(range(n)) - set(points))  # the first edge's column sum there
    y[row] -= F(1, y[row].denominator)
    refused = lp._optimality(glp.program, x, y)[0]
    assert refused is not None and refused.startswith("column "), refused
    completed, phases = [], []
    real_complete, real_run = lp._Engine._complete, lp._Engine._run

    def complete(engine, support):
        completed.append((engine.lp, real_complete(engine, support)))
        return completed[-1][1]

    def run(engine, obj):
        phases.append((engine.lp, 2 if obj is engine.obj else 1))
        return real_run(engine, obj)

    monkeypatch.setattr(lp._Engine, "_complete", complete)
    monkeypatch.setattr(lp._Engine, "_run", run)
    sol = lp.solve(glp.program, propose=(x, y))
    assert completed[-1] == (glp.program, True)
    assert [phase for program, phase in phases if program is glp.program] == [2]
    assert lp.check_optimal(glp.program, sol.assignment, sol.dual)
    assert sol.objective == lp.solve(glp.program).objective


# ---------------------------------------------------------------------------
# Path forests: the grid optimum in closed form, by nested concavification

IDENTITY2 = [[1, 0], [0, 1]]
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
CHAIN_AND_ONE = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
PATH_FORESTS = [[[1]], CHAIN2, CHAIN3, IDENTITY2, IDENTITY3, CHAIN_AND_ONE]


def _path_forest(rng, structures=PATH_FORESTS):
    """A seeded path forest and a step 1/D: one of structures (a single
    receiver, CHAIN2, CHAIN3, identity(2) or (3), or a chain beside a
    singleton); piecewise utilities in either state, with 1 to 3
    breakpoints on 1/7, 1/10 or 1/12 and values in halves and thirds,
    negative ones among them; a prior in twelfths; D in
    {2, 3, 5, 7, 10, 20}, so that breakpoints and prior often lie off
    the grid."""
    structure = rng.choice(structures)
    utilities = []
    for _ in structure:
        d = rng.choice((7, 10, 12))
        count = rng.randint(1, 3)
        breaks = sorted(rng.sample([F(i, d) for i in range(1, d)], count))
        values = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(count + 1))
        state = rng.choice(("0", "1"))
        utilities.append(PiecewiseUtility(state=state, breakpoints=tuple(breaks), values=values))
    q = F(rng.randint(1, 11), 12)
    return make_instance(structure, utilities, prior=(q, 1 - q)), rng.choice((2, 3, 5, 7, 10, 20))


def _grid2_jobs(seed):
    """The (instance, denominator) jobs of a 30 s run of the benchmark's
    grid2 workload with the given seed: nine instances, the fourth a
    three-receiver forest (CHAIN3 or STAR3) at 1/10 and 1/20, the others
    chains at 1/10, 1/20 and 1/40."""
    rng = random.Random(f"grid2:{seed}")
    jobs = []
    for index in range(9):
        if index % 7 == 3:
            inst = _two_state_forest(rng, rng.choice((CHAIN3, STAR3)))
            jobs += [(inst, denominator) for denominator in (10, 20)]
        else:
            inst = _two_state_forest(rng, CHAIN2)
            jobs += [(inst, denominator) for denominator in (10, 20, 40)]
    return jobs


def _closed_form(inst, denominator):
    """(glp, x, y): inst's potential program at 1/denominator and the
    closed form its GridLP proposes for it, with the couplings built from
    its marginals, lifted to the full program (_lifted)."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    x, y = glp.propose
    solution = forest._read_solution(glp, x, None)
    return glp, *_lifted(glp, solution, y)


def _assert_closed_form(inst, denominator, built):
    """The closed form of inst's grid program at 1/denominator: what
    GridLP proposes, accepted by check_optimal on the potential program,
    returned by solve as given with no engine built, and by the lattice
    check; lifted to the full program, accepted by check_optimal there;
    and of the objective of the breakpoint answer, which check_optimal
    accepts too."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    x, y = glp.propose
    assert y is not None
    refused = lp._optimality(glp.program, x, y)[0]
    assert refused is None, f"closed form refused at 1/{denominator}: {refused}"
    built.clear()
    sol = lp.solve(glp.program, propose=glp.propose)
    assert built == [] and (sol.assignment, sol.dual) == (tuple(x), tuple(y))
    lines, g = lattice._lattice_dual(glp, y)
    p = inst.prior.values[0]
    assert lattice._lattice_failure(glp, p, lines, g, sol.objective) is None
    full = full_grid_lp(inst, glp.grid)
    X, Y = _closed_form(inst, denominator)[1:]
    refused = lp._optimality(full.program, X, Y)[0]
    assert refused is None, f"lifted closed form refused at 1/{denominator}: {refused}"
    X, Y = _breakpoint_proposal(inst, full)
    refused = lp._optimality(full.program, X, Y)[0]
    assert refused is None, f"breakpoint answer refused at 1/{denominator}: {refused}"
    assert sol.objective == lp.solve(full.program, propose=(X, Y)).objective


def _one_pass_read_solution(glp, assignment, objective):
    """_read_solution of a coupling program's assignment as it was before
    it read couplings through coupling_flows: the nonzero entries, found
    in one pass and binned by block by their index (i·n + a, then
    k·n + e·n² + a·n + c).  A program of marginals only (the potential
    program) has no flows to bin: each coupling is _curtain's."""
    pts = glp.points
    n = len(pts)
    pairs = [[] for _ in glp.values]
    flows = [{} for _ in glp.edges]
    first_y = len(pairs) * n
    for j in compress(range(len(assignment)), assignment):
        if j < first_y:
            i, a = divmod(j, n)
            pairs[i].append((pts[a], assignment[j]))
        else:
            e, ac = divmod(j - first_y, n * n)
            a, c = divmod(ac, n)
            flows[e][(pts[a], pts[c])] = assignment[j]
    marginals = tuple(map(BeliefDistribution.from_pairs, pairs))
    couplings = {
        (i1, i2): Coupling(source=marginals[i1], target=marginals[i2], flow=flow)
        if len(assignment) > first_y
        else lattice._curtain(marginals[i1], marginals[i2])
        for (i1, i2), flow in zip(glp.edges, flows)
    }
    return GridSolution(glp.grid.step, marginals, couplings, objective)


def test_read_back_matches_one_pass_binning():
    """On GRID_CASES, the JUMPS instances at 1/10, 1/20 and 1/40, the
    grid2 generator's jobs of seeds 1-8 and seeded three-state chains at
    1/4 and 1/8, _read_solution, which builds each marginal directly from
    its block's nonzero entries at the sorted points, reads the same
    solution as the one-pass binning through from_pairs, flows in the
    same order and masses in Fractions; on two states each coupling is
    the one built from its marginals."""
    cases = [((_data_instance(name), denominator), 2) for name, denominator in GRID_CASES]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [((inst, denominator), 2) for denominator in (10, 20, 40)]
    cases += [(job, 2) for seed in range(1, 9) for job in _grid2_jobs(seed)]
    cases += [
        ((_three_state_chain(random.Random(seed)), denominator), 3)
        for seed in (8, 9)
        for denominator in (4, 8)
    ]
    for (inst, denominator), dim in cases:
        glp = build_grid_lp(inst, PosteriorGrid(dim=dim, denominator=denominator))
        sol = lp.solve(glp.program, propose=glp.propose)
        got = forest._read_solution(glp, sol.assignment, sol.objective)
        want = _one_pass_read_solution(glp, sol.assignment, sol.objective)
        assert got == want
        assert all(type(m) is F for dist in got.marginals for m in dist.masses)
        for edge, coupling in got.couplings.items():
            assert list(coupling.flow.items()) == list(want.couplings[edge].flow.items())


def test_read_back_takes_each_flow_from_coupling_flows():
    """_read_solution reads each block of the assignment by slice.  On
    seeded three-state chains at 1/4 and 1/8, each coupling's flow is
    coupling_flows' on its edge, in the same order; on GRID_CASES and the
    grid2 generator's jobs of seeds 1-3, whose programs hold marginals
    only, each coupling is lattice._curtain's of its marginals; and each
    marginal holds its x block's nonzero entries."""
    cases = [(_data_instance(name), denominator, 2) for name, denominator in GRID_CASES]
    cases += [(*job, 2) for seed in (1, 2, 3) for job in _grid2_jobs(seed)]
    cases += [
        (_three_state_chain(random.Random(seed)), denominator, 3)
        for seed in (8, 9)
        for denominator in (4, 8)
    ]
    for inst, denominator, dim in cases:
        glp = build_grid_lp(inst, PosteriorGrid(dim=dim, denominator=denominator))
        sol = lp.solve(glp.program, propose=glp.propose)
        solution = forest._read_solution(glp, sol.assignment, sol.objective)
        pts, x = glp.points, sol.assignment
        assert list(solution.couplings) == list(glp.edges)
        n, k = len(pts), inst.k
        for e, (i1, i2) in enumerate(glp.edges):
            if dim == 2:
                want = lattice._curtain(solution.marginals[i1], solution.marginals[i2]).flow
            else:
                want = coupling_flows(pts, pts, x, k * n + e * n * n)
            assert list(solution.couplings[i1, i2].flow.items()) == list(want.items())
        for i, dist in enumerate(solution.marginals):
            want = {w: v for w, v in zip(pts, x[i * n : (i + 1) * n]) if v}
            assert dict(zip(dist.points, dist.masses)) == want


def test_read_back_couplings_are_checked_as_the_reference_checks_them():
    """Coupling checks its flows in one pass.  On the couplings solve_grid
    reads back on GRID_CASES and the JUMPS instances at 1/10, 1/20 and
    1/40, and on single-entry mutations of them, it accepts and refuses
    as the per-point reference does, with the same first message."""
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in (10, 20, 40)]
    seen = set()
    for inst, denominator in cases:
        solution = solve_grid(inst, PosteriorGrid(dim=2, denominator=denominator))
        for coupling in solution.couplings.values():
            seen |= assert_coupling_check_matches_the_reference(coupling)
    assert seen >= {"negative", "row", "column", "barycenter", "flow"}


def test_path_forests_are_certified_in_closed_form(monkeypatch):
    """The nested concavification certifies the grid program of every
    path forest met here, with the breakpoint answer's objective:
    GRID_CASES' chain2 grids, the JUMPS instances (the prior off the grid
    among them) and all 202 path-forest jobs of the grid2 workload's
    seeds 1-8; its 6 STAR3 jobs propose the breakpoint answer."""
    built = _engines_built(monkeypatch)
    cases = [(_data_instance(name), d) for name, d in GRID_CASES if name == "chain2"]
    for utilities, prior, _ in JUMPS.values():
        cases += [(make_instance(CHAIN2, utilities, prior=prior), d) for d in (10, 20, 40)]
    stars = 0
    for seed in range(1, 9):
        for inst, denominator in _grid2_jobs(seed):
            if inst.structure.matrix == tuple(map(tuple, STAR3)):
                glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
                assert glp.propose[1] is None
                stars += 1
            else:
                cases.append((inst, denominator))
    assert (len(cases) - 3 - 9, stars) == (202, 6)
    for inst, denominator in cases:
        _assert_closed_form(inst, denominator, built)


def test_seeded_path_forests_are_certified_in_closed_form(monkeypatch):
    """400 seeded path forests (_path_forest): single receivers, chains
    of two and three, identity(2) and (3), a chain beside a singleton,
    on coarse and off-grid steps."""
    built = _engines_built(monkeypatch)
    rng = random.Random(2027)
    for _ in range(400):
        _assert_closed_form(*_path_forest(rng), built)


def test_a_path_forest_builds_one_program_and_no_engine(monkeypatch):
    """solve_grid on a two-state grid builds the potential program and no
    other, with k * n columns for k receivers and n breakpoints and no
    coupling among them; a path forest builds no engine, and any other
    forest, such as STAR3, a root with two children, one, on that
    program; none reaches the floating-point start (_Engine._try_crash).
    Over chain2 at 1/40, star3 at 1/20, _rung_programs() and the grid2
    generator's jobs of seeds 1-8."""
    built, programs = _engines_built(monkeypatch), []

    def counted(name):
        real = getattr(forest, name)

        def build(*args):
            programs.append(name)
            return real(*args)

        return build

    for name in ("_grid_program", "_potential_program"):
        monkeypatch.setattr(forest, name, counted(name))
    monkeypatch.setattr(lp._Engine, "_try_crash", lambda engine: pytest.fail("HiGHS reached"))
    cases = [(_data_instance("chain2"), 40), (_data_instance("star3"), 20), *_rung_programs()]
    cases += [job for seed in range(1, 9) for job in _grid2_jobs(seed)]
    for inst, denominator in cases:
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        assert glp.program.n_vars == inst.k * len(glp.points)
        engines = 0 if glp.propose[1] is not None else 1
        programs.clear()
        built.clear()
        solve_grid(inst, glp.grid)
        assert programs == ["_potential_program"]
        assert [program.rows for program in built] == [glp.program.rows] * engines


def _closed_form_couplings(glp, solution):
    """The couplings of a path forest's solution as the closed form split
    them before they were built after the solve: on each covering edge,
    each atom c of the child's marginal stays where f(parent) is
    cav f(parent), and otherwise splits onto the ends of its piece of the
    hull (lattice._split), with f(root) = u(root) and f(child) = u(child)
    + cav f(parent) at the breakpoints (lattice._concave_majorant)."""
    points = glp.positions
    D, parent, f = points[-1], {i2: i1 for i1, i2 in glp.edges}, {}

    def values(i):
        if i not in f:
            V, w = glp.values[i]
            u = [F(w[a], V) for a in points]
            f[i] = u if i not in parent else [v + c for v, c in zip(u, majorant(parent[i])[0])]
        return f[i]

    def majorant(i):
        V = math.lcm(*(v.denominator for v in values(i)))
        h, M, pieces = lattice._concave_majorant(points, [int(v * V) for v in values(i)])
        return [F(v, V * M) for v in h], pieces

    couplings = {}
    for i1, i2 in glp.edges:
        cav, pieces = majorant(i1)
        spread, coarse = solution.marginals[i1], solution.marginals[i2]
        flow = {}
        for w, m in zip(coarse.points, coarse.masses):
            s = points.index(c := w[0] * D)
            split = {c: m} if values(i1)[s] == cav[s] else lattice._split(c, pieces[s], m)
            flow.update({((F(a, D), 1 - F(a, D)), w): v for a, v in split.items()})
        couplings[i1, i2] = Coupling(spread, coarse, flow)
    return couplings


#: A chain on the 1/10 grid whose two couplings differ: receiver 1's
#: utility, 0 at 0, 9/10 and 1 in the first state and -1 elsewhere, is its
#: own f and meets its majorant, the zero line over the hull piece (0, 1),
#: at 9/10 too.  Receiver 2's marginal, 1/2 each at 4/5 and 9/10, then
#: spreads in closed form onto 0 and 1 from 4/5, and in the left curtain
#: onto 0 and 9/10, the narrowest window with that mass and mean.
TENTHS = [pt(F(a, 10), 1 - F(a, 10)) for a in range(11)]
COLLINEAR = make_instance(
    CHAIN2,
    [
        TableUtility(tuple((w, F(-(a not in (0, 9, 10)))) for a, w in enumerate(TENTHS))),
        TableUtility(tuple((w, F(a in (8, 9))) for a, w in enumerate(TENTHS))),
    ],
    prior=("17/20", "3/20"),
)


def test_path_forest_couplings_are_the_closed_form_ones():
    """Each coupling solve_grid builds from its two marginals
    (lattice._curtain) on a path forest is the one the closed form splits
    out along the hull (_closed_form_couplings): over the grid2
    generator's chains of two and three, seeds 0-59 at 1/10, 1/20 and
    1/40, the JUMPS instances, chain2's data instance at steps up to
    1/10^6 and 200 seeded path forests (_path_forest).  On COLLINEAR the
    two differ, both valid, over the same marginals and objective."""
    cases = [
        (_two_state_forest(random.Random(seed), structure), denominator)
        for seed in range(60)
        for structure in (CHAIN2, CHAIN3)
        for denominator in (10, 20, 40)
    ]
    for utilities, prior, _ in JUMPS.values():
        cases += [(make_instance(CHAIN2, utilities, prior=prior), d) for d in (10, 20, 40)]
    cases += [(_data_instance("chain2"), d) for d in (10, 40, 400, 10**6)]
    rng = random.Random(2029)
    cases += [_path_forest(rng) for _ in range(200)]
    for inst, denominator in cases:
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        solution = solve_grid(inst, glp.grid)
        assert solution.couplings == _closed_form_couplings(glp, solution)
    glp = build_grid_lp(COLLINEAR, PosteriorGrid(dim=2, denominator=10))
    solution = solve_grid(COLLINEAR, glp.grid)
    closed = _closed_form_couplings(glp, solution)[0, 1]
    assert (solution.objective, closed.flow) == (1, {
        (pt(0, 1), pt("4/5", "1/5")): F(1, 10),
        (pt(1, 0), pt("4/5", "1/5")): F(2, 5),
        (pt("9/10", "1/10"), pt("9/10", "1/10")): F(1, 2),
    })
    curtain = solution.couplings[0, 1]
    assert curtain != closed and (curtain.source, curtain.target) == (closed.source, closed.target)
    assert (pt("9/10", "1/10"), pt("4/5", "1/5")) in curtain.flow


def test_a_refused_proposal_falls_back_to_exact_solving(monkeypatch):
    """chain2's closed form at 1/20 with one dual entry moved by 1/den:
    a row-sum dual up (its parent's x column then prices positive), a
    column-sum dual down (the y column at (0, 0)), the leaf's first
    Bayes-plausibility dual or a normalization dual (y'b then moves).
    check_optimal refuses each, so solve never returns it: one engine,
    on the full program, completes the proposed point, skips phase 1,
    and reaches the breakpoint answer's objective, certified.  The
    closed form, its couplings built from its marginals, is lifted to the
    full program (_closed_form)."""
    inst = _data_instance("chain2")
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=20))
    n, k = len(glp.points), len(glp.values)
    reference = lp.solve(glp.program, propose=_breakpoint_proposal(inst, glp)).objective
    built = _engines_built(monkeypatch)
    completed = []
    real_complete = lp._Engine._complete

    def complete(engine, support):
        completed.append(real_complete(engine, support))
        return completed[-1]

    monkeypatch.setattr(lp._Engine, "_complete", complete)
    for row, move in [(2 * k, 1), (2 * k + n, -1), (2, 1), (2 * k + 3 * n, 1)]:
        _, x, y = _closed_form(inst, 20)
        y[row] += F(move, y[row].denominator)
        refused = lp._optimality(glp.program, x, y)[0]
        assert refused is not None
        built.clear()
        completed.clear()
        sol = lp.solve(glp.program, propose=(x, y))
        assert built == [glp.program] and completed == [True]
        assert sol.dual != tuple(y) and sol.objective == reference
        assert lp.check_optimal(glp.program, sol.assignment, sol.dual)


def _grid_table(u, inst, denominator):
    return {w: u.value_at(w, inst.space) for w in PosteriorGrid(2, denominator).points()}


def test_private_grid_values_are_sums_of_concavifications():
    """identity(2) and (3): no receiver dominates another, so the grid
    value is the sum of each receiver's concavification over the grid
    points, from beliefs.concavify_single, which knows no hull."""
    rng = random.Random(61)
    for _ in range(30):
        inst, denominator = _path_forest(rng, [IDENTITY2, IDENTITY3])
        oracle = sum(
            concavify_single(_grid_table(u, inst, denominator), inst.prior)
            for u in inst.utilities.receivers
        )
        assert solve_grid(inst, PosteriorGrid(2, denominator)).objective == oracle


def _cav_table(table):
    """The least concave majorant of a two-state table at each of its
    points: concavify_single with the point as the prior, and the value
    itself at (1, 0) and (0, 1), where nothing else is Bayes-plausible."""
    return {
        w: table[w] if 0 in w else concavify_single(table, Prior(TWO, w)) for w in table
    }


def test_chain_grid_values_are_nested_concavifications():
    """CHAIN2, receiver 1 dominating: the grid value is
    concavify_single(u2 + cav u1), each cav from beliefs.concavify_single."""
    rng = random.Random(67)
    for _ in range(30):
        inst, denominator = _path_forest(rng, [CHAIN2])
        u1, u2 = (_grid_table(u, inst, denominator) for u in inst.utilities.receivers)
        cav1 = _cav_table(u1)
        oracle = concavify_single({w: u2[w] + cav1[w] for w in u2}, inst.prior)
        assert solve_grid(inst, PosteriorGrid(2, denominator)).objective == oracle


def test_concave_majorant_is_the_concavification():
    """lattice._concave_majorant of f / S, at every lattice point, is
    cav(f / S) there, as _cav_table finds it with
    beliefs.concavify_single, which knows no hull; each point lies in its
    piece (l, r), whose ends are on f, and the majorant is linear over it."""
    rng = random.Random(71)
    for _ in range(60):
        D, S = rng.randint(1, 12), rng.randint(1, 6)
        f = [rng.randint(-20, 20) for _ in range(D + 1)]
        cav, M, pieces = lattice._concave_majorant(range(D + 1), f)
        table = {pt(F(a, D), 1 - F(a, D)): F(v, S) for a, v in enumerate(f)}
        assert [F(c, S * M) for c in cav] == list(_cav_table(table).values())  # in the order of a
        for a, (l, r) in enumerate(pieces):
            assert l <= a < r or a == r == D
            assert cav[l] == f[l] * M and cav[r] == f[r] * M
            assert (cav[a] - cav[l]) * (r - l) == (cav[r] - cav[l]) * (a - l)


def test_path_certificate_duals_are_the_nested_majorants():
    """On every covering edge of 200 seeded path forests (_path_forest),
    the g of _path_certificate's dual (lattice._lattice_dual: its
    spread-row duals), linear between breakpoints (_on_lattice), is
    cav f(parent) less a linear function at every lattice point, cav
    the least concave majorant over the whole lattice (_lattice_majorant)
    of f(parent) interpolated between breakpoints, with f(root) =
    u(root) and f(child) = u(child) + cav f(parent) (Fractions); and the
    lines' value at the prior is the sum over leaves of cav f(leaf)
    there (concavify_single)."""
    rng = random.Random(73)
    edges_seen = 0
    for _ in range(200):
        inst, D = _path_forest(rng)
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=D))
        _, y = glp.propose
        lines, g = lattice._lattice_dual(glp, y)
        points = glp.positions
        parent = {i2: i1 for i1, i2 in glp.edges}
        cav = {}

        def f(i):  # f(i) at the breakpoints
            V, w = glp.values[i]
            u = [F(w[a], V) for a in points]
            return u if i not in parent else [v + c for v, c in zip(u, majorant(parent[i]))]

        def majorant(i):  # cav f(i) at the breakpoints, from the one on the lattice
            if i not in cav:
                values = f(i)
                V = math.lcm(*(v.denominator for v in values))
                h, M, _ = _lattice_majorant(points, [int(v * V) for v in values])
                cav[i] = [F(h[a], V * M) for a in range(D + 1)]
            return [cav[i][a] for a in points]

        for (i1, _), (h, S) in zip(glp.edges, _on_lattice(glp, g)):
            majorant(i1)
            rest = [F(v, S) - c for v, c in zip(h, cav[i1])]
            assert all(l + r == 2 * c for l, c, r in zip(rest, rest[1:], rest[2:]))
            edges_seen += 1
        p, leaves = inst.prior.values[0], set(range(inst.k)) - set(parent.values())
        nested = sum(concavify_single(dict(zip(glp.points, f(i))), inst.prior) for i in leaves)
        assert sum(t * p + b * (1 - p) for t, b in lines) == nested
    assert edges_seen


def test_a_chain_is_worth_at_most_private_channels():
    """On the grid2 workload's chains (seeds 1-3), the chain's grid value
    is at most that of the same utilities on private channels, which
    equals the sum of the concavifications (public <= chain <= private)."""
    for seed in (1, 2, 3):
        for inst, denominator in _grid2_jobs(seed):
            if inst.k != 2:
                continue
            private = replace(inst, structure=CommunicationStructure(((1, 0), (0, 1))))
            grid = PosteriorGrid(2, denominator)
            chain, apart = (solve_grid(i, grid).objective for i in (inst, private))
            tables = (_grid_table(u, inst, denominator) for u in inst.utilities.receivers)
            assert chain <= apart == sum(concavify_single(t, inst.prior) for t in tables)


@pytest.mark.parametrize(
    "name, denominator, first, second",
    [
        (
            "chain2",
            40,
            ["3/10,7/10"],
            ["0,1", "3/10,7/10", "3/5,2/5", "9/10,1/10", "1,0"],
        ),
        (
            "star3",
            20,
            ["3/5,2/5"],
            ["0,1", "1/5,4/5", "3/10,7/10", "2/5,3/5", "1/2,1/2", "3/5,2/5", "9/10,1/10", "1,0"],
        ),
    ],
)
def test_rung_points_are_pinned(name, denominator, first, second):
    """The potential program's start holds the prior's grid point, and
    its points add (0,1), (1,0) and every point where a receiver's
    utility bends down; its columns are the marginals at its points
    (test_potential_programs_are_built_from_the_full_programs_rows)."""
    inst = _data_instance(name)
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    _, _, points, program, start = _breakpoint_run(inst, glp)
    labels = [",".join(map(str, glp.points[a])) for a in points]
    assert labels == second
    assert [label for label, v in zip(labels, start) if v] == first
    assert program.n_vars == inst.k * len(points)


def test_three_state_grids_have_no_rungs():
    """Past two states there is no proposal, so lp.solve picks the start
    itself: the HiGHS support behind its gate, or the all-artificial one."""
    inst = _three_state_chain(random.Random(8))
    glp = build_grid_lp(inst, PosteriorGrid(dim=3, denominator=4))
    assert glp.propose is None


def _rung_programs():
    """(instance, denominator) of two-state grids to answer by their
    potential program, path forests among them: the five
    GRID_CASES, seeded grid2-generator chains and three-receiver
    forests, also at the coarse steps 1/2 to 1/6, and the JUMPS
    instances."""
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    coarse = (2, 3, 4, 5, 6)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for structure, steps in [(CHAIN2, (10, 20, 40)), (CHAIN3, (10, 20)), (STAR3, (10, 20))]:
            inst = _two_state_forest(rng, structure)
            cases += [(inst, denominator) for denominator in coarse + steps]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in (10, 20, 40)]
    return cases


def test_potential_programs_are_built_from_the_full_programs_rows():
    """The potential program over a subset of the points is what an
    independent builder from the Fraction rows makes: the full program
    restricted to the x columns at those points, its objective and its
    Bayes-plausibility rows, without its normalization rows, which those
    add up to, and after them, per covering edge (i1, i2) and interior
    point t, the row sum_a (x_i1(a) - x_i2(a)) |a - t| >= 0; the same
    variables, objective and rows, in the same order."""
    for inst, denominator in _rung_programs():
        glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        _, _, points, program, _ = _breakpoint_run(inst, glp)
        m, k = len(points), inst.k
        columns = [i * len(glp.points) + a for i in range(k) for a in points]
        restricted = _restriction(glp.program, columns)
        rows, spread = restricted.constraints, []
        for i1, i2 in glp.edges:
            for t in points[1:-1]:
                row = {i1 * m + s: F(abs(a - t)) for s, a in enumerate(points) if a != t}
                row.update({i2 * m + s: F(-abs(a - t)) for s, a in enumerate(points) if a != t})
                spread.append((row, lp.GE, F(0)))
        constraints = [*rows[: 2 * k], *spread]
        oracle = rational_program(k * m, restricted.objective, constraints)
        assert program.n_vars == oracle.n_vars == k * m
        assert (program.obj, program.obj_den) == (oracle.obj, oracle.obj_den)
        assert program.rows == oracle.rows


def _rank(program):
    """The exact rank of program's rows, by Gaussian elimination in
    Fractions: each row is reduced by the kept rows until its lowest
    column is no kept row's, and kept there, or it vanishes."""
    kept = {}
    for row, _, _ in program.constraints:
        row = dict(row)
        while row and (j := min(row)) in kept:
            pivot, f = kept[j], row[j] / kept[j][j]
            for c, v in pivot.items():
                if x := row.get(c, 0) - f * v:
                    row[c] = x
                else:
                    row.pop(c, None)
        if row:
            kept[j] = row
    return len(kept)


def test_potential_programs_have_full_row_rank():
    """On two states each receiver's Bayes-plausibility rows add up to
    its normalization row, so the potential program leaves it out: over
    _rung_programs(), every potential program's rows are independent."""
    for inst, denominator in _rung_programs():
        program = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator)).program
        assert _rank(program) == program.n_constraints, f"rank deficient at 1/{denominator}"


def test_normalization_rows_leave_the_solve_unchanged():
    """The potential program with each receiver's normalization row
    appended, as it was once built, solved from the same proposal (its
    dual, if any, given a 0 on each appended row): over
    _rung_programs(), the same assignment and objective, the same duals
    on the shared rows, and a 0 dual on each appended row."""
    for inst, denominator in _rung_programs():
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        program, k, m = glp.program, inst.k, len(glp.points)
        normalization = [(dict.fromkeys(range(i * m, i * m + m), 1), lp.EQ, 1, 1) for i in range(k)]
        padded = lp.LinearProgram(
            program.n_vars, (program.obj, program.obj_den), [*program.rows, *normalization]
        )
        x, y = glp.propose
        sol = lp.solve(program, propose=glp.propose)
        old = lp.solve(padded, propose=(x, None if y is None else [*y, *[F(0)] * k]))
        assert (sol.assignment, sol.objective) == (old.assignment, old.objective)
        assert sol.dual == old.dual[:-k] and old.dual[-k:] == (0,) * k


def test_a_grid_solve_builds_once_and_solves_once(monkeypatch):
    """solve_grid and solve_fptas build through one forest.build_grid_lp
    call and solve through one forest.lp.solve call: the call pattern
    that the benchmark's read-back replay swaps out.  On two states that
    call solves the potential program, and the lattice certificate
    needs no other (test_a_replayed_solve_is_read_back_and_certified)."""
    calls = []
    real_build, real_solve = forest.build_grid_lp, forest.lp.solve

    def build(*args, **kwargs):
        calls.append("build")
        return real_build(*args, **kwargs)

    def solve(*args, **kwargs):
        calls.append("solve")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(forest, "build_grid_lp", build)
    monkeypatch.setattr(forest.lp, "solve", solve)
    two_state = _data_instance("chain2")
    three_state = _three_state_chain(random.Random(8))
    runs = [
        lambda: solve_grid(two_state, PosteriorGrid(dim=2, denominator=20)),
        lambda: solve_grid(three_state, PosteriorGrid(dim=3, denominator=4)),
        lambda: solve_fptas(two_state, F(1, 10)),
        lambda: solve_fptas(three_state, F(1, 4)),
    ]
    for run in runs:
        calls.clear()
        run()
        assert calls == ["build", "solve"]


@pytest.mark.parametrize("name, denominator", [("chain2", 40), ("star3", 20)])
def test_a_replayed_solve_is_read_back_and_certified(name, denominator, monkeypatch):
    """The benchmark's read-back replay, rebuilt here: forest.build_grid_lp
    gives a GridLP built beforehand, and forest.lp is a stand-in with
    solve and OPTIMAL only, whose solve returns a solution made
    beforehand.  solve_grid on a path forest and on star3 calls each
    stand-in once and reads back, and certifies on the lattice, the
    solution a real solve_grid gives."""
    inst = _data_instance(name)
    grid = PosteriorGrid(dim=2, denominator=denominator)
    glp = build_grid_lp(inst, grid)
    solution = lp.solve(glp.program, propose=glp.propose)
    calls = []

    class ReplayLP:
        OPTIMAL = lp.OPTIMAL

        @staticmethod
        def solve(program, *args, **kwargs):
            calls.append("solve")
            return solution

    def build(instance, grid):
        calls.append("build")
        return glp

    expected = solve_grid(inst, grid)
    monkeypatch.setattr(forest, "build_grid_lp", build)
    monkeypatch.setattr(forest, "lp", ReplayLP)
    assert solve_grid(inst, grid) == expected
    assert calls == ["build", "solve"]


# ---------------------------------------------------------------------------
# Two-state lattice certificates: no coupling program on the full grid


def _lattice_accepts(inst, glp, full, lines, g, x):
    """Whether the lattice certificate (lines, g) of glp's potential
    program proves x, a point of full's program (full_grid_lp), optimal:
    x read back, its flows among it (_one_pass_read_solution), into a
    GridSolution of value c.x and validated, then
    lattice._lattice_failure."""
    program = full.program
    objective = sum((F(a, program.obj_den) * x[j] for j, a in program.obj.items()), F(0))
    try:
        solution = _one_pass_read_solution(full, x, objective)
        solution._validate(inst, full.edges)
    except (InvariantViolation, ValidationError):
        return False
    p = inst.prior.values[0]
    return lattice._lattice_failure(glp, p, lines, g, objective) is None


def _lattice_certificate(inst, denominator):
    """(glp, solution, lines, g): solve_grid's potential program, the
    solution it reads back and the lattice certificate of its dual."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    sol = lp.solve(glp.program, propose=glp.propose)
    solution = forest._read_solution(glp, sol.assignment, sol.objective)
    return glp, solution, *lattice._lattice_dual(glp, sol.dual)


def _mutations(rng, lines, g, x):
    """Single-entry mutations of the certificate (lines, g) and the point
    x: a line's value at (1, 0) or (0, 1) moved up and one moved down by
    1/its denominator; four values of g, at breakpoints, moved by one
    unit of its denominator; a nonzero entry of x moved by 1/its
    denominator, and a zero entry given that mass."""
    out = []
    for move in (1, -1):
        i, side = rng.randrange(len(lines)), rng.randrange(2)
        bent = [list(line) for line in lines]
        bent[i][side] += F(move, bent[i][side].denominator)
        out.append(([tuple(line) for line in bent], g, x))
    for _ in range(4 if g else 0):
        e = rng.randrange(len(g))
        h, S = g[e]
        a = rng.randrange(len(h))
        bent = h[:a] + [h[a] + rng.choice((1, -1))] + h[a + 1 :]
        out.append((lines, g[:e] + [(bent, S)] + g[e + 1 :], x))
    support = [j for j, v in enumerate(x) if v]
    j = rng.choice(support)
    moved = F(rng.choice((1, -1)), x[j].denominator)
    for at in (j, rng.choice([t for t, v in enumerate(x) if not v])):
        out.append((lines, g, x[:at] + [x[at] + moved if at == j else abs(moved)] + x[at + 1 :]))
    return out


def test_the_lattice_check_agrees_with_check_optimal_on_the_full_program():
    """The lattice check (validation of the point read back, then
    lattice._lattice_failure) accepts exactly when lp.check_optimal
    accepts on the full program with the dual expanded from the
    certificate (_expanded).  Over GRID_CASES, the JUMPS instances at
    1/10, 1/20 and 1/40, and every job of the grid2 workload's seeds 1-8,
    on solve_grid's own certificate, which both accept, and on seeded
    single-entry mutations of it (_mutations), which both sometimes
    accept."""
    rng = random.Random(79)
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in (10, 20, 40)]
    cases += [job for seed in range(1, 9) for job in _grid2_jobs(seed)]
    verdicts = []
    for inst, D in cases:
        glp, solution, lines, g = _lattice_certificate(inst, D)
        full = full_grid_lp(inst, glp.grid)
        x = _full_assignment(solution, glp.edges, D)
        assert lp.check_optimal(full.program, x, _expanded(lines, _on_lattice(glp, g), D))
        assert _lattice_accepts(inst, glp, full, lines, g, x)
        for bent_lines, bent_g, bent_x in _mutations(rng, lines, g, x):
            y = _expanded(bent_lines, _on_lattice(glp, bent_g), D)
            accepted = lp.check_optimal(full.program, bent_x, y)
            assert _lattice_accepts(inst, glp, full, bent_lines, bent_g, bent_x) == accepted
            verdicts.append(accepted)
    assert len(cases) == 222 and set(verdicts) == {True, False}


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_a_refused_lattice_certificate_names_its_failing_part(name, monkeypatch):
    """lattice._lattice_failure names each kind of failure, each made by a
    single-entry mutation of solve_grid's certificate at 1/20: a value of
    g lowered by one unit at a breakpoint where g is linear, so that it
    is not concave there; a line's value at (0, 1) moved down (the
    receiver is then priced above its line where its price met it, found
    here in Fractions over the whole lattice) or up (the lines' value at
    the prior then exceeds c.x).  solve_grid handed a dual that makes
    such a certificate raises InvariantViolation with the name."""
    inst = _data_instance(name)
    glp, solution, lines, g = _lattice_certificate(inst, 20)
    p, c = inst.prior.values[0], solution.objective
    check = partial(lattice._lattice_failure, glp, p)
    assert check(lines, g, c) is None
    (h, S), (i1, i2) = g[0], glp.edges[0]
    at = glp.positions
    t = next(
        t
        for t in range(1, len(at) - 1)
        if (h[t] - h[t - 1]) * (at[t + 1] - at[t]) == (h[t + 1] - h[t]) * (at[t] - at[t - 1])
    )
    bent = [(h[:t] + [h[t] - 1] + h[t + 1 :], S)] + g[1:]
    label = format_label((F(at[t], 20), F(20 - at[t], 20)))
    assert check(lines, bent, c) == f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {label}"
    whole = full_grid_lp(inst, glp.grid).values
    for i, (top, bottom) in enumerate(lines):
        low = bottom - F(1, bottom.denominator)
        moved = lines[:i] + [(top, low)] + lines[i + 1 :]
        prices = [
            u - sum(F(h[a], S) for (h, S), (j, _) in zip(_on_lattice(glp, g), glp.edges) if j == i)
            + sum(F(h[a], S) for (h, S), (_, j) in zip(_on_lattice(glp, g), glp.edges) if j == i)
            for a, u in enumerate(whole[i])
        ]
        above = next(a for a, v in enumerate(prices) if v > (top * a + low * (20 - a)) / 20)
        label = format_label((F(above, 20), F(20 - above, 20)))
        assert check(moved, g, c) == f"receiver {i + 1} is priced above its line at {label}"
        high = bottom + F(1, bottom.denominator)
        value = sum(t * p + b * (1 - p) for t, b in lines[:i] + [(top, high)] + lines[i + 1 :])
        failure = f"the lines' value {value} at the prior differs from c.x = {c}"
        assert check(lines[:i] + [(top, high)] + lines[i + 1 :], g, c) == failure
    # the same, raised by solve_grid: receiver 1's second Bayes-plausibility dual moved
    real_solve = lp.solve
    for move, part in [(-1, "receiver 1 is priced above its line"), (1, "the lines' value")]:

        def solve(program, **kwargs):
            sol = real_solve(program, **kwargs)
            dual = list(sol.dual)
            dual[1] += F(move, dual[1].denominator)
            return replace(sol, dual=tuple(dual))

        monkeypatch.setattr(forest.lp, "solve", solve)
        with pytest.raises(InvariantViolation, match=f"lattice certificate failed: {part}"):
            solve_grid(inst, PosteriorGrid(dim=2, denominator=20))


# ---------------------------------------------------------------------------
# The lattice scans that the utilities' kinks and the breakpoint
# certificate replace, kept as oracles


def _scan_breakpoints(p, values):
    """The breakpoints of a two-state grid found by scanning every lattice
    point: 0, D, p (prior times D) or the two next to it, and every a
    where some utility bends down, u(a-1) - 2u(a) + u(a+1) < 0,
    values[i][a] being receiver i's utility at a/D."""
    D = len(values[0]) - 1
    bends = {0, D, math.floor(p), math.ceil(p)}
    for u in values:
        V = math.lcm(*(v.denominator for v in u))
        u = [v.numerator * (V // v.denominator) for v in u]
        bends.update(a for a, l, c, r in zip(count(1), u, u[1:], u[2:]) if l + r < 2 * c)
    return sorted(bends)


def _lattice_majorant(xs, values):
    """The least concave majorant of the points (xs[t], values[t]), xs
    increasing integers, listed at every integer from xs[0] to xs[-1]:
    (M times it, M, the piece (l, r) of each t as positions in xs), M
    the lcm of the hull's piece lengths."""
    hull = []
    for t, (x, v) in enumerate(zip(xs, values)):
        while len(hull) > 1 and (
            (values[hull[-1]] - values[hull[-2]]) * (x - xs[hull[-2]])
            <= (v - values[hull[-2]]) * (xs[hull[-1]] - xs[hull[-2]])
        ):
            hull.pop()
        hull.append(t)
    M = math.lcm(*(xs[r] - xs[l] for l, r in zip(hull, hull[1:])))
    majorant = []
    pieces = [(hull[-2], hull[-1])] * len(xs)
    for l, r in zip(hull, hull[1:]):
        start, width = values[l] * M, xs[r] - xs[l]
        step = (values[r] - values[l]) * (M // width)
        majorant += range(start, values[r] * M, step) if step else [start] * width
        pieces[l:r] = [(l, r)] * (r - l)
    majorant.append(values[-1] * M)
    return majorant, M, pieces


def _scan_dual(glp, dual):
    """The lattice certificate (lines, g) of a dual of glp's potential
    program with each g listed at every point 0..D: each receiver's line
    its two Bayes-plausibility duals; sum_t y_t |a - t| at each a, y_t
    the edge's spread-row duals at the interior breakpoints t, in
    integers over their common denominator."""
    k, at = len(glp.values), glp.positions
    n = len(at) - 2
    lines = [(dual[2 * i], dual[2 * i + 1]) for i in range(k)]
    g = []
    for e in range(len(glp.edges)):
        ys = dual[2 * k + e * n : 2 * k + e * n + n]
        S = math.lcm(*(v.denominator for v in ys))
        w = [v.numerator * (S // v.denominator) for v in ys]
        g.append(([sum(c * abs(a - t) for c, t in zip(w, at[1:])) for a in range(at[-1] + 1)], S))
    return lines, g


def _scan_failure(values, edges, prior, lines, g, objective):
    """The first failing part of a lattice certificate (lines, g), g
    listed at every point 0..D, found by checking every lattice point:
    g's concavity, then each receiver's price against its line, in
    integers over one denominator per receiver, then the lines' value at
    the prior; values[i][a] is receiver i's utility at a/D."""
    D = len(values[0]) - 1
    for (i1, i2), (h, _) in zip(edges, g):
        bent = next((a for a, l, c, r in zip(count(1), h, h[1:], h[2:]) if l + r > 2 * c), None)
        if bent is not None:
            label = lattice._lattice_label(bent, D)
            return f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {label}"
    for i, (u, (top, bottom)) in enumerate(zip(values, lines)):
        terms = [(-1 if i1 == i else 1, g[e]) for e, (i1, i2) in enumerate(edges) if i in (i1, i2)]
        T = math.lcm(*(v.denominator for v in (*u, top, bottom)), *(S for _, (_, S) in terms))
        price = [v.numerator * (T // v.denominator) * D for v in u]
        for sign, (h, S) in terms:
            price = [v + sign * (T // S) * D * x for v, x in zip(price, h)]
        low = bottom.numerator * (T // bottom.denominator)
        rise = top.numerator * (T // top.denominator) - low
        above = next((a for a, v in enumerate(price) if v > low * D + rise * a), None)
        if above is not None:
            label = lattice._lattice_label(above, D)
            return f"receiver {i + 1} is priced above its line at {label}"
    value = sum((top * prior + bottom * (1 - prior) for top, bottom in lines), F(0))
    if value != objective:
        return f"the lines' value {value} at the prior differs from c.x = {objective}"
    return None


class _Wave(ReceiverUtility):
    """A utility that defines value_at alone, so names no kinks: bumps of
    height 0 to 6 thirds, in no pattern a kink would catch."""

    def value_at(self, point, space):
        return F((point[0] * 60).numerator % 7, 3)


#: utilities that bend beside their kinks or name none: (utilities,
#: prior, steps)
KINKS = {
    "thresholds-that-drop-on-the-lattice": (
        [
            ThresholdUtility(state="0", cutoff=F(1, 2), high=F(0), low=F(1)),
            ThresholdUtility(state="1", cutoff=F(3, 10), high=F(-1), low=F(2)),
        ],
        ("2/5", "3/5"),
        (5, 7, 10, 20, 40),
    ),
    "keyed-on-either-state": (
        [
            PiecewiseUtility(state="0", breakpoints=(F(1, 5), F(2, 3)), values=(F(1), F(3), F(0))),
            PiecewiseUtility(state="1", breakpoints=(F(1, 4), F(1, 2)), values=(F(2), F(0), F(4))),
        ],
        ("1/3", "2/3"),
        (5, 7, 10, 20, 40),
    ),
    "a-table": (
        [
            TableUtility(tuple((pt(F(a, 20), F(20 - a, 20)), F(a * a % 9, 2)) for a in range(21))),
            LinearUtility(coeffs=(F(1), F(-1))),
        ],
        ("3/5", "2/5"),
        (4, 5, 10, 20),
    ),
    "value-at-only": (
        [_Wave(), PointUtility(point=pt("3/10", "7/10"), value=F(2))],
        ("1/2", "1/2"),
        (5, 7, 10, 20, 40),
    ),
    "points-and-constants": (
        [
            PointUtility(point=pt("1/3", "2/3"), value=F(3), otherwise=F(1)),
            PointUtility(point=pt("3/5", "2/5"), value=F(-1), otherwise=F(1, 2)),
        ],
        ("1/4", "3/4"),
        (3, 5, 10, 20, 40),
    ),
}


def _kink_cases():
    """(instance, denominator): GRID_CASES, the JUMPS instances at 1/10,
    1/20 and 1/40, the grid2 generator's jobs of seeds 1-8, and the
    KINKS chains at their steps."""
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in (10, 20, 40)]
    cases += [job for seed in range(1, 9) for job in _grid2_jobs(seed)]
    for utilities, prior, steps in KINKS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in steps]
    return cases


def _tabulated(inst, denominator):
    """Every receiver's utility at every point of the two-state lattice."""
    pts = PosteriorGrid(2, denominator).points()
    return [[u.value_at(w, inst.space) for w in pts] for u in inst.utilities.receivers]


def test_kinks_give_the_breakpoints_of_the_lattice_scan():
    """lattice._breakpoints looks each utility up only beside its kinks,
    and finds the breakpoints the scan of every lattice point finds
    (_scan_breakpoints) over _kink_cases(): a threshold whose high is
    below its low at a cutoff on the lattice, utilities keyed on state
    "0" and on "1", a TableUtility and a utility that defines value_at
    alone among them.  Each value it looks up is the tabulated one,
    between neighbouring positions looked up the tabulated utility is
    linear (which lattice._lattice_failure relies on), and a utility that
    names no kinks is looked up everywhere.  On the KINKS chains,
    solve_grid, certified on the lattice, reaches the full program's
    optimum."""
    for inst, D in _kink_cases():
        whole = _tabulated(inst, D)
        p = inst.prior.values[0] * D
        at, pts, values = lattice._breakpoints(inst.utilities.receivers, inst.space, D, p)
        assert at == _scan_breakpoints(p, whole)
        assert pts == tuple(PosteriorGrid(2, D).points()[a] for a in at)
        for u, (V, v), table in zip(inst.utilities.receivers, values, whole):
            assert all(table[a] == F(x, V) for a, x in v.items())
            looked = sorted(v)
            assert list(v) == looked
            for l, r in zip(looked, looked[1:]):
                rise = table[r] - table[l]
                assert all((table[a] - table[l]) * (r - l) == rise * (a - l) for a in range(l, r))
            if u.kinks(inst.space) is None:
                assert looked == list(range(D + 1))
    for utilities, prior, steps in KINKS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        for denominator in steps[:3]:
            grid = PosteriorGrid(dim=2, denominator=denominator)
            full = full_grid_lp(inst, grid)
            assert solve_grid(inst, grid).objective == lp.solve(full.program).objective


def test_a_table_off_the_step_is_refused_at_its_first_missing_point():
    """A TableUtility on the 1/20 lattice, solved at 1/40: the first
    lattice point it lacks is named, as tabulating every point names it."""
    utilities, prior, _ = KINKS["a-table"]
    inst = make_instance(CHAIN2, utilities[::-1], prior=prior)
    with pytest.raises(GridMismatch) as tabulated:
        _tabulated(inst, 40)
    with pytest.raises(GridMismatch, match=re.escape(str(tabulated.value))):
        solve_fptas(inst, F(1, 40))


@pytest.mark.parametrize("order", [1, -1])
def test_a_table_beside_a_kinked_utility_is_refused_before_the_fine_lattice(order, monkeypatch):
    """A TableUtility on the 1/20 lattice beside a PiecewiseUtility, in
    either receiver order, solved at 1/40 and at 1/10^6: solve_fptas
    names the table's first missing point, and, since a utility that
    names no kinks is looked up first, it looks the piecewise utility up
    no more often at 1/10^6 than at 1/40 and lists no lattice."""
    table = KINKS["a-table"][0][0]
    piecewise = PiecewiseUtility(state="1", breakpoints=(F(1, 4), F(1, 2)), values=(F(2), F(0), F(4)))
    inst = make_instance(CHAIN2, [table, piecewise][::order], prior=("3/5", "2/5"))
    looked, listed = [], []
    real_value_at = PiecewiseUtility.value_at

    def value_at(self, point, space):
        looked.append(point)
        return real_value_at(self, point, space)

    monkeypatch.setattr(PiecewiseUtility, "value_at", value_at)
    monkeypatch.setattr(PosteriorGrid, "points", lambda grid: listed.append(grid) or ())
    counts = []
    for denominator in (40, 10**6):
        with pytest.raises(GridMismatch) as missing:
            table.value_at(pt(F(1, denominator), F(denominator - 1, denominator)), inst.space)
        looked.clear()
        with pytest.raises(GridMismatch, match=re.escape(str(missing.value))):
            solve_fptas(inst, F(1, denominator))
        counts.append(len(looked))
    assert counts[1] <= counts[0]
    assert listed == []


def test_the_breakpoint_certificate_reads_as_the_lattice_scan():
    """lattice._lattice_dual's g, given at the breakpoints, is, linear
    between them (_on_lattice), the g of the scan's dual over 0..D
    (_scan_dual).  lattice._lattice_failure, which checks g at the
    breakpoints and each price where its utility was looked up, gives
    the verdict of _scan_failure, which checks every lattice point: None
    or the same named failure.  Over _kink_cases(), on solve_grid's
    certificate, on its single-entry mutations (_mutations), and on each
    line's value at (1, 0) or (0, 1) lowered by a seeded amount, which
    sometimes first crosses a price between two positions looked up, so
    that the first lattice point above the line is found in closed form."""
    rng = random.Random(83)
    verdicts, between = set(), 0
    for inst, D in _kink_cases():
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=D))
        sol = lp.solve(glp.program, propose=glp.propose)
        lines, g = lattice._lattice_dual(glp, sol.dual)
        scan_lines, scan_g = _scan_dual(glp, sol.dual)
        assert lines == scan_lines
        for (h, S), (H, T) in zip(_on_lattice(glp, g), scan_g, strict=True):
            assert [F(v, S) for v in h] == [F(v, T) for v in H]
        whole, p = _tabulated(inst, D), inst.prior.values[0]
        program = glp.program
        bent = _mutations(rng, lines, g, list(sol.assignment))
        for i, side in ((i, side) for i in range(len(lines)) for side in (0, 1)):
            lowered = [list(line) for line in lines]
            lowered[i][side] -= F(rng.randint(1, 30), rng.randint(1, 30))
            bent.append(([tuple(line) for line in lowered], g, sol.assignment))
        for bent_lines, bent_g, x in bent:
            objective = sum((F(a, program.obj_den) * x[j] for j, a in program.obj.items()), F(0))
            got = lattice._lattice_failure(glp, p, bent_lines, bent_g, objective)
            on_lattice = _on_lattice(glp, bent_g)
            want = _scan_failure(whole, glp.edges, p, bent_lines, on_lattice, objective)
            assert got == want
            verdicts.add(got and got.split(" ")[0])
            if got and "priced above" in got:
                label = got.rsplit(" at ", 1)[1]
                looked = {lattice._lattice_label(a, D) for _, w in glp.values for a in w}
                between += label not in looked
    assert verdicts == {None, "g", "receiver", "the"} and between


def test_solution_validate_refuses_points_off_the_lattice():
    """A marginal or coupling point off the lattice of the solution's
    step is refused, naming the receiver or the covering edge: the
    lattice certificate proves optimality among lattice-supported points
    only.  The worked chain at step 1/4 passes; one point of the coarse
    marginal moved to 1/3 fails, and so does a coupling whose coarse side
    is a Bayes-plausible distribution on 1/3."""
    inst, spread, coarse, coupling = _worked_chain_solution()
    GridSolution(F(1, 4), (spread, coarse), {(0, 1): coupling}, F(1)).validate(inst)
    half = F(1, 2)
    moved = BeliefDistribution.from_pairs([(pt("3/4", "1/4"), half), (pt("1/3", "2/3"), half)])
    off = GridSolution(F(1, 4), (spread, moved), {(0, 1): coupling}, F(1))
    off_lattice = r"has the point \(1/3, 2/3\) off the 1/4 lattice"
    with pytest.raises(InvariantViolation, match="receiver 2 " + off_lattice):
        off.validate(inst)
    thirds = BeliefDistribution.from_pairs([(pt("2/3", "1/3"), half), (pt("1/3", "2/3"), half)])
    stray = GridSolution(F(1, 4), (spread, coarse), {(0, 1): mps_coupling(spread, thirds)}, F(1))
    with pytest.raises(InvariantViolation, match=r"coupling \(1,2\) " + off_lattice):
        stray.validate(inst)


def test_off_lattice_agrees_with_division_by_the_step():
    """GridSolution._off_lattice, a divisibility test on the support in
    integers, names the first point that division by the step names,
    for steps that are not unit fractions too (x / (n/d) an integer)."""
    rng = random.Random(3906)
    verdicts = set()
    for _ in range(400):
        n, d = rng.randint(1, 4), rng.randint(2, 24)
        step = F(n, d)
        e = rng.choice([d, 2 * d, d // math.gcd(d, n) or 1, rng.randint(2, 30)])
        weights = rng.sample(range(e + 1), min(e + 1, rng.randint(1, 4)))
        points = sorted({pt(F(a, e), F(e - a, e)) for a in weights})
        dist = BeliefDistribution(tuple(points), tuple(F(1, len(points)) for _ in points))
        want = next(
            (f"the point {format_label(w)} off the {step} lattice"
             for w in dist.points if any((x / step).denominator != 1 for x in w)),
            None,
        )
        got = GridSolution(step, (dist,), {}, F(0))._off_lattice(dist)
        assert got == want, (step, points)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def _copied_solution(solution):
    """solution with every point a fresh object: each marginal's support
    copied, and each coupling's flow keyed by other copies, so no point
    object is shared and only equality finds one."""
    marginals = tuple(
        BeliefDistribution(tuple(map(_copied, d.points)), d.masses) for d in solution.marginals
    )
    couplings = {
        (i1, i2): Coupling(
            marginals[i1],
            marginals[i2],
            {(_copied(l), _copied(r)): f for (l, r), f in c.flow.items()},
        )
        for (i1, i2), c in solution.couplings.items()
    }
    return GridSolution(solution.step, marginals, couplings, solution.objective)


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_equal_copies_of_points_give_the_same_couplings_and_table(name):
    """Couplings and the table extraction find points by object first and
    by value when that misses: a solution whose points are all equal
    copies, none shared, validates and gives the same couplings and the
    same table as solve_fptas's own, whose points are shared objects."""
    inst = _data_instance(name)
    for denominator in (10, 20):
        solution, table = solve_fptas(inst, F(1, denominator))
        copied = _copied_solution(solution)
        assert copied == solution
        assert {e: c.flow for e, c in copied.couplings.items()} == {
            e: c.flow for e, c in solution.couplings.items()
        }
        assert extract_table(copied, inst) == table


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_fine_steps_build_no_large_program(name, monkeypatch):
    """solve_fptas at 1/10,000, whose full grid program would have about
    10^8 columns per covering edge, builds no LinearProgram above 10^4
    columns: only the potential program; the objective is the 1/40 one,
    since every breakpoint and the prior lie on 1/10."""
    inst = _data_instance(name)
    reference = solve_fptas(inst, F(1, 40))[0].objective
    sizes = []
    real = lp.LinearProgram.__init__

    def init(program, n_vars, objective, rows):
        sizes.append(n_vars)
        real(program, n_vars, objective, rows)

    monkeypatch.setattr(lp.LinearProgram, "__init__", init)
    solution, table = solve_fptas(inst, F(1, 10_000))
    assert sizes and max(sizes) <= 10_000
    assert solution.step == F(1, 10_000)
    assert solution.objective == evaluate_table(table, inst) == reference


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_fine_steps_look_up_no_more_utility_values(name, monkeypatch):
    """Step independence, counted: solve_fptas looks the utilities up no
    more often at 1/10^6 than at 1/40, and never lists the lattice
    (PosteriorGrid.points), since the breakpoints come from the kinks
    and the certificate checks the positions looked up alone."""
    inst = _data_instance(name)
    looked, listed = [], []
    real_value_at = PiecewiseUtility.value_at

    def value_at(self, point, space):
        looked.append(point)
        return real_value_at(self, point, space)

    def points(self):
        listed.append(self)
        return ()

    monkeypatch.setattr(PiecewiseUtility, "value_at", value_at)
    monkeypatch.setattr(PosteriorGrid, "points", points)
    counts = []
    for denominator in (40, 10**6):
        looked.clear()
        solution, _ = solve_fptas(inst, F(1, denominator))
        assert solution.step == F(1, denominator)
        counts.append(len(looked))
    assert 0 < counts[1] <= counts[0]
    assert listed == []


# ---------------------------------------------------------------------------
# Coupling keys, independent trees, and from_signals against a reference


def _worked_chain_solution():
    inst = make_instance(
        [[1, 1], [0, 1]],
        [LinearUtility(coeffs=(F(1), F(0))), LinearUtility(coeffs=(F(1), F(0)))],
        prior=("1/2", "1/2"),
    )
    spread = BeliefDistribution.from_pairs([(pt(1, 0), F(1, 2)), (pt(0, 1), F(1, 2))])
    coarse = BeliefDistribution.from_pairs(
        [(pt("3/4", "1/4"), F(1, 2)), (pt("1/4", "3/4"), F(1, 2))]
    )
    return inst, spread, coarse, mps_coupling(spread, coarse)


def test_solution_validate_needs_a_coupling_on_every_covering_edge():
    inst, spread, coarse, _ = _worked_chain_solution()
    bare = GridSolution(step=F(1, 4), marginals=(spread, coarse), couplings={}, objective=F(1))
    with pytest.raises(InvariantViolation, match=r"no coupling for covering edge \(1,2\)"):
        bare.validate(inst)
    with pytest.raises(InvariantViolation, match=r"no coupling for covering edge \(1,2\)"):
        extract_table(bare, inst)


def test_solution_validate_refuses_a_coupling_off_the_covering_edges():
    inst, spread, coarse, coupling = _worked_chain_solution()
    # receivers 1 and 2 of a three-receiver chain: (1,3) is dominance but
    # not a covering edge
    chain3 = make_instance(
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        [LinearUtility(coeffs=(F(1), F(0)))] * 3,
        prior=("1/2", "1/2"),
    )
    same = GridSolution(
        step=F(1, 4),
        marginals=(spread, coarse, coarse),
        couplings={
            (0, 1): coupling,
            (1, 2): Coupling(
                source=coarse,
                target=coarse,
                flow={(w, w): m for w, m in zip(coarse.points, coarse.masses)},
            ),
            (0, 2): coupling,
        },
        objective=F(3, 2),
    )
    with pytest.raises(InvariantViolation, match=r"coupling \(1,3\) is not on a covering edge"):
        same.validate(chain3)
    with pytest.raises(InvariantViolation, match=r"coupling \(1,3\) is not on a covering edge"):
        extract_table(same, chain3)
    stray = GridSolution(
        step=F(1, 4),
        marginals=(spread, coarse),
        couplings={(0, 1): coupling, (1, 0): coupling},
        objective=F(1),
    )
    with pytest.raises(InvariantViolation, match=r"coupling \(2,1\) is not on a covering edge"):
        extract_table(stray, inst)


def test_solve_fptas_builds_the_domination_graph_once(monkeypatch):
    """The graph build_grid_lp checks the forest on also checks the
    solution's couplings and drives the extraction; the public validate
    and extract_table still build their own."""
    import mcpersuasion.forest as forest_module

    calls = []
    real = forest_module.domination_graph

    def counting(structure):
        calls.append(structure)
        return real(structure)

    monkeypatch.setattr(forest_module, "domination_graph", counting)
    inst = make_instance([[1, 1], [0, 1]], CHAIN_UTILITIES)
    solution, table = solve_fptas(inst, F(1, 10))
    assert len(calls) == 1
    solution.validate(inst)
    assert extract_table(solution, inst) == table
    assert len(calls) == 3


def test_two_independent_chains_extract_to_a_product_table():
    # receivers 1 > 2 and 3 > 4: two trees, each with its own coupling
    inst = make_instance(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        CHAIN_UTILITIES + [ThresholdUtility(state="0", cutoff=F(4, 5)), CHAIN_UTILITIES[1]],
    )
    solution, table = solve_fptas(inst, F(1, 10))
    assert set(solution.couplings) == {(0, 1), (2, 3)}
    table.validate(inst.prior)
    assert evaluate_table(table, inst) == solution.objective
    for b, state in enumerate(inst.space.states):
        row = dict(zip(table.profiles, table.rows[state]))
        # each tree's conditional law given the state: the root's label
        # l with the child's label r has probability flow(l, r) l[b] / prior[b]
        laws = []
        for root, child in ((0, 1), (2, 3)):
            law = {
                (l, r): f * l[b] / inst.prior[b]
                for (l, r), f in solution.couplings[(root, child)].flow.items()
            }
            assert len(law) >= 2 and sum(law.values()) == 1
            laws.append(law)
        product = {
            (l1, r1, l2, r2): p1 * p2
            for (l1, r1), p1 in laws[0].items()
            for (l2, r2), p2 in laws[1].items()
            if p1 * p2
        }
        assert {p: q for p, q in row.items() if q} == product


def _reference_from_signals(prior, per_state):
    """from_signals as first written: each receiver's posterior for a
    signal worked out per coordinate in Fractions, equal-label profiles
    merged by value."""
    space = prior.space
    if set(per_state) != set(space.states):
        raise ValidationError("signal table does not cover the state space")
    lengths = [len(prof) for dist in per_state.values() for prof in dist]
    if len(set(lengths)) > 1:
        raise ValidationError("signal profiles of unequal receiver count")
    if not lengths:
        raise ValidationError("signal table is empty")
    posteriors = []
    for i in range(lengths[0]):
        acc = {}
        for b, state in enumerate(space.states):
            for prof, p in per_state[state].items():
                if p:
                    acc.setdefault(prof[i], [F(0)] * space.size)[b] += prior[b] * p
        posteriors.append({sig: tuple(v / sum(vec) for v in vec) for sig, vec in acc.items()})
    merged = {}
    for b, state in enumerate(space.states):
        for prof, p in per_state[state].items():
            if p:
                labeled = tuple(posteriors[i][s] for i, s in enumerate(prof))
                merged.setdefault(labeled, [F(0)] * space.size)[b] += p
    profiles = tuple(sorted(merged))
    rows = {state: tuple(merged[p][b] for p in profiles) for b, state in enumerate(space.states)}
    return SignalingTable(space=space, profiles=profiles, rows=rows)


def _outcome(build, prior, per_state):
    try:
        table = build(prior, per_state)
    except Exception as exc:  # the differential test compares refusals too
        return type(exc)
    return table.profiles, table.rows


def _random_signals(rng):
    """A seeded signal table: k receivers with small alphabets, some
    zero-probability entries, and sometimes a signal split in two in a
    fixed ratio, so that distinct signals induce one posterior."""
    k = rng.randint(1, 4)
    states = ("0", "1", "2")[: rng.randint(2, 3)]
    space = StateSpace(states)
    weights = [rng.randint(1, 5) for _ in states]
    prior = Prior(space, tuple(F(w, sum(weights)) for w in weights))
    alphabets = [["a", "b", 7][: rng.randint(1, 3)] for _ in range(k)]
    per_state = {}
    for state in states:
        profiles = {tuple(rng.choice(a) for a in alphabets) for _ in range(rng.randint(1, 4))}
        masses = [rng.randint(0, 3) for _ in profiles]
        if not any(masses):
            masses[0] = 1
        per_state[state] = {
            prof: F(m, sum(masses)) for prof, m in zip(sorted(profiles, key=repr), masses)
        }
    if rng.random() < 0.5:
        i, ratio = rng.randrange(k), F(rng.randint(1, 3), 4)
        for state, dist in per_state.items():
            split = {}
            for prof, p in dist.items():
                twin = prof[:i] + ((prof[i], "twin"),) + prof[i + 1 :]
                split[prof], split[twin] = p * ratio, p * (1 - ratio)
            per_state[state] = split
    return prior, per_state


def test_from_signals_matches_the_per_coordinate_reference():
    rng = random.Random(1307)
    shared = 0
    for _ in range(300):
        prior, per_state = _random_signals(rng)
        expected = _outcome(_reference_from_signals, prior, per_state)
        assert _outcome(SignalingTable.from_signals, prior, per_state) == expected
        table = SignalingTable.from_signals(prior, per_state)
        table.validate(prior)
        for i in range(table.k):
            labels = [profile[i] for profile in table.profiles]
            # equal posteriors are one object
            assert len(set(map(id, labels))) == len(set(labels))
            shared += len(labels) - len(set(labels))
    assert shared > 0


def test_from_signals_gives_equal_posteriors_of_different_receivers_one_label():
    """Receivers 1 and 2 read one signal, and receiver 3 another signal
    that induces the same posteriors; receiver 4 learns nothing.  Every
    receiver's label is then the same object as any equal label of
    another receiver, so validate checks their one split once."""
    prior = Prior(TWO, (F(1, 3), F(2, 3)))
    per_state = {
        "0": {("a", "a", "y", "n"): F(1)},
        "1": {("a", "a", "y", "n"): F(1, 4), ("b", "b", "z", "n"): F(3, 4)},
    }
    table = SignalingTable.from_signals(prior, per_state)
    assert table.profiles == (
        (pt(0, 1),) * 3 + (pt("1/3", "2/3"),),
        (pt("2/3", "1/3"),) * 3 + (pt("1/3", "2/3"),),
    )
    for profile in table.profiles:
        assert profile[0] is profile[1] is profile[2]
    labels = [w for profile in table.profiles for w in profile]
    assert len(set(map(id, labels))) == len(set(labels)) == 3
    table.validate(prior)


HALF = Prior(TWO, (F(1, 2), F(1, 2)))


@pytest.mark.parametrize(
    "per_state",
    [
        pytest.param({"0": {("a",): F(1)}}, id="missing-state"),
        pytest.param({"0": {("a",): F(1)}, "1": {("a",): F(1)}, "2": {}}, id="extra-state"),
        pytest.param({"0": {("a",): F(1)}, "1": {("a", "b"): F(1)}}, id="unequal-k"),
        pytest.param(
            {"0": {("a",): F(1), ("a", "b"): F(0)}, "1": {("a",): F(1)}}, id="unequal-k-at-zero"
        ),
        pytest.param({"0": {}, "1": {}}, id="empty"),
        pytest.param({"0": {("a",): F(0)}, "1": {("b",): F(0)}}, id="all-zero"),
        pytest.param({"0": {}, "1": {("a",): F(1)}}, id="empty-row"),
        pytest.param({"0": {("a",): F(1, 2)}, "1": {("a",): F(1)}}, id="row-sum"),
        pytest.param(
            {"0": {("a",): F(3, 2), ("b",): F(-1, 2)}, "1": {("a",): F(1)}}, id="negative"
        ),
    ],
)
def test_from_signals_refuses_what_the_reference_refuses(per_state):
    assert _outcome(_reference_from_signals, HALF, per_state) is ValidationError
    with pytest.raises(ValidationError):
        SignalingTable.from_signals(HALF, per_state)


@pytest.mark.parametrize("value", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
def test_tables_take_only_exact_probabilities(value):
    """A probability is an int that is not a bool, or a Fraction; nothing
    else is converted."""
    with pytest.raises(ValidationError):
        SignalingTable(space=TWO, profiles=((pt(1, 0),),), rows={"0": (value,), "1": (F(1),)})
    with pytest.raises(ValidationError):
        SignalingTable.from_signals(HALF, {"0": {("a",): value}, "1": {("a",): F(1)}})
    table = SignalingTable(space=TWO, profiles=((pt(1, 0),),), rows={"0": (1,), "1": (F(1),)})
    assert table.rows["0"] == (F(1),) and type(table.rows["0"][0]) is Fraction
    table = SignalingTable.from_signals(HALF, {"0": {("a",): 1}, "1": {("a",): F(1)}})
    assert table.profiles == ((pt("1/2", "1/2"),),)


def test_from_signals_merges_signals_whose_masses_cancel():
    # b and c induce the prior as posterior, c from negative masses; merged
    # with a, the negative masses cancel and the table is no revelation
    per_state = {s: {("a",): F(1), ("b",): F(1, 2), ("c",): F(-1, 2)} for s in TWO.states}
    expected = _outcome(_reference_from_signals, HALF, per_state)
    assert expected == (((pt("1/2", "1/2"),),), {"0": (F(1),), "1": (F(1),)})
    assert _outcome(SignalingTable.from_signals, HALF, per_state) == expected


def _supermajority_on_one_receiver():
    rule = MemberRule("ge", "1", F(1))
    inst = make_instance([[1]], [ConstantUtility(F(1))])
    group = Group((0,), F(1), 1, rule)
    return replace(inst, utilities=SupermajorityUtility(k=1, groups=(group,)))


def _spread_side_off_its_marginal():
    """The chain's coupling beside a first marginal that is not its
    spread side."""
    inst, spread, coarse, coupling = _worked_chain_solution()
    solution = GridSolution(
        step=F(1, 4), marginals=(coarse, coarse), couplings={(0, 1): coupling}, objective=F(1)
    )
    solution.validate(inst)


_ONE_CONSTANT = make_instance([[1]], [ConstantUtility(F(1))])
_REVEALED = SignalingTable(
    space=TWO,
    profiles=((pt(0, 1),), (pt(1, 0),)),
    rows={"0": (F(0), F(1)), "1": (F(1), F(0))},
)


@pytest.mark.parametrize(
    "refuse, error, message",
    [
        (
            lambda: PosteriorGrid(dim=0, denominator=4),
            ValidationError,
            "grid needs dim >= 1 and denominator >= 1",
        ),
        (
            lambda: build_grid_lp(_supermajority_on_one_receiver(), PosteriorGrid(2, 4)),
            ValidationError,
            "grid program needs additive per-receiver utilities",
        ),
        (
            lambda: build_grid_lp(_ONE_CONSTANT, PosteriorGrid(3, 4)),
            ValidationError,
            "grid dimension differs from the state space",
        ),
        (
            lambda: GridSolution(F(1, 4), (), {}, F(1)).validate(_ONE_CONSTANT),
            InvariantViolation,
            "marginal count differs from receiver count",
        ),
        (
            _spread_side_off_its_marginal,
            InvariantViolation,
            "coupling (1,2) spread side is not receiver 1's marginal",
        ),
        (
            lambda: SignalingTable(
                space=TWO,
                profiles=tuple(reversed(_REVEALED.profiles)),
                rows={"0": (F(1), F(0)), "1": (F(0), F(1))},
            ),
            ValidationError,
            "profiles must be sorted and distinct",
        ),
        (
            lambda: _REVEALED.validate(Prior(StateSpace(("x", "y")), (F(1, 2), F(1, 2)))),
            InvariantViolation,
            "table and prior disagree on the state space",
        ),
        (
            lambda: evaluate_table(
                _REVEALED, make_instance([[1], [1]], [ConstantUtility(F(1))] * 2)
            ),
            ValidationError,
            "table and instance disagree on receiver count",
        ),
    ],
    ids=[
        "grid-dim",
        "grid-utilities",
        "grid-space",
        "marginal-count",
        "spread-side",
        "unsorted-profiles",
        "validate-space",
        "payoff-receivers",
    ],
)
def test_forest_refusals_name_their_fault(refuse, error, message):
    """Each refusal in forest.py that no other test reaches, with its
    message."""
    with pytest.raises(error) as refused:
        refuse()
    assert str(refused.value) == message
