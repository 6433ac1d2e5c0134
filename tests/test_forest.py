import hashlib
import json
import math
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from mcpersuasion import forest, lp
from mcpersuasion.beliefs import (
    BeliefDistribution,
    Coupling,
    concavify_single,
    coupling_flows,
    mps_coupling,
)
from mcpersuasion.dominance import dominance_set
from mcpersuasion.errors import (
    BadEpsilon,
    DuplicateRows,
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
from mcpersuasion.lp import dump
from mcpersuasion.model import (
    AdditiveUtility,
    CommunicationStructure,
    ConstantUtility,
    LinearUtility,
    PersuasionInstance,
    PiecewiseUtility,
    PointUtility,
    Prior,
    StateSpace,
    ThresholdUtility,
    format_label,
    validate_instance,
)
from test_beliefs import assert_coupling_check_matches_the_reference
from test_lp import GRID_CASES, _engines_built, _restriction, full_grid_lp

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
    assert glp.program.n_constraints == 3  # two Bayes rows + normalization
    assert glp.edges == ()


def test_build_sizes_two_receiver_chain():
    inst = make_instance(
        [[1, 1], [0, 1]],
        [ThresholdUtility(state="1", cutoff=F(1, 2)), ConstantUtility(F(0))],
    )
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=2))
    assert glp.edges == ((0, 1),)
    assert glp.program.n_vars == 15  # 6 mass + 9 coupling
    assert glp.program.n_constraints == 15  # 4 + 3 + 3 + 3 + 2


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
    assert solution.objective == u.value_at(prior.point(), space)


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
    no_rev = BeliefDistribution.point_mass(prior_point)
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
        marginals=(BeliefDistribution.point_mass(pt(1, 0)),),
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
    """md5 of lp.dump of the grid program over every grid point:
    objective, every row in order, and the variable names
    GridLP.var_names formats, as the tuple-keyed builder emitted them.
    On two states that program is only built here (full_grid_lp)."""
    inst = make()
    glp = full_grid_lp(inst, PosteriorGrid(dim=inst.space.size, denominator=denominator))
    assert hashlib.md5(dump(glp.program, glp.var_names()).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Two-state grid programs answered by their breakpoint program

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


#: md5 of repr((objective, assignment)) of the grid program's solution,
#: one line per solve, that solve_grid reaches on
#: _two_state_forest(random.Random(seed), STAR3) for seeds 1-40, each at
#: 1/10, 1/20 and 1/40: branching vertices, which no CLI document pins
#: beyond star3's.  Recorded when the full program was solved; its
#: assignment is now rebuilt from the GridSolution (_full_assignment).
STAR3_SOLVES = "f453961b644e9fe211667cbd79cc168c"


def test_branching_grid_solves_are_pinned(monkeypatch):
    solved = []
    real_solve = forest.lp.solve

    def solve(program, **kwargs):
        solved.append(real_solve(program, **kwargs))
        return solved[-1]

    monkeypatch.setattr(forest.lp, "solve", solve)
    lines = []
    for seed in range(1, 41):
        inst = _two_state_forest(random.Random(seed), STAR3)
        for denominator in (10, 20, 40):
            solution = solve_grid(inst, PosteriorGrid(dim=2, denominator=denominator))
            sol = solved[-1]  # the breakpoint program's, which solve_grid reads back
            assert sol.objective == solution.objective
            edges = tuple(solution.couplings)
            assignment = tuple(_full_assignment(solution, edges, denominator))
            lines.append(repr((sol.objective, assignment)))
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == STAR3_SOLVES


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
    """The breakpoint program's answer on the full program: the point of
    solution (read off glp's breakpoint program) in the full numbering,
    and the dual expanded from the lattice certificate of dual."""
    D = glp.grid.denominator
    return _full_assignment(solution, glp.edges, D), _expanded(*forest._lattice_dual(glp, dual), D)


def _breakpoint_proposal(inst, glp):
    """The breakpoint answer for glp's full program (full_grid_lp) as a
    proposal (_breakpoint_run), for a path forest too, whose GridLP
    proposes its closed form instead."""
    return lambda: _breakpoint_run(inst, glp)[:2]


def _breakpoint_run(inst, glp):
    """(x, y, points, program, start) for the full program of glp
    (full_grid_lp): the breakpoint program build_grid_lp builds, solved
    through lp.solve from start, the prior split that
    forest._breakpoint_answer proposes without a dual, for a path forest
    too; its answer on the full program (_lifted); and the breakpoints
    as positions in glp.points."""
    bp = build_grid_lp(inst, glp.grid)
    D = glp.grid.denominator
    points = [w[0].numerator * (D // w[0].denominator) for w in bp.points]
    start, dual = forest._breakpoint_answer(inst.prior.values[0] * D, inst.k, len(bp.edges), points)
    assert dual is None
    sol = lp.solve(bp.program, propose=lambda: (start, None))
    solution = forest._read_solution(bp, sol.assignment, sol.objective)
    x, y = _lifted(bp, solution, sol.dual)
    return x, y, points, bp.program, start


def _climb_and_compare(inst, denominator):
    """The breakpoint answer's point, proposed as a start without a dual,
    against plain lp.solve on the grid program: the same objective,
    certified against the full program, and the start completes to a
    feasible basis of the full program, so phase 1 is skipped.
    solve_grid, which takes the closed form on path forests, reaches the
    same objective.  Returns the GridLP of the full program."""
    grid = PosteriorGrid(dim=2, denominator=denominator)
    glp = full_grid_lp(inst, grid)
    x, _ = _breakpoint_proposal(inst, glp)()
    assert lp._Engine(glp.program)._complete(lp._start(glp.program, x))
    climbed = lp.solve(glp.program, propose=lambda: (x, None))
    plain = lp.solve(glp.program)
    assert climbed.status == plain.status == lp.OPTIMAL
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
    between grid points (the breakpoint program's start then holds two
    points).  The breakpoints bend on the tabulated values, so they need
    no semicontinuity.  The prior off the grid leaves the completed start
    short of optimal on the full program, but the breakpoint answer is
    certified as it is, so on the grid or off it one engine is built, on
    the breakpoint program, and none on the full one; solve_grid, which
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
    """The theorem behind forest._breakpoint_answer: on a two-state grid,
    the breakpoint program's optimal point and dual, with each edge's
    duals rebuilt from the least concave majorant of its negated row-sum
    duals interpolated between breakpoints, are an optimality
    certificate of the full program.  Over GRID_CASES, the JUMPS instances (the prior off the
    grid among them) and seeds 1-3 of the grid2 generator (chains and
    three-receiver forests), the answer is never refused, solve returns
    it as given, and the one engine built is on the breakpoint program;
    at steps up to 1/20, where a plain solve is cheap, the objective is
    the plain solve's.  The steps 1/2 to 1/6 include grids whose
    breakpoints are every point: the program is then a copy of the full
    one.  The chains, which build_grid_lp certifies in closed form, take
    the breakpoint answer directly (_breakpoint_proposal), so the theorem
    stays covered on them.  The breakpoint program starts from the
    point written down for the prior's neighbours, largest values first.
    The answer on the full program is the breakpoint program's point with
    the dual expanded from its lattice certificate (_lifted)."""
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
        whole += program.n_vars == glp.program.n_vars
        refused = lp._optimality_failure(glp.program, x, y)
        assert refused is None, f"breakpoint answer refused at 1/{denominator}: {refused}"
        built.clear()
        starts.clear()
        sol = lp.solve(glp.program, propose=_breakpoint_proposal(inst, glp))
        assert len(built) == 1 and built[0].rows == program.rows
        support = {t: v for t, v in enumerate(start) if v}
        assert starts == [sorted(support, key=lambda t: (-support[t], t))]
        assert (sol.status, sol.assignment, sol.dual) == (lp.OPTIMAL, tuple(x), tuple(y))
        assert lp.check_optimal(glp.program, sol.assignment, sol.dual)
        if denominator <= 20:
            assert sol.objective == lp.solve(glp.program).objective
    assert whole


def test_the_prior_split_is_the_one_point_over_its_neighbours():
    """The program over the prior's grid point, or the two next to it,
    has one feasible point, so lp.solve on it returns exactly the start
    that forest._breakpoint_answer writes down: over _rung_programs(),
    its solution, carried onto the breakpoint program's columns, is that
    start."""
    for inst, denominator in _rung_programs():
        glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        _, _, points, program, start = _breakpoint_run(inst, glp)
        p = inst.prior.values[0] * denominator
        near = sorted({math.floor(p), math.ceil(p)})
        near_pts = [glp.points[a] for a in near]
        values = [[u.value_at(w, inst.space) for w in near_pts] for u in inst.utilities.receivers]
        rung = forest._grid_program(inst.prior, glp.edges, denominator, near_pts, values)
        sol = lp.solve(rung)
        assert sol.status == lp.OPTIMAL
        k, m, t = inst.k, len(points), [points.index(a) for a in near]
        columns = [i * m + a for i in range(k) for a in t]
        columns += [
            k * m + e * m * m + a * m + c for e, _ in enumerate(glp.edges) for a in t for c in t
        ]
        carried = [F(0)] * program.n_vars
        for j, v in zip(columns, sol.assignment, strict=True):
            carried[j] = v
        assert carried == start


@pytest.mark.parametrize("name, denominator", [("chain2", 400), ("star3", 80)])
def test_fine_two_state_grids_need_no_engine_on_the_full_program(name, denominator, monkeypatch):
    """chain2 at 1/400 (161,603 columns) and star3 at 1/80 through
    solve_fptas: its one lp.solve call is on the breakpoint program, and
    its answer, chain2's in closed form and star3's solved from the prior
    split, lifted to the full program (_lifted), is certified there by
    check_optimal; the objective is the 1/40 one, since every breakpoint
    and the prior lie on 1/10.  chain2 builds no engine at all; star3
    builds one, on its breakpoint program."""
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
    completes the breakpoint program's point on the full program, skips
    phase 1 and runs phase 2 there, to the plain solve's objective,
    certified."""
    inst = _data_instance("chain2")
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=20))
    _, _, points, _, _ = _breakpoint_run(inst, glp)
    n, k = len(glp.points), len(glp.x_base)
    row = 2 * k + n + min(set(range(n)) - set(points))  # the first edge's column sum there

    def bent():
        x, y = _breakpoint_proposal(inst, glp)()
        y[row] -= F(1, y[row].denominator)
        return x, y

    refused = lp._optimality_failure(glp.program, *bent())
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
    sol = lp.solve(glp.program, propose=bent)
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
    """(glp, x, y): inst's breakpoint program at 1/denominator and the
    closed form its GridLP proposes for it, lifted to the full program
    (_lifted)."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    x, y = glp.propose()
    solution = forest._read_solution(glp, x, None)
    return glp, *_lifted(glp, solution, y)


def _assert_closed_form(inst, denominator, built):
    """The closed form of inst's grid program at 1/denominator: what
    GridLP proposes, accepted by check_optimal on the breakpoint program,
    returned by solve as given with no engine built, and by the lattice
    check; lifted to the full program, accepted by check_optimal there;
    and of the objective of the breakpoint answer, which check_optimal
    accepts too."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    assert glp.propose.func is forest._path_certificate
    x, y = glp.propose()
    refused = lp._optimality_failure(glp.program, x, y)
    assert refused is None, f"closed form refused at 1/{denominator}: {refused}"
    built.clear()
    sol = lp.solve(glp.program, propose=glp.propose)
    assert built == [] and (sol.assignment, sol.dual) == (tuple(x), tuple(y))
    lines, g = forest._lattice_dual(glp, y)
    p = inst.prior.values[0]
    assert forest._lattice_failure(glp.values, glp.edges, p, lines, g, sol.objective) is None
    full = full_grid_lp(inst, glp.grid)
    X, Y = _closed_form(inst, denominator)[1:]
    refused = lp._optimality_failure(full.program, X, Y)
    assert refused is None, f"lifted closed form refused at 1/{denominator}: {refused}"
    X, Y = _breakpoint_proposal(inst, full)()
    refused = lp._optimality_failure(full.program, X, Y)
    assert refused is None, f"breakpoint answer refused at 1/{denominator}: {refused}"
    assert sol.objective == lp.solve(full.program, propose=lambda: (X, Y)).objective


def test_read_back_takes_each_flow_from_coupling_flows():
    """_read_solution bins the assignment's nonzero entries by block in
    one pass.  On GRID_CASES and the grid2 generator's jobs of seeds
    1-3, each coupling's flow is coupling_flows' on its edge, in the
    same order, and each marginal holds its x block's nonzero entries."""
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    cases += [job for seed in (1, 2, 3) for job in _grid2_jobs(seed)]
    for inst, denominator in cases:
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        sol = lp.solve(glp.program, propose=glp.propose)
        solution = forest._read_solution(glp, sol.assignment, sol.objective)
        pts, x = glp.points, sol.assignment
        assert list(solution.couplings) == list(glp.edges)
        for edge, base in zip(glp.edges, glp.y_base):
            want = coupling_flows(pts, pts, x, base)
            assert list(solution.couplings[edge].flow.items()) == list(want.items())
        for dist, base in zip(solution.marginals, glp.x_base):
            want = {w: v for w, v in zip(pts, x[base : base + len(pts)]) if v}
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
                assert glp.propose.func is forest._breakpoint_answer
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
    """solve_grid on a path forest builds the breakpoint program and
    nothing else, and no engine; on STAR3, a root with two children, it
    builds the breakpoint program and one engine, on it."""
    built = _engines_built(monkeypatch)
    programs = []
    real_program = forest._grid_program

    def program(*args):
        programs.append(args)
        return real_program(*args)

    monkeypatch.setattr(forest, "_grid_program", program)
    for name, denominator, expected in [("chain2", 40, (1, 0)), ("star3", 20, (1, 1))]:
        programs.clear()
        built.clear()
        solve_grid(_data_instance(name), PosteriorGrid(dim=2, denominator=denominator))
        assert (len(programs), len(built)) == expected


def test_a_refused_proposal_falls_back_to_exact_solving(monkeypatch):
    """chain2's closed form at 1/20 with one dual entry moved by 1/den:
    a row-sum dual up (its parent's x column then prices positive), a
    column-sum dual down (the y column at (0, 0)), the leaf's first
    Bayes-plausibility dual or a normalization dual (y'b then moves).
    check_optimal refuses each, so solve never returns it: one engine,
    on the full program, completes the proposed point, skips phase 1,
    and reaches the breakpoint answer's objective, certified.  The
    closed form is lifted to the full program (_closed_form)."""
    inst = _data_instance("chain2")
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=20))
    n, k = len(glp.points), len(glp.x_base)
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
        refused = lp._optimality_failure(glp.program, x, y)
        assert refused is not None
        built.clear()
        completed.clear()
        sol = lp.solve(glp.program, propose=lambda: (x, y))
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


def test_edge_dual_columns_are_the_concavification():
    """forest._edge_dual's column-sum duals for f / S are cav(f / S) at
    every point, as _cav_table finds it with beliefs.concavify_single,
    which knows no hull, and its barycenter duals D times cav's slope to
    the right (to the left at D); its row-sum duals are -f / S."""
    rng = random.Random(71)
    for _ in range(60):
        D, S = rng.randint(1, 12), rng.randint(1, 6)
        f = [rng.randint(-20, 20) for _ in range(D + 1)]
        duals, _ = forest._edge_dual(f, S, range(D + 1))
        table = {pt(F(a, D), 1 - F(a, D)): F(v, S) for a, v in enumerate(f)}
        cav = list(_cav_table(table).values())  # in the order of a
        slopes = [D * (r - l) for l, r in zip(cav, cav[1:])]
        assert duals == [F(-v, S) for v in f] + cav + slopes + slopes[-1:]


def test_path_certificate_duals_are_edge_duals_of_its_row_sums():
    """On every covering edge of 200 seeded path forests (_path_forest),
    _path_certificate's duals at the breakpoints are _edge_dual's for
    its own row-sum duals, negated, taken in integers over their common
    denominator and interpolated between breakpoints: the column-sum
    duals are the least concave majorant of that interpolation
    (forest._concave_majorant), the barycenter duals D times its slope to
    the right (to the left at D), so the lattice certificate's g is the
    closed form's cav f(parent)."""
    rng = random.Random(73)
    edges_seen = 0
    for _ in range(200):
        inst, D = _path_forest(rng)
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=D))
        _, y = glp.propose()
        m, k = len(glp.points), inst.k
        points = [w[0].numerator * (D // w[0].denominator) for w in glp.points]
        for at in range(2 * k, 2 * k + 3 * m * len(glp.edges), 3 * m):
            rows = y[at : at + m]
            S = math.lcm(*(v.denominator for v in rows))
            f = [-v.numerator * (S // v.denominator) for v in rows]
            h, M, _ = forest._concave_majorant(points, f)
            right = [min(a, D - 1) for a in points]
            cav = [F(h[a], S * M) for a in points]
            slopes = [F(D * (h[c + 1] - h[c]), S * M) for c in right]
            assert rows + cav + slopes == y[at : at + 3 * m]
            edges_seen += 1
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
    """The breakpoint program's start holds the prior's grid point, and
    its points add (0,1), (1,0) and every point where a receiver's
    utility bends down; its columns are every x at its points and every
    y between two of them (test_rung_programs_are_restrictions_of_the_full_program)."""
    inst = _data_instance(name)
    glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    _, _, points, program, start = _breakpoint_run(inst, glp)
    labels = [",".join(map(str, glp.points[a])) for a in points]
    assert labels == second
    assert [label for label, v in zip(labels, start) if v] == first
    assert program.n_vars == inst.k * len(points) + len(glp.edges) * len(points) ** 2


def test_three_state_grids_have_no_rungs():
    """Past two states there is no proposal, so lp.solve picks the start
    itself: the HiGHS support behind its gate, or the all-artificial one."""
    inst = _three_state_chain(random.Random(8))
    glp = build_grid_lp(inst, PosteriorGrid(dim=3, denominator=4))
    assert glp.propose is None


def _rung_programs():
    """(instance, denominator) of two-state grids to answer by their
    breakpoint program, path forests among them: the five
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


def test_rung_programs_are_restrictions_of_the_full_program():
    """The breakpoint program that forest._breakpoint_answer makes over a
    subset of the points is the full program restricted to the columns
    of every x at those points and every y between two of them, as an
    independent builder from the Fraction rows makes it: the same
    variables, objective and rows, in the same order."""
    for inst, denominator in _rung_programs():
        glp = full_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        _, _, points, program, _ = _breakpoint_run(inst, glp)
        n = len(glp.points)
        columns = [base + a for base in glp.x_base for a in points]
        columns += [base + a * n + c for base in glp.y_base for a in points for c in points]
        oracle = _restriction(glp.program, columns)
        assert program.n_vars == oracle.n_vars == len(columns)
        assert (program.obj, program.obj_den) == (oracle.obj, oracle.obj_den)
        assert program.rows == oracle.rows


def test_a_grid_solve_builds_once_and_solves_once(monkeypatch):
    """solve_grid and solve_fptas build through one forest.build_grid_lp
    call and solve through one forest.lp.solve call: the call pattern
    that the benchmark's read-back replay swaps out.  On two states that
    call solves the breakpoint program, and the lattice certificate
    needs no other (test_a_replayed_solve_never_calls_the_proposal)."""
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


@pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED])
@pytest.mark.parametrize("call", [1, 2])
def test_a_rung_that_is_not_optimal_raises(call, status, monkeypatch):
    """A breakpoint program is a grid program, always feasible and
    bounded, so one that lp.solve reports as anything but optimal is a
    solver defect.  solve_grid on chain2 and then on star3 at 1/20 calls
    lp.solve once each, on the breakpoint program: when the call-th
    reports status, solve_grid raises InvariantViolation naming the
    program and the status, and no engine is built."""
    built, calls = _engines_built(monkeypatch), []
    real_solve = forest.lp.solve

    def solve(program, **kwargs):
        calls.append(program)
        if len(calls) == call:
            return lp.LPSolution(status)
        return real_solve(program, **kwargs)

    monkeypatch.setattr(forest.lp, "solve", solve)
    with pytest.raises(InvariantViolation, match=f"grid program reported {status}"):
        for name in ("chain2", "star3"):
            solve_grid(_data_instance(name), PosteriorGrid(dim=2, denominator=20))
    assert len(calls) == call and built == []


@pytest.mark.parametrize("name, denominator", [("chain2", 40), ("star3", 20)])
def test_a_replayed_solve_never_calls_the_proposal(name, denominator, monkeypatch):
    """The benchmark's read-back replay, rebuilt here: forest.build_grid_lp
    gives a GridLP built beforehand, and forest.lp is a stand-in with
    solve and OPTIMAL only, whose solve returns a solution made
    beforehand.  solve_grid on a path forest and on star3 calls each
    stand-in once, never calls the proposal, and reads back, and
    certifies on the lattice, the solution a real solve_grid gives."""
    inst = _data_instance(name)
    grid = PosteriorGrid(dim=2, denominator=denominator)
    glp = build_grid_lp(inst, grid)
    solution = lp.solve(glp.program, propose=glp.propose)
    calls = []

    def propose():
        calls.append("propose")
        return glp.propose()

    class ReplayLP:
        OPTIMAL = lp.OPTIMAL

        @staticmethod
        def solve(program, *args, **kwargs):
            calls.append("solve")
            return solution

    def build(instance, grid):
        calls.append("build")
        return replace(glp, propose=propose)

    expected = solve_grid(inst, grid)
    monkeypatch.setattr(forest, "build_grid_lp", build)
    monkeypatch.setattr(forest, "lp", ReplayLP)
    assert solve_grid(inst, grid) == expected
    assert calls == ["build", "solve"]


# ---------------------------------------------------------------------------
# Two-state lattice certificates: no coupling program on the full grid


def _lattice_accepts(inst, full, lines, g, x):
    """Whether the lattice certificate (lines, g) proves x, a point of
    full's program (full_grid_lp), optimal: x read back into a
    GridSolution of value c.x and validated, then
    forest._lattice_failure."""
    program = full.program
    objective = sum((F(a, program.obj_den) * x[j] for j, a in program.obj.items()), F(0))
    try:
        solution = forest._read_solution(full, x, objective)
        solution._validate(inst, full.edges)
    except (InvariantViolation, ValidationError):
        return False
    p = inst.prior.values[0]
    return forest._lattice_failure(full.values, full.edges, p, lines, g, objective) is None


def _lattice_certificate(inst, denominator):
    """(glp, solution, lines, g): solve_grid's breakpoint program, the
    solution it reads back and the lattice certificate of its dual."""
    glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
    sol = lp.solve(glp.program, propose=glp.propose)
    solution = forest._read_solution(glp, sol.assignment, sol.objective)
    return glp, solution, *forest._lattice_dual(glp, sol.dual)


def _mutations(rng, lines, g, x):
    """Single-entry mutations of the certificate (lines, g) and the point
    x: a line's value at (1, 0) or (0, 1) moved up and one moved down by
    1/its denominator; four values of g moved by one unit of its
    denominator; a nonzero entry of x moved by 1/its denominator, and a
    zero entry given that mass."""
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
    forest._lattice_failure) accepts exactly when lp.check_optimal
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
        assert lp.check_optimal(full.program, x, _expanded(lines, g, D))
        assert _lattice_accepts(inst, full, lines, g, x)
        for bent_lines, bent_g, bent_x in _mutations(rng, lines, g, x):
            accepted = lp.check_optimal(full.program, bent_x, _expanded(bent_lines, bent_g, D))
            assert _lattice_accepts(inst, full, bent_lines, bent_g, bent_x) == accepted
            verdicts.append(accepted)
    assert len(cases) == 222 and set(verdicts) == {True, False}


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_a_refused_lattice_certificate_names_its_failing_part(name, monkeypatch):
    """forest._lattice_failure names each kind of failure, each made by a
    single-entry mutation of solve_grid's certificate at 1/20: a value of
    g lowered by one unit where g is linear, so that it is not concave
    there; a line's value at (0, 1) moved down (the receiver is then
    priced above its line where its price met it, found here in
    Fractions) or up (the lines' value at the prior then exceeds c.x).
    solve_grid handed a dual that makes such a certificate raises
    InvariantViolation with the name."""
    inst = _data_instance(name)
    glp, solution, lines, g = _lattice_certificate(inst, 20)
    p, c = inst.prior.values[0], solution.objective
    check = partial(forest._lattice_failure, glp.values, glp.edges, p)
    assert check(lines, g, c) is None
    (h, S), (i1, i2) = g[0], glp.edges[0]
    a = next(a for a in range(1, 20) if h[a - 1] + h[a + 1] == 2 * h[a])
    bent = [(h[:a] + [h[a] - 1] + h[a + 1 :], S)] + g[1:]
    label = format_label((F(a, 20), F(20 - a, 20)))
    assert check(lines, bent, c) == f"g of edge ({i1 + 1},{i2 + 1}) is not concave at {label}"
    for i, (top, bottom) in enumerate(lines):
        low = bottom - F(1, bottom.denominator)
        moved = lines[:i] + [(top, low)] + lines[i + 1 :]
        prices = [
            u - sum(F(h[a], S) for (h, S), (j, _) in zip(g, glp.edges) if j == i)
            + sum(F(h[a], S) for (h, S), (_, j) in zip(g, glp.edges) if j == i)
            for a, u in enumerate(glp.values[i])
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


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_fine_steps_build_no_large_program(name, monkeypatch):
    """solve_fptas at 1/10,000, whose full grid program would have about
    10^8 columns per covering edge, builds no LinearProgram above 10^4
    columns: only the breakpoint program; the objective is the 1/40 one,
    since every breakpoint and the prior lie on 1/10."""
    inst = _data_instance(name)
    reference = solve_fptas(inst, F(1, 40))[0].objective
    sizes = []
    real = lp.LinearProgram.integral.__func__

    def integral(cls, n_vars, objective, rows):
        sizes.append(n_vars)
        return real(cls, n_vars, objective, rows)

    monkeypatch.setattr(lp.LinearProgram, "integral", classmethod(integral))
    solution, table = solve_fptas(inst, F(1, 10_000))
    assert sizes and max(sizes) <= 10_000
    assert solution.step == F(1, 10_000)
    assert solution.objective == evaluate_table(table, inst) == reference


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
