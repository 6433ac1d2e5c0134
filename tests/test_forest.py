import hashlib
import json
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from mcpersuasion import forest, lp
from mcpersuasion.beliefs import BeliefDistribution, Coupling, concavify_single, mps_coupling
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
    validate_instance,
)
from test_lp import GRID_CASES, _restriction

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
    """md5 of lp.dump of the grid program: objective, every row in
    order, and the variable names GridLP.var_names formats, as the
    tuple-keyed builder emitted them."""
    inst = make()
    glp = build_grid_lp(inst, PosteriorGrid(dim=inst.space.size, denominator=denominator))
    assert hashlib.md5(dump(glp.program, glp.var_names()).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Two-state grid programs solved up their breakpoint ladder

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


def _climb_and_compare(inst, denominator):
    """The ladder's answer against plain lp.solve on the grid program: the
    same objective, certified against the full program, and the start
    at the top of the ladder completes to a feasible basis of the full
    program, so phase 1 is skipped.  Returns the GridLP."""
    grid = PosteriorGrid(dim=2, denominator=denominator)
    glp = build_grid_lp(inst, grid)
    assert glp.rungs and lp._Engine(glp.program)._complete(lp._climb(glp.program, glp.rungs))
    climbed = lp.solve(glp.program, rungs=glp.rungs)
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
    between grid points (rung 1 then holds two points).  Rung 2 bends on
    the tabulated values, so it needs no semicontinuity; the prior off
    the grid leaves the lifted basis short of optimal, and phase 2 must
    pivot on the full program."""
    watched, phase2 = [], []
    real_reprice = lp._Engine._reprice

    def reprice(engine, *args):
        # once per pivot of _run; a ladder's full program skips phase 1
        if engine.lp in watched:
            phase2.append(engine)
        return real_reprice(engine, *args)

    monkeypatch.setattr(lp._Engine, "_reprice", reprice)
    inst = make_instance(CHAIN2, utilities, prior=prior)
    for denominator in (10, 20, 40):
        glp = _climb_and_compare(inst, denominator)
        first = [glp.points[j] for j in glp.rungs[0][1] if j < len(glp.points)]
        assert len(first) == (2 if off_grid else 1)
        watched.append(glp.program)
        lp.solve(glp.program, rungs=glp.rungs)
        watched.clear()
        assert bool(phase2) == off_grid
        phase2.clear()


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
    """Rung 1 holds the prior's grid point, rung 2 adds (0,1), (1,0) and
    every point where a receiver's utility bends down; a rung's columns
    are every x at its points and every y between two of them."""
    glp = build_grid_lp(_data_instance(name), PosteriorGrid(dim=2, denominator=denominator))
    n = len(glp.points)
    index = {",".join(map(str, w)): a for a, w in enumerate(glp.points)}
    for (_, columns), labels in zip(glp.rungs, (first, second), strict=True):
        points = [index[label] for label in labels]
        xs = [base + a for base in glp.x_base for a in points]
        ys = [base + a * n + c for base in glp.y_base for a in points for c in points]
        assert columns == tuple(xs + ys)


def test_three_state_grids_have_no_rungs():
    inst = _three_state_chain(random.Random(8))
    assert build_grid_lp(inst, PosteriorGrid(dim=3, denominator=4)).rungs == ()


def _rung_programs():
    """(instance, denominator) of two-state grids with rungs: the five
    GRID_CASES, seeded grid2-generator chains and three-receiver
    forests, and the JUMPS instances."""
    cases = [(_data_instance(name), denominator) for name, denominator in GRID_CASES]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for structure, steps in [(CHAIN2, (10, 20, 40)), (CHAIN3, (10, 20)), (STAR3, (10, 20))]:
            inst = _two_state_forest(rng, structure)
            cases += [(inst, denominator) for denominator in steps]
    for utilities, prior, _ in JUMPS.values():
        inst = make_instance(CHAIN2, utilities, prior=prior)
        cases += [(inst, denominator) for denominator in (10, 20, 40)]
    return cases


def test_rung_programs_are_restrictions_of_the_full_program():
    """Each rung program build_grid_lp makes over a subset of the points
    is the full program restricted to the rung's columns, as an
    independent builder from the Fraction rows makes it: the same
    variables, objective and rows, in the same order."""
    for inst, denominator in _rung_programs():
        glp = build_grid_lp(inst, PosteriorGrid(dim=2, denominator=denominator))
        assert glp.rungs
        for program, columns in glp.rungs:
            oracle = _restriction(glp.program, columns)
            assert program.n_vars == oracle.n_vars == len(columns)
            assert (program.obj, program.obj_den) == (oracle.obj, oracle.obj_den)
            assert program.rows == oracle.rows


def test_a_grid_solve_builds_once_and_solves_once(monkeypatch):
    """solve_grid and solve_fptas build through one forest.build_grid_lp
    call and solve, rungs and all, through one forest.lp.solve call:
    the call pattern that the benchmark's read-back replay swaps out."""
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
