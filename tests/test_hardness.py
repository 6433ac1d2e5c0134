import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from mcpersuasion.dominance import dominance_set
from mcpersuasion.errors import BudgetExceeded, ValidationError
from mcpersuasion.forest import SignalingTable, evaluate_table, payoff_by_state
from mcpersuasion.hardness import (
    _PRIOR,
    BUnionInstance,
    verify_reduction,
    build_reduction,
    min_b_union,
    optimal_value,
    reduction_structure,
    revealing_table,
    state_ceilings,
)
from mcpersuasion.lp import EQ, LE, solve
from mcpersuasion.model import AdditiveUtility, ConstantUtility
from test_lp import rational_program

MID = (Fraction(1, 2), Fraction(1, 2))


def _inst(w, sets, b):
    return BUnionInstance(w=w, sets=tuple(frozenset(s) for s in sets), b=b)


FLAGSHIP = _inst(3, [{1}, {2}, {1, 2}], 2)


def witness_table(structure, picks):
    """The revealing scheme's table by Bayes' rule, the oracle for
    revealing_table: channel j announces the state when j is picked and
    stays silent otherwise; labels follow from each receiver's channel
    bundle."""
    chosen = set(picks)
    per_state = {}
    for state in _PRIOR.space.states:
        signals = tuple(state if j in chosen else "quiet" for j in range(structure.n))
        profile = tuple(
            tuple(signals[j] for j in structure.channels_of(i)) for i in range(structure.k)
        )
        per_state[state] = {profile: Fraction(1)}
    return SignalingTable.from_signals(_PRIOR, per_state)


def claimed_dominance_pairs(inst):
    """The textbook description of the reduction's dominance set: each
    universe receiver dominates the set receivers of the sets containing
    it.  Degenerate instances (an element in no set, or one universe row
    containing another) have additional pairs on top of these."""
    return frozenset(
        (inst.t + i, j) for i in range(inst.w) for j in range(inst.t) if i + 1 in inst.sets[j]
    )


def test_instance_validation():
    with pytest.raises(ValidationError):
        _inst(3, [{1}, set()], 1)
    with pytest.raises(ValidationError):
        _inst(3, [{1, 4}], 1)
    with pytest.raises(ValidationError):
        _inst(3, [{1}], 2)
    with pytest.raises(ValidationError):
        _inst(3, [{1}], -1)
    with pytest.raises(ValidationError):
        _inst(0, [{1}], 1)
    assert _inst(3, [{1}], 0).b == 0


def test_min_union_enumerates_exactly():
    assert min_b_union(FLAGSHIP) == (2, (0, 1))
    # forced selection
    assert min_b_union(_inst(4, [{1, 2}, {3}], 2)) == (3, (0, 1))
    # duplicated sets keep the first witness
    assert min_b_union(_inst(3, [{1}, {1}, {2, 3}], 2)) == (1, (0, 1))
    assert min_b_union(_inst(3, [{1}, {2}], 0)) == (0, ())


def test_min_union_matches_a_brute_force_on_ties():
    """On seeded instances over small universes, where many selections
    tie, min_b_union returns the least union size and the first selection
    in lexicographic order that reaches it, b = 0 included, as a listing
    of every selection finds them."""
    rng = random.Random(32)
    budgets = set()
    for _ in range(300):
        w, t = rng.randint(1, 4), rng.randint(1, 7)
        sets = [rng.sample(range(1, w + 1), rng.randint(1, w)) for _ in range(t)]
        inst = _inst(w, sets, rng.randint(0, t))
        picks = list(combinations(range(t), inst.b))
        sizes = [len(set().union(*(inst.sets[j] for j in pick))) for pick in picks]
        h = min(sizes)
        assert min_b_union(inst) == (h, picks[sizes.index(h)])
        budgets.add(inst.b if sizes.count(h) == 1 else "tie")
    assert {0, "tie"} <= budgets


def test_min_union_budget():
    inst = _inst(4, [{1}, {2}, {3}, {4}], 2)
    with pytest.raises(BudgetExceeded):
        min_b_union(inst, budget=5)
    assert min_b_union(inst, budget=6)[0] == 2


def test_structure_layout():
    structure = reduction_structure(FLAGSHIP)
    assert structure.matrix == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 0),
    )


def test_flagship_reduction_is_consistent():
    out = build_reduction(FLAGSHIP)
    assert out.h == 2
    assert out.witness_sets == (0, 1)
    # state 0 pays the w universe receivers; state 1 pays the 4w bonus
    # plus the single uninformed universe receiver
    assert out.value == Fraction(3, 2) + Fraction(12 + 1, 2)
    assert out.value == Fraction(8)
    assert evaluate_table(out.witness, out.instance) == Fraction(8)
    report = verify_reduction(out)
    assert report.ok, report.failures
    assert report.value == Fraction(8)


def test_tiny_universe_value():
    out = build_reduction(_inst(1, [{1}], 1))
    assert out.h == 1
    assert out.value == Fraction(5, 2)
    assert verify_reduction(out).ok


def test_degenerate_budget_pays_the_bonus_everywhere():
    out = build_reduction(_inst(3, [{1}, {2}], 0))
    assert out.h == 0
    assert out.value == Fraction(15)
    assert len(out.witness.profiles) == 1
    assert all(label == MID for label in out.witness.profiles[0])
    assert verify_reduction(out).ok


def test_silence_earns_only_the_universe():
    out = build_reduction(FLAGSHIP)
    silent = witness_table(out.instance.structure, ())
    assert evaluate_table(silent, out.instance) == Fraction(3)


def test_nonminimal_witness_is_reported():
    inst = _inst(3, [{1}, {2}, {1, 2}], 1)
    out = build_reduction(inst)
    assert out.h == 1 and out.witness_sets == (0,)
    assert out.value == Fraction(17, 2)
    wasteful = witness_table(out.instance.structure, (2,))
    assert evaluate_table(wasteful, out.instance) == Fraction(16, 2)
    report = verify_reduction(replace(out, witness=wasteful))
    assert not report.ok
    assert any("set receivers" in f for f in report.failures)
    assert any("differs from the recorded optimum" in f for f in report.failures)


def test_mislabelled_witness_fails_bayes_consistency():
    out = build_reduction(FLAGSHIP)
    # the witness's labels sent with a coin flip in both states: every
    # informed receiver claims a certainty his signal does not give him
    half = (Fraction(1, 2), Fraction(1, 2))
    flipped = replace(out.witness, rows={"0": half, "1": half})
    report = verify_reduction(replace(out, witness=flipped))
    assert not report.ok
    assert report.failures[0].startswith("witness table is not self-consistent: receiver 1:")
    assert "witness table differs from the scheme that reveals on the witness channels" in (
        report.failures
    )


def test_payoff_by_state_splits_the_value():
    out = build_reduction(FLAGSHIP)
    # state 0: the three universe receivers; state 1: the 4w bonus and the
    # one universe receiver outside the union {1, 2}
    assert payoff_by_state(out.witness, out.instance) == {"0": Fraction(3), "1": Fraction(13)}
    assert evaluate_table(out.witness, out.instance) == Fraction(8)


def test_consistent_but_nonminimal_output_fails_the_upper_bound():
    inst = _inst(3, [{1}, {2}, {1, 2}], 1)
    out = build_reduction(inst)
    assert state_ceilings(out.instance) == {"0": Fraction(3), "1": Fraction(14)}
    # every check but the bound agrees with a reduction that picks set 3
    # (union {1, 2}, h' = 2) and records its own value (6w - h')/2
    picks = (2,)
    padded = replace(
        out,
        h=2,
        witness_sets=picks,
        witness=witness_table(out.instance.structure, picks),
        value=Fraction(6 * 3 - 2, 2),
    )
    report = verify_reduction(padded)
    assert not report.ok
    assert report.value == Fraction(8)
    assert report.failures == ("state 1: the witness earns 13, the upper bound is 14",)


def test_degenerate_budget_bound_is_the_unconditional_bonus():
    for w, sets in [(1, [{1}]), (3, [{1}, {2}]), (4, [{1, 2}, {3}, {4}])]:
        out = build_reduction(_inst(w, sets, 0))
        five_w = Fraction(5 * w)
        assert state_ceilings(out.instance) == {"0": five_w, "1": five_w}
        assert out.value == five_w
        assert verify_reduction(out).ok


def test_upper_bound_rejects_instances_of_another_shape():
    out = build_reduction(FLAGSHIP)
    groups = out.instance.utilities.groups
    loud = replace(groups[1], rule=replace(groups[1].rule, cutoff=Fraction(1)))
    utilities = replace(out.instance.utilities, groups=(groups[0], loud) + groups[2:])
    report = verify_reduction(replace(out, instance=replace(out.instance, utilities=utilities)))
    assert not report.ok
    assert any(f.startswith("no upper bound applies") for f in report.failures)


def _subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def _best_two_letter_scheme(inst):
    """Exact optimum of the gadget, as the module docstring describes it,
    over every scheme that sends letter 0 or 1 on each channel.

    A scheme is a law on signal vectors per state (uniform prior).  One
    LP per labelling: which channels' letter 1 is never sent in state 0
    (a set receiver seeing it is certain of state 1; relabelling letters
    makes letter 1 the only candidate), and which views of each universe
    receiver keep its posterior on state 1 at or below 9/10, which under
    the uniform prior reads P(view | 1) <= 9 P(view | 0).  A labelling
    only ever undercounts, so the best LP over all of them is the
    optimum.
    """
    t, w = inst.t, inst.w
    signals = list(product((0, 1), repeat=t))
    n = len(signals)
    rows = [[j for j in range(t) if e in inst.sets[j]] for e in range(1, w + 1)]
    views = [[tuple(sig[j] for j in row) for sig in signals] for row in rows]
    best = None
    for certain in product((0, 1), repeat=t):
        revealing = [any(c and x for c, x in zip(certain, sig)) for sig in signals]
        fires = [sum(c and x for c, x in zip(certain, sig)) >= inst.b for sig in signals]
        # a view carrying a certain letter is never calm
        calm_candidates = [
            sorted({v for v in vs if not any(certain[j] and x for j, x in zip(row, v))})
            for row, vs in zip(rows, views)
        ]
        for calm in product(*(list(_subsets(c)) for c in calm_candidates)):
            constraints = [({s * n + k: 1 for k in range(n)}, EQ, 1) for s in (0, 1)]
            constraints += [({k: 1}, EQ, 0) for k in range(n) if revealing[k]]
            for vs, kept in zip(views, calm):
                for v in kept:
                    seen = [k for k in range(n) if vs[k] == v]
                    row = {n + k: 1 for k in seen}
                    row.update({k: -9 for k in seen})
                    constraints.append((row, LE, 0))
            pay = [
                4 * w * fires[k] + sum(vs[k] in kept for vs, kept in zip(views, calm))
                for k in range(n)
            ]
            objective = {s * n + k: Fraction(pay[k], 2) for s in (0, 1) for k in range(n)}
            solution = solve(rational_program(2 * n, objective, constraints))
            if best is None or solution.objective > best:
                best = solution.objective
    return best


def test_brute_force_optimum_matches_the_reduction_value():
    covered = 0
    for w in (1, 2):
        subsets = [
            frozenset(c) for size in range(1, w + 1) for c in combinations(range(1, w + 1), size)
        ]
        for t in (1, 2):
            for family in combinations(subsets, t):
                for b in range(t + 1):
                    inst = BUnionInstance(w=w, sets=family, b=b)
                    out = build_reduction(inst)
                    assert _best_two_letter_scheme(inst) == out.value, (w, family, b)
                    assert verify_reduction(out).ok
                    covered += 1
    assert covered == 17


def test_dominance_claim_on_flagship_is_an_undercount():
    out = build_reduction(FLAGSHIP)
    claimed = claimed_dominance_pairs(FLAGSHIP)
    actual = dominance_set(out.instance.structure)
    assert claimed < actual
    # universe element 3 sits in no set: its empty row is dominated by all
    assert (0, 5) in actual and (0, 5) not in claimed


def test_dominance_claim_is_exact_without_degeneracies():
    inst = _inst(2, [{1}, {2}, {1, 2}], 2)
    structure = reduction_structure(inst)
    assert claimed_dominance_pairs(inst) == dominance_set(structure)


def _clean(inst):
    """No universe row inside another, none inside a single channel."""
    rows = [
        frozenset(j for j in range(inst.t) if (i + 1) in inst.sets[j])
        for i in range(inst.w)
    ]
    for r in rows:
        if len(r) <= 1:
            return False
    for a, c in combinations(rows, 2):
        if a <= c or c <= a:
            return False
    return True


def test_random_instances_round_out_the_claims():
    rng = random.Random(404)
    picker = random.Random(405)
    for _ in range(40):
        w = rng.randint(1, 6)
        t = rng.randint(1, 5)
        sets = [
            frozenset(rng.sample(range(1, w + 1), rng.randint(1, w)))
            for _ in range(t)
        ]
        b = rng.randint(0, t)
        inst = _inst(w, sets, b)
        out = build_reduction(inst)
        # independent minimum-union search
        best = None
        for pick in combinations(range(t), b):
            union = set()
            for j in pick:
                union |= sets[j]
            best = len(union) if best is None else min(best, len(union))
        assert out.h == best
        expected = (
            Fraction(5 * w)
            if b == 0
            else Fraction(w, 2) + Fraction(4 * w + (w - out.h), 2)
        )
        assert out.value == expected
        assert evaluate_table(out.witness, out.instance) == expected
        assert verify_reduction(out).ok
        # the closed-form witness against the Bayes-rule construction, on
        # the minimum pick and on an arbitrary one
        structure = out.instance.structure
        assert out.witness == witness_table(structure, out.witness_sets)
        pick = tuple(sorted(picker.sample(range(t), picker.randint(0, t))))
        assert revealing_table(out.instance, pick) == witness_table(structure, pick)
        claimed = claimed_dominance_pairs(inst)
        actual = dominance_set(out.instance.structure)
        assert claimed <= actual
        if _clean(inst):
            assert claimed == actual


def test_value_moves_the_right_way_with_the_budget():
    sets = [{1}, {2, 3}, {1, 4}, {2}]
    prev_h, prev_value = None, None
    for b in range(0, 5):
        inst = _inst(4, sets, b)
        h, _ = min_b_union(inst)
        value = optimal_value(4, h, b)
        if b >= 2:
            assert h >= prev_h
            assert value <= prev_value
        if b == 1:
            assert value <= prev_value
        prev_h, prev_value = h, value


def _additive_reduction():
    instance = build_reduction(FLAGSHIP).instance
    utilities = AdditiveUtility((ConstantUtility(Fraction(0)),) * instance.k)
    return replace(instance, utilities=utilities)


def _uncertain_bonus():
    instance = build_reduction(FLAGSHIP).instance
    bonus, *payers = instance.utilities.groups
    vague = replace(bonus, rule=replace(bonus.rule, cutoff=Fraction(9, 10)))
    return replace(instance, utilities=replace(instance.utilities, groups=(vague, *payers)))


@pytest.mark.parametrize(
    "make, message",
    [
        (_additive_reduction, "not a two-state supermajority instance"),
        (_uncertain_bonus, "the first group does not reward certainty of state 1"),
    ],
    ids=["additive", "uncertain-bonus"],
)
def test_state_ceilings_refuse_another_shape(make, message):
    """state_ceilings reads only a reduction's own shape: additive
    utilities, or a bonus that does not ask certainty of state 1, are
    refused with their message."""
    instance = make()
    with pytest.raises(ValidationError) as refused:
        state_ceilings(instance)
    assert str(refused.value) == message
