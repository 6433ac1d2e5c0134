"""Reduction from minimum b-union to multi-channel persuasion.

Given sets Q_1 .. Q_t over a universe [w] and a budget b, the reduction
builds a two-state instance whose optimal sender value is governed by the
smallest union of b sets.  One channel per set; the set receiver R_{Q_j}
hears only channel j, while the universe receiver R_i hears every channel
whose set contains i.  A supermajority bonus of 4w fires when at least b
set receivers are certain of state 1, and each universe receiver pays the
sender 1 as long as his own posterior on state 1 stays at or below 9/10.

Revealing the state on the b channels of a minimum union h informs
exactly h universe receivers, so the sender banks, per state, w in state
0 and 4w + (w - h) in state 1, for an expected (6w - h)/2 under the
uniform prior.  Shrinking h is the only way up, which is what makes
optimal signaling here as hard as minimum b-union.  With b = 0 the bonus
is unconditional and saying nothing at all yields 5w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, repeat
from math import comb
from operator import and_, or_
from typing import Optional

from .beliefs import SignalingTable, payoff_by_state
from .errors import BudgetExceeded, ValidationError
from .model import (
    CommunicationStructure,
    Group,
    MemberRule,
    PersuasionInstance,
    Prior,
    StateSpace,
    SupermajorityUtility,
    dot,
)

DEFAULT_UNION_BUDGET = 1_000_000

_SPACE = StateSpace(("0", "1"))
_PRIOR = Prior(_SPACE, (Fraction(1, 2), Fraction(1, 2)))
_CUTOFF = Fraction(9, 10)
_CERTAIN_OF_ONE = MemberRule(op="ge", state="1", cutoff=Fraction(1))
_ZERO, _ONE = Fraction(0), Fraction(1)
_REVEALED = ((_ONE, _ZERO), (_ZERO, _ONE))


@dataclass(frozen=True)
class BUnionInstance:
    """Universe size w, sets Q_1 .. Q_t with 1-based elements, budget b.

    b = 0 is admitted as a degenerate budget: the empty selection has an
    empty union, and the reduction's bonus group then fires everywhere.
    """

    w: int
    sets: tuple[frozenset[int], ...]
    b: int
    # the number of sets, derived from them in __post_init__
    t: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(map(frozenset, self.sets)))
        object.__setattr__(self, "t", len(self.sets))
        if self.w < 1:
            raise ValidationError(f"universe size must be positive, got {self.w}")
        if not self.sets:
            raise ValidationError("at least one set is required")
        for idx, s in enumerate(self.sets):
            if not s:
                raise ValidationError(f"set {idx + 1} is empty")
            if not (all(map(isinstance, s, repeat(int))) and 1 <= min(s) and max(s) <= self.w):
                raise ValidationError(
                    f"set {idx + 1} strays outside the universe 1..{self.w}"
                )
        if not 0 <= self.b <= self.t:
            raise ValidationError(
                f"budget {self.b} must lie between 0 and {self.t}"
            )


def min_b_union(
    inst: BUnionInstance, budget: Optional[int] = DEFAULT_UNION_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum union cardinality over all b-subsets of the sets,
    with the lexicographically first witness (0-based set indices)."""
    if budget is not None and comb(inst.t, inst.b) > budget:
        raise BudgetExceeded(f"C({inst.t}, {inst.b}) selections exceed the budget of {budget}")
    best = inst.w + 1, ()  # above every union: the first selection replaces it
    for picks, sets in zip(combinations(range(inst.t), inst.b), combinations(inst.sets, inst.b)):
        h = len(frozenset().union(*sets))
        if h < best[0]:
            best = h, picks
    return best


def reduction_structure(inst: BUnionInstance) -> CommunicationStructure:
    """Set receivers first (rows 1..t, one private channel each), then
    universe receivers (rows t+1..t+w, hearing the channels of the sets
    that contain them)."""
    rows = [
        tuple(1 if j == i else 0 for j in range(inst.t)) for i in range(inst.t)
    ]
    for e in range(1, inst.w + 1):
        rows.append(tuple(1 if e in inst.sets[j] else 0 for j in range(inst.t)))
    return CommunicationStructure(tuple(rows))


def reduction_utilities(inst: BUnionInstance) -> SupermajorityUtility:
    staying_calm = MemberRule(op="le", state="1", cutoff=_CUTOFF)
    groups = [
        Group(
            members=tuple(range(inst.t)),
            weight=Fraction(4 * inst.w),
            threshold=inst.b,
            rule=_CERTAIN_OF_ONE,
        )
    ]
    for i in range(inst.w):
        groups.append(
            Group(
                members=(inst.t + i,),
                weight=Fraction(1),
                threshold=1,
                rule=staying_calm,
            )
        )
    return SupermajorityUtility(k=inst.t + inst.w, groups=tuple(groups))


def optimal_value(w: int, h: int, b: int) -> Fraction:
    """Expected sender optimum: state 0 pays w, state 1 pays 4w + (w - h)
    once the bonus fires on a minimum union, so (6w - h)/2.  With b = 0
    the bonus fires everywhere, in both states and whatever is said, so
    the optimum is 4w + w = 5w."""
    if b == 0:
        return Fraction(5 * w)
    return Fraction(6 * w - h, 2)


def revealing_table(
    instance: PersuasionInstance, picks: tuple[int, ...]
) -> SignalingTable:
    """The table of the scheme that reveals the state on the picked
    channels, in closed form: in each state every receiver who hears a
    picked channel is certain of the state, and every other receiver
    keeps the prior.  Its oracle, the same scheme's labels worked out by
    Bayes' rule, lives in tests/test_hardness.py."""
    profiles, rows = _revealing(instance, picks)
    return SignalingTable(space=_SPACE, profiles=profiles, rows=rows)


def _revealing(
    instance: PersuasionInstance, picks: tuple[int, ...]
) -> tuple[tuple, dict[str, tuple[Fraction, ...]]]:
    """Profiles and rows of revealing_table."""
    picked = [j in picks for j in range(instance.structure.n)]
    informed = [any(compress(row, picked)) for row in instance.structure.matrix]
    prior = instance.prior.values
    # index (prior, revealed) by whether each receiver hears a picked channel
    sent = [tuple(map((prior, revealed).__getitem__, informed)) for revealed in _REVEALED]
    if not any(informed):
        return (sent[0],), {"0": (_ONE,), "1": (_ONE,)}
    # the two profiles first differ at the first informed receiver, where
    # state 1's label (0, 1) sorts before state 0's (1, 0)
    return (sent[1], sent[0]), {"0": (_ZERO, _ONE), "1": (_ONE, _ZERO)}


@dataclass(frozen=True)
class ReductionOutput:
    bunion: BUnionInstance
    instance: PersuasionInstance
    h: int
    witness_sets: tuple[int, ...]
    value: Fraction
    witness: SignalingTable


def build_reduction(
    inst: BUnionInstance, budget: Optional[int] = DEFAULT_UNION_BUDGET
) -> ReductionOutput:
    h, picks = min_b_union(inst, budget=budget)
    structure = reduction_structure(inst)
    instance = PersuasionInstance(
        space=_SPACE,
        prior=_PRIOR,
        structure=structure,
        utilities=reduction_utilities(inst),
    )
    return ReductionOutput(
        bunion=inst,
        instance=instance,
        h=h,
        witness_sets=picks,
        value=optimal_value(inst.w, h, inst.b),
        witness=revealing_table(instance, picks),
    )


@dataclass(frozen=True)
class ReductionReport:
    ok: bool
    failures: tuple[str, ...]
    value: Fraction


def state_ceilings(instance: PersuasionInstance) -> dict[str, Fraction]:
    """Per-state upper bound on the sender's payoff under any scheme,
    read off a reduction instance's utilities and channel rows.

    The first group is the bonus: weight W, threshold b, members the set
    receivers, rule "certain of state 1".  Every other group is a single
    universe receiver who pays 1 while its posterior on state 1 stays at
    or below a cutoff under 1; U is their number.  A set receiver reaches
    every universe receiver who hears all of its channels, and h is the
    least number of universe receivers reached by b set receivers, found
    by enumerating the b-selections.

    - State 0 pays at most U.  A set receiver certain of state 1 has seen
      a signal that is never sent in state 0, so the bonus cannot fire.
    - State 1 pays at most max(U, W + U - h).  When the bonus fires, at
      least b set receivers are certain of state 1; every universe
      receiver they reach sees their signals, is certain too, and does
      not pay.
    - With b = 0 the bonus fires everywhere: both states pay W + U.

    Raises ValidationError when the utilities do not have this shape.
    """
    utilities = instance.utilities
    if instance.space != _SPACE or not isinstance(utilities, SupermajorityUtility):
        raise ValidationError("not a two-state supermajority instance")
    bonus, *payers = utilities.groups
    if bonus.rule != _CERTAIN_OF_ONE:
        raise ValidationError("the first group does not reward certainty of state 1")
    calm_rule = None
    for g in payers:
        # payers usually share one rule object: check each object once
        if g.rule is not calm_rule:
            is_calm = (g.rule.op, g.rule.state) == ("le", "1") and g.rule.cutoff < 1
            calm_rule = g.rule if is_calm else None
        if len(g.members) != 1 or g.threshold != 1 or g.weight != 1 or calm_rule is None:
            raise ValidationError(
                f"group of receivers {[i + 1 for i in g.members]} is not one calm universe receiver"
            )
    calm = len(payers)
    if bonus.threshold == 0:
        return {"0": bonus.weight + calm, "1": bonus.weight + calm}
    # sets of universe receivers as bitmasks: bit i for the i-th payer
    matrix = instance.structure.matrix
    bits = [1 << i for i in range(calm)]
    hearing = [
        sum(compress(bits, column))
        for column in zip(*(matrix[g.members[0]] for g in payers))
    ]
    everyone = (1 << calm) - 1
    reach = [reduce(and_, compress(hearing, matrix[j]), everyone) for j in bonus.members]
    h = min(reduce(or_, pick).bit_count() for pick in combinations(reach, bonus.threshold))
    return {"0": Fraction(calm), "1": max(Fraction(calm), bonus.weight + (calm - h))}


def verify_reduction(out: ReductionOutput) -> ReductionReport:
    """Optimality audit of a reduction output.

    Checks, in exact arithmetic: the witness table is Bayes-consistent
    (each receiver's posterior given his label is that label); it is the
    one induced by revealing on the witness channels; in state 1 exactly
    the witness set receivers are certain of the state; the universe
    receivers pushed past 9/10 are exactly the witness union; the
    witness value equals the recorded optimum; and in each state the
    witness earns the upper bound of state_ceilings, which holds for
    every scheme:

    - state 0 pays at most w: a set receiver certain of state 1 has seen
      a signal never sent in state 0, so the bonus cannot fire there;
    - state 1 pays at most 4w + (w - h) for b >= 1: the bonus needs b set
      receivers certain of state 1, which makes every universe receiver
      in the union of their sets certain too, and that union has at
      least h members (h is recounted by enumeration, not read from
      out.h); without the bonus state 1 pays at most w <= 5w - h;
    - with b = 0 both states pay 5w.

    A witness that meets the bound in both states certifies the recorded
    value as the optimum.
    """
    inst, table = out.bunion, out.witness
    failures: list[str] = []
    prior = out.instance.prior
    try:
        table.validate(prior)
    except Exception as exc:
        failures.append(f"witness table is not self-consistent: {exc}")
    if table.space != _SPACE or (table.profiles, table.rows) != _revealing(
        out.instance, out.witness_sets
    ):
        failures.append(
            "witness table differs from the scheme that reveals on the witness channels"
        )
    one = _SPACE.index("1")
    row = table.rows["1"]
    certain_sets: set[int] = set()
    alarmed_universe: set[int] = set()
    for profile in compress(table.profiles, row):
        for j in range(inst.t):
            if profile[j][one] == 1:
                certain_sets.add(j)
        for i in range(inst.w):
            if profile[inst.t + i][one] > _CUTOFF:
                alarmed_universe.add(i + 1)
    if certain_sets != set(out.witness_sets):
        failures.append(
            f"set receivers certain of state 1 are {sorted(x + 1 for x in certain_sets)}, "
            f"expected {sorted(x + 1 for x in out.witness_sets)}"
        )
    union = frozenset().union(*map(inst.sets.__getitem__, out.witness_sets))
    if alarmed_universe != set(union):
        failures.append(
            f"universe receivers past 9/10 are {sorted(alarmed_universe)}, "
            f"expected {sorted(union)}"
        )
    space = out.instance.space
    earned = payoff_by_state(table, out.instance)
    achieved = dot(prior.values, earned.values())
    if achieved != out.value:
        failures.append(
            f"witness value {achieved} differs from the recorded optimum {out.value}"
        )
    try:
        ceilings = state_ceilings(out.instance)
    except ValidationError as exc:
        failures.append(f"no upper bound applies: {exc}")
    else:
        for state in space.states:
            if earned[state] != ceilings[state]:
                failures.append(
                    f"state {state}: the witness earns {earned[state]}, "
                    f"the upper bound is {ceilings[state]}"
                )
    return ReductionReport(
        ok=not failures, failures=tuple(failures), value=achieved
    )
