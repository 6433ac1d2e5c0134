import itertools
import json
import random
import re
from bisect import bisect_left
from fractions import Fraction

import pytest

from mcpersuasion.beliefs import BeliefDistribution
from mcpersuasion.errors import (
    BadEpsilon,
    GridMismatch,
    MatrixShapeMismatch,
    NonPositivePrior,
    PriorNotNormalized,
    StateSpaceMismatch,
    ValidationError,
)
from mcpersuasion.io import render_document
from mcpersuasion.model import (
    AdditiveUtility,
    CommunicationStructure,
    ConstantUtility,
    Group,
    MemberRule,
    PersuasionInstance,
    LinearUtility,
    PiecewiseUtility,
    PointUtility,
    Prior,
    StateSpace,
    SupermajorityUtility,
    TableUtility,
    ThresholdUtility,
    check_posterior,
    format_label,
    format_rational,
    instance_to_doc,
    merge_duplicate_receivers,
    parse_rational,
    validate_instance,
)

TWO = StateSpace(("0", "1"))


def test_parse_rational_round_trip_random():
    rng = random.Random(17)
    for _ in range(200):
        num = rng.randint(-500, 500)
        den = rng.randint(1, 500)
        q = Fraction(num, den)
        assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("+5/10") == Fraction(1, 2)
    assert parse_rational(3) == Fraction(3)


@pytest.mark.parametrize("bad", ["0.5", "1/0", "1e-3", "3 / 4", "", "a/b", None, 1.5, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["\u0663/4", "3/1\u0664", "\uff11/2", "-\u09e7"], ids=ascii)
def test_parse_rational_rejects_digits_that_are_not_ascii(bad):
    # Fraction itself reads any Unicode decimal digit
    assert Fraction(bad) is not None
    with pytest.raises(ValidationError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [" 1/2", "1/2 ", "1/2\n", "\u20031/2", "\t7"], ids=ascii)
def test_parse_rational_rejects_surrounding_whitespace(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_state_names_must_be_strings():
    # names were once coerced with str() after the uniqueness check, so
    # (1, "1") became two states named "1"
    for states in ((1, "1"), (None,), ("0", True), (b"0", "1")):
        with pytest.raises(ValidationError):
            StateSpace(states)
    assert StateSpace(["a", "b"]).states == ("a", "b")


def test_format_rational_is_reduced():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(0, 5)) == "0"


@pytest.mark.parametrize(
    "value, text",
    [
        (0, "0"),
        (3, "3"),
        (-4, "-4"),
        (True, "1"),
        (False, "0"),
        (Fraction(0), "0"),
        (Fraction(-3, 6), "-1/2"),
        (Fraction(-5), "-5"),
        (Fraction(7, 1), "7"),
    ],
    ids=repr,
)
def test_format_rational_formats_every_exact_type_as_its_fraction(value, text):
    """An exact Fraction is formatted as it is; an int or a bool is made a
    Fraction first, so True is "1", never "True"."""
    assert format_rational(value) == text


def test_prior_validation():
    Prior(TWO, (Fraction(7, 10), Fraction(3, 10)))
    with pytest.raises(NonPositivePrior):
        Prior(TWO, (Fraction(1), Fraction(0)))
    with pytest.raises(NonPositivePrior):
        Prior(TWO, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(PriorNotNormalized):
        Prior(TWO, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(MatrixShapeMismatch):
        Prior(TWO, (Fraction(1),))


@pytest.mark.parametrize(
    "values",
    [(0.25, 0.75), (0.1, 0.9), ("1/3", "2/3"), (Fraction(1, 2), 0.5), (True, 0), (Fraction(1), None)],
)
def test_prior_takes_only_ints_and_fractions(values):
    """A float is never read as the rational it only approximates, nor a
    string parsed, nor a bool taken as 0 or 1: each is refused by type,
    before its sum is looked at.  An int is exact, and kept as a Fraction."""
    with pytest.raises(ValidationError, match="neither an int nor a Fraction"):
        Prior(TWO, values)
    [value] = Prior(StateSpace(("only",)), (1,)).values
    assert type(value) is Fraction and value == 1


def test_structure_basics():
    M = CommunicationStructure(((1, 1, 0), (0, 1, 1)))
    assert M.k == 2 and M.n == 3
    assert M.channels_of(0) == (0, 1)
    assert M.observers_of(1) == (0, 1)
    assert M.dominance_masks == ((0, 0), (0, 0))  # neither row holds the other
    assert not M.has_duplicate_rows()
    with pytest.raises(MatrixShapeMismatch):
        CommunicationStructure(((1, 0), (1,)))
    with pytest.raises(MatrixShapeMismatch):
        CommunicationStructure(((2, 0),))


@pytest.mark.parametrize(
    "matrix",
    [((0.5, True),), ((True,),), ((1, False),), ((1.0, 0),), (("1",),), ((1, None),)],
    ids=repr,
)
def test_structure_refuses_entries_that_are_not_int(matrix):
    with pytest.raises(MatrixShapeMismatch):
        CommunicationStructure(matrix)


def test_merge_duplicate_receivers():
    M = CommunicationStructure(((1, 0), (1, 0), (0, 1)))
    merged, mapping = merge_duplicate_receivers(M)
    assert merged.matrix == ((1, 0), (0, 1))
    assert mapping == (0, 0, 1)
    again, identity = merge_duplicate_receivers(merged)
    assert again == merged and identity == (0, 1)
    assert again is merged  # with the dominance order merged keeps


def test_threshold_utility_cutoff_inclusive():
    u = ThresholdUtility(state="1", cutoff=Fraction(1, 2))
    assert u.value_at((Fraction(1, 2), Fraction(1, 2)), TWO) == 1
    assert u.value_at((Fraction(3, 4), Fraction(1, 4)), TWO) == 0
    strict = ThresholdUtility(state="1", cutoff=Fraction(1, 2), strict=True)
    assert strict.value_at((Fraction(1, 2), Fraction(1, 2)), TWO) == 0


def test_point_utility():
    u = PointUtility(point=(Fraction(7, 10), Fraction(3, 10)), value=Fraction(5))
    assert u.value_at((Fraction(7, 10), Fraction(3, 10)), TWO) == 5
    assert u.value_at((Fraction(1, 2), Fraction(1, 2)), TWO) == 0


def test_piecewise_utility_upper_semicontinuous():
    u = PiecewiseUtility(
        state="1",
        breakpoints=(Fraction(1, 4), Fraction(1, 2)),
        values=(Fraction(0), Fraction(3), Fraction(1)),
    )

    def at(q):
        return u.value_at((1 - Fraction(q), Fraction(q)), TWO)

    assert at(Fraction(1, 8)) == 0
    assert at(Fraction(3, 8)) == 3
    assert at(Fraction(3, 4)) == 1
    # breakpoints take the larger neighbouring value
    assert at(Fraction(1, 4)) == 3
    assert at(Fraction(1, 2)) == 3
    assert at(Fraction(0)) == 0
    assert at(Fraction(1)) == 1
    with pytest.raises(MatrixShapeMismatch):
        PiecewiseUtility(state="1", breakpoints=(Fraction(1, 2),), values=(Fraction(0),))
    with pytest.raises(ValidationError):
        PiecewiseUtility(
            state="1",
            breakpoints=(Fraction(1, 2), Fraction(1, 4)),
            values=(Fraction(0), Fraction(1), Fraction(2)),
        )


def _piecewise_reference(u, q):
    """value_at by a count and a scan of the breakpoints."""
    idx = sum(1 for b in u.breakpoints if b < q)
    if q in u.breakpoints:
        return max(u.values[idx], u.values[idx + 1])
    return u.values[idx]


def test_piecewise_value_at_matches_the_scan_on_every_lattice_point():
    rng = random.Random(74)
    on_breakpoint = 0
    for _ in range(50):
        candidates = {Fraction(rng.randint(1, d - 1), d) for d in (10, 12, 30, 40, 7, 13)}
        bps = tuple(sorted(rng.sample(sorted(candidates), rng.randint(0, 5))))
        u = PiecewiseUtility(
            state=rng.choice(("0", "1")),
            breakpoints=bps,
            values=tuple(Fraction(rng.randint(-3, 3)) for _ in range(len(bps) + 1)),
        )
        for step in range(10, 41):
            for j in range(step + 1):
                point = (Fraction(step - j, step), Fraction(j, step))
                q = point[TWO.index(u.state)]
                on_breakpoint += q in bps
                assert u.value_at(point, TWO) == _piecewise_reference(u, q), (u, point)
    assert on_breakpoint > 500


def _bisect_reference(u, q):
    """value_at as it ran: bisect_left over the Fraction breakpoints."""
    bps = u.breakpoints
    idx = bisect_left(bps, q)
    if idx < len(bps) and bps[idx] == q:
        return max(u.values[idx], u.values[idx + 1])
    return u.values[idx]


def test_piecewise_value_at_agrees_with_bisect_over_fractions():
    """value_at, which bisects the breakpoints as integers over their
    common denominator, gives what bisect_left over the Fraction
    breakpoints gives, at every breakpoint, between and beside them and
    at 0 and 1, for up to 200 breakpoints of unrelated denominators."""
    rng = random.Random(3904)
    for count in (0, 1, 2, 5, 30, 200):
        for _ in range(6):
            pool = {Fraction(rng.randint(1, d - 1), d) for d in rng.sample(range(2, 400), 60)}
            bps = tuple(sorted(rng.sample(sorted(pool), min(count, len(pool)))))
            u = PiecewiseUtility(
                state=rng.choice(("0", "1")),
                breakpoints=bps,
                values=tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in (0, *bps)),
            )
            tiny = Fraction(1, 10**9)
            qs = [Fraction(0), Fraction(1), *bps]
            qs += [b + tiny for b in bps] + [b - tiny for b in bps]
            qs += [Fraction(rng.randint(0, 997), 997) for _ in range(50)]
            for q in qs:
                point = (q, 1 - q) if u.state == "0" else (1 - q, q)
                assert u.value_at(point, TWO) == _bisect_reference(u, q), (u, q)


def _fraction_posterior_check(point):
    """check_posterior as it ran in Fractions."""
    if any(x < 0 for x in point):
        raise ValidationError(f"negative coordinate in posterior {format_label(point)}")
    if sum(point) != 1:
        raise ValidationError(f"posterior does not sum to 1: {format_label(point)}")


def test_check_posterior_refuses_as_the_fraction_check_did():
    """check_posterior, in integers over the point's common denominator,
    refuses a negative coordinate and coordinates off 1 with the Fraction
    check's messages, and accepts what it accepted; an inexact
    coordinate is refused by type."""
    rng = random.Random(3905)
    verdicts = set()
    for _ in range(400):
        size = rng.randint(1, 4)
        point = tuple(Fraction(rng.randint(-2, 9), rng.randint(1, 9)) for _ in range(size))
        if rng.random() < 0.5:
            point = (*point[:-1], 1 - sum(point[:-1]))
        outcome = []
        for check in (check_posterior, _fraction_posterior_check):
            try:
                check(point)
                outcome.append(None)
            except ValidationError as exc:
                outcome.append(str(exc))
        assert outcome[0] == outcome[1], point
        verdicts.add(outcome[0] and outcome[0].split()[0])
    assert verdicts == {None, "negative", "posterior"}
    for bad in ((0.5, 0.5), (True, False), ("1", "0")):
        with pytest.raises(ValidationError, match="posterior coordinate"):
            check_posterior(bad)


def test_linear_utility_value_at():
    u = LinearUtility(coeffs=(Fraction(0), Fraction(2)), offset=Fraction(1, 2))
    assert u.value_at((Fraction(1, 4), Fraction(3, 4)), TWO) == Fraction(2)


def test_table_utility_grid_mismatch():
    u = TableUtility((((Fraction(1), Fraction(0)), Fraction(4)),))
    assert u.value_at((Fraction(1), Fraction(0)), TWO) == 4
    with pytest.raises(GridMismatch):
        u.value_at((Fraction(1, 2), Fraction(1, 2)), TWO)


def _table_scan(u, point):
    """TableUtility.value_at as a scan of the table: the value of the
    entry at point, GridMismatch when no entry is there."""
    for p, v in u.table:
        if p == point:
            return v
    raise GridMismatch(f"utility table has no value at {format_label(point)}")


def test_table_value_at_matches_the_scan_with_missing_points():
    """Seeded tables over part of the 1/D lattice of two or three states,
    some points written with int coordinates, queried at every lattice
    point: the scan's value where the table has an entry, and
    GridMismatch with the scan's message where it has none."""
    rng = random.Random(32)
    found = missing = 0
    for _ in range(100):
        dim, D = rng.choice((2, 3)), rng.randint(1, 12)
        lattice = [
            (*(F(a, D) for a in head), F(D - sum(head), D))
            for head in itertools.product(range(D + 1), repeat=dim - 1)
            if sum(head) <= D
        ]
        table = []
        for w in rng.sample(lattice, rng.randint(1, len(lattice))):
            w = tuple(int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in w)
            table.append((w, F(rng.randint(-9, 9), rng.randint(1, 9))))
        u = TableUtility(tuple(table))
        for w in lattice:
            try:
                want = _table_scan(u, w)
            except GridMismatch as exc:
                with pytest.raises(GridMismatch, match=re.escape(str(exc))):
                    u.value_at(w, TWO)
                missing += 1
            else:
                assert u.value_at(w, TWO) == want
                found += 1
    assert found and missing


def test_additive_sums_over_receivers():
    U = AdditiveUtility(
        (
            ConstantUtility(Fraction(2)),
            ThresholdUtility(state="1", cutoff=Fraction(1, 2)),
        )
    )
    profile = [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4)),
    ]
    assert U.evaluate(profile, TWO) == 3


def _raw_instance():
    return {
        "states": ["0", "1"],
        "prior": ["7/10", "3/10"],
        "structure": [[1, 0], [0, 1]],
        "utilities": [
            {"kind": "threshold", "state": "1", "cutoff": "1/2"},
            {"kind": "constant", "value": "1"},
        ],
    }


def test_validate_instance_round_trip():
    inst = validate_instance(_raw_instance())
    assert inst.k == 2
    assert inst.prior.values == (Fraction(7, 10), Fraction(3, 10))
    doc = instance_to_doc(inst)
    assert validate_instance(doc) == inst


def test_an_instance_carrying_an_epsilon_round_trips_through_a_document():
    inst = validate_instance(dict(_raw_instance(), epsilon="1/12"))
    assert inst.epsilon == Fraction(1, 12)
    doc = json.loads(render_document(instance_to_doc(inst)))
    assert doc["epsilon"] == "1/12"
    assert validate_instance(doc) == inst


F = Fraction


_MILLIONTH = (F(1, 10**6), F(999999, 10**6))
_TWENTIETHS = tuple(((F(a, 20), F(20 - a, 20)), F(a % 3)) for a in range(21))


@pytest.mark.parametrize(
    "refuse, point, message",
    [
        (
            lambda w: TableUtility(_TWENTIETHS).value_at(w, TWO),
            _MILLIONTH,
            "utility table has no value at (1/1000000, 999999/1000000)",
        ),
        (check_posterior, (F(3, 2), F(-1, 2)), "negative coordinate in posterior (3/2, -1/2)"),
        (check_posterior, (F(1, 3), F(1, 3)), "posterior does not sum to 1: (1/3, 1/3)"),
        (
            lambda w: BeliefDistribution.from_pairs([(w, F(-1, 7))]),
            (F(2, 5), F(3, 5)),
            "negative mass -1/7 at (2/5, 3/5)",
        ),
    ],
    ids=["missing-table-point", "negative-coordinate", "sum-off-1", "negative-mass"],
)
def test_a_refusal_names_its_point_as_format_label_writes_it(refuse, point, message):
    """A missing table point, a negative coordinate, a posterior off 1
    and a negative belief mass are each refused with the point written
    as format_label writes it, never as its repr."""
    with pytest.raises(ValidationError) as raised:
        refuse(point)
    assert str(raised.value) == message
    assert format_label(point) in message and "Fraction(" not in message


@pytest.mark.parametrize(
    "utility",
    [
        PointUtility(point=(F(1, 4), F(3, 4)), value=F(5), otherwise=F(-1, 2)),
        PiecewiseUtility(state="1", breakpoints=(F(1, 3), F(2, 3)), values=(F(0), F(2), F(1))),
        LinearUtility(coeffs=(F(-1), F(3, 2)), offset=F(1, 5)),
        TableUtility((((F(1), F(0)), F(4)), ((F(0), F(1)), F(-2)))),
        ThresholdUtility(state="0", cutoff=F(2, 5), high=F(3), low=F(-1), strict=True),
    ],
    ids=lambda u: u.to_doc()["kind"],
)
def test_every_receiver_utility_kind_round_trips_through_a_document(utility):
    inst = PersuasionInstance(
        space=TWO,
        prior=Prior(TWO, (F(7, 10), F(3, 10))),
        structure=CommunicationStructure(((1, 0), (0, 1))),
        utilities=AdditiveUtility((utility, ConstantUtility(F(1)))),
    )
    doc = json.loads(render_document(instance_to_doc(inst)))
    assert validate_instance(doc) == inst


#: per utility kind, a builder of the utility with one numeric field,
#: named, set to a given value, for every numeric field of the kind
UTILITY_FIELDS = {
    "constant": {"value": lambda v: ConstantUtility(v)},
    "threshold": {
        "cutoff": lambda v: ThresholdUtility(state="1", cutoff=v),
        "high": lambda v: ThresholdUtility(state="1", cutoff=F(1, 2), high=v),
        "low": lambda v: ThresholdUtility(state="1", cutoff=F(1, 2), low=v),
    },
    "point": {
        "point": lambda v: PointUtility(point=(v, F(1, 2)), value=F(1)),
        "value": lambda v: PointUtility(point=(F(1, 2), F(1, 2)), value=v),
        "otherwise": lambda v: PointUtility(point=(F(1, 2), F(1, 2)), value=F(1), otherwise=v),
    },
    "piecewise": {
        "breakpoints": lambda v: PiecewiseUtility(state="1", breakpoints=(v,), values=(F(0), F(1))),
        "values": lambda v: PiecewiseUtility(state="1", breakpoints=(F(1, 2),), values=(F(0), v)),
    },
    "linear": {
        "coeffs": lambda v: LinearUtility(coeffs=(F(1), v)),
        "offset": lambda v: LinearUtility(coeffs=(F(1), F(0)), offset=v),
    },
    "table": {
        "points": lambda v: TableUtility((((v, F(1, 2)), F(1)),)),
        "values": lambda v: TableUtility((((F(1, 2), F(1, 2)), v),)),
    },
    "supermajority": {
        "cutoff": lambda v: MemberRule(op="ge", state="1", cutoff=v),
        "weight": lambda v: Group(
            members=(0,), weight=v, threshold=1, rule=MemberRule("ge", "1", F(1, 2))
        ),
    },
}


@pytest.mark.parametrize("bad", [0.1, True, "1/2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("kind", list(UTILITY_FIELDS))
def test_utilities_take_only_ints_and_fractions(kind, bad):
    """Every numeric field of every utility kind is refused by type when
    it is a float, a bool or a string, never converted, as a prior's
    entries are; a Fraction there, or an int where it can stand, is
    taken."""
    for name, build in UTILITY_FIELDS[kind].items():
        with pytest.raises(ValidationError, match="neither an int nor a Fraction"):
            build(bad)
        build(F(1, 2))
        if name not in ("breakpoints", "point", "points"):  # 2 is no coordinate
            build(2)


def test_an_inexact_utility_is_refused_before_any_solve():
    """ConstantUtility(0.1) used to reach the grid builder, which then
    failed with AttributeError; TableUtility read 0.1 as a binary fraction."""
    with pytest.raises(ValidationError):
        ConstantUtility(0.1)
    with pytest.raises(ValidationError):
        TableUtility((((F(1), F(0)), 0.1),))
    [(_, value)] = TableUtility((((F(1), F(0)), 3),)).table
    assert value == 3 and type(value) is int


@pytest.mark.parametrize(
    "entry, utility",
    [
        ({"kind": "threshold", "state": "1", "cutoff": "1/2"}, ThresholdUtility("1", F(1, 2))),
        ({"kind": "point", "point": ["1", "0"], "value": "2"}, PointUtility((F(1), F(0)), F(2))),
        ({"kind": "linear", "coeffs": ["1", "0"]}, LinearUtility((F(1), F(0)))),
    ],
    ids=["threshold", "point", "linear"],
)
def test_omitted_optional_fields_read_as_the_defaults(entry, utility):
    raw = dict(_raw_instance(), utilities=[entry, {"kind": "constant", "value": "1"}])
    assert validate_instance(raw).utilities.receivers[0] == utility


def test_validate_instance_supermajority():
    raw = _raw_instance()
    raw["utilities"] = {
        "kind": "supermajority",
        "groups": [
            {
                "members": [1, 2],
                "weight": "4",
                "threshold": 2,
                "condition": {"op": "ge", "state": "1", "cutoff": "1"},
            }
        ],
    }
    inst = validate_instance(raw)
    cert = (Fraction(0), Fraction(1))
    vague = (Fraction(1, 2), Fraction(1, 2))
    assert inst.utilities.evaluate([cert, cert], inst.space) == 4
    assert inst.utilities.evaluate([cert, vague], inst.space) == 0
    doc = instance_to_doc(inst)
    assert validate_instance(doc) == inst


def test_validate_instance_errors():
    raw = _raw_instance()
    del raw["prior"]
    with pytest.raises(ValidationError):
        validate_instance(raw)

    raw = _raw_instance()
    raw["prior"] = ["1/2", "1/2", "0"]
    with pytest.raises(MatrixShapeMismatch):
        validate_instance(raw)

    raw = _raw_instance()
    raw["utilities"] = [{"kind": "constant", "value": "1"}]
    with pytest.raises(MatrixShapeMismatch):
        validate_instance(raw)

    raw = _raw_instance()
    raw["utilities"][0]["kind"] = "mystery"
    with pytest.raises(ValidationError):
        validate_instance(raw)

    raw = _raw_instance()
    raw["epsilon"] = "3/2"
    with pytest.raises(BadEpsilon):
        validate_instance(raw)

    raw = _raw_instance()
    raw["states"] = ["0", "0"]
    with pytest.raises(ValidationError):
        validate_instance(raw)


# ---------------------------------------------------------------------------
# Each distinct literal read, and each rule object written, once


def per_occurrence(monkeypatch):
    """Make every document reader parse, and every writer format, each
    occurrence on its own: the reference the interning is checked against."""
    from mcpersuasion import io, model

    for module in (io, model):
        monkeypatch.setattr(module, "_reader", lambda parse: parse)
        monkeypatch.setattr(module, "_writer", lambda form: form)


def outcomes(call, *args):
    """call(*args) as it is, then per occurrence: each a value, or a
    refusal's type and message."""
    found = []
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                per_occurrence(mp)
            try:
                found.append(call(*args))
            except ValidationError as exc:
                found.append((type(exc), str(exc)))
    return found


CALM = {"op": "le", "state": "1", "cutoff": "9/10"}


def _groups_doc(condition, weight):
    """Two one-member groups: the first with CALM and weight "1", the
    second with the given condition and weight."""
    return dict(
        _raw_instance(),
        utilities={
            "kind": "supermajority",
            "groups": [
                {"members": [1], "weight": "1", "threshold": 1, "condition": dict(CALM)},
                {"members": [2], "weight": weight, "threshold": 1, "condition": condition},
            ],
        },
    )


LATER_CONDITIONS = [
    pytest.param(dict(CALM), id="same"),
    pytest.param(dict(reversed(CALM.items())), id="reordered"),
    pytest.param(dict(CALM, note="x"), id="extra-key"),
    pytest.param(dict(CALM, cutoff=1), id="int-cutoff"),
    pytest.param(dict(CALM, cutoff=True), id="bool-cutoff"),
    pytest.param(dict(CALM, cutoff=0.9), id="float-cutoff"),
    pytest.param(dict(CALM, cutoff=["9/10"]), id="nested-cutoff"),
    pytest.param(dict(CALM, op=["le"]), id="nested-op"),
    pytest.param(dict(CALM, state="2"), id="unknown-state"),
    pytest.param(list(CALM.values()), id="array"),
    pytest.param({1: "le", "state": "1", "cutoff": "9/10"}, id="int-key"),
]


@pytest.mark.parametrize("condition", LATER_CONDITIONS)
def test_a_repeated_condition_reads_as_when_each_copy_is_read(condition):
    got, want = outcomes(validate_instance, _groups_doc(condition, "1"))
    assert got == want


@pytest.mark.parametrize("weight", ["1", "2", 1, True, 1.0, ["1"], None])
def test_a_repeated_weight_reads_as_when_each_copy_is_read(weight):
    got, want = outcomes(validate_instance, _groups_doc(dict(CALM), weight))
    assert got == want


def test_a_condition_on_an_unknown_state_is_refused():
    with pytest.raises(ValidationError, match="unknown state '2'"):
        validate_instance(_groups_doc(dict(CALM, state="2"), "1"))


def test_copies_of_one_condition_or_weight_literal_are_one_object():
    first, second = validate_instance(_groups_doc(dict(CALM), "1")).utilities.groups
    assert first.rule is second.rule and first.weight is second.weight
    # equal values from other literals: "18/20" and the int 1
    first, second = validate_instance(_groups_doc(dict(CALM, cutoff="18/20"), 1)).utilities.groups
    assert first.rule == second.rule and first.rule is not second.rule
    assert first.weight == second.weight and first.weight is not second.weight


def test_a_read_reduction_instance_shares_its_payers_rule():
    from mcpersuasion.hardness import BUnionInstance, build_reduction

    out = build_reduction(BUnionInstance(w=4, sets=({1, 2}, {2, 3}, {4}), b=2))
    doc = json.loads(render_document(instance_to_doc(out.instance)))
    _, *payers = validate_instance(doc).utilities.groups
    assert len({id(g.rule) for g in payers}) == 1


def _random_supermajority(rng):
    """Groups over a random partition of k receivers, their rules drawn
    from a pool of three; now and then a group gets an equal copy of its
    rule, a distinct object."""
    k = rng.randint(1, 6)
    pool = [
        MemberRule(rng.choice(("le", "ge", "eq")), rng.choice("01"), F(rng.randint(0, 4), 4))
        for _ in range(3)
    ]
    order = rng.sample(range(k), k)
    groups = []
    while order:
        members = tuple(order[: rng.randint(1, len(order))])
        del order[: len(members)]
        rule = rng.choice(pool)
        if rng.random() < 0.3:
            cutoff = F(rule.cutoff.numerator, rule.cutoff.denominator)
            rule = MemberRule(rule.op, rule.state, cutoff)
        weight = F(rng.randint(0, 6), rng.randint(1, 3))
        groups.append(Group(members, weight, rng.randint(0, len(members)), rule))
    utilities = SupermajorityUtility(k=k, groups=tuple(groups))
    structure = CommunicationStructure(tuple((1,) for _ in range(k)))
    return PersuasionInstance(TWO, Prior(TWO, (F(1, 2), F(1, 2))), structure, utilities)


def test_instance_to_doc_equals_a_per_occurrence_writer():
    rng = random.Random(20261020)
    for _ in range(300):
        inst = _random_supermajority(rng)
        got, want = outcomes(instance_to_doc, inst)
        assert got == want
        assert render_document(got) == render_document(want)
        conditions = [g["condition"] for g in got["utilities"]["groups"]]
        assert len(set(map(id, conditions))) == len(conditions)  # no aliased dicts


def test_instance_to_doc_formats_each_rule_object_once(monkeypatch):
    from mcpersuasion.hardness import BUnionInstance, build_reduction

    formatted = []
    to_doc = MemberRule.to_doc
    monkeypatch.setattr(MemberRule, "to_doc", lambda rule: formatted.append(rule) or to_doc(rule))
    inst = build_reduction(BUnionInstance(w=4, sets=({1, 2}, {2, 3}, {4}), b=2)).instance
    assert len(instance_to_doc(inst)["utilities"]["groups"]) == 5
    assert formatted == [g.rule for g in inst.utilities.groups[:2]]


THREE = StateSpace(("a", "b", "c"))
_THIRDS = (F(1, 3), F(1, 3), F(1, 3))
_HALVES = (F(1, 2), F(1, 2))
_CERTAIN = MemberRule("ge", "1", F(1))


def _supermajority_instance(k, structure):
    """k receivers in one group on the given structure rows."""
    utilities = SupermajorityUtility(k=k, groups=(Group(tuple(range(k)), F(1), k, _CERTAIN),))
    return PersuasionInstance(
        TWO, Prior(TWO, _HALVES), CommunicationStructure(structure), utilities
    )


def _point_over_three_states():
    raw = _raw_instance()
    raw["utilities"][0] = {"kind": "point", "point": ["1/3", "1/3", "1/3"], "value": "1"}
    return validate_instance(raw)


@pytest.mark.parametrize(
    "refuse, error, message",
    [
        (
            lambda: PointUtility(point=_HALVES, value=F(1)).value_at(_THIRDS, THREE),
            MatrixShapeMismatch,
            "point utility dimension mismatch",
        ),
        (
            lambda: LinearUtility(coeffs=(F(1), F(0))).value_at(_THIRDS, THREE),
            MatrixShapeMismatch,
            "linear utility dimension mismatch",
        ),
        (
            lambda: TableUtility(((_HALVES, F(1)), (_HALVES, F(2)))),
            ValidationError,
            "table utility has duplicate points",
        ),
        (
            lambda: AdditiveUtility((ConstantUtility(F(1)),)).evaluate([_HALVES] * 2, TWO),
            MatrixShapeMismatch,
            "profile length does not match receiver count",
        ),
        (
            lambda: Group((0,), F(-1), 1, _CERTAIN),
            ValidationError,
            "group weight must be nonnegative",
        ),
        (
            lambda: _supermajority_instance(1, ((1,),)).utilities.evaluate([_HALVES] * 2, TWO),
            MatrixShapeMismatch,
            "profile length does not match receiver count",
        ),
        (
            lambda: PersuasionInstance(
                TWO,
                Prior(StateSpace(("x", "y")), _HALVES),
                CommunicationStructure(((1,),)),
                AdditiveUtility((ConstantUtility(F(1)),)),
            ),
            StateSpaceMismatch,
            "prior and instance disagree on the state space",
        ),
        (
            lambda: _supermajority_instance(2, ((1,),)),
            MatrixShapeMismatch,
            "supermajority utility covers wrong receiver count",
        ),
        (
            lambda: PersuasionInstance(
                TWO, Prior(TWO, _HALVES), CommunicationStructure(((1,),)), (ConstantUtility(F(1)),)
            ),
            ValidationError,
            "unknown utility container",
        ),
        (_point_over_three_states, MatrixShapeMismatch, "point utility dimension mismatch"),
    ],
    ids=[
        "point-value-at",
        "linear-value-at",
        "table-duplicates",
        "additive-profile",
        "negative-weight",
        "supermajority-profile",
        "prior-space",
        "supermajority-k",
        "unknown-container",
        "point-document",
    ],
)
def test_model_refusals_name_their_fault(refuse, error, message):
    """Each refusal in model.py that no other test reaches, with its
    message."""
    with pytest.raises(error) as refused:
        refuse()
    assert str(refused.value) == message
