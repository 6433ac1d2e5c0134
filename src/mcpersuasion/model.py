"""Core data model: states, priors, communication structures, utilities.

All probabilities and utility values are exact rationals
(fractions.Fraction).  External formats serialize rationals as
"num/den" strings, never as floats, and index receivers, channels and
states starting from 1; in memory everything is 0-indexed.  The field
readers here (_field, _array, _integer, ...) read every input document,
io's included, so a malformed field is always a ValidationError.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm, log10
from typing import Iterable, Sequence

from .errors import (
    BadEpsilon,
    GridMismatch,
    MatrixShapeMismatch,
    NonPositivePrior,
    PriorNotNormalized,
    StateSpaceMismatch,
    ValidationError,
)

#: A posterior over the state space, ordered like StateSpace.states.
Posterior = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_BITS = frozenset((0, 1))
_INT_ONLY = frozenset((int,))
_STR_ONLY = frozenset((str,))


# ---------------------------------------------------------------------------
# Field readers shared by every input document; what names the value read
# in the error, and each refusal is a ValidationError


def _object(value, what: str) -> dict:
    """value itself if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _array(value, what: str) -> list:
    """value itself if it is a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be an array, not {type(value).__name__}")
    return value


def _string(value, what: str) -> str:
    """value itself if it is a JSON string."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer, or one written in decimal digits as a string (object
    keys are strings); floats and booleans are refused."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _INTEGER_RE.fullmatch(value):
        return _from_digits(value, what)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _from_digits(digits: str, what: str) -> int:
    """int(digits), refusing digits past Python's 4,300-digit cap on int-string conversion."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("+-"))
        raise ValidationError(f"{what} has {count} digits, past the 4300-digit cap") from None


def _field(doc, key: str, what: str, read=None):
    """doc[key] of the JSON object doc, passed through read (_object,
    _array, _string or _integer) when one is given."""
    if not isinstance(doc, dict) or key not in doc:
        _object(doc, what)  # refuses a non-object first
        raise ValidationError(f"{what} is missing field {key!r}")
    return doc[key] if read is None else read(doc[key], f"{what} field {key!r}")


def _states_field(doc, what: str) -> StateSpace:
    """doc's "states": an array of distinct state names."""
    entry_what = f"an entry of {what} field 'states'"
    return StateSpace(tuple(_string(s, entry_what) for s in _field(doc, "states", what, _array)))


def _structure_field(doc, what: str) -> CommunicationStructure:
    """doc's "structure": an array of rows of 0/1 integers, one row per
    receiver."""
    rows = _field(doc, "structure", what, _array)
    row_what = f"a row of {what} field 'structure'"
    entry_what = f"an entry of {what} field 'structure'"
    return CommunicationStructure(
        tuple(tuple(_integer(x, entry_what) for x in _array(row, row_what)) for row in rows)
    )


def _reader(parse):
    """parse for one document read: a literal made only of strs (a str, or
    an array or object whose entries, keys included, are all strs) is
    parsed, and so checked, once, and its copies get the object its first
    copy gave; any other value is parsed each time, so that parse makes
    every refusal and no bool is served an earlier int's object."""
    seen = {}

    def read(value):
        kind = type(value)
        if kind is str:
            key = value
        elif kind is list and _STR_ONLY.issuperset(map(type, value)):
            key = tuple(value)
        elif kind is dict and _STR_ONLY.issuperset(map(type, chain(value, value.values()))):
            key = frozenset(value.items())  # never equal to a str or a tuple
        else:
            return parse(value)
        found = seen.get(key)
        if found is None:
            found = seen[key] = parse(value)
        return found

    return read


def _writer(form):
    """form for one document write, run once per object by id(), which
    is the object's own while the caller holds it; each occurrence gets
    a fresh copy of the list or dict (a str is its own copy)."""
    seen = {}

    def write(obj):
        found = seen.get(id(obj))
        if found is None:
            found = seen[id(obj)] = form(obj)
        return type(found)(found)

    return write


def parse_rational(text, what: str = "a rational literal") -> Fraction:
    """Parse a "num/den" (or plain integer) string, with nothing around
    it, into a Fraction; what names it if a term passes 4,300 digits.

    Floats and decimal notation are rejected on purpose: every number in
    an input file is meant to be exact.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValidationError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(_from_digits(num, what), _from_digits(den or "1", what))


def format_rational(value: Fraction) -> str:
    """Canonical string form, gcd-reduced, "n" or "n/d"; refuses a term past 4,300 digits."""
    value = value if type(value) is Fraction else Fraction(value)
    try:
        return str(value)
    except ValueError:  # past Python's cap on int-string conversion
        term = max(abs(value.numerator), value.denominator)
        d = int((term.bit_length() - 1) * log10(2))  # 10^d <= term < 10^(d+2)
        count = d + 1 + (term >= 10 ** (d + 1))
        raise ValidationError(f"cannot write a number of {count} digits, past 4300") from None


def parse_posterior(items: Sequence) -> Posterior:
    if not isinstance(items, (list, tuple)):
        raise ValidationError(f"a posterior must be an array of rationals, got {items!r}")
    point = tuple(parse_rational(x) for x in items)
    check_posterior(point)
    return point


def format_posterior(point: Posterior) -> list[str]:
    return [format_rational(x) for x in point]


def format_label(point: Posterior) -> str:
    """A posterior as it is written in messages, "(n/d, ...)"."""
    return "(" + ", ".join(format_rational(x) for x in point) + ")"


def check_posterior(point: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Refuse an inexact or negative coordinate or a sum not 1; the point as _integers gives it."""
    den, scaled = _integers([_exact(x, "posterior coordinate") for x in point])
    if any(x < 0 for x in scaled):
        raise ValidationError(f"negative coordinate in posterior {format_label(point)}")
    if sum(scaled) != den:
        raise ValidationError(f"posterior does not sum to 1: {format_label(point)}")
    return den, scaled


def check_epsilon(epsilon) -> None:
    """Refuse an accuracy that is not a Fraction in (0, 1): a float is
    never read as the rational it only approximates."""
    if not isinstance(epsilon, Fraction):
        raise BadEpsilon(f"epsilon must be a Fraction, got {epsilon!r}")
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")


def _exact(v, what: str):
    """v as it is when it is exact: a Fraction, or an int that is not a
    bool.  A float, a string, a bool or anything else is refused by
    type, never converted; what names v in the message."""
    if isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool)):
        return v
    raise ValidationError(f"{what} {v!r} is neither an int nor a Fraction")


def _probability(v) -> Fraction:
    """v, exactly (_exact), as a Fraction."""
    return v if isinstance(v, Fraction) else Fraction(_exact(v, "probability"))


def _integers(xs: Sequence) -> tuple[int, list[int]]:
    """(den, ints): the exact numbers xs as integers over den, their lcd."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def dot(xs: Iterable[Fraction], ys: Iterable[Fraction]) -> Fraction:
    """Exact sum of the products x * y, kept as an integer numerator over
    the least common denominator so far rather than Fraction by Fraction."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        if x and y:
            d = x.denominator * y.denominator
            g = gcd(den, d)
            num = num * (d // g) + x.numerator * y.numerator * (den // g)
            den = den // g * d
    return Fraction(num) if den == 1 else Fraction(num, den)


@dataclass(frozen=True)
class StateSpace:
    """Finite ordered set of state names."""

    states: tuple[str, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) == 0:
            raise ValidationError("state space is empty")
        if not all(isinstance(s, str) for s in states):
            raise ValidationError(f"state names must be strings, got {states!r}")
        if len(set(states)) != len(states):
            raise ValidationError("state names are not unique")
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValidationError(f"unknown state {state!r}") from None


@dataclass(frozen=True)
class Prior:
    """Full-support prior over a state space; each entry an int or a
    Fraction, never a float or a string."""

    space: StateSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(_probability, self.values)))
        if len(self.values) != self.space.size:
            raise MatrixShapeMismatch(
                f"prior has {len(self.values)} entries for {self.space.size} states"
            )
        if any(v <= 0 for v in self.values):
            raise NonPositivePrior(f"prior entries must be positive: {self.values}")
        if sum(self.values) != 1:
            raise PriorNotNormalized(f"prior sums to {sum(self.values)}, not 1")

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


@dataclass(frozen=True)
class CommunicationStructure:
    """Binary k x n observation matrix: entry (i, j) is 1 iff receiver i
    observes channel j."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.matrix))
        object.__setattr__(self, "matrix", rows)
        if len(rows) == 0:
            raise MatrixShapeMismatch("structure has no receivers")
        n = len(rows[0])
        if n == 0:
            raise MatrixShapeMismatch("structure has no channels")
        for row in rows:
            if len(row) != n:
                raise MatrixShapeMismatch("ragged structure matrix")
            # 0/1 and exactly int: True and 1.0 equal 1 but are refused
            if not (_BITS.issuperset(row) and _INT_ONLY.issuperset(map(type, row))):
                x = next(x for x in row if type(x) is not int or x not in _BITS)
                raise MatrixShapeMismatch(f"matrix entry {x!r} is not an integer 0/1")

    @property
    def k(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    def observes(self, receiver: int, channel: int) -> bool:
        return self.matrix[receiver][channel] == 1

    def channels_of(self, receiver: int) -> tuple[int, ...]:
        return tuple(j for j, x in enumerate(self.matrix[receiver]) if x)

    def observers_of(self, channel: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if self.matrix[i][channel])

    @cached_property
    def dominance_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(dominates, dominated_by), derived from the rows as bitmasks on
        first use and then kept: bit i2 of dominates[i1] and bit i1 of
        dominated_by[i2] are set iff i1 != i2 and row i1 >= row i2 entrywise."""
        masks = [int.from_bytes(bytes(row), "big") for row in self.matrix]  # a bit per entry
        dominates, dominated_by = [0] * self.k, [0] * self.k
        for i1, m1 in enumerate(masks):
            for i2, m2 in enumerate(masks):
                if m1 | m2 == m1 and i1 != i2:
                    dominates[i1] |= 1 << i2
                    dominated_by[i2] |= 1 << i1
        return tuple(dominates), tuple(dominated_by)

    def has_duplicate_rows(self) -> bool:
        return len(set(self.matrix)) != self.k


def merge_duplicate_receivers(
    structure: CommunicationStructure,
) -> tuple[CommunicationStructure, tuple[int, ...]]:
    """Collapse receivers with identical rows into one representative.

    Returns the merged structure and a mapping old index -> new index.
    Representatives keep the order of first occurrence, so merging an
    already duplicate-free structure is the identity: the structure
    itself, with its kept dominance order.
    """
    if not structure.has_duplicate_rows():
        return structure, tuple(range(structure.k))
    rows = tuple(dict.fromkeys(structure.matrix))
    index = {row: i for i, row in enumerate(rows)}
    return CommunicationStructure(rows), tuple(index[row] for row in structure.matrix)


# ---------------------------------------------------------------------------
# Receiver utilities (additive family)


#: A function of one probability q, in integers over one denominator N:
#: (N, kinks, lines), kinks[j] / N the j-th kink, sorted, and lines[2j],
#: lines[2j + 1] and lines[-1], each (slope, intercept), its line on the
#: open piece below kink j, at kink j and above the last kink, where the
#: value is (slope q + intercept) / N.
Profile = tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]


def _profile_of(kinks, lines) -> Profile:
    """The Profile of the exact kinks (sorted) and lines."""
    N, xs = _integers([*kinks, *chain.from_iterable(lines)])
    n = len(kinks)
    return N, tuple(xs[:n]), tuple(zip(xs[n::2], xs[n + 1 :: 2]))


def _profile_at(profile: Profile, n: int, d: int) -> int:
    """N d times the profile's value at q = n / d, d > 0."""
    N, kinks, lines = profile
    x = n * N  # below x / d lie the kinks below ceil(x / d), up to it those up to floor(x / d)
    slope, intercept = lines[bisect_left(kinks, -(-x // d)) + bisect_right(kinks, x // d)]
    return slope * n + intercept * d


class ReceiverUtility:
    """One receiver's utility as a function of his marginal posterior.

    A subclass states its profile and answers value_at through it, or
    implements value_at itself.
    """

    #: (state, profile) of a constant (state None), threshold or piecewise utility
    _stated: tuple[str | None, Profile] | None = None

    def value_at(self, point: Posterior, space: StateSpace) -> Fraction:
        b, profile = self.profile(space)
        n, d = point[b].numerator, point[b].denominator
        return Fraction(_profile_at(profile, n, d), profile[0] * d)

    def profile(self, space: StateSpace) -> tuple[int, Profile] | None:
        """(b, profile): the utility is profile's function of a point's
        coordinate b, on two states, and on any number for a constant,
        threshold or piecewise utility; None, so that value_at may bend
        anywhere, when it states none.  A subclass that changes value_at
        states its own."""
        if self._stated is None:
            return None
        state, profile = self._stated
        return (0 if state is None else space.index(state)), profile

    def to_doc(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantUtility(ReceiverUtility):
    value: Fraction

    def __post_init__(self):
        _exact(self.value, "constant utility value")
        object.__setattr__(self, "_stated", (None, _profile_of((), ((0, self.value),))))

    def to_doc(self):
        return {"kind": "constant", "value": format_rational(self.value)}


@dataclass(frozen=True)
class ThresholdUtility(ReceiverUtility):
    """high when the named state's probability clears the cutoff, else low.

    With strict=False the cutoff itself earns high, which makes the
    function upper semi-continuous whenever high >= low.
    """

    state: str
    cutoff: Fraction
    high: Fraction = Fraction(1)
    low: Fraction = Fraction(0)
    strict: bool = False

    def __post_init__(self):
        for name in ("cutoff", "high", "low"):
            _exact(getattr(self, name), f"threshold utility {name}")
        lines = ((0, self.low), (0, self.low if self.strict else self.high), (0, self.high))
        object.__setattr__(self, "_stated", (self.state, _profile_of((self.cutoff,), lines)))

    def to_doc(self):
        return {
            "kind": "threshold",
            "state": self.state,
            "cutoff": format_rational(self.cutoff),
            "high": format_rational(self.high),
            "low": format_rational(self.low),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class PointUtility(ReceiverUtility):
    """value at one exact posterior point, otherwise elsewhere."""

    point: Posterior
    value: Fraction
    otherwise: Fraction = Fraction(0)

    def __post_init__(self):
        for x in self.point:
            _exact(x, "point utility coordinate")
        _exact(self.value, "point utility value")
        _exact(self.otherwise, "point utility otherwise")

    def value_at(self, point, space):
        if len(self.point) != space.size:
            raise MatrixShapeMismatch("point utility dimension mismatch")
        return self.value if point == self.point else self.otherwise

    def profile(self, space):
        if len(self.point) != space.size:
            raise MatrixShapeMismatch("point utility dimension mismatch")
        x, y = self.point  # (q, 1 - q) is the point only when x + y == 1
        on = self.value if x + y == 1 else self.otherwise
        return 0, _profile_of((x,), ((0, self.otherwise), (0, on), (0, self.otherwise)))

    def to_doc(self):
        return {
            "kind": "point",
            "point": format_posterior(self.point),
            "value": format_rational(self.value),
            "otherwise": format_rational(self.otherwise),
        }


@dataclass(frozen=True)
class PiecewiseUtility(ReceiverUtility):
    """Piecewise constant in one state's probability.

    values[j] holds on the open interval between consecutive breakpoints
    (with 0 and 1 as outer endpoints).  At a breakpoint the value is the
    max of the two adjacent pieces, so the function is upper
    semi-continuous, which is what makes aligned grids lossless.
    """

    state: str
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("breakpoints", "values"):
            for v in getattr(self, name):
                _exact(v, f"piecewise utility {name[:-1]}")
        if len(self.values) != len(self.breakpoints) + 1:
            raise MatrixShapeMismatch("piecewise utility needs len(values) == len(breakpoints) + 1")
        bps, values = self.breakpoints, self.values
        if any(not (0 < b < 1) for b in bps) or list(bps) != sorted(set(bps)):
            raise ValidationError("breakpoints must be strictly increasing inside (0, 1)")
        peaks = map(max, values, values[1:])  # on a breakpoint both pieces compete
        lines = [(0, v) for v in chain(*zip(values, peaks), values[-1:])]
        object.__setattr__(self, "_stated", (self.state, _profile_of(bps, lines)))

    def to_doc(self):
        return {
            "kind": "piecewise",
            "state": self.state,
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
        }


@dataclass(frozen=True)
class LinearUtility(ReceiverUtility):
    """offset + sum_b coeffs[b] * q_b."""

    coeffs: tuple[Fraction, ...]
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        for c in self.coeffs:
            _exact(c, "linear utility coefficient")
        _exact(self.offset, "linear utility offset")

    def value_at(self, point, space):
        if len(self.coeffs) != len(point):
            raise MatrixShapeMismatch("linear utility dimension mismatch")
        return self.offset + sum(c * q for c, q in zip(self.coeffs, point))

    def profile(self, space):
        if len(self.coeffs) != space.size:
            raise MatrixShapeMismatch("linear utility dimension mismatch")
        c0, c1 = self.coeffs  # offset + c0 q + c1 (1 - q)
        return 0, _profile_of((), ((c0 - c1, self.offset + c1),))

    def to_doc(self):
        return {
            "kind": "linear",
            "coeffs": [format_rational(c) for c in self.coeffs],
            "offset": format_rational(self.offset),
        }


@dataclass(frozen=True)
class TableUtility(ReceiverUtility):
    """Explicit tabulation on a fixed point set; consuming it on a grid
    that contains points outside the table raises GridMismatch."""

    table: tuple[tuple[Posterior, Fraction], ...]
    # the table as a dict by point, derived from it in __post_init__
    _values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = tuple((tuple(p), v) for p, v in self.table)
        for p, v in table:
            for x in p:
                _exact(x, "table utility coordinate")
            _exact(v, "table utility value")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_values", dict(table))
        if len(self._values) != len(table):
            raise ValidationError("table utility has duplicate points")

    def value_at(self, point, space):
        try:
            return self._values[point]
        except KeyError:
            raise GridMismatch(f"utility table has no value at {format_label(point)}") from None

    def to_doc(self):
        return {
            "kind": "table",
            "points": [format_posterior(p) for p, _ in self.table],
            "values": [format_rational(v) for _, v in self.table],
        }


@dataclass(frozen=True)
class AdditiveUtility:
    """Sender utility sum_i u^i(p^i), one ReceiverUtility per receiver."""

    receivers: tuple[ReceiverUtility, ...]

    def evaluate(self, profile: Sequence[Posterior], space: StateSpace) -> Fraction:
        if len(profile) != len(self.receivers):
            raise MatrixShapeMismatch("profile length does not match receiver count")
        den, values = _integers([u.value_at(p, space) for u, p in zip(self.receivers, profile)])
        return Fraction(sum(values), den)

    def to_doc(self):
        return {"kind": "additive", "receivers": [u.to_doc() for u in self.receivers]}


# ---------------------------------------------------------------------------
# Supermajority utilities (group family used by the hardness generator)


@dataclass(frozen=True)
class MemberRule:
    """Predicate on one receiver's posterior: p(state) OP cutoff.
    SupermajorityUtility evaluates it in integers (see its _plan)."""

    op: str
    state: str
    cutoff: Fraction

    _OPS = {
        "le": operator.le,
        "lt": operator.lt,
        "ge": operator.ge,
        "gt": operator.gt,
        "eq": operator.eq,
    }

    def __post_init__(self):
        _exact(self.cutoff, "member rule cutoff")
        if self.op not in self._OPS:
            raise ValidationError(f"unknown member rule op {self.op!r}")

    def to_doc(self):
        return {"op": self.op, "state": self.state, "cutoff": format_rational(self.cutoff)}


@dataclass(frozen=True)
class Group:
    members: tuple[int, ...]
    weight: Fraction
    threshold: int
    rule: MemberRule

    def __post_init__(self):
        if _exact(self.weight, "group weight") < 0:
            raise ValidationError("group weight must be nonnegative")
        if not (0 <= self.threshold <= len(self.members)):
            raise ValidationError("group threshold must lie in [0, group size]")


@dataclass(frozen=True)
class SupermajorityUtility:
    """Sender utility sum_l r_l * [at least t_l members of T_l satisfy
    their rule], over a partition of the receivers into groups."""

    k: int
    groups: tuple[Group, ...]
    # the groups in integers, derived from them in __post_init__: each
    # weight over the common denominator scale of all weights, each rule
    # p(state) OP n/d as the test p.numerator * d OP n * p.denominator, and
    # the groups listed under the state their rule reads
    _plan: tuple[int, tuple[tuple[str, tuple[tuple, ...]], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        covered: list[int] = []
        for g in self.groups:
            covered.extend(g.members)
        if sorted(covered) != list(range(self.k)):
            raise ValidationError("groups must partition the receiver set")
        scale = lcm(*(g.weight.denominator for g in self.groups))
        by_state: dict[str, list[tuple]] = {}
        for g in self.groups:
            by_state.setdefault(g.rule.state, []).append(
                (
                    g.members,
                    g.threshold,
                    g.weight.numerator * (scale // g.weight.denominator),
                    MemberRule._OPS[g.rule.op],
                    g.rule.cutoff.numerator,
                    g.rule.cutoff.denominator,
                )
            )
        plan = tuple((state, tuple(tests)) for state, tests in by_state.items())
        object.__setattr__(self, "_plan", (scale, plan))

    def evaluate(self, profile: Sequence[Posterior], space: StateSpace) -> Fraction:
        if len(profile) != self.k:
            raise MatrixShapeMismatch("profile length does not match receiver count")
        scale, plan = self._plan
        total = 0
        for state, tests in plan:
            b = space.index(state)
            for members, threshold, unit, test, n, d in tests:
                hits = 0
                for i in members:
                    x = profile[i][b]
                    hits += test(x.numerator * d, n * x.denominator)
                if hits >= threshold:
                    total += unit
        return Fraction(total) if scale == 1 else Fraction(total, scale)

    def to_doc(self):
        rule = _writer(MemberRule.to_doc)  # groups usually share rule objects
        return {
            "kind": "supermajority",
            "groups": [
                {
                    "members": [i + 1 for i in g.members],
                    "weight": format_rational(g.weight),
                    "threshold": g.threshold,
                    "condition": rule(g.rule),
                }
                for g in self.groups
            ],
        }


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class PersuasionInstance:
    space: StateSpace
    prior: Prior
    structure: CommunicationStructure
    utilities: AdditiveUtility | SupermajorityUtility
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.prior.space != self.space:
            raise StateSpaceMismatch("prior and instance disagree on the state space")
        if isinstance(self.utilities, AdditiveUtility):
            if len(self.utilities.receivers) != self.structure.k:
                raise MatrixShapeMismatch(
                    f"{len(self.utilities.receivers)} utilities for {self.structure.k} receivers"
                )
        elif isinstance(self.utilities, SupermajorityUtility):
            if self.utilities.k != self.structure.k:
                raise MatrixShapeMismatch("supermajority utility covers wrong receiver count")
        else:
            raise ValidationError("unknown utility container")
        if self.epsilon is not None:
            check_epsilon(self.epsilon)

    @property
    def k(self) -> int:
        return self.structure.k


def _parse_receiver_utility(doc, space: StateSpace) -> ReceiverUtility:
    kind = _field(doc, "kind", "utility entry")
    what = f"utility of kind {kind!r}"
    if kind == "constant":
        return ConstantUtility(parse_rational(_field(doc, "value", what)))
    if kind in ("threshold", "piecewise"):
        state = _field(doc, "state", what, _string)
        space.index(state)
    if kind == "threshold":
        strict = doc.get("strict", False)
        if not isinstance(strict, bool):
            raise ValidationError(f"{what} field 'strict' must be true or false, got {strict!r}")
        return ThresholdUtility(
            state=state,
            cutoff=parse_rational(_field(doc, "cutoff", what)),
            high=parse_rational(doc.get("high", "1")),
            low=parse_rational(doc.get("low", "0")),
            strict=strict,
        )
    if kind == "point":
        point = parse_posterior(_field(doc, "point", what))
        if len(point) != space.size:
            raise MatrixShapeMismatch("point utility dimension mismatch")
        return PointUtility(
            point=point,
            value=parse_rational(_field(doc, "value", what)),
            otherwise=parse_rational(doc.get("otherwise", "0")),
        )
    if kind == "piecewise":
        return PiecewiseUtility(
            state=state,
            breakpoints=tuple(map(parse_rational, _field(doc, "breakpoints", what, _array))),
            values=tuple(map(parse_rational, _field(doc, "values", what, _array))),
        )
    if kind == "linear":
        coeffs = tuple(map(parse_rational, _field(doc, "coeffs", what, _array)))
        if len(coeffs) != space.size:
            raise MatrixShapeMismatch("linear utility dimension mismatch")
        return LinearUtility(coeffs=coeffs, offset=parse_rational(doc.get("offset", "0")))
    if kind == "table":
        points = [parse_posterior(p) for p in _field(doc, "points", what, _array)]
        values = [parse_rational(v) for v in _field(doc, "values", what, _array)]
        if len(points) != len(values):
            raise MatrixShapeMismatch("table utility points/values length mismatch")
        if any(len(p) != space.size for p in points):
            raise MatrixShapeMismatch("table utility dimension mismatch")
        return TableUtility(tuple(zip(points, values)))
    raise ValidationError(f"unknown utility kind {kind!r}")


def _parse_utilities(doc, space: StateSpace, k: int):
    if isinstance(doc, dict) and doc.get("kind") == "supermajority":
        rational = _reader(parse_rational)

        def condition(cond) -> MemberRule:
            rule = MemberRule(
                op=_field(cond, "op", "group condition", _string),
                state=_field(cond, "state", "group condition", _string),
                cutoff=rational(_field(cond, "cutoff", "group condition")),
            )
            space.index(rule.state)
            return rule

        rule_of = _reader(condition)
        groups = []
        for g in _field(doc, "groups", "supermajority utilities", _array):
            rule = rule_of(_field(g, "condition", "group"))
            members = tuple(
                _integer(i, "group member") - 1 for i in _field(g, "members", "group", _array)
            )
            if any(not (0 <= i < k) for i in members):
                raise ValidationError("group member index out of range")
            groups.append(
                Group(
                    members=members,
                    weight=rational(_field(g, "weight", "group")),
                    threshold=_field(g, "threshold", "group", _integer),
                    rule=rule,
                )
            )
        return SupermajorityUtility(k=k, groups=tuple(groups))
    if isinstance(doc, dict) and doc.get("kind", "additive") == "additive":
        doc = _field(doc, "receivers", "additive utilities", _array)
    elif not isinstance(doc, list):
        raise ValidationError("utilities must be a list or an additive/supermajority object")
    return AdditiveUtility(tuple(_parse_receiver_utility(u, space) for u in doc))


def validate_instance(raw) -> PersuasionInstance:
    """Parse and validate a raw instance description (decoded JSON)."""
    space = _states_field(raw, "instance")
    what = "an entry of instance field 'prior'"
    priors = _field(raw, "prior", "instance", _array)
    prior = Prior(space, tuple(parse_rational(p, what) for p in priors))
    structure = _structure_field(raw, "instance")
    utilities = _parse_utilities(_field(raw, "utilities", "instance"), space, structure.k)
    epsilon = None
    if raw.get("epsilon") is not None:
        epsilon = parse_rational(raw["epsilon"], "instance field 'epsilon'")
    return PersuasionInstance(
        space=space, prior=prior, structure=structure, utilities=utilities, epsilon=epsilon
    )


def instance_to_doc(inst: PersuasionInstance) -> dict:
    doc = {
        "states": list(inst.space.states),
        "prior": [format_rational(p) for p in inst.prior.values],
        "structure": [list(row) for row in inst.structure.matrix],
        "utilities": inst.utilities.to_doc(),
    }
    if inst.epsilon is not None:
        doc["epsilon"] = format_rational(inst.epsilon)
    return doc
