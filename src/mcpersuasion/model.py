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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
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
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


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


def parse_rational(text) -> Fraction:
    """Parse a "num/den" (or plain integer) string, with nothing around
    it, into a Fraction.

    Floats and decimal notation are rejected on purpose: every number in
    an input file is meant to be exact.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValidationError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def format_rational(value: Fraction) -> str:
    """Canonical string form, gcd-reduced, "n" or "n/d"."""
    value = Fraction(value)
    return str(value)


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


def check_posterior(point: Sequence[Fraction]) -> None:
    if any(x < 0 for x in point):
        raise ValidationError(f"negative coordinate in posterior {point}")
    if sum(point) != 1:
        raise ValidationError(f"posterior does not sum to 1: {point}")


def check_epsilon(epsilon) -> None:
    """Refuse an accuracy that is not a Fraction in (0, 1): a float is
    never read as the rational it only approximates."""
    if not isinstance(epsilon, Fraction):
        raise BadEpsilon(f"epsilon must be a Fraction, got {epsilon!r}")
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")


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
    """Full-support prior over a state space."""

    space: StateSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != self.space.size:
            raise MatrixShapeMismatch(
                f"prior has {len(self.values)} entries for {self.space.size} states"
            )
        if any(v <= 0 for v in self.values):
            raise NonPositivePrior(f"prior entries must be positive: {self.values}")
        if sum(self.values) != 1:
            raise PriorNotNormalized(f"prior sums to {sum(self.values)}, not 1")

    def point(self) -> Posterior:
        """The prior viewed as a posterior point."""
        return self.values

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

    def row_masks(self) -> tuple[int, ...]:
        """Each row as an integer bitmask, bit j set iff channel j observed."""
        return tuple(
            sum(1 << j for j, x in enumerate(row) if x) for row in self.matrix
        )

    def has_duplicate_rows(self) -> bool:
        return len(set(self.matrix)) != self.k


def merge_duplicate_receivers(
    structure: CommunicationStructure,
) -> tuple[CommunicationStructure, tuple[int, ...]]:
    """Collapse receivers with identical rows into one representative.

    Returns the merged structure and a mapping old index -> new index.
    Representatives keep the order of first occurrence, so merging an
    already duplicate-free structure is the identity.
    """
    seen: dict[tuple[int, ...], int] = {}
    rows: list[tuple[int, ...]] = []
    mapping: list[int] = []
    for row in structure.matrix:
        if row not in seen:
            seen[row] = len(rows)
            rows.append(row)
        mapping.append(seen[row])
    return CommunicationStructure(tuple(rows)), tuple(mapping)


# ---------------------------------------------------------------------------
# Receiver utilities (additive family)


class ReceiverUtility:
    """One receiver's utility as a function of his marginal posterior.

    Subclasses implement value_at.
    """

    kind = "abstract"

    def value_at(self, point: Posterior, space: StateSpace) -> Fraction:
        raise NotImplementedError

    def to_doc(self, space: StateSpace) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantUtility(ReceiverUtility):
    value: Fraction

    kind = "constant"

    def value_at(self, point, space):
        return self.value

    def to_doc(self, space):
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

    kind = "threshold"

    def value_at(self, point, space):
        q = point[space.index(self.state)]
        hit = q > self.cutoff if self.strict else q >= self.cutoff
        return self.high if hit else self.low

    def to_doc(self, space):
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

    kind = "point"

    def value_at(self, point, space):
        if len(self.point) != space.size:
            raise MatrixShapeMismatch("point utility dimension mismatch")
        return self.value if point == self.point else self.otherwise

    def to_doc(self, space):
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

    kind = "piecewise"

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise MatrixShapeMismatch("piecewise utility needs len(values) == len(breakpoints) + 1")
        bps = self.breakpoints
        if any(not (0 < b < 1) for b in bps) or list(bps) != sorted(set(bps)):
            raise ValidationError("breakpoints must be strictly increasing inside (0, 1)")

    def value_at(self, point, space):
        q = point[space.index(self.state)]
        idx = sum(1 for b in self.breakpoints if b < q)
        if q in self.breakpoints:
            # on a breakpoint both neighbouring pieces compete
            return max(self.values[idx], self.values[idx + 1])
        return self.values[idx]

    def to_doc(self, space):
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

    kind = "linear"

    def value_at(self, point, space):
        if len(self.coeffs) != len(point):
            raise MatrixShapeMismatch("linear utility dimension mismatch")
        return self.offset + sum(c * q for c, q in zip(self.coeffs, point))

    def to_doc(self, space):
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

    kind = "table"

    def __post_init__(self):
        object.__setattr__(self, "table", tuple((tuple(p), Fraction(v)) for p, v in self.table))
        if len({p for p, _ in self.table}) != len(self.table):
            raise ValidationError("table utility has duplicate points")

    def value_at(self, point, space):
        for p, v in self.table:
            if p == point:
                return v
        raise GridMismatch(f"utility table has no value at {point}")

    def to_doc(self, space):
        return {
            "kind": "table",
            "points": [format_posterior(p) for p, _ in self.table],
            "values": [format_rational(v) for _, v in self.table],
        }


@dataclass(frozen=True)
class AdditiveUtility:
    """Sender utility sum_i u^i(p^i), one ReceiverUtility per receiver."""

    receivers: tuple[ReceiverUtility, ...]

    kind = "additive"

    def evaluate(self, profile: Sequence[Posterior], space: StateSpace) -> Fraction:
        if len(profile) != len(self.receivers):
            raise MatrixShapeMismatch("profile length does not match receiver count")
        return sum(
            (u.value_at(p, space) for u, p in zip(self.receivers, profile)),
            Fraction(0),
        )

    def to_doc(self, space):
        return {"kind": "additive", "receivers": [u.to_doc(space) for u in self.receivers]}


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
        if self.weight.numerator < 0:
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

    kind = "supermajority"

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

    def to_doc(self, space):
        return {
            "kind": "supermajority",
            "groups": [
                {
                    "members": [i + 1 for i in g.members],
                    "weight": format_rational(g.weight),
                    "threshold": g.threshold,
                    "condition": g.rule.to_doc(),
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
        groups = []
        for g in _field(doc, "groups", "supermajority utilities", _array):
            cond = _field(g, "condition", "group")
            rule = MemberRule(
                op=_field(cond, "op", "group condition", _string),
                state=_field(cond, "state", "group condition", _string),
                cutoff=parse_rational(_field(cond, "cutoff", "group condition")),
            )
            space.index(rule.state)
            members = tuple(
                _integer(i, "group member") - 1 for i in _field(g, "members", "group", _array)
            )
            if any(not (0 <= i < k) for i in members):
                raise ValidationError("group member index out of range")
            groups.append(
                Group(
                    members=members,
                    weight=parse_rational(_field(g, "weight", "group")),
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
    prior = Prior(space, tuple(map(parse_rational, _field(raw, "prior", "instance", _array))))
    structure = _structure_field(raw, "instance")
    utilities = _parse_utilities(_field(raw, "utilities", "instance"), space, structure.k)
    epsilon = None
    if raw.get("epsilon") is not None:
        epsilon = parse_rational(raw["epsilon"])
    return PersuasionInstance(
        space=space, prior=prior, structure=structure, utilities=utilities, epsilon=epsilon
    )


def instance_to_doc(inst: PersuasionInstance) -> dict:
    doc = {
        "states": list(inst.space.states),
        "prior": [format_rational(p) for p in inst.prior.values],
        "structure": [list(row) for row in inst.structure.matrix],
        "utilities": inst.utilities.to_doc(inst.space),
    }
    if inst.epsilon is not None:
        doc["epsilon"] = format_rational(inst.epsilon)
    return doc
