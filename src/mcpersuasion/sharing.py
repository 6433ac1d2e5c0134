"""One-time-pad realization of signaling tables on shared channels.

A signaling table prescribes, per state, a joint distribution over
posterior-label profiles.  When receivers share channels the table cannot
simply be broadcast: a receiver reading a channel meant for somebody else
would learn more than his own label.  The constructions here hide labels
behind additive masks over Z_q so that each receiver recovers exactly the
labels of the receivers he information-dominates, plus his own, and
nothing else.  All randomness is finite, so the zero-leak property is
checked exactly instead of being asserted.

Wire format: each channel carries a fixed-length tuple of Z_q symbols.  A
slot is either a payload (the owner's label code plus a sum of keys, mod
q) or a bare key (uniform on Z_q, independent of everything else).  A
receiver's view is the concatenation of the tuples on his channels, in
channel order.

Every slot is affine in the keys, so for a fixed state and table branch
a receiver's view is uniform on a coset of the image of one matrix over
Z_q, fixed by the slots.  The verifier reads that coset law off the
wire layout, coset by coset, instead of enumerating the q^keys key
vectors.  Scheme documents and enumerate_executions list executions a
block of key vectors at a time, from slot sums made once per scheme.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

from .dominance import is_superior
from .errors import (
    AlphabetTooSmall,
    BudgetExceeded,
    DominatedTarget,
    DuplicateRows,
    InvariantViolation,
    NoCarrierChannel,
    NoKeyChannel,
    ReceiverCountMismatch,
    StateSpaceMismatch,
    SuperiorityViolated,
    ValidationError,
)
from .forest import SignalingTable
from .model import CommunicationStructure, PersuasionInstance, Posterior, format_label

DEFAULT_VERIFY_BUDGET = 10_000_000


@dataclass(frozen=True)
class Slot:
    """One Z_q symbol position on a channel.

    owner None marks a bare key slot; it carries the single key listed in
    keys.  Otherwise the slot is a payload: the owner's label code plus
    the sum of the listed keys, mod q.
    """

    channel: int
    owner: Optional[int]
    keys: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(self.keys))
        if self.owner is None and len(self.keys) != 1:
            raise ValidationError("a bare key slot carries exactly one key")


@dataclass(frozen=True)
class ChannelScheme:
    """A per-state randomized program emitting symbol tuples on channels.

    Sampling has two independent stages: draw a profile index from the
    table row of the realized state, draw every key uniformly on Z_q,
    then fill the slots.  The slot list fixes the wire layout; channel j
    carries the subsequence of slots with slot.channel == j, in order, so
    tuple arities are constant across executions.

    alphabets[i] is receiver i's sorted label tuple, a payload coding a
    label by its index there, or None if his label is not delivered.
    The keys are 0 to key_count - 1, one per bare slot.
    """

    q: int
    structure: CommunicationStructure
    alphabets: tuple[Optional[tuple[Posterior, ...]], ...]
    slots: tuple[Slot, ...]
    table: SignalingTable

    def __post_init__(self):
        alphabets = tuple(None if a is None else tuple(a) for a in self.alphabets)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "slots", tuple(self.slots))
        k, n = self.structure.k, self.structure.n
        if self.q < 2:
            raise AlphabetTooSmall(f"modulus {self.q} is below 2")
        if self.table.k != k:
            raise ReceiverCountMismatch(
                f"table speaks of {self.table.k} receivers, structure of {k}"
            )
        if len(self.alphabets) != k:
            raise ValidationError("one alphabet entry per receiver expected")
        size = self.table.space.size
        for i, alphabet in enumerate(self.alphabets):
            if alphabet is None:
                continue
            who = f"receiver {i + 1}"
            if list(alphabet) != sorted(set(alphabet)):
                raise ValidationError(f"{who}: alphabet must be sorted and distinct")
            if len(alphabet) > self.q:
                raise AlphabetTooSmall(f"{who}: {len(alphabet)} labels do not fit into Z_{self.q}")
            for w in alphabet:
                if len(w) != size:
                    label = f"{who}: alphabet label {format_label(w)}"
                    raise StateSpaceMismatch(f"{label} is not over the {size} states")
        count, bare = self.key_count, []
        for slot in self.slots:
            if not 0 <= slot.channel < n:
                raise ValidationError(f"slot on unknown channel {slot.channel + 1}")
            if slot.owner is None:
                bare.append(slot.keys[0])
            elif not 0 <= slot.owner < k or self.alphabets[slot.owner] is None:
                raise ValidationError(f"payload for uncovered receiver {slot.owner + 1}")
            if any(not 0 <= e < count for e in slot.keys):
                raise ValidationError("slot references an unknown key")
        if sorted(bare) != list(range(count)):
            raise ValidationError("each key must ride exactly one bare slot")

    @property
    def covered(self) -> frozenset[int]:
        """The receivers with an alphabet, whose labels the scheme delivers."""
        return frozenset(i for i, alphabet in enumerate(self.alphabets) if alphabet is not None)

    @property
    def key_count(self) -> int:
        """The number of keys: one per bare slot."""
        return sum(slot.owner is None for slot in self.slots)


@dataclass(frozen=True)
class ExecutionRecord:
    """One concrete emission: realized state, table branch, key values,
    and the per-channel symbol tuples.  probability is conditional on the
    state."""

    state: str
    branch: int
    keys: tuple[int, ...]
    probability: Fraction
    channels: tuple[tuple[int, ...], ...]


def _branch_codes(scheme: ChannelScheme) -> Iterator[tuple[str, int, Fraction, list[int]]]:
    """Every positive-mass branch, state by state, as (state, branch,
    mass, codes): codes holds each slot's value under the all-zero key
    vector, the owner's label code for a payload and 0 for a bare key."""
    owners = [s.owner for s in scheme.slots if s.owner is not None]
    for state in scheme.table.space.states:
        for branch, mass in enumerate(scheme.table.rows[state]):
            if mass != 0:
                profile = scheme.table.profiles[branch]
                for i in owners:
                    if profile[i] not in scheme.alphabets[i]:
                        raise ValidationError(f"label {format_label(profile[i])} not in alphabet")
                yield state, branch, mass, [
                    0 if s.owner is None else scheme.alphabets[s.owner].index(profile[s.owner])
                    for s in scheme.slots
                ]


def _wire_layout(scheme: ChannelScheme) -> list[list[int]]:
    """Slot positions per channel, in slot order."""
    layout: list[list[int]] = [[] for _ in range(scheme.structure.n)]
    for p, slot in enumerate(scheme.slots):
        layout[slot.channel].append(p)
    return layout


#: Most trailing key vectors per precomputed block; 1,024 was slower.
_INNER_BLOCK = 64


def _branch_runs(scheme: ChannelScheme) -> Iterator[tuple[str, int, Fraction, Iterator]]:
    """Every positive-mass branch, state by state, as (state, branch,
    probability, run); run yields (keys, channels) with keys in
    lexicographic order.  Each slot's sums over the inner key block are
    made once per scheme, shifted by each base value mod q, so a record's
    channel tuples are zipped together in C.  Past q = _INNER_BLOCK there
    is no block, and key vectors count up in base q: product would first
    make a tuple of range(q)."""
    q, count = scheme.q, scheme.key_count
    layout = _wire_layout(scheme)
    inner = 0
    while inner < count and q ** (inner + 1) <= _INNER_BLOCK:
        inner += 1
    outer = count - inner
    suffixes = list(product(range(q), repeat=inner))
    columns = [[keys[e] for keys in suffixes] for e in range(inner)]
    shifted, leading = [], []
    for slot in scheme.slots:
        sums = [0] * len(suffixes)
        for e in slot.keys:
            if e >= outer:
                sums = list(map(operator.add, sums, columns[e - outer]))
        if inner:
            shifted.append([[(b + s) % q for s in sums] for b in range(q)])
        leading.append([e for e in slot.keys if e < outer])
    # a channel with no slots would stop the outer zip at once
    blank = [()] * len(suffixes)
    powers = [q**e for e in reversed(range(outer))]

    def run(codes):
        counted = (tuple([index // p % q for p in powers]) for index in range(q**outer))
        for prefix in product(range(q), repeat=outer) if inner else counted:
            base = [(c + sum(map(prefix.__getitem__, ks))) % q for c, ks in zip(codes, leading)]
            if not inner:
                yield prefix, tuple([tuple([base[p] for p in wire]) for wire in layout])
                continue
            wires = [
                zip(*[shifted[p][base[p]] for p in wire]) if wire else blank
                for wire in layout
            ]
            yield from zip(map(prefix.__add__, suffixes), zip(*wires))

    key_mass = Fraction(1, q**count)
    for state, branch, mass, codes in _branch_codes(scheme):
        yield state, branch, mass * key_mass, run(codes)


def _branch_count(scheme: ChannelScheme) -> int:
    return sum(mass != 0 for row in scheme.table.rows.values() for mass in row)


def execution_count(scheme: ChannelScheme) -> int:
    """How many executions enumerate_executions yields: every
    positive-mass branch of every state, once per key vector."""
    return _branch_count(scheme) * scheme.q**scheme.key_count


def enumerate_executions(scheme: ChannelScheme) -> Iterator[ExecutionRecord]:
    """All positive-probability executions, state by state, branch by
    branch, keys in lexicographic order.  The records of one branch
    share its probability object."""
    for state, branch, probability, run in _branch_runs(scheme):
        for keys, channels in run:
            yield ExecutionRecord(state, branch, keys, probability, channels)


def _shift(view: tuple[int, ...], by: tuple[int, ...], q: int) -> tuple[int, ...]:
    return tuple([(a + b) % q for a, b in zip(view, by)])


def _minus(view: tuple[int, ...], by: tuple[int, ...], q: int) -> tuple[int, ...]:
    return tuple([(a - b) % q for a, b in zip(view, by)])


def _span(wire: list[Slot], key_count: int, q: int) -> frozenset[tuple[int, ...]]:
    """im(A) over Z_q, where A[p][e] counts how often key e rides slot p
    of wire: the additive closure of A's columns, so composite q needs
    no special case."""
    columns = [[0] * len(wire) for _ in range(key_count)]
    for p, slot in enumerate(wire):
        for e in slot.keys:
            columns[e][p] += 1
    image = {(0,) * len(wire)}
    for column in columns:
        step = tuple(a % q for a in column)
        if step in image:
            continue
        multiples = {tuple(t * a % q for a in step) for t in range(q)}
        image = {_shift(v, m, q) for v in image for m in multiples}
    return frozenset(image)


@dataclass(frozen=True)
class ViewLaw:
    """Exact law of one receiver's view, per positive-mass event
    (state, branch).

    Every slot is affine in the keys over Z_q, so in each event the view
    is offset + A·keys for a matrix A fixed by the wire layout: it is
    uniform on the coset offset + image, each of whose views is shown by
    weight of the q^keys key vectors.  offsets[event] is the offset of
    the first event seen in that coset, so two events show the same law
    iff their offsets are equal.
    """

    q: int
    image: frozenset[tuple[int, ...]]
    weight: int
    offsets: dict[tuple[str, int], tuple[int, ...]]

    def views(self, offset: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The views of offset's coset, in sorted order."""
        return sorted(_shift(offset, v, self.q) for v in self.image)


def view_laws(scheme: ChannelScheme) -> list[ViewLaw]:
    """Each receiver's view law, read off the slots instead of
    enumerating executions.  An event's offset is its view under the
    all-zero key vector."""
    q = scheme.q
    layout = _wire_layout(scheme)
    events = {
        (state, branch): tuple(tuple(codes[p] for p in wire) for wire in layout)
        for state, branch, _, codes in _branch_codes(scheme)
    }
    laws = []
    for r in range(scheme.structure.k):
        chans = scheme.structure.channels_of(r)
        wire = [scheme.slots[p] for j in chans for p in layout[j]]
        image = _span(wire, scheme.key_count, q)
        cosets: list[tuple[int, ...]] = []
        offsets = {}
        for event, wires in events.items():
            raw = tuple(s for j in chans for s in wires[j])
            home = next((c for c in cosets if _minus(raw, c, q) in image), None)
            if home is None:
                home = raw
                cosets.append(raw)
            offsets[event] = home
        laws.append(ViewLaw(q, image, q**scheme.key_count // len(image), offsets))
    return laws


class _SchemeBuilder:
    """Mutable scaffolding shared by the construction routines."""

    def __init__(self, q: int, structure: CommunicationStructure, table: SignalingTable):
        self.q = q
        self.structure = structure
        self.table = table
        self.slots: list[Slot] = []
        self.alphabets: list[Optional[tuple[Posterior, ...]]] = [None] * structure.k
        self.key_count = 0

    def _new_key(self) -> int:
        kappa = self.key_count
        self.key_count += 1
        return kappa

    def _route(self, seer: int, hidden_from: int) -> int:
        """Lowest channel that seer observes and hidden_from does not."""
        for j in self.structure.channels_of(seer):
            if not self.structure.observes(hidden_from, j):
                return j
        raise NoKeyChannel(
            f"no channel reaches receiver {seer + 1} past receiver {hidden_from + 1}"
        )

    def add_bundle(self, i: int, audience: set[int]) -> None:
        """Append receiver i's payload on his lowest channel, keyed once
        against each co-observer of that channel inside audience."""
        chans = self.structure.channels_of(i)
        if not chans:
            raise NoCarrierChannel(f"receiver {i + 1} observes no channel")
        carrier = chans[0]
        keys = []
        for c in self.structure.observers_of(carrier):
            if c == i or c not in audience:
                continue
            kappa = self._new_key()
            self.slots.append(Slot(self._route(i, c), None, (kappa,)))
            keys.append(kappa)
        self.slots.append(Slot(carrier, i, tuple(keys)))
        self.alphabets[i] = tuple(sorted({profile[i] for profile in self.table.profiles}))

    def shield(self, i: int) -> None:
        """Re-encrypt every channel i watches that none of the receivers
        he dominates watch for him.

        Each payload on such a channel is replaced by one copy per
        covered co-observer, encrypted with a fresh key that the
        co-observer can fetch and i cannot.  Bare keys stay as they are:
        alone they carry nothing.
        """
        if self.alphabets[i] is not None:
            raise InvariantViolation(
                f"receiver {i + 1} is already covered; shielding would cut him off"
            )
        dominated = self.structure.dominance_masks[0][i]
        for j in self.structure.channels_of(i):
            watchers = self.structure.observers_of(j)
            if any(dominated >> c & 1 and self.alphabets[c] is not None for c in watchers):
                continue
            rebuilt: list[Slot] = []
            fresh: list[Slot] = []
            for slot in self.slots:
                if slot.channel != j or slot.owner is None:
                    rebuilt.append(slot)
                    continue
                for c in watchers:
                    if c == i or self.alphabets[c] is None:
                        continue
                    kappa = self._new_key()
                    fresh.append(Slot(self._route(c, i), None, (kappa,)))
                    rebuilt.append(Slot(j, slot.owner, slot.keys + (kappa,)))
            self.slots = rebuilt + fresh

    def build(self) -> ChannelScheme:
        return ChannelScheme(self.q, self.structure, self.alphabets, self.slots, self.table)


def _default_modulus(table: SignalingTable, receivers) -> int:
    widest = 2
    for i in receivers:
        widest = max(widest, len({p[i] for p in table.profiles}))
    return widest


def emulate_private_subset(
    M: CommunicationStructure,
    I,
    table: SignalingTable,
    q: Optional[int] = None,
) -> ChannelScheme:
    """Deliver the table's labels to the receivers in I and pure noise to
    everyone else.

    Each target's payload travels on his lowest channel, encrypted once
    per co-observer of that channel; the key against a co-observer rides
    a channel the target sees and the co-observer does not.  Such a
    channel exists precisely because no target is dominated.
    """
    targets = sorted(set(I))
    if not targets:
        raise ValidationError("the target subset is empty")
    if any(i < 0 or i >= M.k for i in targets):
        raise ValidationError("target subset names an unknown receiver")
    if table.k != M.k:
        raise ReceiverCountMismatch(
            f"table speaks of {table.k} receivers, structure of {M.k}"
        )
    for i in targets:
        above = M.dominance_masks[1][i]
        if above:
            offender = (above & -above).bit_length() - 1  # the lowest dominator
            raise DominatedTarget(
                f"receiver {i + 1} is dominated by receiver {offender + 1}; "
                "his label cannot be kept private"
            )
    builder = _SchemeBuilder(
        _default_modulus(table, targets) if q is None else q, M, table
    )
    everyone = set(range(M.k))
    for i in targets:
        builder.add_bundle(i, audience=everyone)
    return builder.build()


def transport_scheme(
    M1: CommunicationStructure,
    M2: CommunicationStructure,
    table: SignalingTable,
    q: Optional[int] = None,
) -> ChannelScheme:
    """Realize under M2 a table realizable under M1.

    Peeling order: repeatedly pick the lowest-indexed receiver that no
    other remaining receiver dominates.  The scheme is then assembled
    from the deepest pick outward; each receiver is shielded from the
    channels of the scheme built so far before his own bundle is
    appended, keyed only against the still-remaining receivers.  Earlier
    picks never need keys at append time: their shielding re-encrypts
    whatever they could see.
    """
    if M1.k != M2.k:
        raise ReceiverCountMismatch(
            f"cannot transport between {M1.k} and {M2.k} receivers"
        )
    if table.k != M2.k:
        raise ReceiverCountMismatch(
            f"table speaks of {table.k} receivers, structures of {M2.k}"
        )
    if M2.has_duplicate_rows():
        raise DuplicateRows(
            "destination structure has duplicate rows; merge them first"
        )
    if not is_superior(M2, M1):
        raise SuperiorityViolated(
            "destination structure admits dominating pairs absent from the source"
        )
    dominated_by = M2.dominance_masks[1]
    order: list[int] = []
    active = (1 << M2.k) - 1
    while active:
        pick = next(i for i in range(M2.k) if active >> i & 1 and not dominated_by[i] & active)
        order.append(pick)
        active ^= 1 << pick
    builder = _SchemeBuilder(
        _default_modulus(table, range(M2.k)) if q is None else q, M2, table
    )
    for t in range(len(order) - 1, -1, -1):
        builder.shield(order[t])
        builder.add_bundle(order[t], audience=set(order[t:]))
    return builder.build()


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of exact scheme verification.

    recovery_failures: receivers whose view fails to pin down their
    target label, or pins down the wrong posterior, one line per view.
    privacy_failures: receivers whose view, conditioned on the labels of
    the receivers they dominate (and their own), still depends on the
    state or on other labels.  A view is uniform on its coset in every
    event, so uniformity holds by construction.
    execution_count: the executions the law stands for, positive-mass
    branches x q^keys, as execution_count(scheme) counts them.
    """

    ok: bool
    recovery_failures: tuple[str, ...]
    privacy_failures: tuple[str, ...]
    law_matches: bool
    execution_count: int

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "label_recovery": {
                "ok": not self.recovery_failures,
                "failures": list(self.recovery_failures),
            },
            "privacy": {
                "ok": not self.privacy_failures,
                "failures": list(self.privacy_failures),
            },
            "law_matches": self.law_matches,
            "executions": self.execution_count,
        }


def _covered_law(
    table: SignalingTable, prior, covered: tuple[int, ...]
) -> dict[tuple[str, tuple[Posterior, ...]], Fraction]:
    law: dict[tuple[str, tuple[Posterior, ...]], Fraction] = {}
    for (state, idx), mass in table.joint_law(prior).items():
        key = (state, tuple(table.profiles[idx][i] for i in covered))
        law[key] = law.get(key, Fraction(0)) + mass
    return law


def verify_scheme(
    scheme: ChannelScheme,
    M: CommunicationStructure,
    target: SignalingTable,
    instance: PersuasionInstance,
    budget: Optional[int] = DEFAULT_VERIFY_BUDGET,
) -> SchemeReport:
    """Check in exact arithmetic that the scheme delivers labels and
    leaks nothing, from each receiver's coset law (view_laws) instead of
    the executions.

    Recovery: for every covered receiver, each possible view is
    consistent with a single target label, and the posterior over states
    given the view equals that label; views of one coset share their
    events, so this is decided once per coset.  Privacy: for every
    receiver, the distribution of his view conditioned on the labels he
    is entitled to is the same across all states and branches, that is,
    those events share one coset.  Law: the joint distribution of state
    and covered labels matches the target table under the instance's
    prior.  budget caps execution_count(scheme), which bounds the work:
    a receiver's image holds at most q^keys views.
    """
    if scheme.structure != M:
        raise ValidationError("scheme was built for a different structure")
    if target.k != M.k:
        raise ReceiverCountMismatch(
            f"target table speaks of {target.k} receivers, structure of {M.k}"
        )
    space = instance.space
    if scheme.table.space != space or target.space != space:
        raise StateSpaceMismatch("scheme, target, and instance disagree on states")
    q, keys = scheme.q, scheme.key_count
    # q^keys >= 2^(keys·(bits(q) - 1)): a count past the budget's bits is refused unmade
    if budget is not None and (
        keys * (q.bit_length() - 1) >= budget.bit_length() or execution_count(scheme) > budget
    ):
        count = f"{_branch_count(scheme)} × {q}^{keys}"
        raise BudgetExceeded(f"verification needs {count} executions, budget allows {budget}")
    size = execution_count(scheme)
    prior = instance.prior
    covered = tuple(sorted(scheme.covered))

    laws = view_laws(scheme)

    recovery: list[str] = []
    for r in covered:
        law = laws[r]
        by_coset = defaultdict(list)
        for event, offset in law.offsets.items():
            by_coset[offset].append(event)
        failures: list[tuple[tuple[int, ...], str]] = []
        for offset, events in by_coset.items():
            labels = {scheme.table.profiles[branch][r] for _, branch in events}
            if len(labels) > 1:
                verdict = f"is consistent with {len(labels)} different labels"
            else:
                label = labels.pop()
                # every view of the coset is shown by law.weight key
                # vectors in each of its events, so the views share one
                # posterior and the weight cancels from it
                mass = [Fraction(0)] * space.size
                for state, branch in events:
                    b = space.index(state)
                    mass[b] += prior[b] * scheme.table.rows[state][branch]
                total = sum(mass)
                posterior = tuple(m / total for m in mass)
                if posterior == label:
                    continue
                verdict = (
                    f"yields posterior {format_label(posterior)} "
                    f"instead of {format_label(label)}"
                )
            failures.extend((view, verdict) for view in law.views(offset))
        recovery.extend(
            f"receiver {r + 1}: view {view} {verdict}" for view, verdict in sorted(failures)
        )

    dominates = M.dominance_masks[0]
    privacy: list[str] = []
    for r in range(M.k):
        entitled = [d for d in covered if d == r or dominates[r] >> d & 1]
        groups = defaultdict(dict)
        for event, offset in laws[r].offsets.items():
            cond = tuple(scheme.table.profiles[event[1]][d] for d in entitled)
            groups[cond][event] = offset
        for cond, by_event in sorted(groups.items()):
            events = sorted(by_event)
            reference = by_event[events[0]]
            conditioning = ", ".join(format_label(c) for c in cond) or "nothing"
            for event in events[1:]:
                if by_event[event] != reference:
                    privacy.append(
                        f"receiver {r + 1}: view law given labels [{conditioning}] "
                        f"differs between (state {events[0][0]}, profile "
                        f"{events[0][1] + 1}) and (state {event[0]}, profile "
                        f"{event[1] + 1})"
                    )
                    break

    law_matches = _covered_law(scheme.table, prior, covered) == _covered_law(
        target, prior, covered
    )
    return SchemeReport(
        ok=not recovery and not privacy and law_matches,
        recovery_failures=tuple(recovery),
        privacy_failures=tuple(privacy),
        law_matches=law_matches,
        execution_count=size,
    )
