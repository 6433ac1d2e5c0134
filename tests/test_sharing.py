import hashlib
import random
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice, permutations, product, zip_longest

import pytest

from mcpersuasion import io as mc_io
from mcpersuasion import sharing
from mcpersuasion.dominance import dominance_set, is_superior, sperner_structure
from mcpersuasion.errors import (
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
from mcpersuasion.forest import SignalingTable
from mcpersuasion.model import (
    AdditiveUtility,
    CommunicationStructure,
    ConstantUtility,
    PersuasionInstance,
    Prior,
    StateSpace,
)
from mcpersuasion.sharing import (
    ChannelScheme,
    ExecutionRecord,
    Slot,
    emulate_private_subset,
    enumerate_executions,
    execution_count,
    transport_scheme,
    verify_scheme,
    view_laws,
)

BIN = StateSpace(("0", "1"))
HALF = Prior(BIN, (Fraction(1, 2), Fraction(1, 2)))
SPERNER3 = CommunicationStructure(((1, 1, 0), (0, 1, 1), (1, 0, 1)))

LO = (Fraction(0), Fraction(1))
HI = (Fraction(1), Fraction(0))
MID = (Fraction(1, 2), Fraction(1, 2))


def _identity(k):
    return CommunicationStructure(
        tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    )


def _instance(structure):
    receivers = tuple(ConstantUtility(Fraction(1)) for _ in range(structure.k))
    return PersuasionInstance(BIN, HALF, structure, AdditiveUtility(receivers))


def _reveal_to_first(k):
    """Full revelation to receiver 1, no information to anyone else."""
    rest = (MID,) * (k - 1)
    return SignalingTable(
        space=BIN,
        profiles=((LO,) + rest, (HI,) + rest),
        rows={"0": (Fraction(0), Fraction(1)), "1": (Fraction(1), Fraction(0))},
    )


def _independent_table(rng, k, signals=2, den=6):
    """Each receiver gets his own conditionally independent binary-ish
    signal; labels come out of the posterior relabeling."""
    rows = []
    for _ in range(k):
        per_state = []
        for _ in range(2):
            cuts = sorted(rng.randint(0, den) for _ in range(signals - 1))
            probs, prev = [], 0
            for c in cuts:
                probs.append(Fraction(c - prev, den))
                prev = c
            probs.append(Fraction(den - prev, den))
            per_state.append(probs)
        rows.append(per_state)
    per_state_dist = {}
    for b, state in enumerate(BIN.states):
        dist = {}
        for prof in product(range(signals), repeat=k):
            p = Fraction(1)
            for i, sig in enumerate(prof):
                p *= rows[i][b][sig]
            if p:
                dist[prof] = p
        per_state_dist[state] = dist
    return SignalingTable.from_signals(HALF, per_state_dist)


def test_alphabet_codes_by_sorted_order():
    """A payload codes its owner's label by its index in his sorted
    alphabet; a label the alphabet lacks is refused when it is coded."""
    table = SignalingTable(
        space=BIN,
        profiles=((LO,), (MID,), (HI,)),
        rows={
            "0": (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
            "1": (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        },
    )
    scheme = ChannelScheme(
        q=3,
        structure=_identity(1),
        alphabets=((LO, MID, HI),),
        slots=(Slot(0, 0, ()),),
        table=table,
    )
    codes = {rec.branch: rec.channels for rec in enumerate_executions(scheme)}
    assert codes == {0: ((0,),), 1: ((1,),), 2: ((2,),)}
    short = replace(scheme, alphabets=((LO, HI),))
    with pytest.raises(ValidationError, match=r"^label \(1/2, 1/2\) not in alphabet$"):
        list(enumerate_executions(short))


def test_alphabet_rejects_small_modulus():
    """An alphabet must fit into Z_q, and q must be at least 2; the
    refusal names the receiver whose alphabet does not fit."""
    table = _reveal_to_first(2)
    scheme = dict(structure=_identity(2), slots=(), table=table)
    with pytest.raises(AlphabetTooSmall, match=r"^receiver 2: 3 labels do not fit into Z_2$"):
        ChannelScheme(q=2, alphabets=(None, (LO, MID, HI)), **scheme)
    with pytest.raises(AlphabetTooSmall, match=r"^modulus 1 is below 2$"):
        ChannelScheme(q=1, alphabets=((LO,), None), **scheme)


def test_one_time_pad_is_uniform():
    for q in range(2, 8):
        for c in range(q):
            image = sorted((c + e) % q for e in range(q))
            assert image == list(range(q))


def test_scheme_rejects_dangling_key():
    table = _reveal_to_first(1)
    with pytest.raises(ValidationError):
        ChannelScheme(
            q=2,
            structure=_identity(1),
            alphabets=((LO, HI),),
            slots=(Slot(0, 0, (0,)),),
            table=table,
        )


def test_scheme_rejects_uncovered_owner():
    table = _reveal_to_first(2)
    with pytest.raises(ValidationError):
        ChannelScheme(
            q=2,
            structure=_identity(2),
            alphabets=((LO, HI), None),
            slots=(Slot(0, 0, ()), Slot(1, 1, ())),
            table=table,
        )


@pytest.mark.parametrize("owner", [2, 5, -1])
def test_scheme_rejects_owner_past_k(owner):
    """A payload owner must name a receiver in range(k): one past k, or
    a negative one, is refused as input, not by an IndexError."""
    with pytest.raises(ValidationError, match="uncovered receiver"):
        ChannelScheme(
            q=2,
            structure=_identity(2),
            alphabets=((LO, HI), None),
            slots=(Slot(0, 0, ()), Slot(1, owner, ())),
            table=_reveal_to_first(2),
        )


def test_private_structure_needs_no_keys():
    k = 3
    table = _reveal_to_first(k)
    scheme = emulate_private_subset(_identity(k), range(k), table)
    assert scheme.key_count == 0
    assert scheme.slots == tuple(Slot(i, i, ()) for i in range(k))
    report = verify_scheme(scheme, _identity(k), table, _instance(_identity(k)))
    assert report.ok


def test_emulate_single_target_on_shared_channels():
    table = _reveal_to_first(3)
    scheme = emulate_private_subset(SPERNER3, [0], table, q=2)
    # payload for receiver 1 on channel 1, one key against the channel's
    # co-observer (receiver 3), fetched over channel 2 which receiver 3
    # cannot watch
    assert scheme.slots == (Slot(1, None, (0,)), Slot(0, 0, (0,)))
    assert scheme.key_count == 1
    report = verify_scheme(scheme, SPERNER3, table, _instance(SPERNER3))
    assert report.ok
    # the other receivers' views are uniform and state independent
    views = {1: {}, 2: {}}
    for rec in enumerate_executions(scheme):
        for r in views:
            key = (rec.state, receiver_view(scheme, rec, r))
            views[r][key] = views[r].get(key, Fraction(0)) + rec.probability
    for r, acc in views.items():
        by_state = {}
        for (state, symbols), mass in acc.items():
            by_state.setdefault(state, {})[symbols] = mass
        assert by_state["0"] == by_state["1"]
        assert len(set(by_state["0"].values())) == 1


def test_emulate_whole_antichain():
    table = _independent_table(random.Random(7), 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)
    report = verify_scheme(scheme, SPERNER3, table, _instance(SPERNER3))
    assert report.ok
    assert report.law_matches


def test_emulate_rejects_dominated_target():
    nested = CommunicationStructure(((1, 1), (0, 1)))
    table = _reveal_to_first(2)
    with pytest.raises(DominatedTarget):
        emulate_private_subset(nested, [1], table)


def test_emulate_names_the_lowest_dominator():
    nested = CommunicationStructure(((0, 1, 0), (1, 1, 1), (1, 1, 0), (0, 1, 0)))
    with pytest.raises(DominatedTarget, match="receiver 4 is dominated by receiver 1;"):
        emulate_private_subset(nested, [1, 3], _reveal_to_first(4))


def test_emulate_needs_a_carrier():
    deaf = CommunicationStructure(((0,),))
    table = _reveal_to_first(1)
    with pytest.raises(NoCarrierChannel):
        emulate_private_subset(deaf, [0], table)


def test_emulate_respects_explicit_modulus():
    third = (Fraction(1, 3), Fraction(2, 3))
    table = SignalingTable(
        space=BIN,
        profiles=((LO,), (third,), (HI,)),
        rows={
            "0": (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
            "1": (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        },
    )
    with pytest.raises(AlphabetTooSmall):
        emulate_private_subset(_identity(1), [0], table, q=2)


@pytest.mark.parametrize("q", [0, 1, -3])
def test_a_modulus_below_two_is_refused_not_replaced_by_the_default(q):
    table = _reveal_to_first(2)
    with pytest.raises(AlphabetTooSmall):
        emulate_private_subset(_identity(2), [0], table, q=q)
    with pytest.raises(AlphabetTooSmall):
        transport_scheme(_identity(2), _identity(2), table, q=q)


def shield_receiver(M, i, base):
    """Rework base so that receiver i can recover only the labels of the
    receivers he dominates, leaving every covered receiver's decoding
    intact: the scheme builder resumed from base, then its shield."""
    if base.structure != M:
        raise ValidationError("scheme was built for a different structure")
    if not 0 <= i < M.k:
        raise ValidationError(f"unknown receiver {i + 1}")
    builder = sharing._SchemeBuilder(base.q, base.structure, base.table)
    builder.slots = list(base.slots)
    builder.alphabets = list(base.alphabets)
    builder.key_count = base.key_count
    builder.shield(i)
    return builder.build()


def test_shield_skips_channels_guarded_by_dominated_receivers():
    nested = CommunicationStructure(((1, 1), (0, 1)))
    table = SignalingTable(
        space=BIN,
        profiles=((MID, LO), (MID, HI)),
        rows={"0": (Fraction(0), Fraction(1)), "1": (Fraction(1), Fraction(0))},
    )
    base = ChannelScheme(
        q=2,
        structure=nested,
        alphabets=(None, (LO, HI)),
        slots=(Slot(1, 1, ()),),
        table=table,
    )
    shielded = shield_receiver(nested, 0, base)
    # receiver 2 already guards the only channel receiver 1 watches, so
    # nothing changes: receiver 1 is entitled to receiver 2's label
    assert shielded == base
    report = verify_scheme(shielded, nested, table, _instance(nested))
    assert report.ok
    # receiver 1's posterior given his view equals the posterior given
    # exactly receiver 2's label
    by_view = {}
    by_label = {}
    for rec in enumerate_executions(shielded):
        b = BIN.index(rec.state)
        view = receiver_view(shielded, rec, 0)
        label = table.profiles[rec.branch][1]
        for acc, key in ((by_view, view), (by_label, label)):
            vec = acc.setdefault(key, [Fraction(0), Fraction(0)])
            vec[b] += HALF[b] * rec.probability
    for rec in enumerate_executions(shielded):
        view = receiver_view(shielded, rec, 0)
        label = table.profiles[rec.branch][1]
        v, l = by_view[view], by_label[label]
        assert tuple(x / sum(v) for x in v) == tuple(x / sum(l) for x in l)


def test_shield_leaves_unwatched_schemes_alone():
    table = _reveal_to_first(3)
    base = ChannelScheme(
        q=2,
        structure=SPERNER3,
        alphabets=(None, (MID,), None),
        slots=(Slot(2, 1, ()),),
        table=table,
    )
    assert shield_receiver(SPERNER3, 0, base) == base


def test_transport_between_identical_private_structures():
    k = 3
    table = _independent_table(random.Random(3), k)
    scheme = transport_scheme(_identity(k), _identity(k), table)
    assert scheme.key_count == 0
    report = verify_scheme(scheme, _identity(k), table, _instance(_identity(k)))
    assert report.ok


def test_transport_private_to_antichain_layout():
    table = _independent_table(random.Random(11), 3)
    scheme = transport_scheme(_identity(3), SPERNER3, table)
    # deepest bundle first: receiver 3's payload lands bare on channel 1,
    # receiver 2's on channel 2; shielding receiver 1 re-encrypts both
    # with keys fetched over channel 3; receiver 1's own payload is keyed
    # against receiver 3, the key riding channel 2
    assert scheme.slots == (
        Slot(0, 2, (0,)),
        Slot(1, 1, (1,)),
        Slot(2, None, (0,)),
        Slot(2, None, (1,)),
        Slot(1, None, (2,)),
        Slot(0, 0, (2,)),
    )
    assert scheme.key_count == 3
    report = verify_scheme(scheme, SPERNER3, table, _instance(SPERNER3))
    assert report.ok
    assert report.law_matches


def test_transport_into_nested_rows():
    # source structure has both receivers behind one channel, so their
    # labels always agree; the nested destination may let receiver 1 read
    # receiver 2's label outright
    merged = CommunicationStructure(((1,), (1,)))
    nested = CommunicationStructure(((1, 1), (0, 1)))
    per_state = {
        "0": {(0, 0): Fraction(3, 4), (1, 1): Fraction(1, 4)},
        "1": {(0, 0): Fraction(1, 4), (1, 1): Fraction(3, 4)},
    }
    table = SignalingTable.from_signals(HALF, per_state)
    scheme = transport_scheme(merged, nested, table)
    report = verify_scheme(scheme, nested, table, _instance(nested))
    assert report.ok
    assert report.law_matches


def test_transport_refuses_weaker_destinations():
    table = _reveal_to_first(2)
    with pytest.raises(SuperiorityViolated):
        transport_scheme(
            _identity(2), CommunicationStructure(((1, 1), (0, 1))), table
        )


def test_transport_refuses_duplicate_destination_rows():
    table = _reveal_to_first(2)
    with pytest.raises(DuplicateRows):
        transport_scheme(
            CommunicationStructure(((1,), (1,))),
            CommunicationStructure(((1,), (1,))),
            table,
        )


def test_transport_derives_each_structures_order_once(monkeypatch):
    """is_superior, the peel, every shield and the verifier read the
    order each structure keeps."""
    derived = Counter()
    kept = vars(CommunicationStructure)["dominance_masks"]
    derive = kept.func

    def counting(structure):
        derived[id(structure)] += 1
        return derive(structure)

    monkeypatch.setattr(kept, "func", counting)
    M1, M2 = _identity(4), sperner_structure(4)
    table = _reveal_to_first(4)
    scheme = transport_scheme(M1, M2, table)
    assert derived == {id(M1): 1, id(M2): 1}
    assert verify_scheme(scheme, M2, table, _instance(M2)).ok
    assert derived == {id(M1): 1, id(M2): 1}


def test_misrouted_key_is_caught():
    table = _reveal_to_first(3)
    scheme = emulate_private_subset(SPERNER3, [0], table, q=2)
    # move the key onto channel 1, which receiver 3 watches as well: he
    # can now strip the mask from receiver 1's payload
    slots = tuple(
        Slot(0, s.owner, s.keys) if s.owner is None else s for s in scheme.slots
    )
    broken = replace(scheme, slots=slots)
    report = verify_scheme(broken, SPERNER3, table, _instance(SPERNER3))
    assert not report.ok
    assert not report.recovery_failures
    assert any(f.startswith("receiver 3") for f in report.privacy_failures)


def test_a_key_listed_twice_counts_twice():
    table = _reveal_to_first(3)
    for q, leaking in ((2, ["receiver 3"]), (3, [])):
        scheme = emulate_private_subset(SPERNER3, [0], table, q=q)
        # the payload adds its key twice: 2·key is no mask over Z_2, and
        # still a one-time pad over Z_3
        doubled = replace(
            scheme,
            slots=tuple(
                replace(s, keys=s.keys * 2) if s.owner is not None else s
                for s in scheme.slots
            ),
        )
        _assert_laws_match_brute_force(doubled)
        report = verify_scheme(doubled, SPERNER3, table, _instance(SPERNER3))
        assert not report.recovery_failures
        assert report.ok == (not leaking)
        assert [f.split(":")[0] for f in report.privacy_failures] == leaking


def test_verify_budget_is_enforced():
    table = _reveal_to_first(3)
    scheme = emulate_private_subset(SPERNER3, [0], table, q=2)
    with pytest.raises(BudgetExceeded):
        verify_scheme(scheme, SPERNER3, table, _instance(SPERNER3), budget=3)


def _antichain_structures(k, n):
    out = []
    for rows in combinations(range(1, 2**n), k):
        if all(a | b not in (a, b) for a, b in combinations(rows, 2)):
            matrix = tuple(
                tuple((m >> j) & 1 for j in range(n)) for m in rows
            )
            out.append(CommunicationStructure(matrix))
    return out


def test_every_small_antichain_emulates_cleanly():
    rng = random.Random(2024)
    structures = []
    for k, n in ((2, 2), (3, 3), (3, 4)):
        structures.extend(_antichain_structures(k, n))
    assert structures
    for structure in structures:
        assert not dominance_set(structure)
        table = _independent_table(rng, structure.k)
        scheme = emulate_private_subset(structure, range(structure.k), table)
        report = verify_scheme(scheme, structure, table, _instance(structure))
        assert report.ok, (structure.matrix, report)


def test_sampled_four_receiver_antichains_emulate_cleanly():
    rng = random.Random(5)
    pool = _antichain_structures(4, 4)
    for structure in rng.sample(pool, 4):
        table = _independent_table(rng, 4)
        scheme = emulate_private_subset(structure, range(4), table)
        report = verify_scheme(
            scheme, structure, table, _instance(structure), budget=10**6
        )
        assert report.ok, (structure.matrix, report)


def _structures_up_to_relabelling(k, n):
    """Every structure of k distinct non-empty rows on n channels, once
    per orbit under permuting the channels."""
    seen = set()
    for masks in product(range(1, 2**n), repeat=k):
        if len(set(masks)) < k:
            continue
        rows = [tuple((m >> j) & 1 for j in range(n)) for m in masks]
        seen.add(
            min(
                tuple(tuple(row[j] for j in order) for row in rows)
                for order in permutations(range(n))
            )
        )
    return [CommunicationStructure(matrix) for matrix in sorted(seen)]


def _channel_signal_table(rng, M):
    """A table realizable under M: per state, two random joint signals
    on M's channels; each receiver's signal is what his channels carry."""
    per_state = {}
    for state in BIN.states:
        dist = {}
        weight = rng.randint(1, 3)
        for mass in (Fraction(weight, 4), Fraction(4 - weight, 4)):
            wire = [rng.randint(0, 1) for _ in range(M.n)]
            profile = tuple(tuple(wire[j] for j in M.channels_of(i)) for i in range(M.k))
            dist[profile] = dist.get(profile, Fraction(0)) + mass
        per_state[state] = dist
    return SignalingTable.from_signals(HALF, per_state)


def test_transport_realizes_every_small_superior_pair():
    """The sufficiency direction, exhaustively on small structures: a
    table realizable under M1 is realized under every M2 superior to
    M1, with no leak."""
    rng = random.Random(518)
    pairs = 0
    for k in (1, 2, 3):
        structures = [M for n in (1, 2, 3) for M in _structures_up_to_relabelling(k, n)]
        for M1 in structures:
            for M2 in structures:
                if not is_superior(M2, M1):
                    continue
                pairs += 1
                table = _channel_signal_table(rng, M1)
                scheme = transport_scheme(M1, M2, table)
                report = verify_scheme(scheme, M2, table, _instance(M2))
                assert report.ok and report.law_matches, (M1.matrix, M2.matrix, report)
                _assert_laws_match_brute_force(scheme)
    assert pairs == 518


def test_random_transports_reproduce_the_law():
    rng = random.Random(17)
    destinations = _antichain_structures(3, 4)
    for destination in rng.sample(destinations, 5):
        table = _independent_table(rng, 3)
        scheme = transport_scheme(_identity(3), destination, table)
        report = verify_scheme(
            scheme, destination, table, _instance(destination), budget=10**6
        )
        assert report.ok, (destination.matrix, report)
        assert report.law_matches


@pytest.mark.parametrize("limit", [0, 20, 72])
def test_scheme_document_lists_a_prefix_and_counts_the_rest(limit, monkeypatch):
    monkeypatch.setattr(mc_io, "EXECUTION_DUMP_LIMIT", limit)
    # seven zero-mass branches, 72 executions in all
    table = _independent_table(random.Random(0), 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)
    records = list(enumerate_executions(scheme))
    doc = mc_io.channel_scheme_to_doc(scheme)
    listed = [entry for state in BIN.states for entry in doc["executions"][state]]
    assert len(listed) == min(limit, len(records))
    assert len(listed) + doc.get("executions_omitted", 0) == len(records) == 72
    assert ("executions_omitted" in doc) == (limit < len(records))
    assert listed == [
        {
            "branch": record.branch + 1,
            "keys": list(record.keys),
            "probability": mc_io.format_rational(record.probability),
            "channels": [list(symbols) for symbols in record.channels],
        }
        for record in records[: len(listed)]
    ]
    states = [state for state in BIN.states for _ in doc["executions"][state]]
    assert states == [record.state for record in records[: len(listed)]]


def _full_revelation(k):
    return SignalingTable(
        space=BIN,
        profiles=((LO,) * k, (HI,) * k),
        rows={"0": (Fraction(0), Fraction(1)), "1": (Fraction(1), Fraction(0))},
    )


def _move_keys(scheme, owner, channel):
    """Move every key of owner's payload onto channel."""
    payload = next(s for s in scheme.slots if s.owner == owner)
    return replace(
        scheme,
        slots=tuple(
            replace(s, channel=channel)
            if s.owner is None and s.keys[0] in payload.keys
            else s
            for s in scheme.slots
        ),
    )


def _scheme_quartet(structure, table, q, rng):
    """The full scheme, a seeded singleton, and the singleton's
    misrouted-key and key-hiding mutants."""
    k = structure.k
    yield emulate_private_subset(structure, range(k), table, q=q)
    owner = rng.randrange(k)
    single = emulate_private_subset(structure, [owner], table, q=q)
    yield single
    # misrouted: the payload's co-observers read key and ciphertext
    # together
    carrier = next(s.channel for s in single.slots if s.owner == owner)
    yield _move_keys(single, owner, carrier)
    # hidden: owner can no longer strip the mask
    blind = next(j for j in range(structure.n) if not structure.observes(owner, j))
    yield _move_keys(single, owner, blind)


def _report_family():
    """Seeded (structure, table, scheme, instance) cases: full and
    singleton schemes under full revelation and random tables, their
    misrouted-key and key-hiding mutants, transports from private
    channels, one scheme checked under a prior its table was not built
    for and one against a table other than its own.
    sperner_structure(3) is the private layout; SPERNER3 is the
    three-receiver antichain on shared channels."""
    rng = random.Random(55)
    for structure in (sperner_structure(3), SPERNER3, sperner_structure(4)):
        k = structure.k
        instance = _instance(structure)
        for q in (2, 3):
            tables = [_full_revelation(k)]
            if q == 2 or k == 3:
                tables.append(_independent_table(rng, k))
            for table in tables:
                for scheme in _scheme_quartet(structure, table, q, rng):
                    yield structure, table, scheme, instance
        for _ in range(2):
            table = _independent_table(rng, k)
            scheme = transport_scheme(_identity(k), structure, table)
            yield structure, table, scheme, instance
    skewed = Prior(BIN, (Fraction(1, 3), Fraction(2, 3)))
    instance = PersuasionInstance(
        BIN, skewed, SPERNER3, AdditiveUtility((ConstantUtility(Fraction(1)),) * 3)
    )
    table = _independent_table(rng, 3)
    yield SPERNER3, table, emulate_private_subset(SPERNER3, [0, 1, 2], table), instance
    # checked against a table other than the one it carries
    other = _independent_table(rng, 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)
    yield SPERNER3, other, scheme, _instance(SPERNER3)


def _composite_family():
    """The same quartets at the composite moduli 4 and 6, under full
    revelation and a random table."""
    rng = random.Random(46)
    for structure in (sperner_structure(3), SPERNER3, sperner_structure(4)):
        instance = _instance(structure)
        for q in (4, 6):
            k = structure.k
            for table in (_full_revelation(k), _independent_table(rng, k)):
                for scheme in _scheme_quartet(structure, table, q, rng):
                    yield structure, table, scheme, instance


def _digest(reports):
    return hashlib.md5("\n".join(map(repr, reports)).encode()).hexdigest()


def test_reports_match_the_pinned_digest():
    """The reports of a seeded family of honest and broken schemes, byte
    for byte; the digest was recorded from a verifier that kept every
    execution record and walked the list once per receiver."""
    reports = [
        verify_scheme(scheme, structure, table, instance)
        for structure, table, scheme, instance in _report_family()
    ]
    assert len(reports) == 52
    assert sum(bool(r.recovery_failures) for r in reports) == 8
    assert sum(bool(r.privacy_failures) for r in reports) == 14
    assert sum(not r.law_matches for r in reports) == 1
    assert _digest(reports) == "c5aa6ec1b1f94234bec2ced42d605c21"


def test_composite_modulus_reports_match_the_pinned_digest():
    """The same kinds of scheme over Z_4 and Z_6, where the key images
    are not vector spaces; the digest was recorded from the verifier
    that enumerated every execution."""
    reports = [
        verify_scheme(scheme, structure, table, instance)
        for structure, table, scheme, instance in _composite_family()
    ]
    assert len(reports) == 48
    assert sum(not r.ok for r in reports) == 16
    assert sum(bool(r.recovery_failures) for r in reports) == 8
    assert sum(bool(r.privacy_failures) for r in reports) == 16
    assert all(r.law_matches for r in reports)
    assert _digest(reports) == "3e790b946538997d0b81481416b67b77"


def test_hidden_keys_break_recovery():
    table = _reveal_to_first(3)
    scheme = emulate_private_subset(SPERNER3, [0], table, q=2)
    # the key leaves channel 2 for channel 3: receiver 1 no longer sees
    # it, and receiver 3 now sees it next to the payload on channel 1
    broken = _move_keys(scheme, 0, 2)
    assert broken.slots == (Slot(2, None, (0,)), Slot(0, 0, (0,)))
    report = verify_scheme(broken, SPERNER3, table, _instance(SPERNER3))
    assert report.recovery_failures == (
        "receiver 1: view (0,) is consistent with 2 different labels",
        "receiver 1: view (1,) is consistent with 2 different labels",
    )
    assert report.privacy_failures == (
        "receiver 3: view law given labels [nothing] differs between "
        "(state 0, profile 2) and (state 1, profile 1)",
    )
    assert report.law_matches and not report.ok


def _reference_executions(scheme):
    """The records enumerate_executions yields, built without its code:
    every payload label is coded by its index in the owner's alphabet,
    for every slot of every execution, and every probability is worked
    out anew.  Key vectors are the base-q digits of a counter, so a
    large q costs no memory."""
    q, key_count = scheme.q, scheme.key_count
    powers = [q**e for e in reversed(range(key_count))]
    for state in scheme.table.space.states:
        for branch, mass in enumerate(scheme.table.rows[state]):
            if mass == 0:
                continue
            profile = scheme.table.profiles[branch]
            for index in range(q**key_count):
                keys = tuple(index // power % q for power in powers)
                wires = [[] for _ in range(scheme.structure.n)]
                for slot in scheme.slots:
                    value = sum(keys[e] for e in slot.keys)
                    if slot.owner is not None:
                        value += scheme.alphabets[slot.owner].index(profile[slot.owner])
                    wires[slot.channel].append(value % q)
                yield ExecutionRecord(
                    state=state,
                    branch=branch,
                    keys=keys,
                    probability=mass / q**key_count,
                    channels=tuple(tuple(w) for w in wires),
                )


def receiver_view(scheme, execution, receiver):
    """What receiver reads in execution: the symbols on its channels, in
    channel order."""
    chans = scheme.structure.channels_of(receiver)
    return tuple(s for j in chans for s in execution.channels[j])


#: The two composite schemes above this limit (559,872 and 6,718,464
#: executions) would take minutes by brute force; their pinned reports
#: cover them.
BRUTE_FORCE_LIMIT = 2**17


def _small_family_schemes():
    for _, _, scheme, _ in (*_report_family(), *_composite_family()):
        if execution_count(scheme) <= BRUTE_FORCE_LIMIT:
            yield scheme


def test_executions_match_the_reference_enumeration():
    checked = 0
    for scheme in _small_family_schemes():
        for got, want in zip_longest(enumerate_executions(scheme), _reference_executions(scheme)):
            assert got == want
        checked += 1
    assert checked == 98


@pytest.mark.parametrize("cut", ["nothing listed", "inside a branch", "everything listed"])
def test_scheme_documents_list_the_reference_executions(cut, monkeypatch):
    """channel_scheme_to_doc's listing, record by record and state by
    state, against the reference enumeration over the small family."""
    family = list(_small_family_schemes())
    inside = 0
    for scheme in family:
        count = execution_count(scheme)
        block = scheme.q**scheme.key_count
        limit = {
            "nothing listed": 0,
            # into the middle branch, half way through its key vectors
            "inside a branch": block * (count // block // 2) + (block + 1) // 2,
            "everything listed": count,
        }[cut]
        inside += limit % block != 0
        monkeypatch.setattr(mc_io, "EXECUTION_DUMP_LIMIT", limit)
        doc = mc_io.channel_scheme_to_doc(scheme)
        assert list(doc["executions"]) == list(scheme.table.space.states)
        listed = ((state, entry) for state, entries in doc["executions"].items() for entry in entries)
        for got, record in zip_longest(listed, islice(_reference_executions(scheme), limit)):
            assert got == (
                record.state,
                {
                    "branch": record.branch + 1,
                    "keys": list(record.keys),
                    "probability": mc_io.format_rational(record.probability),
                    "channels": [list(symbols) for symbols in record.channels],
                },
            )
        assert doc.get("executions_omitted", 0) == count - min(limit, count)
        assert ("executions_omitted" in doc) == (limit < count)
    assert inside == (64 if cut == "inside a branch" else 0)
    # runs with a key prefix, channels that carry nothing, schemes with
    # no keys, and moduli that are not prime
    assert any(s.q**s.key_count > sharing._INNER_BLOCK for s in family)
    assert any(
        all(slot.channel != j for slot in s.slots) for s in family for j in range(s.structure.n)
    )
    assert any(s.key_count == 0 for s in family)
    assert any(s.q in (4, 6) for s in family)


@pytest.mark.parametrize("q", [65, 97, 10**30], ids=["65", "97", "10^30"])
def test_executions_past_the_inner_block_match_the_reference(q):
    """Past _INNER_BLOCK there is no block, and key vectors are counted
    out lazily: no list the size of q is made, so q = 10^30 lists its
    first records at once."""
    table = _independent_table(random.Random(0), 3)
    for subset in ([0], [0, 1], [0, 1, 2]):
        scheme = emulate_private_subset(SPERNER3, subset, table, q=q)
        got = islice(enumerate_executions(scheme), 5000)
        assert list(got) == list(islice(_reference_executions(scheme), 5000))


def test_scheme_documents_build_no_execution_records(monkeypatch):
    table = _independent_table(random.Random(0), 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)

    def refused(*args):
        raise AssertionError("an ExecutionRecord was built")

    monkeypatch.setattr(sharing, "ExecutionRecord", refused)
    doc = mc_io.channel_scheme_to_doc(scheme)
    assert sum(map(len, doc["executions"].values())) == 72
    with pytest.raises(AssertionError, match="ExecutionRecord"):
        next(enumerate_executions(scheme))


def _brute_force_tally(scheme):
    """Per receiver, per (state, branch), how many key vectors show each
    view: one walk of the reference enumeration, the oracle for
    view_laws, which shares no code with enumerate_executions."""
    tally = [defaultdict(Counter) for _ in range(scheme.structure.k)]
    for record in _reference_executions(scheme):
        for r, by_event in enumerate(tally):
            by_event[record.state, record.branch][receiver_view(scheme, record, r)] += 1
    return tally


def _assert_laws_match_brute_force(scheme):
    tally = _brute_force_tally(scheme)
    for r, law in enumerate(view_laws(scheme)):
        assert set(tally[r]) == set(law.offsets), r
        for event, views in tally[r].items():
            # uniform on its support, which is the law's coset
            assert len(set(views.values())) == 1
            coset = law.views(law.offsets[event])
            assert views == Counter(dict.fromkeys(coset, law.weight)), (r, event)


def test_view_laws_match_the_brute_force_tally():
    checked = 0
    for scheme in _small_family_schemes():
        _assert_laws_match_brute_force(scheme)
        checked += 1
    assert checked == 98


def test_verification_enumerates_no_executions(monkeypatch):
    table = _independent_table(random.Random(0), 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)
    calls = []

    def watched(walked):
        calls.append(walked)
        return enumerate_executions(walked)

    monkeypatch.setattr(sharing, "enumerate_executions", watched)
    report = verify_scheme(scheme, SPERNER3, table, _instance(SPERNER3))
    assert report.ok and report.execution_count == 72
    assert calls == []


def test_brute_force_tally_walks_the_executions_once_without_keeping_them(
    monkeypatch,
):
    table = _independent_table(random.Random(0), 3)
    scheme = emulate_private_subset(SPERNER3, [0, 1, 2], table)
    calls = []
    most_alive = 0

    reference = _reference_executions

    def watched(walked):
        nonlocal most_alive
        calls.append(walked)
        refs = []
        for record in reference(walked):
            refs.append(weakref.ref(record))
            most_alive = max(most_alive, sum(ref() is not None for ref in refs))
            yield record

    monkeypatch.setattr(sys.modules[__name__], "_reference_executions", watched)
    tally = _brute_force_tally(scheme)
    assert calls == [scheme]
    assert most_alive <= 2
    assert sum(sum(views.values()) for views in tally[0].values()) == 72


def _scheme_on_identity(k, alphabets, table=None):
    return ChannelScheme(
        q=2,
        structure=_identity(k),
        alphabets=alphabets,
        slots=(),
        table=_reveal_to_first(k) if table is None else table,
    )


def _shield_a_covered_receiver():
    builder = sharing._SchemeBuilder(2, _identity(1), _reveal_to_first(1))
    builder.add_bundle(0, audience={0})
    builder.shield(0)


def _verify_private(k, M=None, target=None, space=BIN):
    """Verify the scheme delivering the table to receiver 1 of k private
    channels against M, target and an instance over space."""
    scheme = emulate_private_subset(_identity(k), [0], _reveal_to_first(k))
    M = _identity(k) if M is None else M
    receivers = AdditiveUtility((ConstantUtility(Fraction(1)),) * M.k)
    prior = Prior(space, (Fraction(1, 2), Fraction(1, 2)))
    instance = PersuasionInstance(space, prior, M, receivers)
    verify_scheme(scheme, M, _reveal_to_first(k) if target is None else target, instance)


@pytest.mark.parametrize(
    "refuse, error, message",
    [
        (
            lambda: _scheme_on_identity(1, (None,), _reveal_to_first(2)),
            ReceiverCountMismatch,
            "table speaks of 2 receivers, structure of 1",
        ),
        (
            lambda: _scheme_on_identity(2, ((LO, HI),)),
            ValidationError,
            "one alphabet entry per receiver expected",
        ),
        (
            lambda: _scheme_on_identity(2, (None, (HI, LO))),
            ValidationError,
            "receiver 2: alphabet must be sorted and distinct",
        ),
        (
            lambda: _scheme_on_identity(2, ((LO, LO), None)),
            ValidationError,
            "receiver 1: alphabet must be sorted and distinct",
        ),
        (
            lambda: sharing._SchemeBuilder(
                2, CommunicationStructure(((1, 1), (0, 1))), _reveal_to_first(2)
            )._route(1, 0),
            NoKeyChannel,
            "no channel reaches receiver 2 past receiver 1",
        ),
        (
            _shield_a_covered_receiver,
            InvariantViolation,
            "receiver 1 is already covered; shielding would cut him off",
        ),
        (
            lambda: emulate_private_subset(_identity(2), [], _reveal_to_first(2)),
            ValidationError,
            "the target subset is empty",
        ),
        (
            lambda: emulate_private_subset(_identity(2), [2], _reveal_to_first(2)),
            ValidationError,
            "target subset names an unknown receiver",
        ),
        (
            lambda: emulate_private_subset(_identity(2), [0], _reveal_to_first(1)),
            ReceiverCountMismatch,
            "table speaks of 1 receivers, structure of 2",
        ),
        (
            lambda: transport_scheme(_identity(2), _identity(3), _reveal_to_first(3)),
            ReceiverCountMismatch,
            "cannot transport between 2 and 3 receivers",
        ),
        (
            lambda: transport_scheme(_identity(2), _identity(2), _reveal_to_first(1)),
            ReceiverCountMismatch,
            "table speaks of 1 receivers, structures of 2",
        ),
        (
            lambda: _verify_private(3, M=SPERNER3),
            ValidationError,
            "scheme was built for a different structure",
        ),
        (
            lambda: _verify_private(2, target=_reveal_to_first(3)),
            ReceiverCountMismatch,
            "target table speaks of 3 receivers, structure of 2",
        ),
        (
            lambda: _verify_private(2, space=StateSpace(("x", "y"))),
            StateSpaceMismatch,
            "scheme, target, and instance disagree on states",
        ),
    ],
    ids=[
        "scheme-table-receivers",
        "alphabet-count",
        "alphabet-unsorted",
        "alphabet-duplicated",
        "no-key-channel",
        "shield-covered",
        "empty-subset",
        "unknown-target",
        "emulate-table-receivers",
        "transport-receivers",
        "transport-table-receivers",
        "verify-structure",
        "verify-target-receivers",
        "verify-states",
    ],
)
def test_sharing_refusals_name_their_fault(refuse, error, message):
    """Each refusal in sharing.py that no other test reaches, with its
    message."""
    with pytest.raises(error) as refused:
        refuse()
    assert str(refused.value) == message
