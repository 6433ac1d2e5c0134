"""render_document against json.dumps, the renderer it replaced: the same
text for every document the command line writes and for seeded random
documents, and the same refusals for values with no JSON form.  Then the
streamed write, and the readers against every single mutation of a valid
document."""

import hashlib
import json
import math
import os
import random
import stat
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from mcpersuasion import io as mc_io
from mcpersuasion.cli import build_parser
from mcpersuasion.errors import ValidationError
from mcpersuasion.io import (
    bunion_from_doc,
    channel_scheme_from_doc,
    channel_scheme_to_doc,
    graph_from_doc,
    render_document,
    scheme_from_doc,
    stream_document,
    structure_from_doc,
    table_from_doc,
    table_to_doc,
    write_document,
)
from mcpersuasion.dominance import sperner_structure
from mcpersuasion.model import instance_to_doc, validate_instance
from mcpersuasion.sharing import emulate_private_subset, transport_scheme
from test_cli import FLAGSHIP, REVEAL3, SINGLE, SPERNER3_INSTANCE, sperner_share_inputs
from test_sharing import _identity, _independent_table

DATA = Path(__file__).parent / "data"


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def assert_renders_like_json(doc):
    assert render_document(doc) == reference(doc)


# ---------------------------------------------------------------------------
# Every document kind the command line writes


def handler_doc(*argv):
    """The document a command hands to the renderer, before rendering."""
    args = build_parser().parse_args(list(argv))
    doc, _ = args.handler(args)
    return doc


@pytest.fixture
def inputs(tmp_path):
    def put(name, doc):
        path = tmp_path / name
        write_document(path, doc)
        return str(path)

    return {
        "sperner3": put("sperner3.json", SPERNER3_INSTANCE),
        "reveal3": put("reveal3.json", REVEAL3),
        "single": put("single.json", SINGLE),
        "flagship": put("flagship.json", FLAGSHIP),
        "cycle": put("cycle.json", {"k": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}),
        "chain2": str(DATA / "chain2.instance.json"),
        "star3": str(DATA / "star3.instance.json"),
        "dir": tmp_path,
        "put": put,
    }


def test_structure_and_report_documents(inputs):
    for argv in (
        ("analyze", inputs["chain2"]),
        ("analyze", inputs["star3"]),
        ("compare", inputs["star3"], inputs["sperner3"]),
        ("sperner", "6"),
        ("netstruct", inputs["cycle"]),
        ("bunion", inputs["flagship"]),
    ):
        assert_renders_like_json(handler_doc(*argv))


def test_instance_table_and_reduce_documents(inputs):
    for name in ("chain2", "star3", "single", "sperner3"):
        with open(inputs[name], encoding="utf-8") as handle:
            assert_renders_like_json(instance_to_doc(validate_instance(json.load(handle))))
    assert_renders_like_json(table_to_doc(table_from_doc(REVEAL3)))
    inline = handler_doc("reduce", inputs["flagship"], "--decimal")
    assert isinstance(inline["value_decimal"], float)
    assert_renders_like_json(inline)
    # reduce --out writes the inline document's two halves
    assert_renders_like_json(inline["instance"])
    assert_renders_like_json(inline["witness"])
    inst, wit = inputs["dir"] / "inst.json", inputs["dir"] / "wit.json"
    assert_renders_like_json(handler_doc("reduce", inputs["flagship"], "--out", f"{inst},{wit}"))
    assert inst.read_text(encoding="utf-8") == reference(inline["instance"])
    assert wit.read_text(encoding="utf-8") == reference(inline["witness"])


def test_solve_and_verify_scheme_documents(inputs):
    plain = handler_doc("solve", inputs["chain2"], "--epsilon", "1/10")
    decimal = handler_doc("solve", inputs["chain2"], "--epsilon", "1/10", "--decimal")
    assert isinstance(decimal["objective_decimal"], float)
    for doc in (plain, decimal, handler_doc("solve", inputs["single"], "--epsilon", "1/20")):
        assert_renders_like_json(doc)
    scheme = str(inputs["dir"] / "scheme.json")
    write_document(scheme, decimal)
    assert_renders_like_json(handler_doc("verify-scheme", inputs["chain2"], scheme, "--decimal"))


def test_channel_scheme_documents(inputs, monkeypatch):
    listed = handler_doc("share", inputs["sperner3"], inputs["reveal3"], "--subset", "1,2,3")
    assert "executions_omitted" not in listed
    assert_renders_like_json(listed)
    path = str(inputs["dir"] / "cs.json")
    write_document(path, listed)
    report = handler_doc("verify-share", path, inputs["sperner3"], inputs["reveal3"])
    assert report["ok"] is True
    assert_renders_like_json(report)

    instance, table = sperner_share_inputs(inputs["put"], 4)
    wide = handler_doc("share", instance, table, "--subset", "1,2,3,4", "--q", "3")
    assert len(wide["executions"]["low"]) == 2187
    assert_renders_like_json(wide)

    monkeypatch.setattr(mc_io, "EXECUTION_DUMP_LIMIT", 5)
    capped = handler_doc(
        "share", inputs["sperner3"], inputs["reveal3"], "--subset", "1", "--q", "3"
    )
    assert capped["executions_omitted"] == 1
    assert_renders_like_json(capped)


def test_transport_document_is_pinned(tmp_path):
    """The written transport of a seeded table from private channels to
    sperner_structure(4) at q = 2, whose channels carry 3, 4 and 5
    slots: sha256 recorded before listed records were rendered from
    templates."""
    table = _independent_table(random.Random(25), 4)
    doc = channel_scheme_to_doc(transport_scheme(_identity(4), sperner_structure(4), table, q=2))
    listing = doc["executions"]["0"] + doc["executions"]["1"]
    assert len(listing) == 3072 and "executions_omitted" not in doc
    assert {len(channel) for record in listing for channel in record["channels"]} == {3, 4, 5}
    path = tmp_path / "transport.json"
    write_document(path, doc)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5186f50b140c1100b8d121b3587578ee9ce5bc19f8e3530514c1f48a8ca4f149"
    )


# ---------------------------------------------------------------------------
# Seeded random documents


STRINGS = (
    "",
    "plain",
    'a "quoted" word',
    "back\\slash",
    "tab\tline\ncarriage\rfeed\fbell\b",
    "\x00\x01\x1f\x7f",
    "line\u2028paragraph\u2029",
    "héllo wörld",
    "日本語",
    "\U0001f600 astral",
    "1/3",
    "-0",
)

SCALARS = (
    None,
    True,
    False,
    0,
    1,
    -1,
    -(10**40) - 7,
    10**40 + 3,
    0.0,
    -0.0,
    0.1,
    -2.5e-10,
    1e308,
    -1e308,
    5e-324,
    *STRINGS,
)


def random_scalar(rng):
    roll = rng.random()
    if roll < 0.2:
        return rng.randint(-(10**41), 10**41)
    if roll < 0.3:
        return rng.uniform(-1e6, 1e6)
    return rng.choice(SCALARS)


def random_key(rng):
    return rng.choice(STRINGS) + rng.choice(("", "k", "é", str(rng.randrange(100))))


def random_value(rng, depth):
    """Scalars, empty containers, flat int/str lists (the single-join
    path), mixed lists with bools beside 0 and 1, tuples and dicts."""
    if depth >= 5 or rng.random() < 0.3:
        return random_scalar(rng)
    n = rng.randrange(6)
    kind = rng.choice(("empty", "ints", "strs", "bools", "list", "tuple", "dict", "dict"))
    if kind == "empty":
        return rng.choice(([], (), {}))
    if kind == "ints":
        return [rng.choice((0, 1, -1, 10**40, rng.randrange(-999, 999))) for _ in range(n + 1)]
    if kind == "strs":
        return [rng.choice(STRINGS) for _ in range(n + 1)]
    if kind == "bools":
        return [rng.choice((True, False, 0, 1)) for _ in range(n + 1)]
    items = [random_value(rng, depth + 1) for _ in range(n)]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {random_key(rng): item for item in items}


def random_document(rng):
    return {random_key(rng): random_value(rng, 1) for _ in range(rng.randrange(4))}


def test_random_documents_render_like_json():
    rng = random.Random(20261018)
    for _ in range(500):
        assert_renders_like_json(random_document(rng))


def test_every_special_value_at_every_depth():
    nested = {"scalars": list(SCALARS), "empties": [[], (), {}]}
    for _ in range(6):
        assert_renders_like_json(nested)
        nested = {"at": nested, "list": [nested, [], {}, ()], "keys": {k: 0 for k in STRINGS}}
    assert_renders_like_json({})
    assert_renders_like_json({"": [True, 1, False, 0], "ints": (1, 2), "tuple": ((),)})


class Text(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


class Row(list):
    pass


class Record(dict):
    pass


def test_subclasses_render_like_their_base_type():
    doc = {
        "str": Text("é"),
        "int": Count(7),
        "float": Ratio(0.5),
        "list": Row([1, Count(2), Text("x")]),
        "ints": Row([1, 2]),
        "dict": Record(b=Record(a=[Row([1])]), a=1),
        "rows": [Row([1]), [2]],
        Text("key"): [Count(1)],
    }
    assert_renders_like_json(doc)
    assert_renders_like_json(Record(doc))


def test_lists_of_int_lists_render_like_json():
    """The inline path for lists of int-only lists, and the near misses
    that must take the general path: bools, floats, tuples, deeper lists."""
    cases = [
        [[]],
        [[], [0]],
        [[1, 2], [3], [-(10**40)]],
        [[True, 1]],
        [[1], [0.5]],
        [[1], (2,)],
        [(1,), (2,)],
        [[1], "x"],
        [[[1]], [2]],
    ]
    rng = random.Random(7)
    for _ in range(200):
        lengths = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        cases.append([[rng.randrange(-3, 4) for _ in range(n)] for n in lengths])
    for rows in cases:
        assert_renders_like_json({"rows": rows, "nested": [rows, {"r": rows}, [rows]]})


@pytest.mark.parametrize("chunk", [0, 1, 5])
def test_small_chunks_join_to_the_same_text(monkeypatch, chunk):
    monkeypatch.setattr(mc_io, "_CHUNK", chunk)
    rng = random.Random(chunk)
    counts = []
    for _ in range(200):
        doc = random_document(rng)
        chunks = []
        stream_document(doc, chunks.append)
        assert "".join(chunks) == reference(doc)
        counts.append(len(chunks))
    assert max(counts) > 10


# ---------------------------------------------------------------------------
# Listings: lists of records, rendered in blocks of _BLOCK records, each
# block of flat records of one shape by one %-format


class Level(IntEnum):
    LOW = 0
    HIGH = 1


#: Keys and str leaves with the characters a %-template or the encoder
#: must not take as its own: % signs, quotes, escapes, non-ASCII.
LISTING_TEXT = (
    "branch",
    "channels",
    "keys",
    "probability",
    "",
    "%",
    "%d",
    "%s",
    "100%",
    "%(x)s",
    'a "quoted" word',
    "back\\slash\n",
    "héllo",
    "日本語",
    "\U0001f600",
)


def _ints(rng, n):
    return [rng.choice((0, 1, -1, 10**40, rng.randrange(-99, 99))) for _ in range(n)]


#: Per flat kind, a maker of values of one shape: (rng, n) -> value.
FLAT = (
    lambda rng, n: rng.randrange(-(10**20), 10**20),
    lambda rng, n: rng.choice(LISTING_TEXT),
    _ints,
    lambda rng, n: [rng.choice(LISTING_TEXT) for _ in range(n)],
    lambda rng, n: [_ints(rng, (n + i) % 4) for i in range(n)],
)

#: Values that make a record not flat: bools and IntEnum values, inside
#: int lists too, int and str subclasses, floats, nested and empty dicts,
#: None, tuples and deeper lists.
NOT_FLAT = (
    True,
    Level.HIGH,
    [1, True],
    [Level.LOW, 2],
    [[1], [False]],
    [[Level.HIGH]],
    Count(3),
    Text("x"),
    [Text("x")],
    0.5,
    [0.5],
    {"a": 1},
    {},
    None,
    (1, 2),
    [[[1]]],
    [[1], "x"],
)


def random_listing(rng):
    """Runs of records of one shape (key set, value kinds, list lengths),
    the shape changing from run to run and now and then within one, with
    records that are not flat, and items that are not dicts, mixed in."""
    listing = []
    for _ in range(rng.randrange(1, 5)):
        keys = rng.sample(LISTING_TEXT, rng.randrange(1, 5))
        kinds = [(rng.choice(FLAT), rng.randrange(4)) for _ in keys]
        for _ in range(rng.randrange(1, 40)):
            if rng.random() < 0.1:
                kinds[rng.randrange(len(kinds))] = (rng.choice(FLAT), rng.randrange(4))
            record = {key: make(rng, n) for key, (make, n) in zip(keys, kinds)}
            roll = rng.random()
            if roll < 0.05:
                record[rng.choice(keys)] = rng.choice(NOT_FLAT)
            elif roll < 0.07:
                record = rng.choice(({}, Record(record), [record], 7))
            listing.append(record)
    return listing


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_listings_render_like_json(monkeypatch, chunk):
    """Seeded listings against json.dumps, whole and streamed, with the
    chunk bound as it is and at 1 and 7 pieces."""
    if chunk is not None:
        monkeypatch.setattr(mc_io, "_CHUNK", chunk)
    rng = random.Random(20261019)
    accepted = refused = 0
    for _ in range(150):
        doc = {"executions": {"high": random_listing(rng), "low": random_listing(rng)}}
        doc["nested"] = [random_listing(rng), {"at": random_listing(rng)}]
        chunks = []
        stream_document(doc, chunks.append)
        assert "".join(chunks) == reference(doc)
        assert render_document(doc) == reference(doc)
        listing = doc["executions"]["high"]
        for start in range(0, len(listing), mc_io._BLOCK):
            if mc_io._columns(listing[start : start + mc_io._BLOCK]) is None:
                refused += 1
            else:
                accepted += 1
    assert accepted and refused


def grown(value):
    """A list value with one more 0 at its end, in its last row if it has
    rows; any other value as it is."""
    if type(value) is not list:
        return value
    if value and type(value[-1]) is list:
        return value[:-1] + [value[-1] + [0]]
    return value + [0]


def planted_records(record, key):
    """Records to plant among copies of a flat record: (record, None) for
    one of another shape, which renders like json.dumps, and (record,
    error) for one with no JSON form and the error json.dumps raises."""
    others = [
        *({**record, key: value} for value in NOT_FLAT),
        {k: v for k, v in record.items() if k != key},
        {**record, "%extra": 1},
        {**record, key: [record[key]]},
        Record(record),
        [record],
        7,
        {},
    ]
    refused = [
        ({**record, key: math.nan}, ValueError),
        ({**record, key: [0, Fraction(1, 2)]}, TypeError),
        ({**record, 1: 0}, TypeError),
    ]
    return [(other, None) for other in others] + refused


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_uniform_listings_with_one_odd_record(monkeypatch, chunk):
    """Seeded listings of 1-300 records of one shape, every block of them
    rendered by one %-format, against json.dumps as they are and with one
    odd record planted at 0, 63, 64, 127 or last, the edges of the first
    two blocks, or with one record's lists grown at 64: whole and
    streamed, with the chunk bound as it is and at 1 and 7 pieces."""
    if chunk is not None:
        monkeypatch.setattr(mc_io, "_CHUNK", chunk)
    rng = random.Random(20261020)
    sizes = [1, 63, 64, 65, 127, 128, 129, 300] + [rng.randint(1, 300) for _ in range(8)]
    for size in sizes:
        keys = rng.sample(LISTING_TEXT, rng.randrange(1, 5))
        kinds = [(rng.choice(FLAT), rng.randrange(4)) for _ in keys]
        listing = [{key: make(rng, n) for key, (make, n) in zip(keys, kinds)} for _ in range(size)]
        blocks = range(0, size, mc_io._BLOCK)
        assert all(mc_io._columns(listing[i : i + mc_io._BLOCK]) is not None for i in blocks)
        cases = [(listing, None)]
        for at in sorted({0, 63, 64, 127, size - 1} & set(range(size))):
            odd, refusal = rng.choice(planted_records(listing[at], rng.choice(keys)))
            cases.append((listing[:at] + [odd] + listing[at + 1 :], refusal))
        # every list one int longer, a row of int rows among them
        at = min(64, size - 1)
        longer = {key: grown(value) for key, value in listing[at].items()}
        cases.append((listing[:at] + [longer] + listing[at + 1 :], None))
        for records, refusal in cases:
            doc = {"executions": {"low": records}, "z": [1]}
            chunks = []
            if refusal is None:
                stream_document(doc, chunks.append)
                assert "".join(chunks) == reference(doc)
                assert render_document(doc) == reference(doc)
            else:
                with pytest.raises(refusal):
                    json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
                with pytest.raises(refusal):
                    stream_document(doc, chunks.append)


def test_share_listings_render_block_by_block(inputs):
    """Every block of the transport listing (k = 4, q = 2) and of the
    sperner 5 share listing at q = 3 is rendered by one %-format."""
    table = _independent_table(random.Random(25), 4)
    transport = channel_scheme_to_doc(
        transport_scheme(_identity(4), sperner_structure(4), table, q=2)
    )
    instance, table = sperner_share_inputs(inputs["put"], 5)
    share = handler_doc("share", instance, table, "--subset", "1,2,3,4,5", "--q", "3")
    for doc, records in ((transport, 3072), (share, 20_000)):
        blocks = [
            listing[i : i + mc_io._BLOCK]
            for listing in doc["executions"].values()
            for i in range(0, len(listing), mc_io._BLOCK)
        ]
        assert sum(map(len, blocks)) == records
        assert all(mc_io._columns(block) is not None for block in blocks)


@pytest.mark.parametrize(
    "record, refusal",
    [
        ({"branch": 1, "probability": math.nan}, ValueError),
        ({"branch": 1, "channels": [[0, 1], [math.inf]]}, ValueError),
        ({"branch": 1, 2: [0, 1]}, TypeError),
        ({1: 0, 2: [0, 1]}, TypeError),
        ({"branch": 1, "keys": [0, Fraction(1, 2)]}, TypeError),
    ],
    ids=["nan", "inf-in-a-row", "mixed-keys", "int-keys", "fraction"],
)
def test_refusals_inside_listed_records(record, refusal):
    """A record that cannot be rendered, between flat records of one
    shape, is refused as it would be on its own: first, inside the first
    block, and at the start of the second block and inside the third."""
    flat = [{"branch": i, "keys": [i, 0], "probability": "1/3"} for i in range(200)]
    for listing in (
        flat[:20] + [record] + flat[20:50],
        [record] + flat[:50],
        flat[:64] + [record] + flat[64:],
        flat[:130] + [record] + flat[130:],
    ):
        with pytest.raises(refusal):
            render_document({"executions": {"low": listing}})
    with pytest.raises(refusal):
        render_document(record)


# ---------------------------------------------------------------------------
# Refusals


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 3), {1, 2}, b"bytes", object()],
    ids=["fraction", "set", "bytes", "object"],
)
def test_values_with_no_json_form_raise_type_error(value):
    for doc in ({"v": value}, {"v": [1, value]}, {"v": [{"w": [value]}]}):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            render_document(doc)


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)], ids=repr)
def test_keys_that_are_not_str_raise_type_error(key):
    for doc in ({key: 0}, {"outer": {key: 0}}, {"outer": [{key: [1]}]}):
        with pytest.raises(TypeError):
            render_document(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_floats_raise_value_error(value):
    with pytest.raises(ValueError):
        render_document({"v": [value]})


# ---------------------------------------------------------------------------
# The streamed write


@pytest.mark.parametrize(
    "value, refusal", [(Fraction(1, 3), TypeError), (math.nan, ValueError)], ids=["fraction", "nan"]
)
def test_refusal_mid_render_leaves_the_target_and_no_temp_file(tmp_path, value, refusal):
    target = tmp_path / "doc.json"
    write_document(target, {"old": [1, 2]})
    before = target.read_bytes()
    # "a" sorts first: its chunks reach the sink before "z" is refused
    doc = {"a": [{"i": i} for i in range(5 * mc_io._CHUNK)], "z": [value]}
    chunks = []
    with pytest.raises(refusal):
        stream_document(doc, chunks.append)
    assert chunks
    with pytest.raises(refusal):
        write_document(target, doc)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_write_holds_a_tenth_of_the_text_beside_the_document(tmp_path):
    """Writing never holds the whole text, its pieces or its encoding."""
    listing = [
        {
            "branch": i % 3 + 1,
            "channels": [[i % 3, (i + 1) % 3], [i % 2]] * 3,
            "keys": [i % 3, i % 5, i % 7],
            "label": f"{i}/" + "é" * 300,
        }
        for i in range(1200)
    ]
    doc = {"executions": {"high": listing, "low": listing}}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_document(path, doc)
        extra = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 2_000_000
    assert extra < size / 10
    assert path.read_text(encoding="utf-8") == render_document(doc)


def test_writing_the_largest_share_document_holds_a_tenth_beside_it(inputs):
    """The pinned 11.6 MB share document (sperner_structure(5), q = 3,
    its listing cut at EXECUTION_DUMP_LIMIT), under the bound the test
    above puts on synthetic records."""
    instance, table = sperner_share_inputs(inputs["put"], 5)
    doc = handler_doc("share", instance, table, "--subset", "1,2,3,4,5", "--q", "3")
    assert doc["executions_omitted"] == 98_098
    path = inputs["dir"] / "cs.json"
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_document(path, doc)
        extra = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 11_000_000
    assert extra < size / 10


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_documents_get_the_mode_open_would_give(tmp_path, umask):
    old = os.umask(umask)
    try:
        fresh, opened = tmp_path / "fresh.json", tmp_path / "opened.json"
        write_document(fresh, {"a": 1})
        with open(opened, "w"):
            pass
        # a replaced document keeps its mode, whatever the umask
        kept = {mode: tmp_path / f"kept-{mode:o}.json" for mode in (0o644, 0o600, 0o640)}
        for mode, path in kept.items():
            path.write_text("{}")
            os.chmod(path, mode)
            write_document(path, {"a": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(opened.stat().st_mode) == 0o666 & ~umask
    for mode, path in kept.items():
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == render_document({"a": 1})
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


def test_write_document_never_changes_the_umask(tmp_path, monkeypatch):
    """A new document and a replaced one are written without a call to
    os.umask, which would leave the umask 0 for a moment for every other
    thread of the process."""

    def umask(mask):
        raise AssertionError("write_document changed the umask")

    old = os.umask(0o022)
    os.umask(old)
    monkeypatch.setattr(os, "umask", umask)
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("{}")
    os.chmod(kept, 0o640)
    write_document(fresh, {"a": 1})
    write_document(kept, {"a": 2})
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~old
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == render_document({"a": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "kept.json"]


# ---------------------------------------------------------------------------
# Readers against malformed documents


MUTANTS = (5, 1.5, True, "x", None, [], {})


def mutations(node):
    """Every copy of node with one key or array item dropped, or with one
    node, node itself included, replaced by one of MUTANTS."""
    yield from MUTANTS
    if isinstance(node, dict):
        for key, child in node.items():
            yield {k: v for k, v in node.items() if k != key}
            for mutant in mutations(child):
                yield {**node, key: mutant}
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield node[:i] + node[i + 1 :]
            for mutant in mutations(child):
                yield node[:i] + [mutant] + node[i + 1 :]


EVERY_KIND = dict(
    SINGLE,
    structure=[[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1]],
    utilities={
        "kind": "additive",
        "receivers": [
            {"kind": "constant", "value": "1"},
            {"kind": "threshold", "state": "high", "cutoff": "1/2", "strict": True, "low": "-1"},
            {"kind": "point", "point": ["1/2", "1/2"], "value": "2", "otherwise": "1"},
            {"kind": "piecewise", "state": "low", "breakpoints": ["1/3"], "values": ["0", "1"]},
            {"kind": "linear", "coeffs": ["1", "-1"], "offset": "1/2"},
            {"kind": "table", "points": [["1", "0"], ["0", "1"]], "values": ["3", "1"]},
        ],
    },
    epsilon="1/10",
)

SUPERMAJORITY = dict(
    SINGLE,
    structure=[[1, 0], [0, 1]],
    utilities={
        "kind": "supermajority",
        "groups": [
            {
                "members": [1, 2],
                "weight": "3/2",
                "threshold": 1,
                "condition": {"op": "ge", "state": "high", "cutoff": "1/2"},
            }
        ],
    },
)

SCHEME = {
    "step": "1/2",
    "objective": "1",
    "table": {
        "states": ["low", "high"],
        "profiles": [[["0", "1"]], [["1", "0"]]],
        "rows": {"low": ["0", "1"], "high": ["1", "0"]},
    },
    "marginals": [[{"point": ["0", "1"], "mass": "1/2"}, {"point": ["1", "0"], "mass": "1/2"}]],
}


def channel_scheme_doc():
    """A share document without its execution listing, which the reader
    never looks at."""
    structure = structure_from_doc(SPERNER3_INSTANCE)
    doc = channel_scheme_to_doc(emulate_private_subset(structure, [0], table_from_doc(REVEAL3), 3))
    del doc["executions"]
    return doc


def names_that_are_not_strings():
    """An instance or table whose state names, or a state or op a utility
    names, hold a JSON value that is not a string but whose str() would
    be a valid name."""
    states = dict(SINGLE, states=[None, True], utilities=[{"kind": "constant", "value": "1"}])
    yield validate_instance, states
    threshold = SINGLE["utilities"][0]
    yield validate_instance, dict(SINGLE, states=["low", "5"], utilities=[dict(threshold, state=5)])
    group = SUPERMAJORITY["utilities"]["groups"][0]
    for condition in (
        dict(group["condition"], state=1),
        dict(group["condition"], op=["ge"]),
    ):
        utilities = {"kind": "supermajority", "groups": [dict(group, condition=condition)]}
        yield validate_instance, dict(SUPERMAJORITY, states=["low", "1"], utilities=utilities)
    yield table_from_doc, dict(REVEAL3, states=[0, 1], rows={"0": ["0", "1"], "1": ["1", "0"]})


@pytest.mark.parametrize("reader, doc", names_that_are_not_strings())
def test_names_that_are_not_strings_raise_validation_error(reader, doc):
    with pytest.raises(ValidationError, match="must be a string"):
        reader(doc)


@pytest.mark.parametrize(
    "reader, doc",
    [
        pytest.param(validate_instance, EVERY_KIND, id="instance-additive"),
        pytest.param(validate_instance, SUPERMAJORITY, id="instance-supermajority"),
        pytest.param(structure_from_doc, {"k": 2, "structure": [[1, 1], [0, 1]]}, id="structure"),
        pytest.param(graph_from_doc, {"k": 3, "edges": [[1, 2], [2, 3]]}, id="network"),
        pytest.param(table_from_doc, REVEAL3, id="table"),
        pytest.param(scheme_from_doc, SCHEME, id="scheme"),
        pytest.param(channel_scheme_from_doc, channel_scheme_doc(), id="channel-scheme"),
        pytest.param(bunion_from_doc, FLAGSHIP, id="b-union"),
    ],
)
def test_every_single_mutation_reads_or_raises_validation_error(reader, doc):
    reader(doc)
    refused = 0
    for mutant in mutations(doc):
        try:
            reader(mutant)
        except ValidationError:
            refused += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on {mutant!r}")
    assert refused
