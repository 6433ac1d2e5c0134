"""Reading and writing the JSON documents the toolkit trades in.

Every number that matters is a rational and travels as a "num/den"
string.  Writers are deterministic (sorted keys, fixed indentation) so
rerunning a command on the same input reproduces the same bytes, and
all writes go through a temp-file-then-rename so a crash never leaves a
half-written document behind.  Documents are rendered by io's own
renderer, byte-equal to sorted-key, indent-2 json.dumps, and streamed to
their file or to stdout in bounded chunks instead of as one string: about
a thousand pieces, or one block of up to 64 records of a list of dicts
rendered column by column by one %-format (stream_document).  Any other
list renders item by item, a list of ints or of strs by one join.
Within one document, readers parse each distinct label or rational
literal once, so copies of one label literal are one object, as in a
table from SignalingTable.from_signals, and writers format each label
object once (model._reader, model._writer).  The channel-scheme and
b-union converters import sharing and hardness when called, and the
table and marginal readers beliefs, so reading a structure imports none
of the three, nor forest, and reading a table only beliefs.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Mapping, Optional

from .dominance import NetworkGraph
from .errors import FileError, ValidationError
from .model import (
    CommunicationStructure,
    _array,
    _field,
    _integer,
    _object,
    _reader,
    _states_field,
    _structure_field,
    _writer,
    format_posterior,
    format_rational,
    parse_posterior,
    parse_rational,
)

if TYPE_CHECKING:
    from .beliefs import BeliefDistribution, SignalingTable
    from .forest import GridSolution
    from .hardness import BUnionInstance
    from .sharing import ChannelScheme

#: Executions listed in a channel-scheme file are capped; past this many
#: the remainder is summarized by an "executions_omitted" count.  The
#: symbolic part (slots, alphabets, table) always suffices to rebuild.
EXECUTION_DUMP_LIMIT = 20_000


# ---------------------------------------------------------------------------
# Plumbing


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        # strerror alone: str(exc) names the path a second time
        raise FileError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise FileError(f"{path} is not valid JSON: {exc}") from exc
    return doc


def render_document(doc: Mapping) -> str:
    """The bytes json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False) gives, plus a final newline: the chunks of
    stream_document joined once."""
    chunks: list[str] = []
    stream_document(doc, chunks.append)
    return "".join(chunks)


#: Pieces the renderer holds before it joins them and hands the chunk to
#: its sink; a bound on what a write keeps beside the document itself.
_CHUNK = 1024

#: Records of a list rendered by one %-format and handed on as one chunk:
#: 32 renders slower, and 128 holds more than a tenth of a large write.
_BLOCK = 64

_INT_ONLY, _STR_ONLY, _LIST_ONLY = frozenset({int}), frozenset({str}), frozenset({list})
_DICT_ONLY = frozenset({dict})


def stream_document(doc: Mapping, sink) -> None:
    """Hand the rendering of doc, in order, to sink (a str -> None
    callable) as chunks of bounded size.

    json.dumps with an indent runs CPython's pure-Python encoder; this
    renderer dispatches on the exact type of each value, writes strings
    with the C encode_basestring, and renders a list of plain ints or of
    strs with one join.  A list of exact dicts is cut into blocks of
    _BLOCK items; a block of flat records (dicts with the same str keys,
    each key's values all ints, all strs, or all lists of one length of
    such) is gathered column by column, one type check per column, and
    rendered as one string, one %-format of its records' template filled
    with their leaves, a template made once per shape per list.  Any
    other block, and any other list, renders item by item, so a list of
    int rows renders row by row, each row by one join.
    Values with no JSON form raise TypeError, and so do keys that are not
    str: no document has them, so they are not stringified after sorting
    as json.dumps would.  NaN and infinities raise ValueError, as under
    json.dumps(allow_nan=False), instead of leaving non-JSON tokens.  A
    refusal can come after earlier chunks have reached the sink.
    """
    out: list[str] = []
    _render(doc, "\n", out, sink)
    out.append("\n")
    sink("".join(out))


def _columns(block):
    """The shape and leaves of a block of exact dicts that one %-template
    renders, gathered column by column: records with the same exact str
    keys, each column all ints, all strs, or all lists of one length
    whose items are all ints, all strs, or int rows of the same lengths
    in every record.  The shape is (dict, (key, shape) pairs in key
    order), a pair's shape int or str, (int, n) or (str, n) for a list of
    n ints or strs, or (list, lengths) for a list of int rows; the leaves
    (ints, and strs encoded) come record by record.  None for any other
    block."""
    if set(map(type, chain(*block))) != _STR_ONLY:
        return None
    keys = sorted(block[0])
    count = len(block)
    if set(map(len, block)) != {len(keys)}:
        return None
    pairs, columns, stride = [], [], 0
    for key in keys:
        try:
            leaves = [record[key] for record in block]
        except KeyError:
            return None
        kinds = set(map(type, leaves))
        if kinds == _INT_ONLY or kinds == _STR_ONLY:
            shape, width = (str if kinds == _STR_ONLY else int), 1
        elif kinds == _LIST_ONLY and len(set(map(len, leaves))) == 1:
            width = len(leaves[0])
            leaves = list(chain.from_iterable(leaves))
            kinds = set(map(type, leaves))
            if kinds == _LIST_ONLY:
                rows = list(map(len, leaves))
                leaves = list(chain.from_iterable(leaves))
                if rows != rows[:width] * count or not set(map(type, leaves)) <= _INT_ONLY:
                    return None
                shape, width = (list, tuple(rows[:width])), len(leaves) // count
            elif kinds <= _INT_ONLY or kinds == _STR_ONLY:
                shape = (str if kinds == _STR_ONLY else int), width
            else:
                return None
        else:
            return None
        if kinds == _STR_ONLY:
            leaves = list(map(encode_basestring, leaves))
        pairs.append((key, shape))
        columns.append((leaves, width))
        stride += width
    out = [None] * (stride * count)
    offset = 0
    for leaves, width in columns:
        for j in range(width):
            out[offset + j :: stride] = leaves[j::width]
        offset += width
    return (dict, tuple(pairs)), out


def _template(shape, newline: str) -> str:
    """The %-template that renders a value of this shape on a line that
    newline breaks to and indents; keys are text in it, their % doubled."""
    if shape is int or shape is str:
        return "%d" if shape is int else "%s"
    kind, size = shape
    if not size:
        return "[]"
    inner = newline + "  "
    if kind is dict:
        items = (
            encode_basestring(key).replace("%", "%%") + ": " + _template(item, inner)
            for key, item in size
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        cells = [_template((int, n), inner) for n in size]
    else:
        cells = [_template(kind, inner)] * size
    return "[" + inner + ("," + inner).join(cells) + newline + "]"


def _render(value, newline: str, out: list[str], sink) -> None:
    """Append value's rendering to out, handing out to sink joined and
    emptied whenever it passes _CHUNK pieces between two items, and
    after each block of records rendered by one %-format; newline is a
    line break plus the indent of the line value starts on."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        out += ("{", inner)
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
            if i:
                out.append(comma)
            out += (encode_basestring(key), ": ")
            item = value[key]
            item_kind = type(item)
            if item_kind is str:
                out.append(encode_basestring(item))
            elif item_kind is int:
                out.append(int.__repr__(item))
            else:
                _render(item, inner, out, sink)
            if len(out) > _CHUNK:
                sink("".join(out))
                out.clear()
        out += (newline, "}")
    elif kind is list or isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        kinds = set(map(type, value))
        if kinds == _INT_ONLY:
            out += ("[", inner, comma.join(map(int.__repr__, value)), newline, "]")
        elif kinds == _STR_ONLY:
            out += ("[", inner, comma.join(map(encode_basestring, value)), newline, "]")
        else:
            out += ("[", inner)
            templates: dict = {}  # by record shape
            records = kinds == _DICT_ONLY  # only these are cut into blocks and tried
            for start in range(0, len(value), _BLOCK if records else len(value)):
                block = value[start : start + _BLOCK] if records else value
                columns = records and _columns(block)
                if columns:
                    shape, leaves = columns
                    template = templates.get(shape)
                    if template is None:
                        template = templates[shape] = _template(shape, inner)
                    if start:
                        out.append(comma)
                    out.append(comma.join([template] * len(block)) % tuple(leaves))
                    sink("".join(out))
                    out.clear()
                    continue
                for i, item in enumerate(block, start):
                    if i:
                        out.append(comma)
                    _render(item, inner, out, sink)
                    if len(out) > _CHUNK:
                        sink("".join(out))
                        out.clear()
            out += (newline, "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"float {value!r} has no JSON form")
        out.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_document(path, doc: Mapping) -> None:
    """Atomic write: stream the rendering into a sibling temp file, then
    rename over; a refusal mid-render leaves path as it was.  A replaced
    document keeps its mode, and a new one gets 0o666 less the umask,
    applied by the kernel as for open(), never by changing the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            mode = None
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                if mode is not None:
                    os.chmod(tmp, mode)
                stream_document(doc, handle.write)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror alone: exc may name the temp file, which differs on every run
        raise FileError(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Structures and graphs


def structure_to_doc(structure: CommunicationStructure) -> dict:
    return {
        "k": structure.k,
        "n": structure.n,
        "structure": [list(row) for row in structure.matrix],
    }


def structure_from_doc(doc: Mapping) -> CommunicationStructure:
    """Accepts any document carrying a "structure" field, so instance
    files double as structure files for the comparison commands.  A "k"
    or "n" beside it must be the matrix's receiver or channel count."""
    what = "structure document"
    structure = _structure_field(doc, what)
    for key, count, counted in (("k", structure.k, "receivers"), ("n", structure.n, "channels")):
        if key in doc and _field(doc, key, what, _integer) != count:
            raise ValidationError(
                f"{what} field {key!r} is {doc[key]!r}, but its matrix has {count} {counted}"
            )
    return structure


def graph_from_doc(doc: Mapping) -> NetworkGraph:
    """Network file: vertex count k and an array of 1-based edge pairs."""
    k = _field(doc, "k", "network", _integer)
    edges = set()
    for edge in _field(doc, "edges", "network", _array):
        ends = [_integer(v, "a network edge end") for v in _array(edge, "a network edge")]
        if len(ends) != 2 or not all(1 <= v <= k for v in ends):
            raise ValidationError(f"network edge {edge} is not a pair of vertices in 1..{k}")
        edges.add(frozenset(v - 1 for v in ends))
    return NetworkGraph(k=k, edges=frozenset(edges))


# ---------------------------------------------------------------------------
# Signaling tables and solved schemes


def table_to_doc(table: SignalingTable) -> dict:
    label = _writer(format_posterior)  # equal labels are usually one object
    return {
        "states": list(table.space.states),
        "profiles": [list(map(label, profile)) for profile in table.profiles],
        "rows": {
            state: [format_rational(v) for v in table.rows[state]]
            for state in table.space.states
        },
    }


def table_from_doc(doc: Mapping) -> SignalingTable:
    """The table a document holds; copies of one label literal are one
    label object, as in a table built by SignalingTable.from_signals."""
    from .beliefs import SignalingTable

    space = _states_field(doc, "table")
    label, entry = _reader(parse_posterior), _reader(parse_rational)
    profiles = tuple(
        tuple(map(label, _array(profile, "table profile")))
        for profile in _field(doc, "profiles", "table", _array)
    )
    rows = {
        state: tuple(map(entry, _array(vec, f"table row {state!r}")))
        for state, vec in _field(doc, "rows", "table", _object).items()
    }
    return SignalingTable(space=space, profiles=profiles, rows=rows)


def _marginal_to_doc(dist: BeliefDistribution, label) -> list:
    return [
        {"point": label(p), "mass": format_rational(m)}
        for p, m in zip(dist.points, dist.masses)
    ]


def _marginal_from_doc(entries) -> BeliefDistribution:
    from .beliefs import BeliefDistribution

    point, mass = _reader(parse_posterior), _reader(parse_rational)
    return BeliefDistribution.from_pairs(
        (
            point(_field(entry, "point", "marginal entry")),
            mass(_field(entry, "mass", "marginal entry")),
        )
        for entry in _array(entries, "marginal")
    )


@dataclass(frozen=True)
class SchemeDocument:
    """The solved-scheme file: grid step, objective, the table itself,
    and the per-receiver belief marginals for inspection."""

    step: Fraction
    objective: Fraction
    table: SignalingTable
    marginals: Optional[tuple[BeliefDistribution, ...]]


def scheme_to_doc(solution: GridSolution, table: SignalingTable) -> dict:
    label = _writer(format_posterior)  # the marginals share label objects
    return {
        "step": format_rational(solution.step),
        "objective": format_rational(solution.objective),
        "table": table_to_doc(table),
        "marginals": [_marginal_to_doc(d, label) for d in solution.marginals],
    }


def scheme_from_doc(doc: Mapping) -> SchemeDocument:
    step = parse_rational(_field(doc, "step", "scheme"))
    marginals = None
    if doc.get("marginals") is not None:
        marginals = tuple(map(_marginal_from_doc, _field(doc, "marginals", "scheme", _array)))
    return SchemeDocument(
        step=step,
        objective=parse_rational(_field(doc, "objective", "scheme")),
        table=table_from_doc(_field(doc, "table", "scheme")),
        marginals=marginals,
    )


# ---------------------------------------------------------------------------
# Channel schemes (secret-shared emissions)


def channel_scheme_to_doc(scheme: ChannelScheme) -> dict:
    """Serialize the wire layout plus a (possibly capped) execution
    listing.  Receivers, channels, and key ids are 1-based in files."""
    from .sharing import _branch_runs, execution_count

    alphabets = {}
    label = _writer(format_posterior)  # alphabets share label objects
    for i, alphabet in enumerate(scheme.alphabets):
        if alphabet is not None:
            alphabets[str(i + 1)] = list(map(label, alphabet))
    slots = [
        {
            "channel": slot.channel + 1,
            "owner": None if slot.owner is None else slot.owner + 1,
            "keys": [key + 1 for key in slot.keys],
        }
        for slot in scheme.slots
    ]
    executions: dict[str, list] = {state: [] for state in scheme.table.space.states}
    listed = 0
    for state, branch, probability, run in _branch_runs(scheme):
        if listed == EXECUTION_DUMP_LIMIT:
            break
        text = format_rational(probability)
        records = [
            {
                "branch": branch + 1,
                "keys": list(keys),
                "probability": text,
                "channels": [list(symbols) for symbols in channels],
            }
            for keys, channels in islice(run, EXECUTION_DUMP_LIMIT - listed)
        ]
        executions[state] += records
        listed += len(records)
    omitted = execution_count(scheme) - listed
    doc = {
        "q": scheme.q,
        "structure": structure_to_doc(scheme.structure),
        "covered": sorted(i + 1 for i in scheme.covered),
        "key_count": scheme.key_count,
        "alphabets": alphabets,
        "slots": slots,
        "table": table_to_doc(scheme.table),
        "executions": executions,
    }
    if omitted:
        doc["executions_omitted"] = omitted
    return doc


def channel_scheme_from_doc(doc: Mapping) -> ChannelScheme:
    """Rebuild a scheme from its symbolic part; the execution listing is
    advisory output and is rederived, never trusted.  Copies of one label
    literal across the alphabets are one object."""
    from .sharing import ChannelScheme, Slot

    what = "channel scheme"
    q = _field(doc, "q", what, _integer)
    structure = structure_from_doc(_field(doc, "structure", what))
    alphabets: list[Optional[tuple]] = [None] * structure.k
    label = _reader(parse_posterior)
    for key, labels in _field(doc, "alphabets", what, _object).items():
        i = _integer(key, "alphabet receiver") - 1
        if not 0 <= i < structure.k:
            raise ValidationError(f"alphabet for unknown receiver {key}")
        if alphabets[i] is not None:
            raise ValidationError(f"alphabet for receiver {i + 1} given twice")
        alphabets[i] = tuple(map(label, _array(labels, f"alphabet {key}")))
    covered = {_integer(i, "covered receiver") for i in _field(doc, "covered", what, _array)}
    if covered != {i + 1 for i, alphabet in enumerate(alphabets) if alphabet is not None}:
        raise ValidationError("covered receivers must be exactly those with an alphabet")
    slots = []
    for entry in _field(doc, "slots", what, _array):
        owner = _field(entry, "owner", "slot")
        slots.append(
            Slot(
                channel=_field(entry, "channel", "slot", _integer) - 1,
                owner=None if owner is None else _integer(owner, "slot field 'owner'") - 1,
                keys=tuple(
                    _integer(key, "slot key") - 1 for key in _field(entry, "keys", "slot", _array)
                ),
            )
        )
    scheme = ChannelScheme(
        q=q,
        structure=structure,
        alphabets=tuple(alphabets),
        slots=tuple(slots),
        table=table_from_doc(_field(doc, "table", what)),
    )
    if (count := _field(doc, "key_count", what, _integer)) != scheme.key_count:
        raise ValidationError(
            f"{what} field 'key_count' is {count}, "
            f"but its bare key slot count is {scheme.key_count}"
        )
    return scheme


# ---------------------------------------------------------------------------
# Minimum b-union instances


def bunion_to_doc(inst: BUnionInstance) -> dict:
    return {
        "w": inst.w,
        "sets": [sorted(s) for s in inst.sets],
        "b": inst.b,
    }


def bunion_from_doc(doc: Mapping) -> BUnionInstance:
    from .hardness import BUnionInstance

    return BUnionInstance(
        w=_field(doc, "w", "b-union", _integer),
        sets=tuple(
            frozenset(_integer(e, "a b-union set element") for e in _array(s, "a b-union set"))
            for s in _field(doc, "sets", "b-union", _array)
        ),
        b=_field(doc, "b", "b-union", _integer),
    )
