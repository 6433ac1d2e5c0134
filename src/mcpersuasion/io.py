"""Reading and writing the JSON documents the toolkit trades in.

Every number that matters is a rational and travels as a "num/den"
string.  Writers are deterministic (sorted keys, fixed indentation) so
rerunning a command on the same input reproduces the same bytes, and
all writes go through a temp-file-then-rename so a crash never leaves a
half-written document behind.  Documents are rendered by io's own
renderer, byte-equal to sorted-key, indent-2 json.dumps.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring
from typing import Mapping, Optional

from .beliefs import BeliefDistribution
from .dominance import NetworkGraph
from .errors import FileError, ValidationError
from .forest import GridSolution, SignalingTable
from .hardness import BUnionInstance
from .model import (
    CommunicationStructure,
    StateSpace,
    _array,
    format_posterior,
    format_rational,
    parse_posterior,
    parse_rational,
)
from .sharing import (
    ChannelScheme,
    LabelAlphabet,
    Slot,
    enumerate_executions,
    execution_count,
)

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
        raise FileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileError(f"{path} must hold a JSON object at top level")
    return doc


def render_document(doc: Mapping) -> str:
    """The bytes json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False) gives, plus a final newline.

    json.dumps with an indent runs CPython's pure-Python encoder; this
    renderer appends pieces to one list and joins them once, and renders
    a list of plain ints or of strs with a single join.  Values with no
    JSON form raise TypeError, and so do keys that are not str: no
    document has them, so they are not stringified after sorting as
    json.dumps would.  NaN and infinities raise ValueError, as under
    json.dumps(allow_nan=False), instead of leaving non-JSON tokens.
    """
    pieces: list[str] = []
    _render(doc, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


_INT_ONLY, _STR_ONLY = frozenset({int}), frozenset({str})


def _render(value, newline: str, out: list[str]) -> None:
    """Append value's rendering to out; newline is a line break plus the
    indent of the line value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"float {value!r} has no JSON form")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
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
            for i, item in enumerate(value):
                if i:
                    out.append(comma)
                _render(item, inner, out)
            out += (newline, "]")
    elif isinstance(value, dict):
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
            _render(value[key], inner, out)
        out += (newline, "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_document(path, doc: Mapping) -> None:
    """Atomic write: render to a sibling temp file, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    text = render_document(doc)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def _require(doc: Mapping, keys, what: str) -> None:
    _object(doc, what)
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{what} document is missing field {key!r}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


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
    files double as structure files for the comparison commands."""
    _require(doc, ["structure"], "structure")
    try:
        rows = tuple(tuple(int(v) for v in row) for row in doc["structure"])
    except (TypeError, ValueError):
        raise ValidationError("structure rows must be arrays of 0/1") from None
    return CommunicationStructure(rows)


def graph_from_doc(doc: Mapping) -> NetworkGraph:
    """Network file: vertex count k and an array of 1-based edge pairs."""
    _require(doc, ["k", "edges"], "network")
    try:
        k = int(doc["k"])
        pairs = [(int(a), int(b)) for a, b in doc["edges"]]
    except (TypeError, ValueError):
        raise ValidationError("network edges must be pairs of integers") from None
    for a, b in pairs:
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValidationError(f"network edge [{a}, {b}] out of range 1..{k}")
    edges = frozenset(frozenset((a - 1, b - 1)) for a, b in pairs)
    return NetworkGraph(k=k, edges=edges)


# ---------------------------------------------------------------------------
# Signaling tables and solved schemes


def table_to_doc(table: SignalingTable) -> dict:
    return {
        "states": list(table.space.states),
        "profiles": [
            [format_posterior(label) for label in profile] for profile in table.profiles
        ],
        "rows": {
            state: [format_rational(v) for v in table.rows[state]]
            for state in table.space.states
        },
    }


def table_from_doc(doc: Mapping) -> SignalingTable:
    _require(doc, ["states", "profiles", "rows"], "table")
    space = StateSpace(tuple(str(s) for s in _array(doc["states"], "table field 'states'")))
    profiles = tuple(
        tuple(parse_posterior(label) for label in _array(profile, "table profile"))
        for profile in _array(doc["profiles"], "table field 'profiles'")
    )
    rows = {
        str(state): tuple(parse_rational(v) for v in _array(vec, f"table row {state!r}"))
        for state, vec in _object(doc["rows"], "table field 'rows'").items()
    }
    return SignalingTable(space=space, profiles=profiles, rows=rows)


def _marginal_to_doc(dist: BeliefDistribution) -> list:
    return [
        {"point": format_posterior(p), "mass": format_rational(m)}
        for p, m in zip(dist.points, dist.masses)
    ]


def _marginal_from_doc(entries) -> BeliefDistribution:
    pairs = []
    for entry in _array(entries, "marginal"):
        _require(entry, ["point", "mass"], "marginal")
        pairs.append((parse_posterior(entry["point"]), parse_rational(entry["mass"])))
    return BeliefDistribution.from_pairs(pairs)


@dataclass(frozen=True)
class SchemeDocument:
    """The solved-scheme file: grid step, objective, the table itself,
    and the per-receiver belief marginals for inspection."""

    step: Fraction
    objective: Fraction
    table: SignalingTable
    marginals: Optional[tuple[BeliefDistribution, ...]]


def scheme_to_doc(solution: GridSolution, table: SignalingTable) -> dict:
    return {
        "step": format_rational(solution.step),
        "objective": format_rational(solution.objective),
        "table": table_to_doc(table),
        "marginals": [_marginal_to_doc(d) for d in solution.marginals],
    }


def scheme_from_doc(doc: Mapping) -> SchemeDocument:
    _require(doc, ["step", "objective", "table"], "scheme")
    marginals = None
    if doc.get("marginals") is not None:
        marginals = tuple(
            _marginal_from_doc(m) for m in _array(doc["marginals"], "scheme field 'marginals'")
        )
    return SchemeDocument(
        step=parse_rational(doc["step"]),
        objective=parse_rational(doc["objective"]),
        table=table_from_doc(doc["table"]),
        marginals=marginals,
    )


# ---------------------------------------------------------------------------
# Channel schemes (secret-shared emissions)


def channel_scheme_to_doc(scheme: ChannelScheme) -> dict:
    """Serialize the wire layout plus a (possibly capped) execution
    listing.  Receivers, channels, and key ids are 1-based in files."""
    alphabets = {}
    for i, alphabet in enumerate(scheme.alphabets):
        if alphabet is not None:
            alphabets[str(i + 1)] = [format_posterior(l) for l in alphabet.labels]
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
    event = probability = None
    for record in islice(enumerate_executions(scheme), EXECUTION_DUMP_LIMIT):
        if (record.state, record.branch) != event:
            # one probability per branch: format it once
            event = (record.state, record.branch)
            probability = format_rational(record.probability)
        executions[record.state].append(
            {
                "branch": record.branch + 1,
                "keys": list(record.keys),
                "probability": probability,
                "channels": [list(symbols) for symbols in record.channels],
            }
        )
        listed += 1
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
    advisory output and is rederived, never trusted."""
    _require(
        doc,
        ["q", "structure", "covered", "key_count", "alphabets", "slots", "table"],
        "channel scheme",
    )
    try:
        q = int(doc["q"])
        key_count = int(doc["key_count"])
        covered = frozenset(int(i) - 1 for i in doc["covered"])
    except (TypeError, ValueError):
        raise ValidationError("channel scheme counts must be integers") from None
    structure = structure_from_doc(doc["structure"])
    alphabets: list[Optional[LabelAlphabet]] = [None] * structure.k
    alphabet_docs = _object(doc["alphabets"], "channel scheme field 'alphabets'")
    for key, labels in alphabet_docs.items():
        i = _integer(key, "alphabet receiver") - 1
        if not 0 <= i < structure.k:
            raise ValidationError(f"alphabet for unknown receiver {key}")
        alphabets[i] = LabelAlphabet(
            modulus=q,
            labels=tuple(parse_posterior(l) for l in _array(labels, f"alphabet {key}")),
        )
    slots = []
    for entry in _array(doc["slots"], "channel scheme field 'slots'"):
        _require(entry, ["channel", "owner", "keys"], "slot")
        owner = entry["owner"]
        slots.append(
            Slot(
                channel=_integer(entry["channel"], "slot channel") - 1,
                owner=None if owner is None else _integer(owner, "slot owner") - 1,
                keys=tuple(
                    _integer(key, "slot key") - 1
                    for key in _array(entry["keys"], "slot field 'keys'")
                ),
            )
        )
    return ChannelScheme(
        q=q,
        structure=structure,
        covered=covered,
        alphabets=tuple(alphabets),
        slots=tuple(slots),
        key_count=key_count,
        table=table_from_doc(doc["table"]),
    )


# ---------------------------------------------------------------------------
# Minimum b-union instances


def bunion_to_doc(inst: BUnionInstance) -> dict:
    return {
        "w": inst.w,
        "sets": [sorted(s) for s in inst.sets],
        "b": inst.b,
    }


def bunion_from_doc(doc: Mapping) -> BUnionInstance:
    _require(doc, ["w", "sets", "b"], "b-union")
    try:
        w = int(doc["w"])
        b = int(doc["b"])
        sets = tuple(frozenset(int(e) for e in s) for s in doc["sets"])
    except (TypeError, ValueError):
        raise ValidationError("b-union fields must be integers and integer arrays") from None
    return BUnionInstance(w=w, sets=sets, b=b)
