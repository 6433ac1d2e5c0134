"""Command-line surface.

One structured JSON document per invocation on standard output; `--out`
redirects the document to a file (written atomically) and leaves a short
receipt on stdout instead.  Exit codes: 0 success, 1 usage or file
trouble, 2 validation, 3 violated precondition or failed verification,
4 enumeration budget exceeded.  Output is deterministic, so rerunning a
command on unchanged inputs reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import log10
from pathlib import Path

from .beliefs import is_bayes_plausible
from .dominance import (
    check_private_equivalence_condition,
    dominance_set,
    domination_graph,
    is_superior,
    network_structure,
    sperner_structure,
)
from .errors import (
    BudgetExceeded,
    FileError,
    PersuasionError,
    PreconditionError,
    ReceiverCountMismatch,
    StateSpaceMismatch,
    UsageError,
    ValidationError,
)
from .forest import PosteriorGrid, evaluate_table, solve_fptas
from .hardness import DEFAULT_UNION_BUDGET, build_reduction, min_b_union, verify_reduction
from .io import (
    bunion_from_doc,
    channel_scheme_from_doc,
    channel_scheme_to_doc,
    graph_from_doc,
    load_document,
    scheme_from_doc,
    scheme_to_doc,
    stream_document,
    structure_from_doc,
    structure_to_doc,
    table_from_doc,
    table_to_doc,
    write_document,
)
from .model import (
    format_rational,
    instance_to_doc,
    merge_duplicate_receivers,
    parse_rational,
    validate_instance,
)
from .sharing import DEFAULT_VERIFY_BUDGET, emulate_private_subset, execution_count, verify_scheme


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit
    codes."""

    def error(self, message):
        raise UsageError(message)


def _parse_int(text: str, what: str) -> int:
    """A nonnegative integer in the ASCII digits 0-9 alone, which int()
    would also take with a sign, spaces, underscores or other digits."""
    if re.fullmatch(r"[0-9]+", text):
        return int(text)
    raise UsageError(f"{what} must be an integer in digits 0-9, got {text!r}")


def _parse_budget(text: str) -> int:
    """Plain integer or base^exponent shorthand, e.g. 10^7, of at most
    4,300 digits, Python's cap on int-string conversion; a longer power
    is refused before it is made."""
    power = re.fullmatch(r"([0-9]+)\^([0-9]+)", text)
    if power:
        base, exponent = int(power.group(1)), int(power.group(2))
        if base > 1 and exponent * log10(base) >= 4300:
            raise UsageError(f"budget {text} has more than 4300 digits")
        return base**exponent
    if re.fullmatch(r"[0-9]+", text):
        return int(text)
    raise UsageError(f"budget must be an integer or base^exp, got {text!r}")


def _parse_subset(text: str, k: int) -> frozenset:
    members = [_parse_int(piece, "subset member") for piece in text.split(",")]
    for i in members:
        if not 1 <= i <= k:
            raise UsageError(f"subset member {i} out of range 1..{k}")
    return frozenset(i - 1 for i in members)


def _decimal(value) -> float:
    """value's float rendering for --decimal; one past float range, or a
    nonzero one that rounds to 0.0 below it, is refused."""
    try:
        rendered = float(value)
    except OverflowError:
        raise UsageError("--decimal cannot render a value past float range") from None
    if value and not rendered:
        raise UsageError("--decimal cannot render a nonzero value below float range")
    return rendered


def _pairs_doc(pairs) -> list:
    return [[a + 1, b + 1] for a, b in sorted(pairs)]


def _deliver(doc: dict, args, summary: str):
    if getattr(args, "out", None):
        write_document(args.out, doc)
        return {"summary": summary, "written": [args.out]}
    return doc


# ---------------------------------------------------------------------------
# Command handlers; each returns (document, exit code)


def _cmd_analyze(args):
    structure = structure_from_doc(load_document(args.path))
    pairs = dominance_set(structure)
    merged, mapping = merge_duplicate_receivers(structure)
    graph = domination_graph(merged)
    doc = {
        "k": structure.k,
        "n": structure.n,
        "dominance_pairs": _pairs_doc(pairs),
        "covering_edges": _pairs_doc(graph.edges),
        "forest": graph.is_forest,
    }
    if merged.k != structure.k:
        doc["merged"] = {
            "k": merged.k,
            "map": [m + 1 for m in mapping],
            "note": "duplicate rows collapsed; covering edges use merged indices",
        }
    summary = (
        f"{len(pairs)} dominance pairs, "
        f"{'forest' if graph.is_forest else 'not a forest'}"
    )
    return _deliver(doc, args, summary), 0


def _cmd_compare(args):
    first = structure_from_doc(load_document(args.first))
    second = structure_from_doc(load_document(args.second))
    name_a = Path(args.first).stem
    name_b = Path(args.second).stem
    a_over_b = is_superior(first, second)
    b_over_a = is_superior(second, first)
    summary = (
        f"{name_a} ⪰ {name_b}: {str(a_over_b).lower()}; "
        f"{name_b} ⪰ {name_a}: {str(b_over_a).lower()}"
    )
    doc = {
        "first": name_a,
        "second": name_b,
        "first_superior": a_over_b,
        "second_superior": b_over_a,
        "summary": summary,
    }
    return _deliver(doc, args, summary), 0


def _cmd_sperner(args):
    structure = sperner_structure(args.k)
    doc = structure_to_doc(structure)
    summary = f"{structure.k} receivers on {structure.n} channels, no dominating pair"
    return _deliver(doc, args, summary), 0


def _cmd_netstruct(args):
    graph = graph_from_doc(load_document(args.path))
    structure = network_structure(graph)
    holds, failing = check_private_equivalence_condition(graph)
    doc = structure_to_doc(structure)
    doc["condition_holds"] = holds
    doc["failing_pairs"] = _pairs_doc(failing)
    doc["dominance_empty"] = not dominance_set(structure)
    summary = f"condition {'holds' if holds else 'fails'} on {graph.k} vertices"
    return _deliver(doc, args, summary), 0


def _cmd_solve(args):
    inst = validate_instance(load_document(args.instance))
    epsilon = parse_rational(args.epsilon) if args.epsilon is not None else None
    solution, table = solve_fptas(inst, epsilon)
    doc = scheme_to_doc(solution, table)
    if args.decimal:
        doc["objective_decimal"] = _decimal(solution.objective)
    summary = f"objective {format_rational(solution.objective)} at step {format_rational(solution.step)}"
    return _deliver(doc, args, summary), 0


def _cmd_verify_scheme(args):
    inst = validate_instance(load_document(args.instance))
    saved = scheme_from_doc(load_document(args.scheme))
    table = saved.table
    if table.space != inst.space:
        raise StateSpaceMismatch("scheme and instance disagree on the states")
    if table.k != inst.k:
        raise ReceiverCountMismatch(
            f"scheme speaks of {table.k} receivers, instance of {inst.k}"
        )
    checks: dict[str, bool] = {}
    failures: list[str] = []

    def run(name, check):
        try:
            problem = check()
        except PersuasionError as err:
            problem = str(err)
        checks[name] = problem is None
        if problem is not None:
            failures.append(f"{name}: {problem}")

    def table_valid():
        table.validate(inst.prior)
        return None

    def grid_aligned():
        if saved.step <= 0 or saved.step.numerator != 1:
            return f"step {format_rational(saved.step)} is not a unit fraction"
        grid = PosteriorGrid(inst.space.size, saved.step.denominator)
        for profile in table.profiles:
            for label in profile:
                if not grid.contains(label):
                    return "a posterior label is off the declared grid"
        return None

    marginals = [table.receiver_marginal(i, inst.prior) for i in range(table.k)]

    def bayes_plausible():
        for i, dist in enumerate(marginals):
            if not is_bayes_plausible(dist, inst.prior):
                return f"receiver {i + 1} marginal does not average to the prior"
        return None

    expected = evaluate_table(table, inst)

    def objective_matches():
        if expected != saved.objective:
            return (
                f"recorded {format_rational(saved.objective)}, "
                f"recomputed {format_rational(expected)}"
            )
        return None

    def marginals_match():
        if len(saved.marginals) != table.k:
            return "wrong number of recorded marginals"
        for i, (dist, derived) in enumerate(zip(saved.marginals, marginals)):
            if dist != derived:
                return f"recorded marginal of receiver {i + 1} differs from the table's"
        return None

    run("table_valid", table_valid)
    run("grid_aligned", grid_aligned)
    run("bayes_plausible", bayes_plausible)
    run("objective_matches", objective_matches)
    if saved.marginals is not None:
        run("marginals_match", marginals_match)
    ok = all(checks.values())
    doc = {
        "ok": ok,
        "checks": checks,
        "failures": failures,
        "expected_utility": format_rational(expected),
    }
    if args.decimal:
        doc["expected_utility_decimal"] = _decimal(expected)
    return doc, 0 if ok else 3


def _cmd_share(args):
    inst = validate_instance(load_document(args.instance))
    table = table_from_doc(load_document(args.table))
    if table.k != inst.k:
        raise ReceiverCountMismatch(
            f"table speaks of {table.k} receivers, instance of {inst.k}"
        )
    subset = _parse_subset(args.subset, inst.k)
    scheme = emulate_private_subset(inst.structure, subset, table, q=args.q)
    # a listed probability's denominator divides a mass's times q^keys, and the
    # omitted count is below branches · q^keys: each must print in 4,300 digits
    widest = max(m.denominator for row in table.rows.values() for m in row)
    if scheme.key_count * log10(scheme.q) >= 4300 or widest * execution_count(scheme) >= 10**4300:
        raise UsageError("--q is too large: the document's numbers would pass 4300 digits")
    doc = channel_scheme_to_doc(scheme)
    summary = (
        f"{len(scheme.slots)} slots, {scheme.key_count} keys over Z_{scheme.q} "
        f"for receivers {','.join(str(i + 1) for i in sorted(subset))}"
    )
    return _deliver(doc, args, summary), 0


def _cmd_verify_share(args):
    scheme = channel_scheme_from_doc(load_document(args.scheme))
    inst = validate_instance(load_document(args.instance))
    target = table_from_doc(load_document(args.table))
    report = verify_scheme(scheme, inst.structure, target, inst, budget=args.budget)
    return report.to_doc(), 0 if report.ok else 3


def _cmd_bunion(args):
    inst = bunion_from_doc(load_document(args.path))
    h, picks = min_b_union(inst, budget=args.budget)
    union = sorted(set().union(*(inst.sets[i] for i in picks))) if picks else []
    doc = {
        "w": inst.w,
        "t": inst.t,
        "b": inst.b,
        "h": h,
        "witness": [i + 1 for i in picks],
        "witness_union": union,
    }
    summary = f"h = {h} with sets {','.join(str(i + 1) for i in picks) or '-'}"
    return _deliver(doc, args, summary), 0


def _cmd_reduce(args):
    inst = bunion_from_doc(load_document(args.path))
    out = build_reduction(inst, budget=args.budget)
    audit = verify_reduction(out)
    if not audit.ok:
        return {"ok": False, "failures": list(audit.failures)}, 3
    value = format_rational(out.value)
    doc = {
        "w": inst.w,
        "t": inst.t,
        "b": inst.b,
        "h": out.h,
        "witness_sets": [i + 1 for i in out.witness_sets],
        "value": value,
    }
    if args.decimal:
        doc["value_decimal"] = _decimal(out.value)
    if args.out:
        paths = [piece.strip() for piece in args.out.split(",")]
        if len(paths) != 2 or not all(paths):
            raise UsageError("reduce --out takes two paths: instance.json,witness.json")
        write_document(paths[0], instance_to_doc(out.instance))
        write_document(paths[1], table_to_doc(out.witness))
        doc["written"] = paths
        doc["summary"] = f"value {value} with h = {out.h}"
        return doc, 0
    doc["instance"] = instance_to_doc(out.instance)
    doc["witness"] = table_to_doc(out.witness)
    return doc, 0


# ---------------------------------------------------------------------------
# Wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcpersuasion",
        description="Multi-channel persuasion toolkit: dominance analysis, "
        "grid solving, channel secret sharing, hardness instances.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def out_flag(p):
        p.add_argument("--out", help="write the document here instead of stdout")

    def decimal_flag(p):
        p.add_argument(
            "--decimal",
            action="store_true",
            help="add float renderings of headline rationals (display only)",
        )

    def budget_flag(p, default):
        p.add_argument(
            "--budget",
            type=_parse_budget,
            default=default,
            help="cap on enumeration size, integer or base^exp (e.g. 10^7)",
        )

    p = command("analyze", _cmd_analyze, "dominance pairs, covering edges, forest flag")
    p.add_argument("path", help="structure or instance file")
    out_flag(p)

    p = command("compare", _cmd_compare, "superiority verdicts in both directions")
    p.add_argument("first")
    p.add_argument("second")
    out_flag(p)

    p = command("sperner", _cmd_sperner, "dominance-free structure on fewest channels")
    p.add_argument("k", type=lambda text: _parse_int(text, "k"), help="receiver count")
    out_flag(p)

    p = command("netstruct", _cmd_netstruct, "structure of a network, condition verdict")
    p.add_argument("path", help="network file with k and 1-based edges")
    out_flag(p)

    p = command("solve", _cmd_solve, "grid-solve an instance, emit the scheme")
    p.add_argument("instance")
    p.add_argument(
        "--epsilon",
        help="a rational, overriding the instance's; the grid step is 1/ceil(1/EPSILON), "
        "with no accuracy guarantee for discontinuous utilities",
    )
    out_flag(p)
    decimal_flag(p)

    p = command("verify-scheme", _cmd_verify_scheme, "re-check a solved scheme file")
    p.add_argument("instance")
    p.add_argument("scheme")
    decimal_flag(p)

    p = command("share", _cmd_share, "channel scheme delivering labels to a subset")
    p.add_argument("instance")
    p.add_argument("table")
    p.add_argument("--subset", required=True, help="1-based receivers, e.g. 1,3")
    p.add_argument(
        "--q",
        type=lambda text: _parse_int(text, "q"),
        default=None,
        help="key modulus (default: fit labels)",
    )
    out_flag(p)

    p = command("verify-share", _cmd_verify_share, "check a channel scheme for leaks")
    p.add_argument("scheme")
    p.add_argument("instance")
    p.add_argument("table")
    budget_flag(p, DEFAULT_VERIFY_BUDGET)

    p = command("bunion", _cmd_bunion, "minimum b-union by enumeration")
    p.add_argument("path", help="b-union file")
    budget_flag(p, DEFAULT_UNION_BUDGET)
    out_flag(p)

    p = command("reduce", _cmd_reduce, "persuasion instance encoding a b-union problem")
    p.add_argument("path", help="b-union file")
    budget_flag(p, DEFAULT_UNION_BUDGET)
    decimal_flag(p)
    p.add_argument("--out", help="two paths: instance.json,witness.json")

    return parser


#: The exit code of each error family; every PersuasionError is in one
_EXIT_CODES = {
    UsageError: 1, FileError: 1, ValidationError: 2, PreconditionError: 3, BudgetExceeded: 4
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.handler(args)
    except SystemExit as stop:
        return int(stop.code) if stop.code else 0
    except PersuasionError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES.items() if isinstance(err, family))
    stream_document(doc, sys.stdout.write)
    return code


if __name__ == "__main__":
    sys.exit(main())
