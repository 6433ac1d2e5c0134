import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

from mcpersuasion import hardness
from mcpersuasion.cli import _parse_budget, main
from mcpersuasion.dominance import sperner_structure
from mcpersuasion.forest import evaluate_table
from mcpersuasion.io import (
    bunion_from_doc,
    bunion_to_doc,
    channel_scheme_from_doc,
    channel_scheme_to_doc,
    graph_from_doc,
    load_document,
    render_document,
    scheme_from_doc,
    structure_from_doc,
    structure_to_doc,
    table_from_doc,
    table_to_doc,
    write_document,
)
from mcpersuasion.errors import UsageError
from mcpersuasion.model import format_rational, validate_instance
from test_sharing import _reference_executions

SINGLE = {
    "states": ["low", "high"],
    "prior": ["7/10", "3/10"],
    "structure": [[1]],
    "utilities": [{"kind": "threshold", "state": "high", "cutoff": "1/2"}],
}

SPERNER3_INSTANCE = {
    "states": ["low", "high"],
    "prior": ["1/2", "1/2"],
    "structure": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    "utilities": [{"kind": "constant", "value": "0"}] * 3,
}

REVEAL3 = {
    "states": ["low", "high"],
    "profiles": [[["0", "1"]] * 3, [["1", "0"]] * 3],
    "rows": {"low": ["0", "1"], "high": ["1", "0"]},
}

FLAGSHIP = {"w": 3, "sets": [[1], [2], [1, 2]], "b": 2}


@pytest.fixture
def files(tmp_path):
    def put(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return put


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_doc(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def json_rational(text):
    from fractions import Fraction

    return Fraction(text)


# ---------------------------------------------------------------------------
# Structure commands


def test_sperner_six(capsys):
    doc = run_doc(capsys, "sperner", "6")
    assert doc["k"] == 6 and doc["n"] == 4
    assert doc["structure"] == [
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]


def test_compare_summary(capsys, files):
    private = files("private.json", {"structure": [[1, 0], [0, 1]]})
    chain = files("chain.json", {"structure": [[1, 1], [0, 1]]})
    doc = run_doc(capsys, "compare", private, chain)
    assert doc["summary"] == "private ⪰ chain: true; chain ⪰ private: false"
    assert doc["first_superior"] and not doc["second_superior"]


def test_analyze_chain(capsys, files):
    path = files("chain.json", {"structure": [[1, 1], [0, 1]]})
    doc = run_doc(capsys, "analyze", path)
    assert doc["dominance_pairs"] == [[1, 2]]
    assert doc["covering_edges"] == [[1, 2]]
    assert doc["forest"] is True
    assert "merged" not in doc


def test_analyze_refuses_counts_that_do_not_match_the_matrix(capsys, files):
    path = files("mismatch.json", {"k": 5, "n": 9, "structure": [[1, 1], [0, 1]]})
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and not out
    assert err == "error: structure document field 'k' is 5, but its matrix has 2 receivers\n"
    path = files("counted.json", {"k": 2, "n": 2, "structure": [[1, 1], [0, 1]]})
    assert run_doc(capsys, "analyze", path)["k"] == 2


def test_analyze_merges_duplicates(capsys, files):
    path = files("dup.json", {"structure": [[1, 0], [1, 0], [1, 1]]})
    doc = run_doc(capsys, "analyze", path)
    # receivers 1 and 2 share a row, so they dominate each other
    assert [1, 2] in doc["dominance_pairs"] and [2, 1] in doc["dominance_pairs"]
    assert doc["merged"]["k"] == 2
    assert doc["merged"]["map"] == [1, 1, 2]


def test_analyze_accepts_instance_files(capsys, files):
    path = files("single.json", SINGLE)
    doc = run_doc(capsys, "analyze", path)
    assert doc["k"] == 1 and doc["forest"] is True


def test_netstruct_circle_and_grid(capsys, files):
    circle = files("circle.json", {"k": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]})
    doc = run_doc(capsys, "netstruct", circle)
    assert doc["condition_holds"] is True
    assert doc["dominance_empty"] is True
    assert doc["failing_pairs"] == []

    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c + 1
            if c < 2:
                edges.append([v, v + 1])
            if r < 2:
                edges.append([v, v + 3])
    grid = files("grid.json", {"k": 9, "edges": edges})
    doc = run_doc(capsys, "netstruct", grid)
    assert doc["condition_holds"] is True and doc["dominance_empty"] is True


def test_netstruct_triangle_fails(capsys, files):
    triangle = files("triangle.json", {"k": 3, "edges": [[1, 2], [2, 3], [1, 3]]})
    doc = run_doc(capsys, "netstruct", triangle)
    assert doc["condition_holds"] is False
    assert doc["failing_pairs"]
    assert doc["dominance_empty"] is False


# ---------------------------------------------------------------------------
# Solve and verify-scheme


def test_solve_single_receiver(capsys, files, tmp_path):
    instance = files("single.json", SINGLE)
    doc = run_doc(capsys, "solve", instance, "--epsilon", "1/100")
    assert doc["objective"] == "3/5"
    assert doc["step"] == "1/100"

    out = str(tmp_path / "scheme.json")
    receipt = run_doc(capsys, "solve", instance, "--epsilon", "1/100", "--out", out)
    assert receipt["written"] == [out]
    code, printed, _ = run(capsys, "verify-scheme", instance, out)
    assert code == 0
    report = json.loads(printed)
    assert report["ok"] is True
    assert report["expected_utility"] == "3/5"
    assert all(report["checks"].values())


@pytest.mark.parametrize(
    "name, epsilon, expected",
    [
        ("chain2", "1/40", "chain2.solve-1-40.json"),
        ("star3", "1/20", "star3.solve-1-20.json"),
        ("chain2", "1/1000000", "chain2.solve-1-1000000.json"),
        ("star3", "1/1000000", "star3.solve-1-1000000.json"),
    ],
)
def test_solve_documents_are_pinned(capsys, name, epsilon, expected):
    """The solve document of a criterion-5 chain at 1/40 and of a
    three-receiver star at 1/20, byte for byte.  Both are two-state grid
    programs, which come with a proposal that tries no floating-point
    solve (the chain's closed form, the star's potential program's
    answer), so the bytes do not depend on scipy.  Recorded
    when the ladder replaced the scipy crash start, which moved the
    optimal vertex (same objective) in 6 and 11 entries.  The same two
    at 1/10^6 were recorded while the breakpoints were still found, and
    the certificate still checked, by walking every lattice point."""
    data = Path(__file__).parent / "data"
    instance = str(data / f"{name}.instance.json")
    code, out, err = run(capsys, "solve", instance, "--epsilon", epsilon)
    assert code == 0, err
    assert out.encode() == (data / expected).read_bytes()


@pytest.mark.parametrize("name", ["chain2", "star3"])
def test_fine_step_solve_documents_are_pinned(capsys, name):
    """The solve documents of the criterion-5 chain and the
    three-receiver star at 1/400, byte for byte: a step whose full grid
    program has 161,603 (chain) and 322,805 (star) columns, recorded
    while every two-state solve still built that program."""
    data = Path(__file__).parent / "data"
    instance = str(data / f"{name}.instance.json")
    code, out, err = run(capsys, "solve", instance, "--epsilon", "1/400")
    assert code == 0, err
    assert out.encode() == (data / f"{name}.solve-1-400.json").read_bytes()


@pytest.mark.parametrize(
    "name, epsilon, expected",
    [
        ("chain2", "1/40", "chain2.solve-1-40.json"),
        ("star3", "1/20", "star3.solve-1-20.json"),
    ],
)
def test_solve_imports_neither_scipy_nor_numpy(name, epsilon, expected):
    """solve on a two-state chain at 1/40 and a three-receiver star at
    1/20, each in a fresh process, writes the pinned document and leaves
    scipy and numpy unimported: the chain's closed form and the star's
    potential program never try the floating-point start.
    A sys.modules entry of None is a blocked import, not an import, so
    it is not counted."""
    data = Path(__file__).parent / "data"
    script = (
        "import sys\n"
        "from mcpersuasion.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print([m for m in ('numpy', 'scipy') if sys.modules.get(m) is not None], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script, "solve", str(data / f"{name}.instance.json"), "--epsilon", epsilon],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.decode().strip() == "[]"
    assert done.stdout == (data / expected).read_bytes()


def test_solve_decimal_flag(capsys, files):
    instance = files("single.json", SINGLE)
    doc = run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--decimal")
    assert doc["objective_decimal"] == 0.6


def test_decimal_past_float_range_is_a_usage_error(capsys, files, tmp_path):
    """An objective of 10^400 has no float rendering: solve and
    verify-scheme --decimal exit 1 with one error line, and solve writes
    nothing; without --decimal both succeed."""
    _assert_decimal_refused(capsys, files, tmp_path, "1" + "0" * 400)


def test_decimal_below_float_range_is_a_usage_error(capsys, files, tmp_path):
    """An objective of 10^-400 would render as 0.0 beside an exact
    objective that is not 0, so it is refused as 10^400 is."""
    _assert_decimal_refused(capsys, files, tmp_path, "1/1" + "0" * 400)


def _assert_decimal_refused(capsys, files, tmp_path, value):
    instance = files("extreme.json", dict(SINGLE, utilities=[{"kind": "constant", "value": value}]))
    out = tmp_path / "scheme.json"
    solve = ("solve", instance, "--epsilon", "1/10", "--out", str(out))
    assert_usage_error(*run(capsys, *solve, "--decimal"))
    assert not out.exists()
    run_doc(capsys, *solve)
    assert_usage_error(*run(capsys, "verify-scheme", instance, str(out), "--decimal"))
    assert run_doc(capsys, "verify-scheme", instance, str(out))["ok"] is True


def test_solve_epsilon_from_instance_only(capsys, files):
    with_eps = dict(SINGLE, epsilon="1/10")
    instance = files("witheps.json", with_eps)
    doc = run_doc(capsys, "solve", instance)
    assert doc["objective"] == "3/5"

    bare = files("bare.json", SINGLE)
    code, _, err = run(capsys, "solve", bare)
    assert code == 2
    assert "epsilon" in err


def test_solve_rejects_nonforest(capsys, files):
    doc = dict(SPERNER3_INSTANCE)
    # two incomparable dominators over a common receiver: not a forest
    doc["structure"] = [[1, 1, 0], [1, 0, 1], [1, 0, 0]]
    path = files("diamond.json", doc)
    code, _, err = run(capsys, "solve", path, "--epsilon", "1/4")
    assert code == 3
    assert err


def test_verify_scheme_catches_corrupt_objective(capsys, files, tmp_path):
    instance = files("single.json", SINGLE)
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--out", out)
    doc = load_document(out)
    doc["objective"] = "1/2"
    write_document(out, doc)
    code, printed, _ = run(capsys, "verify-scheme", instance, out)
    assert code == 3
    report = json.loads(printed)
    assert report["ok"] is False
    assert report["checks"]["objective_matches"] is False
    assert report["checks"]["table_valid"] is True
    assert report["failures"]


def test_verify_scheme_catches_offgrid_step(capsys, files, tmp_path):
    instance = files("single.json", SINGLE)
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--out", out)
    doc = load_document(out)
    doc["step"] = "1/7"
    write_document(out, doc)
    code, printed, _ = run(capsys, "verify-scheme", instance, out)
    assert code == 3
    assert json.loads(printed)["checks"]["grid_aligned"] is False


def test_verify_scheme_rejects_a_non_object_marginal_entry(capsys, files, tmp_path):
    instance = files("single.json", SINGLE)
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--out", out)
    doc = load_document(out)
    doc["marginals"][0].append(5)
    write_document(out, doc)
    code, _, err = run(capsys, "verify-scheme", instance, out)
    assert code == 2
    assert err.startswith("error:")


#: a two-receiver chain whose solved scheme at 1/10 has two profiles and
#: a receiver-1 marginal of two points
CHAIN = {
    "states": ["low", "high"],
    "prior": ["7/10", "3/10"],
    "structure": [[1, 1], [0, 1]],
    "utilities": [
        {"kind": "threshold", "state": "high", "cutoff": "1/2"},
        {"kind": "threshold", "state": "high", "cutoff": "1/4"},
    ],
}


def _swap_one_profiles_labels(doc):
    profile = doc["table"]["profiles"][0]
    profile[0], profile[1] = profile[1], profile[0]


def _swap_two_marginal_masses(doc):
    first, second = doc["marginals"][0]
    first["mass"], second["mass"] = second["mass"], first["mass"]


@pytest.mark.parametrize(
    "tamper, failures",
    [
        (
            _swap_one_profiles_labels,
            [
                "table_valid: receiver 1: posterior given label (7/10, 3/10) diverges "
                "from the label in state 'low'",
                "bayes_plausible: receiver 1 marginal does not average to the prior",
                "objective_matches: recorded 8/5, recomputed 1",
                "marginals_match: recorded marginal of receiver 1 differs from the table's",
            ],
        ),
        (
            lambda doc: doc.update(step="2/7"),
            ["grid_aligned: step 2/7 is not a unit fraction"],
        ),
        (
            _swap_two_marginal_masses,
            ["marginals_match: recorded marginal of receiver 1 differs from the table's"],
        ),
        (
            lambda doc: doc["marginals"].pop(),
            ["marginals_match: wrong number of recorded marginals"],
        ),
    ],
    ids=["swapped-labels", "step-2/7", "swapped-masses", "dropped-marginal"],
)
def test_verify_scheme_names_each_check_a_tampered_scheme_fails(
    capsys, files, tmp_path, tamper, failures
):
    """A solved scheme passes every check; tampered, it fails exactly the
    checks its failures lines name, in order, and exits 3.  Swapped
    labels make the table's own validation raise, which the report
    records as a failed check rather than an error."""
    instance = files("chain.json", CHAIN)
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--out", out)
    assert run_doc(capsys, "verify-scheme", instance, out)["ok"] is True
    doc = load_document(out)
    tamper(doc)
    write_document(out, doc)
    code, printed, _ = run(capsys, "verify-scheme", instance, out)
    assert code == 3
    report = json.loads(printed)
    assert report["ok"] is False and report["failures"] == failures
    failed = {line.split(":")[0] for line in failures}
    names = ["table_valid", "grid_aligned", "bayes_plausible", "objective_matches", "marginals_match"]
    assert report["checks"] == {name: name not in failed for name in names}


@pytest.mark.parametrize(
    "instance_doc, message",
    [
        (
            dict(CHAIN, structure=[[1]], utilities=CHAIN["utilities"][:1]),
            "scheme speaks of 2 receivers, instance of 1",
        ),
        (
            dict(
                CHAIN,
                states=["0", "1"],
                utilities=[dict(u, state="1") for u in CHAIN["utilities"]],
            ),
            "scheme and instance disagree on the states",
        ),
    ],
    ids=["receivers", "states"],
)
def test_verify_scheme_refuses_an_instance_it_does_not_speak_of(
    capsys, files, tmp_path, instance_doc, message
):
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", files("chain.json", CHAIN), "--epsilon", "1/10", "--out", out)
    code, printed, err = run(capsys, "verify-scheme", files("other.json", instance_doc), out)
    assert code == 2 and not printed
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Share and verify-share


def test_share_verify_share_roundtrip(capsys, files, tmp_path):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    receipt = run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    assert receipt["written"] == [out]

    code, printed, _ = run(capsys, "verify-share", out, instance, table)
    assert code == 0
    report = json.loads(printed)
    assert report["ok"] and report["law_matches"]
    assert report["label_recovery"]["ok"] and report["privacy"]["ok"]

    # the emitted file lists concrete executions with exact probabilities
    saved = load_document(out)
    states = set(saved["executions"])
    assert states == {"low", "high"}
    one = saved["executions"]["low"][0]
    assert set(one) == {"branch", "keys", "probability", "channels"}


def test_share_whole_group(capsys, files, tmp_path):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1,2,3", "--out", out)
    code, printed, _ = run(capsys, "verify-share", out, instance, table, "--budget", "10^7")
    assert code == 0
    assert json.loads(printed)["ok"] is True


def test_verify_share_flags_misrouted_key(capsys, files, tmp_path):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    for slot in doc["slots"]:
        if slot["owner"] is None:
            slot["channel"] = 1
    write_document(out, doc)
    code, printed, _ = run(capsys, "verify-share", out, instance, table)
    assert code == 3
    report = json.loads(printed)
    assert report["ok"] is False
    assert report["privacy"]["ok"] is False
    assert report["label_recovery"]["ok"] is True


def test_verify_share_budget_exit(capsys, files, tmp_path):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    code, _, err = run(capsys, "verify-share", out, instance, table, "--budget", "5")
    assert code == 4
    assert "budget" in err
    # two positive-mass branches times 3^1 key vectors: exactly 6 executions
    code, printed, _ = run(capsys, "verify-share", out, instance, table, "--budget", "6")
    assert code == 0
    assert json.loads(printed)["executions"] == 6


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(
            lambda doc: doc.update(alphabets={"x": doc["alphabets"]["1"]}), id="alphabet-key"
        ),
        pytest.param(lambda doc: doc["slots"][0].update(channel="a"), id="slot-channel"),
        pytest.param(lambda doc: doc["slots"][0].update(keys=["z"]), id="slot-keys"),
        pytest.param(lambda doc: doc["slots"].append(5), id="slot-entry"),
        # the covered receivers must be exactly those with an alphabet
        pytest.param(lambda doc: doc.update(covered=[1, 2]), id="covered-without-alphabet"),
        pytest.param(lambda doc: doc.update(covered=[]), id="alphabet-not-covered"),
        pytest.param(lambda doc: doc.update(covered=[1, 4]), id="covered-past-k"),
        pytest.param(
            lambda doc: doc["alphabets"].update({"9": doc["alphabets"]["1"]}), id="alphabet-past-k"
        ),
    ],
)
def test_verify_share_rejects_malformed_schemes(capsys, files, tmp_path, corrupt):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    corrupt(doc)
    write_document(out, doc)
    code, printed, err = run(capsys, "verify-share", out, instance, table)
    assert code == 2 and not printed
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_share_refuses_an_alphabet_given_twice(capsys, files, tmp_path):
    """"1" and "01" both name receiver 1.  The later alphabet would
    replace the earlier one unseen, so the scheme is refused as
    malformed, even when the two agree."""
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    doc["alphabets"]["01"] = doc["alphabets"]["1"]
    write_document(out, doc)
    code, printed, err = run(capsys, "verify-share", out, instance, table)
    assert code == 2 and not printed
    assert err == "error: alphabet for receiver 1 given twice\n"


def test_verify_share_names_an_alphabet_label_over_other_states(capsys, files, tmp_path):
    """An alphabet label over three states in a two-state share document
    is refused with exit 2 and one error line that names the receiver
    and the label, not a missing label."""
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    doc["alphabets"]["1"][-1] = ["1", "0", "0"]
    write_document(out, doc)
    code, printed, err = run(capsys, "verify-share", out, instance, table)
    assert code == 2 and not printed
    assert err == "error: receiver 1: alphabet label (1, 0, 0) is not over the 2 states\n"


def test_verify_share_refuses_a_huge_key_count(capsys, files, tmp_path):
    """A key_count of 10**18 is refused as malformed at the cost of its
    bare slots' count, not of a list of that many keys."""
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    doc["key_count"] = 10**18
    write_document(out, doc)
    code, printed, err = run(capsys, "verify-share", out, instance, table)
    assert code == 2 and not printed
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_share_refuses_a_count_past_4300_digits_at_once(capsys, files, tmp_path):
    """One receiver's payload keyed by 44 keys over q = 10^100: the
    2 × 10^4400 executions are refused with exit 4, and the message
    names the count without printing it."""
    instance = files("single.json", SINGLE)
    table = files("reveal1.json", dict(REVEAL3, profiles=[[["0", "1"]], [["1", "0"]]]))
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1", "--q", "3", "--out", out)
    doc = load_document(out)
    keys = list(range(1, 45))
    doc.update(
        q=10**100,
        key_count=len(keys),
        slots=[{"channel": 1, "owner": None, "keys": [key]} for key in keys]
        + [{"channel": 1, "owner": 1, "keys": keys}],
    )
    write_document(out, doc)
    start = time.perf_counter()
    code, printed, err = run(capsys, "verify-share", out, instance, table)
    assert time.perf_counter() - start < 1
    assert code == 4 and not printed
    assert err == (
        f"error: verification needs 2 × {10**100}^44 executions, budget allows 10000000\n"
    )


def test_bunion_refuses_a_selection_count_past_4300_digits(capsys, files):
    """C(15000, 7500) has 4,514 digits: the message names it without
    printing it."""
    path = files("wide.json", {"w": 1, "sets": [[1]] * 15000, "b": 7500})
    code, printed, err = run(capsys, "bunion", path)
    assert code == 4 and not printed
    assert err == "error: C(15000, 7500) selections exceed the budget of 1000000\n"


def test_budget_power_past_4300_digits_is_refused_before_it_is_made(capsys, tmp_path):
    """10^100000000 took over a minute to compute before the missing
    file was reported."""
    start = time.perf_counter()
    result = run(capsys, "bunion", str(tmp_path / "nope.json"), "--budget", "10^100000000")
    assert time.perf_counter() - start < 1
    assert_usage_error(*result)
    assert "more than 4300 digits" in result[2]


@pytest.mark.parametrize(
    "budget, allowed",
    [("10^4299", True), ("10^4300", False), ("2^14284", True), ("2^14285", False)],
)
def test_budget_powers_are_allowed_up_to_4300_digits(budget, allowed):
    if allowed:
        assert len(str(_parse_budget(budget))) <= 4300
    else:
        with pytest.raises(UsageError, match="more than 4300 digits"):
            _parse_budget(budget)


@pytest.mark.parametrize(
    "field, value",
    [("rows", [["0", "1"], ["1", "0"]]), ("profiles", 5)],
)
def test_share_rejects_malformed_tables(capsys, files, field, value):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("bad-table.json", dict(REVEAL3, **{field: value}))
    code, _, err = run(capsys, "share", instance, table, "--subset", "1")
    assert code == 2
    assert err.startswith("error:") and repr(field) in err


def test_share_rejects_labels_of_the_wrong_dimension(capsys, files):
    instance = files("single.json", SINGLE)
    table = files("short-labels.json", {
        "states": ["low", "high"],
        "profiles": [[["1"]]],
        "rows": {"low": ["1"], "high": ["1"]},
    })
    code, out, err = run(capsys, "share", instance, table, "--subset", "1")
    assert code == 2 and not out
    assert err.startswith("error:") and "label (1) is not over the 2 states" in err


def test_share_refuses_a_table_of_another_receiver_count(capsys, files):
    instance = files("single.json", SINGLE)
    table = files("reveal.json", REVEAL3)
    code, out, err = run(capsys, "share", instance, table, "--subset", "1")
    assert code == 2 and not out
    assert err == "error: table speaks of 3 receivers, instance of 1\n"


def test_share_dominated_target(capsys, files):
    doc = dict(SPERNER3_INSTANCE)
    doc["structure"] = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    doc["utilities"] = [{"kind": "constant", "value": "0"}] * 3
    instance = files("chain3.json", doc)
    table = files("reveal.json", REVEAL3)
    code, _, err = run(capsys, "share", instance, table, "--subset", "2")
    assert code == 3
    assert err


# ---------------------------------------------------------------------------
# Hardness commands


def test_bunion_flagship(capsys, files):
    path = files("flagship.json", FLAGSHIP)
    doc = run_doc(capsys, "bunion", path)
    assert doc["h"] == 2
    assert doc["witness"] == [1, 2]
    assert doc["witness_union"] == [1, 2]


def test_bunion_budget(capsys, files):
    path = files("flagship.json", FLAGSHIP)
    code, _, err = run(capsys, "bunion", path, "--budget", "2")
    assert code == 4
    doc = run_doc(capsys, "bunion", path, "--budget", "10^7")
    assert doc["h"] == 2


def test_reduce_writes_instance_and_witness(capsys, files, tmp_path):
    path = files("flagship.json", FLAGSHIP)
    inst_path = str(tmp_path / "inst.json")
    wit_path = str(tmp_path / "wit.json")
    doc = run_doc(capsys, "reduce", path, "--out", f"{inst_path},{wit_path}")
    assert doc["written"] == [inst_path, wit_path]
    assert doc["h"] == 2

    inst = validate_instance(load_document(inst_path))
    witness = table_from_doc(load_document(wit_path))
    assert inst.k == 6
    assert evaluate_table(witness, inst) == json_rational(doc["value"])


def test_reduce_inline_and_decimal(capsys, files):
    path = files("flagship.json", FLAGSHIP)
    doc = run_doc(capsys, "reduce", path, "--decimal")
    assert "instance" in doc and "witness" in doc
    assert doc["value_decimal"] == float(json_rational(doc["value"]))


@pytest.mark.parametrize(
    "wrong, failure",
    [("value", "differs from the recorded optimum"), ("witness", "witness table differs")],
    ids=["value", "witness"],
)
def test_reduce_exits_3_when_its_audit_fails(capsys, files, tmp_path, monkeypatch, wrong, failure):
    """reduce audits its answer with verify_reduction before it delivers:
    a wrong optimum or a wrong witness exits 3 with the failures named,
    inline and under --out, and writes nothing."""
    if wrong == "value":
        value = hardness.optimal_value
        monkeypatch.setattr(hardness, "optimal_value", lambda w, h, b: value(w, h, b) + 1)
    else:
        table = hardness.revealing_table
        monkeypatch.setattr(hardness, "revealing_table", lambda instance, picks: table(instance, ()))
    path = files("flagship.json", FLAGSHIP)
    inst_path, wit_path = tmp_path / "inst.json", tmp_path / "wit.json"
    for extra in ((), ("--out", f"{inst_path},{wit_path}")):
        code, out, err = run(capsys, "reduce", path, *extra)
        assert code == 3 and not err
        doc = json.loads(out)
        assert doc["ok"] is False and any(failure in line for line in doc["failures"])
    assert not inst_path.exists() and not wit_path.exists()


def test_reduce_out_needs_two_paths(capsys, files):
    path = files("flagship.json", FLAGSHIP)
    code, _, err = run(capsys, "reduce", path, "--out", "only-one.json")
    assert code == 1
    assert "two paths" in err


# ---------------------------------------------------------------------------
# Error paths and determinism


def test_unknown_command(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert_usage_error(code, out, err)
    assert "invalid choice" in err


def test_no_command(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "command" in out


def test_missing_file(capsys, tmp_path):
    """The error names the path once, with the reason alone."""
    path = str(tmp_path / "nope.json")
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize(
    "content",
    [b"{not json", b"\xff", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-json", "not-utf8", "nested-too-deep"],
)
def test_malformed_json(capsys, tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "not valid JSON" in err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_bad_prior_is_validation(capsys, files):
    doc = dict(SINGLE, prior=["1/2", "1/3"])
    path = files("bad.json", doc)
    code, _, err = run(capsys, "solve", path, "--epsilon", "1/10")
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "field, value",
    [("prior", 5), ("states", 5), ("structure", 5), ("structure", [5, 5, 5])],
)
def test_non_array_instance_field_is_validation(capsys, files, field, value):
    path = files("bad.json", dict(SINGLE, **{field: value}))
    code, _, err = run(capsys, "solve", path, "--epsilon", "1/4")
    assert code == 2
    assert f"instance field '{field}'" in err


THRESHOLD = SINGLE["utilities"][0]
GROUP = {"members": [1], "weight": "1", "threshold": 1}


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param("solve", dict(SINGLE, utilities={"kind": "additive"}), id="no-receivers"),
        *(
            pytest.param(command, dict(SINGLE, structure=[[entry]]), id=f"{command}-{entry!r}")
            for command in ("solve", "analyze")
            for entry in ("x", 0.5, True)
        ),
        pytest.param(
            "solve",
            dict(SINGLE, utilities=[{"kind": "piecewise", "state": "high", "breakpoints": 5}]),
            id="piecewise-breakpoints",
        ),
        pytest.param(
            "solve",
            dict(SINGLE, utilities=[{"kind": "table", "points": 5, "values": ["1"]}]),
            id="table-points",
        ),
        pytest.param(
            "solve", dict(SINGLE, utilities=[{"kind": "linear", "coeffs": 5}]), id="linear-coeffs"
        ),
        pytest.param(
            "solve", dict(SINGLE, utilities={"kind": "supermajority", "groups": 5}), id="groups"
        ),
        pytest.param(
            "solve",
            dict(SINGLE, utilities={"kind": "supermajority", "groups": [GROUP]}),
            id="group-condition",
        ),
        pytest.param(
            "solve", dict(SINGLE, utilities=[dict(THRESHOLD, strict="no")]), id="strict-no"
        ),
        pytest.param("bunion", dict(FLAGSHIP, b=1.9), id="b-float"),
        pytest.param(
            "solve",
            dict(SINGLE, states=[None, True], utilities=[{"kind": "constant", "value": "1"}]),
            id="states-null-true",
        ),
        pytest.param(
            "solve",
            dict(SINGLE, states=["low", "5"], utilities=[dict(THRESHOLD, state=5)]),
            id="utility-state-int",
        ),
        pytest.param("solve", [SINGLE], id="solve-top-level-array"),
        pytest.param("analyze", "structure", id="analyze-top-level-string"),
    ],
)
def test_malformed_document_exits_2_with_one_error_line(capsys, files, command, doc):
    path = files("bad.json", doc)
    options = ("--epsilon", "1/4") if command == "solve" else ()
    code, out, err = run(capsys, command, path, *options)
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("epsilon", [" 1/10", "1/10 ", "1/10\n"], ids=ascii)
def test_padded_epsilon_exits_2_with_one_error_line(capsys, files, epsilon):
    path = files("single.json", SINGLE)
    code, out, err = run(capsys, "solve", path, "--epsilon", epsilon)
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_budget_is_usage(capsys, files):
    path = files("flagship.json", FLAGSHIP)
    code, _, err = run(capsys, "bunion", path, "--budget", "many")
    assert code == 1


# command-line integers are read in the ASCII digits 0-9 alone; int()
# would also take other scripts' digits, underscores, signs and
# surrounding spaces
NOT_ASCII_INTEGERS = ["\u0661\u0660", "1_0", "+10", " 10", "10 ", "\uff11\uff10"]


def assert_usage_error(code, out, err):
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("budget", NOT_ASCII_INTEGERS + ["\u0661\u0660^2", "10^\u0662"])
def test_budget_takes_ascii_digits_only(capsys, files, budget):
    path = files("flagship.json", FLAGSHIP)
    assert_usage_error(*run(capsys, "bunion", path, "--budget", budget))


@pytest.mark.parametrize(
    "subset", ["\u0661", "\uff11", "0_1", "+1", " 1", "1 ", "\u0661,2", "1,,2", "1, 2", ""]
)
def test_subset_takes_ascii_digits_only(capsys, files, subset):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    assert_usage_error(*run(capsys, "share", instance, table, "--subset", subset))


def test_subset_member_past_k_is_a_usage_error(capsys, files):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    assert_usage_error(*run(capsys, "share", instance, table, "--subset", "9"))


@pytest.mark.parametrize("q", NOT_ASCII_INTEGERS)
def test_q_takes_ascii_digits_only(capsys, files, q):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    assert_usage_error(*run(capsys, "share", instance, table, "--subset", "1", "--q", q))


@pytest.mark.parametrize("k", NOT_ASCII_INTEGERS)
def test_sperner_k_takes_ascii_digits_only(capsys, k):
    assert_usage_error(*run(capsys, "sperner", k))


def test_reruns_byte_identical(capsys, files):
    instance = files("single.json", SINGLE)
    code, first, _ = run(capsys, "solve", instance, "--epsilon", "1/100")
    assert code == 0
    code, second, _ = run(capsys, "solve", instance, "--epsilon", "1/100")
    assert first == second

    path = files("flagship.json", FLAGSHIP)
    code, first, _ = run(capsys, "reduce", path)
    code, second, _ = run(capsys, "reduce", path)
    assert first == second


def test_out_files_are_valid_json(capsys, files, tmp_path):
    path = files("flagship.json", FLAGSHIP)
    out = str(tmp_path / "bunion-result.json")
    run_doc(capsys, "bunion", path, "--out", out)
    saved = load_document(out)
    assert saved["h"] == 2


def test_write_into_a_missing_directory_names_the_target(capsys, tmp_path):
    """The error names the --out path, not the temp file beside it, so
    it reads the same on every rerun."""
    out = str(tmp_path / "missing" / "sperner.json")
    first = run(capsys, "sperner", "3", "--out", out)
    assert_usage_error(*first)
    assert first[2] == f"error: cannot write {out}: No such file or directory\n"
    assert run(capsys, "sperner", "3", "--out", out) == first


# ---------------------------------------------------------------------------
# Byte pins: sha256 of whole outputs, recorded with json.dumps rendering


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def sperner_share_inputs(files, k):
    """Instance and full-revelation table files on sperner_structure(k)."""
    structure = sperner_structure(k)
    instance = dict(
        SPERNER3_INSTANCE,
        structure=[list(row) for row in structure.matrix],
        utilities=[{"kind": "constant", "value": "0"}] * k,
    )
    table = dict(REVEAL3, profiles=[[["0", "1"]] * k, [["1", "0"]] * k])
    return files(f"sperner{k}.json", instance), files(f"reveal{k}.json", table)


@pytest.mark.parametrize(
    "k, subset, omitted, digest",
    [
        (4, "1,2,3,4", 0, "b9239f83d16707a18f3bce4487d4267a808ffe7b5caa9e57f97ff2e4814a4151"),
        (4, "2", 0, "6257a0890e4b34228e5350f633705091c6b12f39c427b1a5dff281bdc635c9f6"),
        (
            5,
            "1,2,3,4,5",
            98_098,
            "5db6aa5ddacb2ed9aed1384eafe0ddcb1c02ae339072745c8dea96f59ad99c1d",
        ),
    ],
)
def test_share_documents_are_pinned(
    capsys, files, tmp_path, k, subset, omitted, digest
):
    """share --out at q = 3 on sperner_structure(k), full revelation;
    the five-receiver document is the 11.6 MB one whose listing stops
    at EXECUTION_DUMP_LIMIT."""
    instance, table = sperner_share_inputs(files, k)
    out = tmp_path / "cs.json"
    run_doc(capsys, "share", instance, table, "--subset", subset, "--q", "3", "--out", str(out))
    data = out.read_bytes()
    assert json.loads(data).get("executions_omitted", 0) == omitted
    assert sha256(data) == digest


def test_share_past_the_inner_block_lists_the_reference_executions(capsys, files, tmp_path):
    """share --q 2^32 on sperner_structure(6), full revelation: 12 keys,
    no range(q) table, and the listing holds the reference enumeration's
    first EXECUTION_DUMP_LIMIT records."""
    instance, table = sperner_share_inputs(files, 6)
    out = tmp_path / "cs.json"
    subset = "1,2,3,4,5,6"
    q = str(2**32)
    run_doc(capsys, "share", instance, table, "--subset", subset, "--q", q, "--out", str(out))
    doc = load_document(str(out))
    assert doc["key_count"] == 12 and doc["executions_omitted"] == 2 * 2**384 - 20_000
    listed = [(state, entry) for state, entries in doc["executions"].items() for entry in entries]
    scheme = channel_scheme_from_doc(doc)
    want = [
        (
            record.state,
            {
                "branch": record.branch + 1,
                "keys": list(record.keys),
                "probability": format_rational(record.probability),
                "channels": [list(symbols) for symbols in record.channels],
            },
        )
        for record in islice(_reference_executions(scheme), 20_000)
    ]
    assert listed == want


def test_share_refuses_numbers_past_4300_digits(capsys, files):
    """A 401-digit q over sperner_structure(6)'s 12 keys would list
    probabilities 1/q^12 of 4,813 digits."""
    instance, table = sperner_share_inputs(files, 6)
    q = str(10**400)
    result = run(capsys, "share", instance, table, "--subset", "1,2,3,4,5,6", "--q", q)
    assert_usage_error(*result)
    assert "pass 4300 digits" in result[2]


def test_reduce_documents_are_pinned(capsys, files, tmp_path):
    path = files("flagship.json", FLAGSHIP)
    inst_path, wit_path = tmp_path / "inst.json", tmp_path / "wit.json"
    run_doc(capsys, "reduce", path, "--out", f"{inst_path},{wit_path}")
    assert sha256(inst_path.read_bytes()) == (
        "0b57ddae04a7aad7ab3a3f6e162455c5b7ea5106ff36c6a8ad7813949d845c5b"
    )
    assert sha256(wit_path.read_bytes()) == (
        "7b2101ab065995f8741182e59bc1ebeeeeb17f4287cfdfb4b15533751d4b7865"
    )


def test_decimal_solve_output_is_pinned(capsys):
    """A two-state chain, certified in closed form, so the bytes are the
    same with and without scipy; --decimal adds a float.
    Re-pinned when the ladder replaced the all-artificial start, which
    moved the vertex (same objective) in 6 entries."""
    instance = str(Path(__file__).parent / "data" / "chain2.instance.json")
    code, out, err = run(capsys, "solve", instance, "--epsilon", "1/10", "--decimal")
    assert code == 0, err
    assert sha256(out.encode()) == (
        "edeced200fdda9bbcf81c8a756ae646e26d459f9bda802ba78279f632c289138"
    )


# ---------------------------------------------------------------------------
# Round trips through the document readers


def test_structure_doc_roundtrip(capsys):
    for k in (1, 3, 6, 10):
        s = sperner_structure(k)
        assert structure_from_doc(structure_to_doc(s)) == s


def test_graph_doc_rejects_bad_edges():
    from mcpersuasion.errors import ValidationError

    with pytest.raises(ValidationError):
        graph_from_doc({"k": 3, "edges": [[1, 4]]})
    with pytest.raises(ValidationError):
        graph_from_doc({"k": 3, "edges": [[1, "x"]]})


def test_table_doc_roundtrip():
    table = table_from_doc(REVEAL3)
    assert table_from_doc(table_to_doc(table)) == table


def test_scheme_doc_roundtrip(capsys, files, tmp_path):
    instance = files("single.json", SINGLE)
    out = str(tmp_path / "scheme.json")
    run_doc(capsys, "solve", instance, "--epsilon", "1/10", "--out", out)
    saved = scheme_from_doc(load_document(out))
    again = scheme_from_doc(json.loads(render_document(load_document(out))))
    assert saved == again
    assert saved.step and saved.table.k == 1


def test_channel_scheme_doc_roundtrip(capsys, files, tmp_path):
    instance = files("sperner3.json", SPERNER3_INSTANCE)
    table = files("reveal.json", REVEAL3)
    out = str(tmp_path / "cs.json")
    run_doc(capsys, "share", instance, table, "--subset", "1,2,3", "--q", "3", "--out", out)
    scheme = channel_scheme_from_doc(load_document(out))
    assert channel_scheme_from_doc(channel_scheme_to_doc(scheme)) == scheme


def test_bunion_doc_roundtrip():
    inst = bunion_from_doc(FLAGSHIP)
    assert bunion_from_doc(bunion_to_doc(inst)) == inst
