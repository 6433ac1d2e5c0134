import copy
import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, inf, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from mcpersuasion import forest
from mcpersuasion import lp as lp_module
from mcpersuasion.errors import InvariantViolation, ValidationError
from mcpersuasion.forest import PosteriorGrid, build_grid_lp
from mcpersuasion.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    check_farkas,
    check_feasible,
    check_optimal,
    check_ray,
    dump,
    solve,
)
from mcpersuasion.model import validate_instance

F = Fraction


# --- an independent brute-force oracle: enumerate candidate active sets ---


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None if singular."""
    n = len(rhs)
    M = [list(r) + [v] for r, v in zip(rows, rhs)]
    for p in range(n):
        pivot = next((i for i in range(p, n) if M[i][p]), None)
        if pivot is None:
            return None
        M[p], M[pivot] = M[pivot], M[p]
        pv = M[p][p]
        M[p] = [v / pv for v in M[p]]
        for i in range(n):
            if i != p and M[i][p]:
                f = M[i][p]
                M[i] = [a - f * b for a, b in zip(M[i], M[p])]
    return [M[i][n] for i in range(n)]


def _vertices(n, constraints):
    """All vertices of {x >= 0} cut by the given (row, rel, rhs) list."""
    hyperplanes = [(row, rhs) for row, rel, rhs in constraints]
    hyperplanes += [([F(1) if j == i else F(0) for j in range(n)], F(0)) for i in range(n)]
    seen = set()
    out = []
    for combo in combinations(range(len(hyperplanes)), n):
        rows = [hyperplanes[i][0] for i in combo]
        rhs = [hyperplanes[i][1] for i in combo]
        x = _solve_square(rows, rhs)
        if x is None or any(v < 0 for v in x):
            continue
        ok = True
        for row, rel, b in constraints:
            lhs = sum(r * v for r, v in zip(row, x))
            if (rel == EQ and lhs != b) or (rel == LE and lhs > b) or (rel == GE and lhs < b):
                ok = False
                break
        if ok and tuple(x) not in seen:
            seen.add(tuple(x))
            out.append(x)
    return out


def oracle(n, objective, constraints):
    """(status, value) by vertex and recession-ray enumeration."""
    verts = _vertices(n, constraints)
    if not verts:
        return INFEASIBLE, None
    # recession cone sliced by sum d = 1
    cone = [(row, EQ if rel == EQ else rel, F(0)) for row, rel, _ in constraints]
    cone.append(([F(1)] * n, EQ, F(1)))
    for d in _vertices(n, cone):
        if sum(c * v for c, v in zip(objective, d)) > 0:
            return UNBOUNDED, None
    best = max(sum(c * v for c, v in zip(objective, x)) for x in verts)
    return OPTIMAL, best


# --- fixed examples ---


def test_single_upper_bound():
    lp = LinearProgram(1, [F(1)], [([F(1)], LE, F(1))])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 1
    assert sol.assignment == (F(1),)


def test_infeasible_pair():
    lp = LinearProgram(1, [F(1)], [([F(1)], GE, F(2)), ([F(1)], LE, F(1))])
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    assert check_farkas(lp, sol.farkas)


def test_two_variable_example():
    lp = LinearProgram(
        2,
        [F(3), F(2)],
        [([F(1), F(1)], LE, F(4)), ([F(1), F(0)], LE, F(2))],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 10
    assert sol.assignment == (F(2), F(2))
    assert check_optimal(lp, sol.assignment, sol.dual)


def test_unbounded():
    lp = LinearProgram(2, [F(1), F(1)], [([F(1), F(-1)], LE, F(1))])
    sol = solve(lp)
    assert sol.status == UNBOUNDED
    assert check_ray(lp, sol.assignment, sol.ray)


def test_equality_and_negative_rhs():
    # -x1 - x2 = -3 exercises the row-flip path
    lp = LinearProgram(
        2,
        [F(1), F(2)],
        [([F(-1), F(-1)], EQ, F(-3)), ([F(0), F(1)], LE, F(2))],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 5
    assert sol.assignment == (F(1), F(2))


def test_redundant_rows_are_dropped():
    # second row is the double of the first
    lp = LinearProgram(
        2,
        [F(1), F(1)],
        [
            ([F(1), F(1)], EQ, F(2)),
            ([F(2), F(2)], EQ, F(4)),
            ([F(1), F(0)], LE, F(1)),
        ],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 2
    assert check_optimal(lp, sol.assignment, sol.dual)


def test_beale_degenerate_instance_terminates():
    lp = LinearProgram(
        4,
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            ([F(1, 4), F(-60), F(-1, 25), F(9)], LE, F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], LE, F(0)),
            ([F(0), F(0), F(1), F(0)], LE, F(1)),
        ],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == F(1, 20)
    assert sol.assignment == (F(1, 25), F(0), F(1), F(0))


def test_zero_objective_and_empty_program():
    sol = solve(LinearProgram(2, {}, [([F(1), F(1)], LE, F(1))]))
    assert sol.status == OPTIMAL and sol.objective == 0
    sol = solve(LinearProgram(1, [F(-1)], []))
    assert sol.status == OPTIMAL and sol.assignment == (F(0),)
    sol = solve(LinearProgram(1, [F(1)], []))
    assert sol.status == UNBOUNDED


def test_random_programs_match_vertex_oracle():
    rng = random.Random(271)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(250):
        n = rng.randint(2, 4)
        m = rng.randint(1, 6)
        obj = [F(rng.randint(-3, 3)) for _ in range(n)]
        constraints = []
        for _ in range(m):
            row = [F(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice([EQ, LE, GE])
            rhs = F(rng.randint(-4, 4))
            constraints.append((row, rel, rhs))
        lp = LinearProgram(n, obj, constraints)
        sol = solve(lp)
        status, value = oracle(n, obj, constraints)
        assert sol.status == status, dump(lp)
        statuses[status] += 1
        if status == OPTIMAL:
            assert sol.objective == value, dump(lp)
            assert check_optimal(lp, sol.assignment, sol.dual)
        elif status == INFEASIBLE:
            assert check_farkas(lp, sol.farkas)
        else:
            assert check_ray(lp, sol.assignment, sol.ray)
    # the generator should exercise every status
    assert all(count > 0 for count in statuses.values())


def test_degenerate_transportation_ties():
    # many optimal bases, heavy degeneracy in the ratio test
    lp = LinearProgram(
        4,
        [F(1), F(1), F(1), F(1)],
        [
            ([F(1), F(1), F(0), F(0)], EQ, F(1)),
            ([F(0), F(0), F(1), F(1)], EQ, F(1)),
            ([F(1), F(0), F(1), F(0)], EQ, F(1)),
            ([F(0), F(1), F(0), F(1)], EQ, F(1)),
        ],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 2


@pytest.fixture
def take_route(monkeypatch):
    """take_route(route) sends every later solve down one route through
    lp's own gates: "pure" makes lp._highs give None, as if scipy did not
    import; "crash" lowers lp._CRASH_THRESHOLD to 0, so that a program
    with a row tries the crash start whenever scipy imports; "default"
    puts both back."""
    highs, threshold = lp_module._highs, lp_module._CRASH_THRESHOLD

    def take(route):
        monkeypatch.setattr(lp_module, "_highs", (lambda: None) if route == "pure" else highs)
        monkeypatch.setattr(lp_module, "_CRASH_THRESHOLD", 0 if route == "crash" else threshold)

    return take


def test_crash_and_pure_paths_agree(take_route):
    rng = random.Random(99)
    n, m = 30, 12
    obj = [F(rng.randint(0, 5)) for _ in range(n)]
    constraints = []
    for i in range(m):
        row = [F(rng.randint(0, 3)) for _ in range(n)]
        constraints.append((row, LE, F(rng.randint(5, 20))))
    lp = LinearProgram(n, obj, constraints)
    take_route("crash")
    fast = solve(lp)
    take_route("pure")
    slow = solve(lp)
    assert fast.status == slow.status == OPTIMAL
    assert fast.objective == slow.objective
    assert check_optimal(lp, fast.assignment, fast.dual)
    assert check_optimal(lp, slow.assignment, slow.dual)


def _highs_or_skip():
    """numpy, scipy.optimize and csc_matrix as the crash start imports
    them; the test is skipped when they do not import."""
    highs = lp_module._highs()
    if highs is None:
        pytest.skip("scipy does not import")
    return highs


@pytest.mark.parametrize(
    "guess, accepted",
    [([1.0, 0.0, 2.0], True), ([1.0, 0.0, 0.0], False), ([0.5, 0.5, 0.0], False)],
    ids=["feasible", "artificial-off-zero", "negative"],
)
def test_crash_keeps_only_a_feasible_completed_basis(monkeypatch, take_route, guess, accepted):
    """The float guess's completed basis is kept only if every basic
    value is nonnegative and every artificial left basic is at zero;
    otherwise the solve takes the all-artificial route instead."""
    _, scipy_optimize, _ = _highs_or_skip()
    lp = LinearProgram(3, [1, 0, 0], [([1, 1, 0], EQ, 1), ([1, -1, 1], EQ, 3)])
    result = SimpleNamespace(success=True, x=guess)
    monkeypatch.setattr(scipy_optimize, "linprog", lambda *args, **kwargs: result)
    engine = lp_module._Engine(lp)
    assert engine._complete(engine._try_crash()) is accepted
    take_route("crash")
    crashed = solve(lp)
    take_route("pure")
    assert crashed == solve(lp)


def test_crash_hands_highs_the_column_wise_float_copy(monkeypatch):
    """_try_crash builds HiGHS's float copy of the standard form row by
    row; the matrix, c and b it hands linprog are bit for bit those of a
    column-wise build from the engine's columns (_columns), on the pinned
    grid programs, so HiGHS is given the same program."""
    np, scipy_optimize, csc_matrix = _highs_or_skip()

    handed = []

    def linprog(c, A_eq, b_eq, method):
        handed.append((c, A_eq, b_eq))
        raise RuntimeError("stop before solving")

    monkeypatch.setattr(scipy_optimize, "linprog", linprog)
    for case in GRID_CASES:
        engine = lp_module._Engine(_grid_program(*case))
        assert engine._try_crash() is None
        (c, A, b), = handed
        handed.clear()
        rows, cols, data = [], [], []
        for j, col in enumerate(_columns(engine)[: engine.n_std]):
            for i, v in col.items():
                _, d, g = engine.row_scale[i]
                rows.append(i)
                cols.append(j)
                data.append(v * g / d)
        expected = csc_matrix((data, (rows, cols)), shape=(engine.m, engine.n_std), dtype=float)
        assert A.shape == expected.shape
        for got, want in ((A.indptr, expected.indptr), (A.indices, expected.indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert A.data.dtype == expected.data.dtype
        assert A.data.tobytes() == expected.data.tobytes()
        want_c = np.array([-(v / engine.obj_scale) for v in engine.obj[: engine.n_std]])
        want_b = np.array([v * g / d for v, (_, d, g) in zip(engine.b, engine.row_scale)])
        assert c.tobytes() == want_c.tobytes() and b.tobytes() == want_b.tobytes()


def test_determinism():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 4)
        obj = [F(rng.randint(-2, 2)) for _ in range(n)]
        cons = [
            ([F(rng.randint(-2, 2)) for _ in range(n)], rng.choice([LE, GE, EQ]), F(rng.randint(-2, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        lp = LinearProgram(n, obj, cons)
        a = solve(lp)
        b = solve(lp)
        assert a == b


def test_dump_listing():
    lp = LinearProgram(
        2,
        [F(3), F(2)],
        [([F(1), F(1)], LE, F(4)), ({0: F(1)}, LE, F(2))],
    )
    text = dump(lp, ("a", "b"))
    assert "maximize 3 a + 2 b" in text
    assert "c1: a + b <= 4" in text
    assert "c2: a <= 2" in text
    assert "c1: x1 + x2 <= 4" in dump(lp)
    for names in (("a",), ("a", "b", "c")):
        with pytest.raises(ValidationError):
            dump(lp, names)


class _Index:
    """An integer-like value that is not an int: it has __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "n_vars, objective, row",
    [
        (2.7, {1.9: 1}, {0.5: 1, True: 1}),
        (2.0, {}, {0: 1}),
        (True, {}, {0: 1}),
        ("2", {}, {0: 1}),
        (None, {}, {0: 1}),
        (2, {1.9: 1}, {0: 1}),
        (2, {}, {True: 1}),
        (2, {}, {False: 1}),
        (2, {}, {1.0: 1}),
        (2, {}, {"1": 1}),
        (-1, {}, {}),
        (2, {}, {2: 1}),
        (1, {}, [1, 0]),
    ],
    ids=[
        "float-count-and-indices",
        "integral-float-count",
        "bool-count",
        "str-count",
        "none-count",
        "float-objective-index",
        "true-index",
        "false-index",
        "integral-float-index",
        "str-index",
        "negative-count",
        "index-out-of-range",
        "zero-out-of-range",
    ],
)
def test_program_refuses_indices_that_are_not_integers(n_vars, objective, row):
    """The variable count and every variable index go through
    operator.index: floats, strings and booleans are refused, never
    truncated, and so are indices out of range."""
    with pytest.raises(ValidationError):
        LinearProgram(n_vars, objective, [(row, LE, 1)])


def test_program_takes_integer_like_indices():
    lp = LinearProgram(_Index(2), {_Index(1): 1}, [({_Index(0): 1, 1: 1}, LE, 1)])
    assert lp.n_vars == 2 and type(lp.n_vars) is int
    assert lp.objective == {1: 1}
    assert lp.constraints == (({0: 1, 1: 1}, LE, 1),)
    assert all(type(j) is int for row, _, _ in lp.constraints for j in row)
    assert solve(lp).objective == 1


@pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=["float", "bool", "str"])
def test_program_refuses_inexact_values(bad):
    """Coefficients, objective entries and right-hand sides of rational
    rows must be ints or Fractions: floats, booleans and strings are
    refused, never converted.  Integer rows refuse them as right-hand
    sides and denominators, and floats and strings as coefficients."""
    rational = [([bad], [1], 1), ([1], [bad], 1), ([1], [1], bad), ({0: bad}, {0: 1}, 1)]
    for objective, row, rhs in rational:
        with pytest.raises(ValidationError):
            LinearProgram(1, objective, [(row, LE, rhs)])
    integral = [
        (({}, 1), ({0: 1}, LE, bad, 1)),
        (({}, 1), ({0: 1}, LE, 1, bad)),
        (({}, bad), ({}, LE, 1, 1)),
    ]
    if not isinstance(bad, int):  # a bool coefficient is the int it equals
        integral += [(({0: bad}, 1), ({0: 1}, LE, 1, 1)), (({}, 1), ({0: bad}, LE, 1, 1))]
    for objective, row in integral:
        with pytest.raises(ValidationError):
            LinearProgram.integral(1, objective, [row])


def test_integer_rows_are_stored_in_lowest_terms():
    """Rational and integer rows alike are stored as integers over the
    lcm of the row's denominators, with zero coefficients dropped, and
    constraints and objective give them back as Fractions."""
    lp = LinearProgram(3, [F(1, 2), 0, F(-1, 3)], [([F(2, 3), 0, 4], GE, F(1, 2))])
    assert (lp.obj, lp.obj_den) == ({0: 3, 2: -2}, 6)
    assert lp.rows == (({0: 4, 2: 24}, GE, 3, 6),)
    same = LinearProgram.integral(3, ({0: 6, 1: 0, 2: -4}, 12), [({0: 8, 2: 48}, GE, 6, 12)])
    assert (same.obj, same.obj_den, same.rows) == (lp.obj, lp.obj_den, lp.rows)
    assert same.objective == {0: F(1, 2), 2: F(-1, 3)}
    assert same.constraints == (({0: F(2, 3), 2: F(4)}, GE, F(1, 2)),)
    for bad in ({3: 1}, {-1: 1}, {"0": 1}):
        with pytest.raises(ValidationError):
            LinearProgram.integral(3, ({}, 1), [(bad, EQ, 0, 1)])
    with pytest.raises(ValidationError):
        LinearProgram.integral(3, ({}, 1), [({0: 1}, EQ, 0, 0)])


def test_feasibility_checker():
    lp = LinearProgram(2, [F(1), F(1)], [([F(1), F(1)], LE, F(1))])
    assert check_feasible(lp, (F(1, 2), F(1, 2)))
    assert not check_feasible(lp, (F(1), F(1)))
    assert not check_feasible(lp, (F(-1), F(0)))


def test_certificate_checkers_reject_a_dual_of_the_wrong_length():
    lp = LinearProgram(1, [1], [([1], LE, 1), ([1], LE, 2)])
    assert check_optimal(lp, [1], [1, 0])
    assert not check_optimal(lp, [1], [1])
    assert not check_optimal(lp, [1], [1, 0, -7])
    lp = LinearProgram(1, [F(1)], [([F(1)], GE, F(2)), ([F(1)], LE, F(1))])
    y = solve(lp).farkas
    assert check_farkas(lp, y)
    assert not check_farkas(lp, y[:1])
    assert not check_farkas(lp, y + (F(-7),))


# --- the certificate checks, against the Fraction versions they replaced ---


def _fraction_dot(x, row):
    return sum((x[j] * v for j, v in row.items() if x[j]), F(0))


def _fraction_check_feasible(lp, x):
    if len(x) != lp.n_vars or any(v < 0 for v in x):
        return False
    for row, rel, rhs in lp.constraints:
        lhs = _fraction_dot(x, row)
        if rel == EQ and lhs != rhs:
            return False
        if rel == LE and not lhs <= rhs:
            return False
        if rel == GE and not lhs >= rhs:
            return False
    return True


def _fraction_dual_signs_ok(lp, y):
    for (row, rel, rhs), yi in zip(lp.constraints, y):
        if rel == LE and yi < 0:
            return False
        if rel == GE and yi > 0:
            return False
    return True


def _fraction_yA(lp, y):
    yA = [F(0)] * lp.n_vars
    for (row, _, _), yi in zip(lp.constraints, y):
        if yi:
            for j, v in row.items():
                yA[j] += yi * v
    return yA


def _fraction_reduced_costs_ok(lp, y):
    yA = _fraction_yA(lp, y)
    objective = lp.objective
    return all(yA[j] >= objective.get(j, F(0)) for j in range(lp.n_vars))


def _fraction_check_optimal(lp, x, y):
    if len(y) != lp.n_constraints or not _fraction_check_feasible(lp, x):
        return False
    if not _fraction_dual_signs_ok(lp, y) or not _fraction_reduced_costs_ok(lp, y):
        return False
    dual = sum((yi * rhs for (_, _, rhs), yi in zip(lp.constraints, y)), F(0))
    return _fraction_dot(x, lp.objective) == dual


def _fraction_check_farkas(lp, y):
    if len(y) != lp.n_constraints or not _fraction_dual_signs_ok(lp, y):
        return False
    if any(v < 0 for v in _fraction_yA(lp, y)):
        return False
    return sum((yi * rhs for (_, _, rhs), yi in zip(lp.constraints, y)), F(0)) < 0


def _fraction_check_ray(lp, x0, d):
    if not _fraction_check_feasible(lp, x0):
        return False
    if len(d) != lp.n_vars or any(v < 0 for v in d):
        return False
    gain = sum((d[j] * v for j, v in lp.objective.items()), F(0))
    if gain <= 0:
        return False
    for row, rel, rhs in lp.constraints:
        along = sum((d[j] * v for j, v in row.items()), F(0))
        if rel == EQ and along != 0:
            return False
        if rel == LE and along > 0:
            return False
        if rel == GE and along < 0:
            return False
    return True


def _reduced_costs_ok(lp, y):
    """lp's integer reduced-cost check of y."""
    yA, _, s = lp_module._scaled_yA(lp, y)
    return lp_module._priced_column(lp, yA, s) is None


def test_integer_certificate_sums_match_the_fraction_formula():
    """check_optimal and check_farkas sum y'A in integers.  On seeded
    programs, their solved certificates and those with one entry nudged
    by +-1/(D L) (D and L the common denominators of y and of the
    coefficients), every verdict is that of the Fraction formula.  Two
    kinds of nudge must be rejected: one that takes a tight column's
    y'A below its bound, and, for an optimal dual, one at a row with a
    nonzero right-hand side, which breaks strong duality."""
    rng = random.Random(17)
    programs = [_pinned_program(rng) for _ in range(300)]
    programs += [_grid_program("chain2", 10), _grid_program("star3", 10)]
    rejected = {OPTIMAL: 0, INFEASIBLE: 0}
    for lp in programs:
        sol = solve(lp)
        if sol.status == UNBOUNDED:
            continue
        optimal = sol.status == OPTIMAL
        y = sol.dual if optimal else sol.farkas
        L = lcm(*(v.denominator for row, _, _ in lp.constraints for v in row.values()))
        step = F(1, lcm(*(v.denominator for v in y)) * L)
        bound = lp.objective if optimal else {}
        yA = _fraction_yA(lp, y)
        tight = [
            (k, j, v)
            for k, (row, _, _) in enumerate(lp.constraints)
            for j, v in row.items()
            if yA[j] == bound.get(j, 0)
        ]
        # at the tight entry of smallest coefficient, the smallest deficit
        nudges = [
            (k, -step if v > 0 else step, True)
            for k, _, v in sorted(tight, key=lambda t: abs(t[2]))[:1]
        ]
        rows = [k for k, (_, _, rhs) in enumerate(lp.constraints) if rhs]
        if rows:
            k = rng.choice(rows)
            nudges += [(k, step, optimal), (k, -step, optimal)]
        for k, delta, must_reject in [(0, 0, False)] + nudges:
            z = list(y)
            z[k] += delta
            assert _reduced_costs_ok(lp, z) == _fraction_reduced_costs_ok(lp, z)
            if optimal:
                ok = check_optimal(lp, sol.assignment, z)
                assert ok == _fraction_check_optimal(lp, sol.assignment, z)
            else:
                ok = check_farkas(lp, z)
                assert ok == _fraction_check_farkas(lp, z)
            if delta == 0:
                assert ok
            elif must_reject:
                assert not ok
                rejected[sol.status] += 1
    assert min(rejected.values()) >= 20, rejected
    # y'A short of a zero and of a nonzero bound by one unit of D L
    for c, y in (({}, F(-1, 4)), ([F(1, 3)], F(1, 2))):
        lp = LinearProgram(1, c, [([F(1, 2)], LE, F(1))])
        assert not _reduced_costs_ok(lp, [y])
        assert not _fraction_reduced_costs_ok(lp, [y])
        assert _reduced_costs_ok(lp, [y + F(1, 4)])


# --- the pivot path, pinned ---


def _pinned_program(rng):
    """A small random program with rational data over mixed denominators.
    Most carry a bounding <= row; about a third carry an = row twice, once
    scaled, so that the engine must leave an artificial basic at zero in a
    linearly dependent row."""

    def q():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))

    n = rng.randint(2, 7)
    obj = [q() for _ in range(n)]
    # most programs are built around a feasible point x0
    x0 = [F(rng.randint(0, 3)) for _ in range(n)] if rng.random() < 0.7 else None
    cons = []
    for _ in range(rng.randint(1, 6)):
        row = [q() if rng.random() < 0.7 else F(0) for _ in range(n)]
        rel = rng.choice((EQ, LE, GE))
        if x0 is None:
            rhs = q()
        else:
            slack = {EQ: 0, LE: abs(q()), GE: -abs(q())}[rel]
            rhs = sum(a * b for a, b in zip(row, x0)) + slack
        cons.append((row, rel, rhs))
    if rng.random() < 0.6:
        cons.append(([F(rng.randint(0, 2)) for _ in range(n)], LE, F(rng.randint(1, 9))))
    if rng.random() < 0.35:
        row, _, rhs = rng.choice(cons)
        k = F(rng.randint(1, 3), rng.choice((1, 2)))
        cons.append((row, EQ, rhs))
        cons.insert(rng.randrange(len(cons)), ([k * v for v in row], EQ, k * rhs))
    return LinearProgram(n, obj, cons)


#: md5 of the repr of every solution of the 400 programs _pinned_program
#: draws from random.Random(3).  On the crash route the start comes from
#: scipy's HiGHS (recorded with scipy 1.17.1); without scipy that route
#: falls back to the all-artificial start, whose digest is PURE.  First
#: recorded with the rational (Fraction) engine that preceded the integer
#: one; re-pinned when phase 2 began to evict artificials lazily, which
#: moved the duals of 10 (pure) and 23 (crash) degenerate optima and
#: nothing else: the PRIMAL digests below were recorded before that change.
PINNED_PURE = "31463627f2da0c7840dd5282dd42ec03"
PINNED_CRASH = "e0b9b406839e8680dd737b4032a1823a"

#: md5 of the same solutions with the dual left out (_primal_digest).
PINNED_PURE_PRIMAL = "9f87034e4150f34b87900e9bac495105"
PINNED_CRASH_PRIMAL = "950d4c5d9f6c6cde14de5342c2fdb760"


def _primal_digest(solutions):
    """md5 of status, assignment, objective, Farkas vector and ray."""
    fields = (repr((s.status, s.assignment, s.objective, s.farkas, s.ray)) for s in solutions)
    return hashlib.md5("\n".join(fields).encode()).hexdigest()


@pytest.mark.parametrize("crash", [False, True])
def test_pivot_path_matches_the_rational_engine(crash, take_route, monkeypatch):
    scipy = lp_module._highs() is not None
    left_basic = []
    real_solve = lp_module._Engine.solve

    def recording_solve(engine, start=None):
        sol = real_solve(engine, start)
        if sol.status == OPTIMAL and any(j >= engine.n_std for j in engine.basis):
            left_basic.append(engine)
        return sol

    monkeypatch.setattr(lp_module._Engine, "solve", recording_solve)
    take_route("crash" if crash else "pure")
    rng = random.Random(3)
    solutions = [solve(_pinned_program(rng)) for _ in range(400)]
    assert {sol.status for sol in solutions} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    # some optima keep an artificial basic at zero
    assert left_basic
    digest = hashlib.md5("\n".join(map(repr, solutions)).encode()).hexdigest()
    if crash and scipy:
        assert _primal_digest(solutions) == PINNED_CRASH_PRIMAL
        assert digest == PINNED_CRASH
    else:
        assert _primal_digest(solutions) == PINNED_PURE_PRIMAL
        assert digest == PINNED_PURE


def test_artificials_left_basic_sit_at_zero_with_dual_zero(monkeypatch, take_route):
    """Phase 2 evicts an artificial only when an entering column touches
    its row, so optima may keep some basic: each is at zero and its row's
    certified dual is 0, on both routes, over the pinned grid programs and
    200 pinned draws."""
    seen = set()
    real_solve = lp_module._Engine.solve

    def checking_solve(engine, start=None):
        sol = real_solve(engine, start)
        if sol.status == OPTIMAL:
            for r, j in enumerate(engine.basis):
                if j >= engine.n_std:
                    assert engine.xb[r] == 0 and sol.dual[r] == 0, (r, j)
                    seen.add(route)
        return sol

    monkeypatch.setattr(lp_module._Engine, "solve", checking_solve)
    rng = random.Random(11)
    programs = [_pinned_program(rng) for _ in range(200)]
    programs += [_grid_program(*case) for case in GRID_CASES]
    for route in ("pure", "crash"):
        take_route(route)
        for lp in programs:
            solve(lp)
    assert seen == {"pure", "crash"}


def _settled(engine):
    """The current rows of binv: each stored row times den // level."""
    return [
        [a * engine.den // lv for a in row] for row, lv in zip(engine.binv, engine.level)
    ]


def _columns(engine):
    """The engine's standard form column by column, one {row: value} dict
    per column, rows ascending, from engine.rows; the m unit artificials
    last."""
    cols = [{} for _ in range(engine.n_std)]
    for i, row in enumerate(engine.rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols + [{r: 1} for r in range(engine.m)]


def _assert_inverse(engine):
    """B binv == den I with den > 0, and xb == binv b, on the settled rows."""
    m = engine.m
    binv = _settled(engine)
    cols = _columns(engine)
    assert engine.den > 0
    for i in range(m):
        for k in range(m):
            entry = sum(
                cols[j].get(i, 0) * binv[p][k]
                for p, j in enumerate(engine.basis)
            )
            assert entry == (engine.den if i == k else 0), (i, k)
    assert engine.xb == [sum(a * v for a, v in zip(row, engine.b)) for row in binv]


def _expected_duals(engine, obj):
    """den c_B B^-1 from the settled rows, leaving the engine as it is."""
    y = [0] * engine.m
    for j, row in zip(engine.basis, _settled(engine)):
        y = [a + obj[j] * v for a, v in zip(y, row)]
    return y


def _reference_prices(engine, obj):
    """den (c_j - y a_j) for every column below n_std, from scratch, with
    y = den c_B B^-1: the engine's pricing before it kept its prices."""
    y = _expected_duals(engine, obj)
    return [
        obj[j] * engine.den - sum(y[i] * v for i, v in col.items())
        for j, col in enumerate(_columns(engine)[: engine.n_std])
    ]


def _reference_entering(engine, obj, bland):
    """The nonbasic column with the largest reduced cost, lowest index on
    ties, or with Bland's rule the first positive one; None at optimality."""
    basic = set(engine.basis)
    best, best_rc = None, 0
    for j, rc in enumerate(_reference_prices(engine, obj)):
        if j not in basic and rc > best_rc:
            if bland:
                return j
            best, best_rc = j, rc
    return best


def _check_pricing(monkeypatch, note=lambda engine, num, lev, fl: None):
    """Hook the engine so that at every pricing each kept price num[j] /
    lev[j] is the reference's reduced cost, fl[j] its correctly rounded
    float, and the column that enters is the reference's; note is called
    with the prices before the choice."""
    objectives = []
    real_run = lp_module._Engine._run
    real_entering = lp_module._Engine._entering

    def run(engine, obj):
        objectives.append(obj)
        try:
            return real_run(engine, obj)
        finally:
            objectives.pop()

    def entering(engine, num, lev, fl, bland):
        obj, den = objectives[-1], engine.den
        assert len(num) == len(lev) == len(fl) == engine.n_std
        for j, rc in enumerate(_reference_prices(engine, obj)):
            assert lev[j] > 0 and num[j] * den == rc * lev[j], j
            assert fl[j] == rc / den, j
        note(engine, num, lev, fl)
        j = real_entering(engine, num, lev, fl, bland)
        assert j == _reference_entering(engine, obj, bland)
        return j

    monkeypatch.setattr(lp_module._Engine, "_run", run)
    monkeypatch.setattr(lp_module._Engine, "_entering", entering)


def _assert_levels(engine):
    """Every stored entry times den is divisible by its row's level, and
    _direction(j) is den B^-1 a_j computed from the settled rows, for
    every column below n_std (an artificial never enters)."""
    assert len(engine.level) == engine.m
    for row, lv in zip(engine.binv, engine.level):
        assert lv > 0
        assert all(a * engine.den % lv == 0 for a in row)
    binv = _settled(engine)
    for j, col in enumerate(_columns(engine)[: engine.n_std]):
        expected = [sum(row[i] * v for i, v in col.items()) for row in binv]
        assert engine._direction(j) == expected, j


def test_integer_inverse_stays_the_scaled_adjugate(monkeypatch, take_route):
    """The inverse and the row levels are checked at the unit start and
    after every pivot, on both routes, of a fractional program and of 40
    pinned draws; some pivots must touch rows whose level is stale, and
    the crash route must check pivots of its completion.  The prices _run
    keeps from pivot to pivot are checked against the reference pricing
    from den c_B B^-1 wherever they are read, among them after a phase-2
    pivot on a negative direction entry, which evicts an artificial and
    flips the sign of its row."""
    scipy = lp_module._highs() is not None
    checked = []
    completing = []
    negative = []
    real_start = lp_module._Engine._start_all_artificial
    real_complete = lp_module._Engine._complete
    real_pivot = lp_module._Engine._pivot

    def start(engine):
        real_start(engine)
        _assert_levels(engine)
        _assert_inverse(engine)
        checked.append("start")

    def complete(engine, support):
        completing.append(True)
        try:
            return real_complete(engine, support)
        finally:
            completing.pop()

    def pivot(engine, j, r, d):
        stale = any(f and engine.level[i] != engine.den for i, f in enumerate(d) if i != r)
        real_pivot(engine, j, r, d)
        _assert_levels(engine)
        _assert_inverse(engine)
        if completing:
            checked.append("completion")
        # phase 1's ratio test takes positive entries only
        elif d[r] < 0:
            negative.append(True)
        checked.append(("pivot", crash, stale))

    def priced(engine, num, lev, fl):
        if checked and checked[-1][0] == "pivot":
            checked.append(("prices", crash))
        if negative:
            negative.clear()
            checked.append(("prices after a negative pivot", crash))

    monkeypatch.setattr(lp_module._Engine, "_start_all_artificial", start)
    monkeypatch.setattr(lp_module._Engine, "_complete", complete)
    monkeypatch.setattr(lp_module._Engine, "_pivot", pivot)
    _check_pricing(monkeypatch, priced)
    # fractional data, a row twice (one left dependent), a flipped row, a
    # degenerate vertex
    lp = LinearProgram(
        3,
        [F(3, 2), F(1), F(-1, 3)],
        [
            ([F(1, 2), F(1), F(1)], EQ, F(3, 2)),
            ([F(1), F(2), F(2)], EQ, F(3)),
            ([F(-1), F(0), F(1, 4)], LE, F(-1, 5)),
            ([F(1), F(-1, 3), F(0)], LE, F(1)),
        ],
    )
    for crash in (False, True):
        take_route("crash" if crash else "pure")
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert check_optimal(lp, sol.assignment, sol.dual)
        rng = random.Random(3)
        for _ in range(40):
            solve(_pinned_program(rng))
    assert "start" in checked
    assert ("pivot", False, True) in checked
    assert ("prices", False) in checked
    assert ("prices after a negative pivot", False) in checked
    if scipy:
        assert "completion" in checked
        assert ("pivot", True, True) in checked
        assert ("prices", True) in checked
        assert ("prices after a negative pivot", True) in checked


def test_entering_breaks_float_ties_exactly(monkeypatch, take_route):
    """Where the largest prices round to one float, the exact comparison
    picks the entering column, as the reference pricing does: prices that
    differ by 2^-60 of their size, and prices equal as rationals but kept
    at different levels, on seeded programs and the pinned grid programs
    at 1/10, on both routes."""
    ties = set()

    def note(engine, num, lev, fl):
        top = max(fl, default=0.0)
        tied = [j for j, f in enumerate(fl) if f == top and top > 0]
        for a, b in zip(tied, tied[1:]):
            if num[a] * lev[b] != num[b] * lev[a]:
                ties.add("below float resolution")
            elif lev[a] != lev[b]:
                ties.add("equal at two levels")
            else:
                ties.add("equal")

    _check_pricing(monkeypatch, note)
    # phase 1 prices x2 above x1 by less than a float can show
    lp = LinearProgram(2, [1, 1], [([2**60, 2**60 + 1], LE, 2**61)])
    take_route("pure")
    assert solve(lp).assignment == (2, 0)
    assert ties == {"below float resolution"}
    rng = random.Random(23)
    programs = [_pinned_program(rng) for _ in range(60)]
    programs += [_grid_program("chain2", 10), _grid_program("star3", 10)]
    for route in ("pure", "crash"):
        take_route(route)
        for lp in programs:
            solve(lp)
    assert ties == {"below float resolution", "equal at two levels", "equal"}


def test_entering_reads_prices_beyond_float_range():
    """A positive price below float resolution rounds to 0.0 and one past
    the float range to inf; the numerators' exact signs and cross-products
    still pick the column the exact rule picks, under both rules."""
    tiny = huge = 10**400
    cases = [
        # underflow: 1/tiny and 2/tiny read 0.0, like the basic column 0
        ([0, 1, 2, -1], [1, tiny, tiny, 1], [0.0, 0.0, 0.0, -1.0], 2, 1),
        # overflow: prices huge, huge + 1/2 and huge + 1 all read inf
        ([huge, 2 * huge + 1, 2 * huge + 2, 5], [1, 2, 2, 1], [inf, inf, inf, 5.0], 2, 0),
        # an exact tie at two levels behind inf: the lower index
        ([huge + 1, 2 * huge + 2, -huge, 0], [1, 2, 1, 1], [inf, inf, -inf, 0.0], 0, 0),
        # no positive price: optimal
        ([-huge, -1, 0], [1, tiny, 1], [-inf, 0.0, 0.0], None, None),
    ]
    engine = lp_module._Engine(LinearProgram(0, {}, []))
    for num, lev, floats, largest, first in cases:
        fl = [lp_module._ratio(v, d) for v, d in zip(num, lev)]
        assert fl == floats
        prices = [F(v, d) for v, d in zip(num, lev)]
        positive = [j for j, p in enumerate(prices) if p > 0]
        assert largest == max(positive, key=lambda j: (prices[j], -j), default=None)
        assert first == min(positive, default=None)
        assert engine._entering(num, lev, fl, False) == largest
        assert engine._entering(num, lev, fl, True) == first


def full_grid_lp(instance, grid):
    """build_grid_lp's GridLP with the grid program over every point of
    the grid: on two states, where build_grid_lp builds the breakpoint
    program only, the full one from forest._grid_program over
    grid.points(), with its points and numbering."""
    glp = build_grid_lp(instance, grid)
    if grid.dim != 2:
        return glp
    pts, k = grid.points(), instance.k
    n = len(pts)
    program = forest._grid_program(instance.prior, glp.edges, grid.denominator, pts, glp.values)
    return replace(
        glp,
        program=program,
        points=pts,
        x_base=tuple(i * n for i in range(k)),
        y_base=tuple(k * n + e * n * n for e in range(len(glp.edges))),
    )


def _grid_program(name, denominator):
    path = Path(__file__).parent / "data" / f"{name}.instance.json"
    instance = validate_instance(json.loads(path.read_text()))
    return full_grid_lp(instance, PosteriorGrid(instance.space.size, denominator)).program


def test_engine_rows_are_primitive_with_phase1_weights(monkeypatch, take_route):
    """Each standard-form row (coefficients, slack, right-hand side) is
    integral with gcd 1, a positive multiple d_i / g_i of its
    sign-flipped constraint, and phase 1 weighs its artificial
    L g_i / d_i: weight times row is the row scaled by the common
    denominator L."""
    objectives = []
    real_run = lp_module._Engine._run

    def run(engine, obj):
        objectives.append(obj)
        return real_run(engine, obj)

    monkeypatch.setattr(lp_module._Engine, "_run", run)
    take_route("pure")
    rng = random.Random(5)
    programs = [_grid_program("chain2", 10)] + [_pinned_program(rng) for _ in range(100)]
    for lp in programs:
        L = lcm(
            *(v.denominator for row, _, rhs in lp.constraints for v in (*row.values(), rhs))
        )
        engine = lp_module._Engine(lp)
        objectives.clear()
        engine.solve()
        phase1 = objectives[0]
        slacks = iter(range(lp.n_vars, engine.n_std))
        for i, (row, rel, rhs) in enumerate(lp.constraints):
            std = engine.rows[i]
            ints = [*std.values(), engine.b[i]]
            assert all(type(v) is int for v in ints)
            assert gcd(*ints) == 1 or not any(ints)
            sign = -1 if rhs < 0 else 1
            expected = {j: sign * L * v for j, v in row.items()}
            if rel != EQ:
                expected[next(slacks)] = sign * L * (1 if rel == LE else -1)
            w = phase1[engine.n_std + i]
            assert {j: -w * v for j, v in std.items()} == expected
            assert -w * engine.b[i] == sign * L * rhs
            assert w < 0


#: den.bit_length() at the optimal basis of chain2 at step 1/40 on the
#: all-artificial route, recorded when every row was scaled by L.
COMMON_SCALE_DEN_BITS = 606


def test_optimal_basis_determinant_is_small(take_route):
    take_route("pure")
    engine = lp_module._Engine(_grid_program("chain2", 40))
    assert engine.solve().status == OPTIMAL
    assert engine.den.bit_length() < COMMON_SCALE_DEN_BITS / 3


GRID_CASES = [("chain2", 10), ("chain2", 20), ("chain2", 40), ("star3", 10), ("star3", 20)]

#: md5 of the reprs of solve on the grid programs of GRID_CASES.  The
#: default route crashes from scipy's HiGHS (recorded with scipy 1.17.1)
#: on all but chain2 at 1/10; without scipy it is the all-artificial
#: route, whose digest is PURE.  First recorded before rows were scaled
#: one by one; re-pinned when phase 2 began to evict artificials lazily,
#: which moved the duals of 4 of the 5 solves on each route and the
#: assignment of chain2 at 1/40 on the all-artificial route.
GRID_SOLVES_DEFAULT = "589d7a7ceb9d7de8a42996c8cca85043"
GRID_SOLVES_PURE = "bfd60a47a298a73511d25d4abb289f0c"

#: _primal_digest of the same solves, recorded before that change, with
#: the 6 entries of chain2's 1/40 all-artificial assignment that it moved
#: (index: (before, after)) put back.  The objective is the same.
GRID_SOLVES_DEFAULT_PRIMAL = "2964330139226bd3692530a4664cd97e"
GRID_SOLVES_PURE_PRIMAL = "461c0cc37be58223f283454d0ce0bbff"
CHAIN2_40_PURE_MOVED = {
    0: (F(1, 2), F(0)),
    1: (F(0), F(12, 23)),
    24: (F(1, 2), F(11, 23)),
    94: (F(1, 2), F(0)),
    135: (F(0), F(12, 23)),
    1078: (F(1, 2), F(11, 23)),
}


@pytest.mark.parametrize("route", ["default", "pure"])
def test_grid_solves_are_pinned(route, take_route):
    scipy = lp_module._highs() is not None
    take_route(route)
    solutions = [solve(_grid_program(*case)) for case in GRID_CASES]
    digest = hashlib.md5("\n".join(map(repr, solutions)).encode()).hexdigest()
    if route == "default" and scipy:
        assert _primal_digest(solutions) == GRID_SOLVES_DEFAULT_PRIMAL
        assert digest == GRID_SOLVES_DEFAULT
    else:
        x = list(solutions[2].assignment)
        assert {i: x[i] for i in CHAIN2_40_PURE_MOVED} == {
            i: after for i, (_, after) in CHAIN2_40_PURE_MOVED.items()
        }
        for i, (before, _) in CHAIN2_40_PURE_MOVED.items():
            x[i] = before
        solutions[2] = replace(solutions[2], assignment=tuple(x))
        assert _primal_digest(solutions) == GRID_SOLVES_PURE_PRIMAL
        assert digest == GRID_SOLVES_PURE


# --- starts: solve(lp, propose=lambda: (x, None)) ---


def _restriction(lp, cols):
    """lp on the columns cols, ascending, renumbered in that order,
    without the rows left empty with a zero right-hand side; built from
    the Fraction rows."""
    at = {j: t for t, j in enumerate(cols)}
    constraints = []
    for row, rel, rhs in lp.constraints:
        kept = {at[j]: v for j, v in row.items() if j in at}
        if kept or rhs:
            constraints.append((kept, rel, rhs))
    objective = {at[j]: v for j, v in lp.objective.items() if j in at}
    return LinearProgram(len(cols), objective, constraints)


def _certified(lp, sol):
    if sol.status == OPTIMAL:
        return check_optimal(lp, sol.assignment, sol.dual)
    if sol.status == INFEASIBLE:
        return check_farkas(lp, sol.farkas)
    return check_ray(lp, sol.assignment, sol.ray)


def _drawn_columns(rng, n, always=()):
    """A sorted column set of range(n) that holds always, or, one time in
    four, one drawn without it."""
    if rng.random() < 0.25:
        return sorted(rng.sample(range(n), rng.randint(0, n)))
    rest = rng.sample(sorted(set(range(n)) - set(always)), n - len(always))
    return sorted({*always, *rest[: rng.randint(0, len(rest))]})


def _start_cases():
    """(lp, cols): the 400 pinned draws, cols holding the support of an
    optimum half of the time, and the pinned grid programs, cols holding
    every x column and the diagonal y columns (a feasible restriction),
    the support of an optimum, or every other x column."""
    rng = random.Random(3)
    draw = random.Random(19)
    cases = []
    for _ in range(400):
        lp = _pinned_program(rng)
        sol = solve(lp)
        always = ()
        if sol.status == OPTIMAL and draw.random() < 0.5:
            always = [j for j, v in enumerate(sol.assignment) if v]
        cases.append((lp, _drawn_columns(draw, lp.n_vars, always)))
    for name, denominator in GRID_CASES[:2] + GRID_CASES[3:4]:
        path = Path(__file__).parent / "data" / f"{name}.instance.json"
        instance = validate_instance(json.loads(path.read_text()))
        glp = full_grid_lp(instance, PosteriorGrid(2, denominator))
        n = len(glp.points)
        diagonal = [base + a * n + a for base in glp.y_base for a in range(n)]
        xs = list(range(glp.y_base[0]))
        optimum = [j for j, v in enumerate(solve(glp.program).assignment) if v]
        for always in (xs + diagonal, optimum, xs[::2]):
            cases.append((glp.program, _drawn_columns(draw, glp.program.n_vars, always)))
    return cases


def test_a_start_is_the_support_then_the_slack_rows():
    """_start(program, x): x's support, largest values first and lowest
    index on ties, then the slack column of each inequality row that x
    leaves slack, numbered from n_vars in row order as _Engine numbers
    them.  Entries past program's columns are dropped."""
    lp = LinearProgram(
        3,
        [1, 0, 0],
        [([1, 1, 0], LE, 2), ([1, 1, 1], EQ, 1), ([0, 1, 1], GE, 1), ([1, 0, 1], LE, 1)],
    )
    cases = [
        ((0, F(1, 2), F(1, 2), 7), [1, 2, 3, 5]),
        ((F(1, 4), F(3, 4), 0), [1, 0, 3, 4, 5]),
        ((0, 0, 0), [3, 4, 5]),
    ]
    for x, start in cases:
        assert lp_module._start(lp, [F(v) for v in x]) == start


def test_a_start_gives_the_plain_answer_certified(monkeypatch, take_route):
    """solve(lp, propose=lambda: (x, None)) on the 400 pinned draws and
    the pinned grid programs, x the optimum of lp restricted to a drawn
    column set by _restriction, built independently from the Fraction
    rows, padded with zeros to lp's columns (all zero where the
    restriction has no optimum), and with _CRASH_THRESHOLD at 0: the
    status and objective of solve(lp), a certificate checked against lp,
    and no floating-point solve tried.  One engine, on lp, is given x's
    support, largest values first, then slack columns.  Its completion is
    kept whenever the restriction has an optimum: a basic feasible point
    of the restriction, padded, is one of lp.  Where the column set holds
    the support of solve(lp)'s optimum, x is of solve(lp)'s objective."""
    solves, completions, crashes = [], [], []
    real_solve = lp_module._Engine.solve
    real_complete = lp_module._Engine._complete
    real_try_crash = lp_module._Engine._try_crash

    def recording_solve(engine, start=None):
        sol = real_solve(engine, start)
        solves.append((engine, start, sol))
        return sol

    def complete(engine, support):
        completed = real_complete(engine, support)
        completions.append((support, completed))
        return completed

    def try_crash(engine):
        crashes.append(engine)
        return real_try_crash(engine)

    monkeypatch.setattr(lp_module._Engine, "solve", recording_solve)
    monkeypatch.setattr(lp_module._Engine, "_complete", complete)
    monkeypatch.setattr(lp_module._Engine, "_try_crash", try_crash)
    take_route("crash")
    outcomes = {}
    for lp, cols in _start_cases():
        plain = solve(lp)
        restricted = solve(_restriction(lp, cols))
        x = [F(0)] * lp.n_vars
        if restricted.status == OPTIMAL:
            for j, v in zip(cols, restricted.assignment):
                x[j] = v
        solves.clear()
        completions.clear()
        crashes.clear()
        sol = solve(lp, propose=lambda: (x, None))
        assert not crashes
        assert (sol.status, sol.objective) == (plain.status, plain.objective)
        assert _certified(lp, sol)
        [(engine, start, _)] = solves
        support = [j for j, v in enumerate(x) if v]
        assert engine.lp is lp
        assert start[: len(support)] == sorted(support, key=lambda j: (-x[j], j))
        assert all(j >= lp.n_vars for j in start[len(support) :])
        if restricted.status == OPTIMAL:
            assert completions == [(start, True)]
        optimum = {j for j, v in enumerate(plain.assignment or ()) if v}
        holds = plain.status == OPTIMAL and optimum <= set(cols)
        if holds:
            assert restricted.objective == plain.objective
        outcome = "holds an optimum" if holds else "restricted optimum"
        if restricted.status != OPTIMAL:
            outcome = "no restricted optimum"
        # the pinned draws have at most 7 columns, the grid programs 143 and more
        outcome += " (grid)" if lp.n_vars > 7 else ""
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    kinds = ("holds an optimum", "restricted optimum", "no restricted optimum")
    assert min(outcomes[kind] for kind in kinds) > 20, outcomes
    assert outcomes["holds an optimum (grid)"] and outcomes["no restricted optimum (grid)"], outcomes


def _moved(values, rng):
    """values with one seeded entry moved by 1/den, den the common
    denominator of values, up or down."""
    moved = list(values)
    step = F(1, lcm(*(v.denominator for v in values)))
    moved[rng.randrange(len(moved))] += rng.choice((step, -step))
    return moved


def _engines_built(monkeypatch) -> list:
    """The programs that _Engine is built on from here on, in order."""
    built = []
    real_init = lp_module._Engine.__init__

    def init(engine, program):
        built.append(program)
        real_init(engine, program)

    monkeypatch.setattr(lp_module._Engine, "__init__", init)
    return built


def test_a_failed_certificate_is_named_with_its_index(monkeypatch):
    """_optimality_failure names the first part of (x, y) that fails,
    with its index, and check_optimal is its verdict; an engine whose own
    certificate fails raises InvariantViolation with that name."""
    lp = LinearProgram(2, [1, 0], [([1, 1], LE, 1), ([1, -1], EQ, 0)])
    half = F(1, 2)
    cases = [
        ((half, half), (half, half), None),
        ((half, half), (half,), "dual has 1 entries for 2 rows"),
        ((half,), (half, half), "point has 1 entries for 2 columns"),
        ((-half, half), (half, half), "x[0] = -1/2 is negative"),
        ((1, 0), (half, half), "row 1 does not hold at x"),
        ((half, half), (-half, F(3, 2)), "y[0] = -1/2 has the wrong sign for a <= row"),
        ((half, half), (half, F(1, 4)), "column 0 has reduced cost 1/4 > 0"),
        ((0, 0), (half, half), "c.x = 0 differs from y'b = 1/2"),
    ]
    for x, y, failure in cases:
        x, y = tuple(map(F, x)), tuple(map(F, y))
        assert lp_module._optimality_failure(lp, x, y) == failure
        assert check_optimal(lp, x, y) is (failure is None)
    real_map_dual = lp_module._Engine._map_dual

    def map_dual(engine, *args):
        return [v + 1 for v in real_map_dual(engine, *args)]

    monkeypatch.setattr(lp_module._Engine, "_map_dual", map_dual)
    failure = r"failed verification: c\.x = 1/2 differs from y'b = 3/2"
    with pytest.raises(InvariantViolation, match=failure):
        solve(lp)


def test_a_proposal_is_returned_only_when_it_certifies(monkeypatch):
    """solve(lp, propose=f) on the 400 pinned draws, f giving solve(lp)'s
    optimum as it is, with one entry of the dual or of the point moved
    by 1/den, or with no dual: the status, objective and certificate
    check of solve(lp).  f is called once.  An accepted proposal is
    returned as f gave it, with c.x as its objective and no engine
    built; a refused one never is, and one engine, on lp, solves from
    the proposed point.  A point without a dual is never accepted, even
    an optimal one: it only proposes a start, so an engine is always
    built."""
    built = _engines_built(monkeypatch)
    rng = random.Random(29)
    verdicts = {}
    draws = random.Random(3)
    for _ in range(400):
        lp = _pinned_program(draws)
        optimum = solve(lp)
        x, y = optimum.assignment, optimum.dual
        if optimum.status != OPTIMAL:
            x, y = (F(0),) * lp.n_vars, (F(0),) * lp.n_constraints
        for kind, answer in [
            ("as it is", (x, y)),
            ("dual moved", (x, _moved(y, rng))),
            ("point moved", (_moved(x, rng), y)),
            ("no dual", (x, None)),
        ]:
            calls = []

            def propose():
                calls.append(answer)
                return answer

            built.clear()
            sol = solve(lp, propose=propose)
            assert (sol.status, sol.objective) == (optimum.status, optimum.objective)
            assert _certified(lp, sol) and len(calls) == 1
            accepted = answer[1] is not None and check_optimal(lp, *answer)
            if accepted:
                assert (sol.assignment, sol.dual) == tuple(map(tuple, answer))
            assert built == ([] if accepted else [lp])
            verdicts[kind, accepted] = verdicts.get((kind, accepted), 0) + 1
    assert verdicts["as it is", True] > 100, verdicts
    assert min(verdicts["dual moved", False], verdicts["point moved", False]) > 300, verdicts
    assert verdicts["no dual", False] == 400, verdicts


def test_a_lift_is_returned_only_when_it_certifies(monkeypatch):
    """solve(lp, propose=f) on the start cases, f lifting the optimum of
    lp restricted to a drawn column set by _restriction: its point padded
    with zeros to lp's columns, its dual put on the rows of lp that the
    restriction keeps, zero on the rows it drops.  The status, objective
    and certificate check of solve(lp), whether the lift is refused or
    accepted.  An accepted lift is returned as f gave it, with no engine
    built on lp; a refused one is solved by one engine, on lp.  The lift
    certifies only where the column set prices out every other column,
    so both verdicts are seen."""
    built = _engines_built(monkeypatch)
    verdicts = {}
    for lp, cols in _start_cases():
        plain = solve(lp)
        restriction = _restriction(lp, cols)
        restricted = solve(restriction)
        if restricted.status != OPTIMAL:
            continue
        x, y = [F(0)] * lp.n_vars, [F(0)] * lp.n_constraints
        for j, v in zip(cols, restricted.assignment):
            x[j] = v
        kept = [i for i, (row, _, rhs) in enumerate(lp.constraints) if rhs or set(row) & set(cols)]
        assert len(kept) == restriction.n_constraints
        for i, v in zip(kept, restricted.dual):
            y[i] = v
        built.clear()
        sol = solve(lp, propose=lambda: (x, y))
        assert (sol.status, sol.objective) == (plain.status, plain.objective)
        assert _certified(lp, sol)
        accepted = check_optimal(lp, x, y)
        if accepted:
            assert (sol.assignment, sol.dual) == (tuple(x), tuple(y))
        assert built == ([] if accepted else [lp])
        verdicts[accepted] = verdicts.get(accepted, 0) + 1
    assert min(verdicts[True], verdicts[False]) > 20, verdicts


def _fraction_farkas_failure(lp, y):
    """_farkas_failure from the Fraction rows."""
    if len(y) != lp.n_constraints:
        return f"Farkas vector has {len(y)} entries for {lp.n_constraints} rows"
    for i, ((_, rel, _), yi) in enumerate(zip(lp.constraints, y)):
        if (rel == LE and yi < 0) or (rel == GE and yi > 0):
            return f"y[{i}] = {yi} has the wrong sign for a {rel} row"
    for j, v in enumerate(_fraction_yA(lp, y)):
        if v < 0:
            return f"column {j} has y'A = {v} < 0"
    yb = sum((yi * rhs for (_, _, rhs), yi in zip(lp.constraints, y)), F(0))
    return None if yb < 0 else f"y'b = {yb} is not negative"


def _fraction_ray_failure(lp, x0, d):
    """_ray_failure from the Fraction rows."""
    for v, what, name, at in ((x0, "point", "x", "at"), (d, "ray", "d", "along")):
        if len(v) != lp.n_vars:
            return f"{what} has {len(v)} entries for {lp.n_vars} columns"
        for j, e in enumerate(v):
            if e < 0:
                return f"{name}[{j}] = {e} is negative"
        for i, (row, rel, rhs) in enumerate(lp.constraints):
            lhs, rhs = _fraction_dot(v, row), (rhs if v is x0 else F(0))
            if not {EQ: lhs == rhs, LE: lhs <= rhs, GE: lhs >= rhs}[rel]:
                return f"row {i} does not hold {at} {name}"
    gain = sum((d[j] * c for j, c in lp.objective.items()), F(0))
    return None if gain > 0 else f"c.d = {gain} is not positive"


def test_farkas_and_ray_failures_are_named(monkeypatch):
    """_farkas_failure and _ray_failure name the first part of a Farkas
    vector, or of an unbounded solution's point and ray, that fails,
    with its index, and check_farkas and check_ray are their verdicts.
    On every such certificate that the 400 pinned draws return, and on
    seeded perturbations of it (an entry moved by 1/den, the signs
    flipped, a ray entry zeroed, an entry dropped or added), each gives
    the name that the same checks on the Fraction rows give.  An engine
    whose own certificate fails raises InvariantViolation with it."""
    rng = random.Random(31)
    draws = random.Random(3)
    named = set()
    for _ in range(400):
        lp = _pinned_program(draws)
        sol = solve(lp)
        if sol.status == INFEASIBLE:
            y = list(sol.farkas)
            for z in (y, _nudged(rng, y), _nudged(rng, y), [-v for v in y], y[:-1], y + [F(1)]):
                failure = lp_module._farkas_failure(lp, z)
                assert failure == _fraction_farkas_failure(lp, z)
                assert check_farkas(lp, z) is (failure is None)
                named.add(failure and re.sub(r"-?\d+(/\d+)?", "#", failure))
        elif sol.status == UNBOUNDED:
            x, d = list(sol.assignment), list(sol.ray)
            zeroed = list(d)
            zeroed[rng.choice([j for j, v in enumerate(d) if v])] = F(0)
            for x0, ray in [(x, d), (_nudged(rng, x), d), (x, _nudged(rng, d)), (x, zeroed)] + [
                (x, [-v for v in d]), (x[:-1], d), (x, d[:-1])
            ]:
                failure = lp_module._ray_failure(lp, x0, ray)
                assert failure == _fraction_ray_failure(lp, x0, ray)
                assert check_ray(lp, x0, ray) is (failure is None)
                named.add(failure and re.sub(r"-?\d+(/\d+)?", "#", failure))
    assert named == {
        None,
        "Farkas vector has # entries for # rows",
        "y[#] = # has the wrong sign for a <= row",
        "y[#] = # has the wrong sign for a >= row",
        "column # has y'A = # < #",
        "y'b = # is not negative",
        "point has # entries for # columns",
        "x[#] = # is negative",
        "row # does not hold at x",
        "ray has # entries for # columns",
        "d[#] = # is negative",
        "row # does not hold along d",
        "c.d = # is not positive",
    }, named
    lp = LinearProgram(1, [F(1)], [([F(1)], GE, F(2)), ([F(1)], LE, F(1))])
    real_map_dual = lp_module._Engine._map_dual
    monkeypatch.setattr(
        lp_module._Engine, "_map_dual", lambda engine, *args: [-v for v in real_map_dual(engine, *args)]
    )
    with pytest.raises(InvariantViolation, match=r"Farkas certificate failed verification: y\[0\] = "):
        solve(lp)
    monkeypatch.setattr(lp_module._Engine, "_ray", lambda engine, j: [F(0)] * engine.n_real)
    with pytest.raises(InvariantViolation, match="unboundedness certificate failed verification: c.d = 0"):
        solve(LinearProgram(1, [1], [([1], GE, 1)]))


def test_a_start_that_does_not_complete_falls_back_to_the_all_artificial_start(take_route):
    """An engine given a start enters its columns from the unit basis and
    keeps the basis only if it is feasible with every artificial at zero;
    otherwise it takes the all-artificial start and gives the
    all-artificial route's answer."""
    lp = LinearProgram(3, [1, 0, 0], [([1, 1, 0], EQ, 1), ([1, -1, 1], EQ, 3)])
    take_route("pure")
    pure = solve(lp)
    cases = [([0, 2], True), ([2, 0], True), ([0], False), ([0, 1], False), ([], False)]
    for support, completes in cases:
        assert lp_module._Engine(lp)._complete(support) is completes
        sol = lp_module._Engine(lp).solve(support)
        assert sol.objective == pure.objective
        assert check_optimal(lp, sol.assignment, sol.dual)
        if not completes:
            assert sol == pure


def test_bland_fallback_counts_only_rows_not_left_dependent(monkeypatch):
    """Beale's cycling example, its slacks written as columns s1..s3 and
    joined by a variable z fixed at 0 by copies of one row.  From the
    slack basis the largest-reduced-cost rule cycles; Bland's rule must
    take over after the same number of degenerate pivots however many
    copies are left dependent, as if they were not there."""
    steps = []
    real_entering = lp_module._Engine._entering

    def entering(engine, num, lev, fl, bland):
        steps.append(bland)
        return real_entering(engine, num, lev, fl, bland)

    monkeypatch.setattr(lp_module._Engine, "_entering", entering)
    switches = []
    for copies in (1, 2, 3):
        # s1, s2, s3, x4, x5, x6, x7, z
        obj = [0, 0, 0, F(3, 4), F(-20), F(1, 2), F(-6), 0]
        cons = [
            ([1, 0, 0, F(1, 4), F(-8), F(-1), F(9), 0], EQ, 0),
            ([0, 1, 0, F(1, 2), F(-12), F(-1, 2), F(3), 0], EQ, 0),
            ([0, 0, 1, 0, 0, 1, 0, 0], EQ, 1),
        ] + [([0] * 7 + [1], EQ, 0)] * copies
        engine = lp_module._Engine(LinearProgram(8, obj, cons))
        # the slack basis, z, and the artificials left in the copies
        engine._start_all_artificial()
        for r, j in enumerate((0, 1, 2, 7)):
            engine._pivot(j, r, engine._direction(j))
        assert engine.basis == [0, 1, 2, 7] + [engine.n_std + 4 + c for c in range(copies - 1)]
        assert engine.real_rows == 4
        # no real column touches a copy's row, so its artificial never leaves
        for j in range(engine.n_std):
            assert not any(engine._direction(j)[4:]), j
        steps.clear()
        assert engine._run(engine.obj) is None
        assert engine.xb[engine.basis.index(5)] == engine.den  # x6 = 1
        switches.append(steps.index(True))
    # one largest-reduced-cost step per degenerate pivot: real_rows + 11
    assert switches == [4 + 11] * 3


# --- the stored integer rows, against the Fraction rows they replaced ---


def _reference_standard_form(lp):
    """The engine's standard form as it was made from the Fraction rows
    (lp.constraints and lp.objective): per row the lcm d of its
    denominators, the gcd g of the integers that gives (with d for an
    inequality), the sign flip, then the column-wise copy."""
    obj_scale = lcm(*(v.denominator for v in lp.objective.values()))
    cols = [dict() for _ in range(lp.n_vars)]
    rows, b, row_scale = [], [], []
    for i, (row, rel, rhs) in enumerate(lp.constraints):
        d = lcm(rhs.denominator, *(v.denominator for v in row.values()))
        nums = [(j, v.numerator * (d // v.denominator)) for j, v in row.items()]
        rhs_num = rhs.numerator * (d // rhs.denominator)
        g = gcd(rhs_num, *(a for _, a in nums), *((d,) if rel != EQ else ())) or 1
        sign = -1 if rhs < 0 else 1
        entries = [(j, sign * a // g) for j, a in nums]
        for j, a in entries:
            cols[j][i] = a
        if rel != EQ:
            unit = sign * d // g if rel == LE else -sign * d // g
            entries.append((len(cols), unit))
            cols.append({i: unit})
        rows.append(entries)
        b.append(sign * rhs_num // g)
        row_scale.append((sign, d, g))
    cols.extend({r: 1} for r in range(len(b)))
    obj = [0] * len(cols)
    for j, v in lp.objective.items():
        obj[j] = obj_scale * v.numerator // v.denominator
    return rows, cols, b, row_scale, obj, obj_scale


def _coupling_programs(monkeypatch):
    """The programs mps_coupling solves in the coupling tests of
    tests/test_beliefs.py, recorded by running those tests."""
    import test_beliefs

    programs = []
    real_solve = lp_module.solve

    def recording_solve(lp, *args, **kwargs):
        programs.append(lp)
        return real_solve(lp, *args, **kwargs)

    monkeypatch.setattr(lp_module, "solve", recording_solve)
    test_beliefs.test_identity_coupling_always_feasible()
    test_beliefs.test_spread_to_point_mass()
    test_beliefs.test_worked_two_by_two_flows()
    test_beliefs.test_mps_transitivity_and_mean_preservation()
    monkeypatch.undo()
    return programs


def _family(family, monkeypatch):
    """The pinned grid programs, the 400 pinned draws or the programs
    mps_coupling builds."""
    if family == "grid":
        return [_grid_program(*case) for case in GRID_CASES]
    if family == "pinned":
        rng = random.Random(3)
        return [_pinned_program(rng) for _ in range(400)]
    programs = _coupling_programs(monkeypatch)
    assert len(programs) > 100
    return programs


@pytest.mark.parametrize("family", ["grid", "pinned", "coupling"])
def test_engine_standard_form_is_the_fraction_one(family, monkeypatch):
    """_Engine reads the stored integer rows; its rows (entries in order),
    columns (gathered from its rows), right-hand sides, row scales,
    objective and objective scale are those the Fraction-row loop made,
    on the pinned grid programs, the 400 pinned draws and the programs
    mps_coupling builds.  A row is the program's own dict exactly when
    it is an equality that needs no scaling."""
    shared = set()
    for lp in _family(family, monkeypatch):
        engine = lp_module._Engine(lp)
        rows, cols, b, row_scale, obj, obj_scale = _reference_standard_form(lp)
        assert [list(row.items()) for row in engine.rows] == rows
        assert [list(col.items()) for col in _columns(engine)] == [
            list(col.items()) for col in cols
        ]
        assert (engine.b, engine.row_scale, engine.obj) == (b, row_scale, obj)
        assert engine.obj_scale == obj_scale
        assert all(type(v) is int for v in (*b, *obj, obj_scale))
        for row, (coeffs, rel, _, _), (sign, _, g) in zip(engine.rows, lp.rows, row_scale):
            is_shared = row is coeffs
            assert is_shared == (rel == EQ and sign * g == 1)
            shared.add(is_shared)
    assert True in shared


@pytest.mark.parametrize("family", ["grid", "pinned", "coupling"])
def test_solve_leaves_its_program_as_it_was(family, take_route, monkeypatch):
    """The engine shares the program's row dicts; solve, on both routes,
    leaves the program's rows, objective and objective denominator equal
    to deep copies taken before, on the pinned grid programs, the 400
    pinned draws and the programs mps_coupling builds."""
    programs = _family(family, monkeypatch)
    for route in ("pure", "crash"):
        take_route(route)
        for lp in programs:
            before = copy.deepcopy((lp.rows, lp.obj, lp.obj_den))
            solve(lp)
            assert (lp.rows, lp.obj, lp.obj_den) == before


def _nudged(rng, v):
    """v with one entry, drawn from rng, moved by +-1/den, den the common
    denominator of v's entries."""
    v = list(v)
    k = rng.randrange(len(v))
    v[k] += F(rng.choice((-1, 1)), lcm(*(e.denominator for e in v)))
    return v


def test_integer_certificates_match_the_fraction_checks():
    """check_feasible, check_optimal, check_farkas and check_ray run in
    integers on the stored rows.  On every certificate that the pinned
    programs return (the 400 pinned draws and the pinned grid programs)
    and on seeded perturbations of it, each gives the verdict of its
    Fraction version: one entry of x, y, the Farkas vector, the feasible
    point or the ray moved by +-1/den; the sign of an inequality's
    nonzero dual flipped; a nonzero ray entry zeroed."""
    rng = random.Random(3)
    programs = [_pinned_program(rng) for _ in range(400)]
    programs += [_grid_program(*case) for case in GRID_CASES]
    rng = random.Random(1701)
    verdicts = {True: 0, False: 0}

    def same(check, oracle, *args):
        verdict = check(lp, *args)
        assert verdict == oracle(lp, *args), (check.__name__, args)
        verdicts[verdict] += 1
        return verdict

    for lp in programs:
        sol = solve(lp)
        inequalities = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel != EQ]
        if sol.status == UNBOUNDED:
            x, d = sol.assignment, sol.ray
            assert same(check_ray, _fraction_check_ray, x, d)
            same(check_feasible, _fraction_check_feasible, _nudged(rng, x))
            for _ in range(2):
                same(check_ray, _fraction_check_ray, _nudged(rng, x), d)
                same(check_ray, _fraction_check_ray, x, _nudged(rng, d))
            zeroed = list(d)
            zeroed[rng.choice([j for j, v in enumerate(d) if v])] = F(0)
            same(check_ray, _fraction_check_ray, x, zeroed)
            continue
        y = sol.dual if sol.status == OPTIMAL else sol.farkas
        flips = []
        for i in [i for i in inequalities if y[i]][:2]:
            flipped = list(y)
            flipped[i] = -y[i]
            flips.append(flipped)
        if sol.status == INFEASIBLE:
            assert same(check_farkas, _fraction_check_farkas, y)
            for z in [_nudged(rng, y), _nudged(rng, y), *flips]:
                same(check_farkas, _fraction_check_farkas, z)
            continue
        x = sol.assignment
        assert same(check_optimal, _fraction_check_optimal, x, y)
        for _ in range(2):
            same(check_feasible, _fraction_check_feasible, _nudged(rng, x))
            same(check_optimal, _fraction_check_optimal, _nudged(rng, x), y)
            same(check_optimal, _fraction_check_optimal, x, _nudged(rng, y))
        for z in flips:
            same(check_optimal, _fraction_check_optimal, x, z)
    assert min(verdicts.values()) > 200, verdicts
