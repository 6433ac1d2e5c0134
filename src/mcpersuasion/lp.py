"""Exact rational linear programming.

maximize c.x  subject to  rows with relations =, <=, >=  and  x >= 0.

A program is stored once, in integers, each row over its own
denominator, and the engine only reads it: a two-phase revised simplex
in integers, the basis inverse an integer adjugate over the basis
determinant, so every division is exact.  Pivoting uses the
largest-reduced-cost rule and falls back to the smallest-index rule
after a long run of degenerate pivots, so it always terminates.

solve alone picks the start, and a start changes only the path taken.
A caller may propose a point of the program, with its dual or without
one: propose=(x, y), y None without.  solve returns a proposal with a
dual, as given, exactly when it certifies optimality, and then no
engine is built; a refused one is never returned.  After a refused
proposal, and after one without a dual, the program starts from the
proposed point, completed exactly, and no floating-point solve is
tried.  Without a proposal, a program with a row and at least
_CRASH_THRESHOLD rows x columns, when scipy imports, starts from a
floating-point solve's support, completed the same way; any other
program, and any start whose completed basis is refused, starts from
the all-artificial basis with phase 1.

solve answers only the programs its callers build, which are feasible
and bounded: every answer is an optimum with a dual vector, checked
exactly against the program as stored, never the engine's scaled rows,
and a failed check is named with its row or column (_optimality).  A
program that turns out infeasible or unbounded is a solver defect, and
so is a failed check: each raises InvariantViolation naming it.
Output is deterministic for a fixed input; only a solve that takes the
floating-point start can depend on the installation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, count, repeat
from math import gcd, inf, lcm
from typing import Sequence

from .errors import InvariantViolation, ValidationError

EQ = "="
LE = "<="
GE = ">="

# no answer carries a status; perfbench's read-back replay stand-in copies it
OPTIMAL = "optimal"

_INT_ONLY = frozenset((int,))

# A crash basis (a HiGHS solve of the sparse float program, then its exact
# completion) only pays off once rows x columns is sizable.
_CRASH_THRESHOLD = 20_000


@cache
def _highs():
    """numpy, scipy.optimize and scipy.sparse.csc_matrix for the crash
    start, or None when they do not import; tried once, at the first
    crash, so that code that never solves a large program never imports it."""
    try:
        import numpy
        import scipy.optimize
        from scipy.sparse import csc_matrix
    except ImportError:
        return None
    return numpy, scipy.optimize, csc_matrix


def _index(value, what: str) -> int:
    """An integer given as any type with __index__, never a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _lowest(row: tuple, n_vars: int) -> tuple[dict, str, int, int]:
    """An integer row (coeffs, rel, rhs, den) reduced by one gcd to lowest
    terms, zero coefficients dropped.  Refused unless rel is a relation,
    rhs and den are ints, den >= 1, the coefficients integers (gcd takes
    no float, string or Fraction) and every index an int in range(n_vars)."""
    coeffs, rel, rhs, den = row
    if not _INT_ONLY.issuperset(map(type, coeffs)):
        j = next(j for j in coeffs if type(j) is not int)
        raise ValidationError(f"variable index {j!r} is not an int")
    if rel not in (EQ, LE, GE):
        raise ValidationError(f"unknown relation {rel!r}")
    if type(rhs) is not int or type(den) is not int or den < 1:
        raise ValidationError(f"integer row needs int rhs and den >= 1, got {rhs!r}, {den!r}")
    try:
        g = gcd(den, rhs, *coeffs.values())
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < n_vars):
            raise ValidationError("variable index out of range")
    except TypeError:
        raise ValidationError("integer row needs integer coefficients and indices") from None
    if g > 1 or not all(coeffs.values()):
        coeffs, rhs, den = {j: a // g for j, a in coeffs.items() if a}, rhs // g, den // g
    return coeffs, rel, rhs, den


class LinearProgram:
    """Immutable program data, stored in integers.

    LinearProgram(n_vars, (coeffs, den), rows) is the program with
    objective sum_j coeffs[j] x_j / den and row i (coeffs, rel, rhs, den),
    the constraint sum_j coeffs[j] x_j / den  rel  rhs / den, each an
    {index: int} dict over any den >= 1.  Each is stored in lowest terms
    (_lowest), without zero coefficients, keeping a dict already in
    lowest terms; the objective is obj over obj_den.  constraints and
    objective give them back as Fractions."""

    __slots__ = ("n_vars", "obj", "obj_den", "rows")

    def __init__(self, n_vars, objective, rows):
        self.n_vars = n = _index(n_vars, "variable count")
        if n < 0:
            raise ValidationError("variable count must be nonnegative")
        coeffs, den = objective
        self.obj, _, _, self.obj_den = _lowest((coeffs, EQ, 0, den), n)
        self.rows = tuple(_lowest(row, n) for row in rows)

    @property
    def objective(self) -> dict[int, Fraction]:
        return {j: Fraction(a, self.obj_den) for j, a in self.obj.items()}

    @property
    def constraints(self) -> tuple:
        """(row, rel, rhs) per row, row a dict of Fractions and rhs one."""
        return tuple(
            ({j: Fraction(a, den) for j, a in coeffs.items()}, rel, Fraction(rhs, den))
            for coeffs, rel, rhs, den in self.rows
        )

    @property
    def n_constraints(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LPSolution:
    """A certified optimum: assignment an optimal point, objective its
    value and dual the dual vector, one entry per constraint, that
    check_optimal accepts with it."""

    assignment: tuple[Fraction, ...]
    objective: Fraction
    dual: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# certificate checks, run exactly against the original program


_HOLDS = {EQ: operator.eq, LE: operator.le, GE: operator.ge}
_SIGN = {EQ: 0, LE: 1, GE: -1}


def _first_false(flags) -> int | None:
    """The index of the first false one of flags; None when all are true."""
    return next(compress(count(), map(operator.not_, flags)), None)


def _inexact(v, name) -> str | None:
    """v's first entry that is not an int or a Fraction, named; else None."""
    if set(map(type, v)) <= {int, Fraction}:
        return None
    j = next(j for j, e in enumerate(v) if type(e) not in (int, Fraction))
    return f"{name}[{j}] = {v[j]!r} is not exact"


def _located(lp, x) -> tuple[tuple[list[int], int] | None, str | None]:
    """((ints, X), None) when x is a point of lp: a nonnegative vector of
    lp's length at which every row holds, ints being x as integers over
    its common denominator X (a row's lhs and rhs times X are then both
    in its den).  Otherwise (None, the first part that fails, named with
    its index)."""
    if len(x) != lp.n_vars:
        return None, f"point has {len(x)} entries for {lp.n_vars} columns"
    support = [(j, v) for j, v in enumerate(x) if v]
    if (j := next((j for j, v in support if v < 0), None)) is not None:
        return None, f"x[{j}] = {x[j]} is negative"
    X = lcm(*(v.denominator for _, v in support))
    ints = [0] * lp.n_vars
    for j, v in support:
        ints[j] = v.numerator * (X // v.denominator)
    at = ints.__getitem__
    i = _first_false(
        _HOLDS[rel](sum(map(operator.mul, map(at, coeffs), coeffs.values())), rhs * X)
        for coeffs, rel, rhs, _ in lp.rows
    )
    if i is not None:
        return None, f"row {i} does not hold at x"
    return (ints, X), None


def _wrong_sign(lp, y) -> str | None:
    """The first row whose dual has the wrong sign, named: y_i >= 0 on
    each <= row and y_i <= 0 on each >= row; None when every sign is right."""
    i = _first_false(yi.numerator * _SIGN[rel] >= 0 for (_, rel, _, _), yi in zip(lp.rows, y))
    return None if i is None else f"y[{i}] = {y[i]} has the wrong sign for a {lp.rows[i][1]} row"


def _scaled_yA(lp, y) -> tuple[list[int], int, int]:
    """y'A and y'b in integers, each times s = Y * L, returned with s,
    where Y is the common denominator of y and L that of the rows."""
    Y = lcm(*(yi.denominator for yi in y))
    L = lcm(*(den for _, _, _, den in lp.rows))
    yA, yb = [0] * lp.n_vars, 0
    for (coeffs, _, rhs, den), yi in zip(lp.rows, y):
        if yi:
            t = yi.numerator * (Y // yi.denominator) * (L // den)
            yb += t * rhs
            for j, a in coeffs.items():
                yA[j] += t * a
    return yA, yb, Y * L


def _priced_column(lp, yA, s) -> int | None:
    """The first column whose reduced cost c_j - (y'A)_j is positive,
    given y'A times s: yA / s < obj / obj_den; None when there is none."""
    bound = [0] * lp.n_vars
    for j, a in lp.obj.items():
        bound[j] = a * s
    return _first_false(map(operator.ge, map(operator.mul, yA, repeat(lp.obj_den)), bound))


def _optimality(lp, x, y) -> tuple[str | None, Fraction | None]:
    """(failure, value).  failure names the first part of the optimality
    certificate (x, y) that fails, with its index, in the order checked:
    an inexact entry of y, then of x, the dual's length, the point's
    length and signs, a row of lp at x, a dual of the wrong sign, a
    column's reduced cost, and the gap between c.x and y'b; value is then
    None.  When (x, y) certifies that x is optimal, failure is None and
    value is c.x, read off the check's one scan of x."""
    if (failure := _inexact(y, "y") or _inexact(x, "x")) is not None:
        return failure, None
    if len(y) != lp.n_constraints:
        return f"dual has {len(y)} entries for {lp.n_constraints} rows", None
    point, failure = _located(lp, x)
    if (failure := failure or _wrong_sign(lp, y)) is not None:
        return failure, None
    yA, yb, s = _scaled_yA(lp, y)
    if (j := _priced_column(lp, yA, s)) is not None:
        cost = Fraction(lp.obj.get(j, 0), lp.obj_den) - Fraction(yA[j], s)
        return f"column {j} has reduced cost {cost} > 0", None
    (ints, X), bound = point, Fraction(yb, s)
    value = Fraction(sum(a * ints[j] for j, a in lp.obj.items()), lp.obj_den * X)
    if value != bound:
        return f"c.x = {value} differs from y'b = {bound}", None
    return None, value


def check_optimal(lp, x, y) -> bool:
    return _optimality(lp, x, y)[0] is None


# ---------------------------------------------------------------------------
# the engine


def _ratio(num: int, den: int) -> float:
    """num / den correctly rounded, saturating to an infinity."""
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


class _Engine:
    """Two-phase revised simplex over one program instance, in integers.

    Row i of the standard form is stored row i (integers over d_i)
    divided by g_i, the gcd of its integers (with d_i for an inequality,
    so that its slack stays integral), and negated if its right-hand side
    is negative: constraint i times +-d_i / g_i, integral and primitive.
    rows[i] is one {column: value} dict, the program's own for an
    equality that needs no scaling, else a new one, with an inequality's
    slack at the next column from n_real up.  _direction gathers a
    column from the rows; the artificials' unit columns are implicit.
    The objective is obj over obj_den.  A positive row scale changes no
    direction, primal value or reduced cost of a real column, and an
    artificial's value and direction entry by one common factor, so the
    ratio test, the reduced costs' signs and every zero test are those of
    the rational program.  Only phase 1 would see it, so it weighs the
    artificial of row i by L g_i / d_i (L the lcm of the d_i) and
    minimises the sum of the residuals of the L-scaled rows.

    The basis inverse is held as binv = den * B^-1 with den = |det B| > 0:
    binv is the adjugate of B up to sign, xb = binv . b, and each update
    divides exactly by the previous den (Bareiss).  Ratios and reduced
    costs are compared by cross-multiplication; values become Fractions
    only when a result is read out.

    Reduced costs are kept, not recomputed.  _run prices every column
    once, from den c_B B^-1; a pivot on row r then moves only the
    columns with a nonzero entry in the new tableau row r, read off
    rows (the standard form row by row), as alpha_j = binv[r] . a_j.
    Column j's reduced cost is num[j] / lev[j], lev[j] the den it was
    last written at, beside fl[j], its correctly rounded float; _entering
    compares exactly only the columns whose float is the largest.

    A pivot scales every row its direction misses by new den / old den.
    That is deferred: row i is stored with a level, the den it was last
    written at, and the current row is binv[i] * den // level[i].  _pivot
    rewrites only the pivot row and the rows the direction touches;
    _direction scales each dot product instead of the row, and _row
    settles a row where it is read whole.  Signs, zeros and so the path
    are those of an eagerly scaled inverse.

    Every basis starts as the unit basis of the artificials (binv = I,
    den = 1, xb = b) and changes only by _pivot.  Columns n_std + r are
    the artificials, never priced, so one that leaves stays out.  A
    start is a support, standard-form columns below n_std, handed to
    solve by lp.solve.  _complete enters its columns from the unit basis
    and keeps the basis only if it is feasible with every artificial at
    zero; phase 1 is then skipped.
    Phase 2 evicts a basic artificial, at zero, ahead of the ratio
    test, at the first artificial's row where the direction is nonzero
    (_artificial_row); one still basic at the optimum gets dual 0.
    Evictions do not count towards the Bland fallback's streak, whose
    limit is real_rows, the number of rows not held by an artificial,
    plus 10.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n_real = n_std = lp.n_vars
        self.obj_scale = lp.obj_den
        # standard equality form: real vars, then one slack per inequality;
        # rows with a negative right-hand side are negated
        # row_scale[i] = (sign, d_i, g_i): row i is sign * d_i / g_i times constraint i
        rows, b, row_scale = [], [], []
        for coeffs, rel, rhs, d in lp.rows:
            g = gcd(rhs, *coeffs.values(), *((d,) if rel != EQ else ())) or 1
            sign = -1 if rhs < 0 else 1
            unit = sign * g  # exact: g divides every entry
            row = coeffs if unit == 1 else {j: a // unit for j, a in coeffs.items()}
            if rel != EQ:
                row = {**row, n_std: (d if rel == LE else -d) // unit}
                n_std += 1
            rows.append(row)
            b.append(rhs // unit)
            row_scale.append((sign, d, g))
        self.n_std, self.m = n_std, len(b)
        self.rows, self.b, self.row_scale = rows, b, row_scale
        self.scale = lcm(*(d for _, d, _ in row_scale))  # L
        self.obj = [0] * (n_std + self.m)
        for j, a in lp.obj.items():
            self.obj[j] = a
        self.basis: list[int] = []
        self.binv: list[list[int]] = []
        self.level: list[int] = []
        self.den = 1
        self.xb: list[int] = []
        self.real_rows = 0  # rows not held by an artificial

    # -- basic linear algebra helpers

    def _direction(self, j: int) -> list[int]:
        """den times B^-1 a_j, for a column j below n_std."""
        col = [(i, row[j]) for i, row in enumerate(self.rows) if j in row]
        den = self.den
        return [
            sum(row[i] * v for i, v in col) * den // lv
            for row, lv in zip(self.binv, self.level)
        ]

    def _row(self, r: int) -> list[int]:
        """Row r of binv, brought to the current den."""
        lv = self.level[r]
        if lv != self.den:
            den = self.den
            self.binv[r] = [a * den // lv for a in self.binv[r]]
            self.level[r] = den
        return self.binv[r]

    def _duals(self, obj) -> list[int]:
        """den times c_B B^-1."""
        y = [0] * self.m
        for r in range(self.m):
            cb = obj[self.basis[r]]
            if cb:
                y = [a + cb * v for a, v in zip(y, self._row(r))]
        return y

    def _pivot(self, j: int, r: int, d: list[int]):
        """Bareiss update: the pivot row keeps its current value, a row
        the direction touches is eliminated against it and divided by
        the old den, and every other row is scaled by pe / den, which
        only its level records."""
        binv, level, xb, den = self.binv, self.level, self.xb, self.den
        pe = d[r]
        prow = self._row(r)
        if pe < 0:
            pe = -pe
            prow = binv[r] = [-v for v in prow]
            xb[r] = -xb[r]
        pxb = xb[r]
        for i, f in enumerate(d):
            if i == r:
                continue
            if f:
                lv = level[i]
                if lv == den:
                    binv[i] = [(pe * a - f * c) // den for a, c in zip(binv[i], prow)]
                else:  # stale: its level is applied in the same pass
                    pd, fl, q = pe * den, f * lv, lv * den
                    binv[i] = [(pd * a - fl * c) // q for a, c in zip(binv[i], prow)]
                level[i] = pe
                xb[i] = (pe * xb[i] - f * pxb) // den
            elif pe != den:
                xb[i] = pe * xb[i] // den
        level[r] = pe
        self.den = pe
        self.real_rows += self.basis[r] >= self.n_std
        self.basis[r] = j

    # -- simplex core

    def _prices(self, obj):
        """Every column's reduced cost (den c_j - y a_j) / den at the
        current basis, y = den c_B B^-1, from scratch: numerators, levels
        (all den) and floats, as _entering reads them."""
        den = self.den
        num = [c * den for c in obj[: self.n_std]]
        for yi, row in zip(self._duals(obj), self.rows):
            if yi:
                for j, a in row.items():
                    num[j] -= yi * a
        return num, [den] * self.n_std, [_ratio(v, den) for v in num]

    def _entering(self, num, lev, fl, bland):
        """The column with the largest reduced cost num[j] / lev[j],
        lowest index on ties, or with Bland's rule the first positive
        one; None at optimality.  A basic column's is exactly 0.

        fl[j] is num[j] / lev[j] correctly rounded, and rounding is
        monotone, so the largest lies among the columns whose float is
        max(fl); only those are compared exactly.  Below float
        resolution, where a positive price may round to 0.0, and under
        Bland's rule, the signs of the numerators decide."""
        top = max(fl, default=0.0)
        if top > 0 and not bland:
            best = j = fl.index(top)
            for _ in range(fl.count(top) - 1):
                j = fl.index(top, j + 1)
                if num[j] * lev[best] > num[best] * lev[j]:
                    best = j
            return best
        best = None
        for j, v in enumerate(num):
            if v > 0:
                if bland:
                    return j
                if best is None or v * lev[best] > num[best] * lev[j]:
                    best = j
        return best

    def _reprice(self, num, lev, fl, q, r, den):
        """After column q entered at row r, den the determinant before:
        the price of column j falls by q's times alpha_j / den', where
        den' is the new den and alpha_j = (new row r of binv) . a_j is
        den' times j's entry in the tableau's row r.  Only the columns
        with alpha_j != 0 move, each brought to den' as it is written;
        q's own falls to 0."""
        rq = num[q] if lev[q] == den else num[q] * den // lev[q]
        alpha = {}
        get = alpha.get
        rows = self.rows
        for i, v in enumerate(self.binv[r]):  # stored current by _pivot
            if v:
                for j, a in rows[i].items():
                    alpha[j] = get(j, 0) + v * a
        nd = self.den
        for j, a in alpha.items():
            if a:
                lv = lev[j]
                rc = num[j] if lv == den else num[j] * den // lv
                num[j] = v = (nd * rc - rq * a) // den
                lev[j] = nd
                fl[j] = _ratio(v, nd)

    def _artificial_row(self, d) -> int | None:
        """The first row held by an artificial where d is nonzero."""
        n_std = self.n_std
        return next((r for r, f in enumerate(d) if f and self.basis[r] >= n_std), None)

    def _leaving(self, d, lazy):
        if lazy and (r := self._artificial_row(d)) is not None:
            return r
        best = None  # (row, xb, d, tie key); ratios xb/d compared crosswise
        for r, dr in enumerate(d):
            if dr > 0:
                x = self.xb[r]
                # prefer evicting artificials, then low variable index
                key = (self.basis[r] < self.n_std, self.basis[r])
                if best is None or (x * best[2], key) < (best[1] * dr, best[3]):
                    best = (r, x, dr, key)
        return None if best is None else best[0]

    def _run(self, obj):
        """Iterate to optimality of obj over the columns below n_std,
        evicting artificials lazily on the program's own objective
        (phase 2).  A column whose direction has no leaving row makes the
        program unbounded, which raises InvariantViolation."""
        degenerate_streak = 0
        bland = False
        lazy = obj is self.obj
        num, lev, fl = self._prices(obj)
        while (j := self._entering(num, lev, fl, bland)) is not None:
            d = self._direction(j)
            r = self._leaving(d, lazy)
            if r is None:
                raise InvariantViolation(f"the program is unbounded along column {j}")
            degenerate = self.xb[r] == 0
            evicts = self.basis[r] >= self.n_std
            den = self.den
            self._pivot(j, r, d)
            self._reprice(num, lev, fl, j, r, den)
            if not degenerate:
                degenerate_streak = 0
                bland = False
            elif not evicts:
                degenerate_streak += 1
                if degenerate_streak > self.real_rows + 10:
                    bland = True

    # -- phases

    def _start_all_artificial(self):
        """The unit basis: B = I, so binv = I, den = 1 and xb = b."""
        m = self.m
        self.basis = list(range(self.n_std, self.n_std + m))
        self.binv = [[0] * m for _ in range(m)]
        for i, row in enumerate(self.binv):
            row[i] = 1
        self.level = [1] * m
        self.den = 1
        self.xb = list(self.b)
        self.real_rows = 0

    def _phase1(self) -> bool:
        """Whether phase 1 reaches a feasible basis: every artificial at zero."""
        # the artificial of row i in units of the L-scaled row
        obj1 = [0] * self.n_std + [-(self.scale * g // d) for _, d, g in self.row_scale]
        self._run(obj1)
        return not any(obj1[j] * x for j, x in zip(self.basis, self.xb))

    # -- starts from a support

    def _complete(self, support) -> bool:
        """The exact completion of support from the unit basis: each
        column in order enters the first row still held by an artificial
        that its direction touches (a column touching none depends on
        those before).  Whether the basis reached is feasible, with
        every artificial at zero."""
        self._start_all_artificial()
        for j in support:
            d = self._direction(j)
            r = self._artificial_row(d)
            if r is not None:
                self._pivot(j, r, d)
        return all(x >= 0 and (x == 0 or j < self.n_std) for x, j in zip(self.xb, self.basis))

    def _try_crash(self) -> list[int] | None:
        """A HiGHS solve's support, largest values first; None when scipy
        does not import or HiGHS fails."""
        highs = _highs()
        if highs is None:
            return None
        np, optimize, csc_matrix = highs
        # the rational (sign-flipped) data, each value correctly rounded
        rows, cols_idx, data = [], [], []
        for i, (row, (_, d, g)) in enumerate(zip(self.rows, self.row_scale)):
            rows += [i] * len(row)
            for j, v in row.items():
                cols_idx.append(j)
                data.append(v * g / d)
        A = csc_matrix(
            (data, (rows, cols_idx)), shape=(self.m, self.n_std), dtype=float
        )
        c = np.array([-(v / self.obj_scale) for v in self.obj[: self.n_std]])
        b = np.array([v * g / d for v, (_, d, g) in zip(self.b, self.row_scale)])
        try:
            res = optimize.linprog(c, A_eq=A, b_eq=b, method="highs")
        except Exception:
            return None
        if not res.success or res.x is None:
            return None
        return sorted(
            (j for j in range(self.n_std) if res.x[j] > 1e-9),
            key=lambda j: (-res.x[j], j),
        )

    # -- public

    def solve(self, start: Sequence[int] | None = None) -> LPSolution:
        """From the completion of start, a support, when one is given and
        its completed basis is kept; else from the all-artificial start
        and phase 1, which raises InvariantViolation when no feasible
        basis is reached."""
        if start is None or not self._complete(start):
            self._start_all_artificial()
            if not self._phase1():
                raise InvariantViolation("the program is infeasible")
        self._run(self.obj)
        x = self._assignment()
        # undo the row scales, the objective scale and den
        y = self._map_dual(self._duals(self.obj), self.obj_scale * self.den)
        failure, value = _optimality(self.lp, x, y)
        if failure is not None:
            raise InvariantViolation(f"optimality certificate failed verification: {failure}")
        return LPSolution(assignment=tuple(x), objective=value, dual=tuple(y))

    def _assignment(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n_real
        for r in range(self.m):
            if self.basis[r] < self.n_real:
                x[self.basis[r]] = Fraction(self.xb[r], self.den)
        return x

    def _map_dual(self, y_std, den: int) -> list[Fraction]:
        """Original-row duals y_std / den, with the row scales and flips
        undone."""
        return [
            Fraction(sign * d * v, g * den) for v, (sign, d, g) in zip(y_std, self.row_scale)
        ]


def _start(program: LinearProgram, x) -> list[int]:
    """x, a proposed point of program, as a start: its support, largest
    values first, then the slack of each inequality row it leaves slack,
    numbered as _Engine numbers it.  Entries past program's columns are
    dropped, as a proposal is never trusted."""
    point = {t: v for t, v in zip(range(program.n_vars), x) if v}
    start = sorted(point, key=lambda t: (-point[t], t))
    slack = program.n_vars
    for coeffs, rel, rhs, _ in program.rows:
        if rel != EQ:
            if sum(a * point[t] for t, a in coeffs.items() if t in point) != rhs:
                start.append(slack)
            slack += 1
    return start


def solve(lp: LinearProgram, *, propose: tuple | None = None) -> LPSolution:
    """lp's certified optimum, from the start picked here; lp is read,
    never changed.  lp must be feasible and bounded: one that is not
    raises InvariantViolation naming the outcome, as a failed check does.

    propose is (x, y): a point of lp, and a dual, one entry per row of
    lp, or None.  If y is given and check_optimal accepts (x, y), that
    is the answer, as given, with c.x from the check, and no engine is
    built.  A refused proposal is never returned.  lp then starts from
    x, as it does whenever y is None: from x's support, completed
    exactly (_start), never from a floating-point solve.  A basic
    feasible point of lp restricted to some of its columns, padded with
    zeros, always completes.  A proposal is never trusted, so none is
    checked to come from lp, and one holding anything but ints and
    Fractions is a ValidationError.  Without propose, the floating-point
    start is tried exactly when lp has a row, is at least
    _CRASH_THRESHOLD rows x columns and scipy imports (_highs)."""
    if propose is None:
        engine = _Engine(lp)
        big = len(lp.rows) * max(lp.n_vars, 1) >= _CRASH_THRESHOLD
        return engine.solve(engine._try_crash() if lp.rows and big else None)
    x, y = propose
    if y is not None:
        failure, value = _optimality(lp, x, y)
        if failure is None:
            return LPSolution(assignment=tuple(x), objective=value, dual=tuple(y))
    if (failure := _inexact(() if y is None else y, "y") or _inexact(x, "x")) is not None:
        raise ValidationError(failure)
    return _Engine(lp).solve(_start(lp, x))
