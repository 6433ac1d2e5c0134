"""Exact output checks and their self-test.

Every check is a pure function of values a job produced and returns a
list of failure strings; an empty list means the output passed.  The
self-test plants one bad output per check and requires each to be
reported, so that a run with no failures shows the checks were able to
fail.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations


def grid_value(objective: Fraction, value: Fraction) -> list[str]:
    """evaluate_table of the extracted table equals the LP objective."""
    if value != objective:
        return [f"table evaluates to {value}, objective is {objective}"]
    return []


def grid_steps_equal(objectives: dict[int, Fraction]) -> list[str]:
    """Two-state forests with breakpoints and prior on the 1/10 grid: every
    step that refines 1/10 reaches the same optimum."""
    if len(set(objectives.values())) > 1:
        shown = ", ".join(f"1/{d}: {v}" for d, v in sorted(objectives.items()))
        return [f"objectives differ across steps ({shown})"]
    return []


def grid_refines(objectives: dict[int, Fraction]) -> list[str]:
    """A finer grid contains the coarser one, so its optimum is no lower."""
    steps = sorted(objectives)
    for coarse, fine in zip(steps, steps[1:]):
        if fine % coarse == 0 and objectives[fine] < objectives[coarse]:
            return [
                f"objective at 1/{fine} ({objectives[fine]}) is below "
                f"1/{coarse} ({objectives[coarse]})"
            ]
    return []


def expected_executions(scheme) -> int:
    """states x positive branches x q^keys, summed state by state."""
    branches = sum(
        1 for state in scheme.table.space.states for mass in scheme.table.rows[state] if mass
    )
    return branches * scheme.q**scheme.key_count


def honest_scheme(report, executions: int) -> list[str]:
    failures = []
    if not report.ok:
        failures.append(
            f"honest scheme not ok: {list(report.recovery_failures)[:2]} "
            f"{list(report.privacy_failures)[:2]}"
        )
    if not report.law_matches:
        failures.append("honest scheme law does not match the table")
    if report.execution_count != executions:
        failures.append(f"{report.execution_count} executions, expected {executions}")
    return failures


def mutant_scheme(report) -> list[str]:
    """A misrouted key must show up as a privacy failure and only as one."""
    failures = []
    if report.ok or not report.privacy_failures:
        failures.append("misrouted-key mutant passed privacy")
    if report.recovery_failures:
        failures.append(f"mutant shows recovery failures: {list(report.recovery_failures)[:2]}")
    return failures


def round_trip(original, loaded, what: str) -> list[str]:
    if original != loaded:
        return [f"{what} read back differs from the {what} written"]
    return []


def rendered_twice(first: str, second: str, what: str) -> list[str]:
    if first != second:
        return [f"second render of the {what} document differs"]
    return []


def min_union(sets, b: int) -> int:
    """Minimum union size over all b-subsets, by direct enumeration."""
    return min(len(frozenset().union(*pick)) for pick in combinations(sets, b))


def reduction(report_ok: bool, h: int, expected_h: int, value: Fraction, evaluated: Fraction) -> list[str]:
    failures = []
    if not report_ok:
        failures.append("verify_reduction is not ok")
    if h != expected_h:
        failures.append(f"h = {h}, enumeration gives {expected_h}")
    if value != evaluated:
        failures.append(f"reported value {value}, witness evaluates to {evaluated}")
    return failures


def _flip_byte(text: str) -> str:
    middle = len(text) // 2
    return text[:middle] + ("x" if text[middle] != "x" else "y") + text[middle + 1 :]


def self_test(samples: dict, checks) -> list[str]:
    """Plant one bad output per check on real outputs of this run.

    samples maps a check name to the arguments of one output that passed
    it; checks names the checks the workload uses.  Returns the checks
    that had no passing output to plant into, that failed to report
    their planted defect, or that rejected the unmodified output.
    """
    off = Fraction(1, 1000)
    plants = (
        (grid_value, "objective off by 1/1000", lambda objective, value: (objective, value + off)),
        (grid_steps_equal, "one step's objective off by 1/1000", lambda objectives: (
            {d: v + (off if d == min(objectives) else 0) for d, v in objectives.items()},
        )),
        (grid_refines, "finest step below the coarsest", lambda objectives: (
            {d: objectives[min(objectives)] - off if d == max(objectives) else v
             for d, v in objectives.items()},
        )),
        (honest_scheme, "honest report not ok", lambda report, executions: (
            replace(report, ok=False), executions,
        )),
        (honest_scheme, "honest law mismatch", lambda report, executions: (
            replace(report, law_matches=False), executions,
        )),
        (honest_scheme, "execution count off by one", lambda report, executions: (
            report, executions + 1,
        )),
        (mutant_scheme, "mutant reported ok", lambda report: (
            replace(report, ok=True, privacy_failures=(), recovery_failures=()),
        )),
        (mutant_scheme, "mutant with a recovery failure", lambda report: (
            replace(report, recovery_failures=("planted",)),
        )),
        (round_trip, "slots reordered on read-back", lambda original, loaded, what: (
            original, replace(loaded, slots=tuple(reversed(loaded.slots))), what,
        )),
        (rendered_twice, "one byte changed", lambda first, second, what: (
            first, _flip_byte(second), what,
        )),
        (reduction, "reduction not ok", lambda ok, h, eh, value, ev: (False, h, eh, value, ev)),
        (reduction, "h off by one", lambda ok, h, eh, value, ev: (ok, h + 1, eh, value, ev)),
        (reduction, "value off by one", lambda ok, h, eh, value, ev: (ok, h, eh, value + 1, ev)),
    )
    missed = [f"{check}: no passing output to plant into" for check in checks if check not in samples]
    for check, defect, plant in plants:
        args = samples.get(check.__name__)
        if check.__name__ not in checks or args is None:
            continue
        if check(*args):
            missed.append(f"{check.__name__}: rejects the output it passed in the run")
        elif not check(*plant(*args)):
            missed.append(f"{check.__name__}: {defect} not reported")
    return missed
