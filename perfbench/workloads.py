"""The four workloads: seeded inputs, the job each input runs, its checks.

A job is the chain of public library calls that the matching command
line handlers make, run on inputs generated here from the seed; the
library sees only those inputs.  Every job's output is checked against
an exact oracle (see oracles.py).  Spans wrap each call into a library
module; they cost nothing in the untraced run.  Probes run only in the
traced run, outside the job spans, and split work that a job performs
inside a single library call.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Any

import oracles
from mcpersuasion import forest, lp
from mcpersuasion.dominance import (
    dominance_set,
    domination_graph,
    is_superior,
    sperner_structure,
)
from mcpersuasion.forest import (
    PosteriorGrid,
    SignalingTable,
    build_grid_lp,
    evaluate_table,
    extract_table,
    solve_fptas,
    solve_grid,
)
from mcpersuasion.hardness import (
    BUnionInstance,
    build_reduction,
    min_b_union,
    verify_reduction,
)
from mcpersuasion.io import (
    bunion_from_doc,
    bunion_to_doc,
    channel_scheme_from_doc,
    channel_scheme_to_doc,
    load_document,
    render_document,
    structure_from_doc,
    table_from_doc,
    table_to_doc,
    write_document,
)
from mcpersuasion.model import (
    AdditiveUtility,
    CommunicationStructure,
    ConstantUtility,
    PersuasionInstance,
    PiecewiseUtility,
    Prior,
    StateSpace,
    instance_to_doc,
    merge_duplicate_receivers,
    validate_instance,
)
from mcpersuasion.sharing import (
    emulate_private_subset,
    enumerate_executions,
    transport_scheme,
    verify_scheme,
)

F = Fraction
BIN = StateSpace(("0", "1"))
TRI = StateSpace(("0", "1", "2"))
UNIFORM = Prior(BIN, (F(1, 2), F(1, 2)))
SCIPY = all(importlib.util.find_spec(m) for m in ("numpy", "scipy"))


@dataclass
class Job:
    kind: str
    data: Any
    group: Any = None  # jobs sharing a group are checked together once all ran
    last_in_group: bool = True


def record(samples, check, *args):
    """Run an oracle; keep the first passing arguments for the self-test."""
    failures = check(*args)
    if not failures:
        samples.setdefault(check.__name__, args)
    return failures


def identity(k: int) -> CommunicationStructure:
    return CommunicationStructure(
        tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    )


# ---------------------------------------------------------------------------
# grid2 and grid3: solve_fptas followed by evaluate_table


CHAIN2 = CommunicationStructure(((1, 1), (0, 1)))
CHAIN3 = CommunicationStructure(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
STAR3 = CommunicationStructure(((1, 1, 1), (0, 1, 0), (0, 0, 1)))


def _piecewise(rng, state, denominator):
    """Criterion-5 utility: 1 to 3 breakpoints on the 1/denominator grid,
    piece values 0..6."""
    count = rng.randint(1, 3)
    breaks = sorted(rng.sample([F(i, denominator) for i in range(1, denominator)], count))
    values = tuple(F(rng.randint(0, 6)) for _ in range(count + 1))
    return PiecewiseUtility(state=state, breakpoints=tuple(breaks), values=values)


def two_state_forest(rng, structure):
    high = F(rng.randint(1, 9), 10)
    return PersuasionInstance(
        space=BIN,
        prior=Prior(BIN, (1 - high, high)),
        structure=structure,
        utilities=AdditiveUtility(tuple(_piecewise(rng, "1", 10) for _ in range(structure.k))),
    )


def three_state_chain(rng):
    a, b = sorted(rng.sample(range(1, 8), 2))
    return PersuasionInstance(
        space=TRI,
        prior=Prior(TRI, (F(a, 8), F(b - a, 8), F(8 - b, 8))),
        structure=CHAIN2,
        utilities=AdditiveUtility(
            tuple(_piecewise(rng, rng.choice(TRI.states), 8) for _ in range(2))
        ),
    )


def default_route(program) -> str:
    """The basis route lp.solve takes by default: the scipy crash start
    for programs at or above the library's size threshold when scipy
    imports, the all-artificial two-phase start otherwise."""
    threshold = getattr(lp, "_CRASH_THRESHOLD", None)
    if threshold is None:
        return "unknown"
    big = program.n_constraints * max(program.n_vars, 1) >= threshold
    return "crash" if big and SCIPY else "pure"


def exact_rank(program) -> int:
    """Rank of the constraint matrix by elimination in exact rationals."""
    pivots: list[tuple[int, dict]] = []
    for row, _, _ in program.constraints:
        row = dict(row)
        for column, pivot in pivots:
            factor = row.get(column)
            if factor:
                for j, v in pivot.items():
                    updated = row.get(j, 0) - factor * v
                    if updated:
                        row[j] = updated
                    else:
                        row.pop(j, None)
        if row:
            column = min(row)
            lead = row[column]
            pivots.append((column, {j: v / lead for j, v in row.items()}))
    return len(pivots)


@contextmanager
def _replayed(glp, solution):
    """Inside, forest.solve_grid takes the given program and LP solution
    instead of building and solving again, so timing it times only the
    read-back and validation that follow the solve."""
    used = []

    class ReplayLP:
        OPTIMAL = lp.OPTIMAL

        @staticmethod
        def solve(program, *args, **kwargs):
            used.append("solve")
            return solution

    def replay_build(instance, grid):
        used.append("build")
        return glp

    saved = forest.build_grid_lp, forest.lp
    forest.build_grid_lp, forest.lp = replay_build, ReplayLP
    try:
        yield
    finally:
        forest.build_grid_lp, forest.lp = saved
    if sorted(used) != ["build", "solve"]:
        raise RuntimeError("solve_grid no longer builds and solves through forest.build_grid_lp and forest.lp")


class GridWorkload:
    """Instances solved at several unit-fraction steps each; a job is one
    (instance, step)."""

    name = ""
    instance_s = 1.0  # time of one instance with all its steps here, for sizing

    def __init__(self):
        self._objectives: dict[int, dict[int, Fraction]] = {}
        self._ranks: dict[tuple, int] = {}

    def instance(self, index, rng):
        """The index-th instance and the steps (denominators) it runs at."""
        raise NotImplementedError

    def inputs(self, rng, seconds):
        jobs = []
        for index in range(max(1, round(seconds / self.instance_s))):
            instance, steps = self.instance(index, rng)
            for position, step in enumerate(steps):
                jobs.append(
                    Job(
                        kind=f"{instance.k}r@1/{step}",
                        data=(instance, step),
                        group=index,
                        last_in_group=position == len(steps) - 1,
                    )
                )
        return jobs

    def warmup(self, rng):
        """A two-state chain at step 1/20: small, and on the crash route,
        so it pays lp's lazy scipy import."""
        return Job(kind="warmup", data=(two_state_forest(rng, CHAIN2), 20), group="warmup")

    def run(self, job, tr, work):
        instance, step = job.data
        with tr.span("forest.solve_fptas"):
            solution, table = solve_fptas(instance, F(1, step))
        with tr.span("forest.evaluate_table"):
            value = evaluate_table(table, instance)
        return {"objective": solution.objective, "value": value, "step": solution.step}

    def check(self, job, out, samples):
        instance, step = job.data
        failures = []
        if out["step"] != F(1, step):
            failures.append(f"solved at step {out['step']}, asked for 1/{step}")
        failures += record(samples, oracles.grid_value, out["objective"], out["value"])
        objectives = self._objectives.setdefault(job.group, {})
        objectives[step] = out["objective"]
        if job.last_in_group:
            del self._objectives[job.group]
            failures += self.group_check(objectives, samples)
        return failures

    def group_check(self, objectives, samples):
        raise NotImplementedError

    def probe(self, job, out, tr):
        """Split one solve into build, LP solve, certificate re-check,
        read-back and table extraction, on the job's own input."""
        instance, step = job.data
        grid = PosteriorGrid(instance.space.size, step)
        with tr.span("forest.build_grid_lp"):
            glp = build_grid_lp(instance, grid)
        program = glp.program
        route = default_route(program)
        with tr.span(f"lp.solve.{route}"):
            solution = lp.solve(program)
        with tr.span("lp.check_optimal"):
            certified = lp.check_optimal(program, solution.assignment, solution.dual)
        with _replayed(glp, solution), tr.span("forest.readback"):
            grid_solution = solve_grid(instance, grid)
        with tr.span("forest.extract_table"):
            extract_table(grid_solution, instance)
        key = (instance.structure, instance.space.size, step)
        if key not in self._ranks:
            self._ranks[key] = exact_rank(program)
        tr.count("lp.rows", program.n_constraints)
        tr.count("lp.cols", program.n_vars)
        tr.count("lp.nnz", sum(len(row) for row, _, _ in program.constraints))
        tr.count("lp.rows_implied", program.n_constraints - self._ranks[key])
        tr.count("forest.grid_points", len(glp.points))
        failures = [] if certified else ["returned LP certificate fails check_optimal"]
        if solution.objective != out["objective"]:
            failures.append("probe solve reached a different objective")
        return failures, {"route": route, "step": step, "rows": program.n_constraints}

    def route_of(self, job):
        instance, step = job.data
        return default_route(build_grid_lp(instance, PosteriorGrid(instance.space.size, step)).program)


class Grid2(GridWorkload):
    """Two-receiver chains at 1/10, 1/20 and 1/40; every seventh instance
    is a three-receiver forest, a chain or a root with two children, at
    1/10 and 1/20 only (at 1/40 they take 11-18 s each).  Chains carry
    most of the list because the forests' solve times are heavy-tailed:
    this keeps the run's figures steady across seeds."""

    name = "grid2"
    instance_s = 3.4
    checks = ("grid_value", "grid_steps_equal")

    def instance(self, index, rng):
        if index % 7 == 3:
            return two_state_forest(rng, rng.choice((CHAIN3, STAR3))), (10, 20)
        return two_state_forest(rng, CHAIN2), (10, 20, 40)

    def group_check(self, objectives, samples):
        return record(samples, oracles.grid_steps_equal, objectives)


class Grid3(GridWorkload):
    """Three-state two-receiver chains at 1/4 and 1/8."""

    name = "grid3"
    instance_s = 9.0
    checks = ("grid_value", "grid_refines")

    def instance(self, index, rng):
        return three_state_chain(rng), (4, 8)

    def group_check(self, objectives, samples):
        return record(samples, oracles.grid_refines, objectives)


# ---------------------------------------------------------------------------
# otp: share + verify-share on one-time-pad schemes


S0 = (F(1), F(0))
S1 = (F(0), F(1))

#: (receivers k on sperner_structure(k), key modulus q).  k = 6 at q = 3
#: (about 1.06M executions) is left out for its run time.
OTP_CASES = ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3))
#: transport_scheme from identity(k) shields every receiver, which
#: multiplies keys; only k = 4 at q = 2 stays near a thousand executions.
#: Three per case, spread through the list: half the list is jobs of
#: the same size, which steadies the run's figures.
TRANSPORT_CASE = (4, 2)
TRANSPORTS_PER_CASE = 3


def full_revelation(k):
    return SignalingTable(
        space=BIN,
        profiles=((S1,) * k, (S0,) * k),
        rows={"0": (F(0), F(1)), "1": (F(1), F(0))},
    )


def random_table(rng, k):
    """A seeded deterministic signal profile per state, so that every
    transport job enumerates the same number of executions."""
    per_state = {
        state: {tuple(rng.randint(0, 1) for _ in range(k)): F(1)} for state in BIN.states
    }
    return SignalingTable.from_signals(UNIFORM, per_state)


def constant_instance(structure):
    return PersuasionInstance(
        space=BIN,
        prior=UNIFORM,
        structure=structure,
        utilities=AdditiveUtility(tuple(ConstantUtility(F(1)) for _ in range(structure.k))),
    )


def misroute_keys(scheme, owner):
    """Move every key of owner's payload onto the payload's own channel,
    where the payload's co-observers read key and ciphertext together."""
    payload = next(s for s in scheme.slots if s.owner == owner)
    keys = set(payload.keys)
    return replace(
        scheme,
        slots=tuple(
            replace(s, channel=payload.channel) if s.owner is None and s.keys[0] in keys else s
            for s in scheme.slots
        ),
    )


class Otp:
    """Per case: the full subset and a seeded singleton through share and
    verify-share, and a misrouted-key mutant of the singleton scheme
    through the same document round trip, as a tampered file would be.
    Under full revelation every label is the state, so a full-subset
    scheme has nothing private to leak and its mutant is no negative
    control; a singleton's co-observers are entitled to nothing."""

    name = "otp"
    pass_s = 27.0
    checks = ("honest_scheme", "mutant_scheme", "round_trip", "rendered_twice")

    def inputs(self, rng, seconds):
        jobs = []
        for _ in range(max(1, round(seconds / self.pass_s))):
            for k, q in OTP_CASES:
                single = frozenset({rng.randrange(k)})
                jobs.append(Job(f"share-full k={k} q={q}", ("emulate", k, q, frozenset(range(k)))))
                jobs.append(Job(f"share-single k={k} q={q}", ("emulate", k, q, single)))
                jobs.append(Job(f"mutant k={k} q={q}", ("mutant", k, q, single)))
                tk, tq = TRANSPORT_CASE
                for _ in range(TRANSPORTS_PER_CASE):
                    table = random_table(rng, tk)
                    jobs.append(Job(f"transport k={tk} q={tq}", ("transport", tk, tq, table)))
        return jobs

    def warmup(self, rng):
        return Job("warmup", ("emulate", 4, 2, frozenset(range(4))))

    def run(self, job, tr, work):
        mode, k, q, arg = job.data
        structure = sperner_structure(k)
        instance = constant_instance(structure)
        if mode == "transport":
            table = arg
            private = identity(k)
            with tr.span("dominance.is_superior"):
                superior = is_superior(structure, private)
            with tr.span("sharing.build"):
                scheme = transport_scheme(private, structure, table, q=q)
        else:
            table = full_revelation(k)
            superior = None
            with tr.span("sharing.build"):
                scheme = emulate_private_subset(structure, arg, table, q=q)
        if mode == "mutant":
            scheme = misroute_keys(scheme, min(arg))
        path = os.path.join(work, "scheme.json")
        with tr.span("io.channel_scheme_to_doc"):
            doc = channel_scheme_to_doc(scheme)
        omitted = doc.get("executions_omitted", 0)
        with tr.span("io.write"):
            write_document(path, doc)
        del doc  # share ends here; verify-share starts from the file
        with tr.span("io.load"):
            loaded_doc = load_document(path)
        with tr.span("io.from_doc"):
            loaded = channel_scheme_from_doc(loaded_doc)
        del loaded_doc
        with tr.span("sharing.verify_scheme"):
            report = verify_scheme(loaded, structure, table, instance)
        return {
            "mode": mode,
            "scheme": scheme,
            "loaded": loaded,
            "report": report,
            "path": path,
            "omitted": omitted,
            "superior": superior,
        }

    def check(self, job, out, samples):
        report = out["report"]
        if out["mode"] == "mutant":
            failures = record(samples, oracles.mutant_scheme, report)
        else:
            failures = record(
                samples, oracles.honest_scheme, report, oracles.expected_executions(out["scheme"])
            )
        if out["superior"] is False:
            failures.append("sperner structure reported not superior to private channels")
        failures += record(samples, oracles.round_trip, out["scheme"], out["loaded"], "scheme")
        with open(out["path"], encoding="utf-8") as handle:
            written = handle.read()
        rerendered = render_document(channel_scheme_to_doc(out["scheme"]))
        failures += record(samples, oracles.rendered_twice, written, rerendered, "channel scheme")
        return failures

    def probe(self, job, out, tr):
        """One full pass of enumerate_executions over the job's scheme."""
        with tr.span("sharing.enumerate"):
            for _ in enumerate_executions(out["scheme"]):
                pass
        size = os.path.getsize(out["path"])
        tr.count("sharing.executions", out["report"].execution_count)
        tr.count("io.bytes_written", size)
        return [], {
            "executions": out["report"].execution_count,
            "bytes": size,
            "omitted": out["omitted"],
        }


# ---------------------------------------------------------------------------
# reduce: bunion + reduce --out + analyze on the criterion-8 family


def _family_blocks():
    """Criterion-8 family, without repeats: universe w <= 5, families of
    t <= 4 distinct nonempty subsets, every budget b in 1..t.  Yields
    (w, subsets, t, number of instances in the block)."""
    for w in range(1, 6):
        subsets = [
            frozenset(c) for size in range(1, w + 1) for c in combinations(range(1, w + 1), size)
        ]
        for t in range(1, min(4, len(subsets)) + 1):
            yield w, subsets, t, comb(len(subsets), t) * t


def _unrank_combination(n, t, rank):
    """The rank-th t-subset of range(n) in lexicographic order."""
    out = []
    start = 0
    for remaining in range(t, 0, -1):
        for first in range(start, n):
            block = comb(n - first - 1, remaining - 1)
            if rank < block:
                out.append(first)
                start = first + 1
                break
            rank -= block
    return out


def bunion_instance(index):
    for w, subsets, t, size in _family_blocks():
        if index < size:
            family_rank, b = divmod(index, t)
            picks = _unrank_combination(len(subsets), t, family_rank)
            return BUnionInstance(w=w, sets=tuple(subsets[i] for i in picks), b=b + 1)
        index -= size
    raise IndexError("index beyond the criterion-8 family")


FAMILY_SIZE = sum(size for *_, size in _family_blocks())


class Reduce:
    """Thousands of small jobs drawn uniformly from the criterion-8
    b-union family; never picked by outcome."""

    name = "reduce"
    job_s = 0.0075
    checks = ("reduction", "rendered_twice")

    def inputs(self, rng, seconds):
        count = max(1, round(seconds / self.job_s))
        return [
            Job("reduce", bunion_to_doc(bunion_instance(rng.randrange(FAMILY_SIZE))))
            for _ in range(count)
        ]

    def warmup(self, rng):
        return Job("warmup", bunion_to_doc(bunion_instance(rng.randrange(FAMILY_SIZE))))

    def run(self, job, tr, work):
        with tr.span("io.from_doc"):
            bunion = bunion_from_doc(job.data)
        with tr.span("hardness.min_b_union"):
            h, picks = min_b_union(bunion)
        with tr.span("hardness.build_reduction"):
            out = build_reduction(bunion)
        instance_path = os.path.join(work, "instance.json")
        witness_path = os.path.join(work, "witness.json")
        instance_doc = instance_to_doc(out.instance)
        witness_doc = table_to_doc(out.witness)
        with tr.span("io.write"):
            write_document(instance_path, instance_doc)
            write_document(witness_path, witness_doc)
        with tr.span("io.load"):
            loaded_instance = load_document(instance_path)
            loaded_witness = load_document(witness_path)
        with tr.span("model.validate_instance"):
            instance = validate_instance(loaded_instance)
        with tr.span("io.from_doc"):
            structure = structure_from_doc(loaded_instance)
            witness = table_from_doc(loaded_witness)
        with tr.span("dominance.analyze"):
            pairs = dominance_set(structure)
            merged, _ = merge_duplicate_receivers(structure)
            graph = domination_graph(merged)
        with tr.span("dominance.is_superior"):
            private = identity(structure.k)
            verdicts = (is_superior(private, structure), is_superior(structure, private))
        with tr.span("hardness.verify_reduction"):
            report = verify_reduction(out)
        with tr.span("forest.evaluate_table"):
            value = evaluate_table(witness, instance)
        return {
            "bunion": bunion,
            "h": h,
            "picks": picks,
            "out": out,
            "report": report,
            "value": value,
            "instance": instance,
            "witness": witness,
            "paths": (instance_path, witness_path),
            "pairs": pairs,
            "forest": graph.is_forest,
            "verdicts": verdicts,
        }

    def check(self, job, out, samples):
        bunion, reduction = out["bunion"], out["out"]
        failures = []
        expected_h = oracles.min_union(bunion.sets, bunion.b)
        failures += record(
            samples, oracles.reduction,
            out["report"].ok, reduction.h, expected_h, reduction.value, out["value"],
        )
        if out["h"] != reduction.h:
            failures.append(f"bunion gives h = {out['h']}, reduce gives {reduction.h}")
        if out["verdicts"][0] is not True:
            failures.append("private channels reported not superior")
        rerendered = (
            render_document(instance_to_doc(out["instance"])),
            render_document(table_to_doc(out["witness"])),
        )
        for path, again in zip(out["paths"], rerendered):
            with open(path, encoding="utf-8") as handle:
                written = handle.read()
            failures += record(samples, oracles.rendered_twice, written, again, os.path.basename(path))
        return failures

    def probe(self, job, out, tr):
        bunion = out["bunion"]
        tr.count("hardness.subsets", comb(bunion.t, bunion.b))
        tr.count("io.bytes_written", sum(os.path.getsize(p) for p in out["paths"]))
        return [], None


WORKLOADS = {w.name: w for w in (Grid2, Grid3, Otp, Reduce)}
