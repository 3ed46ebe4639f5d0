"""Simulated annealing over an operation list and a machine assignment.

A solution is a list of operation indices and a machine for each
operation; `engine.place_sequences` decodes it by serial schedule
generation under all constraints.  Neighbors move either single operations
or packs (maximal same-family runs on one machine with no setup or idle gap
inside) by insertion or exchange.  The first moved item is drawn with
probability proportional to its share of the total tardiness (a pack
through the member drawn so, found on demand); the second is looked for
between the first item's ready date and its current start.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import NamedTuple

from .engine import (CompiledInstance, compile_instance, place_sequences,
                     schedule_from_arrays)
from .errors import NoSlotError
from .model import Instance, Schedule, total_tardiness, validate_schedule


class Structure(str, Enum):
    SIMPLE = "simple"
    OP = "op"
    OP_PA = "op_pa"


class _Move(NamedTuple):
    """A row of the move table: exchange the first item with the second, or
    insert it before; move single operations, or packs; require the second
    item's family to equal the first's; look for the second item on every
    eligible machine ("em"), on one drawn uniformly ("unif"), or take the
    pack that follows the first on its machine ("idem")."""

    exchange: bool
    op: bool
    same_family: bool
    machines: str


#: Each structure's move rows.  OP+PA's are the paper's rows 1-7, OP's are
#: rows 1-3 and SIMPLE's is row 3.  Row 7 swaps the drawn pack with the pack
#: that follows it on its machine; it searches no ready-date window as the
#: other rows do.
_MOVES: dict[Structure, tuple[_Move, ...]] = {Structure.OP_PA: (
    _Move(False, True, True, "em"),      # 1
    _Move(True, True, True, "em"),       # 2
    _Move(False, True, False, "unif"),   # 3
    _Move(False, False, True, "em"),     # 4
    _Move(True, False, True, "em"),      # 5
    _Move(False, False, False, "unif"),  # 6
    _Move(True, False, False, "idem"),   # 7
)}
_MOVES[Structure.OP] = _MOVES[Structure.OP_PA][:3]
_MOVES[Structure.SIMPLE] = _MOVES[Structure.OP_PA][2:3]

#: Draws of a first item a proposal makes before it counts as failed.
_RESAMPLE_LIMIT = 50

#: The fixed annealing schedule; `run_sa` says how it reads each constant.
_DESCENT_ITERATIONS = 100
_PLATEAU_ITERATIONS = 400
_PLATEAU_ACCEPTANCES = 80
_DEAD_LEVELS = 3
_INITIAL_ACCEPT_PROB = 0.8


@dataclass(frozen=True)
class SaParams:
    """Neighborhood structure, cooling factor and iteration budget
    (`max_iterations`, descent included; None = unlimited)."""

    structure: Structure = Structure.OP_PA
    cooling_factor: float = 0.95
    max_iterations: int | None = 15000

    def __post_init__(self):
        object.__setattr__(self, "structure", Structure(self.structure))
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be None, 0 or more")


def initial_temperature(mean_delta: float, accept_prob: float) -> float:
    """Temperature making a mean-sized degradation acceptable with the
    given probability: solves exp(-mean_delta/T) = accept_prob."""
    if mean_delta <= 0:
        raise ValueError("mean_delta must be positive")
    if not 0.0 < accept_prob < 1.0:
        raise ValueError("accept_prob must be in (0, 1)")
    return mean_delta / -math.log(accept_prob)


# ---------------------------------------------------------------------------
# Internal solution state and proposal machinery.


class _Solution:
    """A decode and the draw table its proposals read: each operation's
    share of the total tardiness (`weights`), their running sums (`op_cum`)
    and their total (`op_total`).  `decode` is the base the next proposal's
    decode resumes from.  Only the jobs of `decode.changed` are reweighed:
    with `previous`, the solution whose decode is `decode`'s base, every
    other operation kept its completion and keeps its weight; without, the
    decode must have no base, so every operation is changed."""

    __slots__ = ("decode", "weights", "op_cum", "op_total")

    def __init__(self, ci: CompiledInstance, decode,
                 previous: _Solution | None = None):
        self.decode = decode
        weights = [0.0] * ci.n_ops if previous is None else previous.weights[:]
        job = ci.job
        for j in {job[o] for o in decode.changed}:
            _job_weights(ci, decode, j, weights)
        self.weights = weights
        self.op_cum = list(accumulate(weights))
        self.op_total = self.op_cum[-1] if self.op_cum else 0.0


def _job_weights(ci: CompiledInstance, decode, j: int,
                 weights: list[float]) -> None:
    """Write job j's operations' selection weights into `weights`: the job's
    tardiness split over its late-finishing operations in proportion to
    their own lateness, so the weights sum to the schedule's total
    tardiness and on-time operations get weight zero."""
    ops = ci.job_ops[j]
    job_tardiness = decode.job_tardiness[j]
    if not job_tardiness:
        for o in ops:
            weights[o] = 0.0
        return
    due, comps = ci.job_due[j], decode.comps
    total = 0
    for o in ops:
        late = comps[o] - due
        if late > 0:
            total += late
    for o in ops:
        late = comps[o] - due
        weights[o] = job_tardiness * late / total if late > 0 else 0.0


def _draw_index(cum: list[float], total: float, rng: random.Random) -> int:
    """Index drawn with probability proportional to its weight in `cum`."""
    idx = bisect_right(cum, rng.random() * total)
    return min(idx, len(cum) - 1)


def _move(base, m1: int, lo1: int, hi1: int, m2: int, lo2: int, hi2: int,
          exchanging: bool):
    """The list and assignment in which the block base.seqs[m1][lo1:hi1] is
    inserted before, or exchanged with, the block base.seqs[m2][lo2:hi2],
    and `first`, the first list position at which they differ from `base`'s.

    Insertion puts the first block's members, contiguous, just before the
    second block's first operation, on that block's machine.  Exchange puts
    each block, contiguous, at the other's first slot, on the other's
    machine.  Both blocks are non-empty, and on one machine the second must
    be the earlier one (hi2 <= lo1), so each machine's sequence changes as
    if the blocks were cut out and spliced in.  `first` is the smaller of
    the two blocks' first positions: a slot before it is untouched, and at
    it either another operation stands or, for an insertion across
    machines, the same one on another machine.
    """
    order, pos_of = base.order, base.pos_of
    a = base.seqs[m1][lo1:hi1]
    b = base.seqs[m2][lo2:hi2]
    machine_of = base.machine_of[:]
    for o in a:
        machine_of[o] = m2
    # the list's edits: the operations each edited slot holds instead
    edits = dict.fromkeys(map(pos_of.__getitem__, a), ())
    i, j = pos_of[a[0]], pos_of[b[0]]
    if exchanging:
        for o in b:
            machine_of[o] = m1
            edits[pos_of[o]] = ()
        edits[i], edits[j] = b, a
    else:
        edits[j] = a + b[:1]
    new, prev = [], 0
    for p in sorted(edits):
        new += order[prev:p]
        new += edits[p]
        prev = p + 1
    new += order[prev:]
    return new, machine_of, min(i, j)


def _pack_end(sol: _Solution, seq: list[int], i: int) -> int:
    """The first position at or after i (0 < i) that does not continue the
    pack of seq[i - 1]: one that sets up or starts later than its
    predecessor's completion, or len(seq)."""
    d = sol.decode
    starts, comps, setups = d.starts, d.comps, d.setups
    n = len(seq)
    while i < n and not setups[seq[i]] and starts[seq[i]] == comps[seq[i - 1]]:
        i += 1
    return i


def _pack_of(sol: _Solution, seq: list[int], p: int) -> tuple[int, int]:
    """(lo, hi) of the pack seq[lo:hi] that holds position p: the maximal
    same-family run around it with no setup or idle gap inside (no setup
    means the family of the previous operation on the machine)."""
    d = sol.decode
    starts, comps, setups = d.starts, d.comps, d.setups
    lo = p
    while lo and not setups[seq[lo]] and starts[seq[lo]] == comps[seq[lo - 1]]:
        lo -= 1
    return lo, _pack_end(sol, seq, p + 1)


def _second_items(ci: CompiledInstance, sol: _Solution, move: _Move, m1: int,
                  fam1: int, ready: int, s1: int, machines) -> list[tuple]:
    """The (machine, lo, hi) blocks `move` may take as its second item for a
    first item of family `fam1` on machine `m1`: the operations, or packs,
    on `machines` that start in [ready, s1), of family `fam1` when the move
    requires it, and, for an exchange, all eligible on `m1`.  Each machine
    is listed from the first block that starts at or after `ready`, found
    by bisection (starts rise along a sequence)."""
    exchanging, by_op, need_family, _ = move
    d, family, eligible_mask = sol.decode, ci.family, ci.eligible_mask
    starts = d.starts
    start_of = starts.__getitem__
    m1_bit = 1 << m1
    cands = []
    for m in machines:
        seq = d.seqs[m]
        i = bisect_left(seq, ready, key=start_of)
        if by_op:
            for pos in range(i, bisect_left(seq, s1, i, key=start_of)):
                o2 = seq[pos]
                if need_family and family[o2] != fam1:
                    continue
                if exchanging and not eligible_mask[o2] & m1_bit:
                    continue
                cands.append((m, pos, pos + 1))
            continue
        if i:  # skip the rest of a pack that started before `ready`
            i = _pack_end(sol, seq, i)
        n = len(seq)
        while i < n and starts[seq[i]] < s1:
            k = _pack_end(sol, seq, i + 1)
            if ((not need_family or family[seq[i]] == fam1)
                    and (not exchanging or all(eligible_mask[o2] & m1_bit
                                               for o2 in seq[i:k]))):
                cands.append((m, i, k))
            i = k
    return cands


def _attempt(ci: CompiledInstance, sol: _Solution, move: _Move,
             rng: random.Random, failed: set):
    """One draw of a first item and the move to a second item drawn
    uniformly from `_second_items`, as `_move` returns it; None when there
    is none.

    The first item is an operation drawn in proportion to its tardiness
    share or, for a pack row, the pack that holds it, found on demand; a
    pack is thus drawn with the sum of its members' shares.  Row 7 takes
    the pack that follows the drawn one on its machine.  `failed` holds the
    first items (with the drawn machine, for a "unif" row) that found no
    second item before, for a reason no later draw can change; a repeat is
    refused after the same random draws, with no scan, and a new one is
    added."""
    exchanging, by_op, _, machine_choice = move
    o1 = _draw_index(sol.op_cum, sol.op_total, rng)
    if o1 in failed:
        return None
    d = sol.decode
    m1 = d.machine_of[o1]
    seq = d.seqs[m1]
    lo1 = seq.index(o1)
    if by_op:
        hi1 = lo1 + 1
        ready = ci.release[o1]
    else:
        lo1, hi1 = _pack_of(sol, seq, lo1)
        if machine_choice == "idem":
            if hi1 == len(seq):
                failed.add(o1)
                return None
            return _move(d, m1, hi1, _pack_end(sol, seq, hi1 + 1),
                         m1, lo1, hi1, True)
        ready = min(map(ci.release.__getitem__, seq[lo1:hi1]))
    s1 = d.starts[seq[lo1]]
    if s1 <= ready:
        failed.add(o1)
        return None
    eligible = ci.eligible[o1]
    if hi1 - lo1 > 1:  # a pack moves only to machines all its members allow
        mask = -1
        for o in seq[lo1:hi1]:
            mask &= ci.eligible_mask[o]
        eligible = tuple(m for m in eligible if mask >> m & 1)
    if machine_choice == "em":
        machines, key = eligible, o1
    else:
        m = eligible[rng.randrange(len(eligible))]
        machines, key = (m,), (o1, m)
        if key in failed:
            return None
    cands = _second_items(ci, sol, move, m1, ci.family[o1], ready, s1,
                          machines)
    if not cands:
        failed.add(key)
        return None
    m2, lo2, hi2 = cands[rng.randrange(len(cands))]
    return _move(d, m1, lo1, hi1, m2, lo2, hi2, exchanging)


def _propose(ci: CompiledInstance, sol: _Solution, move: _Move,
             rng: random.Random):
    """The list, assignment and first changed position one `move` away from
    `sol` (see `_move`), or None when `_RESAMPLE_LIMIT` draws find no
    admissible second item."""
    failed = set()
    for _ in range(_RESAMPLE_LIMIT):
        proposal = _attempt(ci, sol, move, rng, failed)
        if proposal is not None:
            return proposal
    return None


# ---------------------------------------------------------------------------
# The annealing run.


@dataclass
class SaResult:
    """Best schedule found plus run statistics and the per-iteration trace
    (iteration, temperature, current tardiness, best tardiness).

    The trace is kept as three parallel columns, one entry per iteration,
    so row i is iteration i + 1; `trace` builds the rows.

    `termination` is "optimum", "max-iterations" or "dead-levels" (see
    `run_sa`).
    """

    schedule: Schedule
    tardiness: int
    initial_tardiness: int
    initial_temperature: float
    iterations: int
    evaluated: int
    accepted: int
    improved: int
    proposal_failures: int
    decode_failures: int
    levels_completed: int
    termination: str
    _temperatures: list[float] = field(repr=False, default_factory=list)
    _currents: list[int] = field(repr=False, default_factory=list)
    _bests: list[int] = field(repr=False, default_factory=list)

    @property
    def trace(self) -> list[tuple[int, float, int, int]]:
        return list(zip(range(1, len(self._temperatures) + 1),
                        self._temperatures, self._currents, self._bests))


def run_sa(instance: Instance, initial: Schedule,
           params: SaParams | None = None, seed: int = 0) -> SaResult:
    """Anneal from a feasible initial schedule; never returns worse.

    Raises ValueError naming the first violation when `validate_schedule`
    rejects `initial`, or the first operation that starts before the
    horizon origin.

    The search starts from `initial`'s operations in (start, machine,
    operation) order, each on its machine, and the decode of that list
    never raises: it starts and ends every operation no later than
    `initial` does.  By induction over the list: each machine runs its
    operations in `initial`'s order, so it sets up exactly where `initial`
    must, and an operation's occupation is no longer than in `initial`.
    Its machine's clock, the decoded completion of the previous operation
    there, is at most that operation's completion in `initial`, so at most
    the operation's start there, and so are its release and the origin.
    Every operation placed before it started no later in `initial`, so at
    any minute from the operation's start in `initial` on, such an
    operation holds a column unit in the decode only if it held one in
    `initial`, where the operation itself held another.  That start is
    thus free for the whole occupation, and inside an operator window when
    the operation sets up, so the search returns it or an earlier one.

    The first `_DESCENT_ITERATIONS` proposals are a pure descent whose mean
    absolute tardiness change calibrates the starting temperature so a
    mean-sized degradation is accepted with `_INITIAL_ACCEPT_PROB`.  After
    it, any non-worsening neighbor is accepted and worse ones with
    probability exp(-delta/T), cooling geometrically per level.  A level
    ends after `_PLATEAU_ITERATIONS` proposals or `_PLATEAU_ACCEPTANCES`
    acceptances; the run stops after `_DEAD_LEVELS` levels in a row with no
    acceptance, at `params.max_iterations`, or at zero tardiness.
    """
    violations = validate_schedule(instance, initial)
    if violations:
        raise ValueError(f"infeasible initial schedule: {violations[0]}")
    for p in initial.placements:
        if p.start < instance.horizon_origin:
            raise ValueError(
                f"infeasible initial schedule: {p.operation_id} starts at "
                f"{p.start}, before the horizon origin "
                f"{instance.horizon_origin}")
    params = params or SaParams()
    ci = compile_instance(instance)
    rng = random.Random(seed)
    moves = _MOVES[params.structure]
    n_moves = len(moves)

    initial_tardiness = total_tardiness(initial, instance)
    best_tardiness = initial_tardiness
    best = None  # None = the initial schedule as given, else a decode
    temperatures: list[float] = []
    currents: list[int] = []
    bests: list[int] = []
    evaluated = accepted = improved = 0
    proposal_failures = decode_failures = 0
    levels_completed = 0
    iteration = 0

    def result(termination: str, t0: float) -> SaResult:
        if best is None:
            schedule = initial
        else:
            schedule = schedule_from_arrays(ci, best.seqs, best.starts,
                                            best.comps, best.setups)
        return SaResult(
            schedule=schedule, tardiness=best_tardiness,
            initial_tardiness=initial_tardiness, initial_temperature=t0,
            iterations=iteration, evaluated=evaluated, accepted=accepted,
            improved=improved, proposal_failures=proposal_failures,
            decode_failures=decode_failures, levels_completed=levels_completed,
            termination=termination, _temperatures=temperatures,
            _currents=currents, _bests=bests)

    if initial_tardiness == 0:
        return result("optimum", 0.0)

    placements = sorted(initial.placements,
                        key=lambda p: (p.start, p.machine, p.operation_id))
    order = [ci.op_index[p.operation_id] for p in placements]
    machine_of = [0] * ci.n_ops
    for o, p in zip(order, placements):
        machine_of[o] = ci.machine_index[p.machine]
    current = _Solution(ci, place_sequences(ci, order, machine_of))
    if current.decode.tardiness < best_tardiness:
        best_tardiness = current.decode.tardiness
        best = current.decode

    def budget_left() -> bool:
        return params.max_iterations is None or iteration < params.max_iterations

    t0 = temperature = None  # None while descending
    abs_delta_sum = 0.0
    abs_delta_count = 0
    level_iterations = level_acceptances = dead_run = 0
    while True:
        if temperature is None and (iteration >= _DESCENT_ITERATIONS
                                    or not budget_left()):
            mean_delta = abs_delta_sum / abs_delta_count if abs_delta_count else 0.0
            # Degenerate neighborhoods (every observed delta zero) get a nominal
            # temperature; the acceptance rule never consults it for delta <= 0.
            t0 = temperature = (
                initial_temperature(mean_delta, _INITIAL_ACCEPT_PROB)
                if mean_delta > 0 else 1.0)
            level_acceptances = 0  # descent acceptances open no level
        if best_tardiness == 0:
            return result("optimum", t0 or 0.0)
        if not budget_left():
            return result("max-iterations", t0)
        iteration += 1
        proposal = _propose(ci, current, moves[rng.randrange(n_moves)], rng)
        if proposal is None:
            proposal_failures += 1
        else:
            order, machine_of, first = proposal
            try:
                placed = place_sequences(ci, order, machine_of, current.decode,
                                         first)
            except NoSlotError:
                decode_failures += 1
            else:
                evaluated += 1
                new_tardiness = placed.tardiness
                delta = new_tardiness - current.decode.tardiness
                if temperature is None:
                    abs_delta_sum += abs(delta)
                    abs_delta_count += 1
                    take = delta < 0
                else:
                    take = (delta <= 0
                            or rng.random() < math.exp(-delta / temperature))
                if take:
                    accepted += 1
                    level_acceptances += 1
                    current = _Solution(ci, placed, current)
                    if new_tardiness < best_tardiness:
                        improved += 1
                        best_tardiness = new_tardiness
                        best = placed
        temperatures.append(temperature or 0.0)
        currents.append(current.decode.tardiness)
        bests.append(best_tardiness)
        if temperature is None:
            continue
        level_iterations += 1
        if (level_iterations >= _PLATEAU_ITERATIONS
                or level_acceptances >= _PLATEAU_ACCEPTANCES):
            dead_run = dead_run + 1 if level_acceptances == 0 else 0
            levels_completed += 1
            temperature *= params.cooling_factor
            level_iterations = 0
            level_acceptances = 0
            if dead_run >= _DEAD_LEVELS:
                return result("dead-levels", t0)
