"""Simulated annealing over an operation list and a machine assignment.

A solution is a list of operation indices and a machine for each
operation; `engine.place_sequences` decodes it by serial schedule
generation under all constraints.  Neighbors move either single operations
or packs (maximal same-family runs on one machine with no setup or idle gap
inside) by insertion or exchange; the first moved item is drawn with
probability proportional to its share of the total tardiness, and the
second is looked for between the first item's ready date and its current
start.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
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


class _PackInfo(NamedTuple):
    """A pack: a maximal run seq[lo:hi] of same-family operations on one
    machine with no setup or idle gap between consecutive members (a single
    operation is a pack too).  `weight` sums its members' tardiness shares."""

    machine: int
    lo: int
    hi: int
    family: int
    start: int
    ready: int
    mask: int
    machines: tuple[int, ...]
    weight: float
    index: int


class _Solution:
    """A decoded solution with the lookups proposals need; `decode` is the
    base the next proposal's decode resumes from.  With `previous`, the
    solution whose decode is `decode`'s base, only the weights of the jobs
    of operations `decode` searched are recomputed: every other operation
    kept its completion."""

    __slots__ = ("decode", "seqs", "tardiness", "starts", "comps", "setups",
                 "machine_of", "weights", "op_cum", "op_total",
                 "_packs", "_packs_flat", "_pack_cum", "_pack_total")

    def __init__(self, ci: CompiledInstance, decode,
                 previous: _Solution | None = None):
        self.decode = decode
        self.seqs = decode.seqs
        self.tardiness = decode.tardiness
        self.starts = decode.starts
        self.comps = decode.comps
        self.setups = decode.setups
        self.machine_of = decode.machine_of
        if previous is None:
            weights = _op_weights(ci, decode.comps)
        else:
            weights = previous.weights[:]
            job = ci.job
            for j in {job[o] for o in decode.searched}:
                _job_weights(ci, decode.comps, j, weights)
        self.weights = weights
        self.op_cum = list(accumulate(weights))
        self.op_total = self.op_cum[-1] if self.op_cum else 0.0
        self._packs = None
        self._packs_flat = None
        self._pack_cum = None
        self._pack_total = 0.0

    def pack_data(self, ci: CompiledInstance):
        """Packs per machine, all packs in machine order, and the cumulative
        pack weights with their total; computed on first use."""
        if self._packs is None:
            op_w = self.op_cum
            packs: list[list[_PackInfo]] = []
            flat: list[_PackInfo] = []
            starts, comps, setups = self.starts, self.comps, self.setups
            mask_machines = ci._mask_machines
            for m, seq in enumerate(self.seqs):
                per_machine: list[_PackInfo] = []
                i = 0
                while i < len(seq):
                    k = i + 1
                    while (k < len(seq) and not setups[seq[k]]
                           and starts[seq[k]] == comps[seq[k - 1]]):
                        k += 1
                    members = seq[i:k]
                    mask = ci.eligible_mask[members[0]]
                    ready = ci.release[members[0]]
                    o = members[0]
                    weight = op_w[o] - (op_w[o - 1] if o else 0.0)
                    for o in members[1:]:
                        mask &= ci.eligible_mask[o]
                        r = ci.release[o]
                        if r < ready:
                            ready = r
                        weight += op_w[o] - (op_w[o - 1] if o else 0.0)
                    machines = mask_machines.get(mask)
                    if machines is None:
                        machines = mask_machines[mask] = tuple(
                            mm for mm in range(ci.n_machines)
                            if mask & (1 << mm))
                    per_machine.append(_PackInfo(
                        m, i, k, ci.family[members[0]], starts[members[0]],
                        ready, mask, machines, weight, len(per_machine)))
                    i = k
                packs.append(per_machine)
                flat.extend(per_machine)
            self._packs = packs
            self._packs_flat = flat
            self._pack_cum = list(accumulate(p.weight for p in flat))
            self._pack_total = self._pack_cum[-1] if self._pack_cum else 0.0
        return self._packs, self._packs_flat, self._pack_cum, self._pack_total


def _op_weights(ci: CompiledInstance, comps) -> list[float]:
    """Selection weight of each operation: its share of total tardiness.

    A job's tardiness is split over its late-finishing operations in
    proportion to their own lateness, so the weights sum to the schedule's
    total tardiness and on-time operations get weight zero.
    """
    weights = [0.0] * ci.n_ops
    for j in range(len(ci.job_ops)):
        _job_weights(ci, comps, j, weights)
    return weights


def _job_weights(ci: CompiledInstance, comps, j: int,
                 weights: list[float]) -> None:
    """Write job j's operations' weights (see `_op_weights`) into `weights`."""
    ops = ci.job_ops[j]
    due = ci.job_due[j]
    worst = comps[ops[0]]
    for o in ops:
        if comps[o] > worst:
            worst = comps[o]
    job_tardiness = worst - due
    if job_tardiness <= 0:
        for o in ops:
            weights[o] = 0.0
        return
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


def _attempt(ci: CompiledInstance, sol: _Solution, move: _Move,
             rng: random.Random):
    """One draw of a first item (an operation or a pack) and the move to a
    second item drawn uniformly from the admissible ones that start between
    the first item's ready date and its start, as `_move` returns it; None
    when there is none."""
    exchanging, by_op, need_family, machine_choice = move
    if by_op:
        o1 = _draw_index(sol.op_cum, sol.op_total, rng)
        m1 = sol.machine_of[o1]
        lo1 = sol.seqs[m1].index(o1)
        hi1 = lo1 + 1
        ready, s1, fam1 = ci.release[o1], sol.starts[o1], ci.family[o1]
        eligible = ci.eligible[o1]
    else:
        packs, flat, cum, total = sol.pack_data(ci)
        if total <= 0:
            return None
        p1 = flat[_draw_index(cum, total, rng)]
        m1, lo1, hi1 = p1.machine, p1.lo, p1.hi
        if machine_choice == "idem":
            per_machine = packs[m1]
            if p1.index + 1 >= len(per_machine):
                return None
            succ = per_machine[p1.index + 1]
            return _move(sol.decode, m1, succ.lo, succ.hi, m1, lo1, hi1,
                         True)
        ready, s1, fam1, eligible = p1.ready, p1.start, p1.family, p1.machines
    if s1 <= ready:
        return None
    if machine_choice == "em":
        machines = eligible
    else:
        machines = (eligible[rng.randrange(len(eligible))],)
    m1_bit = 1 << m1
    cands = []
    if by_op:
        family, eligible_mask, starts = ci.family, ci.eligible_mask, sol.starts
        for m in machines:
            for pos, o2 in enumerate(sol.seqs[m]):
                st = starts[o2]
                if st >= s1:
                    break
                if st < ready:
                    continue
                if need_family and family[o2] != fam1:
                    continue
                if exchanging and not eligible_mask[o2] & m1_bit:
                    continue
                cands.append((m, pos, pos + 1))
    else:
        for m in machines:
            for q in packs[m]:
                if q.start >= s1:
                    break
                if q.start < ready:
                    continue
                if need_family and q.family != fam1:
                    continue
                if exchanging and not q.mask & m1_bit:
                    continue
                cands.append((m, q.lo, q.hi))
    if not cands:
        return None
    m2, lo2, hi2 = cands[rng.randrange(len(cands))]
    return _move(sol.decode, m1, lo1, hi1, m2, lo2, hi2, exchanging)


def _propose(ci: CompiledInstance, sol: _Solution, move: _Move,
             rng: random.Random):
    """The list, assignment and first changed position one `move` away from
    `sol` (see `_move`), or None when `_RESAMPLE_LIMIT` draws find no
    admissible second item."""
    for _ in range(_RESAMPLE_LIMIT):
        proposal = _attempt(ci, sol, move, rng)
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
    if current.tardiness < best_tardiness:
        best_tardiness = current.tardiness
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
                delta = new_tardiness - current.tardiness
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
        currents.append(current.tardiness)
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
