"""Simulated annealing over per-machine operation sequences.

A solution is one ordered sequence of operation indices per machine;
`engine.place_sequences` decodes it by forward placement under all constraints.
Neighbors move either single operations or packs (maximal same-family runs
with no setup or idle gap inside) by insertion or exchange; the first moved
item is drawn with probability proportional to its share of the total
tardiness, and the second is looked for between the first item's ready date
and its current start.
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
                     schedule_from_arrays, sequences_from_schedule)
from .errors import NoSlotError
from .model import Instance, Schedule, total_tardiness


class MoveType(str, Enum):
    INSERT = "insert"
    EXCHANGE = "exchange"


class ItemKind(str, Enum):
    OP = "op"
    PACK = "pack"


class MachineChoice(str, Enum):
    IDEM = "idem"
    EM = "em"
    UNIF = "unif"


class Structure(str, Enum):
    SIMPLE = "simple"
    OP = "op"
    OP_PA = "op_pa"


@dataclass(frozen=True)
class Mechanism:
    """One neighbor-generation mechanism (a row of the move table)."""

    id: int
    move: MoveType
    item: ItemKind
    same_family: bool
    machine_choice: MachineChoice


#: The eight move mechanisms.  Rows 0 and 3 are intentionally identical:
#: row 0 is reserved for the SIMPLE structure, rows 1-7 form OP and OP+PA.
#: Row 7 (IDEM) swaps the drawn pack with the pack that follows it on
#: its machine; it searches no ready-date window as the other rows do.
MECHANISMS: tuple[Mechanism, ...] = (
    Mechanism(0, MoveType.INSERT, ItemKind.OP, False, MachineChoice.UNIF),
    Mechanism(1, MoveType.INSERT, ItemKind.OP, True, MachineChoice.EM),
    Mechanism(2, MoveType.EXCHANGE, ItemKind.OP, True, MachineChoice.EM),
    Mechanism(3, MoveType.INSERT, ItemKind.OP, False, MachineChoice.UNIF),
    Mechanism(4, MoveType.INSERT, ItemKind.PACK, True, MachineChoice.EM),
    Mechanism(5, MoveType.EXCHANGE, ItemKind.PACK, True, MachineChoice.EM),
    Mechanism(6, MoveType.INSERT, ItemKind.PACK, False, MachineChoice.UNIF),
    Mechanism(7, MoveType.EXCHANGE, ItemKind.PACK, False, MachineChoice.IDEM),
)

STRUCTURE_MECHANISMS: dict[Structure, tuple[int, ...]] = {
    Structure.SIMPLE: (0,),
    Structure.OP: (1, 2, 3),
    Structure.OP_PA: (1, 2, 3, 4, 5, 6, 7),
}

#: Draws of a first item a proposal makes before it counts as failed.
_RESAMPLE_LIMIT = 50


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule and neighborhood-structure parameters.

    A temperature level ends after `plateau_iterations` proposals or
    `plateau_acceptances` accepted ones; the run stops after `dead_levels`
    consecutive levels without any acceptance, at `max_iterations` total
    (descent included; None = unlimited), or at zero tardiness.
    """

    structure: Structure = Structure.OP_PA
    cooling_factor: float = 0.95
    descent_iterations: int = 100
    plateau_iterations: int = 400
    plateau_acceptances: int = 80
    initial_accept_prob: float = 0.8
    max_iterations: int | None = 15000
    dead_levels: int = 3

    def __post_init__(self):
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if not 0.0 < self.initial_accept_prob < 1.0:
            raise ValueError("initial_accept_prob must be in (0, 1)")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be None, 0 or more")
        if self.descent_iterations < 0:
            raise ValueError("descent_iterations must be 0 or more")
        for name in ("plateau_iterations", "plateau_acceptances", "dead_levels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be 1 or more")


def initial_temperature(mean_delta: float, accept_prob: float = 0.8) -> float:
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
    base the next proposal's decode resumes from."""

    __slots__ = ("decode", "seqs", "tardiness", "starts", "comps", "setups",
                 "machine_of", "pos_of", "op_cum", "op_total",
                 "_packs", "_packs_flat", "_pack_cum", "_pack_total")

    def __init__(self, ci: CompiledInstance, decode):
        self.decode = decode
        self.seqs = decode.seqs
        self.tardiness = decode.tardiness
        self.starts = decode.starts
        self.comps = decode.comps
        self.setups = decode.setups
        n = ci.n_ops
        machine_of = [0] * n
        pos_of = [0] * n
        for m, seq in enumerate(decode.seqs):
            for pos, o in enumerate(seq):
                machine_of[o] = m
                pos_of[o] = pos
        self.machine_of = machine_of
        self.pos_of = pos_of
        weights = _op_weights(ci, decode.comps)
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
                    weight = _cum_at(op_w, members[0])
                    for o in members[1:]:
                        mask &= ci.eligible_mask[o]
                        r = ci.release[o]
                        if r < ready:
                            ready = r
                        weight += _cum_at(op_w, o)
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


def _cum_at(cum: list[float], i: int) -> float:
    return cum[i] - (cum[i - 1] if i else 0.0)


def _op_weights(ci: CompiledInstance, comps) -> list[float]:
    """Selection weight of each operation: its share of total tardiness.

    A job's tardiness is split over its late-finishing operations in
    proportion to their own lateness, so the weights sum to the schedule's
    total tardiness and on-time operations get weight zero.
    """
    weights = [0.0] * ci.n_ops
    job_due = ci.job_due
    for j, ops in enumerate(ci.job_ops):
        due = job_due[j]
        worst = comps[ops[0]]
        for o in ops:
            if comps[o] > worst:
                worst = comps[o]
        job_tardiness = worst - due
        if job_tardiness <= 0:
            continue
        total = 0
        for o in ops:
            late = comps[o] - due
            if late > 0:
                total += late
        for o in ops:
            late = comps[o] - due
            if late > 0:
                weights[o] = job_tardiness * late / total
    return weights


def _draw_index(cum: list[float], total: float, rng: random.Random) -> int:
    """Index drawn with probability proportional to its weight in `cum`."""
    idx = bisect_right(cum, rng.random() * total)
    return min(idx, len(cum) - 1)


def _move(seqs, m1: int, lo1: int, hi1: int, m2: int, lo2: int, hi2: int,
          exchanging: bool):
    """New per-machine sequences in which the block seqs[m1][lo1:hi1] is
    inserted before, or exchanged with, the block seqs[m2][lo2:hi2].

    On one machine the second block must be the earlier one (hi2 <= lo1).
    Machines the move leaves alone keep their list objects: a resumed
    decode tells changed machines by identity.
    """
    if not exchanging:
        hi2 = lo2  # an insertion exchanges with the empty block at lo2
    new = list(seqs)
    a, b = seqs[m1], seqs[m2]
    if m1 == m2:
        new[m1] = a[:lo2] + a[lo1:hi1] + a[hi2:lo1] + a[lo2:hi2] + a[hi1:]
    else:
        new[m1] = a[:lo1] + b[lo2:hi2] + a[hi1:]
        new[m2] = b[:lo2] + a[lo1:hi1] + b[hi2:]
    return new


def _attempt(ci: CompiledInstance, sol: _Solution, mech: Mechanism,
             rng: random.Random):
    """One draw of a first item (an operation or a pack) and the move to a
    second item drawn uniformly from the admissible ones that start between
    the first item's ready date and its start; None when there is none."""
    exchanging = mech.move is MoveType.EXCHANGE
    need_family = mech.same_family
    by_op = mech.item is ItemKind.OP
    if by_op:
        o1 = _draw_index(sol.op_cum, sol.op_total, rng)
        m1 = sol.machine_of[o1]
        lo1 = sol.pos_of[o1]
        hi1 = lo1 + 1
        ready, s1, fam1 = ci.release[o1], sol.starts[o1], ci.family[o1]
        eligible = ci.eligible[o1]
    else:
        packs, flat, cum, total = sol.pack_data(ci)
        if total <= 0:
            return None
        p1 = flat[_draw_index(cum, total, rng)]
        m1, lo1, hi1 = p1.machine, p1.lo, p1.hi
        if mech.machine_choice is MachineChoice.IDEM:
            per_machine = packs[m1]
            if p1.index + 1 >= len(per_machine):
                return None
            succ = per_machine[p1.index + 1]
            return _move(sol.seqs, m1, succ.lo, succ.hi, m1, lo1, hi1, True)
        ready, s1, fam1, eligible = p1.ready, p1.start, p1.family, p1.machines
    if s1 <= ready:
        return None
    if mech.machine_choice is MachineChoice.EM:
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
    return _move(sol.seqs, m1, lo1, hi1, m2, lo2, hi2, exchanging)


def _propose(ci: CompiledInstance, sol: _Solution, mech: Mechanism,
             rng: random.Random):
    """New per-machine sequences one `mech` move away from `sol`, or None
    when `_RESAMPLE_LIMIT` draws find no admissible second item."""
    for _ in range(_RESAMPLE_LIMIT):
        new_seqs = _attempt(ci, sol, mech, rng)
        if new_seqs is not None:
            return new_seqs
    return None


# ---------------------------------------------------------------------------
# The annealing run.


@dataclass
class SaResult:
    """Best schedule found plus run statistics and the per-iteration trace
    (iteration, temperature, current tardiness, best tardiness)."""

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
    trace: list[tuple[int, float, int, int]] = field(repr=False, default_factory=list)


def run_sa(instance: Instance, initial: Schedule,
           params: SaParams | None = None, seed: int = 0) -> SaResult:
    """Anneal from a feasible initial schedule; never returns worse.

    The first `descent_iterations` proposals are a pure descent whose mean
    absolute tardiness change calibrates the starting temperature so a
    mean-sized degradation is accepted with `initial_accept_prob`.  After
    it, any non-worsening neighbor is accepted and worse ones with
    probability exp(-delta/T), cooling geometrically per plateau.
    """
    params = params or SaParams()
    ci = compile_instance(instance)
    rng = random.Random(seed)
    mechs = [MECHANISMS[i] for i in STRUCTURE_MECHANISMS[params.structure]]
    n_mechs = len(mechs)

    initial_tardiness = total_tardiness(initial, instance)
    best_tardiness = initial_tardiness
    best = None  # None = the initial schedule as given, else a decode
    trace: list[tuple[int, float, int, int]] = []
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
            termination=termination, trace=trace)

    if initial_tardiness == 0:
        return result("optimum", 0.0)

    current = _Solution(
        ci, place_sequences(ci, sequences_from_schedule(ci, initial)))
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
        if temperature is None and (iteration >= params.descent_iterations
                                    or not budget_left()):
            mean_delta = abs_delta_sum / abs_delta_count if abs_delta_count else 0.0
            # Degenerate neighborhoods (every observed delta zero) get a nominal
            # temperature; the acceptance rule never consults it for delta <= 0.
            t0 = temperature = (
                initial_temperature(mean_delta, params.initial_accept_prob)
                if mean_delta > 0 else 1.0)
            level_acceptances = 0  # descent acceptances open no level
        if best_tardiness == 0:
            return result("optimum", t0 or 0.0)
        if not budget_left():
            return result("max-iterations", t0)
        iteration += 1
        mech = mechs[rng.randrange(n_mechs)]
        new_seqs = _propose(ci, current, mech, rng)
        if new_seqs is None:
            proposal_failures += 1
        else:
            try:
                placed = place_sequences(ci, new_seqs, base=current.decode)
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
                    current = _Solution(ci, placed)
                    if new_tardiness < best_tardiness:
                        improved += 1
                        best_tardiness = new_tardiness
                        best = placed
        trace.append((iteration, temperature or 0.0, current.tardiness,
                      best_tardiness))
        if temperature is None:
            continue
        level_iterations += 1
        if (level_iterations >= params.plateau_iterations
                or level_acceptances >= params.plateau_acceptances):
            dead_run = dead_run + 1 if level_acceptances == 0 else 0
            levels_completed += 1
            temperature *= params.cooling_factor
            level_iterations = 0
            level_acceptances = 0
            if dead_run >= params.dead_levels:
                return result("dead-levels", t0)
