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


class DateChoice(str, Enum):
    UNIF = "unif"
    LATE = "late"


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
    date_choice: DateChoice


#: The eight move mechanisms.  Rows 0 and 3 are intentionally identical:
#: row 0 is reserved for the SIMPLE structure, rows 1-7 form OP and OP+PA.
MECHANISMS: tuple[Mechanism, ...] = (
    Mechanism(0, MoveType.INSERT, ItemKind.OP, False, MachineChoice.UNIF, DateChoice.UNIF),
    Mechanism(1, MoveType.INSERT, ItemKind.OP, True, MachineChoice.EM, DateChoice.UNIF),
    Mechanism(2, MoveType.EXCHANGE, ItemKind.OP, True, MachineChoice.EM, DateChoice.UNIF),
    Mechanism(3, MoveType.INSERT, ItemKind.OP, False, MachineChoice.UNIF, DateChoice.UNIF),
    Mechanism(4, MoveType.INSERT, ItemKind.PACK, True, MachineChoice.EM, DateChoice.UNIF),
    Mechanism(5, MoveType.EXCHANGE, ItemKind.PACK, True, MachineChoice.EM, DateChoice.UNIF),
    Mechanism(6, MoveType.INSERT, ItemKind.PACK, False, MachineChoice.UNIF, DateChoice.UNIF),
    Mechanism(7, MoveType.EXCHANGE, ItemKind.PACK, False, MachineChoice.IDEM, DateChoice.LATE),
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


class _PackInfo:
    """A pack: a maximal run seq[lo:hi] of same-family operations on one
    machine with no setup or idle gap between consecutive members (a single
    operation is a pack too).  `weight` sums its members' tardiness shares."""

    __slots__ = ("machine", "lo", "hi", "family", "start", "ready", "mask",
                 "machines", "weight", "index")

    def __init__(self, machine, lo, hi, family, start, ready, mask, machines,
                 weight, index):
        self.machine = machine
        self.lo = lo
        self.hi = hi
        self.family = family
        self.start = start
        self.ready = ready
        self.mask = mask
        self.machines = machines
        self.weight = weight
        self.index = index


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
        worst = -1
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


def _attempt_op(ci: CompiledInstance, sol: _Solution, mech: Mechanism,
                rng: random.Random):
    o1 = _draw_index(sol.op_cum, sol.op_total, rng)
    m1 = sol.machine_of[o1]
    ready = ci.release[o1]
    s1 = sol.starts[o1]
    if s1 <= ready:
        return None
    if mech.machine_choice is MachineChoice.IDEM:
        machines = (m1,)
    elif mech.machine_choice is MachineChoice.EM:
        machines = ci.eligible[o1]
    else:
        elig = ci.eligible[o1]
        machines = (elig[rng.randrange(len(elig))],)
    fam1 = ci.family[o1]
    need_family = mech.same_family
    exchanging = mech.move is MoveType.EXCHANGE
    m1_bit = 1 << m1
    family = ci.family
    eligible_mask = ci.eligible_mask
    starts = sol.starts
    cands = []
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
            cands.append((st, m, pos))
    if not cands:
        return None
    if mech.date_choice is DateChoice.LATE:
        best = cands[0]
        for c in cands[1:]:
            if c[0] > best[0]:
                best = c
        _, m2, i2 = best
    else:
        _, m2, i2 = cands[rng.randrange(len(cands))]
    i1 = sol.pos_of[o1]
    new = list(sol.seqs)
    if exchanging:
        if m1 == m2:
            s = list(new[m1])
            s[i1], s[i2] = s[i2], s[i1]
            new[m1] = s
        else:
            sa, sb = list(new[m1]), list(new[m2])
            sa[i1], sb[i2] = sb[i2], sa[i1]
            new[m1], new[m2] = sa, sb
    else:
        if m1 == m2:
            s = list(new[m1])
            s.pop(i1)
            s.insert(i2, o1)
            new[m1] = s
        else:
            sa = list(new[m1])
            sa.pop(i1)
            sb = list(new[m2])
            sb.insert(i2, o1)
            new[m1], new[m2] = sa, sb
    return new


def _attempt_pack(ci: CompiledInstance, sol: _Solution, mech: Mechanism,
                  rng: random.Random):
    packs, flat, cum, total = sol.pack_data(ci)
    if total <= 0:
        return None
    p1 = flat[_draw_index(cum, total, rng)]
    if mech.id == 7:
        per_machine = packs[p1.machine]
        if p1.index + 1 >= len(per_machine):
            return None
        succ = per_machine[p1.index + 1]
        seq = sol.seqs[p1.machine]
        new = list(sol.seqs)
        new[p1.machine] = (seq[:p1.lo] + seq[succ.lo:succ.hi]
                           + seq[p1.lo:p1.hi] + seq[succ.hi:])
        return new
    if p1.start <= p1.ready:
        return None
    if mech.machine_choice is MachineChoice.IDEM:
        machines = (p1.machine,)
    elif mech.machine_choice is MachineChoice.EM:
        machines = p1.machines
    else:
        machines = (p1.machines[rng.randrange(len(p1.machines))],)
    exchanging = mech.move is MoveType.EXCHANGE
    m1_bit = 1 << p1.machine
    cands = []
    for m in machines:
        for q in packs[m]:
            if q.start >= p1.start:
                break
            if q.start < p1.ready:
                continue
            if mech.same_family and q.family != p1.family:
                continue
            if exchanging and not q.mask & m1_bit:
                continue
            cands.append(q)
    if not cands:
        return None
    if mech.date_choice is DateChoice.LATE:
        p2 = cands[0]
        for q in cands[1:]:
            if q.start > p2.start:
                p2 = q
    else:
        p2 = cands[rng.randrange(len(cands))]
    new = list(sol.seqs)
    m1, m2 = p1.machine, p2.machine
    if exchanging:
        if m1 == m2:
            s = sol.seqs[m1]
            # p2 sits earlier on the same machine: p2.hi <= p1.lo
            new[m1] = (s[:p2.lo] + s[p1.lo:p1.hi] + s[p2.hi:p1.lo]
                       + s[p2.lo:p2.hi] + s[p1.hi:])
        else:
            sa, sb = sol.seqs[m1], sol.seqs[m2]
            new[m1] = sa[:p1.lo] + sb[p2.lo:p2.hi] + sa[p1.hi:]
            new[m2] = sb[:p2.lo] + sa[p1.lo:p1.hi] + sb[p2.hi:]
    else:
        block = sol.seqs[m1][p1.lo:p1.hi]
        if m1 == m2:
            s = list(sol.seqs[m1])
            del s[p1.lo:p1.hi]
            s[p2.lo:p2.lo] = block
            new[m1] = s
        else:
            sa = list(sol.seqs[m1])
            del sa[p1.lo:p1.hi]
            sb = list(sol.seqs[m2])
            sb[p2.lo:p2.lo] = block
            new[m1], new[m2] = sa, sb
    return new


def _propose(ci: CompiledInstance, sol: _Solution, mech: Mechanism,
             rng: random.Random, resample_limit: int):
    """New per-machine sequences one `mech` move away from `sol`, or None
    when `resample_limit` draws find no admissible second item."""
    attempt = _attempt_op if mech.item is ItemKind.OP else _attempt_pack
    for _ in range(resample_limit):
        new_seqs = attempt(ci, sol, mech, rng)
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

    Phase one is a pure descent over `descent_iterations` proposals whose
    mean absolute tardiness change calibrates the starting temperature so a
    mean-sized degradation is accepted with `initial_accept_prob`.  The main
    loop accepts any non-worsening neighbor and worse ones with probability
    exp(-delta/T), cooling geometrically per plateau.
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

    # Descent phase: improvements only, collecting the mean |delta|.
    abs_delta_sum = 0.0
    abs_delta_count = 0
    while iteration < params.descent_iterations and budget_left():
        if best_tardiness == 0:
            return result("optimum", 0.0)
        iteration += 1
        mech = mechs[rng.randrange(n_mechs)]
        new_seqs = _propose(ci, current, mech, rng, _RESAMPLE_LIMIT)
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
                abs_delta_sum += abs(delta)
                abs_delta_count += 1
                if delta < 0:
                    accepted += 1
                    current = _Solution(ci, placed)
                    if new_tardiness < best_tardiness:
                        improved += 1
                        best_tardiness = new_tardiness
                        best = placed
        trace.append((iteration, 0.0, current.tardiness, best_tardiness))

    mean_delta = abs_delta_sum / abs_delta_count if abs_delta_count else 0.0
    # Degenerate neighborhoods (every observed delta zero) get a nominal
    # temperature; the acceptance rule never consults it for delta <= 0.
    t0 = initial_temperature(mean_delta, params.initial_accept_prob) if mean_delta > 0 else 1.0
    temperature = t0

    level_iterations = 0
    level_acceptances = 0
    dead_run = 0
    while True:
        if best_tardiness == 0:
            return result("optimum", t0)
        if not budget_left():
            return result("max-iterations", t0)
        iteration += 1
        level_iterations += 1
        mech = mechs[rng.randrange(n_mechs)]
        new_seqs = _propose(ci, current, mech, rng, _RESAMPLE_LIMIT)
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
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    accepted += 1
                    level_acceptances += 1
                    current = _Solution(ci, placed)
                    if new_tardiness < best_tardiness:
                        improved += 1
                        best_tardiness = new_tardiness
                        best = placed
        trace.append((iteration, temperature, current.tardiness, best_tardiness))
        if (level_iterations >= params.plateau_iterations
                or level_acceptances >= params.plateau_acceptances):
            dead_run = dead_run + 1 if level_acceptances == 0 else 0
            levels_completed += 1
            temperature *= params.cooling_factor
            level_iterations = 0
            level_acceptances = 0
            if dead_run >= params.dead_levels:
                return result("dead-levels", t0)
