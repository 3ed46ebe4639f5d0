"""Priority rules and machine-selection policies for the list scheduler.

The ATC family scores a candidate assignment of one operation to one
machine; higher is better.  ATCS multiplies in a setup penalty, ATCOEE an
occupation-efficiency reward (value-adding time over total machine time
consumed), ATCOEEF a flexibility penalty.  EDD, LFO and RANDOM are
baselines.  Machine policies first narrow the candidate set: FFM to the
first-freed machine (minimal clock), LFM to the machine with the fewest
schedulable operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .model import Operation


class Rule(str, Enum):
    RANDOM = "random"
    EDD = "edd"
    ATC = "atc"
    ATCS = "atcs"
    ATCOEE = "atcoee"
    ATCOEEF = "atcoeef"
    LFO = "lfo"


class MachinePolicy(str, Enum):
    FFM = "ffm"
    LFM = "lfm"


@dataclass(frozen=True)
class RuleParams:
    """Rule choice plus the k1/k2/k3 scaling constants (all > 0).

    k1 scales the slack horizon (in mean processing times), k2 the setup or
    efficiency exponent, k3 the flexibility exponent.  Defaults are the
    best-performing high-load configuration.
    """

    rule: Rule = Rule.ATCOEE
    machine_policy: MachinePolicy = MachinePolicy.FFM
    k1: float = 10.0
    k2: float = 1.0
    k3: float = 10.0

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0 or self.k3 <= 0:
            raise ValueError("k1, k2, k3 must be positive")

    def label(self) -> str:
        """Canonical name, e.g. 'atcoee.10.1' or 'lfm_lfo'."""
        def fmt(k: float) -> str:
            return str(int(k)) if float(k).is_integer() else str(k)

        rule = self.rule.value
        if self.machine_policy is MachinePolicy.LFM:
            rule = f"lfm_{rule}"
        if self.rule in (Rule.ATC,):
            return rule
        if self.rule in (Rule.ATCS, Rule.ATCOEE):
            return f"{rule}.{fmt(self.k1)}.{fmt(self.k2)}"
        if self.rule is Rule.ATCOEEF:
            return f"{rule}.{fmt(self.k1)}.{fmt(self.k2)}.{fmt(self.k3)}"
        return rule


class _CandidateFields(NamedTuple):
    operation: Operation
    machine: str
    start: int
    completion: int
    setup_required: bool
    machine_clock: int
    due: int
    release: int = 0


class Candidate(_CandidateFields):
    """A possible (operation, machine) assignment with its earliest timing.

    `start` is the setup start when `setup_required`, else the processing
    start; `machine_clock` is the machine's availability date when the
    candidate was computed; `release` and `due` are the owning job's dates.

    An immutable named tuple: the list scheduler builds one for every pool
    entry on every loop, and a tuple costs a fraction of a frozen dataclass
    to build.  Like any tuple it compares equal to a tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, operation: Operation, machine: str, start: int,
                completion: int, setup_required: bool, machine_clock: int,
                due: int, release: int = 0):
        if completion <= start:
            raise ValueError(
                f"candidate {operation.id}@{machine}: empty interval")
        return tuple.__new__(cls, (operation, machine, start, completion,
                                   setup_required, machine_clock, due, release))


def atc_priority(c: Candidate, p_bar: float, params: RuleParams) -> float:
    """(1/p) * exp(-slack / (k1 * p_bar)) with slack clamped at zero."""
    slack = c.due - c.operation.processing - c.machine_clock
    if slack < 0:
        slack = 0
    return math.exp(-slack / (params.k1 * p_bar)) / c.operation.processing


def atcs_priority(c: Candidate, p_bar: float, s_bar: float,
                  params: RuleParams) -> float:
    """ATC with a setup penalty exp(-s/(k2*s_bar)) when a setup is required.

    A candidate that avoids the setup (same family as the machine's last
    operation) pays nothing.
    """
    base = atc_priority(c, p_bar, params)
    s_eff = c.operation.setup if c.setup_required else 0
    if s_eff == 0 or s_bar <= 0:
        return base
    return base * math.exp(-s_eff / (params.k2 * s_bar))


def atcoee_priority(c: Candidate, p_bar: float, params: RuleParams) -> float:
    """ATC times exp(OEE/k2), OEE = processing / (completion - clock).

    OEE is 1 when the machine spends no time on setup or waiting and decays
    as the assignment consumes idle or setup time.
    """
    span = c.completion - c.machine_clock
    if span <= 0:
        raise ValueError(
            f"candidate {c.operation.id}@{c.machine}: completion before clock")
    oee = c.operation.processing / span
    return atc_priority(c, p_bar, params) * math.exp(oee / params.k2)


def atcoeef_priority(c: Candidate, p_bar: float, total_machines: int,
                     params: RuleParams) -> float:
    """ATCOEE times exp(-Fl/k3), Fl = |eligible| / total machine count."""
    flexibility = len(c.operation.eligible) / total_machines
    return atcoee_priority(c, p_bar, params) * math.exp(-flexibility / params.k3)


def _canonical_key(c: Candidate) -> tuple[str, str, str]:
    return (c.machine, c.operation.job_id, c.operation.id)


def select_assignment(candidates: list[Candidate], params: RuleParams,
                      rng: random.Random, *, p_bar: float, s_bar: float,
                      total_machines: int) -> Candidate:
    """Pick one candidate: machine policy first, then the rule.

    `p_bar`/`s_bar` are the mean processing and setup durations over the
    not-yet-scheduled operations.  Ties break on (machine id, job id,
    operation id) so selection is deterministic for a given rng state.
    """
    if not candidates:
        raise ValueError("empty candidate list")

    if params.machine_policy is MachinePolicy.FFM:
        best_clock = min(c.machine_clock for c in candidates)
        pool = [c for c in candidates if c.machine_clock == best_clock]
    else:
        # least flexible machine = minimal average potential load: clock
        # plus each schedulable operation's duration diluted by its
        # eligibility count.  A bare list-length count would keep one
        # machine "least flexible" while its clock runs away and starve
        # the rest of the shop.
        law: dict[str, float] = {}
        for c in candidates:
            share = c.operation.processing / len(c.operation.eligible)
            law[c.machine] = law.get(c.machine, c.machine_clock) + share
        least = min(law.values())
        pool = [c for c in candidates if law[c.machine] == least]
    pool.sort(key=_canonical_key)

    rule = params.rule
    if rule is Rule.RANDOM:
        return pool[rng.randrange(len(pool))]
    if rule is Rule.EDD:
        return min(pool, key=lambda c: c.due)
    if rule is Rule.LFO:
        return min(pool, key=lambda c: len(c.operation.eligible))

    if rule is Rule.ATC:
        score = lambda c: atc_priority(c, p_bar, params)
    elif rule is Rule.ATCS:
        score = lambda c: atcs_priority(c, p_bar, s_bar, params)
    elif rule is Rule.ATCOEE:
        score = lambda c: atcoee_priority(c, p_bar, params)
    elif rule is Rule.ATCOEEF:
        score = lambda c: atcoeef_priority(c, p_bar, total_machines, params)
    else:  # pragma: no cover
        raise ValueError(f"unknown rule {rule}")

    best = pool[0]
    best_score = score(best)
    for c in pool[1:]:
        s = score(c)
        if s > best_score:
            best, best_score = c, s
    return best
