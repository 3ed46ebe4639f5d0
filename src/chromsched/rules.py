"""Priority rules and machine-selection policies for the list scheduler.

The ATC family scores a candidate assignment of one operation to one
machine; higher is better.  ATCS multiplies in a setup penalty, ATCOEE an
occupation-efficiency reward (value-adding time over total machine time
consumed), ATCOEEF a flexibility penalty.  EDD, LFO and RANDOM are
baselines.  A machine policy narrows the candidates before the rule scores
them (`list_scheduler._select_pool`): FFM to the first-freed machines
(minimal clock), LFM to the least-loaded ones, a machine's load being its
clock plus each schedulable operation's processing time divided by the
operation's number of eligible machines.

A `Candidate` names its machine and operation by `engine.compile_instance`
indices and carries every number a rule reads, so rules look nothing up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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


#: The scaling constants each rule reads, in the order an algorithm token
#: gives them: 'atcoee.2.5' is ATCOEE with k1=2, k2=5.
RULE_CONSTANTS: dict[Rule, tuple[str, ...]] = {
    Rule.RANDOM: (),
    Rule.EDD: (),
    Rule.ATC: ("k1",),
    Rule.ATCS: ("k1", "k2"),
    Rule.ATCOEE: ("k1", "k2"),
    Rule.ATCOEEF: ("k1", "k2", "k3"),
    Rule.LFO: (),
}


@dataclass(frozen=True)
class RuleParams:
    """Rule choice plus the k1/k2/k3 scaling constants (all finite, > 0).

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
        if not all(0 < k < math.inf for k in (self.k1, self.k2, self.k3)):
            raise ValueError("k1, k2, k3 must be positive and finite")

    def label(self) -> str:
        """Canonical name: the optional 'lfm_' prefix, the rule and the
        constants it reads, e.g. 'atcoee.10.1', 'atc.10' or 'lfm_lfo'."""
        def fmt(k: float) -> str:
            return str(int(k)) if float(k).is_integer() else str(k)

        prefix = "lfm_" if self.machine_policy is MachinePolicy.LFM else ""
        return ".".join([prefix + self.rule.value] + [
            fmt(getattr(self, name)) for name in RULE_CONSTANTS[self.rule]])


class _CandidateFields(NamedTuple):
    machine: int
    op: int
    start: int
    completion: int
    setup_required: bool
    machine_clock: int
    due: int
    processing: int
    setup: int
    flexibility: int


class Candidate(_CandidateFields):
    """A possible assignment of operation `op` to `machine`, both indices of
    the `CompiledInstance`, with its earliest timing.

    `start` is the setup start when `setup_required`, else the processing
    start; `machine_clock` is the machine's availability date when the
    candidate was computed; `due` is the owning job's due date; `processing`
    and `setup` are the operation's durations and `flexibility` its number
    of eligible machines.  An immutable named tuple whose natural order,
    (machine, op) first, is the (machine id, job id, operation id) order.
    """

    __slots__ = ()

    def __new__(cls, machine: int, op: int, start: int, completion: int,
                setup_required: bool, machine_clock: int, due: int,
                processing: int, setup: int, flexibility: int):
        if completion <= start:
            raise ValueError(
                f"candidate op {op} on machine {machine}: empty interval")
        return tuple.__new__(cls, (machine, op, start, completion,
                                   setup_required, machine_clock, due,
                                   processing, setup, flexibility))


def atc_priority(c: Candidate, p_bar: float, params: RuleParams) -> float:
    """(1/p) * exp(-slack / (k1 * p_bar)) with slack clamped at zero."""
    slack = c.due - c.processing - c.machine_clock
    if slack < 0:
        slack = 0
    return math.exp(-slack / (params.k1 * p_bar)) / c.processing


def atcs_priority(c: Candidate, p_bar: float, s_bar: float,
                  params: RuleParams) -> float:
    """ATC with a setup penalty exp(-s/(k2*s_bar)) when a setup is required.

    A candidate that avoids the setup (same family as the machine's last
    operation) pays nothing.
    """
    base = atc_priority(c, p_bar, params)
    s_eff = c.setup if c.setup_required else 0
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
            f"candidate op {c.op} on machine {c.machine}: completion before clock")
    oee = c.processing / span
    return atc_priority(c, p_bar, params) * math.exp(oee / params.k2)


def atcoeef_priority(c: Candidate, p_bar: float, total_machines: int,
                     params: RuleParams) -> float:
    """ATCOEE times exp(-Fl/k3), Fl = |eligible| / total machine count."""
    fl = c.flexibility / total_machines
    return atcoee_priority(c, p_bar, params) * math.exp(-fl / params.k3)


def select_assignment(candidates: list[Candidate], params: RuleParams,
                      rng: random.Random, *, p_bar: float, s_bar: float,
                      total_machines: int) -> Candidate:
    """Pick the candidate the rule scores best.

    `candidates` is the pool the machine policy has already narrowed; the
    rule alone decides among them.  `p_bar`/`s_bar` are the mean processing
    and setup durations over the not-yet-scheduled operations.  Ties break
    on candidate order, (machine, op) first, so selection is deterministic
    for a given rng state.
    """
    if not candidates:
        raise ValueError("empty candidate list")

    pool = sorted(candidates)

    rule = params.rule
    if rule is Rule.RANDOM:
        return pool[rng.randrange(len(pool))]
    if rule is Rule.EDD:
        return min(pool, key=lambda c: c.due)
    if rule is Rule.LFO:
        return min(pool, key=lambda c: c.flexibility)

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
