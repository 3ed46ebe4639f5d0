"""Priority rules and machine-selection policies for the list scheduler.

The ATC family scores a candidate assignment of one operation to one
machine; higher is better.  ATCS multiplies in a setup penalty, ATCOEE an
occupation-efficiency reward (value-adding time over total machine time
consumed), ATCOEEF a flexibility penalty.  `select_assignment` builds one
scorer per call for its rule (`_scorer`, which has the formulas), with the
constants it multiplies by the means formed once.  EDD, LFO and RANDOM are
baselines.  A machine policy narrows the candidates before the rule scores
them (`list_scheduler._select_pool`): FFM to the first-freed machines
(minimal clock), LFM to the least-loaded ones, a machine's load being its
clock plus each schedulable operation's processing time divided by the
operation's number of eligible machines.  LFM counts every open operation
eligible on the machine, whether or not it has a slot this round.

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
        object.__setattr__(self, "rule", Rule(self.rule))
        object.__setattr__(self, "machine_policy",
                           MachinePolicy(self.machine_policy))
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


class Candidate(NamedTuple):
    """A possible assignment of operation `op` to `machine`, both indices of
    the `CompiledInstance`, with its earliest timing.

    `start` is the setup start when `setup_required`, else the processing
    start; `machine_clock` is the machine's availability date when the
    candidate was computed; `due` is the owning job's due date; `processing`
    and `setup` are the operation's durations and `flexibility` its number
    of eligible machines.  Its natural order, (machine, op) first, is the
    (machine id, job id, operation id) order.
    """

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


def _scorer(params: RuleParams, p_bar: float, s_bar: float,
            total_machines: int):
    """The ATC-family rule's score of a candidate; higher is better.

    ATC is (1/p) * exp(-slack / (k1 * p_bar)), the slack
    due - p - clock clamped at zero.  ATCS multiplies in
    exp(-s / (k2 * s_bar)) when the candidate needs a setup and s and
    s_bar are positive; a candidate that continues its machine's family
    pays nothing.  ATCOEE multiplies ATC by exp(OEE / k2), the occupation
    efficiency OEE = p / (completion - clock) being 1 when the machine
    spends no time on setup or waiting (the completion is at least the
    clock plus p).  ATCOEEF multiplies ATCOEE by exp(-Fl / k3),
    Fl = |eligible| / total machine count.  The products k1 * p_bar and
    k2 * s_bar are formed once; every score takes the same float steps in
    the same order as the formulas written out.
    """
    rule = params.rule
    exp = math.exp
    kp = params.k1 * p_bar
    k2, k3 = params.k2, params.k3
    ks = k2 * s_bar
    setups = rule is Rule.ATCS and s_bar > 0
    oee = rule is Rule.ATCOEE or rule is Rule.ATCOEEF
    flex = rule is Rule.ATCOEEF

    def score(c):
        _, _, _, completion, setup_required, clock, due, p, s, fl = c
        slack = due - p - clock
        if slack < 0:
            slack = 0
        v = exp(-slack / kp) / p
        if setups and setup_required and s != 0:
            v = v * exp(-s / ks)
        if oee:
            v = v * exp(p / (completion - clock) / k2)
        if flex:
            v = v * exp(-(fl / total_machines) / k3)
        return v

    return score


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
    pool = sorted(candidates)

    rule = params.rule
    if rule is Rule.RANDOM:
        return pool[rng.randrange(len(pool))]
    if rule is Rule.EDD:
        return min(pool, key=lambda c: c.due)
    if rule is Rule.LFO:
        return min(pool, key=lambda c: c.flexibility)
    # max keeps the first of equal scores, so ties break on pool order
    return max(pool, key=_scorer(params, p_bar, s_bar, total_machines))
