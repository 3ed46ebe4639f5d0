"""Total-tardiness scheduling for parallel analysis machines with
family-dependent setups, operator availability windows and a limited pool
of columns per family."""

__version__ = "0.1.0"

from .availability import TimeWindowSet, weekly_windows
from .annealing import (SaParams, SaResult, Structure, initial_temperature,
                        run_sa)
from .errors import (IncompleteScheduleError, InstanceFormatError,
                     NoSlotError, SchedulingError)
from .experiments import (AlgorithmSpec, EffectReport, Observation,
                          anova_effects, effect_to_ratio, parse_algorithm,
                          run_experiment)
from .generator import GenConfig, generate_design, generate_instance
from .jsonio import (read_instance, read_schedule, write_instance,
                     write_schedule)
from .list_scheduler import run_lta
from .model import (ColumnType, Instance, Job, Operation, PlacedOperation,
                    Schedule, Violation, schedule_metrics, total_tardiness,
                    validate_schedule)
from .rules import MachinePolicy, Rule, RuleParams
