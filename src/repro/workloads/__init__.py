"""Workload models: the software the paper's evaluation runs, plus the
multi-flow traffic engine and scenario library for contention studies."""

from repro.workloads.dd import DdWorkload, DdResult
from repro.workloads.traffic import (FLOW_KINDS, FlowSpec, TrafficEngine,
                                     TrafficError, jain_fairness)
from repro.workloads.scenarios import SCENARIOS, Scenario, run_scenario

__all__ = ["DdWorkload", "DdResult", "FLOW_KINDS",
           "FlowSpec", "TrafficEngine", "TrafficError", "jain_fairness",
           "SCENARIOS", "Scenario", "run_scenario"]
