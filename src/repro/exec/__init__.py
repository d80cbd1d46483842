"""Fault-tolerant campaign execution: supervised workers, watchdogs,
retry/backoff, and a checkpoint/resume journal (see
:mod:`repro.exec.supervisor` for the architecture)."""

from repro.exec.faults import (
    FAULT_PLAN_ENV,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    ReproFaultPlan,
)
from repro.exec.journal import ResultsJournal, load_journal
from repro.exec.supervisor import (
    CampaignInterrupted,
    ExecPolicy,
    ExecStats,
    TaskSpec,
    execute_tasks,
)

__all__ = [
    "CampaignInterrupted",
    "ExecPolicy",
    "ExecStats",
    "FAULT_PLAN_ENV",
    "FaultPlanError",
    "FaultSpec",
    "InjectedCrash",
    "ReproFaultPlan",
    "ResultsJournal",
    "TaskSpec",
    "execute_tasks",
    "load_journal",
]
