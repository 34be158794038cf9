"""repro.util — small shared algorithmic utilities.

* :func:`repro.util.ddmin.ddmin` — the greedy delta-debugging core shared
  by schedule-trace minimization (:mod:`repro.explore.minimize`) and
  fuzzer counterexample reduction (:mod:`repro.fuzz.reduce`).
* :mod:`repro.util.resilience` — deadlines and structured failure
  records.
* :mod:`repro.util.faultinject` — the deterministic fault-injection
  registry behind ``PARCOACH_FAULTS`` (named sites, hit counts).
* :mod:`repro.util.probe` — thread-local analysis-path probes, the
  coverage-guided fuzzer's feedback channel.
* :func:`repro.util.brepr.bounded_repr` — big-int-safe ``repr`` for the
  state-fingerprint and observation-hash paths.
"""

from .brepr import bounded_repr
from .ddmin import ddmin
from .faultinject import FaultPlan, InjectedFault, fault_site
from .probe import bucket, collecting, probe, probes_active
from .resilience import Deadline, DeadlineExceeded, Failure

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "Failure",
    "FaultPlan",
    "InjectedFault",
    "bounded_repr",
    "bucket",
    "collecting",
    "ddmin",
    "fault_site",
    "probe",
    "probes_active",
]
