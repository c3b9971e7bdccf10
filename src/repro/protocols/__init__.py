"""Admission-control policies: DAC_p2p, NDAC_p2p, and ablation variants.

A policy is one row of :data:`POLICY_REGISTRY`: a name, the state machine
its suppliers run (:class:`repro.core.admission.SupplierAdmissionState`
or one of the state classes of :mod:`repro.protocols.ndac` and
:mod:`repro.protocols.variants`), and whether reminders and idle
elevation are on.  The simulator is policy-agnostic — swapping ``"dac"``
for ``"ndac"`` (or any variant name in :data:`POLICY_REGISTRY`) is the
entire difference between the two sides of every figure in the paper.
"""

from repro.protocols.base import AdmissionPolicy, POLICY_REGISTRY, make_policy

__all__ = [
    "AdmissionPolicy",
    "POLICY_REGISTRY",
    "make_policy",
]
