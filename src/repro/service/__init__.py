"""Certification-as-a-service: the always-on daemon around the certifier.

``repro serve`` turns cold ``repro certify`` batch jobs into a long-lived
service: overlapping fault-space sweeps from many clients dedupe onto one
simulation through a crash-recoverable content-addressed store, load is
shed with structured backpressure instead of queueing without bound,
deadlines degrade to valid partial certificates, a failed campaign is
reported with its typed error, and SIGTERM drains gracefully.  See
:mod:`repro.service.daemon` for the full robustness contract.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "CertificationService": "repro.service.daemon",
    "CertifyRequest": "repro.service.protocol",
    "ResultStore": "repro.service.store",
    "ServiceClient": "repro.service.client",
    "ServiceConfig": "repro.service.daemon",
    "ServiceError": "repro.service.client",
    "build_design": "repro.service.protocol",
    "circuit_digest": "repro.service.protocol",
    "render_status": "repro.service.top",
    "request_key": "repro.service.protocol",
    "run_top": "repro.service.top",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
