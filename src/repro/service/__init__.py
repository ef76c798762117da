"""Certification-as-a-service: the always-on daemon around the certifier.

``repro serve`` turns cold ``repro certify`` batch jobs into a long-lived
service: overlapping fault-space sweeps from many clients dedupe onto one
simulation through a crash-recoverable content-addressed store, load is
shed with structured backpressure instead of queueing without bound,
deadlines degrade to valid partial certificates, a failed campaign is
reported with its typed error, and SIGTERM drains gracefully.  See
:mod:`repro.service.daemon` for the full robustness contract.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import CertificationService, ServiceConfig
from repro.service.protocol import (
    CertifyRequest,
    build_design,
    circuit_digest,
    request_key,
)
from repro.service.store import ResultStore
from repro.service.top import render_status, run_top

__all__ = [
    "CertificationService",
    "CertifyRequest",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "build_design",
    "circuit_digest",
    "render_status",
    "request_key",
    "run_top",
]
