"""Campaign service: a long-lived solve daemon with an HTTP front door.

The pieces, bottom up:

- :mod:`repro.service.schema` — the versioned wire format: a submission
  is a list of :class:`~repro.campaign.jobs.CampaignJob` wire dicts
  (exact-float encoded, so cache keys survive the wire).
- :mod:`repro.service.daemon` — :class:`CampaignService` (persistent
  cache + driver pool, bounded admission queue, branch scheduling with
  in-flight coalescing) and :class:`ServiceDaemon` (the HTTP/1.1
  keep-alive server around it: one connection per client, one segment
  per response, long-poll ``?wait=``, request framing read by hand).
- :mod:`repro.service.client` — :class:`ServiceClient`, the
  one-persistent-socket, hand-framed client the ``submit`` CLI
  subcommand and the CI smoke job use.

Start one with ``python -m repro.experiments serve``; talk to it with
``python -m repro.experiments submit`` or any HTTP client.
"""

from .client import ServiceClient, ServiceError
from .daemon import AdmissionError, CampaignService, ServiceDaemon
from .schema import (
    MAX_JOBS,
    SCHEMA_VERSION,
    SchemaError,
    Submission,
    submission_from_wire,
    submission_to_wire,
)

__all__ = [
    "AdmissionError",
    "CampaignService",
    "MAX_JOBS",
    "SCHEMA_VERSION",
    "SchemaError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "Submission",
    "submission_from_wire",
    "submission_to_wire",
]
