"""Wire schema of the campaign service: one canonical request type.

A solve job has one request type, :class:`~repro.campaign.jobs.CampaignJob`,
which the CLI flags also build.  The HTTP API deliberately does **not**
add a second: a submission body is a
versioned envelope around a list of ``CampaignJob`` wire dicts
(:meth:`CampaignJob.to_wire` — exact-float ``float.hex`` encoding, so a
job's signature and cache key are bit-identical on both sides of the
wire), and every front end normalizes into that one type before
anything executes.

Envelope (``POST /campaigns``)::

    {
      "version": 1,
      "jobs": [ {<CampaignJob.to_wire()>}, ... ],   # 1..MAX_JOBS
      "warm_start": false,                          # optional
      "ladder": false,                              # optional
      "tag": "fig5-sweep"                           # optional, <= 120 chars
    }

Errors raise :class:`SchemaError`, which carries a structured payload
(``code`` / ``message`` / optional ``field``) the daemon returns as the
JSON error body instead of a stack trace.  Decoding also enforces the
per-dtype termination-tolerance floor: a job whose ``tol`` its dtype
cannot resolve is a 400 with ``field="tolerance"``, not a 500 from the
solver three layers down.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping, Optional

from ..campaign.jobs import CampaignJob, WireError
from ..numerics.tolerances import ToleranceFloorError, check_termination_tol

__all__ = [
    "MAX_JOBS",
    "SCHEMA_VERSION",
    "SchemaError",
    "Submission",
    "submission_from_wire",
    "submission_to_wire",
]

#: Version of the submission envelope (the job dicts inside carry their
#: own ``version`` — :data:`~repro.campaign.jobs.JOB_WIRE_VERSION`).
SCHEMA_VERSION = 1

#: Upper bound on jobs per submission; a matrix bigger than this is a
#: client mistake, not a workload.
MAX_JOBS = 1024

_MAX_TAG_CHARS = 120


class SchemaError(Exception):
    """A request body the service refuses, as structured data."""

    def __init__(self, message: str, *, code: str = "bad-request",
                 field: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.field = field

    def payload(self) -> dict[str, Any]:
        error: dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


@dataclasses.dataclass(frozen=True)
class Submission:
    """One decoded job-matrix submission."""

    jobs: tuple[CampaignJob, ...]
    warm_start: bool = False
    ladder: bool = False
    tag: Optional[str] = None


def submission_to_wire(jobs: Iterable[CampaignJob],
                       warm_start: bool = False,
                       tag: Optional[str] = None,
                       ladder: bool = False) -> dict[str, Any]:
    """Encode a job list as a ``POST /campaigns`` body."""
    wire: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "jobs": [job.to_wire() for job in jobs],
    }
    if warm_start:
        wire["warm_start"] = True
    if ladder:
        wire["ladder"] = True
    if tag is not None:
        wire["tag"] = tag
    return wire


def submission_from_wire(payload: Any) -> Submission:
    """Decode and strictly validate a submission body."""
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"submission must be a JSON object, got "
            f"{type(payload).__name__}", code="bad-body")
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {version!r} (this service "
            f"speaks {SCHEMA_VERSION})", code="bad-version",
            field="version")
    unknown = set(payload) - {"version", "jobs", "warm_start", "ladder",
                              "tag"}
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)}",
                          field=sorted(unknown)[0])
    jobs_wire = payload.get("jobs")
    if not isinstance(jobs_wire, list) or not jobs_wire:
        raise SchemaError("'jobs' must be a non-empty list",
                          field="jobs")
    if len(jobs_wire) > MAX_JOBS:
        raise SchemaError(
            f"{len(jobs_wire)} jobs exceeds the per-submission limit "
            f"of {MAX_JOBS}", code="too-many-jobs", field="jobs")
    jobs = []
    for i, wire in enumerate(jobs_wire):
        try:
            jobs.append(CampaignJob.from_wire(wire))
        except WireError as exc:
            where = f"jobs[{i}]"
            if exc.field is not None:
                where += f".{exc.field}"
            raise SchemaError(f"{where}: {exc}", code="bad-job",
                              field=where) from None
        try:
            check_termination_tol(jobs[-1].tol, jobs[-1].dtype)
        except ToleranceFloorError as exc:
            raise SchemaError(f"jobs[{i}]: {exc}", code="bad-job",
                              field="tolerance") from None
    warm_start = payload.get("warm_start", False)
    if not isinstance(warm_start, bool):
        raise SchemaError(
            f"'warm_start' must be a boolean, got {warm_start!r}",
            field="warm_start")
    ladder = payload.get("ladder", False)
    if not isinstance(ladder, bool):
        raise SchemaError(
            f"'ladder' must be a boolean, got {ladder!r}",
            field="ladder")
    tag = payload.get("tag")
    if tag is not None and (not isinstance(tag, str)
                            or len(tag) > _MAX_TAG_CHARS):
        raise SchemaError(
            f"'tag' must be a string of at most {_MAX_TAG_CHARS} "
            f"characters", field="tag")
    return Submission(jobs=tuple(jobs), warm_start=warm_start,
                      ladder=ladder, tag=tag)
