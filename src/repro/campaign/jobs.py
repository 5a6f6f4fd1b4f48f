"""Campaign jobs: the unit of work of a sweep campaign.

A :class:`CampaignJob` is one solve configuration as *data* —
problem spec × peers × clusters × scheme × dtype (× the
optional relaxation step ``delta``).  Jobs are frozen, hashable by
value, and carry a stable content key, so a campaign can deduplicate a
matrix, address a result cache, and wire warm-start dependencies
without ever comparing live objects.

:func:`expand_matrix` builds the cartesian product the paper's
evaluation is made of (Figures 5/6: dozens of near-identical
configurations varying only ``(n, α, scheme, clusters)``);
:func:`plan_jobs` turns any job list into the deduplicated DAG the
engine executes — duplicate jobs collapse onto one node, and with warm
starts enabled each delta-sweep group is chained nearest-neighbour so a
solve can start from the previous delta's solution.

``CampaignJob`` is also the repo's *single* request type: the figure
harnesses, the campaign engine's tasks, the CLI flags, and the
campaign-service HTTP schema all normalize into one and execute it
through :func:`repro.experiments.harness.run_job`.  For the HTTP wire,
:meth:`CampaignJob.to_wire` / :meth:`CampaignJob.from_wire` give a
versioned JSON round-trip whose float fields are encoded exactly
(``float.hex``), so a job's :meth:`signature` — and therefore its cache
key — is bit-identical on both sides of the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..numerics.tolerances import min_termination_tol, resolve_dtype
from ..p2psap.context import Scheme

__all__ = [
    "CampaignJob",
    "CampaignPlan",
    "JOB_WIRE_VERSION",
    "WarmEdge",
    "WireError",
    "expand_matrix",
    "ladder_stages",
    "plan_jobs",
]

#: Tolerance default mirrored from the experiment harness (kept literal
#: here so the jobs layer stays importable without the harness stack).
DEFAULT_TOL = 1e-4

#: Version of the JSON wire encoding of one job.  Bump on any change to
#: the field set or the float encoding; ``from_wire`` refuses unknown
#: versions instead of guessing.
JOB_WIRE_VERSION = 2


class WireError(ValueError):
    """A wire payload that cannot be decoded into a job.

    ``field`` names the offending field when known — the service schema
    surfaces it in structured HTTP error bodies.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


def _float_to_wire(value: float) -> str:
    """Exact float encoding: ``float.hex`` round-trips bit-for-bit.

    JSON number round-trips are exact in Python (shortest-repr), but the
    wire may be produced or re-serialized by other stacks; a hex string
    cannot be silently re-rounded by any of them.
    """
    return float(value).hex()


def _float_from_wire(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise WireError(f"{field}: expected a float or float.hex string, "
                        f"got {type(value).__name__}", field=field)
    try:
        out = float.fromhex(value) if isinstance(value, str) else float(value)
    except (ValueError, OverflowError):
        raise WireError(f"{field}: unparseable float {value!r}",
                        field=field) from None
    return out


def _value_to_wire(value):
    """Encode one ``extra`` value: floats become tagged hex, containers
    recurse, everything else must already be JSON-representable."""
    if isinstance(value, bool) or isinstance(value, (int, str)) \
            or value is None:
        return value
    if isinstance(value, float):
        return {"float": _float_to_wire(value)}
    if isinstance(value, (list, tuple)):
        return [_value_to_wire(v) for v in value]
    raise WireError(f"extra value {value!r} is not wire-encodable",
                    field="extra")


def _value_from_wire(value, field: str):
    if isinstance(value, dict):
        if set(value) != {"float"}:
            raise WireError(f"{field}: unknown tagged value {value!r}",
                            field=field)
        return _float_from_wire(value["float"], field)
    if isinstance(value, list):
        # Tuples, not lists: __post_init__ sorts extra items, and jobs
        # must stay hashable by value.
        return tuple(_value_from_wire(v, field) for v in value)
    return value


@dataclasses.dataclass(frozen=True)
class CampaignJob:
    """One solve configuration, normalized and hashable by value.

    ``delta=None`` means the problem's own Jacobi step (the paper's
    δ = 1/diag); ``n_paper`` enables the harness's ratio-preserving
    scaling.  ``extra`` holds any additional solver params (weights,
    checkpoint_every, ...) as a sorted item tuple so the job stays
    hashable and its signature canonical.
    """

    n: int
    n_peers: int = 1
    n_clusters: int = 1
    scheme: str = "hybrid"
    problem: str = "membrane"
    tol: float = DEFAULT_TOL
    dtype: str = "float64"
    delta: Optional[float] = None
    n_paper: Optional[int] = None
    seed: int = 0
    extra: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme.parse(self.scheme).value)
        object.__setattr__(self, "dtype", resolve_dtype(self.dtype).name)
        if self.delta is not None:
            object.__setattr__(self, "delta", float(self.delta))
        extra = self.extra
        if isinstance(extra, Mapping):
            extra = tuple(sorted(extra.items()))
        else:
            extra = tuple(sorted(tuple(item) for item in extra))
        object.__setattr__(self, "extra", extra)

    @property
    def extra_params(self) -> dict[str, Any]:
        return dict(self.extra)

    def signature(self) -> dict[str, Any]:
        """The canonical, JSON-able identity of this job.

        Everything that determines the solve's outcome is here — and
        nothing else — so equal signatures really are re-runs of one
        configuration.  The result cache hashes this (plus the
        warm-start edge, which changes the trajectory).

        The job is frozen, so the signature is built once per instance
        and kept in its ``__dict__`` (outside the dataclass fields: eq,
        hash and repr never see it); each call returns a shallow copy
        the caller may add keys to or pop from.
        """
        memo = self.__dict__
        if "_signature" not in memo:
            memo["_signature"] = _build_signature(self)
        return dict(memo["_signature"])

    def key(self) -> str:
        """Short content address of :meth:`signature` (hex), computed
        once per instance like the signature."""
        memo = self.__dict__
        if "_key" not in memo:
            memo["_key"] = _hash_signature(self.signature())
        return memo["_key"]

    def label(self) -> str:
        """Human-readable one-liner for logs and CLI summaries."""
        delta = "auto" if self.delta is None else f"{self.delta:g}"
        return (
            f"{self.problem} n={self.n} α={self.n_peers} "
            f"c={self.n_clusters} {self.scheme} δ={delta} "
            f"{self.dtype}"
        )

    # -- wire encoding -----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """This job as a versioned, JSON-able wire dict.

        Floats (``tol``, ``delta``, float ``extra`` values) are encoded
        as ``float.hex`` strings, so decoding reconstructs them
        bit-for-bit and ``from_wire(to_wire(j)).key() == j.key()`` holds
        exactly — the property the campaign service's duplicate
        coalescing and cache addressing stand on.
        """
        return {
            "version": JOB_WIRE_VERSION,
            "n": self.n,
            "n_peers": self.n_peers,
            "n_clusters": self.n_clusters,
            "scheme": self.scheme,
            "problem": self.problem,
            "tol": _float_to_wire(self.tol),
            "dtype": self.dtype,
            "delta": (None if self.delta is None
                      else _float_to_wire(self.delta)),
            "n_paper": self.n_paper,
            "seed": self.seed,
            "extra": [[key, _value_to_wire(value)]
                      for key, value in self.extra],
        }

    #: Wire fields that must be ints (bools are rejected: JSON ``true``
    #: is not a peer count).
    _WIRE_INT_FIELDS = ("n", "n_peers", "n_clusters", "seed")

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "CampaignJob":
        """Decode :meth:`to_wire` output (strictly validated).

        Raises :class:`WireError` — with ``field`` set where possible —
        on unknown versions, missing/unknown fields, and type
        mismatches, so transport layers can return structured errors
        instead of stack traces.
        """
        if not isinstance(wire, Mapping):
            raise WireError(
                f"job must be an object, got {type(wire).__name__}")
        version = wire.get("version")
        if version != JOB_WIRE_VERSION:
            raise WireError(
                f"unsupported job wire version {version!r} "
                f"(this build speaks {JOB_WIRE_VERSION})", field="version")
        known = {"version", "n", "n_peers", "n_clusters", "scheme",
                 "problem", "tol", "dtype", "delta",
                 "n_paper", "seed", "extra"}
        unknown = set(wire) - known
        if unknown:
            raise WireError(f"unknown job field(s) {sorted(unknown)}",
                            field=sorted(unknown)[0])
        if "n" not in wire:
            raise WireError("missing required field 'n'", field="n")
        fields: dict[str, Any] = {}
        for name in cls._WIRE_INT_FIELDS:
            if name in wire:
                value = wire[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise WireError(f"{name}: expected an int, got "
                                    f"{value!r}", field=name)
                fields[name] = value
        for name in ("scheme", "problem", "dtype"):
            if name in wire:
                value = wire[name]
                if not isinstance(value, str):
                    raise WireError(f"{name}: expected a string, got "
                                    f"{value!r}", field=name)
                fields[name] = value
        if "tol" in wire:
            fields["tol"] = _float_from_wire(wire["tol"], "tol")
        if wire.get("delta") is not None:
            fields["delta"] = _float_from_wire(wire["delta"], "delta")
        if wire.get("n_paper") is not None:
            n_paper = wire["n_paper"]
            if isinstance(n_paper, bool) or not isinstance(n_paper, int):
                raise WireError(f"n_paper: expected an int, got "
                                f"{n_paper!r}", field="n_paper")
            fields["n_paper"] = n_paper
        extra = wire.get("extra", [])
        if isinstance(extra, Mapping):
            items = list(extra.items())
        elif isinstance(extra, list):
            items = []
            for pair in extra:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2 \
                        or not isinstance(pair[0], str):
                    raise WireError(f"extra: expected [key, value] "
                                    f"pairs, got {pair!r}", field="extra")
                items.append((pair[0], pair[1]))
        else:
            raise WireError(f"extra: expected a list of pairs, got "
                            f"{type(extra).__name__}", field="extra")
        fields["extra"] = tuple(
            (key, _value_from_wire(value, f"extra[{key}]"))
            for key, value in items
        )
        try:
            return cls(**fields)
        except (ValueError, TypeError) as exc:
            raise WireError(str(exc)) from None


def _build_signature(job: CampaignJob) -> dict[str, Any]:
    return {
        "n": job.n,
        "n_peers": job.n_peers,
        "n_clusters": job.n_clusters,
        "scheme": job.scheme,
        "problem": job.problem,
        "tol": job.tol,
        "dtype": job.dtype,
        # Literal, so every pinned key and cache entry on disk stays valid.
        "executor": "inline",
        "delta": job.delta,
        "n_paper": job.n_paper,
        "seed": job.seed,
        # Round-tripped through JSON so the signature is exactly what a
        # reader of the cache metadata sees (tuples inside extra values
        # become lists, here, deterministically).
        "extra": json.loads(json.dumps(
            [list(item) for item in job.extra]
        )),
    }


def _hash_signature(signature: dict[str, Any]) -> str:
    blob = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def expand_matrix(
    ns: Sequence[int],
    n_peers: Sequence[int] = (1,),
    n_clusters: Sequence[int] = (1,),
    schemes: Sequence[str] = ("hybrid",),
    problems: Sequence[str] = ("membrane",),
    dtypes: Sequence[str] = ("float64",),
    deltas: Sequence[Optional[float]] = (None,),
    tol: float = DEFAULT_TOL,
    n_paper: Optional[int] = None,
    seed: int = 0,
    extra: Optional[Mapping[str, Any]] = None,
) -> list[CampaignJob]:
    """The cartesian job matrix, in deterministic axis order.

    Cluster counts exceeding the peer count are skipped (a 2-cluster
    split of one machine is meaningless — same rule as the figure
    harness).
    """
    jobs = []
    for n, prob, scheme, clusters, alpha, dtype, delta in \
            itertools.product(ns, problems, schemes, n_clusters, n_peers,
                              dtypes, deltas):
        if clusters > alpha:
            continue
        jobs.append(CampaignJob(
            n=n, n_peers=alpha, n_clusters=clusters, scheme=scheme,
            problem=prob, tol=tol, dtype=dtype,
            delta=delta, n_paper=n_paper, seed=seed, extra=extra or {},
        ))
    return jobs


@dataclasses.dataclass(frozen=True)
class WarmEdge:
    """One warm-start edge of a plan, with its provenance kind.

    ``kind="neighbour"`` is the delta-sweep nearest-neighbour edge —
    its endpoints are guaranteed (and checked) to differ *only* in
    ``delta``, never in size, dtype or scheme.
    ``kind="ladder"`` is the explicit mixed-precision multigrid edge,
    the only edge type allowed to cross sizes (``n_source < n``,
    interpolated seed) or dtypes (float32 stage → float64 polish).
    """

    source: str
    kind: str  # "neighbour" | "ladder"
    n_source: int
    dtype_source: str


@dataclasses.dataclass
class CampaignPlan:
    """The deduplicated execution DAG of one campaign.

    ``order`` is a topological execution order over the unique jobs;
    ``warm_sources`` maps a job key to the key of the job whose solution
    seeds it (its nearest smaller delta in the same sweep group — only
    populated when the plan was built with ``warm_start=True`` — or the
    preceding rung of its mixed-precision ladder chain, with
    ``ladder=True``).  ``warm_edges`` annotates every warm edge with
    its :class:`WarmEdge` kind; the engine folds ladder-kind edges into
    cache signatures so laddered results never collide with cold ones.
    """

    jobs: list[CampaignJob]
    order: list[CampaignJob]
    warm_sources: dict[str, str]
    warm_edges: dict[str, WarmEdge] = dataclasses.field(
        default_factory=dict)

    @property
    def n_duplicates(self) -> int:
        return len(self.jobs) - len(self.order)

    def branches(self) -> list[list[CampaignJob]]:
        """The independent warm-start chains of the plan, in order.

        A job opens a new branch unless it is warm-seeded by an
        already-placed job, in which case it extends that job's branch
        — so each branch is one contiguous warm chain and no warm edge
        ever crosses branches.  Without warm starts every unique job is
        its own singleton branch.  Concatenating the branches
        reproduces ``order`` exactly; that is what makes the branch
        scheduler's zero-worker case the plan-order sequential run
        (branches only ever run whole, in submission order, in one
        process).
        """
        branches: list[list[CampaignJob]] = []
        owner: dict[str, list[CampaignJob]] = {}
        for job in self.order:
            key = job.key()
            src = self.warm_sources.get(key)
            branch = owner.get(src) if src is not None else None
            if branch is None:
                branch = []
                branches.append(branch)
            branch.append(job)
            owner[key] = branch
        return branches


def _group_key(job: CampaignJob) -> tuple:
    """Everything but delta: the axis a delta sweep varies along."""
    sig = job.signature()
    sig.pop("delta")
    # Every field is hashable as is except ``extra`` (nested lists).
    sig["extra"] = json.dumps(sig["extra"], sort_keys=True)
    return tuple(sorted(sig.items()))


def _check_neighbour_edge(prev: CampaignJob, job: CampaignJob) -> None:
    """Hard invariant of nearest-neighbour warm edges: endpoints may
    differ only in ``delta``.

    The grouping above guarantees this by construction (the group key
    retains every other signature field), but the guarantee is load-
    bearing — the engine reuses the seed iterate *as is* across a
    neighbour edge, so a cross-size or cross-dtype edge here would feed
    a wrongly-shaped or wrongly-typed array into a solve.  Only the
    explicit ladder edge type may cross those axes (and the engine
    interpolates/casts for it); a planner change that broke the
    grouping must fail here, loudly, not three layers down.
    """
    a, b = prev.signature(), job.signature()
    a.pop("delta")
    b.pop("delta")
    if a != b:
        raise ValueError(
            f"campaign planning bug: nearest-neighbour warm edge "
            f"{prev.label()!r} -> {job.label()!r} crosses a non-delta "
            "axis; only explicit ladder edges may cross sizes or dtypes"
        )


#: Smallest fine-grid size a ladder chain is planned for: below this
#: the coarse stage (n//2) has too few planes to partition, and the
#: whole solve is cheap enough that ladder bookkeeping cannot pay off.
LADDER_MIN_N = 8


def _ladder_eligible(job: CampaignJob) -> bool:
    """Whether a mixed-precision ladder chain is planned for ``job``.

    Only float64 targets ladder (the chain's point is reaching a
    float64 answer through cheaper float32 stages); the coarse stage
    must still have at least as many planes as peers to partition.
    """
    n_coarse = job.n // 2
    return (job.dtype == "float64"
            and job.n >= LADDER_MIN_N
            and n_coarse >= job.n_peers)


def ladder_stages(job: CampaignJob) -> list[CampaignJob]:
    """The synthetic stage jobs a ladder prepends to ``job``, coarse
    first: a half-size float32 solve, then a full-size float32 solve.

    Stage tolerances are clamped to the float32 termination floor
    explicitly — a tight float64 target (say 1e-6) would otherwise ask
    the float32 stages for a tolerance their dtype cannot resolve, and
    the solver would (correctly) refuse to start.  Stages use the
    problem-default relaxation step: an explicit ``delta`` tuned for
    the fine grid is not meaningful on the coarse one.
    """
    stage_tol = max(job.tol, min_termination_tol("float32"))
    coarse = dataclasses.replace(
        job, n=job.n // 2, dtype="float32", tol=stage_tol, delta=None)
    fine32 = dataclasses.replace(
        job, dtype="float32", tol=stage_tol, delta=None)
    return [coarse, fine32]


def _insert_ladder_stages(order: list[CampaignJob],
                          warm_sources: dict[str, str],
                          warm_edges: dict[str, WarmEdge],
                          ) -> list[CampaignJob]:
    """Rewrite ``order`` with ladder chains in front of every eligible
    target, wiring the explicit cross-size/cross-dtype edges.

    A target is laddered only when nothing already seeds it (the first
    member of a warm delta chain ladders; later members keep their
    neighbour seed, which is tighter).  Stage jobs deduplicate against
    each other *and* against submitted jobs: if the fine float32 job is
    already in the plan it becomes the chain rung as-is, and two
    targets sharing stages share one chain — ``branches()`` then keeps
    every chain on one driver, as with neighbour edges.
    """
    new_order: list[CampaignJob] = []
    placed: set[str] = set()

    def place(stage_job: CampaignJob) -> None:
        key = stage_job.key()
        if key not in placed:
            placed.add(key)
            new_order.append(stage_job)

    for job in order:
        key = job.key()
        if key not in warm_sources and _ladder_eligible(job):
            prev: Optional[CampaignJob] = None
            for stage in ladder_stages(job):
                skey = stage.key()
                if prev is not None and skey not in warm_sources \
                        and skey not in placed:
                    warm_sources[skey] = prev.key()
                    warm_edges[skey] = WarmEdge(
                        source=prev.key(), kind="ladder",
                        n_source=prev.n, dtype_source=prev.dtype)
                place(stage)
                prev = stage
            warm_sources[key] = prev.key()
            warm_edges[key] = WarmEdge(
                source=prev.key(), kind="ladder",
                n_source=prev.n, dtype_source=prev.dtype)
        place(job)
    return new_order


def plan_jobs(jobs: Iterable[CampaignJob],
              warm_start: bool = False,
              ladder: bool = False) -> CampaignPlan:
    """Deduplicate ``jobs`` and (optionally) wire warm-start edges.

    Without warm starts the execution order is simply first-occurrence
    order.  With them, each group of jobs differing only in ``delta``
    is made contiguous and sorted ascending by delta (``None`` — the
    problem default — first), and every member is seeded by its
    predecessor: the nearest-parameter neighbour.  That ordering *is*
    the topological order of the warm-start DAG.

    With ``ladder=True``, every eligible float64 job that is not
    already warm-seeded gets a mixed-precision multigrid chain planned
    in front of it (see :func:`ladder_stages`): half-size float32 solve
    → interpolated full-size float32 warm start → float64 polish to the
    requested tolerance.  Stage jobs are ordinary plan nodes — they
    deduplicate, cache, and parallelize like submitted jobs — but do
    not appear in the campaign's submitted-job records.  With
    ``ladder=False`` (the default) the plan is byte-identical to what
    this function always produced.
    """
    jobs = list(jobs)
    unique: dict[str, CampaignJob] = {}
    for job in jobs:
        unique.setdefault(job.key(), job)
    warm_sources: dict[str, str] = {}
    warm_edges: dict[str, WarmEdge] = {}
    if not warm_start:
        order = list(unique.values())
    else:
        groups: dict[tuple, list[CampaignJob]] = {}
        for job in unique.values():
            groups.setdefault(_group_key(job), []).append(job)
        order = []
        for members in groups.values():
            members.sort(
                key=lambda j: (j.delta is not None, j.delta or 0.0))
            for prev, job in zip(members, members[1:]):
                _check_neighbour_edge(prev, job)
                warm_sources[job.key()] = prev.key()
                warm_edges[job.key()] = WarmEdge(
                    source=prev.key(), kind="neighbour",
                    n_source=prev.n, dtype_source=prev.dtype)
            order.extend(members)
    if ladder:
        order = _insert_ladder_stages(order, warm_sources, warm_edges)
    return CampaignPlan(jobs=jobs, order=order,
                        warm_sources=warm_sources,
                        warm_edges=warm_edges)
