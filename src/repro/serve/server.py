"""The online demand-aware admission-control service.

The paper's RDA layer is an *online* kernel service: ``pp_begin`` /
``pp_end`` calls arrive from live processes, and the kernel admits, parks,
or wakes them in real time.  This module runs the same admission machinery
— :class:`~repro.core.progress_monitor.ProgressMonitor`, the Algorithm-1
predicate, the resource waitlist and the Strict/Compromise policies — as a
long-running asyncio daemon speaking the newline-delimited-JSON protocol
of :mod:`repro.serve.protocol` over TCP or a Unix socket.

Design points:

* **Single writer.**  Every mutation of the admission state happens on the
  event loop, and no handler holds an ``await`` point inside a mutation
  sequence, so the core stack needs no locks — the asyncio loop plays the
  role of the kernel's run-queue lock.
* **Denied periods park the connection.**  A ``pp_begin`` the policy
  rejects does not get an immediate "no": the reply is deferred until a
  completing period frees capacity (the waitlist admits it), the per-client
  park timeout lapses, or the server drains — exactly how the kernel parks
  a process on the resource wait queue.
* **Bounded overload.**  The pending-admission queue is capped
  (``max_pending``); beyond it, new ``pp_begin`` requests receive a typed
  ``RETRY_AFTER`` reply instead of growing server memory without bound.
* **Starvation guard.**  As in :class:`~repro.core.rda.RdaScheduler`, a
  waiting period is force-admitted whenever its resource is completely
  idle, both inline after every release and from a periodic sweep, so a
  mis-annotated client is slow instead of deadlocked.
* **Graceful drain.**  SIGTERM (or the ``drain`` verb) stops admissions,
  wakes parked clients with a ``DRAINING`` error, waits up to the grace
  budget for running periods to end, then closes.
* **Fault tolerance.**  Clients that introduce themselves with ``hello``
  hold a lease (:mod:`repro.serve.leases`) renewed by every frame and the
  ``heartbeat`` verb; a reaper reclaims the admitted demand of clients
  whose lease lapses, so a crashed client cannot leak capacity.  With
  ``--journal``, every admission of a lease-bound client is written ahead
  to a crash-safe NDJSON log (:mod:`repro.serve.journal`) and replayed on
  startup, so a SIGKILLed server restarts with its charge ledger, lease
  table and idempotency-token index intact.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import MachineConfig, default_machine_config
from ..core.policy import AlwaysAdmitPolicy, SchedulingPolicy
from ..core.predicate import SchedulingPredicate
from ..core.progress_monitor import ProgressMonitor
from ..core.progress_period import (
    PeriodRequest,
    PeriodState,
    ProgressPeriod,
    ResourceKind,
    ReuseLevel,
    ensure_pp_ids_above,
)
from ..core.resource_monitor import ResourceMonitor
from ..core.waitlist import Waitlist
from ..errors import ProgressPeriodError, ProtocolError, ServeError
from ..predict import ElasticController, MispredictDetector, OnlineWssEstimator
from ..predict.estimator import EstimatorKey
from . import protocol
from .journal import AdmissionJournal, AdmitRecord
from .leases import ClientRecord, LeaseTable
from .metrics import MetricsRegistry
from .protocol import ErrorCode

__all__ = [
    "ServeConfig",
    "ServiceSanitizer",
    "AdmissionService",
    "AdmissionServer",
    "adaptive_retry_hint_s",
    "quota_admits",
    "serve_until_drained",
]


def adaptive_retry_hint_s(
    occupancy: float,
    latency_p50_s: float,
    floor_s: float,
    cap_s: float,
) -> float:
    """The adaptive RETRY_AFTER hint for one shed request.

    ``occupancy`` is the pending-queue fill fraction (clamped to [0, 1])
    and ``latency_p50_s`` the median observed admission latency.  The hint
    is the median latency (floored at ``floor_s``) scaled up to 4x as the
    queue fills::

        hint = clamp(max(floor, p50) * (1 + 3 * occupancy), floor, cap)

    Monotone non-decreasing in occupancy and always within
    ``[floor_s, cap_s]`` (the cap is raised to the floor if inverted) —
    both properties are pinned by hypothesis tests.
    """
    if cap_s < floor_s:
        cap_s = floor_s
    occupancy = min(1.0, max(0.0, occupancy))
    base = max(floor_s, latency_p50_s)
    return min(cap_s, max(floor_s, base * (1.0 + 3.0 * occupancy)))


def quota_admits(
    waiting_by_client: Dict[str, int],
    client: str,
    max_pending: int,
    max_pending_per_client: Optional[int],
) -> bool:
    """Would one more parked admission from ``client`` be within quota?

    True iff the aggregate pending queue stays within ``max_pending`` AND
    the client stays within ``max_pending_per_client`` (None = unbounded).
    Pure so the fairness math is property-testable apart from the server.
    """
    total = sum(waiting_by_client.values())
    if total >= max_pending:
        return False
    if max_pending_per_client is None:
        return True
    return waiting_by_client.get(client, 0) < max_pending_per_client


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one admission-control server instance."""

    #: admission policy; ``None`` = Always Admit (the Linux-default analogue)
    policy: Optional[SchedulingPolicy] = None
    #: machine description — the managed LLC capacity comes from here
    machine: MachineConfig = field(default_factory=default_machine_config)
    #: strict arrival-order waitlist draining (head-of-line blocking)
    strict_fifo: bool = False
    #: bound on parked admissions; beyond it pp_begin gets RETRY_AFTER
    max_pending: int = 1024
    #: hint returned with RETRY_AFTER replies
    retry_after_s: float = 0.05
    #: floor of the adaptive retry hint; with ``retry_hint_cap_s`` set,
    #: RETRY_AFTER hints scale with queue occupancy and observed admission
    #: latency instead of the constant ``retry_after_s`` (None = constant)
    retry_hint_floor_s: Optional[float] = None
    #: cap of the adaptive retry hint (None = constant ``retry_after_s``)
    retry_hint_cap_s: Optional[float] = None
    #: how long one client may stay parked before a TIMEOUT reply
    park_timeout_s: Optional[float] = 30.0
    #: CoDel-style sojourn bound on parked pp_begins: past it the period
    #: is cancelled with a typed PARK_TIMEOUT error carrying a retry hint
    #: (None = only the legacy park_timeout_s applies)
    park_deadline_s: Optional[float] = None
    #: per-client bound on parked admissions, so one storm client cannot
    #: occupy the whole pending queue (None = no per-client bound)
    max_pending_per_client: Optional[int] = None
    #: slow-consumer defense: disconnect a session whose writer.drain()
    #: stalls past this deadline (None = wait forever, legacy behavior)
    write_timeout_s: Optional[float] = None
    #: per-connection read idle timeout (None = wait forever)
    idle_timeout_s: Optional[float] = None
    #: period of the background starvation-guard sweep
    starvation_check_s: float = 0.25
    #: how long drain waits for running periods before force-closing
    drain_grace_s: float = 5.0
    #: largest accepted request frame
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: attach the online invariant checker (the serve analogue of --sanitize)
    sanitize: bool = False
    #: flat file the metrics snapshot is dumped to (None = stats verb only)
    metrics_json: Optional[str] = None
    #: dump interval for ``metrics_json``
    metrics_interval_s: float = 2.0
    #: how long after its last frame a hello-bound client's admitted
    #: periods survive before the lease reaper reclaims them
    lease_ttl_s: float = 10.0
    #: period of the lease-reaper sweep
    lease_check_s: float = 0.25
    #: crash-safe admission journal path (None = in-memory ledger only)
    journal_path: Optional[str] = None
    #: journal fsync batching window (0 = fsync every record)
    journal_fsync_s: float = 0.0
    #: journal events between snapshot+truncate compactions
    journal_compact_every: int = 1000
    #: cluster shard label surfaced in query snapshots (None = standalone)
    shard_name: Optional[str] = None
    #: online demand prediction + elastic re-admission (repro.predict);
    #: default-off — admission behavior is byte-identical when False
    predict: bool = False
    #: relative-error band beyond which a closed period counts as a
    #: misprediction (|charged − observed| / observed)
    predict_error_band: float = 0.25
    #: observations per (client, key) before the estimator may override
    #: the declared demand
    predict_min_samples: int = 3
    #: ring-buffer length of retained demand samples per key
    predict_history: int = 32
    #: consecutive same-direction mispredictions before an elastic resize
    predict_hysteresis: int = 2
    #: predicted admissions are floored at this fraction of the declared
    #: demand, bounding how far a confident model can undercut a declaration
    predict_floor_frac: float = 0.25


class ServiceSanitizer:
    """Online invariant checking for the admission service.

    The kernel sanitizer observes a simulated kernel; this is its
    ``repro.serve`` analogue, subscribing to the resource monitor's
    charge/release ledger and asserting, after every mutation:

    * **conservation** — the resource table's usage equals the sum of this
      ledger's charges minus releases (nothing leaks, nothing double-frees),
    * **demand bound** — aggregate admitted demand never exceeds
      ``policy.demand_bound(capacity)`` unless a starvation-guard forced
      admission is live,
    * **final quiescence** — at drain with no open periods, usage is zero
      and the waitlist is empty.
    """

    def __init__(self, service: "AdmissionService") -> None:
        self.service = service
        self.ledger: Dict[ResourceKind, int] = {}
        self.violations: List[str] = []

    # resource-monitor observer interface ------------------------------
    def on_charge(self, request: PeriodRequest, added_bytes: int) -> None:
        kind = request.resource
        self.ledger[kind] = self.ledger.get(kind, 0) + added_bytes
        self._check(kind)

    def on_release(self, request: PeriodRequest, removed_bytes: int) -> None:
        kind = request.resource
        self.ledger[kind] = self.ledger.get(kind, 0) - removed_bytes
        if self.ledger[kind] < 0:
            self._report(f"{kind}: ledger went negative ({self.ledger[kind]} B)")
        self._check(kind)

    # ------------------------------------------------------------------
    def _check(self, kind: ResourceKind) -> None:
        state = self.service.resources.state(kind)
        if state.usage_bytes != self.ledger.get(kind, 0):
            self._report(
                f"{kind}: conservation broken — table says {state.usage_bytes} B, "
                f"ledger says {self.ledger.get(kind, 0)} B"
            )
        bound = self.service.policy.demand_bound(state.capacity_bytes)
        if state.usage_bytes > bound and not self.service.forced_running(kind):
            self._report(
                f"{kind}: usage {state.usage_bytes} B exceeds the policy bound "
                f"{bound:.0f} B with no forced admission live"
            )

    def finalize(self) -> None:
        """End-of-drain check: an idle service must hold zero demand."""
        if len(self.service.monitor.registry) == 0:
            for kind, state_usage in self.service.resources.snapshot().items():
                usage, _ = state_usage
                if usage != 0:
                    self._report(f"{kind}: {usage} B still charged after drain")
            if len(self.service.waitlist) != 0:
                self._report(
                    f"waitlist holds {len(self.service.waitlist)} period(s) "
                    "after drain"
                )

    def _report(self, message: str) -> None:
        self.violations.append(f"t={time.monotonic():.6f} {message}")

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "sanitizer: 0 violations"
        lines = [f"sanitizer: {len(self.violations)} invariant violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class AdmissionService:
    """The admission state machine, independent of any transport.

    All methods must be called from a single thread/event loop (the
    single-writer discipline); they never block.
    """

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self.policy = cfg.policy if cfg.policy is not None else AlwaysAdmitPolicy()
        self.resources = ResourceMonitor()
        self.resources.register(ResourceKind.LLC, cfg.machine.llc_capacity)
        self.managed_kinds = [ResourceKind.LLC]
        self.predicate = SchedulingPredicate(self.resources, self.policy)
        self.waitlist = Waitlist(strict_fifo=cfg.strict_fifo)
        self.monitor = ProgressMonitor(
            resources=self.resources,
            predicate=self.predicate,
            clock=time.monotonic,
            waitlist=self.waitlist,
        )
        self.forced_admissions = 0
        self.sanitizer: Optional[ServiceSanitizer] = None
        if cfg.sanitize:
            self.sanitizer = ServiceSanitizer(self)
            self.resources.observers.append(self.sanitizer)
        self.leases = LeaseTable(cfg.lease_ttl_s)
        self.journal: Optional[AdmissionJournal] = None
        self.replayed_periods = 0
        self.estimator: Optional[OnlineWssEstimator] = None
        self.detector: Optional[MispredictDetector] = None
        self.elastic: Optional[ElasticController] = None
        #: open tracked periods: pp_id -> (key, declared, charged bytes)
        self._predictions: Dict[int, Tuple[EstimatorKey, int, int]] = {}
        if cfg.predict:
            self.estimator = OnlineWssEstimator(
                history=cfg.predict_history,
                min_samples=cfg.predict_min_samples,
                error_band=cfg.predict_error_band,
            )
            self.detector = MispredictDetector(cfg.predict_error_band)
            self.elastic = ElasticController(cfg.predict_hysteresis)
        self._build_metrics()
        if cfg.journal_path:
            self.journal = AdmissionJournal(
                cfg.journal_path,
                fsync_interval_s=cfg.journal_fsync_s,
                compact_every=cfg.journal_compact_every,
                obs_history=cfg.predict_history,
            )
            self._recover()

    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        self.c_requests = m.counter("requests_total", "frames received")
        self.c_begin = m.counter("pp_begin_total", "pp_begin requests")
        self.c_end = m.counter("pp_end_total", "successful pp_end calls")
        self.c_immediate = m.counter(
            "admitted_immediate_total", "periods admitted without parking"
        )
        self.c_after_park = m.counter(
            "admitted_after_park_total", "periods admitted after waiting"
        )
        self.c_forced = m.counter(
            "forced_admissions_total", "starvation-guard admissions"
        )
        self.c_retry_after = m.counter(
            "retry_after_total", "pp_begin rejected by the pending-queue bound"
        )
        self.c_park_timeout = m.counter(
            "park_timeouts_total", "parked periods that hit the park timeout"
        )
        self.c_park_deadline = m.counter(
            "park_deadline_timeouts_total",
            "parked periods shed by the CoDel-style sojourn deadline",
        )
        self.c_quota_rejects = m.counter(
            "quota_rejects_total",
            "pp_begin rejected by the per-client pending quota",
        )
        self.c_slow_disconnects = m.counter(
            "slow_consumer_disconnects_total",
            "sessions disconnected because writer.drain() stalled past "
            "the write timeout",
        )
        self.c_disconnect_cancel = m.counter(
            "cancelled_on_disconnect_total",
            "periods cancelled because their client vanished",
        )
        self.c_protocol_errors = m.counter(
            "protocol_errors_total", "malformed / invalid request frames"
        )
        self.c_draining_rejects = m.counter(
            "draining_rejects_total", "pp_begin rejected because draining"
        )
        llc = self.resources.state(ResourceKind.LLC)
        m.gauge("open_periods", fn=lambda: len(self.monitor.registry))
        m.gauge("waiting", fn=lambda: len(self.waitlist))
        m.gauge("usage_bytes", fn=lambda: llc.usage_bytes)
        m.gauge("capacity_bytes", fn=lambda: llc.capacity_bytes)
        m.gauge("utilization", fn=lambda: llc.utilization)
        self.g_usage_peak = m.gauge(
            "usage_peak_bytes", "high-water mark of admitted demand"
        )
        self.g_waiting_peak = m.gauge(
            "waiting_peak", "high-water mark of the pending-admission queue"
        )
        self.h_park = m.histogram(
            "park_time_s", "time parked before admission (parked periods only)"
        )
        self.h_service = m.histogram(
            "service_time_s", "pp_begin-admission to pp_end duration"
        )
        self.h_admission = m.histogram(
            "admission_latency_s",
            "pp_begin receipt to admitted reply (park time included)",
        )
        self.h_sojourn = m.histogram(
            "queue_sojourn_s",
            "time spent parked on the pending queue, however the park ended",
        )
        self.c_hello = m.counter("hello_total", "hello handshakes")
        self.c_heartbeats = m.counter("heartbeats_total", "lease heartbeats")
        self.c_idempotent = m.counter(
            "idempotent_replays_total",
            "pp_begin calls deduplicated by idempotency token",
        )
        self.c_leases_reclaimed = m.counter(
            "leases_reclaimed_total",
            "expired client leases the reaper reclaimed periods from",
        )
        self.c_lease_periods = m.counter(
            "lease_reclaimed_periods_total",
            "running periods cancelled by the lease reaper",
        )
        if self.cfg.predict:
            self.c_predicted_admits = m.counter(
                "predicted_admits_total",
                "pp_begin admissions charged on a learned demand estimate "
                "instead of the declared demand",
            )
            self.c_mispredicts_over = m.counter(
                "mispredicts_over_total",
                "closed periods whose charge exceeded the observed demand "
                "beyond the error band",
            )
            self.c_mispredicts_under = m.counter(
                "mispredicts_under_total",
                "closed periods whose charge fell short of the observed "
                "demand beyond the error band",
            )
            self.c_elastic_shrinks = m.counter(
                "elastic_shrinks_total",
                "running reservations shrunk by the elastic controller",
            )
            self.c_elastic_grows = m.counter(
                "elastic_grows_total",
                "running reservations grown by the elastic controller",
            )
            self.h_rel_error = m.histogram(
                "prediction_rel_error",
                "|charged − observed| / observed at period close",
            )
        m.gauge("clients", fn=lambda: len(self.leases))
        self.g_replayed = m.gauge(
            "journal_replayed_periods", "periods restored from the journal at boot"
        )
        m.gauge(
            "journal_events",
            fn=lambda: self.journal.events_total if self.journal else 0,
        )

    # ------------------------------------------------------------------
    # leases and the journal
    # ------------------------------------------------------------------
    def make_record(self, client_id: Optional[str] = None) -> ClientRecord:
        """A fresh per-client record (anonymous unless ``client_id``)."""
        return ClientRecord(self, client_id)

    def journal_admit(self, period: ProgressPeriod) -> None:
        """Write-ahead one admission (lease-bound owners only)."""
        if self.journal is None:
            return
        record = period.owner
        client_id = getattr(record, "client_id", None)
        if client_id is None:
            return  # anonymous periods die with their connection anyway
        key = period.request.sharing_key
        client_key = (
            key[1]
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "serve"
            else None
        )
        self.journal.record_admit(AdmitRecord(
            pp_id=period.pp_id,
            client=client_id,
            resource=period.resource.value,
            demand_bytes=period.demand_bytes,
            reuse=period.request.reuse.value,
            sharing_key=client_key,
            label=period.request.label,
            forced=period.forced,
            token=record.token_of(period.pp_id),
        ))

    def journal_close(self, pp_id: int) -> None:
        """Balance a journaled admission (no-op for unjournaled periods)."""
        if self.journal is not None:
            self.journal.record_close(pp_id)

    def _recover(self) -> None:
        """Rebuild ledger, lease table and token index from the journal."""
        assert self.journal is not None
        state = self.journal.recover()
        for rec in sorted(state.open.values(), key=lambda r: r.pp_id):
            record, _ = self.leases.get_or_create(rec.client, self.make_record)
            request = PeriodRequest(
                resource=ResourceKind(rec.resource),
                demand_bytes=rec.demand_bytes,
                reuse=ReuseLevel(rec.reuse),
                sharing_key=(
                    ("serve", rec.sharing_key)
                    if rec.sharing_key is not None
                    else None
                ),
                label=rec.label,
            )
            period = ProgressPeriod(
                request=request,
                owner=record,
                pp_id=rec.pp_id,
                begin_time=time.monotonic(),
            )
            # forced must be set before restore() so the sanitizer's
            # demand-bound check sees the exemption on the replay charge
            period.forced = rec.forced
            self.monitor.restore(period)
            record.api.adopt(period)
            record.bind_token(rec.token, rec.pp_id)
            self.leases.renew(record)  # a fresh TTL of grace to reconnect
            self.replayed_periods += 1
            if self.estimator is not None:
                # the journaled demand is what is charged *now* (resizes
                # included); it doubles as the declared value for the
                # eventual close's estimator sample
                self._predictions[rec.pp_id] = (
                    (rec.client, rec.sharing_key or rec.label or ""),
                    rec.demand_bytes,
                    rec.demand_bytes,
                )
        if self.estimator is not None:
            for client, skey, declared, observed in state.obs:
                self.estimator.observe((client, skey), declared, observed)
        ensure_pp_ids_above(state.max_pp_id)
        self.g_replayed.set(self.replayed_periods)
        if self.replayed_periods:
            self.note_usage()

    # ------------------------------------------------------------------
    # demand prediction and elastic re-admission (repro.predict)
    # ------------------------------------------------------------------
    def predict_key(
        self, record: ClientRecord, request: protocol.Request
    ) -> EstimatorKey:
        """Estimator key for a begin: (client, sharing-key-or-label).

        A working set is a property of the code phase, not of one
        connection, so anonymous sessions share the ``""`` client bucket
        and periods without a sharing key fall back to their label.
        """
        client = getattr(record, "client_id", None) or ""
        return (client, request.sharing_key or request.label or "")

    def predicted_demand(
        self, record: ClientRecord, request: protocol.Request
    ) -> Tuple[int, bool]:
        """Bytes to admit a pp_begin on: (demand, used_prediction).

        With prediction off — or while the estimator is below its sample
        or confidence gates — this is exactly the declared demand.  A
        confident estimate replaces it, floored at
        ``predict_floor_frac × declared`` so a confident-but-wrong model
        cannot collapse a reservation to nothing.
        """
        if self.estimator is None:
            return request.demand_bytes, False
        key = self.predict_key(record, request)
        predicted = self.estimator.predict(key, request.demand_bytes)
        if predicted is None:
            return request.demand_bytes, False
        floor = int(request.demand_bytes * self.cfg.predict_floor_frac)
        return max(predicted, floor, 1), True

    def track_open(
        self,
        pp_id: int,
        record: ClientRecord,
        request: protocol.Request,
        admit_bytes: int,
    ) -> None:
        """Remember an open period's declared/charged demand (predict on)."""
        if self.estimator is None:
            return
        key = self.predict_key(record, request)
        self._predictions[pp_id] = (key, request.demand_bytes, admit_bytes)

    def forget_prediction(self, pp_id: int) -> None:
        self._predictions.pop(pp_id, None)

    def observe_close(
        self, pp_id: int, charged_bytes: int, observed_bytes: Optional[int]
    ) -> List[ProgressPeriod]:
        """Ingest a closed period's observed demand; maybe resize peers.

        Feeds the estimator (journaling the sample), classifies the
        charge-vs-observation error, updates the elastic controller and —
        past its hysteresis — shrinks or grows the key's still-running
        reservations.  Returns waiters admitted by any elastic shrink.
        """
        info = self._predictions.pop(pp_id, None)
        if (
            self.estimator is None
            or self.detector is None
            or self.elastic is None
            or info is None
            or observed_bytes is None
            or observed_bytes <= 0
        ):
            return []
        key, declared, _ = info
        if declared <= 0:
            return []
        self.estimator.observe(key, declared, observed_bytes)
        if self.journal is not None:
            self.journal.record_obs(key[0], key[1], declared, observed_bytes)
        sample = self.detector.classify(charged_bytes, observed_bytes)
        self.h_rel_error.observe(abs(sample.rel_error))
        if sample.direction == "over":
            self.c_mispredicts_over.inc()
        elif sample.direction == "under":
            self.c_mispredicts_under.inc()
        decision = self.elastic.update(key, sample)
        if decision is None:
            return []
        return self._apply_elastic(key, decision.action, observed_bytes)

    def _apply_elastic(
        self, key: EstimatorKey, action: str, observed_bytes: int
    ) -> List[ProgressPeriod]:
        """Resize the key's RUNNING reservations toward the learned demand.

        Growth is bounded by the policy's demand bound (the sanitizer
        enforces it): when there is no headroom the larger learned demand
        simply parks the key's *next* period via the admission predicate.
        """
        assert self.estimator is not None
        admitted: List[ProgressPeriod] = []
        llc = self.resources.state(ResourceKind.LLC)
        bound = self.policy.demand_bound(llc.capacity_bytes)
        for pp_id, (peer_key, declared, _) in list(self._predictions.items()):
            if peer_key != key:
                continue
            period = self.monitor.registry.find(pp_id)
            if period is None or period.state is not PeriodState.RUNNING:
                continue
            current = period.request.demand_bytes
            target = self.estimator.predict(key, declared)
            if target is None:
                target = observed_bytes
            target = max(
                target, max(1, int(declared * self.cfg.predict_floor_frac))
            )
            if action == "shrink":
                if target >= current:
                    continue
                _, woken = self.monitor.resize(pp_id, target)
                self.c_elastic_shrinks.inc()
                admitted.extend(woken)
            else:  # grow
                if target <= current:
                    continue
                headroom = bound - llc.usage_bytes
                grow_to = min(target, current + int(headroom))
                if grow_to <= current:
                    continue
                self.monitor.resize(pp_id, grow_to)
                self.c_elastic_grows.inc()
            if self.journal is not None:
                self.journal.record_resize(pp_id, period.request.demand_bytes)
            self._predictions[pp_id] = (
                peer_key, declared, period.request.demand_bytes,
            )
        if admitted:
            self.note_usage()
        return admitted

    def predicted_for_client(self, client_id: Optional[str]) -> Optional[int]:
        """Confident peak-demand estimate for a client (placement hints)."""
        if self.estimator is None or not client_id:
            return None
        return self.estimator.predicted_for_client(client_id)

    # ------------------------------------------------------------------
    def knows(self, kind: ResourceKind) -> bool:
        return self.resources.known(kind)

    def forced_running(self, kind: Optional[ResourceKind] = None) -> bool:
        """Is any starvation-guard-forced period currently admitted?"""
        return any(
            p.forced
            and p.state is PeriodState.RUNNING
            and (kind is None or p.resource is kind)
            for p in self.monitor.registry
        )

    def note_usage(self) -> None:
        """Refresh the usage/waiting high-water marks."""
        llc = self.resources.state(ResourceKind.LLC)
        self.g_usage_peak.max(llc.usage_bytes)
        self.g_waiting_peak.max(len(self.waitlist))

    def rescue_starved(self) -> List[ProgressPeriod]:
        """Force-admit head waiters whose resource is completely idle."""
        rescued: List[ProgressPeriod] = []
        for kind in self.managed_kinds:
            state = self.resources.state(kind)
            head = self.waitlist.peek(kind)
            if state.usage_bytes == 0 and head is not None:
                self.monitor.force_admit(head)
                self.forced_admissions += 1
                self.c_forced.inc()
                rescued.append(head)
        if rescued:
            self.note_usage()
        return rescued

    def snapshot(self) -> Dict[str, Any]:
        """The ``query`` verb's service-level view."""
        resources = {
            str(kind): {
                "usage_bytes": usage,
                "capacity_bytes": capacity,
                "utilization": usage / capacity if capacity else 0.0,
                "waiting": self.waitlist.waiting_on(kind),
            }
            for kind, (usage, capacity) in self.resources.snapshot().items()
        }
        snap: Dict[str, Any] = {
            "policy": self.policy.name,
            **({"shard": self.cfg.shard_name} if self.cfg.shard_name else {}),
            "demand_bound_bytes": self.policy.demand_bound(
                self.resources.state(ResourceKind.LLC).capacity_bytes
            ),
            "open_periods": len(self.monitor.registry),
            "waiting": len(self.waitlist),
            "forced_admissions": self.forced_admissions,
            "clients": len(self.leases),
            "lease_ttl_s": self.leases.ttl_s,
            "resources": resources,
        }
        if self.journal is not None:
            snap["journal"] = {
                "path": self.journal.path,
                "events_total": self.journal.events_total,
                "open": len(self.journal.open),
                "replayed_periods": self.replayed_periods,
            }
        if self.estimator is not None:
            snap["predict"] = {
                "error_band": self.cfg.predict_error_band,
                "min_samples": self.cfg.predict_min_samples,
                "tracked_periods": len(self._predictions),
            }
        return snap


class _Session:
    """Per-connection state: transport plus the client record speaking.

    A fresh connection starts with an **anonymous** record whose periods
    die with the socket.  ``hello`` swaps in a named, lease-bound
    :class:`~repro.serve.leases.ClientRecord` that outlives connections.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, service: AdmissionService, writer: asyncio.StreamWriter) -> None:
        self.id = next(self._ids)
        self.service = service
        self.record = service.make_record()
        self.record.session = self
        self.writer = writer
        self.closed = False
        #: frames that arrived while the connection was parked; processed
        #: in order once the deferred pp_begin reply has been sent
        self.pushback: List[bytes] = []

    async def send(self, frame: Dict[str, Any]) -> None:
        if self.closed:
            return
        timeout = self.service.cfg.write_timeout_s
        try:
            self.writer.write(protocol.encode_frame(frame))
            if timeout is None:
                await self.writer.drain()
            else:
                await asyncio.wait_for(self.writer.drain(), timeout)
        except asyncio.TimeoutError:
            # Slow-consumer defense: a peer that stops reading (slowloris)
            # must not pin this session's write buffer forever.  Abort the
            # transport; the read side raises and the normal cleanup path
            # reclaims the session (and, via the reaper, its lease).
            self.closed = True
            self.service.c_slow_disconnects.inc()
            with contextlib.suppress(Exception):
                self.writer.transport.abort()
        except (ConnectionError, RuntimeError):
            self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<session #{self.id}>"


class AdmissionServer:
    """Asyncio front-end: transports, parking, timeouts, drain."""

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self.service = AdmissionService(cfg)
        self.sessions: set[_Session] = set()
        #: pp_id -> future resolved with "admitted" | "drained"
        self._parked: Dict[int, asyncio.Future] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._unix_path: Optional[str] = None
        self.draining = False
        #: True once abort() ran — a supervisor restarting this shard
        #: must skip the graceful drain (the journal handle is already
        #: abandoned and the transports are gone)
        self.aborted = False
        self._drain_requested = asyncio.Event()
        self._background: List[asyncio.Task] = []
        self.service.metrics.gauge("connections", fn=lambda: len(self.sessions))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        """Bind the requested transports and start background tasks."""
        if unix_path is None and host is None:
            raise ServeError("need a unix socket path and/or a TCP host/port")
        if unix_path is not None:
            if os.path.exists(unix_path):
                os.unlink(unix_path)  # stale socket from a previous run
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client, path=unix_path,
                    limit=self.cfg.max_frame_bytes,
                )
            )
            self._unix_path = unix_path
        if host is not None:
            if port is None:
                raise ServeError("TCP transport needs a port")
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host=host, port=port,
                    limit=self.cfg.max_frame_bytes,
                )
            )
        self._background.append(asyncio.ensure_future(self._guard_loop()))
        self._background.append(asyncio.ensure_future(self._lease_loop()))
        if self.cfg.metrics_json:
            self._background.append(asyncio.ensure_future(self._metrics_loop()))

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (for ``--port 0`` ephemeral binds)."""
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family.name.startswith("AF_INET"):
                    return sock.getsockname()[1]
        return None

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; SIGTERM lands here)."""
        self._drain_requested.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix platforms

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then shut down gracefully."""
        await self._drain_requested.wait()
        self.draining = True
        # Stop accepting new connections.
        for server in self._servers:
            server.close()
        # Wake every parked client with a DRAINING reply.
        for future in list(self._parked.values()):
            if not future.done():
                future.set_result("drained")
        # Give running periods the grace budget to pp_end naturally.
        deadline = time.monotonic() + self.cfg.drain_grace_s
        while (
            len(self.service.monitor.registry) > 0
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
        for session in list(self.sessions):
            session.closed = True
            with contextlib.suppress(Exception):
                session.writer.close()
        for server in self._servers:
            await server.wait_closed()
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)
        if self.service.sanitizer is not None:
            self.service.sanitizer.finalize()
        if self.cfg.metrics_json:
            self.service.metrics.dump_json(self.cfg.metrics_json)
        if self.service.journal is not None:
            self.service.journal.close()

    async def abort(self) -> None:
        """Crash simulation: the in-process analogue of ``kill -9``.

        No drain, no client notification, no journal flush — transports
        are hard-dropped and the journal handle abandoned, leaving the log
        exactly as a power cut would.  Used by the crash-recovery tests
        and the chaos harness's in-process mode.
        """
        self.aborted = True
        if self.service.journal is not None:
            self.service.journal.abandon()  # poison appends *first*
        for server in self._servers:
            server.close()
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        for future in list(self._parked.values()):
            if not future.done():
                future.cancel()
        for session in list(self.sessions):
            session.closed = True
            with contextlib.suppress(Exception):
                session.writer.transport.abort()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)

    # ------------------------------------------------------------------
    # background tasks
    # ------------------------------------------------------------------
    async def _guard_loop(self) -> None:
        """Periodic starvation-guard sweep (safety net for the inline one)."""
        while True:
            await asyncio.sleep(self.cfg.starvation_check_s)
            self._wake(self.service.rescue_starved())

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.metrics_interval_s)
            self.service.metrics.dump_json(self.cfg.metrics_json)

    async def _lease_loop(self) -> None:
        """Reap the admitted demand of clients whose lease lapsed."""
        while True:
            await asyncio.sleep(self.cfg.lease_check_s)
            self._reap_expired()

    def _reap_expired(self) -> None:
        """One reaper sweep over every expired lease.

        A dead client (no live connection) is fully reclaimed: all of its
        periods are cancelled and the record forgotten.  A *live* but
        silent client — a wedged proxy can hold a TCP session open long
        after the process died — loses its RUNNING periods (parked ones
        are already bounded by the park timeout) but keeps its record, so
        a late frame still speaks for a known identity.
        """
        service = self.service
        admitted: List[ProgressPeriod] = []
        reclaimed_any = False
        for record in service.leases.expired():
            dead = record.session is None or record.session.closed
            reclaimed = 0
            for pp_id in list(record.api.open_ids()):
                period = record.api.period(pp_id)
                if dead or period.state is PeriodState.RUNNING:
                    self._parked.pop(pp_id, None)
                    admitted.extend(self._cancel_period(record, pp_id))
                    reclaimed += 1
            if reclaimed:
                service.c_leases_reclaimed.inc()
                service.c_lease_periods.inc(reclaimed)
                reclaimed_any = True
            if dead:
                service.leases.forget(record)
            else:
                service.leases.renew(record)  # one reclaim per lapse, not per sweep
        if reclaimed_any:
            admitted.extend(service.rescue_starved())
        self._wake(admitted)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(self.service, writer)
        self.sessions.add(session)
        try:
            await self._serve_session(session, reader)
        finally:
            self.sessions.discard(session)
            self._cleanup_session(session)
            session.closed = True
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve_session(
        self, session: _Session, reader: asyncio.StreamReader
    ) -> None:
        while not session.closed:
            if session.pushback:
                line = session.pushback.pop(0)
            else:
                try:
                    line = await asyncio.wait_for(
                        protocol.read_raw_frame(
                            reader, self.cfg.max_frame_bytes
                        ),
                        timeout=self.cfg.idle_timeout_s,
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    return  # idle client or dead transport: hang up
                except ProtocolError as exc:
                    # Oversized frame: the byte stream can no longer be
                    # re-synchronized — typed error, then hang up.
                    self.service.c_protocol_errors.inc()
                    await session.send(
                        protocol.error_reply(None, exc.code, exc.message)
                    )
                    return
                if not line:
                    return  # EOF
            self.service.c_requests.inc()
            try:
                request = protocol.parse_request(
                    protocol.decode_any_frame(line, self.cfg.max_frame_bytes)
                )
            except ProtocolError as exc:
                self.service.c_protocol_errors.inc()
                await session.send(
                    protocol.error_reply(None, exc.code, exc.message)
                )
                continue
            # Any well-formed frame proves the client is alive.
            self.service.leases.renew(session.record)
            reply = await self._dispatch(session, reader, request)
            if reply is not None:
                await session.send(reply)
            if request.op == "drain":
                self.request_drain()

    async def _dispatch(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        request: protocol.Request,
    ) -> Optional[Dict[str, Any]]:
        try:
            if request.op == "pp_begin":
                return await self._op_pp_begin(session, reader, request)
            if request.op == "pp_end":
                return self._op_pp_end(session, request)
            if request.op == "hello":
                return self._op_hello(session, request)
            if request.op == "heartbeat":
                return self._op_heartbeat(session, request)
            if request.op == "query":
                return self._op_query(session, request)
            if request.op == "stats":
                return self._op_stats(request)
            if request.op == "drain":
                return self._op_drain(request)
            raise ServeError(f"unroutable op {request.op!r}")  # pragma: no cover
        except Exception as exc:  # noqa: BLE001 — a reply beats a dead server
            return protocol.error_reply(
                request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _op_pp_begin(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        request: protocol.Request,
    ) -> Optional[Dict[str, Any]]:
        service = self.service
        service.c_begin.inc()
        record = session.record
        # Idempotent re-issue: a token that already names an open admitted
        # period returns that period instead of charging twice — the
        # resilient client re-sends pp_begin after a lost reply.
        if request.token is not None:
            known = record.tokens.get(request.token)
            if known is not None:
                try:
                    period = record.api.period(known)
                except ProgressPeriodError:
                    record.drop_token(known)
                    period = None
                if period is not None and period.state is PeriodState.RUNNING:
                    service.c_idempotent.inc()
                    return self._admitted_reply(request.id, period, deduped=True)
                if period is not None and period.state is PeriodState.WAITING:
                    # A stale parked period from a taken-over connection:
                    # supersede it rather than park the same token twice.
                    self._parked.pop(known, None)
                    self._wake(self._cancel_period(record, known))
        if self.draining:
            service.c_draining_rejects.inc()
            return protocol.error_reply(
                request.id, ErrorCode.DRAINING, "server is draining"
            )
        if not service.knows(request.resource):
            service.c_protocol_errors.inc()
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"resource {request.resource} is not managed by this server",
            )
        # Overload backpressure: the pending-admission queue is bounded.
        if len(service.waitlist) >= self.cfg.max_pending:
            service.c_retry_after.inc()
            return protocol.error_reply(
                request.id, ErrorCode.RETRY_AFTER,
                f"pending-admission queue is full "
                f"({self.cfg.max_pending} waiter(s))",
                retry_after_s=self._retry_hint_s(),
            )
        # Fairness: the bounded queue is also bounded *per client*, so one
        # storm client cannot occupy the whole waitlist.
        if self.cfg.max_pending_per_client is not None:
            waiting = sum(
                1
                for pp_id in record.api.open_ids()
                if record.api.period(pp_id).state is PeriodState.WAITING
            )
            if waiting >= self.cfg.max_pending_per_client:
                service.c_quota_rejects.inc()
                service.c_retry_after.inc()
                return protocol.error_reply(
                    request.id, ErrorCode.RETRY_AFTER,
                    f"client has {waiting} parked admission(s), at the "
                    f"per-client quota of {self.cfg.max_pending_per_client}",
                    retry_after_s=self._retry_hint_s(),
                )
        sharing_key = (
            ("serve", request.sharing_key) if request.sharing_key is not None else None
        )
        # With --predict, a confident learned estimate replaces the
        # declared demand: admit on max(predicted, floor).
        admit_bytes, used_prediction = service.predicted_demand(record, request)
        if used_prediction:
            service.c_predicted_admits.inc()
        pp_id = record.api.pp_begin(
            request.resource,
            admit_bytes,
            request.reuse,
            label=request.label,
            sharing_key=sharing_key,
        )
        service.track_open(pp_id, record, request, admit_bytes)
        period = record.api.period(pp_id)
        # Bind the token *before* any admission so _wake-time journaling
        # of after-park admissions can read it off the owner record.
        record.bind_token(request.token, pp_id)
        # Inline starvation guard: an empty resource must admit its lone
        # oversized period (mirrors RdaScheduler.on_pp_begin).
        if (
            period.state is PeriodState.WAITING
            and service.resources.state(period.resource).usage_bytes == 0
        ):
            service.monitor.force_admit(period)
            service.forced_admissions += 1
            service.c_forced.inc()
        if period.state is PeriodState.RUNNING:
            service.c_immediate.inc()
            service.note_usage()
            service.journal_admit(period)
            return self._admitted_reply(request.id, period)
        return await self._park(session, reader, request, period)

    def _retry_hint_s(self) -> float:
        """The retry hint carried by shed replies.

        With both adaptive bounds configured, the hint scales with live
        queue occupancy and the observed median admission latency
        (:func:`adaptive_retry_hint_s`); otherwise it is the constant
        ``cfg.retry_after_s``, byte-identical to the legacy behavior.
        """
        cfg = self.cfg
        if cfg.retry_hint_floor_s is None or cfg.retry_hint_cap_s is None:
            return cfg.retry_after_s
        service = self.service
        occupancy = (
            len(service.waitlist) / cfg.max_pending if cfg.max_pending else 1.0
        )
        p50 = (
            service.h_admission.percentile(50.0)
            if service.h_admission.count
            else 0.0
        )
        return adaptive_retry_hint_s(
            occupancy, p50, cfg.retry_hint_floor_s, cfg.retry_hint_cap_s
        )

    async def _park(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        request: protocol.Request,
        period: ProgressPeriod,
    ) -> Optional[Dict[str, Any]]:
        """Defer the reply until admission, timeout, drain, or disconnect.

        While parked we keep one frame read in flight so a client that
        dies mid-park is noticed immediately (its period is cancelled and
        its demand released) instead of squatting on the waitlist until the
        park timeout.  Frames a client pipelines while parked are buffered
        and served after the deferred reply.
        """
        service = self.service
        service.note_usage()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._parked[period.pp_id] = future
        parked_at = loop.time()
        deadline = (
            None
            if self.cfg.park_timeout_s is None
            else parked_at + self.cfg.park_timeout_s
        )
        # CoDel-style sojourn bound: a separate, typically much tighter
        # deadline that sheds the period with PARK_TIMEOUT + a retry hint
        # instead of the legacy terminal TIMEOUT.
        sojourn_deadline = (
            None
            if self.cfg.park_deadline_s is None
            else parked_at + self.cfg.park_deadline_s
        )
        if sojourn_deadline is not None and (
            deadline is None or sojourn_deadline < deadline
        ):
            deadline, shed_deadline = sojourn_deadline, True
        else:
            shed_deadline = False
        read_task: Optional[asyncio.Task] = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(protocol.read_raw_frame(
                        reader, self.cfg.max_frame_bytes
                    ))
                timeout = (
                    None if deadline is None else max(0.0, deadline - loop.time())
                )
                done, _ = await asyncio.wait(
                    {future, read_task},
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                eof = False
                if read_task in done:
                    try:
                        line = read_task.result()
                    except (ConnectionError, ProtocolError):
                        # An oversized frame while parked is handled like
                        # a disconnect: the stream is unrecoverable.
                        line, eof = b"", True
                    read_task = None
                    if line:
                        session.pushback.append(line)
                        # A pipelined frame (heartbeat included) proves the
                        # parked client alive even before it is parsed.
                        service.leases.renew(session.record)
                    else:
                        eof = True
                if eof:
                    # Client vanished while parked.  Anonymous periods are
                    # cancelled outright; a lease-bound client may be
                    # reconnecting, so its parked period is cancelled (the
                    # reply target is gone) but re-issue by token is safe.
                    session.closed = True
                    service.c_disconnect_cancel.inc()
                    self._wake(self._cancel_period(session.record, period.pp_id))
                    self._wake(service.rescue_starved())
                    return None  # no one left to reply to
                if future.done():
                    break
                if not done and read_task is not None:
                    # Pure timeout: cancel the period and tell the client.
                    self._wake(self._cancel_period(session.record, period.pp_id))
                    self._wake(service.rescue_starved())
                    if shed_deadline:
                        # Sojourn bound: the wait is shed, not failed —
                        # the typed error carries a retry hint.
                        service.c_park_deadline.inc()
                        return protocol.error_reply(
                            request.id, ErrorCode.PARK_TIMEOUT,
                            f"parked past the {self.cfg.park_deadline_s} s "
                            "sojourn deadline; period cancelled",
                            waited_s=self.cfg.park_deadline_s,
                            retry_after_s=self._retry_hint_s(),
                        )
                    service.c_park_timeout.inc()
                    return protocol.error_reply(
                        request.id, ErrorCode.TIMEOUT,
                        f"parked longer than the {self.cfg.park_timeout_s} s "
                        "park timeout; period cancelled",
                        waited_s=self.cfg.park_timeout_s,
                    )
        finally:
            self._parked.pop(period.pp_id, None)
            service.h_sojourn.observe(max(0.0, loop.time() - parked_at))
            if read_task is not None:
                read_task.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ConnectionError, ProtocolError
                ):
                    await read_task
        if future.result() == "drained":
            self._wake(self._cancel_period(session.record, period.pp_id))
            return protocol.error_reply(
                request.id, ErrorCode.DRAINING,
                "server drained while the period was parked; period cancelled",
            )
        service.c_after_park.inc()
        service.h_park.observe(period.waited_s)
        service.note_usage()
        return self._admitted_reply(request.id, period)

    def _admitted_reply(
        self,
        request_id: Optional[int],
        period: ProgressPeriod,
        deduped: bool = False,
    ) -> Dict[str, Any]:
        if not deduped:
            self.service.h_admission.observe(
                max(0.0, time.monotonic() - period.begin_time)
            )
        reply = protocol.ok_reply(
            request_id,
            pp_id=period.pp_id,
            admitted=True,
            waited_s=period.waited_s,
            forced=period.forced,
        )
        if deduped:
            reply["deduped"] = True
        return reply

    def _op_hello(
        self, session: _Session, request: protocol.Request
    ) -> Dict[str, Any]:
        """Bind this connection to a durable, lease-holding client identity."""
        service = self.service
        record = session.record
        if not record.anonymous:
            if record.client_id == request.client:
                service.leases.renew(record)  # re-hello: plain renewal
                return self._hello_reply(request.id, record, resumed=True)
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"connection is already bound to client "
                f"{record.client_id!r}; open a new connection to speak for "
                f"{request.client!r}",
            )
        if record.api.open_count:
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                "'hello' must precede pp_begin on a connection "
                "(anonymous periods cannot be adopted by an identity)",
            )
        named, resumed = service.leases.get_or_create(
            request.client, service.make_record
        )
        old = named.session
        if old is not None and old is not session and not old.closed:
            # Connection takeover: the newest socket speaks for the client
            # (the old one is typically a zombie behind a dead NAT/proxy).
            old.closed = True
            with contextlib.suppress(Exception):
                old.writer.close()
        named.session = session
        session.record = named
        service.leases.renew(named)
        service.c_hello.inc()
        return self._hello_reply(request.id, named, resumed=resumed)

    def _hello_reply(
        self,
        request_id: Optional[int],
        record: ClientRecord,
        resumed: bool,
    ) -> Dict[str, Any]:
        open_periods = []
        for pp_id in record.api.open_ids():
            period = record.api.period(pp_id)
            if period.state is PeriodState.RUNNING:
                open_periods.append({
                    "pp_id": pp_id,
                    "token": record.token_of(pp_id),
                    "demand_bytes": period.demand_bytes,
                    "label": period.request.label,
                    "forced": period.forced,
                })
        reply = protocol.ok_reply(
            request_id,
            client=record.client_id,
            resumed=resumed,
            lease_ttl_s=self.service.leases.ttl_s,
            open=open_periods,
        )
        # Learned peak demand doubles as a cluster placement hint: the
        # client forwards it as `hello demand_bytes` on its next connect.
        hint = self.service.predicted_for_client(record.client_id)
        if hint is not None:
            reply["predicted_demand_bytes"] = hint
        return reply

    def _op_heartbeat(
        self, session: _Session, request: protocol.Request
    ) -> Dict[str, Any]:
        record = session.record
        if record.anonymous:
            return protocol.error_reply(
                request.id, ErrorCode.NOT_BOUND,
                "heartbeat requires a client identity; send 'hello' first",
            )
        self.service.leases.renew(record)  # explicit on top of the per-frame renewal
        self.service.c_heartbeats.inc()
        return protocol.ok_reply(
            request.id,
            client=record.client_id,
            lease_remaining_s=self.service.leases.remaining_s(record),
            open_periods=record.api.open_count,
        )

    def _op_pp_end(
        self, session: _Session, request: protocol.Request
    ) -> Dict[str, Any]:
        service = self.service
        record = session.record
        try:
            period = record.api.period(request.pp_id)
        except ProgressPeriodError:
            service.c_protocol_errors.inc()
            return protocol.error_reply(
                request.id, ErrorCode.UNKNOWN_PERIOD,
                f"pp_id {request.pp_id} is not an open period of this "
                "connection (already ended, cancelled, or never begun)",
            )
        # WAL discipline: the release hits the log before the ledger, so a
        # crash in between replays a *closed* period as closed (the client
        # saw no reply and will retry pp_end, which is tolerated).
        record.drop_token(request.pp_id)
        charged = period.request.demand_bytes
        service.journal_close(request.pp_id)
        admitted = record.api.pp_end(request.pp_id)
        service.c_end.inc()
        if period.admit_time is not None and period.end_time is not None:
            service.h_service.observe(period.end_time - period.admit_time)
        self._wake(admitted)
        # Demand prediction: ingest the client's observed working set,
        # detect mispredictions and elastically resize the key's peers.
        self._wake(
            service.observe_close(request.pp_id, charged, request.observed_bytes)
        )
        self._wake(service.rescue_starved())
        return protocol.ok_reply(
            request.id, pp_id=request.pp_id, released=True,
            admitted_waiters=len(admitted),
        )

    def _op_query(
        self, session: _Session, request: protocol.Request
    ) -> Dict[str, Any]:
        snapshot = self.service.snapshot()
        snapshot["draining"] = self.draining
        if request.pp_id is not None:
            try:
                period = session.record.api.period(request.pp_id)
            except ProgressPeriodError:
                return protocol.error_reply(
                    request.id, ErrorCode.UNKNOWN_PERIOD,
                    f"pp_id {request.pp_id} is not an open period of this "
                    "connection",
                )
            snapshot["period"] = {
                "pp_id": period.pp_id,
                "state": period.state.value,
                "demand_bytes": period.demand_bytes,
                "queue_position": self.service.waitlist.position(period),
                "waited_s": (
                    period.waited_s
                    if period.admit_time is not None
                    else time.monotonic() - period.begin_time
                ),
                "forced": period.forced,
            }
        return protocol.ok_reply(request.id, **snapshot)

    def _op_stats(self, request: protocol.Request) -> Dict[str, Any]:
        stats = self.service.metrics.snapshot()
        sanitizer = self.service.sanitizer
        stats["sanitizer"] = (
            None
            if sanitizer is None
            else {"ok": sanitizer.ok, "violations": len(sanitizer.violations)}
        )
        return protocol.ok_reply(request.id, stats=stats)

    def _op_drain(self, request: protocol.Request) -> Dict[str, Any]:
        # The caller's reply is sent before request_drain() runs (the read
        # loop triggers it after the send), so the client always hears back.
        return protocol.ok_reply(
            request.id,
            draining=True,
            open_periods=len(self.service.monitor.registry),
            waiting=len(self.service.waitlist),
        )

    # ------------------------------------------------------------------
    # wakeups and cleanup
    # ------------------------------------------------------------------
    def _cancel_period(
        self, record: ClientRecord, pp_id: int
    ) -> List[ProgressPeriod]:
        """Cancel one period with full bookkeeping: token, journal, charge.

        Tolerates a period that is already gone (e.g. a takeover cancelled
        it just before the old connection's EOF path runs) — cancellation
        paths race by design and the loser must be a no-op.
        """
        record.drop_token(pp_id)
        self.service.forget_prediction(pp_id)
        try:
            record.api.period(pp_id)
        except ProgressPeriodError:
            return []
        self.service.journal_close(pp_id)
        return record.api.pp_cancel(pp_id)

    def _wake(self, admitted: List[ProgressPeriod]) -> None:
        """Resolve the parked futures of newly admitted periods.

        Every waitlist admission — after a release, a rescue, or a reaper
        reclaim — funnels through here, so this is also where after-park
        admissions hit the journal: the write-ahead record lands before
        the parked handler wakes to send its reply.
        """
        for period in admitted:
            self.service.journal_admit(period)
            future = self._parked.get(period.pp_id)
            if future is not None and not future.done():
                future.set_result("admitted")

    def _cleanup_session(self, session: _Session) -> None:
        """Connection gone: settle what dies with it, keep what is leased.

        Anonymous records keep the original semantics — every period is
        cancelled, demand released, waiters admitted (the kernel's
        thread-exit path, `abandon_owner`).  A lease-bound record keeps
        its RUNNING periods alive under the lease (the client may be
        reconnecting); only parked periods are cancelled, because their
        deferred reply has no destination any more.
        """
        record = session.record
        if record.session is session:
            record.session = None
        cancelled = False
        admitted: List[ProgressPeriod] = []
        for pp_id in record.api.open_ids():
            period = record.api.period(pp_id)
            if record.anonymous or period.state is PeriodState.WAITING:
                self._parked.pop(pp_id, None)  # its future dies with the task
                admitted.extend(self._cancel_period(record, pp_id))
                self.service.c_disconnect_cancel.inc()
                cancelled = True
        if cancelled:
            admitted.extend(self.service.rescue_starved())
            self._wake(admitted)


async def serve_until_drained(
    cfg: ServeConfig,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    signals: bool = True,
    ready: Optional[asyncio.Event] = None,
) -> AdmissionServer:
    """Start a server, run until drained, and return it (for inspection)."""
    server = AdmissionServer(cfg)
    await server.start(unix_path=unix_path, host=host, port=port)
    if signals:
        server.install_signal_handlers()
    if ready is not None:
        ready.set()
    await server.run_until_drained()
    return server
