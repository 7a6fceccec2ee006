"""The campaign engine: staged rollouts as discrete-event callbacks.

A :class:`CampaignEngine` drives one :class:`~repro.campaign.spec.CampaignSpec`
against one :class:`~repro.api.platform.Platform`.  It never busy-waits:
wave dispatch, health-gate evaluation, promotion, retries, and rollback
all run as callbacks on the shared simulator, triggered either by the
control plane's installation events (the ``deploy`` category of the
API's :class:`~repro.telemetry.bus.TelemetryBus`, which
:class:`~repro.server.services.deployments.DeploymentService`
publishes) or by scheduled wave/rollback timeout timers.  ``run()``
simply steps the kernel until the campaign reaches a terminal status.

The engine sees the fleet only through what the control plane already
records: installation state as ``deploy`` events, vehicle health as
:class:`~repro.core.messages.DiagMessage` reports (the soak baseline
sums each vehicle's ``diagnostic_reports()``; the soak window reads the
relayed ``diag`` events).  Both vehicle fidelities answer those calls
alike.

Every engine belongs to a campaign registered with the server's
:class:`~repro.server.services.campaigns.CampaignService` (see
``Platform.stage_campaign``): the campaign is persisted as a database
entity, its status and report are written back as it runs, and wave
dispatch passes **admission control** — VINs held by another
concurrent campaign (being updated or, critically, mid-rollback) are
excluded up front with an ``admission_denied`` event instead of being
fought over.

Life cycle of one wave::

    admission filter ──> dispatch (deploy_batch) ──> install events ──┐
          │ denied -> EXCLUDED   │ rejected VINs -> EXCLUDED          │
          │                      └─ timeout timer ──> retries ────────┤
          v                                                           v
                                   gate: HealthPolicy.breaches()
                                     │ pass          │ breach
                                     v               v
                            promote next wave   RollbackPolicy
                            (after soak/pause)  (uninstall / abandon)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.campaign.faults import FaultInjector, FaultPlan
from repro.campaign.report import (
    HALTED,
    ROLLED_BACK,
    SUCCEEDED,
    TIMED_OUT,
    CampaignEvent,
    CampaignReport,
    Disposition,
    WaveReport,
)
from repro.campaign.spec import (
    CANARY_SOAK_US, RETRY_BACKOFF_US, WAVE_PAUSE_US, CampaignSpec,
)
from repro.errors import ConfigurationError
from repro.server.models import InstallStatus
from repro.server.services.envelope import ErrorCode
from repro.server.services.campaigns import (
    PHASE_ROLLING_BACK,
    CampaignService,
)
from repro.sim.kernel import SECOND, EventHandle, format_time
from repro.telemetry.bus import TelemetryEvent
from repro.telemetry.soak import SoakMonitor, VehicleBaseline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.platform import Platform

#: Default bound on one engine ``run()`` in simulated time.
DEFAULT_RUN_TIMEOUT_US = 600 * SECOND


class CampaignEngine:
    """Orchestrates one staged rollout on one platform."""

    def __init__(
        self,
        platform: "Platform",
        spec: CampaignSpec,
        campaign_id: str,
        service: CampaignService,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.platform = platform
        self.spec = spec
        self.campaign_id = campaign_id
        self.service = service
        self.injector = (
            FaultInjector(platform, faults)
            if faults is not None and faults.active
            else None
        )
        self.report = CampaignReport(
            app_name=spec.app_name, campaign_id=campaign_id
        )
        self.done = False
        self._started = False
        #: The control-plane generation this engine was built against; a
        #: simulated server restart replaces it, orphaning this engine.
        self._api = platform.server.api
        self._user_id = spec.user_id or platform.user_id
        self._wave_index = -1
        self._pending: set[str] = set()
        self._attempts: dict[str, int] = {}
        self._retry_scheduled: set[str] = set()
        self._rollback_pending: set[str] = set()
        self._timer: Optional[EventHandle] = None
        self._timer_generation = 0
        #: The control plane's bounded event bus.
        self._bus = self._api.telemetry
        self._baseline: dict[str, VehicleBaseline] = {}
        self._soak_monitor: Optional[SoakMonitor] = None
        self._soak_generation = 0
        self._bus_t0 = (0, 0)
        self._pusher_t0 = (0, 0)

    # -- plumbing --------------------------------------------------------------

    @property
    def _deployments(self):
        return self._api.deployments

    def _check_orphaned(self) -> bool:
        """Retire quietly if a server restart replaced the control plane.

        The engine's claims, bus tap, and record ownership all lived
        in the pre-restart services; acting on the rebuilt
        ones (abandoning records a resumed run re-created, overwriting
        the record's post-restart status) would corrupt the successor's
        state.  An orphaned engine stops without touching the database.
        """
        if self.platform.server.api is self._api:
            return False
        if not self.done:
            self.done = True
            self._disarm_timer()
            self._bus.unsubscribe(self._on_event)
            self._soak_monitor = None
            self.report.status = "orphaned"
            self._log("campaign_orphaned", detail="server restarted")
        return True

    @property
    def _sim(self):
        return self.platform.sim

    def _log(self, kind: str, vin: str = "", detail: str = "") -> None:
        self.report.events.append(
            CampaignEvent(self._sim.now, kind, self._wave_index, vin, detail)
        )
        # Mirror the timeline onto the observability pipeline, which
        # feeds the gateway's live event stream.
        self._bus.publish(
            "campaign", kind, self._sim.now, vin=vin,
            campaign_id=self.campaign_id, wave=self._wave_index,
            detail=detail,
        )

    def _arm_timer(self, delay_us: int, callback) -> None:
        self._timer_generation += 1
        generation = self._timer_generation

        def guarded() -> None:
            if self.done or generation != self._timer_generation:
                return
            if self._check_orphaned():
                return
            callback()

        self._timer = self._sim.schedule(delay_us, guarded, "campaign:timer")

    def _disarm_timer(self) -> None:
        self._timer_generation += 1
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None

    # -- life cycle ------------------------------------------------------------

    def start(self) -> None:
        """Boot, attach faults, partition the fleet, dispatch wave 0."""
        if self._started:
            raise ConfigurationError("campaign engine already started")
        self._started = True
        if self._check_orphaned():
            return
        self.platform.boot()
        if self.injector is not None:
            self.injector.attach()
        resolve = self.platform.server.api.vehicles.resolve
        targets = self.spec.resolve_targets(self.platform.vins, resolve)
        waves = self.spec.waves.partition(targets, resolve)
        self.report.started_us = self._sim.now
        self._bus_t0 = (self._bus.published(), self._bus.dropped())
        pusher = self._api.pusher
        self._pusher_t0 = (pusher.pushed, pusher.dropped_messages)
        # Pre-flight: statically verify the target APP before wave 1.
        # The upload gate already rejects error-tier binaries, but an
        # APP seeded around the store (migration, direct DB insert)
        # would otherwise only fail on vehicles mid-rollout.
        preflight = self._api.store.preflight(self.spec.app_name)
        if not preflight.ok and preflight.code is ErrorCode.VERIFICATION_FAILED:
            self._log(
                "verification_failed",
                detail="; ".join(preflight.reasons) or "static verification failed",
            )
            self._finish(HALTED)
            return
        if self.spec.soak is not None:
            self._baseline = self._capture_baseline(targets)
            self._log(
                "baseline_captured",
                detail=f"{len(self._baseline)} vehicles",
            )
        self.report.waves = [
            WaveReport(
                index=index,
                canary=self.spec.is_canary_wave(index, len(waves)),
                vins=wave,
            )
            for index, wave in enumerate(waves)
        ]
        # After the injector's tap, so it reacts to an install first.
        self._bus.subscribe(
            self._on_event,
            ("deploy", "diag") if self.spec.soak is not None else ("deploy",),
        )
        self.service.on_started(self.campaign_id, self._sim.now)
        if not waves:
            self._finish(SUCCEEDED)
            return
        self._sim.schedule(0, lambda: self._start_wave(0), "campaign:wave0")

    def run(self, timeout_us: int = DEFAULT_RUN_TIMEOUT_US) -> CampaignReport:
        """Step the kernel until the campaign terminates; returns the report.

        ``timeout_us`` bounds the *simulated* time this call may consume;
        hitting it finalises the report with status ``timed_out``.
        """
        if not self._started:
            self.start()
        sim = self._sim
        step = sim.step
        check_orphaned = self._check_orphaned
        deadline = sim.now + timeout_us
        # Orphaning is driven by a server restart — itself an event — and
        # every engine callback re-checks on entry, so the loop only needs
        # to poll often enough to stop stepping promptly, not per event.
        countdown = 0
        while not self.done and sim.now < deadline:
            if countdown == 0:
                if check_orphaned():
                    break
                countdown = 64
            countdown -= 1
            if not step():
                break
        if not self.done:
            # Mirror the wave-timeout path: abandon the server records of
            # everything still in flight (pending installs AND half-done
            # rollbacks) so a late ack cannot contradict the report.
            for vin in sorted(self._pending | self._rollback_pending):
                self._deployments.abandon(
                    self._user_id, vin, self.spec.app_name
                )
                self._set_disposition(vin, Disposition.NEEDS_WORKSHOP)
            self._pending.clear()
            self._rollback_pending.clear()
            self._finish(TIMED_OUT)
        return self.report

    # -- wave dispatch ---------------------------------------------------------

    def _start_wave(self, index: int) -> None:
        if self.done or self._check_orphaned():
            return
        self._wave_index = index
        wave = self.report.waves[index]
        wave.started_us = self._sim.now
        self._log("wave_started", detail=f"{len(wave.vins)} vehicles")
        denied = self.service.admit(self.campaign_id, wave.vins)
        for vin in sorted(denied):
            wave.excluded += 1
            self._set_disposition(vin, Disposition.EXCLUDED)
            self._log("admission_denied", vin, denied[vin])
        targets = [vin for vin in wave.vins if vin not in denied]
        deployment = self.platform.deploy_to(
            self.spec.app_name, targets, user_id=self._user_id
        )
        self._pending = set()
        for vin, result in deployment.results.items():
            if result.ok:
                self._pending.add(vin)
                self._attempts[vin] = 0
            else:
                wave.excluded += 1
                self._set_disposition(vin, Disposition.EXCLUDED)
                self._log(
                    "deploy_rejected", vin,
                    result.reasons[0] if result.reasons else "",
                )
        self.service.claim(self.campaign_id, sorted(self._pending))
        wave.attempted = len(self._pending)
        if self._pending:
            self._arm_timer(
                self.spec.wave_timeout_us,
                lambda: self._on_wave_timeout(index),
            )
        else:
            if wave.attempted == 0:
                # Empty selector wave, or every VIN excluded/denied: the
                # health gate will pass vacuously (nothing to measure).
                # Make that visible — an operator watching a canary that
                # never ran should know the fleet is promoted unvetted.
                self._log(
                    "empty_wave",
                    detail=(
                        "canary had no vehicles; gate passes vacuously"
                        if wave.canary
                        else "no vehicles attempted"
                    ),
                )
            self._complete_wave(index)

    # -- event handling --------------------------------------------------------

    def _on_event(self, event: TelemetryEvent) -> None:
        """Bus tap: installation events drive the rollout, diag
        reports feed the open soak window."""
        if event.category == "diag":
            self._on_diag(event)
            return
        if self.done or self._check_orphaned():
            return
        # Events without an app (``malformed_upstream``) are not ours.
        if event.data.get("app") != self.spec.app_name:
            return
        if event.name == "install_resolved":
            self._on_install_resolved(
                event.vin, InstallStatus(event.data["status"])
            )
        elif event.name in ("uninstall_done", "uninstall_failed"):
            self._on_uninstall_event(event.vin, event.name)

    def _on_install_resolved(self, vin: str, status: InstallStatus) -> None:
        if vin not in self._pending:
            return
        wave = self.report.waves[self._wave_index]
        if status is InstallStatus.ACTIVE:
            self._pending.discard(vin)
            self.service.release(self.campaign_id, [vin])
            wave.updated += 1
            self._set_disposition(vin, Disposition.UPDATED)
            self._log("updated", vin)
            self._check_wave_complete()
            return
        # Negative acknowledgement: spend the retry budget, then fail.
        if self._try_retry(vin, wave, "install_failed"):
            return
        self._give_up(vin, wave, "install_failed", "retry budget exhausted")

    def _give_up(
        self,
        vin: str,
        wave: WaveReport,
        kind: str,
        detail: str = "",
        check_complete: bool = True,
    ) -> None:
        """Final failure of one VIN: count it, clean the server record,
        flag the vehicle for the workshop."""
        self._pending.discard(vin)
        self.service.release(self.campaign_id, [vin])
        if kind == "timed_out":
            wave.timed_out += 1
        else:
            wave.failed += 1
        self._deployments.abandon(self._user_id, vin, self.spec.app_name)
        self._set_disposition(vin, Disposition.NEEDS_WORKSHOP)
        self._log(kind, vin, detail)
        if check_complete:
            self._check_wave_complete()

    def _try_retry(self, vin: str, wave: WaveReport, cause: str) -> bool:
        """Consume one retry for ``vin``; True when a retry was arranged.

        The retry is not pushed immediately: it settles for
        :data:`~repro.campaign.spec.RETRY_BACKOFF_US` first, so the
        remaining NACKs of the failed attempt land on the already-FAILED
        record (no status transition, no event) instead of being
        mistaken for the retry's outcome.
        """
        if vin in self._retry_scheduled:
            return True  # a retry is already waiting out its backoff
        if self._attempts.get(vin, 0) >= self.spec.retry_budget:
            return False
        self._attempts[vin] = self._attempts.get(vin, 0) + 1
        self._retry_scheduled.add(vin)
        self._sim.schedule(
            RETRY_BACKOFF_US,
            lambda: self._push_retry(vin, wave, cause),
            f"campaign:retry:{vin}",
        )
        return True

    def _push_retry(self, vin: str, wave: WaveReport, cause: str) -> None:
        self._retry_scheduled.discard(vin)
        if self.done or self._check_orphaned() or vin not in self._pending:
            return
        result = self._deployments.retry_install(
            self._user_id, vin, self.spec.app_name
        )
        if not result.ok:
            self._give_up(
                vin, wave, "install_failed",
                result.reasons[0] if result.reasons else "retry rejected",
            )
            return
        wave.retries += 1
        self._log(
            "retry", vin,
            f"{cause}; attempt {self._attempts[vin]}/{self.spec.retry_budget}",
        )

    def _on_wave_timeout(self, index: int) -> None:
        if self.done or index != self._wave_index:
            return
        wave = self.report.waves[index]
        retried = False
        for vin in sorted(self._pending):
            if self._try_retry(vin, wave, "wave_timeout"):
                retried = True
                continue
            self._give_up(vin, wave, "timed_out", check_complete=False)
        if self._pending:
            if retried:
                self._arm_timer(
                    self.spec.wave_timeout_us,
                    lambda: self._on_wave_timeout(index),
                )
            return
        self._check_wave_complete()

    # -- gates and promotion ---------------------------------------------------

    def _check_wave_complete(self) -> None:
        if self._pending or self.done:
            return
        self._disarm_timer()
        self._complete_wave(self._wave_index)

    def _complete_wave(self, index: int) -> None:
        wave = self.report.waves[index]
        wave.resolved_us = self._sim.now
        health = self.spec.health_for_wave(index, len(self.report.waves))
        wave.breaches = health.breaches(
            wave.attempted, wave.failed, wave.timed_out
        )
        if wave.breaches:
            self._log("gate_breached", detail="; ".join(wave.breaches))
            self._begin_rollback(index)
            return
        self._log("gate_passed")
        if self.spec.soak is not None and wave.updated > 0:
            # Telemetry-driven soak replaces the blind canary pause: the
            # wave is promoted only after its vehicles report clean
            # health over the soak window.
            self._begin_soak(index)
            return
        self._schedule_promotion(
            index, CANARY_SOAK_US if wave.canary else WAVE_PAUSE_US
        )

    def _schedule_promotion(self, index: int, pause_us: int) -> None:
        """Finish the campaign, or dispatch the next wave after a pause."""
        if index + 1 >= len(self.report.waves):
            self._finish(SUCCEEDED)
            return
        self._sim.schedule(
            pause_us,
            lambda: self._start_wave(index + 1),
            f"campaign:wave{index + 1}",
        )

    # -- soak gate -------------------------------------------------------------

    def _capture_baseline(self, targets) -> dict:
        """Pre-update counters per target vehicle, summed over the
        diagnostic reports of every plug-in-hosting SW-C (the ECM
        included — apps may place plug-ins there too): the record the
        soak monitor compares against.

        Captured once, before wave 0 dispatches, so every wave's soak
        verdict compares against the same untouched fleet.
        """
        vehicles = {vehicle.vin: vehicle for vehicle in self.platform.vehicles}
        baseline: dict[str, VehicleBaseline] = {}
        for vin in targets:
            vehicle = vehicles.get(vin)
            if vehicle is None:
                continue
            traps = activations = memory = fuel = 0
            for report in vehicle.diagnostic_reports():
                memory += report.memory_used_blocks
                for plugin in report.plugins:
                    traps += plugin.traps
                    activations += plugin.activations
                    fuel += plugin.fuel_used
            baseline[vin] = VehicleBaseline(
                vin=vin, traps=traps, activations=activations,
                memory_used_blocks=memory, fuel_used=fuel,
            )
        return baseline

    def _on_diag(self, event: TelemetryEvent) -> None:
        """Feed one relayed diag report into the open soak window."""
        monitor = self._soak_monitor
        if monitor is None or self.done:
            return
        monitor.observe(
            event.vin,
            event.data.get("swc", ""),
            event.data.get("traps", 0),
            event.data.get("activations", 0),
            event.data.get("memory_used_blocks", 0),
            event.data.get("fuel_used", 0),
        )

    def _begin_soak(self, index: int) -> None:
        policy = self.spec.soak
        wave = self.report.waves[index]
        wave.soak_started_us = self._sim.now
        vins = [
            vin
            for vin in wave.vins
            if self.report.dispositions.get(vin) is Disposition.UPDATED
        ]
        self._soak_monitor = SoakMonitor(vins)
        self._soak_generation += 1
        generation = self._soak_generation
        self._log(
            "soak_started",
            detail=f"{len(vins)} vehicles for {format_time(policy.window_us)}",
        )
        # Sample at every interval boundary inside the window; skipping
        # the final boundary leaves a full interval for the last report
        # to transit SW-C -> ECM -> server before the verdict.
        ticks = max(1, policy.window_us // policy.sample_interval_us)
        tick = lambda g=generation: self._soak_tick(g)  # noqa: E731
        self._sim.schedule_many(
            ((k * policy.sample_interval_us, tick) for k in range(ticks)),
            "campaign:soak-tick",
        )
        self._arm_timer(policy.window_us, lambda: self._resolve_soak(index))

    def _soak_tick(self, generation: int) -> None:
        """Ask every soaking vehicle's SW-Cs to report health.

        Each report rides the real telemetry path — type I port to the
        ECM (the ECM's own report goes straight up its server link),
        wide-area link to the trusted server, control-plane bus — so
        the soak verdict sees exactly what an operator's dashboard
        would, delays and drops included.
        """
        if (
            self.done
            or generation != self._soak_generation
            or self._soak_monitor is None
            or self._check_orphaned()
        ):
            return
        monitored = set(self._soak_monitor.vins)
        for vehicle in self.platform.vehicles:
            if vehicle.vin in monitored:
                vehicle.emit_diagnostics()

    def _resolve_soak(self, index: int) -> None:
        policy = self.spec.soak
        wave = self.report.waves[index]
        monitor = self._soak_monitor
        self._soak_monitor = None
        self._soak_generation += 1  # kill stray ticks
        if policy is None or monitor is None:
            return
        verdict = policy.evaluate(self._baseline, monitor)
        wave.soak_resolved_us = self._sim.now
        wave.soak_samples = monitor.total_samples
        wave.soak_anomalies = dict(verdict.anomalies)
        wave.soak_breaches = list(verdict.breaches)
        for vin, reason in verdict.anomalies:
            self._log("soak_anomaly", vin, reason)
        if verdict.breaches:
            self._log("soak_failed", detail="; ".join(verdict.breaches))
            self._begin_rollback(index)
            return
        self._log(
            "soak_passed",
            detail=(
                f"{monitor.total_samples} reports from "
                f"{verdict.checked} vehicles"
            ),
        )
        self._schedule_promotion(index, WAVE_PAUSE_US)

    # -- rollback --------------------------------------------------------------

    def _rollback_targets(self, breached_index: int) -> list[str]:
        scope = self.spec.rollback.scope
        waves = (
            self.report.waves[: breached_index + 1]
            if scope == "campaign"
            else [self.report.waves[breached_index]]
        )
        return [
            vin
            for wave in waves
            for vin in wave.vins
            if self.report.dispositions.get(vin) is Disposition.UPDATED
        ]

    def _begin_rollback(self, breached_index: int) -> None:
        if self.spec.rollback.scope == "none":
            self._finish(HALTED)
            return
        targets = self._rollback_targets(breached_index)
        # Mid-rollback VINs are the admission controller's hard case:
        # claim them so no concurrent campaign targets a vehicle whose
        # plug-ins are being torn down.  A VIN another campaign managed
        # to claim in the meantime (campaign-scope rollback reaches back
        # to waves whose claims were released on success) is still
        # rolled back — the records are this campaign's own — but the
        # contention is recorded in the report.
        claimed = set(
            self.service.claim(
                self.campaign_id, targets, phase=PHASE_ROLLING_BACK
            )
        )
        for vin in targets:
            if vin not in claimed:
                holder = self.service.claimed_by(vin)
                self._log(
                    "rollback_contended", vin,
                    f"held by campaign {holder[0]}" if holder else "",
                )
        self._rollback_pending = set()
        for vin in targets:
            result = self._deployments.uninstall(
                self._user_id, vin, self.spec.app_name
            )
            if result.ok:
                self._rollback_pending.add(vin)
                self._log("rollback_started", vin)
            else:
                self.service.release(self.campaign_id, [vin])
                self._set_disposition(vin, Disposition.NEEDS_WORKSHOP)
                self._log(
                    "rollback_failed", vin,
                    result.reasons[0] if result.reasons else "",
                )
        if not self._rollback_pending:
            self._finish(ROLLED_BACK)
            return
        self._arm_timer(self.spec.rollback.timeout_us, self._on_rollback_timeout)

    def _on_uninstall_event(self, vin: str, kind: str) -> None:
        if vin not in self._rollback_pending:
            return
        self._rollback_pending.discard(vin)
        self.service.release(self.campaign_id, [vin])
        if kind == "uninstall_done":
            self._set_disposition(vin, Disposition.ROLLED_BACK)
            self._log("rolled_back", vin)
        else:
            self._set_disposition(vin, Disposition.NEEDS_WORKSHOP)
            self._log("rollback_failed", vin, "negative uninstall ack")
        if not self._rollback_pending:
            self._disarm_timer()
            self._finish(ROLLED_BACK)

    def _on_rollback_timeout(self) -> None:
        for vin in sorted(self._rollback_pending):
            self._deployments.abandon(
                self._user_id, vin, self.spec.app_name
            )
            self._set_disposition(vin, Disposition.NEEDS_WORKSHOP)
            self._log("rollback_failed", vin, "rollback timed out")
        self._rollback_pending.clear()
        self._finish(ROLLED_BACK)

    # -- termination -----------------------------------------------------------

    def _set_disposition(self, vin: str, disposition: Disposition) -> None:
        self.report.dispositions[vin] = disposition

    def _finish(self, status: str) -> None:
        if self.done:
            return
        self.done = True
        self._disarm_timer()
        for wave in self.report.waves:
            for vin in wave.vins:
                self.report.dispositions.setdefault(vin, Disposition.SKIPPED)
        self.report.status = status
        self.report.finished_us = self._sim.now
        self._log("campaign_done", detail=status)
        self._soak_monitor = None
        self._bus.unsubscribe(self._on_event)
        # Snapshot metrics before the service persists the report so the
        # database copy carries them too.
        self.report.metrics = self._snapshot_metrics()
        if self.injector is not None:
            self.injector.detach()
        self.service.on_finished(self.campaign_id, self.report)

    def _snapshot_metrics(self) -> dict:
        """Deterministic per-campaign metric snapshot for the report.

        Counters that live on process-wide objects (the telemetry bus,
        the pusher) are reported as deltas from campaign start, so a
        staged-then-resumed run and a fresh run of the same spec on the
        same seed snapshot identical numbers.
        """
        report = self.report
        finished = (
            report.finished_us
            if report.finished_us is not None
            else self._sim.now
        )
        rollback_latency = None
        if report.status == ROLLED_BACK:
            trigger = next(
                (
                    event.time_us
                    for event in report.events
                    if event.kind in ("gate_breached", "soak_failed")
                ),
                None,
            )
            if trigger is not None:
                rollback_latency = finished - trigger
        waves = []
        for wave in report.waves:
            time_to_promote = None
            if (
                wave.started_us is not None
                and not wave.breaches
                and not wave.soak_breaches
            ):
                gate_end = (
                    wave.soak_resolved_us
                    if wave.soak_resolved_us is not None
                    else wave.resolved_us
                )
                if gate_end is not None:
                    time_to_promote = gate_end - wave.started_us
            waves.append(
                {
                    "index": wave.index,
                    "attempted": wave.attempted,
                    "updated": wave.updated,
                    "install_us": wave.duration_us,
                    "soak_us": wave.soak_duration_us,
                    "soak_samples": wave.soak_samples,
                    "time_to_promote_us": time_to_promote,
                }
            )
        pusher = self._api.pusher
        return {
            "campaign_duration_us": finished - report.started_us,
            "rollback_latency_us": rollback_latency,
            "waves": waves,
            "outbox": {
                "pushed": pusher.pushed - self._pusher_t0[0],
                "dropped_messages": (
                    pusher.dropped_messages - self._pusher_t0[1]
                ),
                "outbox_bytes": pusher.outbox_bytes,
            },
            "telemetry": {
                "published": self._bus.published() - self._bus_t0[0],
                "dropped": self._bus.dropped() - self._bus_t0[1],
            },
        }


__all__ = ["CampaignEngine", "DEFAULT_RUN_TIMEOUT_US"]
