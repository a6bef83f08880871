"""Deterministic fault injection for the MANET simulator.

Real mobile wireless CPS deployments do not run on the perfectly healthy
network the paper evaluates: nodes reboot, radios fade, frames arrive
mangled, and the key-generation centre is occasionally unreachable.  This
module makes those regimes first-class and *reproducible*: a declarative
:class:`FaultPlan` (attachable to a
:class:`~repro.netsim.scenario.ScenarioConfig`) names every fault to
inject, and a :class:`FaultInjector` schedules them onto the simulator at
build time.  Every random draw comes from dedicated ``faults/...`` RNG
streams, so the same ``(seed, plan)`` pair reproduces byte-identical
metrics and an identical fault-event sequence - chaos you can bisect.

Fault classes:

* **Node churn** (:class:`CrashSpec`): a node powers off at ``at_s`` -
  detached from the radio, it receives and forwards nothing, which is what
  exercises link-break detection, RERR precursor propagation, HELLO
  expiry, and re-discovery.  An optional ``recover_at_s`` powers it back
  on with volatile protocol state wiped (a rebooted router starts cold).
* **Radio degradation windows** (:class:`RadioWindow`): time-bounded
  loss-rate spikes (up to total jamming at ``loss_rate=1.0``) and range
  shrink on the shared :class:`~repro.netsim.radio.RadioMedium`.
* **Frame corruption windows** (:class:`CorruptionWindow`): per-delivery
  bit mangling.  Authenticated control messages are delivered with a
  damaged signature - in real-crypto runs the actual wire bytes are
  bit-flipped and pushed through :mod:`repro.core.serialization`, so the
  defensive decode path is exercised for real - and must be *rejected,
  never crash*.  Unauthenticated frames fail the link-layer checksum and
  are dropped.
* **KGC outages** (:class:`KGCOutage`): windows during which partial-key
  issuance fails.  A node that recovers from a crash while the KGC is
  down lost its partial key with its volatile state and cannot re-enrol;
  it rejoins the radio in *unauthenticated quarantine* - its control
  messages carry no verifiable signature, so authenticated neighbours
  reject them - until the KGC comes back and re-issues its key.

Every injected fault is emitted through the simulator's structured event
sink (``fault.node_crash``, ``fault.frame_corrupt``, ...), counted in the
:mod:`repro.obs` registry when one is collecting, and appended to the
injector's in-memory :attr:`FaultInjector.log` for post-run auditing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.mccls import McCLSSignature
from repro.core.serialization import (
    decode_mccls_signature,
    encode_mccls_signature,
)
from repro.errors import SerializationError, SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.packets import Frame
from repro.netsim.radio import RadioMedium
from repro.obs.registry import get_registry

#: RNG stream for victim selection (which nodes crash)
CHURN_STREAM = "faults/churn"
#: RNG stream for per-frame corruption draws and bit positions
CORRUPT_STREAM = "faults/corrupt"


# ---------------------------------------------------------------------------
# Declarative plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashSpec:
    """Crash (and optionally recover) one named node or ``count`` random
    honest nodes."""

    at_s: float
    node: Optional[int] = None  # None -> draw `count` victims from churn RNG
    count: int = 1
    recover_at_s: Optional[float] = None

    def validate(self) -> None:
        """Raise SimulationError on inconsistent crash timing."""
        if self.at_s < 0:
            raise SimulationError("crash time must be >= 0")
        if self.node is None and self.count < 1:
            raise SimulationError("random crash needs count >= 1")
        if self.recover_at_s is not None and self.recover_at_s <= self.at_s:
            raise SimulationError("recovery must come after the crash")


@dataclass(frozen=True)
class RadioWindow:
    """A degraded-radio interval: loss-rate override and/or range shrink."""

    start_s: float
    stop_s: float
    loss_rate: Optional[float] = None  # None -> keep the base loss rate
    range_scale: float = 1.0

    def validate(self) -> None:
        """Raise SimulationError on inconsistent window bounds."""
        if not 0 <= self.start_s < self.stop_s:
            raise SimulationError("radio window needs 0 <= start < stop")
        if self.loss_rate is not None and not 0.0 <= self.loss_rate <= 1.0:
            raise SimulationError("window loss_rate must be in [0, 1]")
        if not 0.0 < self.range_scale <= 1.0:
            raise SimulationError("range_scale must be in (0, 1]")


@dataclass(frozen=True)
class CorruptionWindow:
    """An interval during which each delivered frame is independently
    bit-mangled with the given probability."""

    start_s: float
    stop_s: float
    probability: float

    def validate(self) -> None:
        """Raise SimulationError on inconsistent window bounds."""
        if not 0 <= self.start_s < self.stop_s:
            raise SimulationError("corruption window needs 0 <= start < stop")
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError("corruption probability must be in [0, 1]")


@dataclass(frozen=True)
class KGCOutage:
    """An interval during which the KGC issues no partial keys.

    ``rekey=True`` models the operational response to the outage (assume
    compromise): on recovery the KGC rotates its master secret and
    re-issues every honest node's key material.  In real-crypto runs the
    rotation also invalidates every cache the old P_pub fed - memoised
    e(P_pub, Q_ID) pairings and signer-side S-component caches - so
    post-rekey verifies run cold exactly once per identity instead of
    reading stale entries.
    """

    start_s: float
    stop_s: float
    rekey: bool = False

    def validate(self) -> None:
        """Raise SimulationError on inconsistent outage bounds."""
        if not 0 <= self.start_s < self.stop_s:
            raise SimulationError("KGC outage needs 0 <= start < stop")


@dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run, declared up front."""

    crashes: Tuple[CrashSpec, ...] = ()
    radio_windows: Tuple[RadioWindow, ...] = ()
    corruption_windows: Tuple[CorruptionWindow, ...] = ()
    kgc_outages: Tuple[KGCOutage, ...] = ()

    @property
    def empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not (
            self.crashes
            or self.radio_windows
            or self.corruption_windows
            or self.kgc_outages
        )

    def validate(self) -> None:
        """Raise SimulationError on any inconsistent fault entry."""
        for entry in (
            *self.crashes,
            *self.radio_windows,
            *self.corruption_windows,
            *self.kgc_outages,
        ):
            entry.validate()

    # -- spec (JSON-friendly) round trip ------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping) -> "FaultPlan":
        """Build a plan from a JSON-shaped mapping (the ``--faults`` format).

        Keys: ``crashes`` (``at``/``node``/``count``/``recover_at``),
        ``radio`` (``start``/``stop``/``loss_rate``/``range_scale``),
        ``corruption`` (``start``/``stop``/``probability``) and
        ``kgc_outages`` (``start``/``stop``).  Unknown keys are rejected so
        typos fail loudly instead of silently injecting nothing.
        """
        if not isinstance(spec, Mapping):
            raise SimulationError("fault spec must be a JSON object")
        known = {"crashes", "radio", "corruption", "kgc_outages"}
        unknown = set(spec) - known
        if unknown:
            raise SimulationError(
                f"unknown fault spec keys {sorted(unknown)}; expected {sorted(known)}"
            )

        def entries(key, allowed):
            rows = spec.get(key, ())
            if not isinstance(rows, (list, tuple)):
                raise SimulationError(f"fault spec {key!r} must be a list")
            for row in rows:
                if not isinstance(row, Mapping):
                    raise SimulationError(f"{key} entries must be objects")
                bad = set(row) - set(allowed)
                if bad:
                    raise SimulationError(
                        f"unknown {key} entry keys {sorted(bad)}"
                    )
                yield row

        plan = cls(
            crashes=tuple(
                CrashSpec(
                    at_s=float(row["at"]),
                    node=row.get("node"),
                    count=int(row.get("count", 1)),
                    recover_at_s=(
                        float(row["recover_at"])
                        if row.get("recover_at") is not None
                        else None
                    ),
                )
                for row in entries(
                    "crashes", ("at", "node", "count", "recover_at")
                )
            ),
            radio_windows=tuple(
                RadioWindow(
                    start_s=float(row["start"]),
                    stop_s=float(row["stop"]),
                    loss_rate=(
                        float(row["loss_rate"])
                        if row.get("loss_rate") is not None
                        else None
                    ),
                    range_scale=float(row.get("range_scale", 1.0)),
                )
                for row in entries(
                    "radio", ("start", "stop", "loss_rate", "range_scale")
                )
            ),
            corruption_windows=tuple(
                CorruptionWindow(
                    start_s=float(row["start"]),
                    stop_s=float(row["stop"]),
                    probability=float(row["probability"]),
                )
                for row in entries(
                    "corruption", ("start", "stop", "probability")
                )
            ),
            kgc_outages=tuple(
                KGCOutage(
                    start_s=float(row["start"]),
                    stop_s=float(row["stop"]),
                    rekey=bool(row.get("rekey", False)),
                )
                for row in entries("kgc_outages", ("start", "stop", "rekey"))
            ),
        )
        plan.validate()
        return plan

    def to_spec(self) -> Dict[str, list]:
        """The JSON-shaped mapping this plan round-trips through."""
        spec: Dict[str, list] = {}
        if self.crashes:
            spec["crashes"] = [
                {
                    "at": c.at_s,
                    "node": c.node,
                    "count": c.count,
                    "recover_at": c.recover_at_s,
                }
                for c in self.crashes
            ]
        if self.radio_windows:
            spec["radio"] = [
                {
                    "start": w.start_s,
                    "stop": w.stop_s,
                    "loss_rate": w.loss_rate,
                    "range_scale": w.range_scale,
                }
                for w in self.radio_windows
            ]
        if self.corruption_windows:
            spec["corruption"] = [
                {"start": w.start_s, "stop": w.stop_s, "probability": w.probability}
                for w in self.corruption_windows
            ]
        if self.kgc_outages:
            spec["kgc_outages"] = [
                {"start": o.start_s, "stop": o.stop_s, "rekey": o.rekey}
                for o in self.kgc_outages
            ]
        return spec


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a built simulation.

    Owns the fault bookkeeping of the run: :attr:`counts` (injected-fault
    totals by event name, for campaign summaries) and :attr:`log` (the
    ordered fault-event sequence, for determinism assertions and audits).
    """

    def __init__(
        self,
        sim: Simulator,
        radio: RadioMedium,
        nodes: Dict[int, object],
        honest_ids: List[int],
        plan: FaultPlan,
        curve=None,
    ):
        plan.validate()
        self.sim = sim
        self.radio = radio
        self.nodes = nodes
        self.honest_ids = list(honest_ids)
        self.plan = plan
        #: BN curve for re-encoding real signatures during corruption
        #: (None in modelled-crypto runs: corruption damages the tag bit)
        self.curve = curve
        self.counts: Dict[str, int] = {}
        self.log: List[Dict[str, object]] = []
        self._base_loss = radio.loss_rate
        self._base_range = radio.range_m
        self._kgc_down = False
        self._awaiting_rekey: List[int] = []

    # -- bookkeeping --------------------------------------------------------
    def _record(self, event: str, **fields) -> None:
        self.counts[event] = self.counts.get(event, 0) + 1
        entry: Dict[str, object] = {"event": event, "t": self.sim.now}
        entry.update(fields)
        self.log.append(entry)
        if self.sim.events.enabled:
            self.sim.events.emit(event, t=self.sim.now, **fields)
        registry = get_registry()
        if registry.active:
            registry.counter(event).inc()

    def summary(self) -> Dict[str, int]:
        """Injected-fault totals by event name."""
        return dict(self.counts)

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Schedule every planned fault (call once, at build time)."""
        churn_rng = self.sim.rng(CHURN_STREAM)
        for crash in self.plan.crashes:
            for victim in self._victims_of(crash, churn_rng):
                self.sim.schedule_at(crash.at_s, self._crash, victim)
                if crash.recover_at_s is not None:
                    self.sim.schedule_at(crash.recover_at_s, self._recover, victim)
        for window in self.plan.radio_windows:
            self.sim.schedule_at(window.start_s, self._degrade_radio, window)
            self.sim.schedule_at(window.stop_s, self._restore_radio, window)
        for outage in self.plan.kgc_outages:
            self.sim.schedule_at(outage.start_s, self._kgc_fail)
            self.sim.schedule_at(outage.stop_s, self._kgc_recover, outage)
        if self.plan.corruption_windows:
            self.radio.frame_filter = self._filter_frame

    def _victims_of(
        self, crash: CrashSpec, rng: random.Random
    ) -> List[int]:
        if crash.node is not None:
            if crash.node not in self.nodes:
                raise SimulationError(
                    f"fault plan names unknown node {crash.node}"
                )
            return [crash.node]
        pool = [nid for nid in self.honest_ids if nid in self.nodes]
        if not pool:
            return []
        return sorted(rng.sample(pool, min(crash.count, len(pool))))

    # -- node churn ---------------------------------------------------------
    def _crash(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if getattr(node, "crashed", False):
            return
        node.crash()
        self._record("fault.node_crash", node=node_id)

    def _recover(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if not getattr(node, "crashed", False):
            return
        node.recover()
        self._record("fault.node_recover", node=node_id)
        # Re-enrolment needs the KGC: a rebooted node lost its partial key
        # with its volatile state.  While the KGC is down the node runs in
        # unauthenticated quarantine (its signatures are unverifiable).
        if hasattr(node, "enter_quarantine"):
            if self._kgc_down:
                node.enter_quarantine()
                self._awaiting_rekey.append(node_id)
                self._record("fault.quarantine", node=node_id)

    # -- radio windows ------------------------------------------------------
    def _degrade_radio(self, window: RadioWindow) -> None:
        loss = window.loss_rate if window.loss_rate is not None else self._base_loss
        self.radio.set_conditions(
            loss_rate=loss, range_m=self._base_range * window.range_scale
        )
        self._record(
            "fault.radio_degrade",
            loss_rate=loss,
            range_m=self.radio.range_m,
        )

    def _restore_radio(self, window: RadioWindow) -> None:
        self.radio.set_conditions(
            loss_rate=self._base_loss, range_m=self._base_range
        )
        self._record(
            "fault.radio_restore",
            loss_rate=self._base_loss,
            range_m=self._base_range,
        )

    # -- KGC availability ---------------------------------------------------
    def _kgc_fail(self) -> None:
        if self._kgc_down:
            return
        self._kgc_down = True
        self._record("fault.kgc_down")

    def _kgc_recover(self, outage: Optional[KGCOutage] = None) -> None:
        if not self._kgc_down:
            return
        self._kgc_down = False
        self._record("fault.kgc_up")
        # A rekeying recovery rotates the master secret FIRST, so nodes
        # leaving quarantine below resume signing under the new key.
        if outage is not None and outage.rekey:
            self._master_rekey()
        # The recovered KGC re-issues partial keys to everyone queued up.
        for node_id in self._awaiting_rekey:
            node = self.nodes[node_id]
            if getattr(node, "quarantined", False):
                node.exit_quarantine()
                self._record("fault.rekey", node=node_id)
        self._awaiting_rekey.clear()

    def _master_rekey(self) -> None:
        """Rotate the KGC master secret and refresh every honest node.

        Real-crypto runs rotate the shared scheme exactly once (which
        drops the old P_pub's pairing-cache entries) and
        re-issue each node's key material under the new secret, updating
        the shared public-key directory.  Modelled runs have no key
        material to rotate but still record the event so plans behave
        identically across crypto modes.
        """
        rotated = set()
        refreshed = 0
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            material = getattr(node, "material", None)
            if material is None or not getattr(material, "real", False):
                continue
            scheme = material.scheme
            if id(scheme) not in rotated:
                scheme.rotate_master_secret()
                rotated.add(id(scheme))
            new_keys = scheme.generate_user_keys(material.keys.identity)
            material.keys = new_keys
            if material.directory is not None:
                material.directory[new_keys.identity] = new_keys.public_key
            refreshed += 1
        self._record("fault.kgc_rekey", refreshed=refreshed)

    # -- frame corruption ---------------------------------------------------
    def _corruption_probability(self, now: float) -> float:
        for window in self.plan.corruption_windows:
            if window.start_s <= now < window.stop_s:
                return window.probability
        return 0.0

    def _filter_frame(self, receiver_id: int, frame: Frame) -> Optional[Frame]:
        """Radio delivery hook: maybe mangle this receiver's copy."""
        probability = self._corruption_probability(self.sim.now)
        if probability <= 0.0:
            return frame
        rng = self.sim.rng(CORRUPT_STREAM)
        if rng.random() >= probability:
            return frame
        mangled = self._corrupt_frame(frame, rng)
        self._record(
            "fault.frame_corrupt",
            sender=frame.sender,
            receiver=receiver_id,
            dropped=mangled is None,
        )
        return mangled

    def _corrupt_frame(
        self, frame: Frame, rng: random.Random
    ) -> Optional[Frame]:
        payload = frame.payload
        auth = getattr(payload, "auth", None)
        hop_auth = getattr(payload, "hop_auth", None)
        if auth is None and hop_auth is None:
            # Unauthenticated frame: the link-layer checksum catches the
            # damage and the frame never reaches the network layer.
            return None
        field_name, tag = ("auth", auth) if auth is not None else (
            "hop_auth",
            hop_auth,
        )
        mangled = self._corrupt_tag(tag, rng)
        return replace(frame, payload=replace(payload, **{field_name: mangled}))

    def _corrupt_tag(self, tag, rng: random.Random):
        signature = tag.signature
        if self.curve is not None and isinstance(signature, McCLSSignature):
            # Real crypto: flip one bit of the actual wire bytes and push
            # the result through the defensive decoder, exactly as a
            # receiver of a mangled frame would.
            blob = bytearray(encode_mccls_signature(self.curve, signature))
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            try:
                mutated = decode_mccls_signature(self.curve, bytes(blob))
            except SerializationError:
                # Undecodable on the wire: the receiver sees no usable
                # signature at all.
                return replace(tag, signature=None, forged=True)
            return replace(tag, signature=mutated)
        # Modelled crypto: a damaged signature can never verify.
        return replace(tag, forged=True)
