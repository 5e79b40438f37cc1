"""Cross-session request batching: many clients, one wide online round.

ABNN2's multi-batch trick amortizes one OT extension over the ``o``
activation columns of a single client's batch.  This module applies the
same economics *across users*: concurrent granted rounds for the same
``(model, batch)`` are held for a short window, their input shares are
stacked as extra columns of one :class:`~repro.core.protocol.WideServerRound`,
and each client's output-share columns are sliced back onto its own
session channel.  Per-client shares are **bit-identical** to the solo
round each client would have run with the same banked material, because
every merged step is column-local (see ``WideServerRound``'s docstring
for the commutation argument); the client-side wire protocol is entirely
unchanged — batching is invisible except for the grant arriving up to
``window_ms`` later.

Execution model (fork/join on the session threads themselves)::

    session thread A ──┐                         ┌── ReLU(A) ──┐
    session thread B ──┤→ [barrier: wide linear] ┤── ReLU(B) ──┤→ [barrier] → ...
    session thread C ──┘     (one leader runs    └── ReLU(C) ──┘
                              the stacked matmul)

Each session thread runs its party's ordinary plan walk
(``_PartyBase._walk``) with a linear handler that joins the barrier.
Per-client I/O — the grant, the dealt material, the input share, the GC
ReLU and max-pool resharing (which *cannot* merge: each client garbles
with its own keys), pooling, and the logits — stays on the owning
session thread; only the column-local linear algebra crosses the
barrier.  A slot that fails mid-round aborts the barrier, so its batch
peers fail fast with a typed error instead of hanging — the blast
radius of one bad client is bounded by ``batch_max``.

Admission control happens *before* anything is granted: a full request
queue or a bank below its depth threshold produces a structured deny on
the existing JSON grant/deny plane (:class:`repro.errors.AdmissionDenied`),
never a mid-protocol stall.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core.protocol import WideServerRound
from repro.errors import AdmissionDenied, ConfigError, ProtocolError
from repro.serve.session import encode_client_round, send_ctrl

#: How many wait-time samples back the p95 estimate in ``metrics()``.
_WAIT_SAMPLE_CAP = 4096


class _Slot:
    """One session's seat in a wide group (owned by its session thread)."""

    __slots__ = ("round", "inbox", "outbox")

    def __init__(self) -> None:
        self.round = None  # OfflineRound once granted
        self.inbox = None  # per-client share handed *to* the wide compute
        self.outbox = None  # per-client block handed back by the leader


class _WideGroup:
    """Slots collected within one batching window."""

    __slots__ = (
        "deadline",
        "slots",
        "sealed",
        "prep_claimed",
        "ready",
        "granted",
        "deny_reason",
        "wide",
        "barrier",
        "stage",
    )

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.slots: list[_Slot] = []
        self.sealed = False
        self.prep_claimed = False
        self.ready = threading.Event()
        self.granted: list[_Slot] = []
        self.deny_reason: str | None = None
        self.wide: WideServerRound | None = None
        self.barrier: threading.Barrier | None = None
        self.stage = 0

    @property
    def width(self) -> int:
        return len(self.granted)


class BatchScheduler:
    """Coalesce concurrent bank-mode rounds into wide online rounds.

    ``window_ms`` is how long the first arrival waits for company;
    ``batch_max`` seals a group early once that many requests joined (a
    full group never waits out its window).  ``max_queued`` and
    ``min_bank_depth`` are the admission thresholds — exceeding either
    denies the round cleanly at grant time.

    One scheduler serves one bank (single or sharded) and is shared by
    every :class:`~repro.serve.session.ServerSession` of a server;
    :meth:`serve_round` runs on the session's own thread and returns only
    when that client's round is fully served.
    """

    def __init__(
        self,
        bank,
        *,
        window_ms: float = 10.0,
        batch_max: int = 8,
        max_queued: int = 64,
        min_bank_depth: int = 0,
        exhaustion_wait_s: float = 0.0,
        round_timeout_s: float = 600.0,
    ) -> None:
        if window_ms < 0:
            raise ConfigError("window_ms must be non-negative")
        if batch_max < 1:
            raise ConfigError("batch_max must be positive")
        if max_queued < 1:
            raise ConfigError("max_queued must be positive")
        if min_bank_depth < 0:
            raise ConfigError("min_bank_depth must be non-negative")
        self.bank = bank
        self.window_ms = window_ms
        self.batch_max = batch_max
        self.max_queued = max_queued
        self.min_bank_depth = min_bank_depth
        self.exhaustion_wait_s = exhaustion_wait_s
        self.round_timeout_s = round_timeout_s
        self._window_s = window_ms / 1000.0
        self._cond = threading.Condition()
        self._open: _WideGroup | None = None
        self._queued = 0
        self._stopped = False
        self._widths: deque[int] = deque(maxlen=_WAIT_SAMPLE_CAP)
        self._waits: deque[float] = deque(maxlen=_WAIT_SAMPLE_CAP)
        self._counters = {
            "requests": 0,
            "batched_sessions": 0,
            "batched_rounds": 0,
            "denied_queue_depth": 0,
            "denied_bank_depth": 0,
            "denied_exhausted": 0,
        }

    # ------------------------------------------------------------------ #
    # the session-thread entry point
    # ------------------------------------------------------------------ #
    def serve_round(self, party, *, round_idx: int) -> int:
        """Serve one granted round for ``party``'s session, batched.

        Called by :class:`~repro.serve.session.ServerSession` instead of
        the solo ``bank.take`` + ``party.online()`` path.  Blocks through
        the batching window, the wide compute, and the per-client
        interactive steps; returns the group width on success.  Raises
        :class:`~repro.errors.AdmissionDenied` *before any bytes flow*
        when the round cannot be granted, and :class:`ProtocolError` when
        a batch peer's failure aborts the wide round mid-flight.
        """
        t_enq = time.monotonic()
        group, slot = self._enqueue()
        try:
            self._await_sealed(group)
            self._prepare(group)
        finally:
            with self._cond:
                self._queued -= 1
        if slot.round is None:
            raise AdmissionDenied(
                group.deny_reason or "offline material exhausted"
            )
        wait_ms = (time.monotonic() - t_enq) * 1e3
        with self._cond:
            self._waits.append(wait_ms)
        self._run_slot(party, group, slot, round_idx, wait_ms)
        return group.width

    # ------------------------------------------------------------------ #
    # group formation
    # ------------------------------------------------------------------ #
    def _enqueue(self) -> tuple[_WideGroup, _Slot]:
        with self._cond:
            self._counters["requests"] += 1
            if self._stopped:
                raise AdmissionDenied("server is shutting down")
            if self._queued >= self.max_queued:
                self._counters["denied_queue_depth"] += 1
                raise AdmissionDenied(
                    f"admission denied: {self._queued} round requests queued "
                    f"(limit {self.max_queued})"
                )
            if self.min_bank_depth:
                depth = self.bank.depth
                if depth < self.min_bank_depth:
                    self._counters["denied_bank_depth"] += 1
                    raise AdmissionDenied(
                        f"admission denied: bank depth {depth} below "
                        f"threshold {self.min_bank_depth}"
                    )
            group = self._open
            if group is None or group.sealed:
                group = _WideGroup(time.monotonic() + self._window_s)
                self._open = group
            slot = _Slot()
            group.slots.append(slot)
            self._queued += 1
            if len(group.slots) >= self.batch_max:
                self._seal_locked(group)
            return group, slot

    def _seal_locked(self, group: _WideGroup) -> None:
        if group.sealed:
            return
        group.sealed = True
        if self._open is group:
            self._open = None
        self._cond.notify_all()

    def _await_sealed(self, group: _WideGroup) -> None:
        with self._cond:
            while not group.sealed:
                remaining = group.deadline - time.monotonic()
                if remaining <= 0 or self._stopped:
                    self._seal_locked(group)
                    break
                self._cond.wait(timeout=remaining)

    def _prepare(self, group: _WideGroup) -> None:
        """Exactly one slot thread draws the rounds and builds the wide
        compute + barrier; the rest wait for ``group.ready``."""
        with self._cond:
            claimed, group.prep_claimed = group.prep_claimed, True
        if claimed:
            if not group.ready.wait(timeout=self.round_timeout_s):
                raise ProtocolError("batched round preparation timed out")
            return
        try:
            wanted = len(group.slots)
            try:
                rounds = self.bank.take_many(
                    wanted, timeout_s=self.exhaustion_wait_s
                )
            except ProtocolError as exc:
                group.deny_reason = str(exc)
                rounds = []
            for slot, rnd in zip(group.slots, rounds):
                slot.round = rnd
            group.granted = group.slots[: len(rounds)]
            if rounds:
                group.wide = WideServerRound(
                    self.bank.model,
                    [rnd.server_us for rnd in rounds],
                    self.bank.batch,
                    group=self.bank.group,
                    ro=self.bank.ro,
                )
                group.barrier = threading.Barrier(
                    len(rounds), action=self._make_advance(group)
                )
            with self._cond:
                self._counters["batched_sessions"] += len(rounds)
                self._counters["denied_exhausted"] += wanted - len(rounds)
                if rounds:
                    self._counters["batched_rounds"] += 1
                    self._widths.append(len(rounds))
        finally:
            group.ready.set()

    # ------------------------------------------------------------------ #
    # the wide round itself
    # ------------------------------------------------------------------ #
    def _make_advance(self, group: _WideGroup):
        """The barrier action: one leader thread runs the stacked linear
        algebra between the per-client interactive stages."""

        def _advance() -> None:
            wide = group.wide
            if group.stage == 0:
                wide.start([slot.inbox for slot in group.granted])
            else:
                wide.resume([slot.inbox for slot in group.granted])
            blocks = wide.linear()
            for slot, block in zip(group.granted, blocks):
                slot.outbox = block
            group.stage += 1

        return _advance

    def _step(self, group: _WideGroup) -> None:
        try:
            group.barrier.wait(timeout=self.round_timeout_s)
        except threading.BrokenBarrierError as exc:
            raise ProtocolError(
                "wide round aborted: a batched peer session failed"
            ) from exc

    def _run_slot(self, party, group, slot, round_idx, wait_ms) -> None:
        """Serve one slot: the party's own plan walk on its session
        channel, with every linear node parked on the group barrier."""
        chan, tracer = party.chan, party.tracer
        rnd = slot.round
        try:
            send_ctrl(
                chan, ok=True, round_id=rnd.round_id,
                batched=True, width=group.width,
            )
            with tracer.span(
                f"round{round_idx}", round_id=rnd.round_id, mode="bank",
                batched=True, batch_width=group.width,
                batch_wait_ms=round(wait_ms, 3),
            ):
                with tracer.span("deal"):
                    chan.send(encode_client_round(rnd.client_material))

                def park(_idx, share):
                    # The linear node is the wide round's: hand this
                    # slot's share to the barrier, take back its block.
                    slot.inbox = share
                    self._step(group)
                    return slot.outbox

                party._track_phase(
                    "online",
                    lambda: party._walk(
                        party.plan, chan, party._gc, None, linear=park
                    ),
                )
        except Exception:
            # Fail fast for the whole group: peers parked on the barrier
            # get BrokenBarrierError -> ProtocolError instead of waiting
            # out the round timeout for a slot that will never arrive.
            group.barrier.abort()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle + observability
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Deny new requests and release any window waiters immediately."""
        with self._cond:
            self._stopped = True
            if self._open is not None:
                self._seal_locked(self._open)
            self._cond.notify_all()

    def metrics(self) -> dict:
        """Scheduler counters (also stamped into server ``metrics()``)."""
        with self._cond:
            widths = list(self._widths)
            waits = sorted(self._waits)
            out = dict(self._counters)
            out["queued"] = self._queued
        out["batched"] = out.pop("batched_sessions")
        out["batch_width"] = widths[-1] if widths else 0
        out["batch_width_max"] = max(widths) if widths else 0
        out["batch_width_mean"] = (
            sum(widths) / len(widths) if widths else 0.0
        )
        if waits:
            idx = max(0, int(len(waits) * 0.95 + 0.5) - 1)
            out["p95_wait_ms"] = waits[idx]
            out["mean_wait_ms"] = sum(waits) / len(waits)
        else:
            out["p95_wait_ms"] = 0.0
            out["mean_wait_ms"] = 0.0
        out["window_ms"] = self.window_ms
        out["batch_max"] = self.batch_max
        out["max_queued"] = self.max_queued
        out["min_bank_depth"] = self.min_bank_depth
        return out
