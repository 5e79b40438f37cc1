"""A bank of precomputed offline rounds, decoupled from connections.

The paper's cost split puts all OT traffic in a data-independent offline
phase; this module makes that amortization real for a serving process.
A :class:`TripletBank` holds ready-to-use **offline rounds** for one
``(model, batch)`` key.  Each round carries both halves of the triplet
material one prediction batch consumes:

* the server half — per-layer ``U`` dot-product triplet shares;
* the client half — per-layer ``V`` shares, fresh ReLU output shares,
  max-pool reshares, and the input mask
  (:meth:`repro.core.protocol.Abnn2Client.export_offline_round`).

Rounds are generated by running the real two-party offline protocol in
self-play over an in-memory channel pair — the server process plays both
roles, i.e. it acts as the *trusted dealer* of the correlated
randomness.  This is the standard dealer-assisted deployment model
(SecureML's offline third-party variant); its security implications are
documented in ``docs/PROTOCOLS.md`` §11.  The payoff is operational:
sessions start with **zero** offline OT traffic, and a persisted bank
(:mod:`repro.serve.persist`) lets a restarted server skip generation
entirely.

Concurrency contract: :meth:`take` hands out each round exactly once
under a lock (triplet material is strictly single-use — reuse leaks
input differences), blocks up to its timeout when the bank runs dry
(backpressure), and a background replenisher thread refills toward
``capacity`` whenever depth falls below the low-water mark.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.exec.pool import run_sharded
from repro.exec.procpool import run_in_process
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ConfigError, ProtocolError
from repro.net.channel import make_channel_pair
from repro.net.runner import run_protocol
from repro.nn.quantize import QuantizedModel
from repro.serve.persist import load_bank, model_fingerprint, save_bank

#: Distinct-prime stride separating per-generation seed derivations, so a
#: deterministic bank never reissues the same masks across generations.
_GENERATION_SEED_STRIDE = 7919

#: Distinct-prime stride separating the seed streams of sharded banks, so
#: no two shards (or a shard and the generation stream above) ever derive
#: the same self-play seed.
_SHARD_SEED_STRIDE = 15485863

#: Round-id namespace width per shard: shard ``i`` of a sharded bank
#: allocates ids from ``i * _SHARD_ROUND_ID_SPAN``, keeping ids unique
#: (and thus single-use accounting auditable) across the whole fleet.
_SHARD_ROUND_ID_SPAN = 1 << 32

#: Replenisher back-off after consecutive generation failures: the first
#: retry waits the base, each further failure doubles it up to the cap.
REPLENISH_BACKOFF_BASE_S = 0.1
REPLENISH_BACKOFF_CAP_S = 10.0


def replenish_backoff_s(consecutive_failures: int) -> float:
    """Seconds the replenisher waits after its n-th failure in a row."""
    exp = min(max(consecutive_failures - 1, 0), 32)
    return min(REPLENISH_BACKOFF_CAP_S, REPLENISH_BACKOFF_BASE_S * 2.0**exp)


def exhausted_error(failures: int, last_error: str | None) -> ProtocolError:
    """The typed exhaustion error, naming a failing replenisher if any."""
    reason = "offline material exhausted"
    if failures:
        reason += f" (replenisher failed {failures} time(s); last error: {last_error})"
    return ProtocolError(reason)


def _gen_round_worker(chan, payload):
    """Self-contained child job: one self-play generation round.

    Both protocol parties run inside the worker process over an
    in-memory channel pair (no proxying — the round is data-independent
    self-play), so generation compute scales across cores.  Module-level
    and pickle-clean by contract of :func:`repro.exec.run_in_process`.
    """
    model = payload["model"]
    meta = ModelMeta.from_model(model)
    batch = payload["batch"]
    group = payload["group"]
    ro = payload["ro"]
    base = payload["base"]
    timeout_s = payload["timeout_s"]
    server_chan, client_chan = make_channel_pair(timeout_s=timeout_s)

    def server_fn(chan):
        party = Abnn2Server(
            chan, model, batch, group=group, ro=ro,
            seed=None if base is None else base + 1,
        )
        party.offline(rounds=1)
        return party.export_offline_round()

    def client_fn(chan):
        party = Abnn2Client(
            chan, meta, batch, group=group, ro=ro,
            seed=None if base is None else base + 2,
        )
        party.offline(rounds=1)
        return party.export_offline_round()

    result = run_protocol(
        server_fn, client_fn, timeout_s=timeout_s,
        channels=(server_chan, client_chan),
    )
    return result.server, result.client, result.total_bytes


def _deal_round_worker(chan, payload):
    """Self-contained child job: one streamed dealer round.

    Closed-form dealing (:func:`repro.serve.dealer.dealer_offline_round`)
    touches no channel, so the payload-bytes slot is always 0 — dealt
    generation is free of generation traffic by construction.
    Module-level and pickle-clean, like :func:`_gen_round_worker`.
    """
    from repro.serve.dealer import dealer_offline_round

    server_us, client_material = dealer_offline_round(
        payload["model"],
        payload["batch"],
        seed=None if payload["base"] is None else payload["base"] + 1,
        stream_chunk_cols=payload.get("stream_chunk_cols"),
        group=payload["group"],
        ro=payload["ro"],
    )
    return server_us, client_material, 0


@dataclass
class OfflineRound:
    """One single-use unit of precomputed offline material."""

    round_id: int
    server_us: list[np.ndarray]
    client_material: dict = field(repr=False)


class TripletBank:
    """Precomputed offline rounds for one ``(model, batch)`` key.

    ``capacity`` is the replenisher's target depth; ``low_water``
    (default ``capacity // 2``) is the depth at which it wakes up.  With
    ``auto_replenish=False`` the bank is a fixed pool: it serves exactly
    what :meth:`fill` / :meth:`load` put in, then :meth:`take` raises —
    the mode the single-use accounting tests (and a strict
    ``offline rounds=K`` deployment) rely on.

    ``workers`` parallelizes generation across rounds (each round is an
    independent self-play session with its own derived seed); the
    material produced for a given seed is identical for any worker
    count and either executor.  ``executor="thread"`` generates on pool
    threads in-process; ``executor="process"`` runs each round's
    self-play in a worker process (:func:`repro.exec.run_in_process`),
    taking generation compute off the serving process's GIL entirely.

    ``generator`` picks how rounds are produced: ``"selfplay"`` (default)
    runs the real two-party OT protocol against itself; ``"dealer"``
    deals the correlated randomness in closed form block-by-block
    (:mod:`repro.serve.dealer`) — same trust model (PROTOCOLS.md §11),
    zero generation traffic, and conv-layer shares arrive as
    :class:`~repro.core.triplets.BlockedShare` bounded by
    ``stream_chunk_cols`` columns so big-model material is never held
    whole during generation, persistence, or the chunked online phase.
    """

    def __init__(
        self,
        model: QuantizedModel,
        batch: int,
        *,
        capacity: int = 8,
        low_water: int | None = None,
        auto_replenish: bool = True,
        replenish_chunk: int = 2,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
        generation_timeout_s: float = 600.0,
        workers: int = 1,
        executor: str = "thread",
        round_id_base: int = 0,
        generator: str = "selfplay",
        stream_chunk_cols: int | None = None,
    ) -> None:
        if batch < 1:
            raise ConfigError("batch must be positive")
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        if replenish_chunk < 1:
            raise ConfigError("replenish_chunk must be positive")
        if workers < 1:
            raise ConfigError("workers must be positive")
        if executor not in ("thread", "process"):
            raise ConfigError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if generator not in ("selfplay", "dealer"):
            raise ConfigError(
                f"generator must be 'selfplay' or 'dealer', got {generator!r}"
            )
        if stream_chunk_cols is not None and stream_chunk_cols < 1:
            raise ConfigError("stream_chunk_cols must be positive (or None)")
        self.model = model
        self.meta = ModelMeta.from_model(model)
        self.batch = batch
        self.capacity = capacity
        self.low_water = capacity // 2 if low_water is None else low_water
        self.auto_replenish = auto_replenish
        self.replenish_chunk = replenish_chunk
        self.group = group
        self.ro = ro
        self.fingerprint = model_fingerprint(model)
        self._seed = seed
        self._generation_timeout_s = generation_timeout_s
        self.workers = workers
        self.executor = executor
        self.generator = generator
        self.stream_chunk_cols = stream_chunk_cols
        self._last_generation_s: float | None = None
        self._last_error: str | None = None

        self._rounds: deque[OfflineRound] = deque()
        self._cond = threading.Condition()
        self._gen_lock = threading.Lock()
        self._next_round_id = round_id_base
        self._generations = 0
        # Rounds claimed by an in-flight generation but not yet banked.
        # Both fill() and the replenisher register their claims here so a
        # dip near the low-water mark can never trigger two generations
        # for the same deficit (guarded by self._cond).
        self._inflight = 0
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        self._counters = {
            "rounds_generated": 0,
            "rounds_served": 0,
            "rounds_loaded": 0,
            "exhausted_errors": 0,
            "take_waits": 0,
            "take_wait_s": 0.0,
            "replenish_runs": 0,
            "replenish_s": 0.0,
            "replenish_failures": 0,
            "generation_payload_bytes": 0,
        }

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Rounds currently banked and unclaimed."""
        with self._cond:
            return len(self._rounds)

    def metrics(self) -> dict:
        """Counters for observability (stamped into session traces)."""
        with self._cond:
            out = dict(self._counters)
            out["depth"] = len(self._rounds)
            # The most recent generation failure of the replenisher
            # (None if it never failed); kept after it recovers.
            out["last_error"] = self._last_error
        out["capacity"] = self.capacity
        out["low_water"] = self.low_water
        # Executor facts for operators: which kind of worker is engaged
        # and how long the most recent generation batch took wall-clock
        # (None until the first batch lands).
        out["executor"] = self.executor
        out["workers"] = self.workers
        out["generator"] = self.generator
        out["last_generation_s"] = self._last_generation_s
        # Mean time a take() spent blocked on an empty bank: the lag the
        # replenisher failed to hide from clients.
        waits = out["take_waits"]
        out["replenish_lag_s"] = out["take_wait_s"] / waits if waits else 0.0
        return out

    # ------------------------------------------------------------------ #
    # generation (trusted-dealer self-play)
    # ------------------------------------------------------------------ #
    def _generate(self, rounds: int) -> list[OfflineRound]:
        """Run the two-party offline protocol in self-play for ``rounds``.

        Each round is one self-play session whose seed derives from a
        globally claimed *generation index*, so the material of round
        ``g`` is a pure function of ``(model, batch, seed, g)`` — the
        same rounds come out whether one worker generates them serially
        or ``workers`` threads generate them concurrently (pinned by
        ``tests/test_exec_parallel.py``).  Rounds being independent
        sessions is what makes the replenisher shardable at all.
        """
        with self._gen_lock:
            first = self._generations
            self._generations += rounds

        worker = (
            _deal_round_worker if self.generator == "dealer" else _gen_round_worker
        )

        def gen_one(generation: int):
            payload = {
                "model": self.model,
                "batch": self.batch,
                "group": self.group,
                "ro": self.ro,
                "base": (
                    None
                    if self._seed is None
                    else self._seed + _GENERATION_SEED_STRIDE * generation
                ),
                "timeout_s": self._generation_timeout_s,
                "stream_chunk_cols": self.stream_chunk_cols,
            }
            if self.executor == "process":
                return run_in_process(worker, payload)
            return worker(None, payload)

        t0 = time.monotonic()
        results = run_sharded(
            [lambda g=g: gen_one(g) for g in range(first, first + rounds)],
            min(self.workers, rounds),
        )
        self._last_generation_s = time.monotonic() - t0
        with self._cond:
            self._counters["generation_payload_bytes"] += sum(
                total for _, _, total in results
            )
        return [self._wrap_round(server, client) for server, client, _ in results]

    def _wrap_round(self, server_us, client_material) -> OfflineRound:
        with self._cond:
            round_id = self._next_round_id
            self._next_round_id += 1
        return OfflineRound(round_id, server_us, client_material)

    def fill(self, rounds: int) -> int:
        """Synchronously generate and bank ``rounds``; returns new depth."""
        if rounds < 1:
            raise ConfigError("rounds must be positive")
        t0 = time.monotonic()
        with self._cond:
            self._inflight += rounds
        try:
            fresh = self._generate(rounds)
        finally:
            with self._cond:
                self._inflight -= rounds
        with self._cond:
            self._rounds.extend(fresh)
            self._counters["rounds_generated"] += len(fresh)
            self._counters["replenish_runs"] += 1
            self._counters["replenish_s"] += time.monotonic() - t0
            self._cond.notify_all()
            return len(self._rounds)

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    def take(self, timeout_s: float = 0.0) -> OfflineRound:
        """Claim one round; each round is handed out exactly once.

        Blocks up to ``timeout_s`` while the bank is empty (waking the
        replenisher), then raises a clean
        ``ProtocolError("offline material exhausted")`` — the serving
        layer turns that into a typed deny *before* any protocol bytes
        cross the wire, so exhaustion can never desync a stream.
        """
        return self.take_many(1, timeout_s=timeout_s)[0]

    def take_many(self, n: int, timeout_s: float = 0.0) -> list[OfflineRound]:
        """Atomically claim up to ``n`` rounds in one critical section.

        The batching scheduler's draw: one wide round needs one banked
        round *per client slot*, claimed together so concurrent groups
        cannot interleave their claims.  Returns between 1 and ``n``
        rounds.  A positive ``timeout_s`` is a wait budget for the *full*
        grant (capped at the bank's capacity — the replenisher can never
        stock more): the call blocks, waking the replenisher, until
        ``n`` rounds are stocked or the deadline passes, then grants
        whatever is there (the caller denies the unlucky tail cleanly).
        The same typed exhaustion error as :meth:`take` is raised only
        when the bank is still empty at the deadline.
        """
        if n < 1:
            raise ConfigError("n must be positive")
        deadline = time.monotonic() + timeout_s
        target = min(n, self.capacity)
        wait_start = None
        with self._cond:
            while len(self._rounds) < target:
                if self._stopped:
                    if self._rounds:
                        break
                    raise ProtocolError("triplet bank is stopped")
                self._wake.set()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if self._rounds:
                        break
                    self._counters["exhausted_errors"] += 1
                    raise exhausted_error(
                        self._counters["replenish_failures"], self._last_error
                    )
                if wait_start is None:
                    wait_start = time.monotonic()
                self._cond.wait(timeout=min(remaining, 0.25))
            if wait_start is not None:
                self._counters["take_waits"] += 1
                self._counters["take_wait_s"] += time.monotonic() - wait_start
            out = [
                self._rounds.popleft() for _ in range(min(n, len(self._rounds)))
            ]
            self._counters["rounds_served"] += len(out)
            if len(self._rounds) < self.low_water:
                self._wake.set()
            return out

    # ------------------------------------------------------------------ #
    # background replenisher
    # ------------------------------------------------------------------ #
    def start(self) -> "TripletBank":
        """Start the background replenisher (idempotent); returns self."""
        if not self.auto_replenish:
            return self
        with self._cond:
            if self._stopped:
                raise ProtocolError("triplet bank is stopped")
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self._replenish_loop, name="abnn2-bank-replenisher", daemon=True
            )
        self._wake.set()
        self._thread.start()
        return self

    def _replenish_loop(self) -> None:
        consecutive = 0
        while True:
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            if self._stopped:
                return
            while not self._stopped:
                with self._cond:
                    # The deficit discounts rounds an in-flight generation
                    # (a concurrent fill(), or a previous chunk this loop
                    # kicked off) has already claimed: a take() racing the
                    # threshold can wake this loop mid-generation, and
                    # without the discount that one dip would be covered
                    # twice (pinned by the over-generation regression
                    # test in tests/test_serve.py).
                    deficit = (
                        self.capacity - len(self._rounds) - self._inflight
                    )
                    if deficit <= 0:
                        break
                    chunk = min(self.replenish_chunk, deficit)
                    self._inflight += chunk
                t0 = time.monotonic()
                try:
                    fresh = self._generate(chunk)
                except Exception as exc:  # noqa: BLE001 - keep the thread alive
                    # A generation failure must not kill replenishment, but
                    # it is counted, kept for metrics() and the exhaustion
                    # deny, and retried with exponential back-off; stop()
                    # interrupts the wait.
                    consecutive += 1
                    with self._cond:
                        self._inflight -= chunk
                        self._counters["replenish_failures"] += 1
                        self._last_error = f"{type(exc).__name__}: {exc}"
                        self._cond.wait_for(
                            lambda: self._stopped,
                            timeout=replenish_backoff_s(consecutive),
                        )
                    continue
                consecutive = 0
                with self._cond:
                    self._inflight -= chunk
                    self._rounds.extend(fresh)
                    self._counters["rounds_generated"] += len(fresh)
                    self._counters["replenish_runs"] += 1
                    self._counters["replenish_s"] += time.monotonic() - t0
                    self._cond.notify_all()

    def stop(self) -> None:
        """Stop the replenisher and fail all blocked :meth:`take` calls."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=self._generation_timeout_s + 10.0)
            self._thread = None

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> int:
        """Persist all unclaimed rounds; returns how many were written."""
        with self._cond:
            snapshot = [
                {"server_us": r.server_us, "client": r.client_material}
                for r in self._rounds
            ]
        save_bank(path, fingerprint=self.fingerprint, batch=self.batch, rounds=snapshot)
        return len(snapshot)

    def load(self, path) -> int:
        """Load persisted rounds (fingerprint-checked); returns the count.

        Loaded rounds involve no triplet generation — the whole point of
        persistence: ``generation_payload_bytes`` stays untouched, which
        the restart acceptance test pins.
        """
        rounds = load_bank(path, fingerprint=self.fingerprint, batch=self.batch)
        wrapped = [self._wrap_round(r["server_us"], r["client"]) for r in rounds]
        with self._cond:
            self._rounds.extend(wrapped)
            self._counters["rounds_loaded"] += len(wrapped)
            self._cond.notify_all()
        return len(wrapped)

    def __enter__(self) -> "TripletBank":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ShardedTripletBank:
    """``shards`` independent :class:`TripletBank` replicas behind one
    bank-shaped facade.

    One wide batched round drains ``width`` rounds in a single
    :meth:`take_many`; against a single bank that claim serializes with
    every solo session *and* with the replenisher's refill, so one busy
    scheduler can starve everyone behind one lock/generator.  Sharding
    gives each replica its own condition, its own replenisher thread (and
    process-executor workers when ``executor="process"``), and its own
    seed stream — claims and refills proceed in parallel, and a wide draw
    round-robins across shards so no single replica is drained first.

    Determinism: shard ``i`` derives its seed as
    ``seed + i * _SHARD_SEED_STRIDE`` and allocates round ids from
    ``i * _SHARD_ROUND_ID_SPAN``, so material stays worker-count
    independent per shard and round ids stay globally unique (single-use
    accounting across the fleet remains auditable).

    The facade keeps the exact surface the serving layer consumes —
    ``batch``/``model``/``fingerprint``, ``take``/``take_many``,
    ``fill``/``save``/``load``, ``start``/``stop``, ``metrics()`` — so
    :class:`~repro.serve.server.PredictionServer` and the scheduler take
    either bank flavor unchanged.
    """

    def __init__(
        self,
        model: QuantizedModel,
        batch: int,
        *,
        shards: int = 2,
        capacity: int = 8,
        seed: int | None = None,
        **bank_kwargs,
    ) -> None:
        if shards < 1:
            raise ConfigError("shards must be positive")
        if capacity < shards:
            raise ConfigError(
                f"capacity {capacity} cannot be split across {shards} shards"
            )
        base, extra = divmod(capacity, shards)
        self.shards: list[TripletBank] = [
            TripletBank(
                model,
                batch,
                capacity=base + (1 if i < extra else 0),
                seed=None if seed is None else seed + i * _SHARD_SEED_STRIDE,
                round_id_base=i * _SHARD_ROUND_ID_SPAN,
                **bank_kwargs,
            )
            for i in range(shards)
        ]
        self.model = model
        self.meta = self.shards[0].meta
        self.batch = batch
        self.capacity = capacity
        self.low_water = sum(s.low_water for s in self.shards)
        self.group = self.shards[0].group
        self.ro = self.shards[0].ro
        self.fingerprint = self.shards[0].fingerprint
        self.executor = self.shards[0].executor
        self.workers = self.shards[0].workers
        self._rr = 0
        self._rr_lock = threading.Lock()

    @property
    def depth(self) -> int:
        return sum(shard.depth for shard in self.shards)

    def metrics(self) -> dict:
        """Aggregate counters plus a per-shard breakdown."""
        per_shard = [shard.metrics() for shard in self.shards]
        out = {
            key: sum(m[key] for m in per_shard)
            for key in (
                "rounds_generated",
                "rounds_served",
                "rounds_loaded",
                "exhausted_errors",
                "take_waits",
                "take_wait_s",
                "replenish_runs",
                "replenish_s",
                "replenish_failures",
                "generation_payload_bytes",
                "depth",
            )
        }
        errors = [m["last_error"] for m in per_shard if m["last_error"]]
        out["last_error"] = errors[-1] if errors else None
        out["capacity"] = self.capacity
        out["low_water"] = self.low_water
        out["executor"] = self.executor
        out["workers"] = self.workers
        out["generator"] = self.shards[0].generator
        gens = [m["last_generation_s"] for m in per_shard if m["last_generation_s"]]
        out["last_generation_s"] = max(gens) if gens else None
        waits = out["take_waits"]
        out["replenish_lag_s"] = out["take_wait_s"] / waits if waits else 0.0
        out["shards"] = len(self.shards)
        out["per_shard_depth"] = [m["depth"] for m in per_shard]
        return out

    def _order(self) -> list[TripletBank]:
        """Shards in round-robin order starting at a rotating offset."""
        with self._rr_lock:
            start = self._rr
            self._rr = (self._rr + 1) % len(self.shards)
        return self.shards[start:] + self.shards[:start]

    def take(self, timeout_s: float = 0.0) -> OfflineRound:
        return self.take_many(1, timeout_s=timeout_s)[0]

    def take_many(self, n: int, timeout_s: float = 0.0) -> list[OfflineRound]:
        """Claim up to ``n`` rounds, spread round-robin across shards.

        Drains non-blockingly in shard order first; like the single-shard
        :meth:`TripletBank.take_many`, a positive ``timeout_s`` is a wait
        budget for the full grant — the sweep repeats (parking briefly on
        one shard at a time, in rotating order, so its replenisher is
        woken) until ``n`` rounds are claimed or the deadline passes,
        then whatever was claimed is granted.  The standard typed
        exhaustion error is raised only when nothing could be claimed at
        all; rounds are single-use, so a partial claim is never thrown
        back.
        """
        if n < 1:
            raise ConfigError("n must be positive")
        deadline = time.monotonic() + timeout_s
        out: list[OfflineRound] = []
        while True:
            for shard in self._order():
                if len(out) >= n:
                    break
                try:
                    out.extend(shard.take_many(n - len(out), timeout_s=0.0))
                except ProtocolError as exc:
                    if "stopped" in str(exc) and not out:
                        raise
                    continue
            if len(out) >= n:
                return out
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if out:
                    return out
                m = self.metrics()
                raise exhausted_error(m["replenish_failures"], m["last_error"])
            try:
                out.extend(
                    self._order()[0].take_many(
                        n - len(out), timeout_s=min(remaining, 0.25)
                    )
                )
            except ProtocolError as exc:
                if "stopped" in str(exc):
                    # Shutting down: grant the partial rather than spin —
                    # claimed rounds are single-use and must not be lost.
                    if out:
                        return out
                    raise
                continue

    def fill(self, rounds: int) -> int:
        """Generate ``rounds`` spread round-robin across shards."""
        if rounds < 1:
            raise ConfigError("rounds must be positive")
        base, extra = divmod(rounds, len(self.shards))
        for i, shard in enumerate(self.shards):
            share = base + (1 if i < extra else 0)
            if share:
                shard.fill(share)
        return self.depth

    def save(self, path) -> int:
        """Persist each shard to ``<path>.shard<i>``; returns the total."""
        return sum(
            shard.save(f"{path}.shard{i}") for i, shard in enumerate(self.shards)
        )

    def load(self, path) -> int:
        """Load per-shard files written by :meth:`save`."""
        return sum(
            shard.load(f"{path}.shard{i}") for i, shard in enumerate(self.shards)
        )

    def start(self) -> "ShardedTripletBank":
        for shard in self.shards:
            shard.start()
        return self

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()

    def __enter__(self) -> "ShardedTripletBank":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
