"""The three benchmark workloads, built from the seed and run closed-loop.

* ``mlp_b16``: one-shot Fig-4 MLP prediction at batch 16.
* ``cnn_b1``: one-shot LeNet-style conv net prediction at batch 1.
* ``serve_b1``: Fig-4 MLP at batch 1 behind ``PredictionServer`` on TCP
  loopback, fed from a ``TripletBank`` filled during set-up.

Every party, bank and server is built with library defaults (MODP_1536
base OTs, the default random oracle, sequential online phase, selfplay
bank, no scheduler).  The one deviation is the bank's replenisher, which
is off so that set-up fills exactly the rounds the run consumes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import FragmentScheme, Ring, TrainConfig, mnist_mlp, quantize_model, synthetic_mnist, train_classifier
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta, layer_triplet_config
from repro.net.netsim import WAN_QUOTIENT
from repro.net.runner import run_protocol
from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.model import Sequential
from repro.perf.costmodel import abnn2_comm_bits_radices, network_offline_comm_bits
from repro.perf.report import check_conformance, triplet_slack_bits
from repro.serve import PredictionClient, PredictionServer, TripletBank

from ledger import MB, Probe, offline_model_check, walk

clock = time.perf_counter

SCHEME = FragmentScheme.from_bits((2, 2))  # 4(2,2)
RING_BITS = 32
FRAC_BITS = 6
#: Tier-1's logit tolerance for 4-bit truncation against ``forward_int``.
TOLERANCE_ULP = 256
#: Every party call is bounded so a hung run fails inside the time limit.
PROTOCOL_TIMEOUT_S = 150.0
#: Rounds per keep-alive serving session.
SERVE_ROUNDS = 2


# --------------------------------------------------------------------- #
# models and inputs
# --------------------------------------------------------------------- #
def _decided(qmodel, x: np.ndarray) -> np.ndarray:
    """Inputs whose plaintext label is decided beyond the tolerance.

    Truncation moves each secure logit by up to ``TOLERANCE_ULP``, so a
    sample whose top-two reference logits are closer than twice that has
    no single correct label; the label gate is only defined beyond it.
    """
    logits = qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x.T)))
    top2 = np.sort(logits.astype(np.int64), axis=0)[-2:]
    return x[(top2[1] - top2[0]) > 2 * TOLERANCE_ULP]


def build_mlp(seed: int):
    """Fig-4 MLP 784-128-128-10, trained briefly, 4(2,2) on Ring(32)."""
    data = synthetic_mnist(n_train=1000, n_test=400, seed=seed)
    model = mnist_mlp(seed=seed)
    train_classifier(model, data.train_x, data.train_y, TrainConfig(epochs=4, seed=seed))
    qmodel = quantize_model(model, SCHEME, Ring(RING_BITS), frac_bits=FRAC_BITS)
    qmodel.check_range(data.test_x)
    return qmodel, _decided(qmodel, data.test_x)


def build_cnn(seed: int):
    """Conv2d(1->8,k5,s2) -> ReLU -> MaxPool2d(2) -> Flatten -> Dense(288->10)."""
    data = synthetic_mnist(n_train=1000, n_test=400, seed=seed)
    model = Sequential(
        [
            Conv2d(1, 8, kernel_size=5, stride=2, seed=seed),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(8 * 6 * 6, 10, seed=seed + 1),
        ]
    )
    train_classifier(
        model, data.train_x.reshape(-1, 1, 28, 28), data.train_y,
        TrainConfig(epochs=4, learning_rate=0.05, seed=seed),
    )
    qmodel = quantize_model(
        model, SCHEME, Ring(RING_BITS), frac_bits=FRAC_BITS, input_shape=(1, 28, 28)
    )
    qmodel.check_range(data.test_x)
    return qmodel, _decided(qmodel, data.test_x)


def gate(qmodel, x: np.ndarray, logits_ring: np.ndarray) -> str | None:
    """The correctness gate: None when the prediction is right."""
    expect = qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x.T)))
    got = qmodel.ring.to_signed(logits_ring)
    err = int(np.abs(got.astype(np.int64) - expect.astype(np.int64)).max())
    if err > TOLERANCE_ULP:
        return f"logits differ from forward_int by {err} ulp (> {TOLERANCE_ULP})"
    labels = np.argmax(got, axis=0)
    if not (labels == qmodel.predict(x)).all():
        return f"labels {labels.tolist()} != QuantizedModel.predict {qmodel.predict(x).tolist()}"
    return None


def predicted_offline(qmodel, batch: int) -> tuple[int, tuple[int, int]]:
    """Closed-form offline triplet bits and word-packing slack."""
    meta = ModelMeta.from_model(qmodel)
    ring = Ring(meta.ring_bits)
    bits = 0
    slack = [0, 0]
    shapes = []
    for layer in meta.layers:
        config = layer_triplet_config(ring, layer, batch)
        radices = [frag.n_values for frag in config.scheme.fragments]
        bits += abnn2_comm_bits_radices(radices, config.rows, config.n, config.o, ring.bits, config.resolved_mode)
        lo, hi = triplet_slack_bits(config.rows, config.n, config.o, ring.bits, radices, config.resolved_mode)
        slack[0] += lo
        slack[1] += hi
        shapes.append((config.rows, config.n, config.o))
    if all(layer.conv is None for layer in meta.layers):
        fc = network_offline_comm_bits([(m, n) for m, n, _ in shapes], SCHEME, batch, ring.bits)
        if fc != bits:
            raise AssertionError(f"cost model disagrees with itself: {fc} != {bits}")
    return bits, (slack[0], slack[1])


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #
@dataclass
class RunResult:
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)  # traced predictions per group
    overhead_frac: float | None = None
    extra: dict[str, float] = field(default_factory=dict)
    #: set-up work done inside the workload (serve: bank fill, server start)
    setup_s: float = 0.0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def closed_loop(step: Callable[[int], float], budget_s: float) -> int:
    """Run ``step(i)`` back to back while the next one fits the budget.

    ``step`` returns its own duration; at least one step always runs.
    """
    start = clock()
    durations: list[float] = []
    while not durations or (clock() - start) + statistics.median(durations) <= budget_s:
        durations.append(step(len(durations)))
    return len(durations)


# --------------------------------------------------------------------- #
# one-shot predictions
# --------------------------------------------------------------------- #
def one_shot(qmodel, x: np.ndarray) -> dict:
    """Fresh parties over the in-memory pair: offline, then online."""
    meta = ModelMeta.from_model(qmodel)
    batch = x.shape[0]
    x_ring = qmodel.encoder.encode(x.T)

    def server_fn(chan):
        server = Abnn2Server(chan, qmodel, batch)
        server.offline()
        server.online()
        return server

    def client_fn(chan):
        client = Abnn2Client(chan, meta, batch)
        t0 = clock()
        client.offline()
        t1 = clock()
        logits = client.online(x_ring)
        return client, logits, t1 - t0, clock() - t1

    t0 = clock()
    result = run_protocol(server_fn, client_fn, timeout_s=PROTOCOL_TIMEOUT_S)
    predict_s = clock() - t0
    client, logits, offline_s, online_s = result.client
    return {
        "predict_s": predict_s,
        "offline_s": offline_s,
        "online_s": online_s,
        "logits": logits,
        "offline": client.offline_stats,
        "online": client.online_stats,
        "trace": client.tracer.to_dict(),
    }


def run_one_shot(build, batch: int, seconds: float, traced: bool, res: RunResult) -> Probe | None:
    """Closed loop of one-shot predictions over the window."""
    qmodel, pool = build
    predicted_bits, slack = predicted_offline(qmodel, batch)
    n_batches = len(pool) // batch
    probe = Probe() if traced else None

    def step(i: int, label: str) -> float:
        x = pool[(i % n_batches) * batch:(i % n_batches + 1) * batch]
        res.attempted += 1
        if probe is not None:
            probe.request = f"p{i}"
        try:
            out = one_shot(qmodel, x)
        except Exception as exc:  # noqa: BLE001 - a failed prediction is counted, not fatal
            res.fail(f"prediction {i}: {type(exc).__name__}: {exc}")
            return PROTOCOL_TIMEOUT_S
        problem = gate(qmodel, x, out["logits"]) or "; ".join(
            check_conformance(out["trace"]) + offline_model_check(out["trace"], predicted_bits, slack)
        )
        if problem:
            res.fail(f"prediction {i}: {problem}")
        offline, online = out["offline"], out["online"]
        res.add(f"{label}predict_s", out["predict_s"])
        res.add(f"{label}offline_s", out["offline_s"])
        res.add(f"{label}online_s", out["online_s"])
        res.add(f"{label}session_first_s", out["online_s"])
        res.add(f"{label}offline_MB", offline.payload_bytes / MB)
        res.add(f"{label}online_MB", online.payload_bytes / MB)
        res.add(f"{label}online_rounds", online.rounds)
        res.add(
            f"{label}wan_s",
            WAN_QUOTIENT.estimate_s(
                out["offline_s"] + out["online_s"],
                offline.payload_bytes + online.payload_bytes,
                offline.rounds + online.rounds,
            ),
        )
        return out["predict_s"]

    if not traced:
        n = closed_loop(lambda i: step(i, ""), seconds)
        res.add("samples_per_s", n * batch / sum(res.samples["predict_s"]))
        return None

    # Traced run: untraced predictions for half the window, then the
    # probe goes in and the rest of the window is traced.
    closed_loop(lambda i: step(i, "untraced."), seconds / 2)
    probe.install()
    try:
        n = closed_loop(lambda i: step(i, ""), seconds / 2)
    finally:
        probe.uninstall()
    res.counts = {"oneshot": n}
    res.overhead_frac = (
        statistics.median(res.samples["predict_s"])
        / statistics.median(res.samples["untraced.predict_s"])
        - 1.0
    )
    return probe


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #
def serve_sessions(seconds: float) -> int:
    """Sessions per run: the window decides, at least two."""
    return max(2, round(seconds / 14))


def run_serve(build, seconds: float, traced: bool, res: RunResult) -> Probe | None:
    """Bank fill (set-up), then keep-alive sessions one after another."""
    qmodel, pool = build
    meta = ModelMeta.from_model(qmodel)
    n_sessions = serve_sessions(seconds)
    rounds = n_sessions * SERVE_ROUNDS
    probe = Probe() if traced else None

    bank = TripletBank(qmodel, 1, capacity=rounds, auto_replenish=False)
    if probe is not None:
        probe.request = "fill"
        probe.install()
    t0 = clock()
    try:
        bank.fill(rounds)
    finally:
        if probe is not None:
            probe.uninstall()
    fill_s = clock() - t0
    res.add("offline_s", fill_s / rounds)
    res.add("offline_MB", bank.metrics()["generation_payload_bytes"] / rounds / MB)
    if probe is not None:
        res.extra["serve.bank.fill_s"] = fill_s / rounds

    t0 = clock()
    server = PredictionServer(qmodel, bank)
    server.start()
    res.setup_s = fill_s + (clock() - t0)

    session_walls: list[float] = []
    grants: list[float] = []
    served: dict[str, list[tuple[float, int, int]]] = {}  # label -> (latency, bytes, flips)
    try:
        for s in range(n_sessions):
            # Traced run: the first session runs untraced, for the overhead.
            trace_this = probe is not None and s > 0
            label = "traced." if trace_this else ""
            if trace_this:
                probe.request = f"s{s}"
                probe.install()
            try:
                wall, grant = _session(qmodel, meta, pool, s, server.port, res, served.setdefault(label, []))
            finally:
                if trace_this:
                    probe.uninstall()
            session_walls.append(wall)
            grants.append(grant)
        server.wait_idle(timeout_s=PROTOCOL_TIMEOUT_S)
    finally:
        server.stop()
    if server.metrics()["sessions_failed"]:
        res.fail(f"server recorded {server.metrics()['sessions_failed']} failed sessions")
    for label, records in served.items():
        # Per served round, first rounds included: a steady round alone is
        # under a second of work, too short to measure steadily.
        latency = statistics.fmean(r[0] for r in records)
        nbytes = statistics.fmean(r[1] for r in records)
        flips = statistics.fmean(r[2] for r in records)
        res.add(f"{label}online_s", latency)
        res.add(f"{label}online_MB", nbytes / MB)
        res.add(f"{label}online_rounds", flips)
        res.add(f"{label}wan_s", WAN_QUOTIENT.estimate_s(latency, nbytes, flips))
        res.add(f"{label}predict_s", fill_s / rounds + latency)
        res.add(f"{label}samples_per_s", len(records) / sum(r[0] for r in records))
    if probe is not None:
        res.counts = {"fill": rounds, "session": (n_sessions - 1) * SERVE_ROUNDS}
        res.extra["serve.session.grant_s"] = statistics.median(grants[1:])
        res.overhead_frac = statistics.median(session_walls[1:]) / session_walls[0] - 1.0
    return probe


def _session(qmodel, meta, pool, s: int, port: int, res: RunResult, served: list) -> tuple[float, float]:
    """One keep-alive session of ``SERVE_ROUNDS`` rounds; (wall, grant).

    Appends ``(latency, bytes, flips)`` per round to ``served``; the first
    round's latency counts from before the connect.
    """
    t_open = clock()
    grant_s = 0.0
    client = PredictionClient(meta, 1, port=port, timeout_s=PROTOCOL_TIMEOUT_S)
    try:
        for r in range(SERVE_ROUNDS):
            i = (s * SERVE_ROUNDS + r) % len(pool)
            x = pool[i:i + 1]
            res.attempted += 1
            before = client.tracer.root.totals()
            t0 = t_open if r == 0 else clock()
            try:
                logits, _labels = client.predict(x)
            except Exception as exc:  # noqa: BLE001 - counted, then the session ends
                res.fail(f"session {s} round {r}: {type(exc).__name__}: {exc}")
                break
            latency = clock() - t0
            after = client.tracer.root.totals()
            if r == 0:
                deal = next(span for span in walk(client.tracer.root) if span.name == "deal")
                grant_s = deal.start_s + deal.duration_s - t_open
                res.add("session_first_s", latency)
            else:
                res.add("steady_round_s", latency)
            problem = gate(qmodel, x, logits) or "; ".join(
                check_conformance(client.tracer.to_dict())
            )
            if problem:
                res.fail(f"session {s} round {r}: {problem}")
            nbytes = (after["sent_bytes"] + after["recv_bytes"]) - (
                before["sent_bytes"] + before["recv_bytes"]
            )
            served.append((latency, nbytes, after["rounds"] - before["rounds"]))
    finally:
        client.close()
    return clock() - t_open, grant_s
