"""Traced-run instrumentation and the per-layer compute/wait ledger.

Everything here is installed from outside the program: :class:`Probe`
patches a handful of library entry points for the duration of a traced
run and restores them afterwards.

* ``Channel.recv`` / ``TcpChannel.recv``: the time each call blocks is
  charged to the innermost open span of the channel's tracer
  (``Tracer.current``), so every span splits into compute and wait.
* ``RandomOracle.mask``: call, row and time counters per backend name.
* ``lower_shares`` / ``lift_output`` (as the protocol module calls them):
  im2col time, charged to the calling party's innermost span.
* ``_PartyBase.__init__``: registers every party's tracer, with the
  request it serves, so its spans can be read back after the run.
* ``_PartyBase._track_phase``: thread CPU time of each offline/online
  phase, an independent check on wall = compute + wait.
* ``TripletBank.take``: time a serving session spends claiming a round.

Spans themselves are the ones the program already records; after the
run :func:`span_records` flattens every registered tracer into records
with name, start, end, parent, party and request id, and
:func:`layer_metrics` / :func:`ledger_rows` aggregate them by name.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

import repro.core.protocol as protocol
from repro.crypto.hash_ro import RandomOracle
from repro.net.channel import Channel
from repro.net.netsim import WAN_QUOTIENT
from repro.net.tcp import TcpChannel
from repro.perf.report import base_ot_bits, span_total_bits
from repro.perf.trace import iter_spans
from repro.serve.bank import TripletBank

MB = 1e6

#: Spans of the OT-extension layer (self time, by name).
OTEXT_SPANS = ("extension", "ot-transfer")

PARTIES = ("server", "client")
PHASES = ("offline", "online")

#: Which end-to-end metric each ledger row should move, and where.
ROW_TAGS = {
    "triplets": "offline_s mlp_b16/cnn_b1; setup_s+offline_s serve_b1",
    "linear": "online_s cnn_b1",
    "relu": "online_s cnn_b1, mlp_b16, serve_b1",
    "pool": "online_s cnn_b1",
    "other": "online_s (input/logits/deal)",
}


class _Charges:
    """Time charged to spans from outside the tracer (wait, lowering)."""

    def __init__(self) -> None:
        self._by_span: dict[int, list] = {}

    def add(self, span, key: str, seconds: float) -> None:
        entry = self._by_span.get(id(span))
        if entry is None:
            # Holding the span keeps its id unique for the run.
            entry = self._by_span[id(span)] = [span, defaultdict(float)]
        entry[1][key] += seconds

    def get(self, span, key: str) -> float:
        entry = self._by_span.get(id(span))
        return entry[1][key] if entry is not None else 0.0


class Probe:
    """Install/uninstall the traced-run wrappers; holds what they record.

    ``request`` labels the work started while it is set (``p3`` for a
    one-shot prediction, ``fill`` for the bank fill, ``s1`` for a
    serving session); tracers and oracle counters are filed under it.
    """

    def __init__(self) -> None:
        self.request = "fill"
        self.charges = _Charges()
        self.tracers: list[tuple[str, object]] = []  # (request, tracer)
        self.phase_spans: list[tuple[str, object, object, float]] = []
        self.ro = defaultdict(lambda: defaultdict(float))  # request -> counters
        self.ro_backends: set[str] = set()
        self.take_s: dict[str, list[float]] = defaultdict(list)
        self._thread_tracer: dict[int, object] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        if self._saved:
            return
        probe = self
        clock = time.perf_counter

        def timed_recv(orig):
            def recv(chan):
                tracer = chan.tracer
                span = tracer.current if tracer is not None else None
                t0 = clock()
                try:
                    return orig(chan)
                finally:
                    if span is not None:
                        probe.charges.add(span, "wait", clock() - t0)
            return recv

        self._patch(Channel, "recv", timed_recv(Channel.recv))
        self._patch(TcpChannel, "recv", timed_recv(TcpChannel.recv))

        orig_mask = RandomOracle.mask

        def mask(oracle, rows, out_words, domain=0):
            t0 = clock()
            out = orig_mask(oracle, rows, out_words, domain)
            dt = clock() - t0
            n_rows = int(np.prod(out.shape[:-1]))
            with probe._lock:
                counters = probe.ro[probe.request]
                counters["calls"] += 1
                counters["rows"] += n_rows
                counters["s"] += dt
                counters[f"rows:{oracle.name}"] += n_rows
                probe.ro_backends.add(oracle.name)
            return out

        self._patch(RandomOracle, "mask", mask)

        def lowering(orig):
            def wrapped(*args, **kwargs):
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer = probe._thread_tracer.get(threading.get_ident())
                    if tracer is not None:
                        probe.charges.add(tracer.current, "lower", clock() - t0)
            return wrapped

        self._patch(protocol, "lower_shares", lowering(protocol.lower_shares))
        self._patch(protocol, "lift_output", lowering(protocol.lift_output))

        orig_init = protocol._PartyBase.__init__

        def party_init(party, *args, **kwargs):
            orig_init(party, *args, **kwargs)
            probe._thread_tracer[threading.get_ident()] = party.tracer
            with probe._lock:
                probe.tracers.append((probe.request, party.tracer))

        self._patch(protocol._PartyBase, "__init__", party_init)

        orig_phase = protocol._PartyBase._track_phase

        def track_phase(party, label, fn):
            parent = party.tracer.current
            c0 = time.thread_time()
            try:
                return orig_phase(party, label, fn)
            finally:
                cpu = time.thread_time() - c0
                span = parent.children[-1]
                with probe._lock:
                    probe.phase_spans.append((probe.request, party.tracer, span, cpu))

        self._patch(protocol._PartyBase, "_track_phase", track_phase)

        orig_take = TripletBank.take

        def take(bank, *args, **kwargs):
            t0 = clock()
            try:
                return orig_take(bank, *args, **kwargs)
            finally:
                probe.take_s[probe.request].append(clock() - t0)

        self._patch(TripletBank, "take", take)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# --------------------------------------------------------------------- #
# reading spans back
# --------------------------------------------------------------------- #
def walk(span):
    """A live span and all its descendants, depth first."""
    yield span
    for child in span.children:
        yield from walk(child)


def _self_time(span) -> float:
    return (span.duration_s or 0.0) - sum(c.duration_s or 0.0 for c in span.children)


def _self_compute(probe: Probe, span) -> float:
    return (
        _self_time(span)
        - probe.charges.get(span, "wait")
        - probe.charges.get(span, "lower")
    )


def _subtree_wait(probe: Probe, span) -> float:
    return sum(probe.charges.get(s, "wait") for s in walk(span))


def span_records(probe: Probe, t0: float) -> list[dict]:
    """Every registered tracer's spans as flat records (in memory)."""
    records: list[dict] = []
    for request, tracer in probe.tracers:
        index: dict[int, int] = {}
        for span in walk(tracer.root):
            if span.parent is None:
                continue
            index[id(span)] = len(records)
            end = span.start_s + (span.duration_s or 0.0)
            records.append(
                {
                    "id": len(records),
                    "name": span.name,
                    "path": span.path,
                    "parent": index.get(id(span.parent)),
                    "party": tracer.party,
                    "request": request,
                    "start_s": round(span.start_s - t0, 6),
                    "end_s": round(end - t0, 6),
                    "self_s": round(_self_time(span), 6),
                    "wait_s": round(probe.charges.get(span, "wait"), 6),
                    "lower_s": round(probe.charges.get(span, "lower"), 6),
                    "sent_bytes": span.sent_bytes,
                    "recv_bytes": span.recv_bytes,
                    "msgs": span.sent_msgs + span.recv_msgs,
                    "rounds": span.rounds,
                    "attrs": {k: v for k, v in span.attrs.items() if _plain(v)},
                }
            )
    return records


def _plain(value) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    return isinstance(value, list) and all(isinstance(v, (int, float, str)) for v in value)


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
def group_of(request: str) -> str:
    """``fill`` (bank generation), ``session`` (serving) or ``oneshot``."""
    return {"f": "fill", "s": "session", "p": "oneshot"}[request[0]]


def layer_metrics(probe: Probe, counts: dict[str, int]) -> dict[str, float]:
    """Per-prediction per-layer metrics from a traced run.

    ``counts`` maps each group (:func:`group_of`) to the predictions (or
    bank rounds) its traced work covers; every metric is that group's
    total divided by its count, summed over groups.
    """
    out: dict[str, float] = defaultdict(float)

    def per(request: str) -> float:
        return 1.0 / counts[group_of(request)]

    for request, tracer in probe.tracers:
        w = per(request)
        for span in walk(tracer.root):
            if span.parent is None:
                continue
            name = span.name
            compute = _self_compute(probe, span)
            io_bytes = span.sent_bytes + span.recv_bytes
            if name == "base-ot":
                out["crypto.baseot.s"] += compute * w
                if tracer.party == "client":
                    out["crypto.baseot.n"] += span.attrs.get("count", 0) * w
            elif name in OTEXT_SPANS:
                out["crypto.otext.s"] += compute * w
                out["crypto.otext.wait_s"] += probe.charges.get(span, "wait") * w
                if tracer.party == "client":
                    out["crypto.otext.MB"] += io_bytes / MB * w
            elif name == "triplets" or name.startswith("radix"):
                out["core.triplets.s"] += compute * w
            elif name == "garble":
                out["gc.garble.s"] += compute * w
            elif name == "evaluate":
                out["gc.evaluate.s"] += compute * w
            elif name == "pool":
                out["core.pooling.s"] += compute * w
            elif name == "matmul":
                out["core.matmul.s"] += compute * w
            if name in ("relu", "pool") and tracer.party == "client":
                total = span.totals()
                out["gc.MB"] += (total["sent_bytes"] + total["recv_bytes"]) / MB * w
            out["nn.lowering.s"] += probe.charges.get(span, "lower") * w
        if tracer.party == "client":
            total = tracer.root.totals()
            out["net.msgs"] += (total["sent_msgs"] + total["recv_msgs"]) * w

    for request, tracer, span, cpu in probe.phase_spans:
        w = per(request)
        key = f"{span.name}.{tracer.party}"
        wall = span.duration_s or 0.0
        wait = _subtree_wait(probe, span)
        out[f"net.wait_s.{key}"] += wait * w
        out[f"net.compute_s.{key}"] += (wall - wait) * w
        out[f"net.cpu_s.{key}"] += cpu * w

    rows = 0.0
    fast_rows = 0.0
    for request, counters in probe.ro.items():
        w = per(request)
        out["crypto.ro.calls"] += counters["calls"] * w
        out["crypto.ro.s"] += counters["s"] * w
        rows += counters["rows"] * w
        fast_rows += counters["rows:siphash24-fast"] * w
    out["crypto.ro.rows"] = rows
    out["crypto.ro.fast_frac"] = fast_rows / rows if rows else 0.0

    for name in LAYER_METRIC_NAMES:
        out.setdefault(name, 0.0)
    return dict(out)


def phase_accounting(probe: Probe) -> list[dict]:
    """Per party and phase: wall, recv wait, thread CPU, unaccounted.

    ``unaccounted = wall - wait - cpu`` is time the party thread was
    runnable but not running: the other party thread holding the
    interpreter lock, or the OS scheduler.
    """
    acc: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for request, tracer, span, cpu in probe.phase_spans:
        key = f"{group_of(request)}/{span.name}/{tracer.party}"
        acc[key]["wall_s"] += span.duration_s or 0.0
        acc[key]["wait_s"] += _subtree_wait(probe, span)
        acc[key]["cpu_s"] += cpu
    rows = []
    for key, v in sorted(acc.items()):
        wall = v["wall_s"]
        rows.append(
            {
                "phase": key,
                "wall_s": wall,
                "wait_s": v["wait_s"],
                "cpu_s": v["cpu_s"],
                "unaccounted_frac": (wall - v["wait_s"] - v["cpu_s"]) / wall if wall else 0.0,
            }
        )
    return rows


LAYER_METRIC_NAMES = (
    ["crypto.baseot.s", "crypto.baseot.n"]
    + ["crypto.otext.s", "crypto.otext.wait_s", "crypto.otext.MB"]
    + ["core.triplets.s"]
    + ["crypto.ro.calls", "crypto.ro.rows", "crypto.ro.s", "crypto.ro.fast_frac"]
    + ["gc.garble.s", "gc.evaluate.s", "gc.MB"]
    + ["core.pooling.s", "nn.lowering.s", "core.matmul.s"]
    + [
        f"net.{kind}.{phase}.{party}"
        for kind in ("wait_s", "compute_s", "cpu_s")
        for phase in PHASES
        for party in PARTIES
    ]
    + ["net.msgs"]
)


# --------------------------------------------------------------------- #
# the ledger table: layer x phase
# --------------------------------------------------------------------- #
def _layer_row_key(span) -> tuple[int, str] | None:
    parent = span.parent
    if parent is None or not parent.name.startswith("layer"):
        return None
    kind = {"triplets": "triplets", "matmul": "linear", "relu": "relu", "pool": "pool"}.get(
        span.name
    )
    if kind is None:
        return None
    return int(parent.name[len("layer"):]), kind


def ledger_rows(probe: Probe, counts: dict[str, int]) -> list[dict]:
    """One row per layer x {offline triplets, linear, ReLU, pool}.

    Per prediction: client wall and recv wait, server compute, client
    payload bytes and rounds, and the row's projected time on the
    WAN_QUOTIENT link (client wall + bytes/B + rounds*RTT) as a share of
    the whole prediction's projection.  Rows are inclusive of their
    sub-spans (base OTs, OT extension, garbling).
    """
    rows: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    phase_total = defaultdict(float)
    for request, tracer in probe.tracers:
        w = 1.0 / counts[group_of(request)]
        for span in walk(tracer.root):
            if span.name in PHASES and tracer.party == "client":
                total = span.totals()
                phase_total["wall_s"] += (span.duration_s or 0.0) * w
                phase_total["bytes"] += (total["sent_bytes"] + total["recv_bytes"]) * w
                phase_total["rounds"] += total["rounds"] * w
            key = _layer_row_key(span)
            if key is None:
                continue
            row = rows[key]
            wall = (span.duration_s or 0.0) * w
            wait = _subtree_wait(probe, span) * w
            if tracer.party == "client":
                total = span.totals()
                row["client_wall_s"] += wall
                row["client_wait_s"] += wait
                row["bytes"] += (total["sent_bytes"] + total["recv_bytes"]) * w
                row["rounds"] += total["rounds"] * w
            else:
                row["server_compute_s"] += wall - wait
    projected_total = WAN_QUOTIENT.estimate_s(
        phase_total["wall_s"], phase_total["bytes"], phase_total["rounds"]
    )
    out = []
    accounted = defaultdict(float)
    for (layer, kind), row in sorted(rows.items()):
        wan = WAN_QUOTIENT.estimate_s(row["client_wall_s"], row["bytes"], row["rounds"])
        for k in ("client_wall_s", "bytes", "rounds"):
            accounted[k] += row[k]
        out.append(
            {
                "layer": layer,
                "phase": kind,
                "compute_s": row["client_wall_s"] - row["client_wait_s"],
                "wait_s": row["client_wait_s"],
                "server_compute_s": row["server_compute_s"],
                "MB": row["bytes"] / MB,
                "rounds": row["rounds"],
                "wan_share": wan / projected_total if projected_total else 0.0,
                "moves": ROW_TAGS[kind],
            }
        )
    other_wall = phase_total["wall_s"] - accounted["client_wall_s"]
    other_bytes = phase_total["bytes"] - accounted["bytes"]
    other_rounds = phase_total["rounds"] - accounted["rounds"]
    other_wan = WAN_QUOTIENT.estimate_s(max(other_wall, 0.0), max(other_bytes, 0.0), max(other_rounds, 0.0))
    out.append(
        {
            "layer": "-",
            "phase": "other",
            "compute_s": other_wall,
            "wait_s": 0.0,
            "server_compute_s": 0.0,
            "MB": other_bytes / MB,
            "rounds": other_rounds,
            "wan_share": other_wan / projected_total if projected_total else 0.0,
            "moves": ROW_TAGS["other"],
        }
    )
    return out


def render_ledger(workload: str, rows: list[dict]) -> str:
    head = (
        f"{'layer':>5} {'phase':<9} {'compute_s':>9} {'wait_s':>8} {'srv_cpt_s':>9}"
        f" {'MB':>8} {'rounds':>7} {'wan%':>6}  moves"
    )
    lines = [f"ledger {workload} (per prediction; client view, server compute)", head]
    for r in rows:
        lines.append(
            f"{r['layer']:>5} {r['phase']:<9} {r['compute_s']:>9.3f} {r['wait_s']:>8.3f}"
            f" {r['server_compute_s']:>9.3f} {r['MB']:>8.3f} {r['rounds']:>7.1f}"
            f" {100 * r['wan_share']:>5.1f}%  {r['moves']}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# traffic check against the closed form
# --------------------------------------------------------------------- #
def offline_model_check(trace: dict, predicted_bits: int, slack_bits: tuple[int, int]) -> list[str]:
    """Each offline phase's bytes, minus base-OT setup, against the
    Table-1 closed form plus its word-packing slack."""
    lo, hi = predicted_bits + slack_bits[0], predicted_bits + slack_bits[1]
    failures = []
    for path, span in iter_spans(trace):
        if span["name"] == "offline":
            core = span_total_bits(span) - base_ot_bits(span)
            if not lo <= core <= hi:
                failures.append(f"{path}: {core} offline bits outside cost model [{lo}, {hi}]")
    return failures
