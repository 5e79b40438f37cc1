"""Pipelined execution of a layer-graph plan: streamed garbling machinery.

The observation that makes the online phase pipelinable is that the
client's garbler inputs for every oblivious ReLU are **offline-known**:
``y1`` is the banked matmul share ``V`` (plus bias-free local lowering
and truncation) and ``z1`` is the offline-sampled output share.  Nothing
about layer ``k``'s garbled circuit depends on online data except the
*evaluator's* input bits (the server's ``y0``), which enter via the
label OT.  So a background :class:`GarbleStreamWorker` can garble and
stream every layer's tables on its own :class:`~repro.net.mux.ChannelMux`
stream (:func:`repro.gc.stream.garble_stream`) while the main threads
walk the sequential round structure — input share, per-layer label OTs,
pooling, logits — on the :data:`~repro.core.plan.MAIN_STREAM`.

Thread/tracer model (tracers are single-threaded):

* the main thread keeps the party tracer, attached to the main stream;
* the worker gets a fresh :class:`~repro.perf.trace.Tracer` per job,
  attached to that job's GC stream, grafted back into the party trace as
  a closed ``gc-stream`` child of the layer's ReLU span via
  :meth:`~repro.perf.trace.Tracer.adopt` once the job completes —
  so per-layer stream bytes stay attributed even though transfer and
  compute overlap;
* the server is single-threaded: chunk frames are *routed* by whichever
  recv pumps the mux, but bytes are recorded at ``_pop`` time in the
  consuming call, i.e. inside the ReLU span's ``gc-stream`` child.

Failure containment: any exception on either side poisons the mux
(:meth:`~repro.net.mux.ChannelMux.abort`), which wakes every stream
blocked in ``recv``; transport-level :class:`~repro.errors.ChannelError`
is wrapped into :class:`~repro.errors.ProtocolError` so a fault
mid-chunk surfaces identically on both parties and the caller's banked
round is never consumed (:meth:`repro.core.protocol.Abnn2Server.online`
pops its bank only after a fully successful round).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.plan import LayerGraphPlan, PlanNode
from repro.core.relu import _from_bit_rows, _template, _to_bit_rows
from repro.crypto.hash_ro import RandomOracle
from repro.errors import ConfigError, ProtocolError
from repro.gc.circuit import Circuit
from repro.gc.garble import LABEL_WORDS
from repro.gc.protocol import _OT_DOMAIN_GC_INPUTS, GcSessions
from repro.gc.stream import DEFAULT_WINDOW, evaluate_stream, garble_stream
from repro.net.mux import ChannelMux
from repro.perf.trace import Tracer
from repro.utils.ring import Ring
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the pipelined online phase.

    ``chunk`` is the **protocol-level** garbling granularity: AND gates
    per streamed table block (``None`` = whole circuit in one block —
    pipelined transfer but no memory bound).  ``window`` is the
    garbler-local flow-control limit on unacked chunks in flight.
    """

    chunk: int | None = None
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if self.chunk is not None and self.chunk < 1:
            raise ConfigError(f"gc stream chunk must be >= 1, got {self.chunk}")
        if self.window < 1:
            raise ConfigError(f"gc stream window must be >= 1, got {self.window}")


@dataclass
class StreamJob:
    """One streamable node's garbling work order (client side)."""

    node: PlanNode
    circuit: Circuit
    garbler_bits: np.ndarray
    n_inst: int
    rng: np.random.Generator


def build_stream_jobs(
    plan: LayerGraphPlan,
    relu_shares: list[np.ndarray],
    y1s: dict[int, np.ndarray],
    ring: Ring,
    seed: int | None,
) -> list[StreamJob]:
    """Work orders for every streamed node, from offline-known inputs.

    ``y1s`` maps layer index to the client's truncated linear share (the
    ReLU's ``y1``); ``relu_shares`` is the banked per-hidden-layer ``z1``
    list.  Each job gets its own deterministic RNG so the stream worker's
    label sampling never races the main thread's generator.
    """
    circuit = _template("relu", ring.bits)
    jobs: list[StreamJob] = []
    for node in plan.streamed:
        idx = node.layer
        flat_y1 = ring.reduce(y1s[idx]).reshape(-1)
        flat_z1 = ring.reduce(relu_shares[idx]).reshape(-1)
        if flat_z1.shape != flat_y1.shape:
            raise ConfigError(
                f"layer {idx}: z1 share shape {flat_z1.shape} does not match "
                f"linear share shape {flat_y1.shape}"
            )
        bits = np.concatenate(
            [_to_bit_rows(ring, flat_y1), _to_bit_rows(ring, flat_z1)], axis=0
        )
        jobs.append(
            StreamJob(
                node=node,
                circuit=circuit,
                garbler_bits=bits,
                n_inst=flat_y1.shape[0],
                rng=make_rng(None if seed is None else seed + 7919 * (idx + 1)),
            )
        )
    return jobs


class _JobState:
    __slots__ = ("pairs", "pairs_evt", "info", "tracer", "done_evt")

    def __init__(self) -> None:
        self.pairs: np.ndarray | None = None
        self.pairs_evt = threading.Event()
        self.info: dict[str, int] | None = None
        self.tracer: Tracer | None = None
        self.done_evt = threading.Event()


class GarbleStreamWorker:
    """Background garbler: runs :class:`StreamJob`\\ s in plan order.

    Jobs run strictly sequentially — job ``k+1``'s tables start flowing
    as soon as job ``k``'s last chunk is acked (the evaluator acks after
    *evaluating*, so the hand-off naturally tracks the main round's
    progress; the ``window`` bounds how far ahead of the evaluator any
    single stream runs).

    The main thread consumes two artifacts per job: :meth:`pairs` (the
    evaluator-input label pairs, published before the first gate is
    garbled, feeding the on-main-stream label OT) and :meth:`result`
    (the stream info dict plus the job's tracer, available once the
    stream is fully acked).  On any failure the worker poisons the mux
    and releases every waiter.
    """

    def __init__(
        self,
        mux: ChannelMux,
        jobs: list[StreamJob],
        config: PipelineConfig,
        ro: RandomOracle,
    ) -> None:
        self._mux = mux
        self._jobs = list(jobs)
        self._config = config
        self._ro = ro
        self.exc: BaseException | None = None
        self._states = {job.node.name: _JobState() for job in self._jobs}
        self._thread = threading.Thread(
            target=self._run, name="abnn2-gc-stream", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        try:
            for job in self._jobs:
                state = self._states[job.node.name]
                stream = self._mux.stream(job.node.stream)
                tracer = Tracer()
                stream.tracer = tracer
                try:
                    info = garble_stream(
                        stream,
                        job.circuit,
                        job.garbler_bits,
                        job.n_inst,
                        job.rng,
                        chunk=self._config.chunk,
                        window=self._config.window,
                        ro=self._ro,
                        on_pairs=lambda pairs, s=state: self._publish(s, pairs),
                    )
                finally:
                    stream.tracer = None
                state.info = info
                state.tracer = tracer
                state.done_evt.set()
        except BaseException as exc:  # noqa: BLE001 - surfaced via pairs()/result()
            self.exc = exc
            self._mux.abort(exc)
        finally:
            # Release every waiter; late callers see self.exc first.
            for state in self._states.values():
                state.pairs_evt.set()
                state.done_evt.set()

    @staticmethod
    def _publish(state: _JobState, pairs: np.ndarray) -> None:
        state.pairs = pairs
        state.pairs_evt.set()

    def _state(self, name: str) -> _JobState:
        try:
            return self._states[name]
        except KeyError:
            raise ConfigError(f"no stream job for plan node {name!r}") from None

    def _wait(self, evt: threading.Event, what: str, name: str, timeout: float) -> None:
        if not evt.wait(timeout):
            raise ProtocolError(
                f"timed out waiting for the {what} of streamed node {name!r}"
            )

    def _reraise(self) -> None:
        if self.exc is not None:
            if isinstance(self.exc, ProtocolError):
                raise self.exc
            raise ProtocolError(f"gc stream worker failed: {self.exc}") from self.exc

    def pairs(self, name: str, timeout: float) -> np.ndarray:
        """Evaluator-input label pairs for node ``name`` (blocks briefly)."""
        state = self._state(name)
        self._wait(state.pairs_evt, "label pairs", name, timeout)
        if state.pairs is None:
            self._reraise()
            raise ProtocolError(f"stream worker produced no pairs for {name!r}")
        return state.pairs

    def result(self, name: str, timeout: float) -> tuple[dict[str, int], Tracer]:
        """Stream info + per-job tracer once node ``name`` is fully acked."""
        state = self._state(name)
        self._wait(state.done_evt, "table stream", name, timeout)
        if state.info is None or state.tracer is None:
            self._reraise()
            raise ProtocolError(f"stream worker produced no result for {name!r}")
        return state.info, state.tracer

    def join(self, timeout: float | None = None) -> None:
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


def send_label_pairs(sessions: GcSessions, pairs: np.ndarray) -> None:
    """Garbler side of the label OT for one streamed execution.

    Runs on the main stream (it needs the evaluator's online choice
    bits) — the only part of a streamed ReLU that stays on the
    sequential round structure.
    """
    if pairs.shape[0]:
        sessions.ot.send_chosen(pairs, domain=_OT_DOMAIN_GC_INPUTS)


def streamed_relu_server(
    gstream,
    y0: np.ndarray,
    sessions: GcSessions,
    ring: Ring,
    *,
    tracer: Tracer | None = None,
) -> tuple[np.ndarray, dict[str, int]]:
    """Server (evaluator) side of one streamed oblivious ReLU layer.

    The label OT runs on ``sessions``' channel (the main stream); the
    chunked tables arrive on ``gstream`` and are evaluated with
    ``sessions.ro``.  Returns ``(z0, info)`` with ``z0`` shaped like
    ``y0``.
    """
    shape = np.shape(y0)
    flat = ring.reduce(y0).reshape(-1)
    n_inst = flat.shape[0]
    circuit = _template("relu", ring.bits)
    y0_bits = _to_bit_rows(ring, flat)
    n_eval_bits = len(circuit.evaluator_inputs)
    if n_eval_bits:
        my_labels = sessions.ot.recv_chosen(
            y0_bits.reshape(-1), LABEL_WORDS, domain=_OT_DOMAIN_GC_INPUTS
        ).reshape(n_eval_bits, n_inst, LABEL_WORDS)
    else:
        my_labels = np.zeros((0, n_inst, LABEL_WORDS), dtype=np.uint64)
    span = tracer.span("gc-stream", stream=gstream.tag) if tracer is not None else nullcontext()
    with span:
        out_bits, info = evaluate_stream(gstream, circuit, my_labels, n_inst, ro=sessions.ro)
    return _from_bit_rows(ring, out_bits).reshape(shape), info
