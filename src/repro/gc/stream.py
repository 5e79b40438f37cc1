"""Chunked gate-by-gate GC streaming with bounded table memory.

The one-shot path (:func:`repro.gc.protocol.run_garbler`) materializes
the full ``(n_and, n_inst, 2, 2)`` table tensor and ships it as one
message — O(circuit) peak memory on both sides and nothing on the wire
until the whole layer is garbled.  This module garbles, transfers, and
evaluates in **bounded chunks** of AND gates instead, so

* peak garbled-table residency is ``O(chunk)`` on both parties
  (``chunk * n_inst * 2 * 2 * 8`` bytes per materialized block), and
* the first ciphertexts hit the wire after ``chunk`` AND gates of work,
  which is what lets the layer-graph pipeline overlap layer ``k+1``'s
  table transfer with layer ``k``'s online round.

Wire format, one stream per execution (garbler → evaluator unless
noted):

1. **header** ``(n_chunks, chunk, own_labels)`` — chunk geometry plus
   the garbler's active input labels;
2. **chunks** ``(chunk_idx, tables_block)`` — ``tables_block`` is the
   ``(k, n_inst, 2, LABEL_WORDS)`` half-gate ciphertexts of the next
   ``k`` AND gates in circuit order (``k == chunk`` except possibly the
   last block);
3. **trailer** ``decode_bits`` — the output wires' permute bits;
4. evaluator → garbler: one ``int`` ack per chunk, sent after the chunk
   has been fully *evaluated* (not merely received).

Flow control: the garbler keeps at most ``window`` unacked chunks in
flight, then blocks on the next ack — so an arbitrarily slow evaluator
bounds the garbler's send-ahead and the evaluator's inbox backlog to
``window`` blocks, preserving the memory bound end to end.  ``chunk``
is a *protocol* parameter (both parties frame the same gates per
block); ``window`` is a garbler-local knob.

The label OT for the evaluator's input bits is **not** part of the
stream: it depends on online data, so the caller runs it on the
sequential path (see :mod:`repro.core.pipeline`).  ``on_pairs`` hands
the evaluator-input label pairs to the caller *before* the gate loop
starts, which is what allows the OT to proceed concurrently with the
table stream.

Any transport failure mid-stream (drop, truncation, corruption, stall —
all surfacing as :class:`~repro.errors.ChannelError`) is re-raised as
:class:`~repro.errors.ProtocolError` so both parties report a streamed
execution that died the same way a malformed message would.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.crypto.hash_ro import RandomOracle
from repro.errors import ChannelError, ConfigError, ProtocolError
from repro.gc.circuit import Circuit, GateOp
from repro.gc.evaluate import _evaluate_and, decode_outputs
from repro.gc.garble import (
    LABEL_WORDS,
    _check_poison,
    _garble_and,
    _label_buffer,
    _LabelHasher,
    _sample_input_labels,
)

_U64 = np.uint64

#: Default garbler flow-control window (unacked chunks in flight).
DEFAULT_WINDOW = 8


def resolve_chunk(circuit: Circuit, chunk: int | None) -> tuple[int, int]:
    """Normalize a chunk knob to ``(chunk, n_chunks)`` for ``circuit``.

    ``None`` (or anything >= the AND count) means one block carrying the
    whole circuit — the streamed framing with no memory bound.
    """
    n_and = circuit.and_count
    size = n_and if chunk is None else int(chunk)
    if size < 1:
        raise ConfigError(f"gc stream chunk must be >= 1, got {chunk}")
    size = min(size, max(n_and, 1))
    n_chunks = -(-n_and // size) if n_and else 0
    return size, n_chunks


def table_block_bytes(chunk: int, n_inst: int) -> int:
    """Bytes of one full garbled-table block (the residency unit)."""
    return chunk * n_inst * 2 * LABEL_WORDS * 8


def garble_stream(
    chan: Any,
    circuit: Circuit,
    garbler_bits: np.ndarray,
    n_inst: int,
    rng: np.random.Generator,
    *,
    chunk: int | None = None,
    window: int = DEFAULT_WINDOW,
    ro: RandomOracle,
    on_pairs: Callable[[np.ndarray], None] | None = None,
) -> dict[str, int]:
    """Garble ``circuit`` chunk by chunk, streaming tables over ``chan``.

    ``garbler_bits`` has shape ``(n_garbler_inputs, n_inst)``.  Returns
    an info dict (``chunks``, ``chunk``, ``window``,
    ``peak_unacked_chunks``, ``peak_table_bytes``).
    """
    if window < 1:
        raise ConfigError(f"gc stream window must be >= 1, got {window}")
    bits = np.asarray(garbler_bits, dtype=np.uint8)
    if bits.shape != (len(circuit.garbler_inputs), n_inst):
        raise ProtocolError(
            f"expected garbler bits of shape "
            f"{(len(circuit.garbler_inputs), n_inst)}, got {bits.shape}"
        )
    size, n_chunks = resolve_chunk(circuit, chunk)

    label0, offset = _sample_input_labels(circuit, n_inst, rng)
    own_labels = label0[circuit.garbler_inputs] ^ (
        bits[..., None].astype(_U64) * offset
    )
    if circuit.evaluator_inputs:
        ebase = label0[circuit.evaluator_inputs].reshape(-1, LABEL_WORDS)
        pairs = np.empty((ebase.shape[0], 2, LABEL_WORDS), dtype=_U64)
        pairs[:, 0] = ebase
        pairs[:, 1] = ebase ^ offset
    else:
        pairs = np.zeros((0, 2, LABEL_WORDS), dtype=_U64)
    if on_pairs is not None:
        # Published before any gate is garbled: the evaluator-input label
        # pairs depend only on the input sampling, so the caller can run
        # the label OT while the table stream is still being produced.
        on_pairs(pairs)

    hasher = _LabelHasher(n_inst, ro)
    block = np.empty((size, n_inst, 2, LABEL_WORDS), dtype=_U64)
    filled = 0
    chunk_idx = 0
    acked = 0
    peak_unacked = 0

    def _recv_ack(expected: int) -> None:
        ack = chan.recv()
        if not isinstance(ack, int) or ack != expected:
            raise ProtocolError(f"gc stream: expected ack for chunk #{expected}, got {ack!r}")

    try:
        chan.send((n_chunks, size, own_labels))
        for g_idx, gate in enumerate(circuit.gates):
            if gate.op == GateOp.XOR:
                label0[gate.out] = label0[gate.a] ^ label0[gate.b]
            elif gate.op == GateOp.INV:
                label0[gate.out] = label0[gate.a] ^ offset
            else:
                t_g, t_e = _garble_and(label0, offset, gate, g_idx, hasher)
                block[filled, :, 0] = t_g
                block[filled, :, 1] = t_e
                filled += 1
                if filled == size:
                    chan.send((chunk_idx, block[:filled].copy()))
                    chunk_idx += 1
                    filled = 0
                    peak_unacked = max(peak_unacked, chunk_idx - acked)
                    while chunk_idx - acked > window:
                        _recv_ack(acked)
                        acked += 1
        if filled:
            chan.send((chunk_idx, block[:filled].copy()))
            chunk_idx += 1
            peak_unacked = max(peak_unacked, chunk_idx - acked)
        outs = label0[circuit.outputs]
        _check_poison(outs, "output")
        chan.send((outs[..., 0] & _U64(1)).astype(np.uint8))
        while acked < n_chunks:
            _recv_ack(acked)
            acked += 1
    except ChannelError as exc:
        raise ProtocolError(f"gc table stream failed on the garbler side: {exc}") from exc
    return {
        "chunks": n_chunks,
        "chunk": size,
        "window": window,
        "peak_unacked_chunks": peak_unacked,
        "peak_table_bytes": table_block_bytes(size, n_inst),
    }


def evaluate_stream(
    chan: Any,
    circuit: Circuit,
    my_labels: np.ndarray,
    n_inst: int,
    *,
    ro: RandomOracle,
) -> tuple[np.ndarray, dict[str, int]]:
    """Evaluate one streamed execution; returns ``(out_bits, info)``.

    ``my_labels`` are the evaluator's active input labels, shaped
    ``(n_evaluator_inputs, n_inst, LABEL_WORDS)`` — obtained by the
    caller via the label OT on the sequential path.  ``info`` carries
    ``chunks``, ``chunk``, and ``peak_table_bytes`` (the largest table
    block this side ever held — the measured residency bound).
    """
    n_and = circuit.and_count
    my = np.asarray(my_labels, dtype=_U64)
    if my.shape != (len(circuit.evaluator_inputs), n_inst, LABEL_WORDS):
        raise ProtocolError(
            f"expected evaluator labels of shape "
            f"{(len(circuit.evaluator_inputs), n_inst, LABEL_WORDS)}, got {my.shape}"
        )
    try:
        header = chan.recv()
        if (
            not isinstance(header, tuple)
            or len(header) != 3
            or not isinstance(header[0], int)
            or not isinstance(header[1], int)
            or not isinstance(header[2], np.ndarray)
        ):
            raise ProtocolError("malformed gc stream header")
        n_chunks, size, garbler_labels = header
        if size < 1 or n_chunks != (-(-n_and // size) if n_and else 0):
            raise ProtocolError(
                f"gc stream header disagrees with the circuit: "
                f"{n_chunks} chunk(s) of {size} for {n_and} AND gates"
            )
        if garbler_labels.shape != (len(circuit.garbler_inputs), n_inst, LABEL_WORDS):
            raise ProtocolError(
                f"expected garbler labels of shape "
                f"{(len(circuit.garbler_inputs), n_inst, LABEL_WORDS)}, "
                f"got {garbler_labels.shape}"
            )

        active = _label_buffer((circuit.n_wires, n_inst, LABEL_WORDS))
        active[circuit.garbler_inputs] = garbler_labels.astype(_U64, copy=False)
        active[circuit.evaluator_inputs] = my
        hasher = _LabelHasher(n_inst, ro)

        block: np.ndarray | None = None
        used = 0
        next_chunk = 0
        peak = 0
        for g_idx, gate in enumerate(circuit.gates):
            if gate.op == GateOp.XOR:
                active[gate.out] = active[gate.a] ^ active[gate.b]
            elif gate.op == GateOp.INV:
                active[gate.out] = active[gate.a]  # garbler flipped the decode side
            else:
                if block is None or used == block.shape[0]:
                    if block is not None:
                        chan.send(next_chunk - 1)  # this chunk is fully evaluated
                        block = None
                    frame = chan.recv()
                    if (
                        not isinstance(frame, tuple)
                        or len(frame) != 2
                        or not isinstance(frame[0], int)
                        or not isinstance(frame[1], np.ndarray)
                    ):
                        raise ProtocolError("malformed gc stream chunk frame")
                    idx, arr = frame
                    if idx != next_chunk:
                        raise ProtocolError(
                            f"gc stream chunk out of order: expected #{next_chunk}, got #{idx}"
                        )
                    expect_k = size if next_chunk < n_chunks - 1 else n_and - size * (n_chunks - 1)
                    if arr.shape != (expect_k, n_inst, 2, LABEL_WORDS) or arr.dtype != _U64:
                        raise ProtocolError(
                            f"gc stream chunk #{idx}: expected "
                            f"{(expect_k, n_inst, 2, LABEL_WORDS)} u64 tables, "
                            f"got {arr.dtype} {arr.shape}"
                        )
                    block = arr
                    used = 0
                    next_chunk += 1
                    peak = max(peak, block.nbytes)
                _evaluate_and(active, gate, g_idx, hasher, block[used, :, 0], block[used, :, 1])
                used += 1
        if block is not None:
            chan.send(next_chunk - 1)
        if next_chunk != n_chunks:
            raise ProtocolError(
                f"gc stream ended after {next_chunk} of {n_chunks} chunks"
            )

        decode = chan.recv()
        if not isinstance(decode, np.ndarray) or decode.shape != (
            len(circuit.outputs),
            n_inst,
        ):
            raise ProtocolError("malformed gc stream decode-bit trailer")
        out = active[circuit.outputs].copy()
        _check_poison(out, "output")
        out_bits = decode_outputs(out, decode.astype(np.uint8, copy=False))
    except ChannelError as exc:
        raise ProtocolError(f"gc table stream failed on the evaluator side: {exc}") from exc
    return out_bits, {"chunks": n_chunks, "chunk": size, "peak_table_bytes": peak}
