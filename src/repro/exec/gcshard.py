"""Sharded garbled-circuit execution over the instance axis.

A batched GC layer garbles one template circuit for ``n_inst``
independent instances (one per neuron/element); given the shared
free-XOR offset is *per garbling*, disjoint instance blocks are fully
independent executions.  Shard ``s`` garbles/evaluates instance block
``[lo_s, hi_s)`` as its own :class:`repro.gc.protocol.GcSessions`
(fresh IKNP session, seed spawned per shard, ``session_tag=s``) over mux
stream ``s``; the evaluator reassembles output bits by concatenating the
shard blocks in shard order, so results are worker-count independent.

Both executors of :class:`repro.exec.triplets.ShardPlan` apply here:
``"thread"`` runs shard bodies on pool threads, ``"process"`` ships the
circuit template + the full input-bit matrix (one shared-memory bundle)
to worker processes that each slice out their own block.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle
from repro.errors import ConfigError
from repro.exec.pool import run_sharded, shard_entropy
from repro.exec.triplets import ShardPlan
from repro.gc.circuit import Circuit
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net.mux import ChannelMux


def _shard_blocks(n_inst: int, plan: ShardPlan) -> list[tuple[int, int, int]]:
    """Non-empty ``(shard, lo, hi)`` instance blocks of the plan."""
    blocks = []
    for s in range(plan.shards):
        lo, hi = plan.span_bounds(n_inst, s)
        if lo < hi:
            blocks.append((s, lo, hi))
    return blocks


# --------------------------------------------------------------------- #
# shard bodies: module-level so the process executor can ship them
# --------------------------------------------------------------------- #
def _garbler_shard(stream, s, lo, hi, circuit, bits, group, ro, ot_seed, rng):
    sessions = GcSessions(
        stream, "garbler", group=group, ro=ro, seed=ot_seed, session_tag=s
    )
    run_garbler(stream, circuit, bits[:, lo:hi], hi - lo, sessions, rng)


def _evaluator_shard(stream, s, lo, hi, circuit, bits, group, ro, ot_seed):
    sessions = GcSessions(
        stream, "evaluator", group=group, ro=ro, seed=ot_seed, session_tag=s
    )
    return run_evaluator(stream, circuit, bits[:, lo:hi], hi - lo, sessions)


def _garbler_shard_entry(chan, payload):
    from repro.exec.shm import ShmBundle

    bundle = ShmBundle.open(payload["arrays"])
    try:
        _garbler_shard(
            chan, payload["shard"], payload["lo"], payload["hi"],
            payload["circuit"], bundle.arrays["bits"], payload["group"],
            payload["ro"], payload["ot_seed"], payload["rng"],
        )
    finally:
        bundle.close()


def _evaluator_shard_entry(chan, payload):
    from repro.exec.shm import ShmBundle

    bundle = ShmBundle.open(payload["arrays"])
    try:
        return _evaluator_shard(
            chan, payload["shard"], payload["lo"], payload["hi"],
            payload["circuit"], bundle.arrays["bits"], payload["group"],
            payload["ro"], payload["ot_seed"],
        )
    finally:
        bundle.close()


def _run_gc_shards(chan, plan, thread_tasks_of, proc_specs_of, bits):
    """Shared scaffolding: mux + executor dispatch + cleanup."""
    use_async = plan.workers > 1 and plan.async_depth > 0
    mux = ChannelMux(chan, async_depth=plan.async_depth if use_async else 0)
    bundle = None
    try:
        if plan.executor == "process":
            from repro.exec.procpool import run_mux_shards
            from repro.exec.shm import ShmBundle

            bundle = ShmBundle.create({"bits": bits})
            parts = run_mux_shards(mux, proc_specs_of(mux, bundle), plan.workers)
        else:
            parts = run_sharded(thread_tasks_of(mux), plan.workers, on_error=mux.abort)
        mux.flush()
    finally:
        mux.close()
        if bundle is not None:
            bundle.close()
            bundle.unlink()
    return parts


def run_garbler_sharded(
    chan,
    circuit: Circuit,
    garbler_bits: np.ndarray,
    n_inst: int,
    plan: ShardPlan,
    seed: int | None = None,
    group: ModpGroup = DEFAULT_GROUP,
    *,
    ro: RandomOracle,
) -> None:
    """Sharded :func:`repro.gc.protocol.run_garbler` (client side)."""
    bits = np.asarray(garbler_bits, dtype=np.uint8)
    if bits.shape != (len(circuit.garbler_inputs), n_inst):
        raise ConfigError(
            f"expected garbler bits of shape "
            f"{(len(circuit.garbler_inputs), n_inst)}, got {bits.shape}"
        )
    entropy = shard_entropy(seed, plan.shards)
    blocks = _shard_blocks(n_inst, plan)

    def thread_tasks_of(mux):
        def make_task(s, lo, hi):
            def task():
                ot_seed, rng = entropy[s]
                _garbler_shard(
                    mux.stream(s), s, lo, hi, circuit, bits, group, ro, ot_seed, rng
                )

            return task

        return [make_task(s, lo, hi) for s, lo, hi in blocks]

    def proc_specs_of(mux, bundle):
        return [
            (s, _garbler_shard_entry, {
                "shard": s, "lo": lo, "hi": hi, "circuit": circuit,
                "group": group, "ro": ro,
                "ot_seed": entropy[s][0], "rng": entropy[s][1],
                "arrays": bundle.handle(),
            })
            for s, lo, hi in blocks
        ]

    _run_gc_shards(chan, plan, thread_tasks_of, proc_specs_of, bits)


def run_evaluator_sharded(
    chan,
    circuit: Circuit,
    evaluator_bits: np.ndarray,
    n_inst: int,
    plan: ShardPlan,
    seed: int | None = None,
    group: ModpGroup = DEFAULT_GROUP,
    *,
    ro: RandomOracle,
) -> np.ndarray:
    """Sharded :func:`repro.gc.protocol.run_evaluator` (server side).

    Returns ``(n_outputs, n_inst)`` cleartext bits, identical for any
    worker count and either executor on either side.
    """
    bits = np.asarray(evaluator_bits, dtype=np.uint8)
    if bits.shape != (len(circuit.evaluator_inputs), n_inst):
        raise ConfigError(
            f"expected evaluator bits of shape "
            f"{(len(circuit.evaluator_inputs), n_inst)}, got {bits.shape}"
        )
    entropy = shard_entropy(seed, plan.shards)
    blocks = _shard_blocks(n_inst, plan)

    def thread_tasks_of(mux):
        def make_task(s, lo, hi):
            def task():
                ot_seed, _ = entropy[s]
                return _evaluator_shard(
                    mux.stream(s), s, lo, hi, circuit, bits, group, ro, ot_seed
                )

            return task

        return [make_task(s, lo, hi) for s, lo, hi in blocks]

    def proc_specs_of(mux, bundle):
        return [
            (s, _evaluator_shard_entry, {
                "shard": s, "lo": lo, "hi": hi, "circuit": circuit,
                "group": group, "ro": ro, "ot_seed": entropy[s][0],
                "arrays": bundle.handle(),
            })
            for s, lo, hi in blocks
        ]

    parts = _run_gc_shards(chan, plan, thread_tasks_of, proc_specs_of, bits)
    return np.concatenate(parts, axis=1)
