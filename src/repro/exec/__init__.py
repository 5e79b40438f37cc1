"""Sharded, pipelined execution of the offline phase.

The offline workload — triplet OT batches — is embarrassingly parallel
across OT instances.  This package splits it into **shards**, each an
independent protocol session over its own stream of a
:class:`repro.net.mux.ChannelMux`, and runs the shards on a bounded
worker pool so one shard's PRG/hash compute overlaps another shard's
bytes on the wire.

Two executors share that plan (:attr:`ShardPlan.executor`):

* ``"thread"`` — shard bodies on pool threads in this process
  (:mod:`repro.exec.pool`); cheap, but numpy glue and hashing from
  different shards serialize on the GIL.
* ``"process"`` — shard bodies in worker processes
  (:mod:`repro.exec.procpool`), inputs shipped through shared memory
  (:mod:`repro.exec.shm`), channel traffic proxied over the same mux
  streams; full multi-core crypto compute.

The shard count is a *public protocol parameter* (both parties must
agree on the :class:`ShardPlan`); the worker count and executor kind are
local execution knobs.  Per-shard randomness is spawned from the
caller's seed via ``numpy.random.SeedSequence``, so results are
byte-identical for any worker count **and either executor** — pinned by
``tests/test_exec_parallel.py`` and ``tests/test_exec_process.py``.
"""

from repro.exec.pool import run_sharded, shard_entropy
from repro.exec.procpool import PipeChannel, mp_context, run_in_process, run_mux_shards
from repro.exec.shm import ShmBundle, shm_enabled
from repro.exec.triplets import (
    EXECUTORS,
    ShardPlan,
    parallel_triplets_client,
    parallel_triplets_server,
)

__all__ = [
    "EXECUTORS",
    "PipeChannel",
    "ShardPlan",
    "ShmBundle",
    "mp_context",
    "parallel_triplets_client",
    "parallel_triplets_server",
    "run_in_process",
    "run_mux_shards",
    "run_sharded",
    "shard_entropy",
    "shm_enabled",
]
