"""The default random oracle: fixed-key SipHash-2-4 on a native kernel.

:data:`fast_ro` computes the **same function** as
:data:`repro.crypto.hash_ro.siphash_ro` — every output word is bit-for-bit
``SipHash-2-4(FIXED_KEY, row || domain<<32 | counter)`` — so the two
backends are interchangeable mid-protocol and produce byte-identical
shares and transcripts (pinned by ``tests/test_exec_process.py``).  It
is the library's :data:`~repro.crypto.hash_ro.default_ro`, standing in
for the fixed-key AES-NI hashing of production OT stacks.  What changes
against the numpy reference is the execution profile:

* **Native kernel.**  If a C compiler is available (or a prebuilt
  shared object is supplied via ``ABNN2_RO_KERNEL``), a tiny embedded
  SipHash kernel is compiled once per machine and invoked through
  ``ctypes``.  It absorbs each row prefix once and runs only the
  counter/finalization stage per output word, and foreign calls release
  the GIL for their entire duration, which is what lets the two party
  threads and the *thread* executors overlap hashing for real.
* **Row chunking.**  Requests are processed in bounded row blocks, so a
  huge ``pads()`` call becomes a sequence of medium-sized kernel calls
  between which the GIL can rotate to other threads, and scratch
  memory stays flat.
* **Fallback.**  When compilation fails or ``ABNN2_RO_NATIVE=0`` is set,
  each block goes through the numpy reference
  :func:`repro.crypto.siphash.prf_expand` and nothing else changes.

The backend registry (:func:`repro.crypto.hash_ro.get_ro`) exposes this
module as ``"fast"`` (registry name ``siphash24-fast``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading

import numpy as np

from repro.crypto.hash_ro import RandomOracle
from repro.crypto.siphash import FIXED_KEY, prf_expand

_U64 = np.uint64

#: Soft cap on (rows * out_words) per internal block: bounds scratch to a
#: few MiB and keeps individual GIL-holding numpy ops short.
_ROW_BLOCK_WORDS = 1 << 19


# --------------------------------------------------------------------- #
# native kernel
# --------------------------------------------------------------------- #
_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

#define ROTL(x, b) (uint64_t)(((x) << (b)) | ((x) >> (64 - (b))))
#define SIPROUND do { \
    v0 += v1; v1 = ROTL(v1, 13); v1 ^= v0; v0 = ROTL(v0, 32); \
    v2 += v3; v3 = ROTL(v3, 16); v3 ^= v2; \
    v0 += v3; v3 = ROTL(v3, 21); v3 ^= v0; \
    v2 += v1; v1 = ROTL(v1, 17); v1 ^= v2; v2 = ROTL(v2, 32); \
  } while (0)

void siphash24_expand(const uint64_t *rows, size_t n_rows, size_t words,
                      uint64_t *out, size_t out_words,
                      uint64_t domain, uint64_t k0, uint64_t k1) {
    uint64_t final = (uint64_t)((8 * (words + 1)) % 256) << 56;
    for (size_t r = 0; r < n_rows; r++) {
        uint64_t p0 = 0x736F6D6570736575ULL ^ k0;
        uint64_t p1 = 0x646F72616E646F6DULL ^ k1;
        uint64_t p2 = 0x6C7967656E657261ULL ^ k0;
        uint64_t p3 = 0x7465646279746573ULL ^ k1;
        const uint64_t *row = rows + r * words;
        for (size_t i = 0; i < words; i++) {
            uint64_t m = row[i];
            uint64_t v0 = p0, v1 = p1, v2 = p2, v3 = p3;
            v3 ^= m; SIPROUND; SIPROUND; v0 ^= m;
            p0 = v0; p1 = v1; p2 = v2; p3 = v3;
        }
        for (size_t j = 0; j < out_words; j++) {
            uint64_t c = (uint64_t)j | (domain << 32);
            uint64_t v0 = p0, v1 = p1, v2 = p2, v3 = p3;
            v3 ^= c; SIPROUND; SIPROUND; v0 ^= c;
            v3 ^= final; SIPROUND; SIPROUND; v0 ^= final;
            v2 ^= 0xFF;
            SIPROUND; SIPROUND; SIPROUND; SIPROUND;
            out[r * out_words + j] = v0 ^ v1 ^ v2 ^ v3;
        }
    }
}
"""

_kernel_lock = threading.Lock()
_kernel: "ctypes.CDLL | None | bool" = None  # None = not probed, False = unusable


def _compile_kernel() -> str | None:
    """Build the embedded kernel into a cached .so; returns its path."""
    tag = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(tempfile.gettempdir(), f"abnn2-sipkern-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    src_path = so_path[:-3] + ".c"
    tmp_so = f"{so_path}.{os.getpid()}.tmp"
    try:
        with open(src_path, "w") as fh:
            fh.write(_KERNEL_SOURCE)
        for cc in ("cc", "gcc", "clang"):
            try:
                proc = subprocess.run(
                    [cc, "-O3", "-shared", "-fPIC", "-o", tmp_so, src_path],
                    capture_output=True, timeout=60.0,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)  # atomic vs concurrent builders
                return so_path
    except OSError:
        pass
    finally:
        if os.path.exists(tmp_so):
            try:
                os.remove(tmp_so)
            except OSError:
                pass
    return None


def _load_kernel() -> "ctypes.CDLL | bool":
    """Probe for the native kernel once per process (thread-safe)."""
    global _kernel
    with _kernel_lock:
        if _kernel is not None:
            return _kernel
        if os.environ.get("ABNN2_RO_NATIVE", "1") == "0":
            _kernel = False
            return _kernel
        path = os.environ.get("ABNN2_RO_KERNEL") or _compile_kernel()
        lib: "ctypes.CDLL | bool" = False
        if path:
            try:
                lib = ctypes.CDLL(path)
                lib.siphash24_expand.argtypes = [
                    ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                    ctypes.c_void_p, ctypes.c_size_t,
                    ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
                ]
                lib.siphash24_expand.restype = None
            except OSError:
                lib = False
        _kernel = lib
        return _kernel


def kernel_active() -> bool:
    """Whether the compiled GIL-releasing kernel is in use."""
    return bool(_load_kernel())


# --------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------- #
def prf_expand_fast(
    message_words: np.ndarray, out_words: int, domain: int = 0
) -> np.ndarray:
    """Drop-in :func:`repro.crypto.siphash.prf_expand` (fixed key only).

    Work is processed in bounded row blocks; each block is one native
    kernel call (GIL released) or one :func:`prf_expand` call, whose
    ``(rows, out_words, words + 1)`` message tensor sizes its block.
    """
    msg = np.atleast_2d(np.asarray(message_words, dtype=_U64))
    lead = msg.shape[:-1]
    words = msg.shape[-1]
    flat = np.ascontiguousarray(msg.reshape(-1, words))
    n_rows = flat.shape[0]
    out = np.empty((n_rows, out_words), dtype=_U64)
    lib = _load_kernel()
    row_words = out_words if lib else out_words * (words + 1)
    block = max(1, _ROW_BLOCK_WORDS // max(1, row_words))
    for lo in range(0, n_rows, block):
        hi = min(n_rows, lo + block)
        if lib:
            rows = flat[lo:hi]
            lib.siphash24_expand(
                rows.ctypes.data, hi - lo, words,
                out[lo:hi].ctypes.data, out_words,
                domain, FIXED_KEY[0], FIXED_KEY[1],
            )
        else:
            out[lo:hi] = prf_expand(flat[lo:hi], out_words, domain=domain)
    return out.reshape(lead + (out_words,))


#: Same oracle function as :data:`repro.crypto.hash_ro.siphash_ro`, fast
#: execution profile (chunked, GIL-releasing kernel, numpy fallback).
fast_ro = RandomOracle("siphash24-fast", prf_expand_fast)
