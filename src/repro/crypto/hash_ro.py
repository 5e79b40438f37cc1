"""Random-oracle backends shared by the OT and GC protocols.

Three implementations of one interface:

* :data:`sha256_ro` — per-row SHA-256; the conservative reference used
  for base OTs and in cross-checking tests, **not** mask-compatible with
  the other two.
* :data:`siphash_ro` — numpy-vectorized fixed-key SipHash-2-4
  (:mod:`repro.crypto.siphash`); the reference that tests and the
  parallel-offline benchmark's baseline compare the kernel against.
* :data:`~repro.crypto.fastro.fast_ro` — the same SipHash function on
  a GIL-releasing native kernel with a numpy fallback
  (:mod:`repro.crypto.fastro`); the :data:`default_ro`, standing in for
  the fixed-key AES-NI hashing used by production OT stacks.

All expose ``mask(rows, out_words, domain)``: hash each u64 row of
``rows`` into ``out_words`` uint64 output words, with ``domain`` giving
protocol-level separation (e.g. OT instance indices live in the row
itself; the domain separates sub-protocols).
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.crypto import siphash
from repro.errors import CryptoError

_U64 = np.uint64


class RandomOracle:
    """A deterministic hash-to-words oracle with a named backend."""

    def __init__(self, name: str, mask_fn: Callable[[np.ndarray, int, int], np.ndarray]) -> None:
        self.name = name
        self._mask_fn = mask_fn

    def mask(self, rows: np.ndarray, out_words: int, domain: int = 0) -> np.ndarray:
        """Hash each row of u64 words to ``out_words`` u64 words.

        ``rows`` has shape ``(..., words)``; the result has shape
        ``(..., out_words)``.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=_U64))
        if out_words < 1:
            raise CryptoError(f"out_words must be >= 1, got {out_words}")
        return self._mask_fn(rows, out_words, domain)

    def hash_bytes(self, data: bytes, out_len: int, domain: int = 0) -> bytes:
        """Byte-level oracle (counter-mode SHA-256 regardless of backend).

        Used by the base-OT layer where throughput is irrelevant and the
        full collision resistance of SHA-256 is the right default.
        """
        out = bytearray()
        counter = 0
        while len(out) < out_len:
            h = hashlib.sha256()
            h.update(domain.to_bytes(8, "little"))
            h.update(counter.to_bytes(8, "little"))
            h.update(data)
            out.extend(h.digest())
            counter += 1
        return bytes(out[:out_len])

    def __repr__(self) -> str:
        return f"RandomOracle({self.name})"


def _sha256_mask(rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
    lead = rows.shape[:-1]
    flat = np.ascontiguousarray(rows.reshape(-1, rows.shape[-1]))
    dom = domain.to_bytes(8, "little")
    # One digest yields four output words; precompute the counter prefixes
    # and emit each row's counter-mode stream with one-shot sha256 calls
    # (identical bytes to the incremental-update loop this replaces).
    n_hashes = (out_words + 3) // 4
    prefixes = [dom + c.to_bytes(8, "little") for c in range(n_hashes)]
    sha256 = hashlib.sha256
    row_bytes = flat.tobytes()
    stride = flat.shape[-1] * 8
    stream = b"".join(
        sha256(prefix + row_bytes[off : off + stride]).digest()
        for off in range(0, len(row_bytes), stride)
        for prefix in prefixes
    )
    out = np.frombuffer(stream, dtype=_U64).reshape(flat.shape[0], n_hashes * 4)
    return np.ascontiguousarray(out[:, :out_words]).reshape(lead + (out_words,))


def _siphash_mask(rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
    return siphash.prf_expand(rows, out_words, domain=domain)


#: Reference backend: counter-mode SHA-256 per row.
sha256_ro = RandomOracle("sha256", _sha256_mask)

#: Numpy reference for the SipHash oracle: vectorized fixed-key SipHash-2-4.
siphash_ro = RandomOracle("siphash24", _siphash_mask)

# fastro builds its oracle from RandomOracle above, so it is imported last.
from repro.crypto.fastro import fast_ro  # noqa: E402

#: The backend protocol code uses unless told otherwise.
default_ro = fast_ro


def get_ro(name: str) -> RandomOracle:
    """Resolve a backend by registry name.

    ``"fast"`` (the default) is the kernel-backed SipHash in
    :mod:`repro.crypto.fastro` — the *same function* as ``"siphash"``
    (byte-identical masks, hence byte-identical shares and transcripts),
    so the two may even differ between the parties; ``"sha256"`` is the
    conservative reference and is **not** mask-compatible with them.
    """
    if name in ("sha256", "sha-256"):
        return sha256_ro
    if name in ("siphash", "siphash24"):
        return siphash_ro
    if name in ("fast", "siphash24-fast"):
        return fast_ro
    if name == "default":
        return default_ro
    raise CryptoError(
        f"unknown random-oracle backend {name!r} "
        "(expected sha256 | siphash | fast | default)"
    )
