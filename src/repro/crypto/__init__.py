"""Cryptographic substrates built from scratch for the ABNN2 reproduction.

Layers, bottom to top:

* :mod:`repro.crypto.hash_ro` / :mod:`repro.crypto.fastro` /
  :mod:`repro.crypto.siphash` — random-oracle backends (fixed-key SipHash
  on a native kernel by default; numpy SipHash and SHA-256 references).
* :mod:`repro.crypto.prg` — seed expansion.
* :mod:`repro.crypto.group` / :mod:`repro.crypto.baseot` — public-key base
  oblivious transfers (Naor–Pinkas style over a MODP group).
* :mod:`repro.crypto.iknp` — IKNP 1-out-of-2 OT extension, plus correlated
  and random OT variants.
* :mod:`repro.crypto.codes` / :mod:`repro.crypto.kk13` — Kolesnikov–Kumaresan
  1-out-of-N OT extension over Walsh–Hadamard codes (the paper's workhorse).
* :mod:`repro.crypto.paillier` — additively homomorphic encryption for the
  MiniONN baseline.
"""

from repro.crypto.hash_ro import RandomOracle, sha256_ro, siphash_ro

__all__ = ["RandomOracle", "sha256_ro", "siphash_ro"]
