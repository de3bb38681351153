"""Deterministic, parallel-safe random streams.

Every stochastic routine in the package takes an explicit generator (or a
stream factory).  Each stream is an SFC64 generator keyed by hashing a seed
together with string/integer labels.  The replica ensembles of ``forward``
and ``dual`` put a replica chunk index among the labels, so there replica r
always sees the same numbers regardless of how many other replicas run, in
which order, or on how many workers.  The equilibrium sampler of ``renorm``
and ``sample_interaction_chain`` draw all replicas from one stream per call
or per level, so their first replicas change with the replica count.  No
caller needs a counter or a jump, so the small-state SFC64 suffices, and it
draws normals and Beta variates faster than counter-based Philox.  Draws are
reproducible for a given hierfw and numpy version: numpy fixes the seeding
of SFC64 and its Beta and normal algorithms.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Replicas are grouped in fixed-width chunks so that vectorised simulators can
# draw (steps, CHUNK) noise blocks while replica identity stays stable when
# the total replica count changes.
CHUNK = 1024


def stream(seed: int, *labels) -> np.random.Generator:
    """SFC64 generator keyed by ``hash(seed, *labels)``."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"\x1f")
        h.update(str(lab).encode())
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.SFC64(key))


def replica_chunks(n_replicas: int):
    """Yield (chunk_index, width) pairs covering ``n_replicas`` replicas.

    All chunks are drawn CHUNK wide internally; the final chunk uses only its
    first ``width`` columns, so replica k always lives in chunk k // CHUNK,
    column k % CHUNK.
    """
    n_full, rest = divmod(n_replicas, CHUNK)
    for i in range(n_full):
        yield i, CHUNK
    if rest:
        yield n_full, rest
