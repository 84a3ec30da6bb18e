"""Seeded, named random streams.

Every source of randomness in the package flows through ``named_rng``: a
counter-based generator (Philox) keyed by the user seed plus a stable hash of
a stream label.  Distinct labels give independent streams from one seed, and
results do not depend on call order, so serial and parallel runs agree.

numpy is imported on the first call, not with the module, so the commands
that draw no random numbers never load it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1


def stream_key(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def named_rng(seed: int, label: str) -> np.random.Generator:
    """A Philox generator for the given (seed, stream label) pair."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=[int(seed) & _MASK64, stream_key(label)])
    return np.random.Generator(np.random.Philox(ss))
