"""Client-side sharding: hash functions and consistent-hash rings.

Three sharding schemes appear in the paper:

* **Jedis** (`ShardedJedisPool`) — a consistent-hash ring with 160 virtual
  nodes per shard keyed by MurmurHash64A (or MD5).  Section 5.1, footnote
  7: both hashes produced an *unbalanced* data distribution, the root
  cause of Redis's poor scale-out and the 12-node out-of-memory incident.
* **JDBC/RDBMS client** — "did a much better sharding than the Jedis
  library" (Section 5.1); modelled by a high-virtual-node ring that is
  nearly perfectly balanced.
* **Cassandra tokens** — the paper assigned "an optimal set of tokens"
  before loading, i.e. equal slices of the hash space
  (:class:`TokenRing`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.hashing import md5_long, murmur64a

__all__ = [
    "murmur64a",
    "md5_long",
    "ConsistentHashRing",
    "TokenRing",
    "jedis_ring",
    "jdbc_ring",
]

_MASK64 = (1 << 64) - 1


class ConsistentHashRing:
    """A consistent-hash ring of shards with virtual nodes."""

    def __init__(self, shard_names: Sequence[str], vnodes_per_shard: int,
                 hash_fn=murmur64a):
        if not shard_names:
            raise ValueError("need at least one shard")
        self.shard_names = list(shard_names)
        self.hash_fn = hash_fn
        points: list[tuple[int, str]] = []
        for name in self.shard_names:
            for v in range(vnodes_per_shard):
                point = hash_fn(f"SHARD-{name}-NODE-{v}".encode("utf-8"))
                points.append((point, name))
        points.sort()
        self._hashes = [p for p, __ in points]
        self._owners = [o for __, o in points]

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (first ring point clockwise)."""
        hashes = self._hashes
        index = bisect_right(hashes, self.hash_fn(key.encode()))
        return self._owners[index if index < len(hashes) else 0]

    def load_shares(self, sample_keys: Sequence[str]) -> dict[str, float]:
        """Fraction of ``sample_keys`` landing on each shard."""
        counts = {name: 0 for name in self.shard_names}
        for key in sample_keys:
            counts[self.shard_for(key)] += 1
        total = max(1, len(sample_keys))
        return {name: count / total for name, count in counts.items()}

    def imbalance(self, sample_keys: Sequence[str]) -> float:
        """Hottest shard's share relative to a perfectly fair share."""
        shares = self.load_shares(sample_keys)
        fair = 1.0 / len(self.shard_names)
        return max(shares.values()) / fair


def jedis_ring(shard_names: Sequence[str], algorithm: str = "murmur"
               ) -> ConsistentHashRing:
    """The Jedis ``ShardedJedisPool`` ring: 160 virtual nodes per shard.

    ``algorithm`` selects Jedis's two supported hashes — the paper tried
    "both supported hashing algorithms in Jedis, MurMurHash and MD5, with
    the same result" (footnote 7).
    """
    if algorithm == "murmur":
        return ConsistentHashRing(shard_names, 160, murmur64a)
    if algorithm == "md5":
        return ConsistentHashRing(shard_names, 160, md5_long)
    raise ValueError(f"unknown jedis hash algorithm: {algorithm!r}")


def jdbc_ring(shard_names: Sequence[str]) -> ConsistentHashRing:
    """The RDBMS YCSB client's ring, which balances much better.

    Modelled as a consistent-hash ring with 25x the virtual nodes, which
    drives the hottest-shard excess down to sampling noise.
    """
    return ConsistentHashRing(shard_names, 4096, murmur64a)


class TokenRing:
    """Cassandra's token ring with explicitly assigned (optimal) tokens.

    The hash space is split into equal ranges, one per node — what the
    paper did by hand: "we assigned an optimal set of tokens to the nodes
    after the installation and before the load" (Section 6).
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        step = (_MASK64 + 1) // n_nodes
        self.tokens = [i * step for i in range(n_nodes)]

    def owner_of(self, key: str) -> int:
        """Index of the node owning ``key``."""
        index = bisect_right(self.tokens, murmur64a(key.encode())) - 1
        return index if index > 0 else 0

    def replicas_of(self, key: str, replication_factor: int = 1) -> list[int]:
        """Owner plus the following ``replication_factor - 1`` ring walkers."""
        owner = self.owner_of(key)
        return [(owner + i) % self.n_nodes
                for i in range(min(replication_factor, self.n_nodes))]
