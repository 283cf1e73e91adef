"""A minimal HDFS substrate for the HBase model.

HBase persists everything (write-ahead logs, HFiles) through HDFS
(Section 4.1).  The paper co-located DataNodes with region servers and ran
the NameNode on a dedicated master machine; replication was not used for
the measured experiments.

The substrate keeps the pieces HBase's performance actually depends on:

* a NameNode holding file -> block metadata (block placement prefers the
  writer's local DataNode, as HDFS does);
* DataNodes that serve block reads and pipeline writes through their
  node's disk and page cache;
* per-chunk checksum overhead on the read path (HDFS CRC32 per 512 bytes)
  — in 0.20-era HDFS even a local read crosses a loopback socket to the
  DataNode, since short-circuit reads did not exist yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cluster import Node
from repro.sim.faults import NodeDownError
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["HdfsBlock", "HdfsFile", "NameNode", "Hdfs"]

DEFAULT_BLOCK_SIZE = 64 * 2**20


@dataclass
class HdfsBlock:
    """One block: its DataNode (usually the writer's local one) plus fill
    level.  ``dfs.replication`` is 1, as in the paper: one copy."""

    block_id: int
    datanode: int
    size: int = 0


@dataclass
class HdfsFile:
    """A named, append-only sequence of blocks."""

    path: str
    blocks: list[HdfsBlock] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Total bytes across all blocks."""
        return sum(b.size for b in self.blocks)


class NameNode:
    """File -> block metadata; placement prefers the writer's DataNode."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        self.block_size = block_size
        self.files: dict[str, HdfsFile] = {}
        self._next_block_id = 0

    def create(self, path: str) -> HdfsFile:
        """Create an empty file; replaces any existing file at ``path``."""
        file = HdfsFile(path)
        self.files[path] = file
        return file

    def allocate_block(self, path: str, preferred_datanode: int
                       ) -> HdfsBlock:
        """Add a block to ``path`` on the preferred (local) DataNode."""
        self._next_block_id += 1
        block = HdfsBlock(self._next_block_id, preferred_datanode)
        self.files[path].blocks.append(block)
        return block


class Hdfs:
    """The distributed filesystem: NameNode + one DataNode per node."""

    #: DataNode CPU to serve one block request (socket + protocol).
    DATANODE_REQUEST_CPU = 90e-6
    #: CPU per 4 KiB chunk for CRC32 checksum verification.
    CHECKSUM_CPU_PER_CHUNK = 2e-6

    def __init__(self, sim: Simulator, network: Network,
                 datanodes: list[Node], block_size: int = DEFAULT_BLOCK_SIZE):
        self.sim = sim
        self.network = network
        self.datanodes = datanodes
        self.namenode = NameNode(block_size)

    def create(self, path: str) -> HdfsFile:
        """Create (or truncate) ``path``."""
        return self.namenode.create(path)

    def datanode_of(self, node: Node) -> int:
        """Index of the DataNode co-located with ``node``."""
        for i, dn in enumerate(self.datanodes):
            if dn is node:
                return i
        raise ValueError(f"no DataNode on {node.name}")

    # -- IO paths (simulation processes) --------------------------------------

    def append(self, path: str, nbytes: int, writer: Node,
               sync: bool = False):
        """Process: append ``nbytes`` to ``path`` from ``writer``.

        The pipeline writes to the local DataNode; ``sync`` forces the
        bytes to the disk platter (hflush), otherwise they sit in the
        DataNode's buffers and drain asynchronously.
        """
        local = self.datanode_of(writer)
        file = self.namenode.files[path]
        if not file.blocks or (
            file.blocks[-1].size + nbytes > self.namenode.block_size
        ) or not self.datanodes[file.blocks[-1].datanode].up:
            # A new block also starts when the current block's primary
            # DataNode died: the pipeline re-forms on live nodes.
            self.namenode.allocate_block(path, local)
        block = file.blocks[-1]
        block.size += nbytes
        datanode = self.datanodes[block.datanode]
        yield from datanode.cpu(self.DATANODE_REQUEST_CPU)
        yield from datanode.disk.write(nbytes, sequential=True, sync=sync)

    def read(self, path: str, block_hints: tuple, nbytes: int, reader: Node):
        """Process: read ``nbytes`` of ``path`` once per hint, in turn.

        Each hint is one block probe, a request/response exchange with
        the DataNode that holds the file's *last* block, whatever the
        hint: the hint is only the page-cache key the probe touches.
        The DataNode is picked as each probe starts (a missing file or a
        down DataNode raises there, after the probes before it ran).  No
        short-circuit reads in 0.20: even a local probe crosses a
        loopback socket to the co-located DataNode (``reader is
        datanode``: the transfers' same-node branch).
        """
        network = self.network
        files = self.namenode.files
        cpu_s = (self.DATANODE_REQUEST_CPU
                 + max(1, nbytes // 4096) * self.CHECKSUM_CPU_PER_CHUNK)
        for hint in block_hints:
            file = files.get(path)
            if file is None:
                raise FileNotFoundError(path)
            datanode = reader
            if file.blocks:
                # One copy: a DataNode crash leaves the read unsatisfiable.
                block = file.blocks[-1]
                datanode = self.datanodes[block.datanode]
                if not datanode.up:
                    raise NodeDownError(
                        f"no live replica of block {block.block_id} ({path})"
                    )
            yield from network.transfer(reader.name, datanode.name, 60)
            yield from datanode.cpu(cpu_s)
            if not datanode.page_cache.access(hint):
                yield from datanode.disk.read(nbytes, sequential=False)
            yield from network.transfer(datanode.name, reader.name, nbytes)

    def used_bytes_per_datanode(self) -> list[int]:
        """On-disk bytes per DataNode across all files."""
        usage = [0 for __ in self.datanodes]
        for file in self.namenode.files.values():
            for block in file.blocks:
                usage[block.datanode] += block.size
        return usage
