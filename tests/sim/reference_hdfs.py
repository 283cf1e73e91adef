"""The per-block HDFS read, as HBase's handlers carried it.

Until ``Hdfs.read`` took a sequence of hints, ``HBaseStore._serve_read``
and ``_serve_scan`` looped over a get's or a scan's block probes and
called ``Hdfs.read`` once a probe; each call picked the DataNode and
returned ``Network.rpc`` around ``Hdfs._serve_block``, the DataNode's
side.  Those bodies live on here, unchanged but for ``self`` becoming
``hdfs``, as the *reference implementation* that
``tests/sim/test_hdfs_read.py`` and
``tests/sim/test_join_in_place.py`` run in place of ``Hdfs.read``.
"""

from repro.sim.faults import NodeDownError
from repro.stores.hdfs import Hdfs


def reference_block_read(hdfs, path, block_hint, nbytes, reader):
    """The per-block ``Hdfs.read``: pick the DataNode at the call and
    return the exchange with it, ``Network.rpc`` around the DataNode's
    side."""
    file = hdfs.namenode.files.get(path)
    if file is None:
        raise FileNotFoundError(path)
    datanode = reader
    if file.blocks:
        block = file.blocks[-1]
        datanode = hdfs.datanodes[block.datanode]
        if not datanode.up:
            raise NodeDownError(
                f"no live replica of block {block.block_id} ({path})")
    return hdfs.network.rpc(
        reader, datanode, 60, nbytes,
        reference_serve_block(hdfs, datanode, block_hint, nbytes))


def reference_serve_block(hdfs, datanode, block_hint, nbytes):
    """Process: the DataNode's side of one block read."""
    yield from datanode.cpu(
        hdfs.DATANODE_REQUEST_CPU
        + max(1, nbytes // 4096) * hdfs.CHECKSUM_CPU_PER_CHUNK)
    if not datanode.page_cache.access(block_hint):
        yield from datanode.disk.read(nbytes, sequential=False)
    return nbytes


def reference_read(hdfs, path, block_hints, nbytes, reader):
    """``Hdfs.read``'s signature over the per-block reads: the loop the
    HBase handlers carried, one read a hint."""
    for block_hint in block_hints:
        yield from reference_block_read(hdfs, path, block_hint, nbytes,
                                        reader)


def shim_reference_read(monkeypatch):
    """Every ``Hdfs.read`` from here on runs the reference."""
    monkeypatch.setattr(Hdfs, "read", reference_read)
