"""Differential suite for "one HDFS read serves a get's block probes".

HBase's ``_serve_read`` and ``_serve_scan`` used to call ``Hdfs.read``
once per block probe, and each call returned ``Network.rpc`` around the
DataNode's side of the probe (``Hdfs._serve_block``): five generators a
probe, and two frames between the handler and every event under it.
``Hdfs.read`` now takes the sequence of hints and runs each probe's
request transfer, DataNode CPU, page cache / disk and response transfer
in its own frame.

The per-block form lives on in ``tests/sim/reference_hdfs.py`` as the
*reference implementation* (the method of
``tests/sim/test_join_in_place.py``: keep the old code in ``tests/``
and compare whole runs).  Nothing modelled or scheduled may differ: the
same holds and transfers run in the same order, so the
``result_to_dict`` payload (for a traced or chaos run, which has
none, the exact facts ``tests/sim/test_join_in_place.py`` reads off
it), the kernel's event count and the Chrome-trace export must all be
equal — exactly, not as multisets.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.trace_export import chrome_trace
from repro.ycsb.runner import run_config
from tests.sim.reference_hdfs import shim_reference_read
from tests.sim.test_join_in_place import (SMALL_D, SMALL_M, _config,
                                          _observed, _observed_point,
                                          _payload)

# -- whole runs, real against reference ----------------------------------------

#: HBase gets and scans on the page-cache-resident cluster, and gets on
#: the disk-bound one: at 2 000 records a node its data outgrows the
#: page cache (at 300 it does not), so probes miss and reach
#: ``Disk.read``.
POINTS = [
    pytest.param("R", SMALL_M, 300, id="R-M"),
    pytest.param("RS", SMALL_M, 300, id="RS-M"),
    pytest.param("R", SMALL_D, 2_000, id="R-D"),
]


def _observed_facts(result) -> str:
    """A traced result (or a chaos point's config) has no
    ``result_to_dict`` payload: the exact facts ``test_join_in_place``
    compares stand in for it."""
    return _observed(result)[0]


def _computed(config, clusters, facts) -> tuple:
    """What one run computed — its ``facts``, the kernel's event count
    and the Chrome-trace export — and the result."""
    result = run_config(config)
    return (facts(result), clusters[-1].sim._sequence,
            json.dumps(chrome_trace(result.traces), sort_keys=True),
            result)


def _assert_same_as_reference(config, clusters, facts=_payload):
    *real, result = _computed(config, clusters, facts)
    with pytest.MonkeyPatch.context() as patch:
        shim_reference_read(patch)
        *reference, __ = _computed(config, clusters, facts)
    # Booleans first: pytest's diff of two multi-megabyte values takes
    # minutes.
    same = [mine == theirs for mine, theirs in zip(real, reference)]
    assert same == [True, True, True], ("payload, events, trace", same)
    return result


@pytest.mark.parametrize("mix,spec,records", POINTS)
def test_one_read_computes_the_reference_point(mix, spec, records,
                                               clusters):
    """Untraced: the payload and the event count; sampled: the spans."""
    config = replace(_config("hbase", mix, spec), records_per_node=records)
    _assert_same_as_reference(config, clusters)
    if spec is SMALL_D:
        assert sum(node.disk.reads for node in clusters[-1].servers), \
            "probes must reach the disk"
    traced = _assert_same_as_reference(
        replace(config, trace_sample_every=10), clusters, _observed_facts)
    assert traced.traces, "the point must export spans"


def test_traced_deadline_chaos_point_matches_the_reference(clusters):
    """Spans, deadlines and a crash of a DataNode's node: the probes
    that raise, expire or are cut off do so at the same event."""
    result = _assert_same_as_reference(_observed_point("hbase"), clusters,
                                       _observed_facts)
    kinds = {kind for histogram in result.stats.histograms.values()
             for kind in histogram.error_kinds}
    assert result.traces and {"deadline", "fault"} <= kinds, \
        "the point must exercise spans, deadlines and the crash"
