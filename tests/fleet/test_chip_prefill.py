"""The chip table's polarization-surface prefill.

A cold :meth:`~repro.fleet.chip.ChipTable.build` through the vectorized
backend reads every chip state's channel-group currents off one shared
surface per flow level. The batch kernel prefills each of those
surfaces with one ``warm_nodes`` march over all of its chip states, so
no state's query has a node left to build — and because a node's curve
does not depend on the batch that marched it, the table is bit-identical
to one built over surfaces filled one node at a time.
"""

import numpy as np
import pytest

from repro import obs
from repro.cosim import PolarizationSurface
from repro.fleet import FleetSpec
from repro.fleet.chip import ChipTable
from repro.sweep import SweepRunner

#: A corner of the default rack's grid: three flow levels (each its own
#: surface) from the starved minimum to a generous flow.
FLOWS = (16.0, 40.0, 96.0)
UTILS = (0.0, 0.5, 1.0)

TABLE_ARRAYS = ("peak_c", "net_w", "generated_w", "pumping_w", "current_a")


def _cold_table() -> "tuple[ChipTable, int]":
    """A table built on cold surfaces, and how many nodes it built."""
    PolarizationSurface.clear_shared()
    table = ChipTable.build(
        FLOWS, UTILS, FleetSpec().table_base_spec(),
        SweepRunner(backend="vectorized"),
    )
    nodes = sum(
        surface.nodes_built
        for surface in PolarizationSurface._SHARED.values()
    )
    PolarizationSurface.clear_shared()
    return table, nodes


@pytest.fixture(scope="module")
def node_by_node():
    """The reference: every surface node marched on its own."""
    build_nodes = PolarizationSurface._build_nodes

    def one_at_a_time(self, nodes):
        for node in nodes:
            build_nodes(self, [node])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolarizationSurface, "_build_nodes", one_at_a_time)
        return _cold_table()


@pytest.fixture(scope="module")
def prefilled():
    """A cold table with its observability snapshot."""
    obs.stop()
    obs.start()
    try:
        table, _ = _cold_table()
        snapshot = obs.snapshot()
    finally:
        obs.stop()
    return table, snapshot


def test_one_prefill_per_flow_level(prefilled, node_by_node):
    _, snapshot = prefilled
    _, reference_nodes = node_by_node
    warm = snapshot["warm"]
    assert warm["histograms"]["surface.warm_nodes.size"]["count"] == len(FLOWS)
    # Every node the table reads was prefilled: no query built one.
    assert warm["counters"].get("surface.node_builds", 0) == 0
    assert warm["counters"]["surface.nodes_warmed"] == reference_nodes
    assert reference_nodes > 2 * len(FLOWS)


def test_table_is_bit_identical_to_node_by_node_fill(prefilled,
                                                     node_by_node):
    table, _ = prefilled
    reference, _ = node_by_node
    for name in TABLE_ARRAYS:
        np.testing.assert_allclose(
            getattr(table, name), getattr(reference, name), rtol=0, atol=0,
            err_msg=name,
        )
