"""The expression trees of every catalog pair, pinned by content.

A refactor of how the catalog builds its pairs must build the same trees: the
same node kinds, operators and constants (compared by `float.hex`), in the
same shape.  Every `ex:` entry also survives `export_structure` then
`load_structure` with equal trees.
"""

import dataclasses
import hashlib

import pytest

from sympoisson import cli, registry
from sympoisson.expr import Expr


def _node_digest(node: Expr, memo: dict) -> str:
    """sha256 of a node's kind and fields, children by their own digest."""
    key = id(node)
    if key not in memo:
        parts = [type(node).__name__]
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Expr):
                parts.append(_node_digest(value, memo))
            elif isinstance(value, float):
                parts.append(value.hex())
            else:
                parts.append(repr(value))
        # the node is kept so that its id is not reused while the memo lives
        memo[key] = (node, hashlib.sha256("|".join(parts).encode()).hexdigest())
    return memo[key][1]


def _pair_lines(pair, memo: dict) -> list[str]:
    chart = pair.chart
    lines = [",".join(chart.names), ",".join(f"{float(lo).hex()}:{float(hi).hex()}" for lo, hi in chart.box)]
    lines += [_node_digest(e, memo) for e in pair.theta.comps.flat]
    lines += [_node_digest(e, memo) for e in pair.nabla.gamma.flat]
    return lines


def _catalog_pairs():
    """(full id, pair) of every catalog entry that builds a pair."""
    for ident, entry in registry.CATALOG.items():
        try:
            yield ident, entry.pair()
        except registry.CatalogError:
            continue


# recorded before the `ex:` entries became data rows
CATALOG_TREES_DIGEST = "4fdbe67fd6cd132cd45af7e8ddc67517741351774e4e3480c9e0da0156672fc9"


def test_catalog_pairs_build_the_recorded_trees():
    memo: dict = {}
    lines = []
    for ident, pair in _catalog_pairs():
        lines += [ident, *_pair_lines(pair, memo)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CATALOG_TREES_DIGEST


@pytest.mark.parametrize("ident", list(registry.CHART_ENTRIES))
def test_chart_entry_round_trips_through_a_structure_file(tmp_path, ident):
    pair = registry.build(ident)
    path = tmp_path / f"{ident}.ini"
    path.write_text(cli.export_structure(pair))
    loaded = cli.load_structure(str(path)).pair
    memo: dict = {}
    assert _pair_lines(loaded, memo) == _pair_lines(pair, memo)
