"""Tests for search statistics bookkeeping."""

from repro.pointsto.graph import HeapEdge, StaticFieldNode
from repro.pointsto import AbsLoc
from repro.ir.instructions import AllocSite
from repro.symbolic.stats import (
    REFUTED,
    TIMEOUT,
    WITNESSED,
    EdgeResult,
)


def make_edge():
    site = AllocSite(0, "Object", "M.m", hint="object0")
    return HeapEdge(StaticFieldNode("C", "f"), "f", AbsLoc(site))


def test_status_predicates():
    edge = make_edge()
    assert EdgeResult(edge, REFUTED).refuted
    assert EdgeResult(edge, WITNESSED).witnessed
    assert EdgeResult(edge, TIMEOUT).timed_out
    assert not EdgeResult(edge, REFUTED).witnessed
