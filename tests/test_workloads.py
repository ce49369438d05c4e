"""Tests for page specs, triggers, page expansion and the pending queue."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sosim.errors import ConfigError, ParseError, ValidationError
from sosim.workloads import (
    ObjectQueue,
    ObjectSpec,
    PageResult,
    Trigger,
    expand_chunked,
    load_page_spec,
    random_page,
)

SAMPLE_PAGE = """\
# three objects, two DOM; packet 1 of the markup requests the image,
# packet 2 requests the stylesheet
html,2,1,c1,1,t0
img,3,0,c2,0,dep:html:1
css,1,1,c3,0,dep:html:2
"""


def test_trigger_parse_forms():
    assert Trigger.parse("t0") == Trigger() == Trigger.at(0)
    assert Trigger.parse("t:12.5") == Trigger.at(12.5)
    assert Trigger.parse("dep:obj1:3") == Trigger.dep("obj1", 3)
    with pytest.raises(ValidationError):
        Trigger.parse("whenever")


def test_trigger_parse_refuses_a_dependency_without_a_packet():
    with pytest.raises(ValidationError, match="bad dependency trigger"):
        Trigger.parse("dep:a")


def test_random_page_needs_an_object():
    with pytest.raises(ValidationError, match="n_objects must be >= 1"):
        random_page(np.random.default_rng(0), 0, 1, 0.2)


@pytest.mark.parametrize("n_connections", [0, -3, 2.5, 2.0, "2", None])
def test_random_page_needs_a_whole_number_of_connections(n_connections):
    with pytest.raises(ValidationError, match="n_connections must be"):
        random_page(np.random.default_rng(0), 5, n_connections, 0.3)


@pytest.mark.parametrize(
    "dom_fraction", [7.0, -1.0, 1.0 + 1e-9, math.nan, math.inf, -math.inf, "0.3", None]
)
def test_random_page_needs_a_dom_fraction_in_the_unit_interval(dom_fraction):
    with pytest.raises(ValidationError, match=r"dom_fraction must lie in \[0, 1\]"):
        random_page(np.random.default_rng(0), 5, 2, dom_fraction)


def test_random_page_accepts_the_ends_of_its_ranges():
    for n_connections, dom_fraction in [(1, 0.0), (np.int64(3), 1.0), (10, 0.4)]:
        page = random_page(np.random.default_rng(0), 6, n_connections, dom_fraction)
        assert len(page) == 6
        assert len({s.connection_id for s in page}) <= n_connections


def test_object_spec_validation():
    with pytest.raises(ValidationError):
        ObjectSpec("x", 0)
    with pytest.raises(ValidationError):
        ObjectSpec("x", 1, priority=-1)
    with pytest.raises(ValidationError, match="object id must not be empty"):
        ObjectSpec("", 2)
    with pytest.raises(ValidationError, match="object 'x' connection_id must not be empty"):
        ObjectSpec("x", 2, connection_id="")


def test_page_result_ordering():
    with pytest.raises(ValidationError):
        PageResult(dom_complete_ms=5.0, page_complete_ms=3.0)


def test_load_page_expands_chunked(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text(SAMPLE_PAGE)
    specs = load_page_spec(f)
    assert [s.id for s in specs] == ["html#1", "html#2", "img", "css"]
    assert specs[2].trigger == Trigger.dep("html#1", 1)
    assert specs[3].trigger == Trigger.dep("html#2", 1)
    assert sum(s.is_dom for s in specs) == 3  # two markup units + stylesheet


def test_load_single_object(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("solo,4,1,c0,0,t0\n")
    specs = load_page_spec(f)
    assert len(specs) == 1 and specs[0].size_packets == 4


def refused_page(f, match):
    """A page-level fault in a spec file is a ConfigError that names the file."""
    with pytest.raises(ConfigError, match=re.escape(f"{f}: ") + match) as exc:
        load_page_spec(f)
    assert not isinstance(exc.value, ParseError)  # no one line is at fault


def test_dep_packet_out_of_bounds(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,3,1,c0,0,t0\nb,1,0,c0,0,dep:a:5\n")
    refused_page(f, "object 'b' references packet 5 of 'a'")


def test_dangling_and_forward_references(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,3,1,c0,0,dep:ghost:1\n")
    refused_page(f, "object 'a' depends on 'ghost'")
    f.write_text("a,3,1,c0,0,dep:b:1\nb,2,0,c0,0,t0\n")
    # forward references (and thus cycles) are rejected
    refused_page(f, "object 'a' depends on 'b'")


def test_duplicate_ids(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,1,0,c0,0,t0\na,2,0,c0,0,t0\n")
    refused_page(f, "duplicate object id 'a'")


def test_chunk_unit_id_may_not_collide(tmp_path):
    # chunked "a" expands to a#1 and a#2; the page already names an "a#1"
    f = tmp_path / "page.csv"
    f.write_text("a,2,1,c0,1,t0\na#1,3,0,c2,0,t0\n")
    refused_page(f, "duplicate object id 'a#1'")


def test_chunked_id_may_not_repeat():
    specs = [ObjectSpec("a", 2, chunked=True), ObjectSpec("a", 1)]
    with pytest.raises(ValidationError, match="duplicate object id 'a'"):
        expand_chunked(specs)


def test_malformed_line_has_number(tmp_path):
    f = tmp_path / "page.csv"
    # the chunked column is 0 or 1, nothing else; ids may not be empty
    for bad in ("oops", "b,4,1,c0,2,t0", "b,1,0,c0,7,t0", "b,1,0,c0,-1,t0", "b,1,0,c0,x,t0",
                ",2,1,,1,t0", ",2,1,c1,0,t0", "b,2,1,,1,t0"):
        f.write_text(f"a,1,0,c0,0,t0\n{bad}\n")
        with pytest.raises(ParseError, match=re.escape(f"{f}:2: ")) as exc:
            load_page_spec(f)
        assert exc.value.line_no == 2


@pytest.mark.parametrize("at", ["nan", "inf", "-5"])
def test_time_trigger_must_be_finite_and_nonnegative(tmp_path, at):
    f = tmp_path / "page.csv"
    f.write_text(f"a,1,1,c0,0,t0\nb,1,0,c1,0,t:{at}\n")
    with pytest.raises(ParseError, match="trigger time") as exc:
        load_page_spec(f)
    assert exc.value.line_no == 2


def test_one_packet_chunked_object_expands_to_itself_unchunked():
    a = ObjectSpec("a", 1, priority=1, connection_id="c1", chunked=True)
    b = ObjectSpec("b", 2, trigger=Trigger.dep("a", 1))
    assert expand_chunked([a, b]) == [replace(a, chunked=False), b]


def test_expansion_preserves_packet_count():
    specs = [
        ObjectSpec("a", 5, priority=1, chunked=True),
        ObjectSpec("b", 3, priority=0, trigger=Trigger.dep("a", 4)),
    ]
    expanded = expand_chunked(specs)
    assert sum(s.size_packets for s in expanded) == 8
    assert all(s.size_packets == 1 for s in expanded if s.id.startswith("a#"))
    assert expanded[-1].trigger == Trigger.dep("a#4", 1)


def test_expanding_an_expanded_page_returns_it():
    rng = np.random.default_rng(3)
    for page in [random_page(rng, 30, 4, 0.3) for _ in range(10)] + [
        [ObjectSpec("a", 3, chunked=True, trigger=Trigger.at(2.0)),
         ObjectSpec("b", 2, trigger=Trigger.dep("a", 2)),
         ObjectSpec("c", 4, chunked=True, trigger=Trigger.dep("b", 2)),
         ObjectSpec("d", 1, trigger=Trigger.dep("c", 3))]
    ]:
        expanded = expand_chunked(page)
        again = expand_chunked(expanded)
        assert again == expanded and all(a is b for a, b in zip(again, expanded))


def armed(q, obj_id, priority, conn):
    q.arm(ObjectSpec(obj_id, 1, priority=priority, connection_id=conn))


def busy_in(conns=()):
    """The busy predicate that is true for the named connections only."""
    return frozenset(conns).__contains__


def ready_id(q, busy=()):
    spec = q.next_ready_object(busy_in(busy))
    return None if spec is None else spec.id


def test_queue_priority_order():
    q = ObjectQueue()
    armed(q, "A", 1, "c1")
    armed(q, "B", 2, "c2")
    assert ready_id(q) == "B"


def test_queue_arrival_order_tie():
    q = ObjectQueue()
    armed(q, "A", 1, "c1")
    armed(q, "B", 1, "c2")
    assert ready_id(q) == "A"


def test_queue_empty_returns_none():
    assert ObjectQueue().next_ready_object(busy_in()) is None


def test_queue_serializes_within_connection():
    q = ObjectQueue()
    armed(q, "low", 0, "c1")
    armed(q, "high", 9, "c1")
    # same connection: the earlier request goes first despite priority
    assert ready_id(q) == "low"


def test_queue_busy_connection_waits():
    q = ObjectQueue()
    armed(q, "early", 0, "c1")
    early = q.next_ready_object(busy_in())
    assert q.take(early) == 0
    armed(q, "late", 5, "c1")
    armed(q, "other", 0, "c2")
    # c1's dispatched object still has packets queued: c1 dispatches nothing
    assert ready_id(q, {"c1"}) == "other"
    assert q.take(q.next_ready_object(busy_in({"c1"}))) == 2
    assert ready_id(q, {"c1"}) is None
    # once c1 is no longer busy its head dispatches
    assert ready_id(q) == "late"
    assert q.take(q.next_ready_object(busy_in())) == 1
    assert ready_id(q) is None


def test_queue_rearmed_residual_keeps_its_request_position():
    q = ObjectQueue()
    armed(q, "first", 0, "c1")
    first = q.next_ready_object(busy_in())
    seq = q.take(first)
    armed(q, "second", 9, "c1")
    q.arm(first, arrival_seq=seq)  # preempted residual returns to the queue
    assert ready_id(q) == "first"
    assert q.take(first) == seq
    assert ready_id(q) == "second"


@pytest.mark.parametrize("size", [2.5, 3.0, "3", None])
def test_object_size_must_be_an_integer(size):
    with pytest.raises(ValidationError, match="size_packets must be an integer"):
        ObjectSpec("a", size)


def test_object_size_accepts_numpy_integers():
    assert ObjectSpec("a", np.int64(3)).size_packets == 3


@pytest.mark.parametrize("index", [2.7, 2.0, "2", -1, 0])
def test_dependency_packet_index_must_be_a_nonnegative_integer(index):
    # packet indices count from 1, whichever way the trigger is built
    with pytest.raises(ValidationError, match="packet index"):
        Trigger.dep("a", index)
    with pytest.raises(ValidationError, match="packet index"):
        Trigger("dep", dep_id="a", dep_packet=index)


def test_trigger_refuses_an_unknown_kind():
    for kind in ("whenever", "t0"):
        with pytest.raises(ValidationError, match=f"unknown trigger kind '{kind}'"):
            Trigger(kind)


def test_dependency_packet_index_accepts_numpy_integers():
    assert Trigger.dep("a", np.int64(2)) == Trigger.dep("a", 2)
    assert type(Trigger.dep("a", np.int64(2)).dep_packet) is int


def test_fifo_queue_ignores_priority():
    q = ObjectQueue(by_priority=False)
    armed(q, "A", 0, "c1")
    armed(q, "B", 9, "c2")
    assert ready_id(q) == "A"


def test_random_page_shape():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 51))
        page = random_page(rng, n, int(rng.integers(1, 11)), 0.3)
        assert len(page) == n
        root = page[0]
        assert root.chunked and root.is_dom and root.trigger == Trigger()
        expanded = expand_chunked(page)
        assert sum(s.size_packets for s in expanded) == sum(s.size_packets for s in page)
        # no connection mixes DOM and plain objects (unless only one connection)
        conns = {}
        for s in page:
            conns.setdefault(s.connection_id, set()).add(s.is_dom)
        if len(conns) > 1:
            assert all(len(v) == 1 for v in conns.values())
