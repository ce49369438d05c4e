"""Tests for page specs, triggers, the pending queue and preemption rule."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sosim.errors import ParseError, ValidationError
from sosim.workloads import (
    ObjectQueue,
    ObjectSpec,
    PageResult,
    Trigger,
    expand_chunked,
    load_page_spec,
    maybe_preempt,
    random_page,
    validate_specs,
)

SAMPLE_PAGE = """\
# three objects, two DOM; packet 1 of the markup requests the image,
# packet 2 requests the stylesheet
html,2,1,c1,1,t0
img,3,0,c2,0,dep:html:1
css,1,1,c3,0,dep:html:2
"""


def test_trigger_parse_forms():
    assert Trigger.parse("t0") == Trigger.t0()
    assert Trigger.parse("t:12.5") == Trigger.at(12.5)
    assert Trigger.parse("dep:obj1:3") == Trigger.dep("obj1", 3)
    with pytest.raises(ValueError):
        Trigger.parse("whenever")


def test_object_spec_validation():
    with pytest.raises(ValidationError):
        ObjectSpec("x", 0)
    with pytest.raises(ValidationError):
        ObjectSpec("x", 1, priority=-1)


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


def test_dep_packet_out_of_bounds(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,3,1,c0,0,t0\nb,1,0,c0,0,dep:a:5\n")
    with pytest.raises(ValidationError):
        load_page_spec(f)


def test_dangling_and_forward_references(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,3,1,c0,0,dep:ghost:1\n")
    with pytest.raises(ValidationError):
        load_page_spec(f)
    f.write_text("a,3,1,c0,0,dep:b:1\nb,2,0,c0,0,t0\n")
    with pytest.raises(ValidationError):
        load_page_spec(f)  # forward references (and thus cycles) are rejected


def test_duplicate_ids(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,1,0,c0,0,t0\na,2,0,c0,0,t0\n")
    with pytest.raises(ValidationError):
        load_page_spec(f)


def test_chunk_unit_id_may_not_collide(tmp_path):
    # chunked "a" expands to a#1 and a#2; the page already names an "a#1"
    f = tmp_path / "page.csv"
    f.write_text("a,2,1,c0,1,t0\na#1,3,0,c2,0,t0\n")
    with pytest.raises(ValidationError, match="'a#1'"):
        load_page_spec(f)


def test_malformed_line_has_number(tmp_path):
    f = tmp_path / "page.csv"
    f.write_text("a,1,0,c0,0,t0\noops\n")
    with pytest.raises(ParseError) as exc:
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
    expanded = expand_chunked(validate_specs(specs))
    assert sum(s.size_packets for s in expanded) == 8
    assert all(s.size_packets == 1 for s in expanded if s.id.startswith("a#"))
    assert expanded[-1].trigger == Trigger.dep("a#4", 1)


def armed(q, obj_id, priority, conn):
    q.arm(ObjectSpec(obj_id, 1, priority=priority, connection_id=conn))


def ready_id(q, busy=frozenset()):
    spec = q.next_ready_object(busy)
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
    assert ObjectQueue().next_ready_object(set()) is None


def test_queue_serializes_within_connection():
    q = ObjectQueue()
    armed(q, "low", 0, "c1")
    armed(q, "high", 9, "c1")
    # same connection: the earlier request goes first despite priority
    assert ready_id(q) == "low"


def test_queue_busy_connection_waits():
    q = ObjectQueue()
    armed(q, "early", 0, "c1")
    early = q.next_ready_object(set())
    assert q.take(early) == 0
    armed(q, "late", 5, "c1")
    armed(q, "other", 0, "c2")
    # c1's dispatched object still has packets queued: c1 dispatches nothing
    assert ready_id(q, {"c1"}) == "other"
    assert q.take(q.next_ready_object({"c1"})) == 2
    assert ready_id(q, {"c1"}) is None
    # once c1 is no longer busy its head dispatches
    assert ready_id(q) == "late"
    assert q.take(q.next_ready_object(set())) == 1
    assert ready_id(q) is None


def test_queue_rearmed_residual_keeps_its_request_position():
    q = ObjectQueue()
    armed(q, "first", 0, "c1")
    first = q.next_ready_object(set())
    seq = q.take(first)
    armed(q, "second", 9, "c1")
    q.arm(first, arrival_seq=seq)  # preempted residual returns to the queue
    assert ready_id(q) == "first"
    assert q.take(first) == seq
    assert ready_id(q) == "second"


@pytest.mark.parametrize("size", [2.5, 3.0, "3", None])
def test_object_size_must_be_an_integer(size):
    with pytest.raises(ValidationError, match="integer size_packets"):
        ObjectSpec("a", size)


def test_object_size_accepts_numpy_integers():
    assert ObjectSpec("a", np.int64(3)).size_packets == 3


@pytest.mark.parametrize("index", [2.7, 2.0, "2", -1])
def test_dependency_packet_index_must_be_a_nonnegative_integer(index):
    with pytest.raises(ValidationError, match="packet index"):
        Trigger.dep("a", index)


def test_dependency_packet_index_accepts_numpy_integers():
    assert Trigger.dep("a", np.int64(2)) == Trigger.dep("a", 2)


def test_fifo_queue_ignores_priority():
    q = ObjectQueue(by_priority=False)
    armed(q, "A", 0, "c1")
    armed(q, "B", 9, "c2")
    assert ready_id(q) == "A"


def test_maybe_preempt_rule():
    cur = ObjectSpec("cur", 2, priority=1, connection_id="c1")
    assert maybe_preempt(cur, ObjectSpec("x", 1, priority=2, connection_id="c2"))
    assert not maybe_preempt(cur, ObjectSpec("x", 1, priority=2, connection_id="c1"))
    assert not maybe_preempt(cur, ObjectSpec("x", 1, priority=0, connection_id="c2"))
    assert not maybe_preempt(cur, ObjectSpec("x", 1, priority=1, connection_id="c2"))


def test_random_page_shape():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 51))
        page = random_page(rng, n, int(rng.integers(1, 11)), 0.3)
        assert len(page) == n
        root = page[0]
        assert root.chunked and root.is_dom and root.trigger.kind == "t0"
        validate_specs(page)
        expanded = expand_chunked(page)
        assert sum(s.size_packets for s in expanded) == sum(s.size_packets for s in page)
        # no connection mixes DOM and plain objects (unless only one connection)
        conns = {}
        for s in page:
            conns.setdefault(s.connection_id, set()).add(s.is_dom)
        if len(conns) > 1:
            assert all(len(v) == 1 for v in conns.values())
