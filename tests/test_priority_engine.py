"""Tests for multi-object orchestration: preemption, triggers, page metrics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosim.delay_sources import DelaySourceSpec, make_source
from sosim.errors import ValidationError
from sosim.priority_engine import PriorityEngine, run_page
from sosim.scheduler_core import split_object
from sosim.simulator import SimConfig, run_transfer
from sosim.workloads import ObjectSpec, Trigger, random_page


def det(mean, prop=0.0):
    return DelaySourceSpec(kind="deterministic", mean_ms=mean, propagation_ms=prop)


def gam(mean, std, seed, prop=0.0):
    return DelaySourceSpec(
        kind="gamma", mean_ms=mean, stddev_ms=std, propagation_ms=prop, seed=seed
    )


def sources(*specs):
    return [make_source(s) for s in specs]


def test_single_object_reduces_to_run_transfer():
    specs = [ObjectSpec("only", 12)]
    recs, _ = run_page(specs, sources(gam(4, 2, seed=1), gam(6, 1, seed=2)), SimConfig(), "sos")
    ref = run_transfer([12], "sos", sources(gam(4, 2, seed=1), gam(6, 1, seed=2)))
    assert recs[0].completion_ms == pytest.approx(ref[0].completion_ms)
    assert recs[0].sent_per_path == ref[0].sent_per_path


def test_cross_connection_preemption():
    # A (low priority) is transmitting when B (high priority, other connection)
    # is requested by A's first delivered packet; B must jump the path queue.
    specs = [
        ObjectSpec("A", 10, priority=1, connection_id="c1"),
        ObjectSpec("B", 2, priority=2, connection_id="c2", trigger=Trigger.dep("A", 1)),
    ]
    recs, _ = run_page(specs, sources(det(2.0)), SimConfig(), "sos", "priority")
    rec = {r.object_id: r for r in recs}
    # B is requested at t=2 (A's packet 1 acked); A's packet 2 is already on
    # the wire, the other eight pull back, so B's packets ride right behind.
    assert rec["B"].completion_ms == pytest.approx(8.0)
    assert rec["A"].completion_ms == pytest.approx(24.0)


def test_same_connection_never_preempts():
    specs = [
        ObjectSpec("A", 10, priority=1, connection_id="c1"),
        ObjectSpec("B", 2, priority=2, connection_id="c1", trigger=Trigger.dep("A", 1)),
    ]
    recs, _ = run_page(specs, sources(det(2.0)), SimConfig(), "sos", "priority")
    rec = {r.object_id: r for r in recs}
    assert rec["A"].completion_ms == pytest.approx(20.0)
    assert rec["B"].completion_ms == pytest.approx(24.0)


def test_fifo_never_preempts():
    specs = [
        ObjectSpec("A", 10, priority=1, connection_id="c1"),
        ObjectSpec("B", 2, priority=2, connection_id="c2", trigger=Trigger.dep("A", 1)),
    ]
    recs, _ = run_page(specs, sources(det(2.0)), SimConfig(), "sos", "fifo")
    rec = {r.object_id: r for r in recs}
    assert rec["A"].completion_ms == pytest.approx(20.0)
    assert rec["B"].completion_ms == pytest.approx(24.0)


def test_page_metrics_all_dom():
    specs = [ObjectSpec("a", 2, priority=1), ObjectSpec("b", 3, priority=1, trigger=Trigger.dep("a", 1))]
    recs, result = run_page(specs, sources(det(1.0)), SimConfig(), "sos")
    assert result.dom_complete_ms == result.page_complete_ms


def test_page_metrics_non_dom_tail():
    specs = [
        ObjectSpec("a", 2, priority=1, connection_id="c1"),
        ObjectSpec("tail", 30, priority=0, connection_id="c2", trigger=Trigger.dep("a", 1)),
    ]
    recs, result = run_page(specs, sources(det(1.0)), SimConfig(), "sos")
    assert result.dom_complete_ms < result.page_complete_ms


@pytest.mark.parametrize(
    "scheduler, img_completion_ms, img_sent",
    [("sos", 35.03790376456995, (3, 2)), ("sedpf", 38.985748877345564, (2, 3))],
)
def test_oracle_run_keeps_no_windows(scheduler, img_completion_ms, img_sent):
    # oracle mode never reads ACK gaps, so the engine keeps no windows
    specs = [
        ObjectSpec("html", 6, priority=1, connection_id="c1"),
        ObjectSpec("img", 5, priority=0, connection_id="c2", trigger=Trigger.dep("html", 2)),
    ]
    engine = PriorityEngine(specs, sources(gam(5, 2, seed=1), gam(7, 3, seed=2)), SimConfig(), scheduler)
    recs = engine.run()
    assert engine.sim.feed.windows is None
    assert [(r.object_id, r.start_ms, r.completion_ms, r.sent_per_path) for r in recs] == [
        ("html", 0.0, 21.330239324162484, (4, 2)),
        ("img", 7.136412438106708, img_completion_ms, img_sent),
    ]


def test_priority_beats_fifo_on_markup_page():
    specs = [
        ObjectSpec("html", 2, priority=1, connection_id="c1", chunked=True),
        ObjectSpec("img", 3, priority=0, connection_id="c2", trigger=Trigger.dep("html", 1)),
        ObjectSpec("css", 1, priority=1, connection_id="c3", trigger=Trigger.dep("html", 2)),
    ]
    cfg = SimConfig()
    _, pri = run_page(specs, sources(gam(5, 2, seed=1), gam(7, 3, seed=2)), cfg, "sos", "priority")
    _, fifo = run_page(specs, sources(gam(5, 2, seed=1), gam(7, 3, seed=2)), cfg, "sos", "fifo")
    assert pri.dom_complete_ms <= fifo.dom_complete_ms


def test_priority_dominance_randomized():
    wins = 0
    for gseed in range(30):
        g = np.random.default_rng(gseed)
        page = random_page(g, int(g.integers(3, 40)), int(g.integers(1, 8)), 0.3)
        res = {}
        for ordering in ("priority", "fifo"):
            ss = sources(gam(5, 4, seed=100 + gseed), gam(8, 2, seed=200 + gseed))
            _, r = run_page(page, ss, SimConfig(), "sos", ordering)
            res[ordering] = r.dom_complete_ms
        assert res["priority"] <= res["fifo"] + 1e-9
        wins += res["priority"] < res["fifo"]
    assert wins > 0  # preemption actually fires somewhere


def test_packet_conservation():
    specs = [
        ObjectSpec("a", 6, priority=1, connection_id="c1", chunked=True),
        ObjectSpec("b", 9, priority=0, connection_id="c2", trigger=Trigger.dep("a", 2)),
        ObjectSpec("c", 4, priority=1, connection_id="c1", trigger=Trigger.dep("a", 3)),
    ]
    recs, _ = run_page(specs, sources(gam(3, 2, seed=5), gam(4, 1, seed=6)), SimConfig(), "sos")
    for rec, spec in zip(recs, [ObjectSpec(f"a#{k}", 1, priority=1) for k in range(1, 7)]
                         + [specs[1], specs[2]]):
        assert sum(rec.sent_per_path) == spec.size_packets  # no redundancy, no loss


def test_split_matches_backlog_replay():
    # every dispatch must equal split_object evaluated at the recorded backlog
    class RecordingPolicy:
        coded = False

        def __init__(self, inner):
            self.inner = inner
            self.calls = []

        def plan(self, n, params, stddevs):
            plan = self.inner.plan(n, params, stddevs)
            self.calls.append((n, params, plan.counts))
            return plan

    specs = [
        ObjectSpec("a", 8, priority=1, connection_id="c1"),
        ObjectSpec("b", 7, priority=2, connection_id="c2", trigger=Trigger.dep("a", 2)),
    ]
    engine = PriorityEngine(
        specs, sources(gam(3, 2, seed=7), gam(5, 1, seed=8)), SimConfig(), "sos"
    )
    engine.policy = RecordingPolicy(engine.policy)
    engine.run()
    assert engine.policy.calls
    for n, params, counts in engine.policy.calls:
        assert counts == split_object(n, params)


def test_run_page_refuses_fractional_size():
    # used to die with a raw TypeError inside the engine
    with pytest.raises(ValidationError, match="integer size_packets"):
        run_page([ObjectSpec("a", 2.5, priority=1)], sources(det(1.0)), SimConfig())


def test_engine_refuses_chunk_unit_id_collision():
    specs = [
        ObjectSpec("a", 2, priority=1, chunked=True),
        ObjectSpec("a#1", 3, priority=0, connection_id="c2"),
    ]
    with pytest.raises(ValidationError, match="'a#1'"):
        PriorityEngine(specs, sources(det(1.0)), SimConfig())


def test_fully_sent_from_dispatch_and_from_service():
    # One connection takes its next object once the last one is fully sent.
    # A and B start service inside their own dispatch, so A-C go out in one
    # drain; C queues behind A, and D goes when C enters service at 2 ms.
    specs = [ObjectSpec(name, 1) for name in "ABCD"]
    recs, _ = run_page(specs, sources(det(2.0), det(3.0)), SimConfig(), "sos")
    assert [r.start_ms for r in recs] == [0.0, 0.0, 0.0, 2.0]
    assert [r.completion_ms for r in recs] == [2.0, 3.0, 4.0, 6.0]
    assert [r.sent_per_path for r in recs] == [(1, 0), (0, 1), (1, 0), (1, 0)]


# html's early packets request img (plain, c1), css and js (DOM, c2): css
# preempts img's queued packets, js preempts img's residual again.
PREEMPTION_PAGE = [
    ObjectSpec("html", 4, priority=1, connection_id="c0"),
    ObjectSpec("img", 12, priority=0, connection_id="c1", trigger=Trigger.dep("html", 1)),
    ObjectSpec("css", 3, priority=1, connection_id="c2", trigger=Trigger.dep("html", 3)),
    ObjectSpec("js", 2, priority=1, connection_id="c2", trigger=Trigger.dep("css", 1)),
]


@pytest.mark.parametrize(
    "ordering, expected",
    [
        (
            "priority",
            [
                ("html", 0.0, 17.566783386441855, (3, 1)),
                ("img", 5.438168360658681, 62.47369730417691, (6, 6)),
                ("css", 10.844067546491074, 26.809040913801148, (2, 1)),
                ("js", 21.330239324162484, 35.03790376456995, (2, 0)),
            ],
        ),
        (
            "fifo",
            [
                ("html", 0.0, 17.566783386441855, (3, 1)),
                ("img", 5.438168360658681, 48.82792171297244, (7, 5)),
                ("css", 10.844067546491074, 59.54738646365233, (2, 1)),
                ("js", 54.489144089703856, 62.47369730417691, (1, 1)),
            ],
        ),
    ],
)
def test_preempted_residual_redispatch_exact(ordering, expected):
    pulled = []
    engine = PriorityEngine(
        PREEMPTION_PAGE, sources(gam(5, 2, seed=1), gam(7, 3, seed=2)), SimConfig(), "sos", ordering
    )
    pull = engine.sim.pull_unserved

    def counted_pull(obj):
        count = pull(obj)
        pulled.append((obj.spec.id, count))
        return count

    engine.sim.pull_unserved = counted_pull
    recs = engine.run()
    assert [(r.object_id, r.start_ms, r.completion_ms, r.sent_per_path) for r in recs] == expected
    assert pulled == ([("img", 11), ("img", 11)] if ordering == "priority" else [])


@pytest.mark.parametrize("scheduler", ["sos", "sos_fec"])
@pytest.mark.parametrize("ack_ms", [0.0, 10.0])
def test_unread_acks_are_not_events(scheduler, ack_ms):
    # Oracle mode keeps no windows and no object has a dependency watcher, so
    # each arrival is one event and each packet served is two (service end,
    # delivery); css preempts img, whose pulled packets are served once.
    specs = [
        ObjectSpec("html", 5, priority=1, connection_id="c0", chunked=True),
        ObjectSpec("img", 9, priority=0, connection_id="c1"),
        ObjectSpec("css", 4, priority=1, connection_id="c2", trigger=Trigger.at(6.0)),
        ObjectSpec("js", 3, priority=1, connection_id="c2", trigger=Trigger.at(6.0)),
    ]
    paths = sources(gam(5, 2, seed=1), gam(7, 3, seed=2, prop=2.0))
    engine = PriorityEngine(specs, paths, SimConfig(ack_return_ms=ack_ms), scheduler)
    events = 0
    while engine.sim.step():
        events += 1
    packets = sum(sum(r.sent_per_path) for r in engine.run())
    assert events == len(engine.specs) + 2 * packets


def test_estimated_page_records_every_back_to_back_gap():
    # Watched (html, css) and unwatched (img, js) objects alike feed the
    # windows; the contents were recorded with an ACK event per delivery.
    cfg = SimConfig(ack_return_ms=1.5, mode="estimated", priors=((5.0, 2.0), (7.0, 3.0)))
    paths = sources(gam(5, 2, seed=1), gam(7, 3, seed=2))
    engine = PriorityEngine(PREEMPTION_PAGE, paths, cfg, "sos")
    engine.run()
    windows = [w.as_array().tolist() for w in engine.sim.feed.windows]
    assert [len(w) for w in windows] == [9, 10]
    assert hashlib.sha256(repr(windows).encode()).hexdigest() == (
        "3375c93f21fc2d5a0516311a5283734f3a163d6b867232435b27987db645bb03"
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["priority", "fifo"]),
    st.sampled_from(["sos", "sos_fec"]),
    st.sampled_from([0.0, 1.5, 10.0]),
)
def test_only_the_slot_object_has_queued_packets(seed, ordering, scheduler, ack_ms):
    rng = np.random.default_rng(seed)
    page = random_page(rng, int(rng.integers(2, 30)), int(rng.integers(1, 6)), 0.3)
    paths = [gam(4, 3, seed=seed), gam(7, 2, seed=seed + 1)][: int(rng.integers(1, 3))]
    engine = PriorityEngine(page, sources(*paths), SimConfig(ack_return_ms=ack_ms), scheduler, ordering)
    while engine.sim.step():
        waiting: dict[str, list] = {}
        for live in engine.lives.values():
            if live.unserved > 0:
                waiting.setdefault(live.spec.connection_id, []).append(live)
        for conn, lives in waiting.items():
            assert lives == [engine._slots[conn][1]]
    assert len(engine.run()) == len(engine.specs)


def _engine_outcomes():
    """Reprs of random run_page and run_transfer outcomes over every engine knob."""
    rng = np.random.default_rng(2024)
    combos = [
        (ack, mode, scheduler, ordering)
        for ack in (0.0, 1.5, 10.0)
        for mode in ("oracle", "estimated")
        for scheduler in ("sos", "sos_fec", "edf", "sedpf")
        for ordering in ("priority", "fifo")
    ]
    out = []
    for i in range(288):
        ack, mode, scheduler, ordering = combos[i % len(combos)]
        seed = int(rng.integers(0, 2**31))
        paths = []
        for j in range(int(rng.integers(1, 4))):
            prop = float(rng.choice([0.0, 0.0, 2.5, 7.0]))
            if rng.random() < 0.2:
                paths.append(det(float(rng.integers(1, 9)), prop))
            else:
                paths.append(gam(float(rng.uniform(1, 10)), float(rng.uniform(0.5, 8)),
                                 seed=seed + j, prop=prop))
        extra = {}
        if mode == "estimated":
            if i % 2:
                extra["warmup_packets"] = int(rng.integers(2, 60))
            else:
                extra["priors"] = tuple((p.mean_ms, p.stddev_ms) for p in paths)
            extra["window_capacity"] = int(rng.integers(5, 200))
        cfg = SimConfig(ack_return_ms=ack, mode=mode, **extra)
        if i % 3 == 2:
            sizes = [int(s) for s in rng.integers(1, 30, size=int(rng.integers(1, 6)))]
            out.append(repr(run_transfer(sizes, scheduler, sources(*paths), cfg)))
        else:
            page = random_page(rng, int(rng.integers(1, 25)), int(rng.integers(1, 6)), 0.3)
            out.append(repr(run_page(page, sources(*paths), cfg, scheduler, ordering)))
    return out


def test_engine_outcomes_are_pinned():
    # Every decision, delay read, window write and event order of the engine
    # feeds these bytes, so a speed-up that moves a result bit fails here.
    # Re-recorded when SOS at m >= 3 became the exact n cheapest bound
    # increments: 23 outcomes moved, all SOS or SOS-FEC on three paths.
    outcomes = _engine_outcomes()
    assert len(outcomes) == 288
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "adbaeb09d66c0c5fc55c2707807307028119823d66581dd6506425c98991b317"
