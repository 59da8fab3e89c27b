"""Tests for the discrete-event simulation kit."""

import numpy as np
import pytest

from repro.mesh.regions import mask_of_cells
from repro.mesh.coords import all_directions
from repro.mesh.topology import Mesh, Mesh2D
from repro.simkit.event_queue import EventQueue, HeapEventQueue
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork
from repro.simkit.node import NodeProcess
from repro.simkit.simulator import Simulator
from repro.simkit.stats import StatsCollector
from repro.simkit.trace import TraceLog


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        out = []
        q.push(3.0, lambda: out.append("c"))
        q.push(1.0, lambda: out.append("a"))
        q.push(2.0, lambda: out.append("b"))
        while q:
            _, action = q.pop()
            action()
        assert out == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        q = EventQueue()
        out = []
        for i in range(5):
            q.push(1.0, lambda i=i: out.append(i))
        while q:
            q.pop()[1]()
        assert out == [0, 1, 2, 3, 4]

    def test_cancel(self):
        q = EventQueue()
        out = []
        handle = q.push(1.0, lambda: out.append("x"))
        q.push(2.0, lambda: out.append("y"))
        q.cancel(handle)
        assert len(q) == 1
        while q:
            q.pop()[1]()
        assert out == ["y"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, lambda: None)

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]
        assert sim.now == 2.0

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            sim.schedule(1.0, lambda: out.append("second"))

        sim.schedule(1.0, first)
        sim.run_to_quiescence()
        assert out == ["first", "second"]
        assert sim.now == 2.0

    def test_until_limit(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: out.append(1))
        sim.schedule(5.0, lambda: out.append(5))
        sim.run(until=2.0)
        assert out == [1]
        assert not sim.idle

    def test_runaway_protocol_detected(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run_to_quiescence(max_events=100)

    def test_cancel_via_simulator(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, lambda: out.append(1))
        sim.cancel(handle)
        sim.run()
        assert out == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.5, lambda: None)

    def test_reentrant_peek_keeps_short_delay_schedules_in_order(self):
        # Regression: an action that peeks the queue (``sim.idle``)
        # after its own epoch drained promotes a *future* bucket to the
        # drain stack; a short-delay schedule issued right after must
        # still fire in (time, seq) order — not behind the promoted
        # epoch at a wrong virtual time.
        sim = Simulator()
        fired = []

        def first():
            assert not sim.idle  # reentrant peek loads second's bucket
            sim.schedule(0.1, lambda: fired.append(("between", sim.now)))
            fired.append(("first", sim.now))

        sim.schedule(0.5, first)
        sim.schedule(5.5, lambda: fired.append(("second", sim.now)))
        sim.run_to_quiescence()
        assert fired == [("first", 0.5), ("between", 0.5 + 0.1), ("second", 5.5)]

    def test_non_default_queue_fires_in_default_order(self):
        # A non-default queue takes the general loop; a chained
        # schedule/cancel workload must fire in the same (now, action)
        # order as on the default calendar queue.
        def workload(sim):
            rng = np.random.default_rng(7)
            fired = []
            handles = []

            def make(name, depth):
                def action():
                    fired.append((sim.now, name))
                    if depth == 3:
                        return
                    for k in range(2):
                        delay = float(rng.choice([0.0, 0.25, 1.0, 3.5]))
                        child = make(f"{name}.{k}", depth + 1)
                        handles.append(sim.schedule(delay, child))
                    if handles and rng.random() < 0.4:
                        sim.cancel(handles[int(rng.integers(len(handles)))])

                return action

            for i in range(4):
                sim.schedule(float(i % 2), make(str(i), 0))
            sim.run_to_quiescence()
            return fired, sim.events_processed

        fired, processed = workload(Simulator())
        assert workload(Simulator(queue=HeapEventQueue())) == (fired, processed)
        assert 0 < processed < 4 * 15


class _Echo(NodeProcess):
    """Test node: replies PONG to PING once."""

    def on_start(self):
        self.store["got"] = []
        if self.coord == (0, 0):
            self.send((0, 1), "PING")

    def on_message(self, msg):
        self.store["got"].append(msg.kind)
        if msg.kind == "PING":
            self.send(msg.src, "PONG")


class TestNetwork:
    def test_ping_pong(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo)
        net.start()
        net.run_to_quiescence()
        assert net.nodes[(0, 1)].store["got"] == ["PING"]
        assert net.nodes[(0, 0)].store["got"] == ["PONG"]
        assert net.stats.by_kind() == {"PING": 1, "PONG": 1}

    def test_non_neighbor_send_rejected(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            net.transmit(Message("X", (0, 0), (2, 0)))

    def test_faulty_nodes_neither_send_nor_receive(self):
        faults = mask_of_cells([(0, 1)], (2, 2))
        net = MeshNetwork(Mesh2D(2), faults, _Echo)
        net.start()
        net.run_to_quiescence()
        assert net.stats.gauges["dropped[dst-faulty]"] == 1
        assert net.nodes[(0, 0)].store["got"] == []

    def test_ttl_expiry_drops(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        msg = Message("HOP", (0, 0), (0, 1), ttl=0, hops=1)
        net.transmit(msg)
        net.run_to_quiescence()
        assert net.stats.gauges["dropped[ttl]"] == 1

    def test_trace_records_deliveries(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo, trace=True)
        net.start()
        net.run_to_quiescence()
        assert len(net.trace) == 2
        assert net.trace.filter("PING")[0].dst == (0, 1)

    def test_deterministic_replay(self):
        def run():
            net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool), _Echo)
            net.start()
            net.run_to_quiescence()
            return net.sim.now, net.stats.total_messages

        assert run() == run()

    def test_inject_fault_mid_run(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo)
        net.start()
        net.inject_fault((0, 1))
        net.run_to_quiescence()
        assert net.nodes[(0, 0)].store["got"] == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeshNetwork(Mesh2D(3), np.zeros((2, 2), dtype=bool))

    def test_repair_revives_node(self):
        faults = mask_of_cells([(0, 1)], (2, 2))
        net = MeshNetwork(Mesh2D(2), faults, _Echo)
        net.repair((0, 1))
        assert not net.is_faulty((0, 1))
        net.start()
        net.run_to_quiescence()
        assert net.nodes[(0, 1)].store["got"] == ["PING"]

    def test_query_tagged_sends_attributed(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        net.transmit(Message("A", (0, 0), (0, 1), payload={"query": 7}))
        net.transmit(Message("B", (0, 1), (0, 0), payload={"query": 7}))
        net.transmit(Message("C", (0, 0), (1, 0), payload={"query": 9}))
        net.transmit(Message("D", (1, 0), (0, 0)))
        net.run_to_quiescence()
        assert net.stats.query_messages[7] == 2
        assert net.stats.query_messages[9] == 1
        assert net.stats.total_messages == 4


class TestNeighborTables:
    """The network's precomputed tables agree with the Mesh queries."""

    @pytest.mark.parametrize(
        "shape", [(1,), (5,), (1, 4), (4, 1), (3, 5), (1, 1, 3), (3, 4, 2), (4, 4, 4)]
    )
    def test_tables_match_mesh(self, shape):
        mesh = Mesh(shape)
        net = MeshNetwork(mesh, np.zeros(shape, dtype=bool))
        assert list(net.nodes) == list(mesh.nodes())
        links = set()
        for coord, node in net.nodes.items():
            assert net.neighbors_of(coord) == mesh.neighbors(coord)
            assert node.neighbors() == mesh.neighbors(coord)
            up, down = net.axis_neighbors_of(coord)
            assert (up, down) == (node.up, node.down)
            assert len(up) == len(down) == mesh.ndim
            for direction in all_directions(mesh.ndim):
                want = mesh.neighbor(coord, direction)
                table = up if direction.sign > 0 else down
                assert table[direction.axis] == want
                assert node.neighbor(direction) == want
                # Table entries are exactly the in-mesh cells one step away.
                stepped = list(coord)
                stepped[direction.axis] += direction.sign
                assert mesh.contains(stepped) == (want is not None)
                assert (tuple(stepped) in net.nodes) == mesh.contains(stepped)
                if want is not None:
                    links.add((coord, want))
        assert net._valid_links == links

    def test_neighbor_faulty_uses_tables(self):
        mask = mask_of_cells([(1, 1)], (3, 3))
        net = MeshNetwork(Mesh2D(3), mask)
        corner = net.nodes[(0, 1)]
        assert corner.neighbor_faulty(all_directions(2)[0]) is True  # +X
        assert corner.neighbor_faulty(all_directions(2)[1]) is None  # -X: face
        assert corner.neighbor_faulty(all_directions(2)[2]) is False  # +Y


class TestStatsAndTrace:
    def test_stats_summary(self):
        stats = StatsCollector()
        stats.on_send("A")
        stats.on_send("A")
        stats.on_send("B")
        stats.bump("x", 2.5)
        summary = stats.summary()
        assert summary["msgs[A]"] == 2
        assert summary["msgs[total]"] == 3
        assert summary["x"] == 2.5
        stats.reset()
        assert stats.total_messages == 0

    def test_trace_bounded(self):
        trace = TraceLog(limit=2)
        for i in range(5):
            trace.record(float(i), "K", (0, 0), (0, 1))
        assert len(trace) == 2 and trace.dropped == 3

    def test_trace_render(self):
        trace = TraceLog()
        trace.record(1.0, "K", (0, 0), (0, 1), note="hello")
        text = trace.render()
        assert "K" in text and "hello" in text


class TestCancelAccounting:
    """EventQueue len/bool stay exact through dead-handle cancels."""

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
        q.cancel(handle)  # already fired: must not corrupt accounting
        assert len(q) == 0
        assert not q
        q.push(2.0, lambda: None)
        assert len(q) == 1 and bool(q)

    def test_double_cancel(self):
        q = EventQueue()
        keep = q.push(1.0, lambda: None)
        handle = q.push(2.0, lambda: None)
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 1
        assert q.pop()[0] == 1.0
        assert len(q) == 0
        del keep

    def test_unknown_handle_cancel_is_noop(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.cancel(12345)
        assert len(q) == 1 and bool(q)

    def test_len_never_negative_through_sequences(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(3)]
        q.pop()
        for h in handles:
            q.cancel(h)
            q.cancel(h)
        assert len(q) == 0
        assert q.pop() is None
        assert len(q) == 0

    def test_cancel_then_peek_then_len(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(first)
        assert q.peek_time() == 2.0
        assert len(q) == 1


class TestNonFiniteTimes:
    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), lambda: None)

    def test_inf_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("inf"), lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(float("-inf"), lambda: None)


class TestForwardedPayloadIsolation:
    def test_forwarded_copy_does_not_alias(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"trail": "a", "n": 1})
        hop = msg.forwarded((0, 2))
        hop.payload["n"] = 2
        hop.payload["extra"] = True
        assert msg.payload == {"trail": "a", "n": 1}

    def test_forwarded_keeps_identity_and_hops(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"q": 1}, hops=3, ttl=9)
        hop = msg.forwarded((1, 1))
        assert hop.msg_id == msg.msg_id
        assert hop.hops == 4 and hop.ttl == 9
        assert hop.src == (0, 1) and hop.dst == (1, 1)
        assert hop.payload == msg.payload and hop.payload is not msg.payload

    def test_clear_writes_through_on_owned_view(self):
        # An owned view behaves exactly like the old plain-dict payload:
        # a caller that kept a reference to the dict it passed in sees
        # the clear and every later write.
        d = {"a": 1}
        msg = Message("ROUTE", (0, 0), (0, 1), payload=d)
        msg.payload.clear()
        assert d == {}
        msg.payload["b"] = 2
        assert d == {"b": 2}

    def test_clear_on_shared_view_stays_isolated(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"a": 1})
        hop = msg.forwarded((0, 2))
        hop.payload.clear()
        assert msg.payload == {"a": 1}
        assert hop.payload == {}


class TestContendedLinks:
    def _net(self, capacity, shape=(2, 2)):
        return MeshNetwork(
            Mesh2D(shape[0]), np.zeros(shape, dtype=bool), link_capacity=capacity
        )

    def test_uncontended_default_delivers_in_parallel(self):
        net = self._net(None)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append(net.sim.now)
        net.transmit(Message("A", (0, 0), (0, 1)))
        net.transmit(Message("B", (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [1.0, 1.0]

    def test_capacity_one_serializes_fifo(self):
        net = self._net(1)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append((m.kind, net.sim.now))
        for kind in ("A", "B", "C"):
            net.transmit(Message(kind, (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [("A", 1.0), ("B", 2.0), ("C", 3.0)]
        assert net.stats.link_peak_depth[((0, 0), (0, 1))] == 3
        assert net.stats.gauges["link_peak_depth"] == 3
        assert net.stats.gauges["link_wait_total"] == 3.0  # 0 + 1 + 2

    def test_capacity_two_carries_pairs(self):
        net = self._net(2)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append(net.sim.now)
        for _ in range(4):
            net.transmit(Message("A", (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [1.0, 1.0, 2.0, 2.0]

    def test_directed_links_are_independent(self):
        net = self._net(1)
        times = {}
        net.nodes[(0, 1)].on_message = lambda m: times.setdefault("fwd", net.sim.now)
        net.nodes[(0, 0)].on_message = lambda m: times.setdefault("rev", net.sim.now)
        net.transmit(Message("A", (0, 0), (0, 1)))
        net.transmit(Message("B", (0, 1), (0, 0)))
        net.run_to_quiescence()
        assert times == {"fwd": 1.0, "rev": 1.0}

    def test_set_link_capacity_requires_idle(self):
        net = self._net(None)
        net.transmit(Message("A", (0, 0), (0, 1)))
        with pytest.raises(RuntimeError):
            net.set_link_capacity(1)
        net.run_to_quiescence()
        net.set_link_capacity(1)
        assert net.link_capacity == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            self._net(0)

    def test_contended_run_is_deterministic(self):
        def run():
            net = self._net(1, shape=(3, 3))
            for i in range(5):
                net.transmit(Message(f"M{i}", (0, 0), (0, 1)))
                net.transmit(Message(f"N{i}", (0, 1), (0, 2)))
            net.run_to_quiescence()
            return net.sim.now, net.stats.total_messages, dict(net.stats.gauges)

        assert run() == run()


class TestFrames:
    def test_frame_latency_uncontended(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        assert net.stats.frame_latencies == [2.0]
        assert net.stats.frames_delivered == 1

    def test_frame_latency_queues_behind_contention(self):
        net = MeshNetwork(
            Mesh2D(3), np.zeros((3, 3), dtype=bool), link_capacity=1
        )
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        # Second frame waits one slot on the first link, then one more on
        # the second: head-of-line blocking carries through the path.
        assert net.stats.frame_latencies == [2.0, 3.0]

    def test_frame_into_faulty_node_lost(self):
        faults = mask_of_cells([(0, 1)], (3, 3))
        net = MeshNetwork(Mesh2D(3), faults)
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        assert net.stats.frames_delivered == 0
        assert net.stats.gauges["frames[lost]"] == 1

    def test_zero_hop_frame(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        net.inject_frame([(0, 0)])
        assert net.stats.frame_latencies == [0.0]

    def test_send_frame_validates_origin(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            net.nodes[(0, 0)].send_frame([(0, 1), (0, 0)])
        net.nodes[(0, 0)].send_frame([(0, 0), (0, 1)])
        net.run_to_quiescence()
        assert net.stats.frames_delivered == 1

    def test_frame_counts_as_messages(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        net.inject_frame([(0, 0), (0, 1), (0, 2)], query=42)
        net.run_to_quiescence()
        assert net.stats.messages_sent["FRAME"] == 2
        assert net.stats.query_messages[42] == 2
