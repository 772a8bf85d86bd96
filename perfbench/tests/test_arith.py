"""Tests of the benchmark's own arithmetic (no program under test needed).

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import client  # noqa: E402
from probe import SpeedProbe, read_samples, read_worker_samples  # noqa: E402
from serve_launcher import serve_layers  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    at_reference_speed,
    completion_rate,
    due_time,
    latency_from_due,
    lateness,
    percentile,
    tail_or_median,
    trimmed_mean,
)
from tracer import Tracer, self_times, to_rows  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- the percentile rule ---------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile(list(range(1, 1000)), 99) is None  # only 9 beyond


def test_percentile_uses_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, 4 of each
    assert percentile(values, 50) == 3.0
    assert percentile(values, 50, min_beyond=11) is None


def test_failures_count_as_missing_every_limit():
    latencies = [0.010] * 985 + [math.inf] * 15
    assert percentile(latencies, 99) == math.inf
    assert percentile(latencies, 50) == 0.010


def test_tail_falls_back_to_median_when_unsupported():
    assert tail_or_median([3.0, 1.0, 2.0, 10.0, 4.0], 99) == 3.0
    assert tail_or_median(list(range(1, 1001)), 99) == 990


def test_percentile_rejects_fractional_q():
    with pytest.raises(ValueError):
        percentile([1.0], 99.9)


# -- self time of nested spans ---------------------------------------------


def test_self_time_subtracts_children_at_every_depth():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("sweep"):
        clock.now += 1.0
        with tracer.span("item", item=7):
            clock.now += 0.5
            with tracer.span("bound"):
                clock.now += 2.0
            clock.now += 0.25
        with tracer.span("bound"):
            clock.now += 1.0
        clock.now += 0.5
    selfs = self_times(tracer.spans)
    assert selfs == {"sweep": 1.5, "item": 0.75, "bound": 3.0}
    by_name = {span.name: span for span in tracer.spans if span.name != "bound"}
    inner = [s for s in tracer.spans if s.name == "bound" and s.parent == by_name["item"].id]
    assert inner[0].item == 7  # children inherit the item of their parent
    assert by_name["item"].parent == by_name["sweep"].id


def test_wrap_and_patch_record_spans_and_restore():
    class Owner:
        @staticmethod
        def parse(x):
            return x + 1

        def compute(self, x):
            return 2 * x

    tracer = Tracer()
    seen = []
    tracer.patch(Owner, "parse", "parse")
    tracer.patch(Owner, "compute", "compute", item_of=lambda self, x: x,
                 on_result=lambda result, self, x: seen.append(result))
    assert Owner.parse(1) == 2 and Owner().compute(3) == 6
    assert [(s.name, s.item) for s in tracer.spans] == [("parse", None), ("compute", 3)]
    assert seen == [6]
    tracer.restore()
    Owner().compute(1)
    assert len(tracer.spans) == 2


def test_spans_of_other_threads_do_not_nest():
    tracer = Tracer()

    def worker():
        with tracer.span("worker"):
            pass

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(span.parent is None for span in tracer.spans)


def test_serve_layers_count_only_between_marks():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("serve.parse"):  # warm-up, before the first mark
        clock.now += 5.0
    tracer.record("phase.mark", clock.now, clock.now)
    for size in (1, 3):
        tracer.record("serve.batch", clock.now, clock.now + 2.0)
        with tracer.span("serve.dispatch", item=size):
            clock.now += 0.5
            with tracer.span("serve.compute"):
                clock.now += 0.25
    tracer.record("serve.batch", clock.now, clock.now + 2.0)
    with tracer.span("serve.store_lookup"):
        clock.now += 0.1
    tracer.record("serve.store_hit", clock.now, clock.now)
    with tracer.span("serve.store_lookup"):
        clock.now += 0.1
    tracer.record("phase.mark", clock.now, clock.now)
    with tracer.span("serve.parse"):  # after the second mark
        clock.now += 5.0
    layers = serve_layers(to_rows(tracer.spans))
    assert "serve.parse_s" not in layers
    assert layers["serve.compute_s"] == pytest.approx(0.5)
    assert layers["serve.dispatch_s"] == pytest.approx(1.0)
    assert layers["serve.batch_size"] == 2.0
    assert layers["serve.store_hit_ratio"] == 0.5
    # 3 requests waited 6 s in all; 1 x 0.75 + 3 x 0.75 of it was dispatch.
    assert layers["serve.batch_wait_s"] == pytest.approx(6.0 - 3.0)


# -- due-time latency and generator lateness -------------------------------


def test_latency_counts_from_the_due_time():
    due = due_time(100.0, 5, 50.0)
    assert due == pytest.approx(100.1)
    # Sent 30 ms late behind a stall, served in 10 ms: 40 ms latency.
    assert latency_from_due(due, due + 0.040) == pytest.approx(0.040)
    assert lateness(due, due + 0.030) == pytest.approx(0.030)
    assert lateness(due, due - 0.001) == 0.0
    assert latency_from_due(due, None) == math.inf


def test_completion_rate_runs_to_the_last_completion():
    assert completion_rate(10.0, [10.5, 11.0, 12.0, 10.2]) == 2.0
    assert completion_rate(10.0, []) == 0.0


# -- scaling to the reference CPU speed -------------------------------------


def test_trimmed_mean_drops_the_stretched_samples():
    # One sample of ten stretched tenfold by a context switch, one short.
    samples = [2.0] * 8 + [20.0, 1.0]
    assert trimmed_mean(samples) == 2.0
    assert trimmed_mean([3.0, 5.0]) == 4.0  # too few to cut any
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_reference_speed_scales_by_the_kernel_time():
    # The kernel ran at 1.5x its reference time: the CPU was 1.5x slow.
    assert at_reference_speed(6.0, 0.0003, 0.0002) == pytest.approx(4.0)
    assert at_reference_speed(math.inf, 0.0003, 0.0002) == math.inf
    with pytest.raises(ValueError):
        at_reference_speed(1.0, 0.0, 0.0002)


def test_probe_samples_go_to_memory_and_file(tmp_path):
    path = tmp_path / "probe.txt"
    probe = SpeedProbe(str(path))
    probe._sample(0, None)
    probe._sample(0, None)
    probe.stop()
    (start, seconds), _ = probe.samples
    assert seconds > 0.0
    assert read_samples(str(path)) == probe.samples
    assert probe.between(start, start + 1e-9) == [seconds]
    assert probe.between(start - 2.0, start - 1.0) == []


def test_probe_drops_a_signal_that_arrives_while_it_runs():
    probe = SpeedProbe()
    probe._running = True  # as inside the handler
    probe._sample(0, None)
    assert probe.samples == []


def test_sample_files_skip_a_partial_line_and_keep_the_window(tmp_path):
    (tmp_path / "job.probe-11").write_text("1.0 0.5\n2.0 0.25\n3.0 0.1")
    (tmp_path / "job.probe-12").write_text("2.5 0.75\n")
    (tmp_path / "other-13").write_text("2.5 9.0\n")
    assert read_samples(str(tmp_path / "job.probe-11")) == [(1.0, 0.5), (2.0, 0.25)]
    prefix = str(tmp_path / "job.probe-")
    assert read_worker_samples(prefix, 1.5, 3.0) == [0.25, 0.75]


def test_serve_client_and_daemon_get_separate_cpus():
    import run

    client_cpus, daemon_cpus = run.split_cpus()
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        assert (client_cpus, daemon_cpus) == (None, None)
    else:
        assert len(client_cpus) == 1 and not client_cpus & daemon_cpus
        assert client_cpus | daemon_cpus == cpus


# -- failure accounting ----------------------------------------------------


def test_every_request_sent_is_one_outcome():
    tally = Tally()
    for outcome in ["ok"] * 7 + ["http_error", "timeout", "mismatch", "connect_error"]:
        tally.add(outcome)
    assert tally.sent == 11 and tally.failed == 4
    both = tally.merged(Tally())
    assert both.counts == tally.counts
    with pytest.raises(ValueError):
        tally.add("slow")


def test_client_reports_connect_errors():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens on the port now
    status, body, error = client.call("127.0.0.1", port, b"GET / HTTP/1.1\r\n\r\n",
                                      timeout=2.0)
    assert (status, body, error) == (None, None, "connect_error")
