# module: repro.fleet.fixture
import time

from repro.fleet.rollup import deterministic_view


def snapshot(rollup):
    started = time.perf_counter()
    payload = {"latency_ms": started, "frames": 3}
    return deterministic_view(payload)
