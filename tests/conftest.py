"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import tracemalloc
import zlib
from collections.abc import Iterator

import numpy as np
import pytest

from repro.data.synthetic_images import make_image_dataset
from repro.devices import SimulatedDevice, get_spec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dataset():
    """A fast 6-class dataset for convergence smoke tests."""
    return make_image_dataset(
        num_classes=6,
        channels=1,
        side=12,
        train_per_class=30,
        test_per_class=10,
        seed=7,
        name="tiny",
    )


@pytest.fixture
def galaxy_s7(rng) -> SimulatedDevice:
    return SimulatedDevice(get_spec("Galaxy S7"), rng)


@pytest.fixture(scope="session")
def deflate_bomb() -> bytes:
    """~261 KB of deflate that inflates to 256 MiB of zeros.

    Built a MiB at a time so the test process never holds the inflated
    form; run-length matching keeps the build near a second.
    """
    deflater = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    chunk = bytes(1 << 20)
    return b"".join(deflater.compress(chunk) for _ in range(256)) + deflater.flush()


class TracedMemory:
    """What :func:`traced_peak` saw: ``current()`` while tracing, and the
    ``peak`` of traced allocations once the block has exited."""

    peak = 0

    def current(self) -> int:
        return tracemalloc.get_traced_memory()[0]


@contextlib.contextmanager
def _traced_peak() -> Iterator[TracedMemory]:
    trace = TracedMemory()
    tracemalloc.start()
    try:
        yield trace
    finally:
        trace.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``with traced_peak() as trace:`` traces Python allocations (numpy
    buffers included) for the block; ``trace.peak`` is their high-water
    mark in bytes, counted from the start of the block."""
    return _traced_peak
