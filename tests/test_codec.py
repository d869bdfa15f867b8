"""Tests for the wire codec and transfer-cost model."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.nn import build_hashtag_rnn
from repro.server.codec import EncodedBlob, TransferCostModel, VectorCodec


class TestVectorCodec:
    def test_lossless_f64_roundtrip(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=1000)
        codec = VectorCodec(precision="f64")
        assert np.array_equal(codec.decode(codec.encode(vec)), vec)

    def test_f16_quantization_error_bounded(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=1000)
        codec = VectorCodec(precision="f16")
        assert codec.roundtrip_error(vec) < 1e-2

    def test_f32_much_tighter_than_f16(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=1000)
        err32 = VectorCodec(precision="f32").roundtrip_error(vec)
        err16 = VectorCodec(precision="f16").roundtrip_error(vec)
        assert err32 < err16 / 100

    def test_compression_shrinks_redundant_payloads(self):
        vec = np.zeros(10_000)
        blob = VectorCodec(precision="f32").encode(vec)
        assert blob.wire_bytes < 10_000 * 4 / 10

    def test_quantization_halves_wire_size(self):
        rng = np.random.default_rng(3)
        vec = rng.normal(size=20_000)   # incompressible noise
        b64 = VectorCodec(precision="f64", compression_level=1).encode(vec)
        b16 = VectorCodec(precision="f16", compression_level=1).encode(vec)
        assert b16.wire_bytes < b64.wire_bytes / 3

    def test_metadata(self):
        blob = VectorCodec(precision="f32").encode(np.ones(7))
        assert blob.length == 7
        assert blob.dtype == "f32"

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorCodec(precision="f8")
        with pytest.raises(ValueError):
            VectorCodec(compression_level=10)

    def test_corrupted_length_detected(self):
        codec = VectorCodec(precision="f32")
        blob = codec.encode(np.ones(5))
        bad = EncodedBlob(payload=blob.payload, dtype=blob.dtype, length=6)
        with pytest.raises(ValueError):
            codec.decode(bad)

    @pytest.mark.parametrize("level", [0, 6])
    @pytest.mark.parametrize("precision", ["f64", "f32", "f16"])
    def test_bounded_inflate_roundtrips_exactly(self, precision, level):
        """The bounded inflate decodes every valid blob to the same bits
        an unbounded ``zlib.decompress`` does, across sizes that span
        several stored blocks."""
        rng = np.random.default_rng(6)
        codec = VectorCodec(precision=precision, compression_level=level)
        dtype = VectorCodec._DTYPES[precision]
        for size in (0, 1, 7, 40_000):
            vec = rng.normal(size=size)
            blob = codec.encode(vec)
            decoded = codec.decode(blob)
            reference = np.frombuffer(zlib.decompress(blob.payload), dtype=dtype)
            assert decoded.dtype == np.float64
            assert decoded.tobytes() == reference.astype(np.float64).tobytes()
            assert decoded.tobytes() == vec.astype(dtype).astype(np.float64).tobytes()

    def test_overlong_and_truncated_streams_rejected(self):
        codec = VectorCodec(precision="f32", compression_level=0)
        blob = codec.encode(np.ones(5))
        with pytest.raises(ValueError):  # inflates past 4 declared elements
            codec.decode(EncodedBlob(payload=blob.payload, dtype="f32", length=4))
        with pytest.raises(ValueError):  # stream cut before its end marker
            codec.decode(EncodedBlob(payload=blob.payload[:-5], dtype="f32", length=5))

    def test_decompression_bomb_rejected_in_bounded_memory(
        self, deflate_bomb, traced_peak
    ):
        """256 MiB of zeros declared as 4 f32 elements: rejected after
        inflating at most 17 bytes, never materialised."""
        blob = EncodedBlob(payload=deflate_bomb, dtype="f32", length=4)
        with traced_peak() as trace, pytest.raises(ValueError):
            VectorCodec(precision="f32").decode(blob)
        assert trace.peak < 1 << 20


class TestTransferCostModel:
    def test_paper_model_size_on_4g(self):
        """The paper estimates 1.1 s on 4G for moving the 123 k-parameter
        model down and the gradient up; our codec + cost model should land
        in the same ballpark."""
        model = build_hashtag_rnn(np.random.default_rng(0))
        codec = VectorCodec(precision="f32", compression_level=1)
        blob = codec.encode(model.get_parameters())
        cost = TransferCostModel(throughput_mbps=12.0, rtt_s=0.05)
        seconds = cost.round_trip_seconds(blob.wire_bytes, blob.wire_bytes)
        assert 0.2 < seconds < 3.0

    def test_3g_slower_than_4g(self):
        fast = TransferCostModel(throughput_mbps=12.0)
        slow = TransferCostModel(throughput_mbps=3.0)
        assert slow.seconds(1_000_000) > fast.seconds(1_000_000)

    def test_rtt_floor(self):
        cost = TransferCostModel(throughput_mbps=10.0, rtt_s=0.2)
        assert cost.seconds(0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferCostModel(throughput_mbps=0.0)
        with pytest.raises(ValueError):
            TransferCostModel(rtt_s=-1.0)
        with pytest.raises(ValueError):
            TransferCostModel().seconds(-1)
