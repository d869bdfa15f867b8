"""Wire codec for model and gradient transfer.

The paper's implementation moves Kryo- and Gzip-encoded blobs between the
server and Android workers (§2.4) and notes that model-transfer network
costs matter for Online FL's round-trip latency.  This module provides the
equivalent substrate: parameter vectors are optionally quantized to float16
and deflate-compressed, and a transfer-cost model converts wire sizes into
4G/3G seconds so the simulation can charge realistic network latency.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["EncodedBlob", "VectorCodec", "TransferCostModel"]

# Typical sustained throughputs used by the paper's latency estimate (§3.1).
THROUGHPUT_4G_MBPS = 12.0
THROUGHPUT_3G_MBPS = 3.0


@dataclass(frozen=True)
class EncodedBlob:
    """A compressed parameter/gradient payload plus its metadata."""

    payload: bytes
    dtype: str
    length: int

    @property
    def wire_bytes(self) -> int:
        return len(self.payload)


class VectorCodec:
    """Quantize + compress flat vectors for transfer.

    ``precision`` of "f64" keeps exact doubles; "f32"/"f16" quantize, which
    is lossy but sufficient for gradient transfer (the paper's C++ worker
    also exchanges single-precision tensors).
    """

    _DTYPES = {"f64": np.float64, "f32": np.float32, "f16": np.float16}

    def __init__(self, precision: str = "f32", compression_level: int = 6) -> None:
        if precision not in self._DTYPES:
            raise ValueError(f"precision must be one of {sorted(self._DTYPES)}")
        if not 0 <= compression_level <= 9:
            raise ValueError("compression_level must be in [0, 9]")
        self.precision = precision
        self.compression_level = compression_level

    def encode(self, vector: np.ndarray) -> EncodedBlob:
        """Quantize and deflate a flat vector."""
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        quantized = vector.astype(self._DTYPES[self.precision])
        payload = zlib.compress(quantized.tobytes(), self.compression_level)
        return EncodedBlob(payload=payload, dtype=self.precision, length=vector.size)

    def decode(self, blob: EncodedBlob) -> np.ndarray:
        """Inverse of :meth:`encode` (up to quantization).

        Inflation stops one byte past the size ``blob.length`` declares,
        so a decompression bomb costs at most that much memory before it
        is rejected with ``ValueError``.
        """
        dtype = self._DTYPES[blob.dtype]
        expected = blob.length * np.dtype(dtype).itemsize
        inflater = zlib.decompressobj()
        raw = inflater.decompress(blob.payload, expected + 1)
        if len(raw) > expected:
            raise ValueError("blob inflates past its declared length")
        if not inflater.eof:
            raise ValueError("incomplete or truncated deflate stream")
        if len(raw) != expected:
            raise ValueError("decoded length does not match blob metadata")
        return np.frombuffer(raw, dtype=dtype).astype(np.float64)

    def roundtrip_error(self, vector: np.ndarray) -> float:
        """Max abs quantization error of an encode/decode round trip."""
        decoded = self.decode(self.encode(vector))
        return float(np.abs(decoded - np.asarray(vector, dtype=np.float64)).max())


class TransferCostModel:
    """Seconds to move a blob over a mobile network."""

    def __init__(
        self,
        throughput_mbps: float = THROUGHPUT_4G_MBPS,
        rtt_s: float = 0.05,
    ) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput must be positive")
        if rtt_s < 0:
            raise ValueError("rtt must be non-negative")
        self.throughput_mbps = throughput_mbps
        self.rtt_s = rtt_s

    def seconds(self, wire_bytes: int) -> float:
        """One-way transfer time for a payload of ``wire_bytes``."""
        if wire_bytes < 0:
            raise ValueError("wire_bytes must be non-negative")
        bits = wire_bytes * 8.0
        return self.rtt_s + bits / (self.throughput_mbps * 1e6)

    def round_trip_seconds(self, down_bytes: int, up_bytes: int) -> float:
        """Model pull + gradient push (the paper's 1.1 s / 3.8 s figures
        correspond to a ~123 k-parameter model on 4G / 3G)."""
        return self.seconds(down_bytes) + self.seconds(up_bytes)
