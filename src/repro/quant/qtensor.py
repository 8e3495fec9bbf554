"""QTensor: a quantized tensor (integer data + scale + bit width)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import QuantizationError
from .ranges import QRange, scheme_qrange
from .schemes import dequantize_linear


def storage_dtype(bits: int) -> np.dtype:
    """Narrowest NumPy dtype that holds ``bits``-wide signed values.

    Everything at or below 8 bits is stored in int8, exactly like the
    paper's kernels (sub-byte values sit one-per-byte in registers; the
    GPU int4 path additionally supports nibble packing, see
    :mod:`repro.gpu.mma`).
    """
    if bits <= 8:
        return np.dtype(np.int8)
    if bits <= 16:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


@dataclass(frozen=True)
class QTensor:
    """Immutable container pairing integer data with quantization metadata.

    Attributes
    ----------
    data:
        Integer array, values within the bit width's scheme range.
    scale:
        Per-tensor scalar or per-channel 1-D array of float scales.
    bits:
        Logical bit width (2..8 for the paper's kernels).
    channel_axis:
        Axis of ``data`` that ``scale`` varies along, or ``None``.
    """

    data: np.ndarray
    scale: np.ndarray
    bits: int
    channel_axis: int | None = None

    def __post_init__(self) -> None:
        qr = self.qrange
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer):
            raise QuantizationError(f"QTensor data must be integer, got {data.dtype}")
        lo, hi = (int(data.min()), int(data.max())) if data.size else (0, 0)
        if not qr.contains(lo, hi):
            raise QuantizationError(
                f"data range [{lo}, {hi}] exceeds {self.bits}-bit scheme range {qr}"
            )
        object.__setattr__(self, "data", data.astype(storage_dtype(self.bits)))
        scale = np.asarray(self.scale, dtype=np.float64)
        if np.any(scale <= 0):
            raise QuantizationError("QTensor scale must be strictly positive")
        if scale.ndim > 1:
            raise QuantizationError("scale must be scalar or 1-D (per-channel)")
        if scale.ndim == 1:
            if self.channel_axis is None:
                raise QuantizationError("per-channel scale requires channel_axis")
            if scale.shape[0] != data.shape[self.channel_axis]:
                raise QuantizationError(
                    f"scale length {scale.shape[0]} != axis size "
                    f"{data.shape[self.channel_axis]}"
                )
        object.__setattr__(self, "scale", scale)

    # ---- views -------------------------------------------------------------

    @property
    def qrange(self) -> QRange:
        return scheme_qrange(self.bits)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_per_channel(self) -> bool:
        return self.scale.ndim == 1

    def dequantize(self) -> np.ndarray:
        """Recover the float values this tensor represents."""
        return dequantize_linear(self.data, self.scale, axis=self.channel_axis)

    def with_data(self, data: np.ndarray) -> "QTensor":
        """Same metadata, different payload (must still be in range)."""
        return QTensor(
            data=data, scale=self.scale, bits=self.bits, channel_axis=self.channel_axis
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "per-channel" if self.is_per_channel else "per-tensor"
        return f"QTensor(shape={self.shape}, bits={self.bits}, {kind})"
