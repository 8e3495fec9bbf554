"""Per-batch service-time tables priced from the backends' cycle models.

Everything the serving layer decides — admission, shedding, batch
sizing, early batch close, brownout degradation — is priced against the
*same* :meth:`Backend.price_conv` cycle curves the rest of the repo
reproduces from the paper, summed over the model's unique conv layers at
each batch size.  That is the point of the exercise: the batcher's
"optimal batch" is whatever batch the measured (simulated) Fig. 10
batch-efficiency curve says amortizes best, not a hand-tuned constant.

A :class:`CostTable` is immutable once built: ``service_us[b-1]`` is the
full-model service time for a batch of ``b`` images, plus a fixed
``overhead_us`` per dispatch (launch/queue overhead the per-conv model
does not include).  Its views are tabulated once, at construction, so
the questions the serving loop asks on every event are index lookups:

* :meth:`service` — total time to run one batch of ``b``;
* :meth:`per_image` — amortized per-image cost at batch ``b``, the
  quantity batching exists to minimize;
* :meth:`best_batch` — the batch size (<= a cap) with the lowest
  per-image cost, i.e. where the efficiency curve bottoms out, and
  :meth:`best_per_image`, the cost there;
* :attr:`CostTable.prefix_max_us` — the slowest batch up to each size,
  which the batcher bisects for the largest batch a deadline affords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from ..backends import get_backend
from ..errors import ReproError
from ..models import get_model_layers
from ..obs import log as obs_log


def _derived():
    """A field computed in ``__post_init__``, outside init, repr and eq."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class CostTable:
    """Priced service time of one (backend, model, bits) per batch size.

    Raises :class:`ReproError` on an empty table, or on a price or an
    overhead that is not a finite time >= 0.
    """

    backend: str
    model: str
    bits: int
    #: full-model service microseconds, indexed ``[batch-1]``
    service_us: Tuple[float, ...]
    #: fixed per-dispatch overhead added to every batch
    overhead_us: float = 0.0
    #: ``prefix_max_us[b-1]`` is the largest :meth:`service` of batches 1..b
    prefix_max_us: Tuple[float, ...] = _derived()
    _service: Tuple[float, ...] = _derived()
    #: ``_best[c-1]`` is :meth:`best_batch` at cap ``c``, and
    #: ``_best_per_image[c-1]`` its per-image cost
    _best: Tuple[int, ...] = _derived()
    _best_per_image: Tuple[float, ...] = _derived()

    def __post_init__(self) -> None:
        if not self.service_us:
            raise ReproError(f"{self.backend} cost table has no batch sizes")
        # `0 <= x < inf` is false for NaN too
        for b, s in enumerate(self.service_us, start=1):
            if not 0 <= s < math.inf:
                raise ReproError(
                    f"{self.backend} cost table: service of batch {b} is {s}, "
                    f"not a finite time >= 0")
        if not 0 <= self.overhead_us < math.inf:
            raise ReproError(
                f"{self.backend} cost table: overhead_us is "
                f"{self.overhead_us}, not a finite time >= 0")
        service = tuple(s + self.overhead_us for s in self.service_us)
        best: List[int] = []
        best_per_image: List[float] = []
        prefix_max: List[float] = []
        for b, s in enumerate(service, start=1):
            # strictly lower, so a tie keeps the smaller batch
            if b == 1 or s / b < best_per_image[-1]:
                best.append(b)
                best_per_image.append(s / b)
            else:
                best.append(best[-1])
                best_per_image.append(best_per_image[-1])
            prefix_max.append(max(prefix_max[-1], s) if prefix_max else s)
        for name, table in (("_service", service), ("_best", best),
                            ("_best_per_image", best_per_image),
                            ("prefix_max_us", prefix_max)):
            object.__setattr__(self, name, tuple(table))

    @property
    def max_batch(self) -> int:
        return len(self.service_us)

    def service(self, batch: int) -> float:
        """Microseconds to serve one batch of ``batch`` images."""
        if not 1 <= batch <= len(self._service):
            raise ReproError(
                f"batch {batch} outside table range 1..{self.max_batch}")
        return self._service[batch - 1]

    def per_image(self, batch: int) -> float:
        return self.service(batch) / batch

    def _cap_index(self, cap: "int | None") -> int:
        return -1 if cap is None else max(1, min(cap, len(self._best))) - 1

    def best_batch(self, cap: int | None = None) -> int:
        """Batch size with the lowest per-image cost (ties: smallest)."""
        return self._best[self._cap_index(cap)]

    def best_per_image(self, cap: int | None = None) -> float:
        """``per_image(best_batch(cap))``."""
        return self._best_per_image[self._cap_index(cap)]

    @classmethod
    def build(
        cls,
        backend: str,
        model: str = "resnet50",
        *,
        bits: int = 4,
        max_batch: int = 16,
        overhead_us: float = 0.0,
    ) -> "CostTable":
        """Price the full model at every batch size ``1..max_batch``.

        Prewarms the backend's memo caches across all (spec, batch)
        combinations first (best-effort; batched autotune sweeps on gpu),
        then sums the serial re-read — the same warm-then-read pattern the
        figure sweeps use, so a 16-entry gpu table costs well under 1 s.
        """
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        be = get_backend(backend)
        layers = get_model_layers(model, batch=1)
        work = [
            (spec.with_batch(b), bits, None)
            for b in range(1, max_batch + 1)
            for spec in layers
        ]
        be.prewarm(work)
        service = []
        for b in range(1, max_batch + 1):
            total_s = sum(
                be.price_conv(spec.with_batch(b), bits).seconds
                for spec in layers)
            service.append(total_s * 1e6)
        table = cls(
            backend=backend, model=model, bits=bits,
            service_us=tuple(service), overhead_us=overhead_us)
        obs_log.info(
            "cost_table_built", logger="repro.serve.cost",
            backend=backend, model=model, bits=bits, max_batch=max_batch,
            b1_us=round(service[0], 2),
            per_image_best_us=round(table.best_per_image(), 2),
            best_batch=table.best_batch(),
        )
        return table
