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
does not include).  Helper views:

* :meth:`service` — total time to run one batch of ``b``;
* :meth:`per_image` — amortized per-image cost at batch ``b``, the
  quantity batching exists to minimize;
* :meth:`best_batch` — the batch size (<= a cap) with the lowest
  per-image cost, i.e. where the efficiency curve bottoms out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..backends import get_backend
from ..errors import ReproError
from ..models import get_model_layers
from ..obs import log as obs_log


@dataclass(frozen=True)
class CostTable:
    """Priced service time of one (backend, model, bits) per batch size."""

    backend: str
    model: str
    bits: int
    #: full-model service microseconds, indexed ``[batch-1]``
    service_us: Tuple[float, ...]
    #: fixed per-dispatch overhead added to every batch
    overhead_us: float = 0.0

    @property
    def max_batch(self) -> int:
        return len(self.service_us)

    def service(self, batch: int) -> float:
        """Microseconds to serve one batch of ``batch`` images."""
        if not 1 <= batch <= self.max_batch:
            raise ReproError(
                f"batch {batch} outside table range 1..{self.max_batch}")
        return self.service_us[batch - 1] + self.overhead_us

    def per_image(self, batch: int) -> float:
        return self.service(batch) / batch

    def best_batch(self, cap: int | None = None) -> int:
        """Batch size with the lowest per-image cost (ties: smallest)."""
        hi = self.max_batch if cap is None else max(1, min(cap, self.max_batch))
        return min(range(1, hi + 1), key=lambda b: (self.per_image(b), b))

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
            per_image_best_us=round(table.per_image(table.best_batch()), 2),
            best_batch=table.best_batch(),
        )
        return table
