"""ParallelRunner determinism and the batched == serial guarantee.

The perf subsystem promises that neither worker count nor batching is
ever observable in results: any ``jobs`` setting must reproduce the
serial loop bit for bit (ordering, tie-breaking, exception choice), and
a batched GPU prewarm must return exactly what one-shape autotune calls
and the reference sweep return.  These tests pin that down at the runner
level and end-to-end through the autotuner and the Fig. 11 figure series.
"""

import time

import pytest

from repro.gpu.autotune import (
    autotune,
    autotune_many,
    autotune_options,
    autotune_reference,
    clear_cache,
)
from repro.perf.cache import CACHE_DIR_ENV
from repro.perf.parallel import JOBS_ENV, ParallelRunner, resolve_jobs
from repro.types import GemmShape


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty persistent store and a fresh memo cache."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# resolve_jobs / runner construction
# ---------------------------------------------------------------------------


def test_resolve_jobs_argument_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_override(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs() == 5
    assert ParallelRunner().jobs == 5


def test_resolve_jobs_bad_env_degrades_to_serial(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "lots")
    assert resolve_jobs() == 1


def test_resolve_jobs_default_is_positive(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs() >= 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-4) == 1


def test_single_job_runs_serial_mode():
    assert ParallelRunner(1).mode == "serial"
    assert ParallelRunner(4, mode="serial").mode == "serial"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ParallelRunner(2, mode="fibers")


# ---------------------------------------------------------------------------
# map semantics
# ---------------------------------------------------------------------------


def _jittered_square(x: int) -> int:
    # later items finish first, exercising the index merge
    time.sleep(0.002 * (3 - x % 4))
    return x * x


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_map_preserves_input_order(jobs):
    items = list(range(23))
    out = ParallelRunner(jobs).map(_jittered_square, items, chunksize=2)
    assert out == [x * x for x in items]


def test_map_empty_and_singleton():
    runner = ParallelRunner(4)
    assert runner.map(lambda x: x + 1, []) == []
    assert runner.map(lambda x: x + 1, [41]) == [42]


def test_map_propagates_lowest_index_exception():
    def boom(x):
        if x in (3, 6):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 3"):
        ParallelRunner(4).map(boom, list(range(8)), chunksize=1)


def test_starmap():
    out = ParallelRunner(2).starmap(lambda a, b: a - b, [(5, 2), (1, 7)])
    assert out == [3, -6]


# ---------------------------------------------------------------------------
# batched == one-shape == reference, end to end
# ---------------------------------------------------------------------------

_SHAPES = [
    GemmShape(3136, 576, 64),   # resnet-ish
    GemmShape(196, 2304, 256),
    GemmShape(37, 123, 211),    # nothing tile-aligned
]


@pytest.mark.parametrize("bits", [8, 4])
def test_autotune_identical_for_any_worker_count(bits, monkeypatch):
    """Property: the batched search returns the *same* AutotuneResult as
    one-shape calls — best tiling, exact cycles and the evaluated/pruned
    tallies — whatever ``REPRO_JOBS`` says, and the winner of the serial
    reference sweep."""
    with autotune_options(persistent=False):
        single = []
        for gemm in _SHAPES:
            clear_cache()
            single.append(autotune(gemm, bits))
        for jobs in ("1", "4"):
            monkeypatch.setenv(JOBS_ENV, jobs)
            clear_cache()
            batched = autotune_many([(gemm, bits, {}) for gemm in _SHAPES])
            assert batched == single
    for gemm, res in zip(_SHAPES, single):
        reference = autotune_reference(gemm, bits)
        assert res.best == reference.best
        assert res.best_perf == reference.best_perf
        assert res.best_cycles == reference.best_cycles


def test_figure_series_identical_for_any_worker_count(monkeypatch):
    """The Fig. 11 series regenerated through the engine — warmed by the
    batched prewarm, or priced one shape at a time with the prewarm off —
    must equal the pre-optimization serial sweep exactly, float for float."""
    from repro.backends.gpu import GpuBackend
    from repro.figures import fig11_gpu_autotune

    def series(data):
        return (data.labels, [(s.name, tuple(s.values)) for s in data.series],
                tuple(data.baseline_times))

    with autotune_options(engine=False):
        base = series(fig11_gpu_autotune("resnet50"))

    for jobs in ("1", "4"):
        monkeypatch.setenv(JOBS_ENV, jobs)
        clear_cache()
        with autotune_options(persistent=False):
            assert series(fig11_gpu_autotune("resnet50")) == base
    monkeypatch.setattr(GpuBackend, "_warm", lambda self, work, jobs: None)
    clear_cache()
    with autotune_options(persistent=False):
        assert series(fig11_gpu_autotune("resnet50")) == base


def test_executor_prewarm_does_not_change_graph_report(monkeypatch):
    """estimate_graph_cycles prewarms first; the report must not depend
    on the worker count."""
    from repro.models import get_model_layers
    from repro.runtime.executor import estimate_graph_cycles
    from repro.runtime.graph import Graph, Op

    ops = []
    for spec in get_model_layers("resnet50")[:4]:
        ops += [
            Op("quantize", {"bits": 4, "scale": 0.05}),
            Op("conv", {"spec": spec, "bits": 4, "epilogue": "requant",
                        "out_scale": 0.1}),
            Op("dequantize", {"scale": 0.1}),
        ]
    graph = Graph(tuple(ops))
    clear_cache()
    serial = estimate_graph_cycles(graph, "gpu", jobs=1)
    clear_cache()
    parallel = estimate_graph_cycles(graph, "gpu", jobs=4)
    assert serial.op_cycles == parallel.op_cycles
    assert serial.total_cycles == parallel.total_cycles
