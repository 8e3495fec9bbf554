"""One search pass as one array program, against the lane-by-lane oracle.

``repro.gpu.autotune._search`` runs a pass's sweeps in lockstep: it orders
each sweep's candidates by the dense rank of their block's bound, prices
each round as one masked batch and keeps the incumbents as arrays.
``tests/autotune_oracle.py::search_by_lanes`` runs the same pass a lane
object per sweep, each with its own float argsort.  On random GEMM
batches the two must return equal ``AutotuneResult`` lists, tallies
included, and the same errors: with a coarsened lower bound that ties
many blocks, with quarantined candidates on some sweeps of a pass only,
and under the canned chaos plan and a permanent-fault plan.
"""

import importlib

import numpy as np
import pytest

from repro.errors import AutotuneError
from repro.gpu.device import TU102
from repro.resilience.chaos import CANNED_SEED, CANNED_SPEC
from repro.resilience.faults import fault_plan
from repro.types import GemmShape

from .autotune_oracle import search_by_lanes

# the module, not the package's ``autotune`` function of the same name
autotune_mod = importlib.import_module("repro.gpu.autotune")

_KWARGS = [
    {},
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
]

#: (first round, later rounds): the engine's, and narrow ones that take
#: a sweep through many rounds
_WIDTHS = [(64, 2048), (5, 37)]


@pytest.fixture(autouse=True)
def _clean(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RETRY", "3")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    autotune_mod.clear_cache()
    with fault_plan(None):
        yield
    autotune_mod.clear_cache()


def _random_pass(seed):
    """Up to 20 GEMMs, log-uniform dimensions, a repeated one sometimes;
    a width and kwargs."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 21))
    dims = np.exp2(rng.uniform(0, [17, 13, 12], size=(count, 3))).astype(int)
    gemms = [GemmShape(*(int(v) for v in row)) for row in dims]
    if count > 2 and rng.random() < 0.5:
        gemms[-1] = gemms[0]
    bits = int(rng.choice([4, 8]))
    return gemms, bits, _KWARGS[int(rng.integers(len(_KWARGS)))], rng


def _both(gemms, bits, kwargs, before=lambda: None):
    """The pass through the engine and through the oracle, each after
    ``before`` set up the same process state."""
    space = autotune_mod._legal_candidates(bits, TU102)
    out = []
    for search in (autotune_mod._search, search_by_lanes):
        before()
        out.append(search(gemms, bits, *space, TU102, kwargs))
    return out


def _assert_same(engine, oracle):
    assert len(engine) == len(oracle)
    for res, ref in zip(engine, oracle):
        if isinstance(ref, AutotuneError):
            assert type(res) is AutotuneError and str(res) == str(ref)
        else:
            assert res == ref
            assert res.evaluated + res.pruned + res.skipped == res.candidates


def _coarse(monkeypatch):
    """An admissible bound that ties many blocks: the engine's, rounded
    down to a power of two."""
    bound = autotune_mod.kernel_lower_bound
    monkeypatch.setattr(
        autotune_mod, "kernel_lower_bound",
        lambda *args, **kwargs: np.exp2(np.floor(np.log2(bound(*args, **kwargs)))))


@pytest.mark.parametrize("coarse", [False, True], ids=["bound", "coarse"])
@pytest.mark.parametrize("widths", _WIDTHS, ids=["engine", "narrow"])
@pytest.mark.parametrize("seed", range(6))
def test_tied_blocks_order_as_a_stable_float_sort(seed, widths, coarse, monkeypatch):
    """With the engine's bound, which many candidates meet exactly (the
    incumbent's block-mates when it is bandwidth-bound), and with a
    coarsened one that leaves few distinct bounds per shape, the rank
    order, the pruning and the tallies equal the lane search's, also when
    narrow windows take a sweep through three rounds or more."""
    gemms, bits, kwargs, _ = _random_pass(seed)
    if coarse:
        _coarse(monkeypatch)
    monkeypatch.setattr(autotune_mod, "_VEC_CHUNK_INIT", widths[0])
    monkeypatch.setattr(autotune_mod, "_VEC_CHUNK", widths[1])
    engine, oracle = _both(gemms, bits, kwargs)
    _assert_same(engine, oracle)
    if coarse and widths != _WIDTHS[0]:
        assert max(r.evaluated for r in engine) > sum(widths)


@pytest.mark.parametrize("widths", _WIDTHS, ids=["engine", "narrow"])
@pytest.mark.parametrize("seed", range(6))
def test_quarantine_on_some_sweeps_of_a_pass(seed, widths, monkeypatch):
    """Quarantined candidates on the even sweeps of a pass (every one of
    the third sweep's, which then has no survivor) are skipped, not
    priced, and the odd sweeps search their whole space."""
    gemms, bits, kwargs, rng = _random_pass(100 + seed)
    gemms = list(dict.fromkeys(gemms))  # a quarantine key names one shape
    _coarse(monkeypatch)
    monkeypatch.setattr(autotune_mod, "_VEC_CHUNK_INIT", widths[0])
    monkeypatch.setattr(autotune_mod, "_VEC_CHUNK", widths[1])
    space = autotune_mod._legal_candidates(bits, TU102)[0]
    lost = [space if n == 2 else space[int(rng.integers(9))::int(rng.integers(2, 9))]
            if n % 2 == 0 else [] for n in range(len(gemms))]
    quarantine = autotune_mod.profile_quarantine()

    def before():
        quarantine.clear()
        for gemm, tilings in zip(gemms, lost):
            for t in tilings:
                quarantine.add(autotune_mod._candidate_key(gemm, bits, t), reason="test")

    engine, oracle = _both(gemms, bits, kwargs, before)
    _assert_same(engine, oracle)
    for res, tilings in zip(engine, lost):
        if len(tilings) == len(space):
            assert isinstance(res, AutotuneError)
        else:
            assert res.skipped == len(tilings)


@pytest.mark.parametrize("plan", [
    (CANNED_SPEC, "3"),
    ("autotune.profile:raise:0.2:0", "1"),
], ids=["canned", "permanent"])
@pytest.mark.parametrize("seed", range(4))
def test_fault_plans_route_the_same_candidates(seed, plan, monkeypatch):
    """Fault-selected candidates go through the guarded profile in both
    searches: transient faults (the canned plan, absorbed by 3 retries)
    change nothing, and permanent ones skip the same candidates."""
    spec, retries = plan
    gemms, bits, kwargs, _ = _random_pass(200 + seed)
    gemms = list(dict.fromkeys(gemms))
    monkeypatch.setenv("REPRO_RETRY", retries)
    out = []
    for search in (autotune_mod._search, search_by_lanes):
        autotune_mod.profile_quarantine().clear()
        with fault_plan(spec, seed=CANNED_SEED) as active:
            out.append(search(gemms, bits, *autotune_mod._legal_candidates(bits, TU102),
                              TU102, kwargs))
        assert active.total_injected() > 0
    _assert_same(*out)
    skipped = sum(r.skipped for r in out[0])
    assert (skipped > 0) == (spec != CANNED_SPEC)
