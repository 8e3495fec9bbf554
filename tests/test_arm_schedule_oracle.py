"""The fast-forwarding scheduler equals the per-instruction oracle.

:meth:`PipelineModel.schedule` skips whole periods of a loop program at
once; on every generated micro-kernel it must return exactly the
:class:`PipelineResult` that :func:`tests.pipeline_oracle.schedule_reference`
gets by walking each instruction of the flattened stream.
"""

import pytest

from repro.arm.kernels import (
    generate_mla_kernel,
    generate_ncnn_kernel,
    generate_popcount_kernel,
    generate_sdot_kernel,
    generate_smlal_kernel,
)
from repro.arm.loops import flatten
from repro.arm.pipeline import PipelineModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from .pipeline_oracle import schedule_reference

#: around every drain interval (2, 7, 8, 31, 32, 127, 511) and past the
#: exact-scheduling limit of the cost model (512)
KS = (1, 2, 3, 7, 31, 64, 127, 128, 333, 511, 512, 513)


def _generators():
    for interleave in (True, False):
        for bits in (4, 5, 6, 7, 8):
            yield (f"smlal{bits}-il{int(interleave)}",
                   lambda k, b=bits, il=interleave: generate_smlal_kernel(b, k, interleave=il))
        # the shorter drain intervals the winograd path schedules
        for bits, steps in ((4, 32), (5, 14), (6, 3)):
            yield (f"smlal{bits}-rs{steps}-il{int(interleave)}",
                   lambda k, b=bits, s=steps, il=interleave: generate_smlal_kernel(
                       b, k, interleave=il, round_steps=s))
        for bits in (2, 3):
            yield (f"mla{bits}-il{int(interleave)}",
                   lambda k, b=bits, il=interleave: generate_mla_kernel(b, k, interleave=il))
        yield (f"ncnn8-il{int(interleave)}",
               lambda k, il=interleave: generate_ncnn_kernel(k, interleave=il))
        yield (f"sdot8-il{int(interleave)}",
               lambda k, il=interleave: generate_sdot_kernel(k, interleave=il))
    yield "popcount2", generate_popcount_kernel


_GENERATORS = dict(_generators())


def assert_same_schedule(program):
    got = PipelineModel().schedule(program).to_json()
    assert got == schedule_reference(flatten(program)).to_json()


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_generated_streams_schedule_as_the_oracle(name):
    for k in KS:
        assert_same_schedule(_GENERATORS[name](k).code)


def test_empty_stream_schedules_as_the_oracle():
    assert_same_schedule(())
    assert PipelineModel().schedule(iter(())).to_json() == schedule_reference(()).to_json()


def test_traced_schedule_counts_fast_forwarded_instructions():
    kern = generate_smlal_kernel(8, 1024)
    streams = obs_metrics.counter("arm_pipeline_streams")
    instructions = obs_metrics.counter("arm_pipeline_instructions")
    before = streams.value, instructions.value
    with obs_trace.capture():
        PipelineModel().schedule(kern.code)
    assert streams.value - before[0] == 1
    assert instructions.value - before[1] == len(kern.stream)


def test_one_shot_iterators_schedule_as_their_tuple():
    """Objects made on the fly may be freed and their ids reused; the
    scheduler keeps them alive, so they decode like the stored stream."""
    stream = generate_smlal_kernel(8, 64).stream
    rebuilt = (type(ins)(ins.op, ins.dst, ins.src, ins.mem, ins.lane, ins.imm)
               for ins in stream)
    assert PipelineModel().schedule(rebuilt) == schedule_reference(stream)
