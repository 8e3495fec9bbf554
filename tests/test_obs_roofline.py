"""Roofline analytics: backend hooks, derived metrics, renderers.

The physical invariants under test: achieved throughput never beats the
roof by construction of the cost models' own peaks, intensity comes from
the backends' declared traffic, the CAL/LD improvement reproduces the
Fig. 1 ~4x claim, and the chain-overhead fraction falls with chain
length (8-bit pays the most, 4-bit the least among SMLAL widths).
"""

import pytest

from repro.backends import available_backends, get_backend
from repro.errors import ReproError
from repro.models import get_model_layers
from repro.obs import metrics as obs_metrics
from repro.obs import roofline
from repro.obs.htmlreport import render_report
from repro.types import GemmShape


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


def test_backend_hooks_exist_everywhere():
    spec = get_model_layers("resnet50")[0]
    for name in available_backends():
        be = get_backend(name)
        bits = roofline.DEFAULT_BITS.get(name, (8,))[0]
        assert be.peak_ops_per_sec(bits) > 0
        assert be.peak_bandwidth_bytes_per_sec() > 0
        traffic = be.conv_traffic(spec, bits)
        assert traffic["total"] > 0
        # "total" covers at least the compulsory streams listed beside it
        assert traffic["total"] >= max(
            v for k, v in traffic.items() if k != "total")


def test_base_backend_hooks_raise_repro_error():
    from repro.backends.base import Backend

    class Bare(Backend):
        name = "bare"
        display_name = "Bare"
        clock_hz = 1e9

        def price_conv(self, spec, bits, **kw):  # pragma: no cover
            raise NotImplementedError

        def price_elementwise(self, n):  # pragma: no cover
            raise NotImplementedError

    be = Bare()
    spec = get_model_layers("resnet50")[0]
    for call in (lambda: be.peak_ops_per_sec(8),
                 lambda: be.peak_bandwidth_bytes_per_sec(),
                 lambda: be.conv_traffic(spec, 8)):
        with pytest.raises(ReproError):
            call()


@pytest.mark.parametrize("backend_name", ["arm", "gpu", "ref"])
def test_model_roofline_points_respect_the_roof(backend_name):
    points = roofline.model_roofline("resnet50", backend_name)
    layers = get_model_layers("resnet50")
    bits = roofline.DEFAULT_BITS[backend_name]
    assert len(points) == len(layers) * len(bits)
    for p in points:
        assert p.intensity > 0
        assert 0 < p.achieved_ops <= p.roof_ops * (1 + 1e-9), p
        assert p.roof_ops == min(p.peak_compute_ops,
                                 p.peak_bandwidth * p.intensity)
        assert p.bound in ("compute", "memory")
        assert 0 < p.pct_of_roof <= 1 + 1e-9


def test_roofline_registers_gauges():
    roofline.model_roofline("resnet50", "ref")
    gauges = obs_metrics.snapshot()["gauges"]
    assert any(k.startswith("roofline_intensity{") for k in gauges)
    assert any(k.startswith("roofline_pct_of_roof{") for k in gauges)


def test_arm_peak_tracks_bit_width():
    """2-bit runs on the MLA scheme (8 MACs/cycle) — twice the SMLAL
    widths' compute roof; the memory roof is bit-width independent."""
    arm = get_backend("arm")
    assert arm.peak_ops_per_sec(2) == pytest.approx(
        2 * arm.peak_ops_per_sec(4))
    assert arm.peak_ops_per_sec(4) == arm.peak_ops_per_sec(8)


def test_gpu_peak_tracks_mac_rate():
    gpu = get_backend("gpu")
    assert gpu.peak_ops_per_sec(4) == pytest.approx(
        2 * gpu.peak_ops_per_sec(8))


def test_cal_ld_reproduces_the_4x_claim():
    table = roofline.model_cal_ld("resnet50")
    assert len(table) == len(get_model_layers("resnet50"))
    for row in table:
        assert row["improvement"] == pytest.approx(4.0, rel=0.35)
        assert row["redesigned"] > row["traditional"]
    gauges = obs_metrics.snapshot()["gauges"]
    assert any(k.startswith("gemm_cal_ld_improvement{") for k in gauges)


def test_cal_ld_point_without_layer_sets_no_gauges():
    roofline.cal_ld_point(GemmShape(m=64, k=576, n=3136))
    assert not obs_metrics.snapshot()["gauges"]


def test_chain_overhead_falls_with_chain_length():
    table = {row["bits"]: row for row in roofline.chain_overhead_table()}
    assert set(table) == {2, 3, 4, 5, 6, 7, 8}
    for row in table.values():
        assert 0 < row["fraction"] < 0.5
        assert row["widen_cycles"] < row["busy_cycles"]
    # among the SMLAL widths the short 8-bit chain drains ~256x more
    # often than 4-bit, so its widening share must dominate
    assert table[8]["fraction"] > table[6]["fraction"] > table[4]["fraction"]
    assert table[4]["chain"] == 511 and table[8]["chain"] == 2


def test_text_renderers_cover_every_point():
    points = roofline.model_roofline("resnet50", "ref")
    lines = roofline.roofline_table(points)
    assert len(lines) == len(points) + 1  # header + one row each
    assert "bound" in lines[0]
    plot = roofline.ascii_roofline(points)
    assert any("-" in ln for ln in plot)  # the flat compute roof
    assert any("8" in ln for ln in plot[1:-2])  # the 8-bit points
    assert roofline.roofline_table([]) == ["  (no roofline points)"]


def test_html_report_is_self_contained():
    text = render_report(model="resnet50", backends=("ref",))
    assert text.startswith("<!doctype html>")
    for forbidden in ("<script", "http://", "https://", "url("):
        assert forbidden not in text
    assert text.count("<svg") >= 2  # roofline scatter + chain bars
    assert "data table" in text  # the accessibility/table view
    assert "4" in text and "CAL/LD" in text
