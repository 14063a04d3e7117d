"""Gate-trace SVG rendering: determinism and structural content."""

import numpy as np
import pytest

from gatedfusion.analysis import GateTrace
from gatedfusion.errors import ConfigError
from gatedfusion.plots import export_trace_plot, render_trace_svg
from gatedfusion.synth import Sample


def demo_trace(with_channels=True):
    rng = np.random.default_rng(0)
    kw = {}
    if with_channels:
        kw = dict(energy=1.0 - 0.5 * np.array([1.0, 0, 0, 1, 0, 0]),
                  negative_token_flags=np.array([0, 1, 0, 1]),
                  diagnostic_flags_a=np.array([1, 0, 0, 1, 0, 0]),
                  diagnostic_flags_t=np.array([0, 1, 0, 1]))
    sample = Sample(3, 1, np.zeros((6, 1)), np.zeros((4, 1)), **kw)
    return GateTrace(sample, rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.9, 4))


class TestRender:
    def test_well_formed_and_deterministic(self):
        s1 = render_trace_svg(demo_trace())
        s2 = render_trace_svg(demo_trace())
        assert s1 == s2
        assert s1.startswith("<svg") and s1.rstrip().endswith("</svg>")

    def test_parses_as_xml(self):
        import xml.etree.ElementTree as ET

        root = ET.fromstring(render_trace_svg(demo_trace()))
        assert root.tag.endswith("svg")

    def test_one_heatmap_cell_per_token(self):
        svg = render_trace_svg(demo_trace(with_channels=False))
        assert svg.count("rgb(") == 4

    def test_negative_tokens_outlined(self):
        svg = render_trace_svg(demo_trace())
        assert svg.count("#c92a2a") == 2

    def test_low_energy_frames_shaded(self):
        svg = render_trace_svg(demo_trace())
        assert svg.count("#cfe2ff") == 2  # two frames below mean energy

    def test_overlays_absent_without_side_channels(self):
        svg = render_trace_svg(demo_trace(with_channels=False))
        assert "#cfe2ff" not in svg and "#c92a2a" not in svg
        assert "#d9480f" in svg  # gate curve always drawn

    def test_single_frame_trace(self):
        tr = GateTrace(Sample(0, 0, np.zeros((1, 1)), np.zeros((1, 1))), np.array([0.5]), np.array([0.5]))
        assert "NaN" not in render_trace_svg(tr)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            render_trace_svg(GateTrace(Sample(0, 0, np.zeros((0, 1)), np.zeros((1, 1))),
                                       np.array([]), np.array([0.5])))


class TestExport:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "trace.svg"
        export_trace_plot(demo_trace(), str(path))
        assert path.read_text() == render_trace_svg(demo_trace())

    def test_unwritable_path_raises_typed(self, tmp_path):
        with pytest.raises(ConfigError):
            export_trace_plot(demo_trace(), str(tmp_path / "no" / "dir" / "t.svg"))
