import numpy as np
import pytest

import hardyzeta
from hardyzeta.errors import DomainError
from hardyzeta.output import emit_spiral_svg, format_sig, sig, write_spiral_csv
from hardyzeta.zetaeval import SpiralPath, dirichlet_partial_sums


def _path_from(points):
    pts = np.asarray(points, dtype=complex)
    mids = 0.5 * (pts[:-1] + pts[1:]) if len(pts) > 1 else np.array([],
                                                                    dtype=complex)
    return SpiralPath(points=pts, midpoints=mids)


class TestRounding:
    def test_sig_digits(self):
        assert sig(1.23456789012345e-3, 6) == 1.23457e-3
        assert sig(0.0) == 0.0
        assert sig(-0.0) == 0.0

    def test_format_sig(self):
        assert format_sig(2.0) == "2"
        assert format_sig(-0.0) == "0"
        assert len(format_sig(1.0 / 3.0).replace("0.", "")) == 15


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        path = dirichlet_partial_sums(complex(0.5, 30.0), 10)
        out = tmp_path / "spiral.csv"
        write_spiral_csv(path, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,re,im"
        assert len(lines) == 11
        n, re, im = lines[3].split(",")
        assert n == "3"
        float(re), float(im)


class TestSvg:
    def test_two_point_path(self, tmp_path):
        out = tmp_path / "two.svg"
        emit_spiral_svg(_path_from([0.0 + 0.0j, 1.0 + 1.0j]), out)
        text = out.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text
        assert "viewBox" in text
        polylines = [ln for ln in text.splitlines() if "<polyline" in ln]
        assert len(polylines) == 2
        # primary: two points; secondary: empty (one midpoint cannot form
        # a segment)
        assert polylines[0].count(",") == 2
        assert 'points=""' in polylines[1]

    def test_fifty_point_structure(self, tmp_path):
        out = tmp_path / "fifty.svg"
        path = dirichlet_partial_sums(complex(0.5, 30.0), 50)
        emit_spiral_svg(path, out)
        polylines = [ln for ln in out.read_text().splitlines()
                     if "<polyline" in ln]
        primary_pts = polylines[0].split('points="')[1].split('"')[0].split()
        secondary_pts = polylines[1].split('points="')[1].split('"')[0].split()
        assert len(primary_pts) == 50
        assert len(secondary_pts) == 49

    def test_degenerate_repeated_points(self, tmp_path):
        out = tmp_path / "degenerate.svg"
        emit_spiral_svg(_path_from([1.0 + 1.0j, 1.0 + 1.0j, 2.0 + 0.0j]), out)
        assert "<svg" in out.read_text()

    def test_single_point_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_spiral_svg(_path_from([1.0 + 0.0j]), tmp_path / "one.svg")


def test_public_names_resolve():
    for name in hardyzeta.__all__:
        assert hasattr(hardyzeta, name), name
