"""Tests for the binary PGM reader: exact pixels for valid files and a
typed error that names the file for any other bytes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from biaslens.pgm import PGMError, read_pgm, write_pgm

# Each example overwrites one file under the test's tmp_path.
_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

_separators = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# comment\n", b"  ", b""])
_fields = st.one_of(
    st.integers(-3, 6).map(lambda v: str(v).encode()),
    st.sampled_from([b"255", b"65535", b"0255", b"1e3", b"\xb2", b"9" * 40]),
)


@st.composite
def header_like(draw):
    """Bytes after the magic that follow the header grammar closely enough
    to reach the size and pixel checks."""
    parts = [draw(_separators)]
    for _ in range(draw(st.integers(0, 3))):
        parts += [draw(_fields), draw(_separators)]
    return b"".join(parts) + draw(st.binary(max_size=40))


class TestReadPGM:
    @given(tail=st.one_of(st.binary(max_size=64), header_like()))
    @_SETTINGS
    def test_any_bytes_give_an_image_or_an_error_naming_the_file(self, tmp_path, tail):
        path = tmp_path / "fuzz.pgm"
        path.write_bytes(b"P5" + tail)
        try:
            image = read_pgm(path)
        except PGMError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert image.dtype == np.float64 and image.ndim == 2
            assert np.all((image >= 0.0) & (image <= 1.0))

    @given(
        levels=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=6)),
        sep=st.sampled_from([b"\n", b" ", b"\n# made by hand\n"]),
        trailing=st.binary(max_size=4),
    )
    @_SETTINGS
    def test_valid_pixels_are_exact(self, tmp_path, levels, sep, trailing):
        h, w = levels.shape
        path = tmp_path / "ok.pgm"
        header = b"P5" + sep + f"{w} {h}".encode() + sep + b"255\n"
        path.write_bytes(header + levels.tobytes() + trailing)
        image = read_pgm(path)
        assert image.tobytes() == (levels.astype(np.float64) / 255.0).tobytes()

    def test_write_then_read_round_trips_the_levels(self, tmp_path, rng):
        image = rng.random((5, 7))
        path = tmp_path / "rt.pgm"
        write_pgm(image, path)
        expected = np.clip(np.rint(image * 255.0), 0, 255) / 255.0
        assert read_pgm(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5", "truncated header"),
            (b"P5\n2 2\n255\n\x00", "truncated pixel data"),
            (b"P5\n-1 -1\n255\n\x00\x00\x00\x00", "bad header field b'-1'"),
            (b"P5\n2 2\n65535\n" + bytes(8), "unsupported maxval 65535 (expected 255)"),
            (b"P6\n2 2\n255\n" + bytes(12), "not a binary PGM (P5) file"),
        ],
    )
    def test_malformed_files_name_the_path(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(PGMError) as err:
            read_pgm(path)
        assert str(err.value) == f"{path}: {message}"
