"""Tests for domain types, centering, and matrix I/O."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlunmix.core import (
    AbundanceMatrix,
    BadMagic,
    DimensionOverflow,
    EndmemberSet,
    HyperImage,
    MatrixIOError,
    TruncatedPayload,
    center,
    load_matrix,
    save_matrix,
    uncenter,
)


class TestCenter:
    def test_two_pixel_image(self):
        img = HyperImage(np.array([[1.0], [3.0]]))
        out, mean = center(img)
        assert np.array_equal(out.pixels, [[-1.0], [1.0]])
        assert np.array_equal(mean, [2.0])
        assert out.centered and np.array_equal(out.mean_spectrum, [2.0])

    def test_already_zero_mean(self):
        px = np.array([[1.0, -2.0], [-1.0, 2.0]])
        out, mean = center(HyperImage(px))
        assert np.array_equal(out.pixels, px)
        assert np.array_equal(mean, [0.0, 0.0])

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(0)
        out, _ = center(HyperImage(rng.uniform(0, 1.5, (5, 3))))
        assert np.all(np.abs(out.pixels.sum(axis=0)) < 1e-12)

    def test_rejects_double_centering(self):
        out, _ = center(HyperImage(np.array([[1.0], [3.0]])))
        with pytest.raises(ValueError):
            center(out)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HyperImage(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            HyperImage(np.array([[np.inf, 1.0]]))

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    def test_uncenter_inverts_center(self, px):
        img = HyperImage(px)
        back = uncenter(center(img)[0])
        assert np.all(np.abs(back.pixels - px) <= 1e-12)


class TestDomainTypes:
    def test_abundance_row_sum_enforced(self):
        AbundanceMatrix(np.array([[0.25, 0.75]]))
        with pytest.raises(ValueError):
            AbundanceMatrix(np.array([[0.3, 0.75]]))

    def test_abundance_positivity_slack(self):
        AbundanceMatrix(np.array([[1.0 + 1e-13, -1e-13]]))
        with pytest.raises(ValueError):
            AbundanceMatrix(np.array([[1.01, -0.01]]))

    def test_endmember_requires_two_columns(self):
        with pytest.raises(ValueError):
            EndmemberSet(np.ones((4, 1)))

    def test_endmember_band_variance_nonnegative(self):
        sp = np.ones((4, 2))
        EndmemberSet(sp, band_variance=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            EndmemberSet(sp, band_variance=-np.ones((4, 2)))

    def test_arrays_are_read_only(self):
        img = HyperImage(np.ones((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 5.0

    def test_only_read_only_owning_arrays_are_shared(self):
        writeable = np.ones((3, 2))
        img = HyperImage(writeable)
        writeable[0, 0] = 5.0  # the caller's later writes do not leak in
        assert img.pixels[0, 0] == 1.0 and writeable.flags.writeable
        owned = np.ones((3, 2))
        owned.flags.writeable = False
        assert HyperImage(owned).pixels is owned
        view = owned[:2]  # read-only, but its memory belongs to another array
        assert HyperImage(view).pixels is not view

    def test_center_hands_its_pixels_on_without_a_copy(self):
        out, _ = center(HyperImage(np.array([[1.0, 2.0], [3.0, 5.0]])))
        assert HyperImage(out.pixels, centered=True, mean_spectrum=out.mean_spectrum).pixels is out.pixels


class TestMatrixIO:
    def test_single_value_round_trip(self, tmp_path):
        p = tmp_path / "m.nlm"
        save_matrix(np.array([[0.5]]), p)
        out = load_matrix(p)
        assert out.shape == (1, 1) and out[0, 0] == 0.5

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nlm"
        p.write_bytes(b"WRONGTAG" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.nlm"
        save_matrix(np.ones((3, 3)), p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(TruncatedPayload):
            load_matrix(p)

    def test_dimension_overflow(self, tmp_path):
        import struct

        p = tmp_path / "m.nlm"
        p.write_bytes(b"NLUNMIX1" + struct.pack("<QQ", 2**62, 2**62))
        with pytest.raises(DimensionOverflow):
            load_matrix(p)

    def test_file_size_arithmetic(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(2500, 160))
        p = tmp_path / "big.nlm"
        save_matrix(m, p)
        assert p.stat().st_size == 8 + 16 + 2500 * 160 * 8
        assert np.array_equal(load_matrix(p), m)

    def test_round_trip_holds_one_copy(self, tmp_path):
        # N=4000, L=160 (5.12 MB): writing used to copy the matrix into a
        # bytes object (5.1 MB peak) and reading held the payload bytes and
        # the array copied from them (10.2 MB peak); now the write copies
        # nothing and the read allocates only the result
        m = np.random.default_rng(3).normal(size=(4000, 160))
        p = tmp_path / "m.nlm"
        tracemalloc.start()
        try:
            save_matrix(m, p)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_matrix(p)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m) and back.flags.writeable
        assert write_peak < 0.5 * m.nbytes
        assert read_peak < 1.5 * m.nbytes

    def test_truncated_header_dimensions_fail_before_allocating(self, tmp_path):
        import struct

        p = tmp_path / "m.nlm"
        p.write_bytes(b"NLUNMIX1" + struct.pack("<QQ", 2**29, 2**30) + b"\0" * 64)
        with pytest.raises(TruncatedPayload, match="got 64"):
            load_matrix(p)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 3))
        p = tmp_path / "m.csv"
        save_matrix(m, p, fmt="csv")
        out = load_matrix(p)
        assert np.array_equal(out, m)  # 17 significant digits reproduce doubles

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("not a header\n")
        with pytest.raises(MatrixIOError):
            load_matrix(p)

    def test_binary_round_trip_many(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "loop.nlm"
        for _ in range(1000):
            shape = (rng.integers(1, 7), rng.integers(1, 7))
            m = rng.normal(scale=10.0 ** rng.integers(-8, 9), size=shape)
            save_matrix(m, p)
            assert np.array_equal(load_matrix(p), m)

    @settings(max_examples=40)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    def test_binary_bit_exact_property(self, m):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/m.nlm"
            save_matrix(m, p)
            assert np.array_equal(load_matrix(p), m)
