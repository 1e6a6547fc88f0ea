import numpy as np
import pytest
from hypothesis import given, strategies as st

from gstk import (
    DomainError,
    FileFormatError,
    Kernel,
    derive_quadrant_template,
    format_kernel,
    laplacian_template,
    moment,
    parse_kernel,
    smoothing_template,
    symmetrize,
)

# The published templates, frozen cell-for-cell.
QUADRANT = [
    [0, 0, 1],
    [0, 2, -4],
    [1, -4, 4],
]
SMOOTH5 = [
    [0, 0, 1, 0, 0],
    [0, 2, -4, 2, 0],
    [1, -4, 4, -4, 1],
    [0, 2, -4, 2, 0],
    [0, 0, 1, 0, 0],
]
LAPLACIAN3 = [
    [-1, -1, -1],
    [-1, 8, -1],
    [-1, -1, -1],
]


class TestDerivation:
    def test_quadrant_grid(self):
        k = derive_quadrant_template()
        assert k.coeffs == tuple(tuple(r) for r in QUADRANT)
        assert k.anchor == (2, 2)

    def test_quadrant_offsets(self):
        # The backward-difference construction, coefficient by coefficient.
        k = derive_quadrant_template()
        assert k.coeff(0, 0) == 4
        assert k.coeff(-1, 0) == -4
        assert k.coeff(0, -1) == -4
        assert k.coeff(-1, -1) == 2
        assert k.coeff(-2, 0) == 1
        assert k.coeff(0, -2) == 1
        assert k.coeff(1, 0) == 0
        assert k.coeff(-2, -2) == 0

    def test_smoothing_template_grid(self):
        k = smoothing_template()
        assert k.coeffs == tuple(tuple(r) for r in SMOOTH5)
        assert k.anchor == (2, 2)

    def test_laplacian_grid(self):
        k = laplacian_template()
        assert k.coeffs == tuple(tuple(r) for r in LAPLACIAN3)
        assert k.anchor == (1, 1)

    def test_symmetrize_overlays_instead_of_summing(self):
        # Adding the four reflected copies would double the shared axis
        # cells and quadruple the anchor; the template instead takes each
        # reflected value once.
        summed = np.zeros((5, 5), dtype=int)
        for dc, dr, v in derive_quadrant_template().offsets():
            for sc in (1, -1):
                for sr in (1, -1):
                    summed[2 + sr * dr, 2 + sc * dc] += v
        assert summed[2, 2] == 16
        assert summed[2, 1] == -8
        assert not np.array_equal(summed, np.array(SMOOTH5))
        assert np.array_equal(smoothing_template().to_array(), np.array(SMOOTH5))

    def test_symmetrize_rejects_multi_quadrant_support(self):
        k = Kernel(((1, 1), (1, 1)), anchor=(1, 1))
        full = symmetrize(k)  # fine: support is the non-positive quadrant
        assert full.rows == 3
        bad = Kernel(((1, 1), (1, 1)), anchor=(0, 0))
        with pytest.raises(DomainError, match="positive component"):
            symmetrize(bad)

    def test_symmetrize_rejects_axis_asymmetric_quadrant(self):
        # coeff(-1, 0) != coeff(0, -1): the reflected copies would disagree.
        k = Kernel(((0, 2), (3, 4)), anchor=(1, 1))
        with pytest.raises(DomainError, match="disagree"):
            symmetrize(k)

    def test_symmetrize_single_cell(self):
        k = Kernel(((7,),), anchor=(0, 0))
        assert symmetrize(k).coeffs == ((7,),)

    def test_symmetrize_cross_example(self):
        # Hand-checked small case: anchor 5, one-step neighbors -1.
        k = Kernel(((0, -1), (-1, 5)), anchor=(1, 1))
        full = symmetrize(k)
        assert full.coeffs == ((0, -1, 0), (-1, 5, -1), (0, -1, 0))


class TestMoments:
    def test_zero_sum(self):
        assert moment(smoothing_template(), 0, 0) == 0
        assert moment(laplacian_template(), 0, 0) == 0

    def test_first_moments_vanish(self):
        k = smoothing_template()
        assert moment(k, 1, 0) == 0
        assert moment(k, 0, 1) == 0
        assert moment(k, 1, 1) == 0

    def test_second_moments(self):
        k = smoothing_template()
        assert moment(k, 2, 0) == 8
        assert moment(k, 0, 2) == 8

    def test_negative_exponents_rejected(self):
        with pytest.raises(DomainError):
            moment(smoothing_template(), -1, 0)
        with pytest.raises(DomainError):
            moment(smoothing_template(), 0, -2)

    def test_against_direct_summation(self, rng):
        # Independent route: enumerate every cell of the printed grid.
        for _ in range(25):
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            grid = rng.integers(-9, 10, (h, w))
            anchor = (int(rng.integers(0, h)), int(rng.integers(0, w)))
            k = Kernel(tuple(tuple(int(v) for v in row) for row in grid), anchor)
            for p in range(3):
                for q in range(3):
                    expected = 0
                    for r in range(h):
                        for c in range(w):
                            dc = c - anchor[1]
                            dr = r - anchor[0]
                            expected += int(grid[r, c]) * dc**p * dr**q
                    assert moment(k, p, q) == expected

    def test_nonzero_count_is_thirteen(self):
        assert np.count_nonzero(smoothing_template().to_array()) == 13

    def test_d4_symmetry(self):
        assert smoothing_template().is_d4_symmetric()
        assert laplacian_template().is_d4_symmetric()
        assert not derive_quadrant_template().is_d4_symmetric()
        # symmetric values but off-center anchor
        k = Kernel(((1, 1, 1), (1, 1, 1), (1, 1, 1)), anchor=(0, 0))
        assert not k.is_d4_symmetric()
        # rotation by 90 degrees changes this grid
        k = Kernel(((0, 1, 0), (0, 1, 0), (0, 1, 0)), anchor=(1, 1))
        assert not k.is_d4_symmetric()
        # not square
        assert not Kernel(((1, 1, 1),), anchor=(0, 1)).is_d4_symmetric()


class TestKernelType:
    def test_rejects_empty_and_ragged(self):
        with pytest.raises(DomainError):
            Kernel((), anchor=(0, 0))
        with pytest.raises(DomainError):
            Kernel(((1, 2), (3,)), anchor=(0, 0))

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            Kernel(((1.5,),), anchor=(0, 0))
        with pytest.raises(DomainError):
            Kernel(((True,),), anchor=(0, 0))

    def test_rejects_oversized_coefficient(self):
        with pytest.raises(DomainError):
            Kernel(((1 << 15,),), anchor=(0, 0))
        Kernel((((1 << 15) - 1,),), anchor=(0, 0))

    def test_rejects_oversized_grid(self):
        Kernel(((0,) * 255,) * 255, anchor=(0, 0))
        with pytest.raises(DomainError, match="more than 255"):
            Kernel(((0,) * 256,), anchor=(0, 0))
        with pytest.raises(DomainError, match="more than 255"):
            Kernel(((0,),) * 256, anchor=(0, 0))

    def test_rejects_out_of_grid_anchor(self):
        with pytest.raises(DomainError):
            Kernel(((1, 2),), anchor=(0, 2))
        with pytest.raises(DomainError):
            Kernel(((1, 2),), anchor=(1, 0))

    def test_from_rows_center_default_needs_odd(self):
        assert Kernel.from_rows([[1, 2, 3]]).anchor == (0, 1)
        for rows in ([], [[1, 2]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(DomainError) as exc:
                Kernel.from_rows(rows)
            assert str(exc.value) == "even-dimensioned kernels need an explicit anchor"

    def test_abs_sum(self):
        assert smoothing_template().abs_sum() == 32
        assert laplacian_template().abs_sum() == 16

    def test_offsets_roundtrip(self):
        k = smoothing_template()
        rebuilt = {}
        for dc, dr, v in k.offsets():
            rebuilt[(dc, dr)] = v
        assert len(rebuilt) == 13
        for (dc, dr), v in rebuilt.items():
            assert k.coeff(dc, dr) == v


class TestTextFormat:
    def test_parse_plain_grid(self):
        k = parse_kernel("0 1 0\n1 -4 1\n0 1 0\n")
        assert k.anchor == (1, 1)
        assert k.coeffs == ((0, 1, 0), (1, -4, 1), (0, 1, 0))

    def test_parse_with_anchor_header(self):
        k = parse_kernel("anchor 2 2\n0 0 1\n0 2 -4\n1 -4 4\n")
        assert k == derive_quadrant_template()

    def test_parse_skips_blank_lines(self):
        k = parse_kernel("\n1 2 3\n\n4 5 6\n7 8 9\n\n")
        assert k.rows == 3

    def test_format_published_templates(self):
        assert format_kernel(smoothing_template()) == (
            "0 0 1 0 0\n0 2 -4 2 0\n1 -4 4 -4 1\n0 2 -4 2 0\n0 0 1 0 0\n"
        )
        assert format_kernel(laplacian_template()) == (
            "-1 -1 -1\n-1 8 -1\n-1 -1 -1\n"
        )
        assert format_kernel(derive_quadrant_template()) == (
            "anchor 2 2\n0 0 1\n0 2 -4\n1 -4 4\n"
        )

    def test_parse_errors(self):
        with pytest.raises(FileFormatError, match="non-integer"):
            parse_kernel("1 2 x\n")
        with pytest.raises(FileFormatError, match="ragged"):
            parse_kernel("1 2\n3\n")
        with pytest.raises(FileFormatError) as exc:
            parse_kernel("1 2\n3 4\n")  # even size, no header
        assert str(exc.value) == (
            "even-dimensioned kernel requires an explicit 'anchor R C' header"
        )
        with pytest.raises(FileFormatError, match="no coefficient rows"):
            parse_kernel("\n\n")
        with pytest.raises(FileFormatError, match="first line"):
            parse_kernel("1 2 3\nanchor 0 0\n")
        with pytest.raises(FileFormatError, match="anchor"):
            parse_kernel("anchor 5 0\n1 2 3\n")  # out of bounds
        with pytest.raises(FileFormatError, match="anchor"):
            parse_kernel("anchor 0\n1 2 3\n")
        with pytest.raises(FileFormatError, match="anchor indices must be integers"):
            parse_kernel("anchor 0 one\n1 2 3\n")

    def test_parse_side_budget_is_domain_error(self):
        assert parse_kernel("1 " * 255).cols == 255
        assert parse_kernel("1\n" * 255).rows == 255
        # Raised while reading, before a bad token later in the text and
        # without being turned into a FileFormatError.
        for text in ("1 " * 256 + "x\n", "1\n" * 256 + "x\n"):
            with pytest.raises(DomainError, match="more than 255") as exc:
                parse_kernel(text)
            assert not isinstance(exc.value, FileFormatError)

    def test_parse_rejects_float_tokens(self):
        with pytest.raises(FileFormatError):
            parse_kernel("1.5 2 3\n")

    @given(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.data(),
    )
    def test_roundtrip_property(self, rows, data):
        anchor = (
            data.draw(st.integers(0, len(rows) - 1)),
            data.draw(st.integers(0, len(rows[0]) - 1)),
        )
        k = Kernel.from_rows(rows, anchor)
        assert parse_kernel(format_kernel(k)) == k

    def test_format_writes_anchor_only_off_center(self):
        grid = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert format_kernel(Kernel(grid, (0, 2))) == "anchor 0 2\n1 2 3\n4 5 6\n7 8 9\n"
        assert format_kernel(Kernel(grid, (1, 1))) == "1 2 3\n4 5 6\n7 8 9\n"

    def test_format_parse_canonical_fixed_point(self):
        text = "anchor 0 1\n3 -7\n"
        assert format_kernel(parse_kernel(text)) == text
