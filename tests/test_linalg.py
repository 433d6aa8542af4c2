"""Tests for arbitrary-precision dense linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg import Matrix
from repro.mpf import MPF
from repro.mpn.nat import MpnError

small_ints = st.integers(min_value=-50, max_value=50)


def int_matrix(rows, precision=160):
    return Matrix.from_ints(rows, precision)


class TestBasics:
    def test_shape_and_access(self):
        m = int_matrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert float(m[1, 2]) == 6.0

    def test_ragged_rejected(self):
        with pytest.raises(MpnError):
            Matrix.from_ints([[1, 2], [3]])

    def test_add_sub(self):
        a = int_matrix([[1, 2], [3, 4]])
        b = int_matrix([[5, 6], [7, 8]])
        assert float((a + b)[0, 1]) == 8.0
        assert float((b - a)[1, 0]) == 4.0

    def test_matmul_against_reference(self):
        a = int_matrix([[1, 2], [3, 4]])
        b = int_matrix([[5, 6], [7, 8]])
        c = a @ b
        assert [[float(c[r, cc]) for cc in range(2)] for r in range(2)] \
            == [[19.0, 22.0], [43.0, 50.0]]

    def test_matvec(self):
        m = int_matrix([[2, 0], [1, 3]])
        out = m.matvec([MPF(4, 160), MPF(5, 160)])
        assert [float(v) for v in out] == [8.0, 19.0]


#: An exactly singular matrix (columns 2 and 3 equal) whose second
#: elimination leaves ``1 - (2/3)*1.5`` rounded at 160 bits, a residue
#: near 2**-160, not zero.  Solving through that pivot once returned
#: x ~ [-0.5, 4.9e47, -4.9e47].
RESIDUE_PIVOT = ([[0, 1, 1], [1, 1, 1], [-2, 1, 1]], [0, 0, 1])


class TestLUAndSolve:
    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3))
    @example(*RESIDUE_PIVOT)
    @settings(max_examples=40, deadline=None)
    def test_solve_satisfies_system(self, rows, rhs):
        matrix = int_matrix(rows)
        try:
            solution = matrix.solve([MPF(v, 160) for v in rhs])
        except MpnError:
            return  # singular: fine
        back = matrix.matvec(solution)
        for got, expected in zip(back, rhs):
            difference = abs(got - MPF(expected, 160))
            assert not difference \
                or difference.exponent_of_top_bit < -100

    def test_permutation_parity_in_determinant(self):
        # A permutation matrix with odd parity has determinant -1.
        m = int_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert float(m.determinant()) == -1.0

    def test_known_determinant(self):
        m = int_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
        assert float(m.determinant()) == 24.0

    def test_singular_rejected(self):
        with pytest.raises(MpnError):
            int_matrix([[1, 2], [2, 4]]).lu()

    def test_rounding_residue_pivot_rejected(self):
        rows, rhs = RESIDUE_PIVOT
        with pytest.raises(MpnError, match="singular matrix"):
            int_matrix(rows).lu()
        with pytest.raises(MpnError, match="singular matrix"):
            int_matrix(rows).solve([MPF(v, 160) for v in rhs])

    @pytest.mark.parametrize("rows, rhs, expected, det", [
        ([[1, 2**120], [0, 1]], [2**120 + 3, 1], [3, 1], 1),
        ([[2**120, 1], [1, 0]], [2**121 + 5, 2], [2, 5], -1),
    ])
    def test_wide_entries_beside_pivot_still_solve(self, rows, rhs,
                                                   expected, det):
        """A pivot far below an entry of an earlier row (or of its own
        row) is not a residue: nothing cancelled to produce it."""
        matrix = Matrix.from_ints(rows)
        solution = matrix.solve([MPF(v, 128) for v in rhs])
        assert all(not (got - MPF(want, 128))
                   for got, want in zip(solution, expected))
        assert float(matrix.determinant()) == det

    def test_non_square_lu_rejected(self):
        with pytest.raises(MpnError):
            int_matrix([[1, 2, 3], [4, 5, 6]]).lu()


class TestHilbert:
    """The APC showcase: computations float64 cannot do at all."""

    def test_hilbert_10_inversion_to_150_bits(self):
        n = 10
        h = Matrix.hilbert(n, precision=256)
        residual = (h @ h.inverse()) - Matrix.identity(n, 256)
        worst = residual.max_abs_entry()
        assert not worst or worst.exponent_of_top_bit < -150

    def test_hilbert_inverse_entries_are_integers(self):
        # H^-1 has (huge) integer entries; corner = n^2.
        n = 8
        inverse = Matrix.hilbert(n, precision=256).inverse()
        corner = inverse[0, 0]
        error = abs(corner - MPF(n * n, 256))
        assert not error or error.exponent_of_top_bit < -180

    def test_hilbert_3_determinant_exact(self):
        det = Matrix.hilbert(3, 224).determinant()
        expected = MPF.from_ratio(1, 2160, 224)
        error = abs(det - expected)
        assert not error or error.exponent_of_top_bit < -180

    def test_float64_would_fail(self):
        # At 64-bit working precision the same inversion residual is
        # enormous — the reason this workload needs APC.
        n = 10
        coarse = Matrix.hilbert(n, precision=64)
        residual = (coarse @ coarse.inverse()) \
            - Matrix.identity(n, 64)
        high = Matrix.hilbert(n, precision=256)
        fine_residual = (high @ high.inverse()) \
            - Matrix.identity(n, 256)
        assert float(residual.max_abs_entry()) \
            > 1e12 * float(fine_residual.max_abs_entry())


class TestExactRational:
    def test_solve_exact_small(self):
        from repro.linalg import solve_exact
        from repro.mpq import MPQ
        matrix = [[MPQ(2), MPQ(1)], [MPQ(1), MPQ(3)]]
        rhs = [MPQ(5), MPQ(10)]
        x = solve_exact(matrix, rhs)
        assert x == [MPQ(1), MPQ(3)]

    def test_hilbert_determinant_exact(self):
        from repro.linalg import determinant_exact, hilbert_exact
        from repro.mpq import MPQ
        assert determinant_exact(hilbert_exact(3)) == MPQ(1, 2160)
        # det(H4) = 1/6048000
        assert determinant_exact(hilbert_exact(4)) == MPQ(1, 6048000)

    def test_singular_detected(self):
        from repro.linalg import determinant_exact, solve_exact
        from repro.mpn.nat import MpnError
        from repro.mpq import MPQ
        singular = [[MPQ(1), MPQ(2)], [MPQ(2), MPQ(4)]]
        assert determinant_exact(singular) == MPQ(0)
        with pytest.raises(MpnError):
            solve_exact(singular, [MPQ(1), MPQ(1)])

    def test_mpf_solver_agrees_with_exact(self, rng=None):
        # The float path at 224 bits must match the exact rational
        # solution of a Hilbert system to ~full precision.
        import random
        from repro.linalg import hilbert_exact, solve_exact
        from repro.mpq import MPQ
        n = 6
        rng = random.Random(61)
        rhs_ints = [rng.randrange(-9, 10) for _ in range(n)]
        exact = solve_exact(hilbert_exact(n),
                            [MPQ(v) for v in rhs_ints])
        precision = 224
        float_matrix = Matrix.hilbert(n, precision)
        float_solution = float_matrix.solve(
            [MPF(v, precision) for v in rhs_ints])
        for got, reference in zip(float_solution, exact):
            expected = reference.to_mpf(precision)
            error = abs(got - expected)
            if not error:
                continue
            if expected:
                bound = expected.exponent_of_top_bit - 150
            else:
                bound = -150
            assert error.exponent_of_top_bit < bound
