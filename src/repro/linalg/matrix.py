"""Arbitrary-precision dense linear algebra (the Figure 1 "BLAS" block).

The paper's stack tops out with "BLAS and algebras" for scientific
domains; the APC-specific use case is *ill-conditioned* linear algebra,
where float64 loses every digit (the classic instance: Hilbert
matrices, condition number ~e^(3.5n)).  This module provides dense MPF
matrices with LU decomposition (partial pivoting), solves,
determinants and inverses — enough to invert a 12x12 Hilbert matrix
exactly to working precision, a computation that is pure noise in
doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.mpf import MPF
from repro.mpn.nat import MpnError

Row = List[MPF]

#: A pivot counts as zero when it lies this many bits or fewer above
#: the working precision's floor under the largest operand of the
#: subtractions that produced it: what is left of an exact cancellation
#: is a few rounding units of those operands, and a genuine pivot of a
#: well-posed system sits far above them.
PIVOT_GUARD_BITS = 16


def _top(value: MPF) -> float:
    """``floor(log2(|value|))``, or ``-inf`` for zero."""
    return value.exponent_of_top_bit if value else float("-inf")


def _negligible(pivot: MPF, scale: float, precision: int) -> bool:
    """True when ``pivot`` is zero or a rounding residue: its magnitude
    is below ``2**(PIVOT_GUARD_BITS - precision)`` times ``2**scale``,
    the largest operand its eliminations subtracted."""
    if not pivot:
        return True
    return pivot.exponent_of_top_bit \
        < scale - precision + PIVOT_GUARD_BITS


@dataclass
class LUFactorization:
    """P*A = L*U with L unit-lower and U upper triangular, packed."""

    packed: List[Row]          # L (below diagonal) and U (on/above)
    pivots: List[int]          # row permutation
    sign: int                  # permutation parity

    @property
    def size(self) -> int:
        return len(self.packed)


class Matrix:
    """An immutable dense matrix of MPF entries."""

    def __init__(self, rows: Sequence[Sequence[MPF]]) -> None:
        if not rows or not rows[0]:
            raise MpnError("matrix needs at least one entry")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise MpnError("ragged rows")
        self.rows = [list(row) for row in rows]

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]],
                  precision: int = 128) -> "Matrix":
        return cls([[MPF(v, precision) for v in row] for row in rows])

    @classmethod
    def identity(cls, size: int, precision: int = 128) -> "Matrix":
        return cls([[MPF(1 if r == c else 0, precision)
                     for c in range(size)] for r in range(size)])

    @classmethod
    def hilbert(cls, size: int, precision: int = 256) -> "Matrix":
        """The Hilbert matrix H[i][j] = 1/(i+j+1): the canonical
        ill-conditioned test case."""
        return cls([[MPF.from_ratio(1, r + c + 1, precision)
                     for c in range(size)] for r in range(size)])

    # -- shape / access ------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def precision(self) -> int:
        return self.rows[0][0].precision

    def __getitem__(self, index: Tuple[int, int]) -> MPF:
        return self.rows[index[0]][index[1]]

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise MpnError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise MpnError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        rows, inner = self.shape
        inner_b, cols = other.shape
        if inner != inner_b:
            raise MpnError("shape mismatch for matmul")
        out = []
        for r in range(rows):
            out_row = []
            for c in range(cols):
                total = self.rows[r][0] * other.rows[0][c]
                for k in range(1, inner):
                    total = total + self.rows[r][k] * other.rows[k][c]
                out_row.append(total)
            out.append(out_row)
        return Matrix(out)

    def matvec(self, vector: Sequence[MPF]) -> List[MPF]:
        rows, cols = self.shape
        if len(vector) != cols:
            raise MpnError("vector length mismatch")
        out = []
        for r in range(rows):
            total = self.rows[r][0] * vector[0]
            for k in range(1, cols):
                total = total + self.rows[r][k] * vector[k]
            out.append(total)
        return out

    # -- factorization --------------------------------------------------------

    def lu(self) -> LUFactorization:
        """LU with partial pivoting (Doolittle, in-place packing)."""
        rows, cols = self.shape
        if rows != cols:
            raise MpnError("LU needs a square matrix")
        work = [list(row) for row in self.rows]
        # scale[r][k]: top bit of the largest operand entry (r, k) has
        # been through, the magnitude its rounding errors are relative to.
        scale = [[_top(entry) for entry in row] for row in work]
        pivots = list(range(rows))
        sign = 1
        for col in range(rows):
            # Pivot: largest magnitude in the column.
            best_row = max(range(col, rows),
                           key=lambda r: abs(work[r][col]))
            if _negligible(work[best_row][col], scale[best_row][col],
                           self.precision):
                raise MpnError("singular matrix")
            if best_row != col:
                work[col], work[best_row] = work[best_row], work[col]
                scale[col], scale[best_row] = scale[best_row], scale[col]
                pivots[col], pivots[best_row] = (pivots[best_row],
                                                 pivots[col])
                sign = -sign
            pivot = work[col][col]
            for row in range(col + 1, rows):
                factor = work[row][col] / pivot
                work[row][col] = factor
                for k in range(col + 1, rows):
                    term = factor * work[col][k]
                    scale[row][k] = max(scale[row][k], _top(work[row][k]),
                                        _top(term))
                    work[row][k] = work[row][k] - term
        return LUFactorization(work, pivots, sign)

    def solve(self, rhs: Sequence[MPF],
              factorization: LUFactorization | None = None) -> List[MPF]:
        """Solve A x = rhs by LU + forward/back substitution."""
        lu = factorization or self.lu()
        size = lu.size
        if len(rhs) != size:
            raise MpnError("rhs length mismatch")
        permuted = [rhs[p] for p in lu.pivots]
        # Forward: L y = P rhs.
        y = list(permuted)
        for r in range(size):
            for c in range(r):
                y[r] = y[r] - lu.packed[r][c] * y[c]
        # Back: U x = y.
        x = list(y)
        for r in range(size - 1, -1, -1):
            for c in range(r + 1, size):
                x[r] = x[r] - lu.packed[r][c] * x[c]
            x[r] = x[r] / lu.packed[r][r]
        return x

    def determinant(self) -> MPF:
        lu = self.lu()
        det = MPF(lu.sign, self.precision)
        for index in range(lu.size):
            det = det * lu.packed[index][index]
        return det

    def inverse(self) -> "Matrix":
        size = self.shape[0]
        lu = self.lu()
        columns = []
        for col in range(size):
            unit = [MPF(1 if r == col else 0, self.precision)
                    for r in range(size)]
            columns.append(self.solve(unit, lu))
        return Matrix([[columns[c][r] for c in range(size)]
                       for r in range(size)])

    def max_abs_entry(self) -> MPF:
        """The largest |entry| (residual norms in tests)."""
        best = abs(self.rows[0][0])
        for row in self.rows:
            for entry in row:
                magnitude = abs(entry)
                if magnitude > best:
                    best = magnitude
        return best
