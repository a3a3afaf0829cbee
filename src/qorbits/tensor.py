"""Exact dense linear algebra and operators on tensor powers V**m.

Matrices hold exact field elements (Fraction in evaluated mode, QScalar in
symbolic mode) in row-major lists.  Multiplication skips zero entries, which
matters a lot here: R-matrices, q-(anti)symmetrizers and their embeddings are
all very sparse, and the antisymmetrizer tower on four and five legs is only
tractable because of it.  Every product, rational or symbolic, is the same
sparse-skipping Python loop: there is no dense or integer-cleared path, and
no scan of the operands to choose one.

Index encoding for leg operators is frozen package-wide: the row (column)
index of an m-leg operator on an n-dimensional space is the mixed-radix
base-n encoding of the 0-based leg tuple with leg 1 most significant.  Rows
carry the output multi-index, columns the input multi-index, so composition
is ordinary matrix multiplication acting on column vectors.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QScalar


class Mat:
    """Exact dense matrix over a field (Fraction or QScalar entries)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zeros(nr: int, nc: int, zero) -> "Mat":
        return Mat([[zero] * nc for _ in range(nr)])

    @staticmethod
    def identity(n: int, zero, one) -> "Mat":
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = one
        return Mat(rows)

    def copy(self) -> "Mat":
        return Mat([row[:] for row in self.rows])

    # -- structure -----------------------------------------------------------
    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def support(self) -> int:
        """Number of nonzero entries (the residual witness for exact checks)."""
        return sum(1 for row in self.rows for x in row if x)

    def transpose(self) -> "Mat":
        return Mat([list(col) for col in zip(*self.rows)])

    def trace(self):
        out = self.rows[0][0]
        for i in range(1, self.nrows):
            out = out + self.rows[i][i]
        return out

    # -- arithmetic (zero entries are skipped: operands are usually sparse) --
    def __add__(self, other):
        return Mat([[(a + b) if (a and b) else (b if b else a)
                     for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat([[(a - b) if b else a for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat([[-a if a else a for a in row] for row in self.rows])

    def scale(self, s) -> "Mat":
        return Mat([[s * a if a else a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        nzB = [[(j, x) for j, x in enumerate(row) if x] for row in other.rows]
        zero = _zero_like(self.rows[0][0])
        out = []
        for arow in self.rows:
            acc = [zero] * other.ncols
            for k, a in enumerate(arow):
                if not a:
                    continue
                for j, b in nzB[k]:
                    acc[j] = acc[j] + a * b
            out.append(acc)
        return Mat(out)

    def kron(self, other: "Mat") -> "Mat":
        zero = _zero_like(self.rows[0][0])
        out = Mat.zeros(self.nrows * other.nrows, self.ncols * other.ncols, zero)
        for i, arow in enumerate(self.rows):
            for j, a in enumerate(arow):
                if not a:
                    continue
                for k, brow in enumerate(other.rows):
                    orow = out.rows[i * other.nrows + k]
                    base = j * other.ncols
                    for l, b in enumerate(brow):
                        if b:
                            orow[base + l] = a * b
        return Mat(out.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def _zero_like(x):
    if isinstance(x, QScalar):
        from .scalars import Q_ZERO
        return Q_ZERO
    return Fraction(0)


def _one_like(x):
    if isinstance(x, QScalar):
        from .scalars import Q_ONE
        return Q_ONE
    return Fraction(1)


# ---------------------------------------------------------------------------
# exact elimination: inverse, solve, pivot columns
# ---------------------------------------------------------------------------

def _field_elim(rows, ncols, augment=None):
    """In-place Gauss-Jordan over the field; returns pivot column list."""
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nr):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if augment is not None:
            augment[r], augment[piv] = augment[piv], augment[r]
        inv = _one_like(rows[r][c]) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        if augment is not None:
            augment[r] = [x * inv for x in augment[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if augment is not None:
                    augment[i] = [x - f * y for x, y in zip(augment[i], augment[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def inverse(mat: Mat) -> Mat:
    if mat.nrows != mat.ncols:
        raise ValueError("inverse needs a square matrix")
    n = mat.nrows
    zero = _zero_like(mat.rows[0][0])
    one = _one_like(mat.rows[0][0])
    rows = [row[:] for row in mat.rows]
    aug = Mat.identity(n, zero, one).rows
    pivots = _field_elim(rows, n, aug)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return Mat(aug)


def pivot_columns(mat: Mat) -> list:
    """Deterministic pivot columns (first-nonzero rule) of an exact matrix."""
    rows = [row[:] for row in mat.rows]
    return _field_elim(rows, mat.ncols)


# ---------------------------------------------------------------------------
# leg operators
# ---------------------------------------------------------------------------

class LegError(ValueError):
    pass


class LegOperator:
    """Exact square operator on V**m with the frozen leg-index encoding."""

    __slots__ = ("n", "m", "mat")

    def __init__(self, n: int, m: int, mat: Mat):
        dim = n ** m
        if mat.nrows != dim or mat.ncols != dim:
            raise LegError(f"matrix is {mat.nrows}x{mat.ncols}, expected {dim}x{dim}")
        self.n = n
        self.m = m
        self.mat = mat

    @staticmethod
    def identity(n: int, m: int, domain) -> "LegOperator":
        return LegOperator(n, m, Mat.identity(n ** m, domain.zero, domain.one))

    @staticmethod
    def flip(n: int, domain) -> "LegOperator":
        """The permutation operator P on two legs (P**2 = I)."""
        mat = Mat.zeros(n * n, n * n, domain.zero)
        for i in range(n):
            for j in range(n):
                mat.rows[j * n + i][i * n + j] = domain.one
        return LegOperator(n, 2, mat)

    def dim(self) -> int:
        return self.n ** self.m

    def __mul__(self, other):
        if isinstance(other, LegOperator):
            if (self.n, self.m) != (other.n, other.m):
                raise LegError("leg mismatch in composition")
            return LegOperator(self.n, self.m, self.mat * other.mat)
        return NotImplemented

    def __add__(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise LegError("leg mismatch in sum")
        return LegOperator(self.n, self.m, self.mat + other.mat)

    def __sub__(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise LegError("leg mismatch in difference")
        return LegOperator(self.n, self.m, self.mat - other.mat)

    def __neg__(self):
        return LegOperator(self.n, self.m, -self.mat)

    def scale(self, s) -> "LegOperator":
        return LegOperator(self.n, self.m, self.mat.scale(s))

    def __eq__(self, other):
        if not isinstance(other, LegOperator):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and self.mat == other.mat

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def transpose(self) -> "LegOperator":
        return LegOperator(self.n, self.m, self.mat.transpose())

    def __repr__(self):
        return f"LegOperator(n={self.n}, m={self.m})"


def embed_on_legs(op: LegOperator, start: int, total: int) -> LegOperator:
    """I**(start-1) (x) op (x) I**(total-start-m+1), legs numbered from 1."""
    m0 = op.m
    if start < 1 or start + m0 - 1 > total:
        raise LegError(f"legs [{start}, {start + m0 - 1}] do not fit in {total}")
    n = op.n
    left = start - 1
    right = total - left - m0
    nl, nm, nr = n ** left, n ** m0, n ** right
    dim = n ** total
    zero = _zero_like(op.mat.rows[0][0])
    out = Mat.zeros(dim, dim, zero)
    for a in range(nl):
        abase = a * nm * nr
        for i in range(nm):
            row = op.mat.rows[i]
            for j in range(nm):
                v = row[j]
                if not v:
                    continue
                rbase = abase + i * nr
                cbase = abase + j * nr
                for c in range(nr):
                    out.rows[rbase + c][cbase + c] = v
    return LegOperator(n, total, out)


def weighted_partial_trace(op: LegOperator, legs, weight: Mat) -> LegOperator:
    """Contract the listed legs against an n x n weight matrix.

    Each traced leg contributes a factor sum_{a,b} weight[a][b] picking the
    entry with output index b and input index a on that leg; weight = I is
    the ordinary partial trace, weight = C is the quantum trace weight.
    """
    legs = sorted(set(legs))
    if not legs:
        return op
    n, m = op.n, op.m
    if legs[0] < 1 or legs[-1] > m:
        raise LegError(f"trace legs {legs} out of range 1..{m}")
    if weight.nrows != n or weight.ncols != n:
        raise LegError("weight must be n x n")
    if op.dim() == 0:
        raise LegError("empty operator")
    keep = [t for t in range(m) if (t + 1) not in legs]
    traced = [t - 1 for t in legs]
    zero = _zero_like(op.mat.rows[0][0])
    mk = len(keep)
    dim_out = n ** mk
    out = Mat.zeros(dim_out, dim_out, zero)

    def decode(code):
        digits = [0] * m
        for t in range(m - 1, -1, -1):
            digits[t] = code % n
            code //= n
        return digits

    dim = op.dim()
    for r in range(dim):
        rdig = decode(r)
        row = op.mat.rows[r]
        for c in range(dim):
            v = row[c]
            if not v:
                continue
            cdig = decode(c)
            w = None
            ok = True
            for t in traced:
                b, a = rdig[t], cdig[t]
                wv = weight.rows[a][b]
                if not wv:
                    ok = False
                    break
                w = wv if w is None else w * wv
            if not ok:
                continue
            ro = 0
            co = 0
            for t in keep:
                ro = ro * n + rdig[t]
                co = co * n + cdig[t]
            term = v if w is None else v * w
            out.rows[ro][co] = out.rows[ro][co] + term
    return LegOperator(n, mk, out)

