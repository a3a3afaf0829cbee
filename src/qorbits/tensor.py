"""Exact sparse linear algebra and operators on tensor powers V**m.

A matrix is stored as numerators over one denominator: ``data[i]`` maps
column -> nonzero numerator for row i, and entry (i, j) is
``data[i][j] / den``.  In evaluated mode (q a rational number, Fraction
entries) the numerators are ints and ``den`` is a positive int, so products,
sums and kron run on integers and each result is reduced once by its
content.  An embedding I (x) X (x) I (``Mat.embed``, the one way a block is
placed between identities) copies the numerators into place and does no
integer arithmetic.  In symbolic mode (QScalar entries) the numerators are
integer Laurent polynomials q**s * n, their power of q kept apart, and
``den`` is an integer polynomial with positive constant term; sums and
scalings use the numerators' own + - * as in evaluated mode, and a product
packs them into ints at q = 2**B (Kronecker substitution, with B taken from
the operands so that it is exact), runs the same integer kernel and reads
the result back from balanced base-2**B digits.  R-matrices,
q-(anti)symmetrizers, their embeddings and the module operators are all very
sparse, so every operation touches nonzeros only; the product is the
row-wise sparse product (Gustavson 1978).  Exact solves go through one
routine, ``row_reduce``:
fraction-free Gauss-Jordan on the numerator rows, in Z or Z[q], touching
only the rows with a nonzero in the pivot column and dividing each updated
row by its content (where Bareiss 1968 divides every row by the previous
pivot), so that a field division is made once per entry of the result.
``inverse`` reduces [N | den * I] and requires the pivots to be the columns
of A, and a projector's reduction yields both its pivot columns and a left
inverse on its image.  A weighted partial trace acts on the Mat of an
operator, with the dimensions of its factors given; ``block_pairing`` is
the partial trace over the generator leg of a product of two block
matrices, accumulated without that product.

Every operator is a Mat: R on V (x) V, the projectors on V**m, the module
and Casimir matrices.  A ``LegOperator`` is a Mat tagged with n = dim V and
its number of legs m, which ``embed_on_legs`` reads; its arithmetic is
Mat's, and returns plain Mats.  Index encoding for operators on V**m is
frozen package-wide: the row (column) index of an m-leg operator on an
n-dimensional space is the mixed-radix base-n encoding of the 0-based leg
tuple with leg 1 most significant.  Rows carry the output multi-index,
columns the input multi-index, so composition is ordinary matrix
multiplication acting on column vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import (Q_ONE, common_divisor, divide_exact, each_distinct,
                      laurent_content, laurent_rows, laurent_split,
                      lcm_factors, pack_rows, pack_width, unpack_rows)


class Mat:
    """Exact sparse matrix over a field: numerators over one denominator.

    ``data[i]`` maps column -> numerator for row i and ``den`` is the common
    denominator: ints over a positive int for Fraction entries; in symbolic
    mode integer Laurent polynomials (QScalars q**s * n/d with d = 1) over
    an integer polynomial (a QScalar with d = 1 and s = 0) whose constant
    term is positive, so that q does not divide it.  Every operation keeps
    four invariants:

    * no zero is stored;
    * the keys of each row are in ascending column order;
    * the form is reduced: gcd(den, all numerators) = 1, in Z or in Z[q],
      so the zero matrix has den 1, and equal matrices have equal ``den``
      and ``data``;
    * the matrix carries its domain's ``zero``, the value of an absent
      entry.

    Reads return entries of the domain (Fraction or QScalar), never
    numerators: ``mat[i, j]``, ``entries()``, ``trace()`` and ``rows``, a
    dense list-of-lists copy built on each access (writing into it changes
    nothing, and no library hot path uses it).  A matrix is never written
    into: every operation returns a new one.  The constructors are
    ``from_entries`` (one pass over (row, column, value) triples),
    ``zeros`` and ``identity``.
    """

    __slots__ = ("data", "den", "nrows", "ncols", "zero")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_entries(nrows: int, ncols: int, zero, entries) -> "Mat":
        """From (row, column, value) triples in any order, one per position;
        zero values are dropped."""
        data = [{} for _ in range(nrows)]
        for i, j, v in entries:
            _check_index(i, j, nrows, ncols)
            data[i][j] = v
        data, den = _numerators(
            [{c: row[c] for c in sorted(row) if row[c]} for row in data], zero)
        return _mat(data, den, nrows, ncols, zero)

    @staticmethod
    def zeros(nr: int, nc: int, zero) -> "Mat":
        return _mat([{} for _ in range(nr)], 1 if _rational(zero) else Q_ONE,
                    nr, nc, zero)

    @staticmethod
    def identity(n: int, zero, one) -> "Mat":
        """``one`` on the diagonal; any value, so a zero gives the zero matrix."""
        if not one:
            return Mat.zeros(n, n, zero)
        num, den = _split(zero, one)
        return _mat([{i: num} for i in range(n)], den, n, n, zero)

    # -- structure -----------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        _check_index(i, j, self.nrows, self.ncols)
        v = self.data[i].get(j)
        return self.zero if v is None else _entry(self.zero, v, self.den)

    def entries(self):
        """The nonzero entries as (row, column, value), row by row, each row
        in column order."""
        zero, den = self.zero, self.den
        for i, row in enumerate(self.data):
            for j, v in row.items():
                yield i, j, _entry(zero, v, den)

    def take_rows(self, indices) -> "Mat":
        """The matrix of the listed rows, in the listed order."""
        return _reduced([dict(self.data[i]) for i in indices], self.den,
                        len(indices), self.ncols, self.zero)

    @property
    def rows(self) -> list:
        """Dense copy of the entries (a view for reading and comparing)."""
        zero, den, cols = self.zero, self.den, range(self.ncols)
        return [[_entry(zero, row[c], den) if c in row else zero
                 for c in cols] for row in self.data]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.den == other.den and self.data == other.data)

    def is_zero(self) -> bool:
        return not any(self.data)

    def support(self) -> int:
        """Number of nonzero entries (the residual witness for exact checks)."""
        return sum(map(len, self.data))

    def transpose(self) -> "Mat":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                cols[j][i] = v
        return _mat(cols, self.den, self.ncols, self.nrows, self.zero)

    def trace(self):
        diag = [row[i] for i, row in enumerate(self.data) if i in row]
        if not diag:
            return self.zero
        out = diag[0]
        for v in diag[1:]:
            out = out + v
        return _entry(self.zero, out, self.den)

    # -- arithmetic on nonzeros ---------------------------------------------
    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract: bool) -> "Mat":
        """Sum or difference over lcm(den_a, den_b): the numerators, times
        the lcm cofactors, are combined with their own + and - (ints, or
        integer Laurent polynomials, which QScalar adds with no gcd)."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        zero = self.zero
        den, fa, fb = _lcm(zero, self.den, other.den)
        out = []
        for ra, rb in zip(_rescaled(self.data, fa), _rescaled(other.data, fb)):
            row = dict(ra)
            grew = False
            for c, b in rb.items():
                a = row.get(c)
                if a is None:
                    row[c] = -b if subtract else b
                    grew = True
                else:
                    s = a - b if subtract else a + b
                    if s:
                        row[c] = s
                    else:
                        del row[c]
            if grew and ra:       # new columns were appended after the old ones
                row = {c: row[c] for c in sorted(row)}
            out.append(row)
        return _reduced(out, den, self.nrows, self.ncols, zero)

    def __neg__(self):
        return _mat([{c: -v for c, v in row.items()} for row in self.data],
                    self.den, self.nrows, self.ncols, self.zero)

    def scale(self, s) -> "Mat":
        if not s:
            return Mat.zeros(self.nrows, self.ncols, self.zero)
        num, den = _split(self.zero, s)
        return _reduced(_rescaled(self.data, num), self.den * den,
                        self.nrows, self.ncols, self.zero)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        if self.is_zero() or other.is_zero():
            return Mat.zeros(self.nrows, other.ncols, self.zero)
        if _rational(self.zero):
            out = _product(self.data, other.data)
        else:
            # Kronecker substitution: exact at a width taken from the operands
            bits = pack_width(self.data, other.data)
            adata, alow = pack_rows(self.data, bits)
            bdata, blow = pack_rows(other.data, bits)
            out = unpack_rows(_product(adata, bdata), bits, alow + blow)
        return _reduced(out, self.den * other.den, self.nrows, other.ncols,
                        self.zero)

    def kron(self, other: "Mat") -> "Mat":
        bdata, bcols = other.data, other.ncols
        out = []
        for arow in self.data:
            for brow in bdata:
                out.append({j * bcols + l: a * b for j, a in arow.items()
                            for l, b in brow.items()})
        return _reduced(out, self.den * other.den, self.nrows * other.nrows,
                        self.ncols * bcols, self.zero)

    def embed(self, left: int, right: int) -> "Mat":
        """I_left (x) self (x) I_right.  The numerators and ``den`` are
        copied into place: no arithmetic, and the set of numerators, hence
        the reduced form, is unchanged."""
        ncols = self.ncols * right
        out = []
        for a in range(left):
            abase = a * ncols
            for row in self.data:
                cols = [(abase + j * right, v) for j, v in row.items()]
                for c in range(right):
                    out.append({base + c: v for base, v in cols})
        return _mat(out, self.den, left * self.nrows * right, left * ncols,
                    self.zero)

    def embed_blocks(self, d: int, rest: int, transpose: bool = False) -> "Mat":
        """sum_ij E_ij (x) I_rest (x) B_ij for self = sum_ij E_ij (x) B_ij
        with d x d blocks B_ij, each transposed when transpose is set.  As
        in ``embed``, the numerators and ``den`` are copied into place."""
        stride = rest * d
        out = []
        for top in range(0, self.nrows, d):
            block = self.data[top:top + d]
            if transpose:
                flipped = [{} for _ in range(d)]
                for s, row in enumerate(block):
                    for c, v in row.items():
                        flipped[c % d][c - c % d + s] = v
                block = [{c: row[c] for c in sorted(row)} for row in flipped]
            for shift in range(0, stride, d):
                out.extend({c // d * stride + shift + c % d: v
                            for c, v in row.items()} for row in block)
        return _mat(out, self.den, self.nrows * rest, self.ncols * rest,
                    self.zero)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


_new = object.__new__


def _product(adata, bdata) -> list:
    """Rows of the product of two matrices of numerators, with no zero
    stored and each row in column order.  A row of one term a at k is a
    times row k of b, already in column order, and a product of nonzero
    ints is nonzero, so it needs no sort and no zero test."""
    out = []
    for arow in adata:
        if len(arow) > 1:
            acc = {}
            for k, a in arow.items():
                for j, b in bdata[k].items():
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append({j: acc[j] for j in sorted(acc) if acc[j]})
        elif arow:
            for k, a in arow.items():
                out.append({j: a * b for j, b in bdata[k].items()})
        else:
            out.append({})
    return out


def _check_index(i: int, j: int, nrows: int, ncols: int) -> None:
    if not (0 <= i < nrows and 0 <= j < ncols):
        raise IndexError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")


# The domain-specific steps: an entry to a numerator and back, the lcm of two
# denominators and the content reduction (sums and scalings are not: ints and
# integer Laurent QScalars share + - *).  Evaluated mode is recognised by a
# rational zero; every other domain is symbolic (QScalar) and uses the
# numerator helpers of the scalars module.

def _rational(zero) -> bool:
    return isinstance(zero, (int, Fraction))


def _split(zero, v) -> tuple:
    """(numerator, denominator) of an entry."""
    if _rational(zero):
        return v.numerator, v.denominator
    return laurent_split(v)


def _entry(zero, num, den):
    """The entry num / den, in the domain of zero."""
    if _rational(zero):
        return Fraction(num, den)
    return num if den is Q_ONE else num / den


def _lcm(zero, a, b) -> tuple:
    """(l, l / a, l / b) for the least common multiple l of two denominators."""
    if _rational(zero):
        den = lcm(a, b)
        return den, den // a, den // b
    return lcm_factors(a, b)


def _reduce(data, den) -> tuple:
    """Divide the numerators and den by their content; returns (data, den).
    The content is a running gcd that stops once it is 1, and exits at once
    when den is 1; a symbolic numerator is divided once per distinct value."""
    if isinstance(den, int):
        if den == 1:
            return data, den
        g = den
        for row in data:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    return data, den
        return [{c: v // g for c, v in row.items()} for row in data], den // g
    if den == Q_ONE:
        return data, Q_ONE
    g = common_divisor(den, (v for row in data for v in row.values()))
    if g is Q_ONE:
        return data, den
    den = divide_exact(den, g)
    return (each_distinct(data, lambda v: divide_exact(v, g)),
            Q_ONE if den == Q_ONE else den)


def _primitive(row) -> dict:
    """A numerator row divided by its content: the gcd of its ints, or the
    gcd in Z[q] of its Laurent numerators with their lowest power of q
    removed (:func:`laurent_content`), each numerator divided exactly."""
    values = row.values()
    if isinstance(next(iter(values), 0), int):      # an empty row too
        g = gcd(*values)
        return row if g == 1 else {c: v // g for c, v in row.items()}
    g = laurent_content(values)
    return row if g is Q_ONE else {c: divide_exact(v, g)
                                   for c, v in row.items()}


def _rescaled(data, f) -> list:
    """The numerator rows times the numerator f (the rows themselves if 1)."""
    if f == 1:
        return data
    return [{c: v * f for c, v in row.items()} for row in data]


def _numerators(rows, zero) -> tuple:
    """Rows of column -> nonzero entry as (rows of numerators over their
    least common denominator, that denominator)."""
    if not _rational(zero):
        return laurent_rows(rows)
    den = 1
    for row in rows:
        for v in row.values():
            d = v.denominator
            if den % d:
                den = lcm(den, d)
    if den == 1:
        return [{c: v.numerator for c, v in row.items()} for row in rows], 1
    return [{c: v.numerator * (den // v.denominator) for c, v in row.items()}
            for row in rows], den


def _mat(data, den, nrows: int, ncols: int, zero) -> Mat:
    """A Mat from numerator rows that already hold the invariants."""
    out = _new(Mat)
    out.data = data
    out.den = den
    out.nrows = nrows
    out.ncols = ncols
    out.zero = zero
    return out


def _reduced(data, den, nrows: int, ncols: int, zero) -> Mat:
    """A Mat from numerator rows that hold the invariants up to the content
    reduction."""
    data, den = _reduce(data, den)
    return _mat(data, den, nrows, ncols, zero)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def row_reduce(mat: Mat) -> tuple:
    """Gauss-Jordan elimination over the field, fraction-free on the
    numerator rows.

    Pivots are sought column by column, each the first nonzero at or below
    the current row, so the result is deterministic.  Scaling every row by
    den leaves the reduced row echelon form as it is, so den is ignored: a
    row with f in the pivot column becomes p * row - f * (pivot row), p the
    pivot, over its content (:func:`_primitive`), and each pivot row is
    divided by its pivot at the end.  Returns (pivot columns, the nonzero
    rows of the reduced row echelon form as a Mat).  Reducing [A | I]
    solves A X = I: A is invertible if and only if the pivots are its n
    columns, and then the right half is A**-1.
    """
    rows = list(mat.data)
    nr = len(rows)
    pivots = []
    for c in range(mat.ncols):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if c in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            new = {j: p * v for j, v in row.items()}
            for j, y in prow.items():
                x = new.get(j)
                x = -f * y if x is None else x - f * y
                if x:
                    new[j] = x
                else:               # only an entry of row cancels
                    del new[j]
            rows[i] = _primitive(new)
        pivots.append(c)
    zero = mat.zero
    out = [{j: _entry(zero, row[j], row[c]) for j in sorted(row)}
           for row, c in zip(rows, pivots)]
    return pivots, _reduced(*_numerators(out, zero), len(pivots), mat.ncols,
                            zero)


def inverse(mat: Mat) -> Mat:
    """A**-1, the right half of the reduced [A | I], which is built as
    [N | den * I] on the numerator rows N of A over its den."""
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("inverse needs a square matrix")
    den = mat.den
    pivots, reduced = row_reduce(_mat(
        [{**row, n + i: den} for i, row in enumerate(mat.data)], den, n,
        2 * n, mat.zero))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _reduced([{j - n: v for j, v in row.items() if j >= n}
                     for row in reduced.data], reduced.den, n, n, mat.zero)


# ---------------------------------------------------------------------------
# leg operators
# ---------------------------------------------------------------------------

class LegError(ValueError):
    pass


class LegOperator(Mat):
    """A square Mat on V**m, n = dim V, tagged with its legs for
    :func:`embed_on_legs`.  Arithmetic is Mat's and returns plain Mats."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, mat: Mat):
        dim = n ** m
        if mat.nrows != dim or mat.ncols != dim:
            raise LegError(f"matrix is {mat.nrows}x{mat.ncols}, expected {dim}x{dim}")
        self.data, self.den, self.zero = mat.data, mat.den, mat.zero
        self.nrows = self.ncols = dim
        self.n = n
        self.m = m

    @property
    def mat(self) -> Mat:
        """The operator itself."""
        return self


def embed_on_legs(op: LegOperator, start: int, total: int) -> LegOperator:
    """I**(start-1) (x) op (x) I**(total-start-m+1), legs numbered from 1."""
    m0 = op.m
    if start < 1 or start + m0 - 1 > total:
        raise LegError(f"legs [{start}, {start + m0 - 1}] do not fit in {total}")
    n = op.n
    return LegOperator(n, total, op.embed(n ** (start - 1),
                                          n ** (total - start - m0 + 1)))


def weighted_partial_trace(mat: Mat, legs, weight: Mat, dims) -> Mat:
    """Contract the listed legs of an operator against a weight matrix.

    mat acts on a tensor product of factors with the given dims (V**k,
    V**k (x) M, V_(k) (x) V_(m), ...), indexed like a leg operator: mixed
    radix with leg 1 most significant, output index on rows.  Each traced
    leg contributes sum_{a,b} weight[a][b] times the entry with output
    index b and input index a on that leg, i.e. tr(W X) leg by leg:
    weight = I is the ordinary partial trace, weight = C the quantum trace.
    Every traced leg must have the weight's dimension.  Returns the
    operator on the kept factors.
    """
    legs = sorted(set(legs))
    if not legs:
        return mat
    if legs[0] < 1 or legs[-1] > len(dims):
        raise LegError(f"trace legs {legs} out of range 1..{len(dims)}")
    w = weight.nrows
    if weight.ncols != w or any(dims[t - 1] != w for t in legs):
        raise LegError(f"weight is {weight.nrows}x{weight.ncols}, "
                       f"traced legs have dims {[dims[t - 1] for t in legs]}")
    if mat.nrows == 0:
        raise LegError("empty operator")
    # every full index splits into (kept code, traced code)
    split = [(0, 0)]
    for t, dt in enumerate(dims, 1):
        if t in legs:
            split = [(kc, tc * dt + a) for kc, tc in split for a in range(dt)]
        else:
            split = [(kc * dt + a, tc) for kc, tc in split for a in range(dt)]
    # weight of a (traced output, traced input) pair: prod_t weight[in_t][out_t]
    wt = weight.transpose().data
    pair = wt
    for _ in legs[1:]:
        pair = [{pc * w + wc: x * y for pc, x in prow.items()
                 for wc, y in wrow.items()} for prow in pair for wrow in wt]
    dim_out = mat.nrows // w ** len(legs)
    acc = [{} for _ in range(dim_out)]
    for r, row in enumerate(mat.data):
        ko, to = split[r]
        prow = pair[to]
        if not prow:
            continue
        orow = acc[ko]
        for c, v in row.items():
            kc, tc = split[c]
            pv = prow.get(tc)
            if pv is not None:
                x = orow.get(kc)
                orow[kc] = pv * v if x is None else x + pv * v
    return _reduced([{c: row[c] for c in sorted(row) if row[c]} for row in acc],
                    mat.den * weight.den ** len(legs), dim_out, dim_out, mat.zero)


def block_pairing(f: Mat, g: Mat, n: int, transpose: bool) -> Mat:
    """sum_(j,a) F_ja (x) G_aj for f = sum_ij E_ij (x) F_ij and
    g = sum_ij E_ij (x) G_ij, i, j < n, each G_aj transposed when transpose
    is set.

    This is the partial trace over the generator leg of the product
    (f (x) I)(sum_aj E_aj (x) I (x) G_aj), formed on the d_f d_g dimensions
    of the result, not on the n d_f d_g of that product; a weight W on the
    traced leg, as in :func:`weighted_partial_trace`, is applied to f
    beforehand, as (W (x) I) f.  The numerators are accumulated as in a
    product, packed into ints in symbolic mode.
    """
    if f.nrows != f.ncols or g.nrows != g.ncols or f.nrows % n or g.nrows % n:
        raise ValueError("block pairing needs two n x n grids of square blocks")
    d1, d2 = f.nrows // n, g.nrows // n
    zero = f.zero
    fdata, gdata = f.data, g.data
    if not _rational(zero):
        # a coefficient sums n rows of f against g: n times a product's bound
        bits = pack_width(fdata, gdata) + n.bit_length()
        fdata, flow = pack_rows(fdata, bits)
        gdata, glow = pack_rows(gdata, bits)
    blocks = [[[{} for _ in range(d2)] for _ in range(n)] for _ in range(n)]
    for r, row in enumerate(gdata):         # blocks[a][j][s]: row s of G_aj
        a, s = divmod(r, d2)
        for c, v in row.items():
            j, t = divmod(c, d2)
            if transpose:
                blocks[a][j][t][s] = v
            else:
                blocks[a][j][s][t] = v
    out = []
    for r1 in range(d1):
        accs = [{} for _ in range(d2)]      # the rows (r1, 0..d2-1)
        for j in range(n):
            for c, x in fdata[j * d1 + r1].items():
                a, c1 = divmod(c, d1)
                base = c1 * d2
                for acc, grow in zip(accs, blocks[a][j]):
                    for c2, y in grow.items():
                        col = base + c2
                        z = acc.get(col)
                        acc[col] = x * y if z is None else z + x * y
        out.extend({c: acc[c] for c in sorted(acc) if acc[c]} for acc in accs)
    if not _rational(zero):
        out = unpack_rows(out, bits, flow + glow)
    return _reduced(out, f.den * g.den, d1 * d2, d1 * d2, zero)
