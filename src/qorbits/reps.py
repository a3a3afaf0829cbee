"""Finite-dimensional left and right representations of the (m)REA.

A representation is one operator on V (x) M, the image of the generator
matrix: blocks = sum_ij E_ij (x) rho_ij, where the d x d block rho_ij
realizes the entry l_i^j.  Left blocks are ordinary operator matrices (the
block map is an algebra homomorphism under matrix product).  Right blocks
are stored in the same column-action convention, which makes the block map
an anti-homomorphism; the relations engine therefore evaluates all products
in the opposite order for side="right" (implemented by running the one
engine on transposed blocks, ``Mat.embed_blocks``).

The defining relations live on V (x) V with operator-valued entries:

    R L1 R L1 - L1 R L1 R = hbar (R L1 - L1 R),   L1 = L (x) I,

which is the commutator form R W = W R with W = L1 R L1 - hbar L1, the
form :func:`verify_defining_relations` checks.

Symmetric powers are built on the levels (b_j, l_j) of the q-symmetrizer
tower (:func:`sym_level`): left, q**(1-m) m_q Y_m with Y_1 the fundamental
blocks and Y_j = (I (x) l_j)(Y_{j-1} (x) I)(I (x) b_j); right, q**(1-m) m_q
(I (x) l_m) X (I (x) b_m), X the single-leg blocks on the last leg.  As
B_m = (B_{m-1} (x) I) b_m and L_m = l_m (L_{m-1} (x) I), both are L_m X B_m,
the compression of the full-leg sandwich (I (x) S(m)) X (I (x) S(m)).  A
module carries its mass hbar and nothing else about the algebra: hbar = 0
is the REA.  Every constructor in this module verifies the relations once,
when first built; the module is kept in the memo of its symmetry's
certification under the constructor's name and arguments, so every symmetry
of the same exact (R, q) shares it.  A module is frozen, and nobody may
write into its blocks.  The shifts :func:`with_mass` and :func:`rescaled`
verify every module they return.  :func:`sym_chart` wraps the memo's chart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .scalars import ScalarDomain
from .tensor import Mat, embed_on_legs
from .projectors import _chart, _level, q_antisymmetrizer


class RepresentationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact charts for projector images
# ---------------------------------------------------------------------------

class Compression:
    """Deterministic exact chart (B, L) for the image of a projector P.

    P = B L is a rank factorization with L B = I: B is a basis of the image
    and L a left inverse on it.  Compressing an image-preserving operator X
    is the product L X B, and the round trip B Y = X B is asserted, so a
    wrong chart fails loudly.
    """

    def __init__(self, basis: Mat, left_inverse: Mat):
        self.basis = basis
        self.left_inverse = left_inverse
        self.dim = basis.ncols

    def compress(self, x: Mat) -> Mat:
        xt = x * self.basis
        y = self.left_inverse * xt
        if not (self.basis * y == xt):
            raise RepresentationError("operator does not preserve the image")
        return y


def sym_chart(h, m: int) -> Compression:
    """Chart for the q-symmetric component on m legs."""
    return Compression(*_chart(h, "S", m))


def sym_level(h, m: int) -> Compression:
    """Chart (b_m, l_m) of V_(m) inside V_(m-1) (x) V, certified level m."""
    return Compression(*_level(h._memo, h.r, h.domain, "S", m)[1:])


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """A module as one operator: blocks = sum_ij E_ij (x) rho_ij on V (x) M."""
    side: str                       # "left" | "right"
    hbar: Fraction                  # the mass; 0 is the REA
    n: int
    d: int
    blocks: Mat                     # sum_ij E_ij (x) rho_ij on V (x) M
    label: str
    domain: ScalarDomain

    def generator_matrix(self, aux_legs: int = 1) -> Mat:
        """sum_ij E_ij (x) I (x) B_ij on V**aux_legs (x) M.

        B_ij are the blocks in the orientation that makes the block map a
        homomorphism under plain products: rho_ij for left modules, its
        transpose for right ones.  Aux leg 1 carries the generator indices,
        the other aux legs are spectators and the module comes last, so an
        auxiliary operator X acts as X.embed(1, d).
        """
        if aux_legs == 1 and self.side == "left":
            return self.blocks
        return self.blocks.embed_blocks(self.d, self.n ** (aux_legs - 1),
                                        self.side == "right")

    def __repr__(self):
        return (f"Representation({self.label}, side={self.side}, "
                f"hbar={self.hbar}, d={self.d})")


def verify_defining_relations(rep: Representation, h) -> list:
    """Exact check of the (m)REA relations at the module's mass rep.hbar;
    empty list iff valid.

    The relation matrix is the commutator R~ W - W R~ with R~ = R (x) I_d
    and W = L1 R~ L1 - hbar L1: one product of two generator matrices, and
    two by R~, which has at most two nonzeros per row on the standard
    symmetries.  The relations hold iff R~ W == W R~ (the reduced form
    makes == exact); otherwise returns the block positions ((i, j),
    (k, l)) at which R~ W - W R~ is nonzero.  For side="right" the
    products are evaluated in the opposite multiplication order, as
    befits an anti-homomorphism.
    """
    n, d = rep.n, rep.d
    dom = rep.domain
    hbar = dom.lift(rep.hbar)
    l1 = rep.generator_matrix(2)
    rbig = h.r.embed(1, d)
    w = l1 * (rbig * l1)
    if hbar:
        w = w - l1.scale(hbar)
    rw, wr = rbig * w, w * rbig
    if rw == wr:
        return []
    bad = sorted({(r // d, c // d) for r, c, _ in (rw - wr).entries()})
    return [((a // n, a % n), (b // n, b % n)) for a, b in bad]


def _checked(rep: Representation, h) -> Representation:
    bad = verify_defining_relations(rep, h)
    if bad:
        raise RepresentationError(
            f"{rep.label}: defining relations fail at {len(bad)} block(s), "
            f"first at {bad[0]}")
    return rep


def _built_once(build):
    """Memoize a module constructor on its symmetry under (name, *args),
    verifying the defining relations once, when the module is built."""
    def constructor(h, *args):
        return h.memo((build.__name__,) + args,
                      lambda: _checked(build(h, *args), h))
    constructor.__name__ = constructor.__qualname__ = build.__name__
    constructor.__doc__ = build.__doc__
    constructor.__wrapped__ = build
    return constructor


@_built_once
def fundamental_left(h) -> Representation:
    """Left fundamental module: the generator block sends x_k to x_i B_k^j."""
    n, dom = h.n, h.domain
    blocks = Mat.from_entries(n * n, n * n, dom.zero,
                              ((i * n + i, j * n + k, v)
                               for i in range(n) for j, k, v in h.b.entries()))
    return Representation("left", Fraction(1), n, n, blocks, "fundamental", dom)


@_built_once
def tensor_power_left(h, m: int) -> Representation:
    """Reducible module on the full tensor power via inverse-braiding chains."""
    if m < 1:
        raise RepresentationError("m must be positive")
    n = h.n
    cur = total = fundamental_left(h).blocks.embed(1, n ** (m - 1))
    for r in range(1, m):
        rinv = embed_on_legs(h.r_inv, r, m).embed(n, 1)
        cur = rinv * cur * rinv
        total = total + cur
    return Representation("left", Fraction(1), n, n ** m, total,
                          f"tensor_power m={m}", h.domain)


def _on_level(h, m: int, x: Mat) -> Mat:
    """(I (x) l_m) x (I (x) b_m), x on V (x) V_(m-1) (x) V."""
    chart = sym_level(h, m)
    return chart.left_inverse.embed(h.n, 1) * x * chart.basis.embed(h.n, 1)


@_built_once
def sym_power_left(h, m: int) -> Representation:
    """Compression of the tensor power to the q-symmetric component."""
    if m < 1:
        raise RepresentationError("m must be positive")
    blocks = fundamental_left(h).blocks
    for j in range(2, m + 1):
        blocks = _on_level(h, j, blocks.embed(1, h.n))
    blocks = blocks.scale(h.domain.q_pow(1 - m) * h.domain.q_int(m))
    return Representation("left", Fraction(1), h.n, blocks.nrows // h.n,
                          blocks, f"sym_power m={m}", h.domain)


def right_fundamental_blocks(h) -> Mat:
    """Single-leg right action: x_k picks up the antisymmetrizer contraction."""
    n, dom = h.n, h.domain
    entries = []
    for r, c, v in q_antisymmetrizer(h, 2).entries():
        (s, j), (k, i) = divmod(r, n), divmod(c, n)
        entries.append((i * n + s, j * n + k, v))
    return Mat.from_entries(n * n, n * n, dom.zero, entries).scale(
        dom.q_int(2) * dom.q_pow(-2))


@_built_once
def sym_power_right_p2(h, m: int) -> Representation:
    """Right module on the q-symmetric component; rank-2 symmetries only."""
    if h.p != 2:
        raise RepresentationError("requires symmetry rank 2")
    if m < 1:
        raise RepresentationError("m must be positive")
    x = right_fundamental_blocks(h).embed_blocks(
        h.n, sym_level(h, m).basis.nrows // h.n)            # d_{m-1}
    blocks = _on_level(h, m, x).scale(
        h.domain.q_pow(1 - m) * h.domain.q_int(m))
    return Representation("right", Fraction(1), h.n, blocks.nrows // h.n,
                          blocks, f"sym_power_right m={m}", h.domain)


@_built_once
def sym_power_right_rea_p2(h, m: int) -> Representation:
    """Right REA module on the q-symmetric component, in spectral normalization.

    The reflection equation is quadratic homogeneous, so right REA modules
    come with a free overall scale.  This constructor fixes the scale so the
    generator matrix in the module has basic roots {1, q**(-2m-2)}; concretely
    the blocks are delta_ij I - zeta * (mREA right action), which is -zeta
    times the plain unit shift of :func:`sym_power_right_p2`.  All central
    element values and Cayley-Hamilton root formulas downstream assume this
    normalization.
    """
    base = sym_power_right_p2(h, m)
    dom = h.domain
    blocks = (base.blocks.scale(-dom.zeta)
              + Mat.identity(base.blocks.nrows, dom.zero, dom.one))
    return Representation("right", Fraction(0), h.n, base.d, blocks,
                          f"sym_power_right m={m} [rea, spectral scale]", dom)


def with_mass(rep: Representation, hbar, h) -> Representation:
    """The module at mass hbar: rho + (hbar - rep.hbar)/zeta on the diagonal.

    The unit-element shift L -> L + c I with c zeta = hbar - rep.hbar carries
    solutions of the relations at one mass onto those at another; hbar = 0
    lands on the REA.  The result is verified against h.
    """
    dom = rep.domain
    hbar = Fraction(hbar)
    c = (dom.lift(hbar) - dom.lift(rep.hbar)) / dom.zeta
    blocks = rep.blocks + Mat.identity(rep.blocks.nrows, dom.zero, c)
    return _checked(replace(rep, hbar=hbar, blocks=blocks,
                            label=rep.label + f" [hbar={hbar}]"), h)


def rescaled(rep: Representation, z, h) -> Representation:
    """rho -> z rho + (1 - z) hbar/zeta on the diagonal (z != 0) at the same
    mass: the rescaling of the REA shifted to the module's mass.  The result
    is verified against h."""
    z = Fraction(z)
    if z == 0:
        raise RepresentationError("z must be nonzero")
    dom = rep.domain
    zl = dom.lift(z)
    c = (dom.one - zl) * dom.lift(rep.hbar) / dom.zeta
    blocks = rep.blocks.scale(zl) + Mat.identity(rep.blocks.nrows, dom.zero, c)
    return _checked(replace(rep, blocks=blocks, label=rep.label + f" [z={z}]"),
                    h)
