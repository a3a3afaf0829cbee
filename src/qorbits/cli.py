"""Command-line verification driver with machine-readable JSON reports.

Each run names a suite of exact checks (or all of them) and writes one
report:

    {"schema": 1, "suite": ..., "seed": ..., "q": [...], "checks": [
        {"id": ..., "anchor": ..., "params": {...},
         "status": "pass"|"fail"|"finding", "witness": ..., "ms": ...}, ...]}

Reports are deterministic for fixed (arguments, seed) up to the timing
fields; checks are sorted by id.  Exit code 0 means no failed check (open
questions surface as status "finding", never as failures; a check that
raises is a failure all the same), 2 is a usage error, 3 a file error.

Each suite is a body run once per q sample by :func:`_run_samples`, which
hands it the sample's domain and a ``check`` helper.  The helper records
one check under the id ``<suite>.q<tag>.<name>`` (``calibrate`` for
``calibrate-trace``) with ``q`` added to its params; a check that does
not depend on q runs once and is recorded under every q's id, and
newton's parametric samples, which carry their own q, run after the
samples under ids without one.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache
from math import comb, prod

from . import euler as euler_mod
from . import hecke as hecke_mod
from . import identities as ident_mod
from . import orbits as orbit_mod
from . import casimir as casimir_mod
from . import projectors as proj_mod
from . import reps as reps_mod
from .scalars import SYMBOLIC, at_q, eval_at, random_q, random_rationals
from .tensor import Mat, embed_on_legs

SCHEMA_VERSION = 1

ANCHORS = {
    "ybe": "yang-baxter-equation",
    "hecke": "hecke-condition",
    "skew": "skew-inverse-contraction",
    "bc_product": "weight-product-normalization",
    "bc_trace": "weight-trace-normalization",
    "rank": "antisymmetrizer-rank-collapse",
    "sym_proj": "symmetrizer-recursion",
    "anti_proj": "antisymmetrizer-rank-collapse",
    "proj_ranks": "projector-rank-sequence",
    "relations": "defining-relations",
    "sym_module": "symmetric-power-module",
    "right_module": "right-module-relations",
    "shift": "unit-element-shift",
    "z_shift": "scale-shift-family",
    "ch_basic": "basic-cayley-hamilton",
    "ch_coeff": "central-coefficient-form",
    "ch_higher": "higher-cayley-hamilton-rank2",
    "closed_form": "casimir-closed-form",
    "newton_rows": "newton-rows",
    "newton_param": "parametric-newton-resolution",
    "esp": "elementary-symmetric-recurrences",
    "conjecture": "higher-root-formula",
    "mult_classical": "classical-multiplicities",
    "mult_quantum": "quantum-multiplicities",
    "hn_classical": "classical-higher-newton",
    "hn_quantum": "weighted-higher-newton",
    "strings": "orbit-strings",
    "idempotents": "spectral-idempotents",
    "euler": "q-euler-characteristic",
    "q_algebra": "class-algebra-relations",
    "calibration": "trace-calibration",
}


class CheckRecorder:
    def __init__(self):
        self.checks = []

    def run(self, check_id: str, anchor_key: str, params: dict, fn,
            finding: bool = False):
        """Execute one check; fn returns (ok, witness_or_None)."""
        t0 = time.perf_counter()
        try:
            ok, witness = fn()
        except Exception as exc:           # a crash is a failed check,
            ok, witness = False, f"{type(exc).__name__}: {exc}"
            finding = False                # also where the outcome is a finding
        ms = (time.perf_counter() - t0) * 1000.0
        if finding:
            status = "finding" if ok else ("finding" if witness else "fail")
            witness = witness or ("consistent" if ok else None)
        else:
            status = "pass" if ok else "fail"
        self.checks.append({
            "id": check_id,
            "anchor": ANCHORS[anchor_key],
            "params": params,
            "status": status,
            "witness": witness if isinstance(witness, str) else None,
            "ms": round(ms, 3),
        })


def _domains(args, rng) -> list:
    """Scalar domains the suite runs over, per the q mode flags."""
    if args.symbolic:
        return [SYMBOLIC]
    if args.q == "random":
        return [at_q(random_q(rng)) for _ in range(args.samples)]
    return [at_q(Fraction(args.q))]


def _r_matrix(args, domain, n: int):
    """The R-matrix of the --r-file, built from the one parse that
    :func:`_check_args` kept (``args.r_data``), else the standard one on an
    n-dimensional space."""
    if not args.r_file:
        return hecke_mod.standard_r(n, domain)
    return hecke_mod.build_r(*args.r_data, domain)


def _hecke(args, domain, n: int, standard: bool = False) -> hecke_mod.HeckeSymmetry:
    """The symmetry on the --r-file R-matrix (the standard one on an
    n-dimensional space when there is none, or when standard is set).

    Symmetries of the same exact (R, q) share their certification and its
    memo of projectors, charts and modules, so the suites of ``all`` build
    each of those once; the CLI keeps nothing of its own.
    """
    r = (hecke_mod.standard_r(n, domain) if standard
         else _r_matrix(args, domain, n))
    try:
        return hecke_mod.HeckeSymmetry(r, domain)
    except hecke_mod.HeckeError as exc:
        print(f"error: {args.r_file}: not a Hecke symmetry at "
              f"q={domain.describe()}: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _largest_spaces(args, file_n) -> dict:
    """suite -> (dim, spaces): the largest operators the suite builds act on
    V**legs (x) V_(j1) (x) V_(j2) ... for (legs, (j1, j2, ...)) in spaces,
    beside the certifier's (:func:`_size_above`).  V is of the dimension of
    the symmetry the suite really runs on: the R-file's when one is given,
    else --n, 2 for the rank-2 suites and the rank p for the conjecture
    scan.  A tensor power of degree m has its relations checked on
    V (x) V (x) V**m, m + 2 legs; a symmetric power on V (x) V (x) V_(m),
    and its levels build nothing larger; a split Casimir of degrees (k, m)
    is counted on V (x) V_(k) (x) V_(m), which bounds its modules and its
    pairing (on V_(k) (x) V_(m)), and its closed form compresses on
    V_(k) (x) V**m.  Off the standard symmetries dim V_(m) is
    no binomial but at most n**m, so R-file runs count V_(m) as m legs.
    """
    k = args.k or 3
    n = file_n or args.n
    rank2 = file_n or 2
    m_ch = min(k, args.m or 3)
    m_scan = min(k, args.m or 2)
    n_scan = file_n or args.p or 3

    def space(legs, *degrees):
        return (legs + sum(degrees), ()) if file_n else (legs, degrees)
    return {
        "validate": (n, ()),
        "projectors": (n, ((args.m or n + 1, ()),)),
        "reps": (n, (((args.m or 3) + 2, ()),)),        # tensor powers
        "ch": (rank2, (space(1, k, m_ch), space(m_ch, k))),
        "newton": (rank2, (space(1, k, 1),)),
        "conjecture": (n_scan, (space(1, k, m_scan),) if m_scan >= 2 else ()),
        "orbit": (2, ((1, (3, 2)),)),                   # standard only
        "calibrate-trace": (rank2, (space(1, args.m or 3, 1),)),
    }


def _size_above(bound: int, dim: int, spaces) -> str | None:
    """A :func:`_largest_spaces` size as text if it is above bound, else None.
    Every symmetry a suite builds or validates is certified, so the
    Yang-Baxter check on 3 legs counts too, and so does the step into
    antisymmetrizer level m, on C(dim, m - 2) dim**2 <= C(dim, dim // 2)
    dim**2 dimensions.  A degree above bound is refused unformed and 3 legs
    cap dim before the binomials are formed, so no int of unbounded size is
    formed."""
    spaces = ((3, ()), *spaces)
    if dim > 1 and any(j > bound for legs, degrees in spaces
                       for j in (legs, *degrees)):
        return f"more than {bound}"
    size = 1
    for legs, degrees in spaces:
        power = 1
        for _ in range(legs if dim > 1 else 0):
            power *= dim
            if power > bound:
                return f"{dim}**{legs}"
        size = max(size, power * prod(comb(dim + j - 1, j) for j in degrees))
    size = max(size, comb(dim, dim // 2) * dim * dim)
    return str(size) if size > bound else None


# ---------------------------------------------------------------------------
# suites: each body runs at one q sample and records through check()
# ---------------------------------------------------------------------------

def suite_validate(args, check, rng, dom):
    n = args.r_data[0] if args.r_file else args.n
    rep = hecke_mod.validate_hecke_symmetry(_r_matrix(args, dom, n), dom)
    for name, ok, reason in (
            ("ybe", rep.ybe, None),
            ("hecke", rep.hecke, None),
            ("skew", rep.skew_invertible, "skew_error"),
            ("rank", rep.rank == n, "rank_outcome"),
            ("bc_product", rep.bc_product, "bc_product_error"),
            ("bc_trace", rep.bc_trace, "bc_trace_error")):
        check(name, name, lambda: (ok, rep.details.get(reason)), n=n)


def suite_projectors(args, check, rng, dom):
    h = _hecke(args, dom, args.n)
    n = h.n
    m_max = args.m or (n + 1)
    for m in range(1, m_max + 1):
        s = proj_mod.q_symmetrizer(h, m)
        a = proj_mod.q_antisymmetrizer(h, m)
        check(f"m{m}.idempotent", "sym_proj",
              lambda: ((s * s == s) and (a * a == a), None), n=n, m=m)

        def ranks():
            rs = s.trace()
            ra = a.trace()
            ok = (dom.lift(comb(n + m - 1, m)) == rs
                  and dom.lift(comb(n, m)) == ra)
            return ok, None if ok else f"traces {rs}, {ra}"
        check(f"m{m}.ranks", "proj_ranks", ranks, n=n, m=m)

        def absorb():
            # R_i P = P R_i = c P pins both the image and the kernel
            for i in range(1, m):
                r_i = h.r_on(i, m)
                for name, p, c in (("symmetric", s, dom.q),
                                   ("antisymmetric", a, -dom.q_pow(-1))):
                    if not (r_i * p == p.scale(c) == p * r_i):
                        return False, f"{name} absorption fails at leg {i}"
            return True, None
        check(f"m{m}.absorption", "sym_proj", absorb, n=n, m=m)

    def complement():
        s2 = proj_mod.q_symmetrizer(h, 2)
        a2 = proj_mod.q_antisymmetrizer(h, 2)
        return (s2 + a2 == h.identity(2)), None
    check("complement", "sym_proj", complement, n=n)

    def nested():
        for m in range(2, m_max + 1):
            s_m = proj_mod.q_symmetrizer(h, m)
            for k in range(1, m):
                s_k = embed_on_legs(proj_mod.q_symmetrizer(h, k), 1, m)
                if not (s_m * s_k == s_m):
                    return False, f"nested absorption fails at ({m},{k})"
        return True, None
    check("nested", "sym_proj", nested, n=n)


def _built(constructor, *args) -> tuple:
    """A module constructor checks the defining relations as it builds and
    raises RepresentationError if they fail: building it is the check."""
    constructor(*args)
    return True, None


def suite_reps(args, check, rng, dom):
    m_max = args.m or 3
    h = _hecke(args, dom, args.n)
    n = h.n
    check("fundamental", "relations",
          lambda: _built(reps_mod.fundamental_left, h), n=n)

    for m in range(2, m_max + 1):
        check(f"tensor.m{m}", "relations",
              lambda: _built(reps_mod.tensor_power_left, h, m), n=n, m=m)

        def sym_eq():
            sym = reps_mod.sym_power_left(h, m)
            tp = reps_mod.tensor_power_left(h, m)
            basis = reps_mod.sym_chart(h, m).basis.embed(h.n, 1)
            return tp.blocks * basis == basis * sym.blocks, None
        check(f"sym_eq_compressed.m{m}", "sym_module", sym_eq, n=n, m=m)

        def invariance():
            x = reps_mod.tensor_power_left(h, m).blocks
            s = proj_mod.q_symmetrizer(h, m).embed(h.n, 1)
            return (s * x * s == x * s), None
        check(f"invariance.m{m}", "sym_module", invariance, n=n, m=m)

    if h.p == 2:
        for m in range(1, m_max + 1):
            check(f"right.m{m}", "right_module",
                  lambda: _built(reps_mod.sym_power_right_p2, h, m), n=n, m=m)

    def shifts():
        f = reps_mod.fundamental_left(h)
        back = reps_mod.with_mass(reps_mod.with_mass(f, 0, h), 1, h)
        return back.blocks == f.blocks, None
    check("shift_round_trip", "shift", shifts, n=n)

    def z_action():
        f = reps_mod.fundamental_left(h)
        a = reps_mod.rescaled(reps_mod.rescaled(f, 3, h), 2, h)
        b = reps_mod.rescaled(f, 6, h)
        return a.blocks == b.blocks, None
    check("z_shift_action", "z_shift", z_action, n=n)


def suite_ch(args, check, rng, dom):
    k_max = args.k or 3
    m_max = args.m or min(k_max, 3)
    h = _hecke(args, dom, 2)
    for k in range(1, k_max + 1):
        def basic():
            cm = casimir_mod.split_casimir_matrix(h, k, 1, "rea")
            roots = casimir_mod.basic_roots(dom, k).mu
            ok, support = ident_mod.ch_verify(cm.op, roots, dom)
            return ok, None if ok else f"residual support {support}"
        check(f"basic.k{k}", "ch_basic", basic, k=k)

        def sigma_values():
            rep = reps_mod.sym_power_right_rea_p2(h, k)
            cv = ident_mod.central_elements_in_rep(h, rep, 2)
            mu = casimir_mod.basic_roots(dom, k).mu
            ok = (cv.sigma[1] == mu[0] + mu[1]
                  and cv.sigma[2] == mu[0] * mu[1])
            return ok, None
        check(f"basic_sigma.k{k}", "ch_basic", sigma_values, k=k)

        def coeff_form():
            cm = casimir_mod.split_casimir_matrix(h, k, 1, "mrea")
            w = casimir_mod.trace_weights(h, 1)
            tr1 = casimir_mod.module_trace(cm.op, cm.dk, cm.dm, w)
            power = cm.op * cm.op
            tr2 = casimir_mod.module_trace(power, cm.dk, cm.dm, w)
            q = dom.q_pow(1)
            two_q = dom.q_int(2)
            sig1 = q * tr1 + dom.q_pow(-1)
            sig2 = (dom.q_pow(2) / two_q * (q * tr1 * tr1 - tr2)
                    + q / two_q * tr1)
            ok, support = ident_mod.ch_verify_coefficients(
                cm.op, [dom.one, sig1, sig2], dom)
            return ok, None if ok else f"residual support {support}"
        check(f"coeff_form.k{k}", "ch_coeff", coeff_form, k=k)

    for k in range(1, k_max + 1):
        for m in range(1, min(k, m_max) + 1):
            for algebra in ("rea", "mrea"):
                def higher():
                    cm = casimir_mod.split_casimir_matrix(h, k, m, algebra)
                    rd = casimir_mod.basic_roots(dom, k, algebra)
                    roots = ident_mod.omega_roots_p2(rd, m)
                    ok, support = ident_mod.ch_verify(
                        cm.op, [v for _, v in roots], dom)
                    return ok, None if ok else f"residual support {support}"
                check(f"higher.k{k}.m{m}.{algebra}", "ch_higher", higher,
                      k=k, m=m, algebra=algebra)

            def closed():
                a = casimir_mod.split_casimir_matrix(h, k, m, "rea")
                b = casimir_mod.closed_form_p2(h, k, m)
                return (a.op == b.op), None
            check(f"closed_form.k{k}.m{m}", "closed_form", closed, k=k, m=m)


def _newton_rows(cv, p: int, dom) -> tuple:
    """Newton rows 1..p of the central values cv: every row present and
    every row holding."""
    rows = ident_mod.newton_check(cv, p, dom)
    if sorted(rows) != list(range(1, p + 1)):
        return False, f"rows {sorted(rows)} checked, expected 1..{p}"
    bad = [r for r, ok in rows.items() if not ok]
    return not bad, f"rows {bad} fail" if bad else None


def suite_newton(args, check, rng, dom):
    h = _hecke(args, dom, 2)
    for k in range(1, (args.k or 3) + 1):
        def rows():
            rep = reps_mod.sym_power_right_rea_p2(h, k)
            cv = ident_mod.central_elements_in_rep(h, rep, 2)
            return _newton_rows(cv, 2, dom)
        check(f"rep.k{k}", "newton_rows", rows, k=k)


def _newton_samples(args, rec, rng):
    """newton's checks that do not depend on the q samples, drawn from rng
    after every sample: the parametric resolution at exact random (mu, q)
    and the elementary symmetric recurrences."""
    for p in range(2, (args.p or 4) + 1):
        for trial in range(3):
            dom = at_q(random_q(rng))
            mu = random_rationals(rng, p)

            def param():
                rd = ident_mod.RootData(mu=mu, hbar=Fraction(0), domain=dom)
                cv = ident_mod.parametric_central_values(rd, p)
                return _newton_rows(cv, p, dom)
            rec.run(f"newton.parametric.p{p}.sample{trial}", "newton_param",
                    {"p": p, "q": str(dom.q0), "mu": [str(v) for v in mu]},
                    param)

    def esp_props():
        t = random_rationals(rng, 5)
        n = len(t)
        # one e-vector of t per deleted set of at most two, zero-padded to e_n
        skips = [()] + [(i,) for i in range(n)] + [
            (i, j) for i in range(n) for j in range(i + 1, n)]
        esw = {frozenset(skip): ident_mod.elementary_symmetric_all(
                   [v for i, v in enumerate(t) if i not in skip])
               + [Fraction(0)] * len(skip) for skip in skips}
        for k in range(1, n + 1):
            for i in range(n):
                without_i = esw[frozenset({i})]
                if esw[frozenset()][k] != without_i[k] + t[i] * without_i[k - 1]:
                    return False, f"deletion recurrence fails at k={k}, i={i}"
                for j in range(n):
                    if j == i:
                        continue
                    lhs = without_i[k] - esw[frozenset({j})][k]
                    rhs = (t[j] - t[i]) * esw[frozenset({i, j})][k - 1]
                    if lhs != rhs:
                        return False, f"difference identity fails k={k}"
            total = sum((t[i] * esw[frozenset({i})][k - 1] for i in range(n)),
                        Fraction(0))
            if Fraction(k) * esw[frozenset()][k] != total:
                return False, f"weighted sum identity fails at k={k}"
        return True, None
    rec.run("newton.esp_props", "esp", {}, esp_props)


def suite_conjecture(args, check, rng, dom):
    p = args.p or 3
    h = _hecke(args, dom, p)
    for m in range(2, (args.m or 2) + 1):
        for k in range(m, (args.k or 3) + 1):
            def scan():
                rep = orbit_mod.conjecture_scan(h, k, m)
                return rep.consistent, rep.witness
            check(f"k{k}.m{m}", "conjecture", scan, finding=(p > 2),
                  p=p, k=k, m=m)


def _multiplicities_match(rd, mode: str, m_max: int, ratios) -> tuple:
    """multiplicities(rd, m, mode) equals the oracle dict ratios(m), key set
    included, for m = 1..m_max."""
    for m in range(1, m_max + 1):
        got, want = orbit_mod.multiplicities(rd, m, mode), ratios(m)
        if got != want:
            kv = min(kv for kv in got.keys() | want.keys()
                     if got.get(kv) != want.get(kv))
            return False, f"mismatch at {kv}, m={m}"
    return True, None


def _hn_classical():
    for lam in [(5, 2), (7, 3)]:
        rep = orbit_mod.higher_newton_classical(lam, 2, 3)
        if not all(v[0] for v in rep.values()):
            return False, f"disagreement at lam={lam}"
    return True, None


def suite_orbit(args, check, rng, dom):
    p = args.p or 3
    m_max = args.m or 3

    # the classical checks do not depend on q (once=True): each verdict is
    # computed at the first q and recorded again under every q's id
    def mult_classical():
        # super-increasing gaps keep every derived eigenvalue distinct
        gaps = [m_max + 5 ** (i + 2) for i in range(p - 1)]
        lam = tuple(sum(gaps[i:]) for i in range(p - 1)) + (0,)
        mu = orbit_mod.classical_eigenvalues(list(lam))
        rd = ident_mod.RootData(mu=mu, hbar=Fraction(1),
                                domain=at_q(Fraction(2)))
        return _multiplicities_match(
            rd, "classical", m_max,
            lambda m: orbit_mod.classical_dim_ratios(lam, m, p))
    check("mult_classical", "mult_classical", mult_classical, once=True, p=p)

    def mult_quantum():
        lam = tuple(range(3 * (p - 1), -1, -3))[:p]
        mu = orbit_mod.rep_eigenvalues(lam, p, "rea_q", dom)
        rd = ident_mod.RootData(mu=mu, hbar=Fraction(0), domain=dom)
        return _multiplicities_match(
            rd, "quantum", m_max,
            lambda m: orbit_mod.quantum_dim_ratios(lam, m, p, dom))
    check("mult_quantum", "mult_quantum", mult_quantum, finding=(p > 2), p=p)
    check("hn_classical", "hn_classical", _hn_classical, once=True)

    h2 = _hecke(args, dom, 2, standard=True)

    def hn_quantum():
        for algebra in ("rea", "mrea"):
            rep = orbit_mod.higher_newton_quantum_p2(h2, 2, 2, 3, algebra)
            if not all(v[0] for v in rep.values()):
                return False, f"disagreement in {algebra} form"
        return True, None
    check("hn_quantum", "hn_quantum", hn_quantum, k=2, m=2)

    def idempotents():
        for (k, m) in [(2, 2), (3, 2)]:
            cm = casimir_mod.split_casimir_matrix(h2, k, m, "rea")
            rd = casimir_mod.basic_roots(dom, k)
            roots = [v for _, v in ident_mod.omega_roots_p2(rd, m)]
            es = orbit_mod.spectral_idempotents(cm.op, roots, dom)
            total = Mat.zeros(cm.dim, cm.dim, dom.zero)
            recon = Mat.zeros(cm.dim, cm.dim, dom.zero)
            for e, r in zip(es, roots):
                if not (e * e == e):
                    return False, "not idempotent"
                total = total + e
                recon = recon + e.scale(r)
            ident = Mat.identity(cm.dim, dom.zero, dom.one)
            if not (total == ident):
                return False, "idempotents do not resolve the identity"
            if not (recon == cm.op):
                return False, "spectral reconstruction fails"
        return True, None
    check("idempotents", "idempotents", idempotents)

    def strings():
        hb = Fraction(args.hbar)
        generic = ident_mod.RootData(mu=[5, 100, 7], hbar=hb, domain=dom)
        a, b, _ = generic.mu
        sd = orbit_mod.string_decompose(ident_mod.RootData(
            mu=[a, generic.successor(a), b], hbar=hb, domain=dom))
        lens = sorted(l for _, l in sd.strings)
        if lens != [1, 2]:
            return False, f"string lengths {lens}"
        if len(sd.minimal_roots) != 2:
            return False, "wrong number of minimal roots"
        sd2 = orbit_mod.string_decompose(generic)
        if sorted(l for _, l in sd2.strings) != [1, 1, 1]:
            return False, "generic set should give singleton strings"
        return True, None
    check("strings", "strings", strings)

    if args.mu:
        def user_strings():
            mu = [Fraction(x) for x in args.mu.split(",")]
            rd = ident_mod.RootData(mu=mu, hbar=Fraction(args.hbar),
                                    domain=dom)
            sd = orbit_mod.string_decompose(rd)
            return True, ", ".join(f"{v}:{n}" for v, n in sd.strings)
        check("user_strings", "strings", user_strings, finding=True,
              mu=args.mu, hbar=args.hbar)


def suite_euler(args, check, rng, dom):
    def shift_invariance():
        for _ in range(25):
            p = rng.randint(2, args.p or 4)
            k = [rng.randint(-6, 6) for _ in range(p)]
            a = rng.randint(-5, 5)
            v1 = euler_mod.q_index_and_euler(k, p, dom)
            v2 = euler_mod.q_index_and_euler([x + a for x in k], p, dom)
            if v1 != v2:
                return False, f"shift breaks at k={k}, a={a}"
        return True, None
    check("shift_invariance", "euler", shift_invariance)

    def p3_example():
        three = dom.q_int(3)
        vals = [euler_mod.q_dimension([1] * k, 3, dom) for k in (1, 2, 3)]
        return vals == [three, three, dom.one], None
    check("p3_example", "q_algebra", p3_example)

    def asym():
        a = euler_mod.q_index_and_euler([0, 0, 1], 3, dom)
        b = euler_mod.q_index_and_euler([0, 1, 0], 3, dom)
        return (a == dom.q_int(3) and b == dom.zero), None
    check("asymmetry", "euler", asym)

    for p in range(2, min(args.p or 4, 3) + 1):
        def algebra():
            rep = euler_mod.q_algebra_check(p, dom, args.m or 5)
            bad = [k for k, ok in rep.items() if not ok]
            return not bad, None if not bad else f"failed: {bad}"
        check(f"q_algebra.p{p}", "q_algebra", algebra, p=p)

    def classical_limit():
        for _ in range(10):
            p = rng.randint(2, 4)
            k = [rng.randint(-4, 4) for _ in range(p)]
            sym = euler_mod.q_index_and_euler(k, p, SYMBOLIC)
            lim = eval_at(sym, Fraction(1))
            if lim != euler_mod.classical_euler(k, p):
                return False, f"classical limit fails at k={k}"
        return True, None
    check("classical_limit", "euler", classical_limit)


def suite_calibrate(args, check, rng, dom):
    h = _hecke(args, dom, 2)
    for m in range(1, (args.m or 3) + 1):
        def weights():
            casimir_mod.trace_weights(h, m)
            return True, f"exponent {h.p * m}"
        check(f"weights.m{m}", "calibration", weights, finding=True, m=m)
        check(f"generator_trace.m{m}", "calibration",
              lambda: (casimir_mod.generator_trace_identity(h, m), None), m=m)


SUITES = {
    "validate": suite_validate,
    "projectors": suite_projectors,
    "reps": suite_reps,
    "ch": suite_ch,
    "newton": suite_newton,
    "conjecture": suite_conjecture,
    "orbit": suite_orbit,
    "euler": suite_euler,
    "calibrate-trace": suite_calibrate,
}


def _run_samples(args, rec, suite: str) -> list:
    """Run one suite's body once per q sample and return the samples'
    domains.  The domains come first from a fresh rng seeded with --seed,
    as in a standalone run; ``check`` forms ids and params as the module
    docstring says, and ``once=True`` marks a check that does not depend
    on q."""
    rng = random.Random(args.seed)
    domains = _domains(args, rng)
    prefix = suite.removesuffix("-trace")
    shared = {}
    for dom in domains:
        tag = dom.describe()

        def check(name, anchor_key, fn, finding=False, once=False, **params):
            if once:
                fn = shared.setdefault(name, cache(fn))
            rec.run(f"{prefix}.q{tag}.{name}", anchor_key,
                    dict(params, q=tag), fn, finding)
        SUITES[suite](args, check, rng, dom)
    if suite == "newton":               # its q-free checks draw after every q
        _newton_samples(args, rec, rng)
    return domains


# ---------------------------------------------------------------------------
# argument handling and report emission
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qorbits",
        description="Exact verification suites for Hecke symmetries and "
                    "reflection-equation orbit identities.")
    parser.add_argument("suite", choices=list(SUITES) + ["all"],
                        help="the suite to run, or all of them")
    parser.add_argument("--n", type=int, default=2,
                        help="dimension of the base space (default 2)")
    parser.add_argument("--p", type=int, default=None,
                        help="symmetry rank for rank-parametrized checks "
                             "(at least 2)")
    parser.add_argument("--q", type=str, default="random",
                        help="rational like 2/3, or 'random' (default); a "
                             "negative value is written --q=-2/3")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled parameters (default 0)")
    parser.add_argument("--samples", type=int, default=None,
                        help="number of random q samples (default 3); not "
                             "with --symbolic or an explicit --q")
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--mu", type=str, default=None,
                        help="comma-separated distinct rational "
                             "eigenvalues; a list that starts with a minus "
                             "sign is written --mu=-3,4")
    parser.add_argument("--hbar", type=str, default="1",
                        help="rational mass parameter (default 1); a "
                             "negative fraction is written --hbar=-1/2")
    parser.add_argument("--r-file", type=str, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--symbolic", action="store_true",
                        help="full rational-function arithmetic instead of "
                             "sampled q")
    parser.add_argument("--max-size", type=int, default=4096,
                        help="guardrail on the dimension of the largest "
                             "operator a suite builds")
    return parser


def _fraction(text: str):
    """text as a Fraction, or None when it does not name a rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _check_args(parser, args) -> None:
    """Reject bad arguments with a usage error (exit 2) before any check runs."""
    if args.symbolic and args.q != "random":
        parser.error(f"--symbolic runs over symbolic q; it takes no --q, "
                     f"got --q {args.q}")
    if args.q != "random":
        q0 = _fraction(args.q)
        if q0 is None:
            parser.error(f"--q must be a rational or 'random', got {args.q!r}")
        if q0 in (0, 1, -1):
            parser.error(f"--q must avoid 0, 1 and -1, got {args.q!r}")
    if _fraction(args.hbar) is None:
        parser.error(f"--hbar must be a rational, got {args.hbar!r}")
    if args.mu is not None:
        mu = [_fraction(x) for x in args.mu.split(",")]
        if None in mu or len(set(mu)) != len(mu):
            parser.error(f"--mu must be distinct comma-separated rationals, "
                         f"got {args.mu!r}")
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    # an explicit --samples draws random q, which --symbolic and --q replace
    if args.samples is None:
        args.samples = 3
    elif args.symbolic or args.q != "random":
        parser.error(f"--samples counts random q samples; it takes no "
                     f"--symbolic or --q, got --samples {args.samples}")
    elif args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    for flag, low in (("m", 1), ("k", 1), ("p", 2)):
        value = getattr(args, flag)
        if value is not None and value < low:
            parser.error(f"--{flag} must be at least {low} when given, got {value}")
    # a conjecture run alone must scan something (under `all` the other
    # suites still check)
    if args.suite == "conjecture":
        k, m = args.k or 3, args.m or 2
        if not 2 <= m <= k:
            parser.error(f"conjecture scans 2 <= m <= k, got k = {k}, m = {m}")
    if args.max_size < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")
    # the R-file is read once per run, unbuilt (exit 3 on a file error):
    # every suite builds its R from this parse, so the suites run on the
    # file checked here
    file_n = None
    if args.r_file:
        try:
            args.r_data = hecke_mod.read_r_file(args.r_file)
        except (OSError, hecke_mod.RFileError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(3)
        file_n = args.r_data[0]
    for suite, space in _largest_spaces(args, file_n).items():
        size = (args.suite in (suite, "all")
                and _size_above(args.max_size, *space))
        if size:
            parser.error(f"{suite} builds operators on {size} dimensions, "
                         f"above --max-size {args.max_size}")


def run_suite(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    rec = CheckRecorder()
    for name in SUITES if args.suite == "all" else [args.suite]:
        domains = _run_samples(args, rec, name)
    q_labels = [d.describe() for d in domains]
    if args.suite == "all":
        q_labels = sorted(set(q_labels))
    rec.checks.sort(key=lambda c: c["id"])
    report = {
        "schema": SCHEMA_VERSION,
        "suite": args.suite,
        "seed": args.seed,
        "q": q_labels,
        "checks": rec.checks,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        print(text)
    failed = [c for c in rec.checks if c["status"] == "fail"]
    return 1 if failed else 0


def main(argv=None) -> None:
    raise SystemExit(run_suite(argv))


if __name__ == "__main__":
    main()
