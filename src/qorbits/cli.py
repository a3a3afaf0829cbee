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
# suites
# ---------------------------------------------------------------------------

def suite_validate(args, rec, rng, domains):
    for dom in domains:
        tag = dom.describe()
        r = _r_matrix(args, dom, args.n)
        rep = hecke_mod.validate_hecke_symmetry(r, dom)
        params = {"n": r.n, "q": tag}
        for name, ok, reason in (
                ("ybe", rep.ybe, None),
                ("hecke", rep.hecke, None),
                ("skew", rep.skew_invertible, "skew_error"),
                ("rank", rep.rank == r.n, "rank_outcome"),
                ("bc_product", rep.bc_product, "bc_product_error"),
                ("bc_trace", rep.bc_trace, "bc_trace_error")):
            rec.run(f"validate.q{tag}.{name}", name, params,
                    lambda ok=ok, reason=reason: (ok, rep.details.get(reason)))


def suite_projectors(args, rec, rng, domains):
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, args.n)
        n = h.n
        m_max = args.m or (n + 1)
        for m in range(1, m_max + 1):
            s = proj_mod.q_symmetrizer(h, m)
            a = proj_mod.q_antisymmetrizer(h, m)
            params = {"n": n, "m": m, "q": tag}
            rec.run(f"projectors.q{tag}.m{m}.idempotent", "sym_proj", params,
                    lambda s=s, a=a: ((s * s == s) and (a * a == a), None))
            exp_s = comb(n + m - 1, m)
            exp_a = comb(n, m)

            def ranks(s=s, a=a, exp_s=exp_s, exp_a=exp_a, dom=dom):
                rs = s.mat.trace()
                ra = a.mat.trace()
                ok = (dom.lift(exp_s) == rs and dom.lift(exp_a) == ra)
                return ok, None if ok else f"traces {rs}, {ra}"
            rec.run(f"projectors.q{tag}.m{m}.ranks", "proj_ranks", params, ranks)

            def absorb(h=h, s=s, a=a, m=m, dom=dom):
                # R_i P = P R_i = c P pins both the image and the kernel
                for i in range(1, m):
                    r_i = h.r_on(i, m)
                    for name, p, c in (("symmetric", s, dom.q),
                                       ("antisymmetric", a, -dom.q_pow(-1))):
                        if not (r_i * p == p.scale(c) == p * r_i):
                            return False, f"{name} absorption fails at leg {i}"
                return True, None
            rec.run(f"projectors.q{tag}.m{m}.absorption", "sym_proj", params,
                    absorb)

        def complement(h=h, dom=dom):
            s2 = proj_mod.q_symmetrizer(h, 2)
            a2 = proj_mod.q_antisymmetrizer(h, 2)
            return (s2 + a2 == h.identity(2)), None
        rec.run(f"projectors.q{tag}.complement", "sym_proj",
                {"n": n, "q": tag}, complement)

        def nested(h=h, m_max=m_max):
            for m in range(2, m_max + 1):
                s_m = proj_mod.q_symmetrizer(h, m)
                for k in range(1, m):
                    s_k = embed_on_legs(proj_mod.q_symmetrizer(h, k), 1, m)
                    if not (s_m * s_k == s_m):
                        return False, f"nested absorption fails at ({m},{k})"
            return True, None
        rec.run(f"projectors.q{tag}.nested", "sym_proj",
                {"n": n, "q": tag}, nested)


def _built(constructor, *args) -> tuple:
    """A module constructor checks the defining relations as it builds and
    raises RepresentationError if they fail: building it is the check."""
    constructor(*args)
    return True, None


def suite_reps(args, rec, rng, domains):
    m_max = args.m or 3
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, args.n)
        params = {"n": h.n, "q": tag}
        rec.run(f"reps.q{tag}.fundamental", "relations", params,
                lambda h=h: _built(reps_mod.fundamental_left, h))

        for m in range(2, m_max + 1):
            pm = dict(params, m=m)
            rec.run(f"reps.q{tag}.tensor.m{m}", "relations", pm,
                    lambda h=h, m=m: _built(reps_mod.tensor_power_left, h, m))

            def sym_eq(h=h, m=m):
                sym = reps_mod.sym_power_left(h, m)
                tp = reps_mod.tensor_power_left(h, m)
                basis = reps_mod.sym_chart(h, m).basis.embed(h.n, 1)
                return tp.blocks * basis == basis * sym.blocks, None
            rec.run(f"reps.q{tag}.sym_eq_compressed.m{m}", "sym_module", pm,
                    sym_eq)

            def invariance(h=h, m=m):
                x = reps_mod.tensor_power_left(h, m).blocks
                s = proj_mod.q_symmetrizer(h, m).mat.embed(h.n, 1)
                return (s * x * s == x * s), None
            rec.run(f"reps.q{tag}.invariance.m{m}", "sym_module", pm,
                    invariance)

        if h.p == 2:
            for m in range(1, m_max + 1):
                rec.run(f"reps.q{tag}.right.m{m}", "right_module",
                        dict(params, m=m), lambda h=h, m=m: _built(
                            reps_mod.sym_power_right_p2, h, m))

        def shifts(h=h):
            f = reps_mod.fundamental_left(h)
            back = reps_mod.with_mass(reps_mod.with_mass(f, 0, h), 1, h)
            return back.blocks == f.blocks, None
        rec.run(f"reps.q{tag}.shift_round_trip", "shift", params, shifts)

        def z_action(h=h):
            f = reps_mod.fundamental_left(h)
            a = reps_mod.rescaled(reps_mod.rescaled(f, 3, h), 2, h)
            b = reps_mod.rescaled(f, 6, h)
            return a.blocks == b.blocks, None
        rec.run(f"reps.q{tag}.z_shift_action", "z_shift", params, z_action)


def suite_ch(args, rec, rng, domains):
    k_max = args.k or 3
    m_max = args.m or min(k_max, 3)
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, 2)
        for k in range(1, k_max + 1):
            pm = {"k": k, "q": tag}

            def basic(h=h, k=k, dom=dom):
                cm = casimir_mod.split_casimir_matrix(h, k, 1, "rea")
                roots = casimir_mod.basic_roots(dom, k).mu
                ok, support = ident_mod.ch_verify(cm.op, roots, dom)
                return ok, None if ok else f"residual support {support}"
            rec.run(f"ch.q{tag}.basic.k{k}", "ch_basic", pm, basic)

            def sigma_values(h=h, k=k, dom=dom):
                rep = reps_mod.sym_power_right_rea_p2(h, k)
                cv = ident_mod.central_elements_in_rep(h, rep, 2)
                mu = casimir_mod.basic_roots(dom, k).mu
                ok = (cv.sigma[1] == mu[0] + mu[1]
                      and cv.sigma[2] == mu[0] * mu[1])
                return ok, None
            rec.run(f"ch.q{tag}.basic_sigma.k{k}", "ch_basic", pm, sigma_values)

            def coeff_form(h=h, k=k, dom=dom):
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
            rec.run(f"ch.q{tag}.coeff_form.k{k}", "ch_coeff", pm, coeff_form)

        for k in range(1, k_max + 1):
            for m in range(1, min(k, m_max) + 1):
                pm = {"k": k, "m": m, "q": tag}
                for algebra in ("rea", "mrea"):
                    def higher(h=h, k=k, m=m, algebra=algebra, dom=dom):
                        cm = casimir_mod.split_casimir_matrix(h, k, m, algebra)
                        rd = casimir_mod.basic_roots(dom, k, algebra)
                        roots = ident_mod.omega_roots_p2(rd, m)
                        ok, support = ident_mod.ch_verify(
                            cm.op, [v for _, v in roots], dom)
                        return ok, None if ok else f"residual support {support}"
                    rec.run(f"ch.q{tag}.higher.k{k}.m{m}.{algebra}",
                            "ch_higher", dict(pm, algebra=algebra), higher)

                def closed(h=h, k=k, m=m):
                    a = casimir_mod.split_casimir_matrix(h, k, m, "rea")
                    b = casimir_mod.closed_form_p2(h, k, m)
                    return (a.op == b.op), None
                rec.run(f"ch.q{tag}.closed_form.k{k}.m{m}", "closed_form", pm,
                        closed)


def suite_newton(args, rec, rng, domains):
    k_max = args.k or 3
    p_max = args.p or 4
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, 2)
        for k in range(1, k_max + 1):
            def rows(h=h, k=k, dom=dom):
                rep = reps_mod.sym_power_right_rea_p2(h, k)
                cv = ident_mod.central_elements_in_rep(h, rep, 2)
                rep_rows = ident_mod.newton_check(cv, 2, dom)
                bad = [r for r, ok in rep_rows.items() if not ok]
                return not bad, None if not bad else f"rows {bad} fail"
            rec.run(f"newton.q{tag}.rep.k{k}", "newton_rows",
                    {"k": k, "q": tag}, rows)

    # parametric resolution: exact random samples of (mu, q)
    for p in range(2, p_max + 1):
        for trial in range(3):
            q0 = random_q(rng)
            dom = at_q(q0)
            mu = random_rationals(rng, p)

            def param(p=p, dom=dom, mu=mu):
                rd = ident_mod.RootData(mu=mu, hbar=Fraction(0), domain=dom)
                cv = ident_mod.parametric_central_values(rd, p)
                rep_rows = ident_mod.newton_check(cv, p, dom)
                bad = [r for r, ok in rep_rows.items() if not ok]
                return not bad, None if not bad else f"rows {bad} fail"
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


def suite_conjecture(args, rec, rng, domains):
    p = args.p or 3
    k_max = args.k or 3
    m_max = args.m or 2
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, p)
        for m in range(2, m_max + 1):
            for k in range(m, k_max + 1):
                def scan(h=h, k=k, m=m):
                    rep = orbit_mod.conjecture_scan(h, k, m)
                    return rep.consistent, rep.witness
                rec.run(f"conjecture.q{tag}.k{k}.m{m}", "conjecture",
                        {"p": p, "k": k, "m": m, "q": tag}, scan,
                        finding=(p > 2))


def suite_orbit(args, rec, rng, domains):
    p = args.p or 3
    m_max = args.m or 3

    # the classical checks do not depend on q: each verdict is computed at
    # the first q and recorded again under every q's id
    @cache
    def mult_classical():
        # super-increasing gaps keep every derived eigenvalue distinct
        gaps = [m_max + 5 ** (i + 2) for i in range(p - 1)]
        lam = tuple(sum(gaps[i:]) for i in range(p - 1)) + (0,)
        mu = orbit_mod.classical_eigenvalues(list(lam))
        rd = ident_mod.RootData(mu=mu, hbar=Fraction(1),
                                domain=at_q(Fraction(2)))
        for m in range(1, m_max + 1):
            d = orbit_mod.multiplicities(rd, m, "classical")
            ratios = orbit_mod.classical_dim_ratios(lam, m, p)
            for kv, val in d.items():
                if val != ratios[kv]:
                    return False, f"mismatch at {kv}, m={m}"
        return True, None

    @cache
    def hn_classical():
        for lam in [(5, 2), (7, 3)]:
            rep = orbit_mod.higher_newton_classical(lam, 2, 3)
            if not all(v[0] for v in rep.values()):
                return False, f"disagreement at lam={lam}"
        return True, None

    for dom in domains:
        tag = dom.describe()
        rec.run(f"orbit.q{tag}.mult_classical", "mult_classical",
                {"p": p, "q": tag}, mult_classical)

        def mult_quantum(dom=dom, p=p, m_max=m_max):
            lam = tuple(range(3 * (p - 1), -1, -3))[:p]
            mu = orbit_mod.rep_eigenvalues(lam, p, "rea_q", dom)
            rd = ident_mod.RootData(mu=mu, hbar=Fraction(0), domain=dom)
            for m in range(1, m_max + 1):
                d = orbit_mod.multiplicities(rd, m, "quantum")
                ratios = orbit_mod.quantum_dim_ratios(lam, m, p, dom)
                for kv, val in d.items():
                    if val != ratios[kv]:
                        return False, f"mismatch at {kv}, m={m}"
            return True, None
        rec.run(f"orbit.q{tag}.mult_quantum", "mult_quantum",
                {"p": p, "q": tag}, mult_quantum, finding=(p > 2))
        rec.run(f"orbit.q{tag}.hn_classical", "hn_classical", {"q": tag},
                hn_classical)

        h2 = _hecke(args, dom, 2, standard=True)

        def hn_quantum(h2=h2):
            for algebra in ("rea", "mrea"):
                rep = orbit_mod.higher_newton_quantum_p2(h2, 2, 2, 3, algebra)
                if not all(v[0] for v in rep.values()):
                    return False, f"disagreement in {algebra} form"
            return True, None
        rec.run(f"orbit.q{tag}.hn_quantum", "hn_quantum",
                {"k": 2, "m": 2, "q": tag}, hn_quantum)

        def idempotents(h2=h2, dom=dom):
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
        rec.run(f"orbit.q{tag}.idempotents", "idempotents", {"q": tag},
                idempotents)

        def strings(dom=dom):
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
        rec.run(f"orbit.q{tag}.strings", "strings", {"q": tag}, strings)

        if args.mu:
            def user_strings(dom=dom):
                mu = [Fraction(x) for x in args.mu.split(",")]
                rd = ident_mod.RootData(mu=mu, hbar=Fraction(args.hbar),
                                        domain=dom)
                sd = orbit_mod.string_decompose(rd)
                return True, ", ".join(f"{v}:{n}" for v, n in sd.strings)
            rec.run(f"orbit.q{tag}.user_strings", "strings",
                    {"q": tag, "mu": args.mu, "hbar": args.hbar},
                    user_strings, finding=True)


def suite_euler(args, rec, rng, domains):
    p_max = args.p or 4
    m_max = args.m or 5
    for dom in domains:
        tag = dom.describe()

        def shift_invariance(dom=dom, p_max=p_max):
            for _ in range(25):
                p = rng.randint(2, p_max)
                k = [rng.randint(-6, 6) for _ in range(p)]
                a = rng.randint(-5, 5)
                v1 = euler_mod.q_index_and_euler(k, p, dom)
                v2 = euler_mod.q_index_and_euler([x + a for x in k], p, dom)
                if v1 != v2:
                    return False, f"shift breaks at k={k}, a={a}"
            return True, None
        rec.run(f"euler.q{tag}.shift_invariance", "euler", {"q": tag},
                shift_invariance)

        def p3_example(dom=dom):
            three = dom.q_int(3)
            vals = [euler_mod.q_dimension([1] * k, 3, dom) for k in (1, 2, 3)]
            ok = vals == [three, three, dom.one]
            return ok, None
        rec.run(f"euler.q{tag}.p3_example", "q_algebra", {"q": tag},
                p3_example)

        def asym(dom=dom):
            a = euler_mod.q_index_and_euler([0, 0, 1], 3, dom)
            b = euler_mod.q_index_and_euler([0, 1, 0], 3, dom)
            return (a == dom.q_int(3) and b == dom.zero), None
        rec.run(f"euler.q{tag}.asymmetry", "euler", {"q": tag}, asym)

        for p in range(2, min(p_max, 3) + 1):
            def algebra(p=p, dom=dom, m_max=m_max):
                rep = euler_mod.q_algebra_check(p, dom, m_max)
                bad = [k for k, ok in rep.items() if not ok]
                return not bad, None if not bad else f"failed: {bad}"
            rec.run(f"euler.q{tag}.q_algebra.p{p}", "q_algebra",
                    {"p": p, "q": tag}, algebra)

        def classical_limit(dom=dom):
            for _ in range(10):
                p = rng.randint(2, 4)
                k = [rng.randint(-4, 4) for _ in range(p)]
                sym = euler_mod.q_index_and_euler(k, p, SYMBOLIC)
                lim = eval_at(sym, Fraction(1))
                if lim != euler_mod.classical_euler(k, p):
                    return False, f"classical limit fails at k={k}"
            return True, None
        rec.run(f"euler.q{tag}.classical_limit", "euler", {"q": tag},
                classical_limit)


def suite_calibrate(args, rec, rng, domains):
    m_max = args.m or 3
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom, 2)
        for m in range(1, m_max + 1):
            def weights(h=h, m=m):
                casimir_mod.trace_weights(h, m)
                return True, f"exponent {h.p * m}"
            rec.run(f"calibrate.q{tag}.weights.m{m}", "calibration",
                    {"m": m, "q": tag}, weights, finding=True)

            def gen_trace(h=h, m=m):
                return casimir_mod.generator_trace_identity(h, m), None
            rec.run(f"calibrate.q{tag}.generator_trace.m{m}", "calibration",
                    {"m": m, "q": tag}, gen_trace)


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
    parser.add_argument("--samples", type=int, default=3,
                        help="number of random q samples (default 3)")
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
    if args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    for flag, low in (("m", 1), ("k", 1), ("p", 2)):
        value = getattr(args, flag)
        if value is not None and value < low:
            parser.error(f"--{flag} must be at least {low} when given, got {value}")
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
        # every suite gets the fresh rng a standalone run gets and draws its
        # domains from it first
        rng = random.Random(args.seed)
        domains = _domains(args, rng)
        SUITES[name](args, rec, rng, domains)
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
