"""Command-line verification driver with machine-readable JSON reports.

Each subcommand runs a named suite of exact checks and writes one report:

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
import functools
import json
import random
import sys
import time
from fractions import Fraction

from . import euler as euler_mod
from . import hecke as hecke_mod
from . import identities as ident_mod
from . import orbits as orbit_mod
from . import casimir as casimir_mod
from . import projectors as proj_mod
from . import reps as reps_mod
from .scalars import SYMBOLIC, at_q, random_q, random_rationals
from .tensor import Mat

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


def _q_labels(domains) -> list:
    return [d.describe() for d in domains]


def _hecke(args, domain) -> hecke_mod.HeckeSymmetry:
    if args.r_file:
        try:
            r = hecke_mod.load_r_from_file(args.r_file, domain)
        except (OSError, hecke_mod.RFileError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(3)
        return hecke_mod.HeckeSymmetry(r, domain)
    return hecke_mod.standard_hecke(args.n, domain)


def _guard_size(args, legs: int):
    if args.n ** legs > args.max_size:
        raise SystemExit(
            f"error: n**{legs} exceeds --max-size {args.max_size}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_validate(args, rec, rng):
    domains = _domains(args, rng)
    for dom in domains:
        tag = dom.describe()
        if args.r_file:
            try:
                r = hecke_mod.load_r_from_file(args.r_file, dom)
            except (OSError, hecke_mod.RFileError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                raise SystemExit(3)
        else:
            r = hecke_mod.standard_r(args.n, dom)
        rep = hecke_mod.validate_hecke_symmetry(r, dom)
        params = {"n": args.n, "q": tag}
        rec.run(f"validate.q{tag}.ybe", "ybe", params,
                lambda rep=rep: (rep.ybe, None))
        rec.run(f"validate.q{tag}.hecke", "hecke", params,
                lambda rep=rep: (rep.hecke, None))
        rec.run(f"validate.q{tag}.skew", "skew", params,
                lambda rep=rep: (rep.skew_invertible,
                                 rep.details.get("skew_error")))
        rec.run(f"validate.q{tag}.rank", "rank", params,
                lambda rep=rep: (rep.even and rep.rank == args.n,
                                 rep.details.get("rank_outcome")))

        # one construction shared by both checks; the cache keeps no
        # exception, so a failed construction fails each check in turn
        symmetry = functools.cache(
            lambda dom=dom, r=r: hecke_mod.HeckeSymmetry(r, dom))

        def bc_checks(dom=dom, symmetry=symmetry):
            h = symmetry()
            scale = dom.q_pow(-2 * h.p)
            ident = Mat.identity(h.n, dom.zero, dom.one)
            ok = (h.b * h.c == ident.scale(scale))
            return ok, None
        rec.run(f"validate.q{tag}.bc_product", "bc_product", params, bc_checks)

        def bc_trace(dom=dom, symmetry=symmetry):
            h = symmetry()
            expect = dom.q_int(h.p) * dom.q_pow(-h.p)
            return (h.b.trace() == expect and h.c.trace() == expect), None
        rec.run(f"validate.q{tag}.bc_trace", "bc_trace", params, bc_trace)
    return _q_labels(domains)


def suite_projectors(args, rec, rng):
    domains = _domains(args, rng)
    m_max = args.m or (args.n + 1)
    _guard_size(args, m_max)
    from math import comb
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom)
        for m in range(1, m_max + 1):
            s = proj_mod.q_symmetrizer(h, m)
            a = proj_mod.q_antisymmetrizer(h, m)
            params = {"n": args.n, "m": m, "q": tag}
            rec.run(f"projectors.q{tag}.m{m}.idempotent", "sym_proj", params,
                    lambda s=s, a=a: ((s * s == s) and (a * a == a), None))
            exp_s = comb(args.n + m - 1, m)
            exp_a = comb(args.n, m)

            def ranks(s=s, a=a, exp_s=exp_s, exp_a=exp_a, dom=dom):
                rs = s.mat.trace()
                ra = a.mat.trace()
                ok = (dom.lift(exp_s) == rs and dom.lift(exp_a) == ra)
                return ok, None if ok else f"traces {rs}, {ra}"
            rec.run(f"projectors.q{tag}.m{m}.ranks", "proj_ranks", params, ranks)

            def absorb(h=h, s=s, a=a, m=m, dom=dom):
                for i in range(1, m):
                    r_i = h.r_on(i, m)
                    if not (r_i * s == s.scale(dom.q)):
                        return False, f"symmetric absorption fails at leg {i}"
                    if not (r_i * a == a.scale(-dom.q_pow(-1))):
                        return False, f"antisymmetric absorption fails at leg {i}"
                return True, None
            rec.run(f"projectors.q{tag}.m{m}.absorption", "sym_proj", params,
                    absorb)

        def complement(h=h, dom=dom):
            s2 = proj_mod.q_symmetrizer(h, 2)
            a2 = proj_mod.q_antisymmetrizer(h, 2)
            return (s2 + a2 == h.identity(2)), None
        rec.run(f"projectors.q{tag}.complement", "sym_proj",
                {"n": args.n, "q": tag}, complement)

        def nested(h=h, m_max=m_max):
            for m in range(2, m_max + 1):
                s_m = proj_mod.q_symmetrizer(h, m)
                for k in range(1, m):
                    s_k = proj_mod.q_symmetrizer(h, k, m, 1)
                    if not (s_m * s_k == s_m):
                        return False, f"nested absorption fails at ({m},{k})"
            return True, None
        rec.run(f"projectors.q{tag}.nested", "sym_proj",
                {"n": args.n, "q": tag}, nested)
    return _q_labels(domains)


def suite_reps(args, rec, rng):
    domains = _domains(args, rng)
    m_max = args.m or 3
    _guard_size(args, m_max)
    for dom in domains:
        tag = dom.describe()
        h = _hecke(args, dom)
        params = {"n": args.n, "q": tag}

        def fundamental(h=h):
            rep = reps_mod.fundamental_left(h)
            return not reps_mod.verify_defining_relations(rep, h), None
        rec.run(f"reps.q{tag}.fundamental", "relations", params, fundamental)

        for m in range(2, m_max + 1):
            pm = dict(params, m=m)

            def tensor(h=h, m=m):
                rep = reps_mod.tensor_power_left(h, m)
                return not reps_mod.verify_defining_relations(rep, h), None
            rec.run(f"reps.q{tag}.tensor.m{m}", "relations", pm, tensor)

            def sym_eq(h=h, m=m):
                sym = reps_mod.sym_power_left(h, m)
                tp = reps_mod.tensor_power_left(h, m)
                chart = sym.chart
                for i in range(h.n):
                    for j in range(h.n):
                        if not (chart.compress(tp.rho[i][j])
                                == sym.rho[i][j]):
                            return False, f"blocks differ at ({i},{j})"
                return True, None
            rec.run(f"reps.q{tag}.sym_eq_compressed.m{m}", "sym_module", pm,
                    sym_eq)

            def invariance(h=h, m=m):
                tp = reps_mod.tensor_power_left(h, m)
                s = proj_mod.q_symmetrizer(h, m).mat
                for i in range(h.n):
                    for j in range(h.n):
                        x = tp.rho[i][j]
                        if not (s * x * s == x * s):
                            return False, f"invariance fails at ({i},{j})"
                return True, None
            rec.run(f"reps.q{tag}.invariance.m{m}", "sym_module", pm,
                    invariance)

        if args.n == 2:
            for m in range(1, m_max + 1):
                def right(h=h, m=m):
                    rep = reps_mod.sym_power_right_p2(h, m)
                    return not reps_mod.verify_defining_relations(rep, h), None
                rec.run(f"reps.q{tag}.right.m{m}", "right_module",
                        dict(params, m=m), right)

        def shifts(h=h):
            f = reps_mod.fundamental_left(h)
            rr = reps_mod.shift_reps(f, "mrea_to_rea", 1, h=h)
            back = reps_mod.shift_reps(rr, "rea_to_mrea", 1, h=h)
            ok = all(back.rho[i][j] == f.rho[i][j]
                     for i in range(h.n) for j in range(h.n))
            return ok, None
        rec.run(f"reps.q{tag}.shift_round_trip", "shift", params, shifts)

        def z_action(h=h):
            f = reps_mod.fundamental_left(h)
            a = reps_mod.shift_reps(
                reps_mod.shift_reps(f, "z_shift", 3, h=h), "z_shift", 2, h=h)
            b = reps_mod.shift_reps(f, "z_shift", 6, h=h)
            ok = all(a.rho[i][j] == b.rho[i][j]
                     for i in range(h.n) for j in range(h.n))
            return ok, None
        rec.run(f"reps.q{tag}.z_shift_action", "z_shift", params, z_action)
    return _q_labels(domains)


def suite_ch(args, rec, rng):
    domains = _domains(args, rng)
    k_max = args.k or 3
    m_max = args.m or min(k_max, 3)
    for dom in domains:
        tag = dom.describe()
        h = _hecke_p2(args, dom)
        for k in range(1, k_max + 1):
            pm = {"k": k, "q": tag}

            def basic(h=h, k=k, dom=dom):
                cm = casimir_mod.split_casimir_matrix(h, k, 1, "rea")
                roots = [dom.one, dom.q_pow(-2 * k - 2)]
                ok, support = ident_mod.ch_verify(cm.op, roots, dom)
                return ok, None if ok else f"residual support {support}"
            rec.run(f"ch.q{tag}.basic.k{k}", "ch_basic", pm, basic)

            def sigma_values(h=h, k=k, dom=dom):
                rep = reps_mod.sym_power_right_rea_p2(h, k)
                cv = ident_mod.central_elements_in_rep(h, rep, 2)
                ok = (cv.sigma[1] == dom.one + dom.q_pow(-2 * k - 2)
                      and cv.sigma[2] == dom.q_pow(-2 * k - 2))
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
                        if algebra == "rea":
                            mu = [dom.one, dom.q_pow(-2 * k - 2)]
                            hb = Fraction(0)
                        else:
                            sh = dom.one / dom.zeta
                            mu = [dom.one + sh, dom.q_pow(-2 * k - 2) + sh]
                            hb = Fraction(1)
                        rd = ident_mod.RootData(mu=mu, hbar=hb, domain=dom)
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
    return _q_labels(domains)


def _hecke_p2(args, dom):
    if args.r_file:
        return _hecke(args, dom)
    return hecke_mod.standard_hecke(2, dom)


def suite_newton(args, rec, rng):
    domains = _domains(args, rng)
    k_max = args.k or 3
    p_max = args.p or 4
    labels = _q_labels(domains)
    for dom in domains:
        tag = dom.describe()
        h = _hecke_p2(args, dom)
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
            mu = random_rationals(rng, p, distinct=True)

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
        t = random_rationals(rng, 5, distinct=True)
        n = len(t)
        es = ident_mod.elementary_symmetric
        esw = ident_mod.elementary_symmetric_without
        for k in range(1, n + 1):
            for i in range(n):
                if es(t, k) != esw(t, k, [i]) + t[i] * esw(t, k - 1, [i]):
                    return False, f"deletion recurrence fails at k={k}, i={i}"
                for j in range(n):
                    if j == i:
                        continue
                    lhs = esw(t, k, [i]) - esw(t, k, [j])
                    rhs = (t[j] - t[i]) * esw(t, k - 1, [i, j])
                    if lhs != rhs:
                        return False, f"difference identity fails k={k}"
            total = sum((t[i] * esw(t, k - 1, [i]) for i in range(n)),
                        Fraction(0))
            if Fraction(k) * es(t, k) != total:
                return False, f"weighted sum identity fails at k={k}"
        return True, None
    rec.run("newton.esp_props", "esp", {}, esp_props)
    return labels


def suite_conjecture(args, rec, rng):
    p = args.p or 3
    domains = _domains(args, rng)
    k_max = args.k or 3
    m_max = args.m or 2
    for dom in domains:
        tag = dom.describe()
        h = hecke_mod.standard_hecke(p, dom) if not args.r_file else _hecke(args, dom)
        for m in range(2, m_max + 1):
            for k in range(m, k_max + 1):
                _guard_size(args, k + m)

                def scan(h=h, k=k, m=m):
                    rep = orbit_mod.conjecture_scan(h, k, m)
                    return rep.consistent, rep.witness
                rec.run(f"conjecture.q{tag}.k{k}.m{m}", "conjecture",
                        {"p": p, "k": k, "m": m, "q": tag}, scan,
                        finding=(p > 2))
    return _q_labels(domains)


def suite_orbit(args, rec, rng):
    domains = _domains(args, rng)
    p = args.p or 3
    m_max = args.m or 3
    for dom in domains:
        tag = dom.describe()

        def mult_classical(p=p, m_max=m_max):
            # super-increasing gaps keep every derived eigenvalue distinct
            gaps = [m_max + 5 ** (i + 2) for i in range(p - 1)]
            lam = tuple(sum(gaps[i:]) for i in range(p - 1)) + (0,)
            mu = orbit_mod.classical_eigenvalues(list(lam))
            spec = orbit_mod.OrbitSpec(p=p, mu=mu, hbar=Fraction(1),
                                       domain=at_q(Fraction(2)))
            for m in range(1, m_max + 1):
                d = orbit_mod.multiplicities(spec, m, "classical")
                for kv, val in d.items():
                    if val != orbit_mod.classical_dim_ratio(lam, kv, p):
                        return False, f"mismatch at {kv}, m={m}"
            return True, None
        rec.run(f"orbit.q{tag}.mult_classical", "mult_classical",
                {"p": p, "q": tag}, mult_classical)

        def mult_quantum(dom=dom, p=p, m_max=m_max):
            lam = tuple(range(3 * (p - 1), -1, -3))[:p]
            mu = orbit_mod.rep_eigenvalues(lam, p, "rea_q", dom)
            spec = orbit_mod.OrbitSpec(p=p, mu=mu, hbar=Fraction(0),
                                       domain=dom)
            for m in range(1, m_max + 1):
                d = orbit_mod.multiplicities(spec, m, "quantum")
                for kv, val in d.items():
                    if val != orbit_mod.quantum_dim_ratio(lam, kv, p, dom):
                        return False, f"mismatch at {kv}, m={m}"
            return True, None
        rec.run(f"orbit.q{tag}.mult_quantum", "mult_quantum",
                {"p": p, "q": tag}, mult_quantum, finding=(p > 2))

        def hn_classical():
            for lam in [(5, 2), (7, 3)]:
                rep = orbit_mod.higher_newton_classical(lam, 2, 3)
                if not all(v[0] for v in rep.values()):
                    return False, f"disagreement at lam={lam}"
            return True, None
        rec.run(f"orbit.q{tag}.hn_classical", "hn_classical", {"q": tag},
                hn_classical)

        h2 = hecke_mod.standard_hecke(2, dom)

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
                mu = [dom.one, dom.q_pow(-2 * k - 2)]
                rd = ident_mod.RootData(mu=mu, hbar=Fraction(0), domain=dom)
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
            qd = dom
            hb = Fraction(args.hbar)
            if args.mu:
                vals = [qd.lift(Fraction(x)) for x in args.mu.split(",")]
                spec0 = orbit_mod.OrbitSpec(p=len(vals), mu=vals, hbar=hb,
                                            domain=qd)
                orbit_mod.string_decompose(spec0)
            a, b = qd.lift(Fraction(5)), qd.lift(Fraction(100))
            succ = lambda v: qd.q_pow(-2) * v + qd.q_pow(-1) * qd.lift(hb)
            spec = orbit_mod.OrbitSpec(p=3, mu=[a, succ(a), b], hbar=hb,
                                       domain=qd)
            sd = orbit_mod.string_decompose(spec)
            lens = sorted(l for _, l in sd.strings)
            if lens != [1, 2]:
                return False, f"string lengths {lens}"
            if len(sd.minimal_roots) != 2:
                return False, "wrong number of minimal roots"
            spec2 = orbit_mod.OrbitSpec(p=3, mu=[a, b, qd.lift(Fraction(7))],
                                        hbar=hb, domain=qd)
            sd2 = orbit_mod.string_decompose(spec2)
            if sorted(l for _, l in sd2.strings) != [1, 1, 1]:
                return False, "generic set should give singleton strings"
            return True, None
        rec.run(f"orbit.q{tag}.strings", "strings", {"q": tag}, strings)
    return _q_labels(domains)


def suite_euler(args, rec, rng):
    domains = _domains(args, rng)
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
                from .scalars import eval_at
                lim = eval_at(sym, Fraction(1))
                if lim != euler_mod.classical_euler(k, p):
                    return False, f"classical limit fails at k={k}"
            return True, None
        rec.run(f"euler.q{tag}.classical_limit", "euler", {"q": tag},
                classical_limit)
    return _q_labels(domains)


def suite_calibrate(args, rec, rng):
    domains = _domains(args, rng)
    m_max = args.m or 3
    for dom in domains:
        tag = dom.describe()
        h = _hecke_p2(args, dom)
        for m in range(1, m_max + 1):
            def weights(h=h, m=m):
                w = casimir_mod.trace_weights(h, m)
                return True, f"exponent {w.norm_exponent}"
            rec.run(f"calibrate.q{tag}.weights.m{m}", "calibration",
                    {"m": m, "q": tag}, weights, finding=True)

            def gen_trace(h=h, m=m):
                return casimir_mod.generator_trace_identity(h, m), None
            rec.run(f"calibrate.q{tag}.generator_trace.m{m}", "calibration",
                    {"m": m, "q": tag}, gen_trace)
    return _q_labels(domains)


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


def suite_all(args, rec, rng):
    labels = []
    for name in ("validate", "projectors", "reps", "ch", "newton",
                 "conjecture", "orbit", "euler", "calibrate-trace"):
        labels.extend(SUITES[name](args, rec, rng))
    return sorted(set(labels))


# ---------------------------------------------------------------------------
# argument handling and report emission
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qorbits",
        description="Exact verification suites for Hecke symmetries and "
                    "reflection-equation orbit identities.")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in list(SUITES) + ["all"]:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--n", type=int, default=2,
                        help="dimension of the base space (default 2)")
        sp.add_argument("--p", type=int, default=None,
                        help="symmetry rank for rank-parametrized checks")
        sp.add_argument("--q", type=str, default="random",
                        help="rational like 2/3, or 'random' (default)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled parameters (default 0)")
        sp.add_argument("--samples", type=int, default=3,
                        help="number of random q samples (default 3)")
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--mu", type=str, default=None,
                        help="comma-separated rational eigenvalues")
        sp.add_argument("--hbar", type=str, default="1")
        sp.add_argument("--r-file", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--symbolic", action="store_true",
                        help="full rational-function arithmetic instead of "
                             "sampled q")
        sp.add_argument("--max-size", type=int, default=4096,
                        help="guardrail on the ambient dimension n**legs")
    return parser


def _check_args(parser, args) -> None:
    """Reject bad arguments with a usage error (exit 2) before any check runs."""
    if args.q != "random":
        try:
            q0 = Fraction(args.q)
        except (ValueError, ZeroDivisionError):
            parser.error(f"--q must be a rational or 'random', got {args.q!r}")
        if q0 in (0, 1, -1):
            parser.error(f"--q must avoid 0, 1 and -1, got {args.q!r}")
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    if args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    for flag in ("m", "k", "p"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag} must be at least 1 when given, got {value}")
    if args.max_size < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")


def run_suite(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    rng = random.Random(args.seed)
    rec = CheckRecorder()
    runner = suite_all if args.suite == "all" else SUITES[args.suite]
    q_labels = runner(args, rec, rng)
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
