"""The benchmark's workloads: seeded inputs, the ops that certify them, and
the checks that decide whether each op's certificate is right.

A workload is a batch: a list of ops built from the seed alone.  The runner
executes the batch in a closed loop (one caller, one certification at a
time), repeating it until the measuring time is up.  Every op returns None
when its certificate holds and a one-line reason when it does not; an
exception raised by the library is a failure too.

Why each workload exists, and which ROADMAP item it exercises or bypasses, is
written down in README.md next to this file.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from qorbits import casimir, cli, hecke, identities, orbits, projectors, scalars

# The library's sampling range for q: |num|, den <= 128, excluding 0 and +-1.
Q_BOUND = 128

# Checks each CLI suite records with its default flags, for every seed.  A
# report with another count skipped or invented checks, which is a failure.
EXPECTED_CHECKS = {
    "validate": 18,
    "projectors": 33,
    "reps": 36,
    "ch": 81,
    "newton": 19,
    "orbit": 18,
    "euler": 18,
    "calibrate-trace": 18,
}

# Seeds per cli-suites batch; one op runs every suite in EXPECTED_CHECKS
# at one seed.
CLI_SEEDS = 8

# Top of the symbolic q-symmetrizer tower certified by symbolic-rank2, and
# the largest k of its Casimir checks (all m <= k).
TOWER_TOP = 6
CASIMIR_K = 3


@dataclass
class Op:
    """One certification: ``kind(**args)`` returns None when it holds."""

    label: str
    kind: str
    args: dict


@dataclass
class Batch:
    ops: list
    q_values: list = field(default_factory=list)
    cli_seeds: list = field(default_factory=list)


def draw_q(rng: random.Random) -> Fraction:
    """A sample point q drawn from the library's range."""
    while True:
        q = Fraction(rng.randint(-Q_BOUND, Q_BOUND), rng.randint(1, Q_BOUND))
        if q not in (0, 1, -1):
            return q


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def _sampled_large(rng, workdir):
    ops = [Op(f"scan k={k} m={m} q={q}", "scan", {"k": k, "m": m, "q": q})
           for k, m, q in ((2, 2, draw_q(rng)), (3, 2, draw_q(rng)))]
    q = draw_q(rng)
    ops.append(Op(f"hecke-rank4 q={q}", "hecke_rank4", {"q": q}))
    rng.shuffle(ops)
    return ops


def _symbolic_rank2(rng, workdir):
    ops = [Op(f"tower S({TOWER_TOP})", "tower", {"top": TOWER_TOP}),
           Op(f"closed-form k>=m, k<={CASIMIR_K}", "closed_form", {"k_max": CASIMIR_K}),
           Op(f"ch-verify k>=m, k<={CASIMIR_K}, rea and mrea", "ch_verify",
              {"k_max": CASIMIR_K})]
    # symbolic q has no sample points; the seed fixes the order of the ops
    rng.shuffle(ops)
    return ops


def _cli_suites(rng, workdir):
    out = os.path.join(workdir, "cli-report.json")
    return [Op(f"cli suites --seed {s}", "cli", {"seed": s, "out": out})
            for s in [rng.randrange(1 << 31) for _ in range(CLI_SEEDS)]]


WORKLOADS = {
    "sampled-large": _sampled_large,
    "symbolic-rank2": _symbolic_rank2,
    "cli-suites": _cli_suites,
}

# Layers each workload is meant to exercise; a traced run in which one of
# them records no calls fails.
EXERCISED = {
    "sampled-large": ("tensor", "hecke", "projectors", "reps", "casimir",
                      "identities", "orbits"),
    "symbolic-rank2": ("scalars", "tensor", "hecke", "projectors", "reps",
                       "casimir", "identities"),
    "cli-suites": ("scalars", "tensor", "hecke", "projectors", "reps",
                   "casimir", "identities", "orbits", "euler", "cli"),
}


def build(workload: str, seed: int, workdir: str) -> Batch:
    """The batch of a workload; the same seed always gives the same batch."""
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
    return Batch(ops=ops,
                 q_values=[str(op.args["q"]) for op in ops if "q" in op.args],
                 cli_seeds=sorted({op.args["seed"] for op in ops
                                   if "seed" in op.args}))


# ---------------------------------------------------------------------------
# ops and their certificates
# ---------------------------------------------------------------------------

def _scan(k, m, q):
    h = hecke.standard_hecke(3, scalars.at_q(q))
    rep = orbits.conjecture_scan(h, k, m)
    if not rep.product_zero:
        return f"root product does not vanish: {rep.witness}"
    if not rep.consistent:
        return f"scan inconsistent: {rep.witness}"
    return None


def _hecke_rank4(q):
    dom = scalars.at_q(q)
    rep = hecke.validate_hecke_symmetry(hecke.standard_r(4, dom), dom)
    if not (rep.ybe and rep.hecke and rep.skew_invertible and rep.even
            and rep.rank == 4):
        return f"validation failed: {rep}"
    h = hecke.standard_hecke(4, dom)
    a4 = projectors.q_antisymmetrizer(h, 4)
    if not (a4 * a4 == a4):
        return "A(4) is not idempotent"
    if not (a4.mat.trace() == dom.one):
        return "trace A(4) is not 1"
    if not projectors.q_antisymmetrizer(h, 5).is_zero():
        return "A(5) does not vanish"
    return None


def _tower(top):
    h = hecke.standard_hecke(2)
    for m in range(1, top + 1):
        s = projectors.q_symmetrizer(h, m)
        if not (s * s == s):
            return f"S({m}) is not idempotent"
        rank = comb(h.n + m - 1, m)
        if not (s.mat.trace() == h.domain.lift(rank)):
            return f"trace S({m}) is not {rank}"
    return None


def _casimir_pairs(k_max):
    return [(k, m) for k in range(1, k_max + 1) for m in range(1, k + 1)]


def _closed_form(k_max):
    h = hecke.standard_hecke(2)
    for k, m in _casimir_pairs(k_max):
        split = casimir.split_casimir_matrix(h, k, m, "rea")
        if not (split.op == casimir.closed_form_p2(h, k, m).op):
            return f"closed form differs from split form at k={k}, m={m}"
    return None


def _ch_verify(k_max):
    h = hecke.standard_hecke(2)
    dom = h.domain
    for k, m in _casimir_pairs(k_max):
        for algebra in ("rea", "mrea"):
            cm = casimir.split_casimir_matrix(h, k, m, algebra)
            if algebra == "rea":
                mu = [dom.one, dom.q_pow(-2 * k - 2)]
                hbar = Fraction(0)
            else:
                shift = dom.one / dom.zeta
                mu = [dom.one + shift, dom.q_pow(-2 * k - 2) + shift]
                hbar = Fraction(1)
            rd = identities.RootData(mu=mu, hbar=hbar, domain=dom)
            roots = [v for _, v in identities.omega_roots_p2(rd, m)]
            ok, support = identities.ch_verify(cm.op, roots, dom)
            if not ok:
                return f"k={k}, m={m}, {algebra}: residual support {support}"
    return None


def _cli(seed, out):
    """Every suite in EXPECTED_CHECKS at one seed, as a user runs them."""
    for suite, expected in EXPECTED_CHECKS.items():
        try:
            code = cli.run_suite([suite, "--seed", str(seed), "--out", out])
        except SystemExit as exc:
            return f"{suite}: exited with {exc.code!r}"
        with open(out, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        failed = [c["id"] for c in checks if c["status"] == "fail"]
        if code != 0 or failed:
            return f"{suite}: exit code {code}, failed checks {failed}"
        if len(checks) != expected:
            return f"{suite}: {len(checks)} checks, expected {expected}"
    return None


KINDS = {
    "scan": _scan,
    "hecke_rank4": _hecke_rank4,
    "tower": _tower,
    "closed_form": _closed_form,
    "ch_verify": _ch_verify,
    "cli": _cli,
}


def prepare() -> None:
    """Put the process into an op's starting state (not timed).

    The library's memo caches are dropped, so that every op starts from the
    state a one-shot certification starts from, and garbage is collected.
    """
    for name, mod in list(sys.modules.items()):
        if name == "qorbits" or name.startswith("qorbits."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def run(op: Op):
    """Run one op; returns None on success, else the reason it failed."""
    try:
        return KINDS[op.kind](**op.args)
    except Exception as exc:          # a crash is a failed certification
        return f"{type(exc).__name__}: {exc}"
