"""Seeded inputs for the four workloads.

Everything here is the benchmark's own: the class table and the display data
of the fifteen three-generator classes are transcribed from the paper, and
the nine diffusion families from their defining equations.  Nothing imports
skewsmooth.  The same (workload, seed, size) always gives the same manifest
and the same ``.alg`` files; the seed moves parameters and primes, never the
make-up of a round (classes, fields, prime sizes, word shapes, job counts).
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from oracle import Field

WORKLOADS = ("screen", "calculus", "rewrite", "identities")

# The paper's verdict table.  "5e0" is class 5e at a = 0.
S, N, I = "SMOOTH_SUFFICIENT", "NOT_SMOOTH", "INCONCLUSIVE"
VERDICTS = {"1": S, "2a": N, "2b": S, "2c": N, "2d": S, "2e": S, "2f": S, "3a": N,
            "3b": S, "4": N, "5a": N, "5b": N, "5c": S, "5d": N, "5e0": S, "5e": I}
SMOOTH_CLASSES = [c for c, v in VERDICTS.items() if v == S]
FAMILIES = ("A_I", "A_II", "B_I", "B_II", "B_III", "B_IV", "C_I", "C_II", "D")
# Where each diffusion family lands among the three-generator classes.
CROSSWALK = {"C_I": "2e", "D": "1", "A_I": "UNRESOLVED", "B_I": "UNRESOLVED"}

# Prime sizes: each F_p input takes a seeded prime from one fixed bucket, so
# every round holds the same mix of sizes (trial division costs ~sqrt(p)).
PRIME_BUCKETS = ((5, 14), (1000, 1100), (1_000_000, 1_010_000),
                 (2**31 - 2**24, 2**31))
BIG_BUCKET = 3

# Per-workload sizes: the full run and the smoke run.
CALCULUS = {"full": {"max_degree": 6, "integrability": 2},
            "smoke": {"max_degree": 3, "integrability": 1}}
IDENTITIES = {"full": {"n_max": 4, "samples": 1, "jobs": 16},
              "smoke": {"n_max": 2, "samples": 2, "jobs": 2}}
# Rewrite kinds: (kind, class or family, (L3, L2, L1)).  Each job normalizes
# the block word x3^L3 x2^L2 x1^L1 (skew) or D1^L1 D2^L2 D3^L3 (diffusion),
# in which every pair of letters is in the wrong order; the exponents put
# every kind in one size class of job time.  Of the type-2 families only A_I
# and A_II satisfy the diamond condition, so only they are rewritten with
# central generators.
REWRITE_KINDS = (
    ("skew", "2a", (4, 3, 3)), ("skew", "2b", (4, 4, 4)), ("skew", "2e", (6, 5, 5)),
    ("skew", "3a", (5, 5, 5)), ("skew", "5d", (4, 4, 4)),
    ("diffusion1", "A_I", (3, 2, 2)), ("diffusion1", "B_I", (4, 4, 3)),
    ("diffusion1", "C_I", (6, 6, 6)),
    ("diffusion2", "A_I", (2, 2, 2)), ("diffusion2", "A_II", (5, 4, 4)),
)
REWRITE_SMOKE_EXPONENTS = (2, 2, 2)
DEEP_LENGTH = 20           # x3^20 x2^20 x1^20: 1200 inversions
DEEP_FIELDS = ("Q", f"Fp:{2**31 - 1}")
SHORT_WORDS = 2            # seeded short words per job, checked by the oracle
SHORT_LENGTH = 4
# Supports of the polynomials p, q, r (on the first three generators); the
# seed draws only their coefficients, so every job multiplies the same shapes.
POLY_SUPPORTS = (((0, 1, 1), (0, 0, 2), (1, 0, 0)),
                 ((1, 1, 0), (2, 0, 0), (0, 0, 1)),
                 ((1, 0, 1), (0, 2, 0), (0, 1, 0)))


def _is_prime(p: int) -> bool:
    if p < 2 or p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _prime(rng: random.Random, bucket: int) -> int:
    lo, hi = PRIME_BUCKETS[bucket]
    while True:
        p = rng.randrange(lo, hi)
        if _is_prime(p):
            return p


class _Draw:
    """Seeded scalars of one field, kept away from the degenerate values
    (0, 1, -1, and equalities) that would move an input out of its class."""

    def __init__(self, rng: random.Random, field: Field):
        self.rng = rng
        self.field = field

    def any(self):
        if self.field.p:
            return self.rng.randrange(self.field.p)
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 4))

    def nonzero(self, avoid=()):
        avoid = {self.field(a) for a in avoid} | {self.field(0)}
        while True:
            v = self.field(self.any())
            if v not in avoid:
                return v

    def scalar(self, avoid=()):
        """A nonzero multiplier other than 1 (and ``avoid``); also other than
        -1 unless the field is too small to leave room."""
        small = 0 < self.field.p < 14
        return self.nonzero(tuple(avoid) + ((1,) if small else (1, -1)))


def display_relations(field: Field, alpha, beta, gamma, lam=None, mu=None, nu=None):
    """Display data  y z - alpha z y = lam,  z x - beta x z = mu,
    x y - gamma y x = nu  (x, y, z = x1, x2, x3; lam/mu/nu map 0 to the
    constant and g to the coefficient of x_g) as ascending relations
    {(i, j): (a_ij, tail, const)}."""
    def split(vec):
        vec = {g: field(c) for g, c in (vec or {}).items()}
        return {g: c for g, c in vec.items() if g and c}, vec.get(0, field(0))

    lam_t, lam_e = split(lam)
    mu_t, mu_e = split(mu)
    nu_t, nu_e = split(nu)
    binv = field.inv(field(beta))
    # z x - beta x z = mu  is  x z - (1/beta) z x = -(1/beta) mu
    return {
        (1, 2): (field(gamma), nu_t, nu_e),
        (1, 3): (binv, {g: field.neg(field.mul(binv, c)) for g, c in mu_t.items()},
                 field.neg(field.mul(binv, mu_e))),
        (2, 3): (field(alpha), lam_t, lam_e),
    }


def class_relations(label: str, d: _Draw):
    """Relations of one representative of ``label`` with seeded parameters."""
    f = d.field
    one = 1
    if label == "1":
        alpha = d.scalar()
        beta = d.scalar((alpha,))
        gamma = d.scalar((alpha, beta))
        return display_relations(f, alpha, beta, gamma)
    if label.startswith("2"):
        beta = d.scalar()
        b = d.nonzero()
        a = d.scalar()
        data = {"2a": ({3: 1}, {2: 1}, {1: 1}), "2b": ({3: 1}, {0: b}, {1: 1}),
                "2c": (None, {2: 1}, None), "2d": (None, {0: b}, None),
                "2e": ({3: a}, None, {1: 1}), "2f": ({3: 1}, None, None)}[label]
        return display_relations(f, one, beta, one, *data)
    if label in ("3a", "3b"):
        alpha = d.scalar()
        beta = d.scalar()
        b = d.nonzero()
        mu = {2: 1, 0: b} if label == "3a" else {0: b}
        return display_relations(f, alpha, beta, alpha, mu=mu)
    if label == "4":
        alpha = d.scalar()
        a1 = d.nonzero()
        a2, a3, b1, b2, b3 = (d.any() for _ in range(5))
        return display_relations(f, alpha, alpha, alpha, lam={1: a1, 0: b1},
                                 mu={2: a2, 0: b2}, nu={3: a3, 0: b3})
    if label == "5a":
        return display_relations(f, one, one, one, {1: 1}, {2: 1}, {3: 1})
    if label == "5b":
        return display_relations(f, one, one, one, nu={3: 1})
    if label == "5c":
        return display_relations(f, one, one, one, nu={0: d.nonzero()})
    if label == "5d":
        return display_relations(f, one, one, one, {2: -1}, {1: 1, 2: 1})
    if label == "5e0":
        return display_relations(f, one, one, one, {3: 0}, {1: 1})
    if label == "5e":
        return display_relations(f, one, one, one, {3: d.nonzero()}, {1: 1})
    raise ValueError(f"unknown class {label!r}")


def family_data(family: str, d: _Draw):
    """(lambdas {(i, j): v}, x scalars) of one member of a diffusion family,
    built from the family's defining equations with seeded free values.  The
    free values the equations allow to be 0 are drawn nonzero all the same: a
    zero lambda_32 on C_I made a rewrite job six times cheaper than on other
    seeds, so the seed moved the make-up of a round."""
    f = d.field
    nz = d.nonzero
    sub = lambda u, v: f.add(f(u), f.neg(f(v)))  # noqa: E731
    add = lambda u, v: f.add(f(u), f(v))         # noqa: E731
    xs3 = (nz(), nz(), nz())
    if family == "A_I":
        q = nz()
        return {k: q for k in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))}, xs3
    if family == "A_II":
        l12, l23 = nz(), nz()
        while not add(l12, l23):
            l23 = nz()
        return {(1, 2): l12, (2, 3): l23, (1, 3): add(l12, l23)}, xs3
    if family == "B_I":
        u, v, l13 = nz(), nz(), nz()
        return ({(1, 2): u, (2, 1): v, (2, 3): u, (3, 2): v, (1, 3): l13,
                 (3, 1): sub(l13, sub(u, v))}, (nz(), 0, nz()))
    if family == "B_II":
        return {(1, 2): nz(), (1, 3): nz(), (2, 3): nz()}, (nz(), 0, nz())
    if family == "B_III":
        l12, l21, l13 = nz(), nz(), nz()
        while not sub(l13, sub(l12, l21)):
            l13 = nz()
        return ({(1, 2): l12, (2, 1): l21, (1, 3): l13, (2, 3): sub(l13, sub(l12, l21))},
                (nz(), nz(), 0))
    if family == "B_IV":
        l12, l13, l32 = nz(), nz(), nz()
        while not add(sub(l13, l12), l32):
            l32 = nz()
        return ({(1, 2): l12, (1, 3): l13, (3, 2): l32, (2, 3): add(sub(l13, l12), l32)},
                (0, nz(), nz()))
    if family == "C_I":
        l12, l21, l13 = nz(), nz(), nz()
        return ({(1, 2): l12, (2, 1): l21, (1, 3): l13, (3, 1): sub(l13, sub(l12, l21)),
                 (2, 3): nz(), (3, 2): nz()}, (nz(), 0, 0))
    if family == "C_II":
        return {(1, 2): nz(), (2, 1): nz(), (1, 3): nz(), (2, 3): nz()}, (nz(), 0, 0)
    if family == "D":
        return ({(1, 2): nz(), (2, 1): nz(), (1, 3): nz(), (3, 1): nz(),
                 (2, 3): nz(), (3, 2): nz()}, (0, 0, 0))
    raise ValueError(f"unknown family {family!r}")


def skew_text(name: str, field_name: str, relations: dict) -> str:
    lines = [f"name: {name}", "kind: skew", f"field: {field_name}", "n: 3"]
    for (i, j), (a, tail, const) in sorted(relations.items()):
        bits = [f"{c}*x{g}" for g, c in sorted(tail.items()) if c]
        if const:
            bits.append(str(const))
        lines.append(f"x{i}*x{j} - {a}*x{j}*x{i} = {' + '.join(bits) or '0'}")
    return "\n".join(lines) + "\n"


def diffusion_text(name: str, kind: str, field_name: str, lambdas: dict, xs) -> str:
    lines = [f"name: {name}", f"kind: {kind}", f"field: {field_name}", "n: 3"]
    lines += [f"lambda {i} {j} = {v}" for (i, j), v in sorted(lambdas.items())]
    if kind == "diffusion1":
        lines += [f"x {i} = {v}" for i, v in enumerate(xs, start=1)]
    return "\n".join(lines) + "\n"


def _pairs_json(relations: dict) -> dict:
    return {f"{i},{j}": [str(a), {str(g): str(c) for g, c in tail.items()}, str(c0)]
            for (i, j), (a, tail, c0) in relations.items()}


def _lambdas_json(lambdas: dict) -> dict:
    return {f"{i},{j}": str(v) for (i, j), v in lambdas.items()}


class _Files:
    """Writes ``.alg`` inputs under one directory and records their data."""

    def __init__(self, directory: str):
        self.directory = directory
        self.meta: dict = {}

    def add(self, name: str, text: str, meta: dict) -> str:
        path = os.path.join(self.directory, name + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.meta[name] = dict(meta, path=path)
        return name


def _field(rng: random.Random, bucket) -> Field:
    return Field(0) if bucket is None else Field(_prime(rng, bucket))


def _field_name(field: Field) -> str:
    return f"Fp:{field.p}" if field.p else "Q"


def _skew_file(files: _Files, rng, label: str, bucket, tag: str) -> str:
    field = _field(rng, bucket)
    relations = class_relations(label, _Draw(rng, field))
    name = f"skew-{label}-{tag}"
    meta = {"kind": "skew", "class": label, "field": _field_name(field),
            "relations": _pairs_json(relations)}
    if label == "5e":
        meta["a"] = str(relations[(2, 3)][1][3])
    return files.add(name, skew_text(name, _field_name(field), relations), meta)


def _diffusion_file(files: _Files, rng, family: str, kind: str, bucket, tag: str) -> str:
    field = _field(rng, bucket)
    lambdas, xs = family_data(family, _Draw(rng, field))
    name = f"{kind}-{family}-{tag}"
    meta = {"kind": kind, "family": family, "field": _field_name(field),
            "lambdas": _lambdas_json(lambdas), "x": [str(v) for v in xs]}
    return files.add(name, diffusion_text(name, kind, _field_name(field), lambdas, xs), meta)


def _screen(files: _Files, rng, size: str) -> list:
    jobs = []
    for idx, label in enumerate(VERDICTS):
        for tag, bucket in (("q", None), ("p", idx % len(PRIME_BUCKETS))):
            name = _skew_file(files, rng, label, bucket, tag)
            jobs += [{"argv": [cmd, name]} for cmd in ("smooth", "classify3d", "pbw-check")]
    for idx, family in enumerate(FAMILIES):
        for tag, bucket in (("q", None), ("p", idx % len(PRIME_BUCKETS))):
            name = _diffusion_file(files, rng, family, "diffusion1", bucket, tag)
            jobs += [{"argv": [cmd, name]} for cmd in ("diffusion-classify", "pbw-check")]
        name = _diffusion_file(files, rng, family, "diffusion2", None, "q")
        jobs.append({"argv": ["pbw-check", name]})
    return jobs


def _calculus(files: _Files, rng, size: str) -> list:
    params = CALCULUS[size]
    jobs = []
    for label in SMOOTH_CLASSES:
        for tag, bucket in (("q", None), ("p", BIG_BUCKET)):
            name = _skew_file(files, rng, label, bucket, tag)
            jobs.append({"argv": ["calculus", name, "--max-degree", str(params["max_degree"]),
                                  "--verify-integrability", str(params["integrability"])]})
    return jobs


def _identities(files: _Files, rng, size: str) -> list:
    params = IDENTITIES[size]
    base = rng.randrange(10**6)
    return [{"argv": ["verify-identities", "--seed", str(base + j), "--n-max",
                      str(params["n_max"]), "--samples", str(params["samples"])]}
            for j in range(params["jobs"])]


def _random_poly(draw: _Draw, support, ngens: int) -> dict:
    return {tuple(m) + (0,) * (ngens - 3): draw.nonzero() for m in support}


def _poly_json(poly: dict) -> list:
    return [[list(m), str(c)] for m, c in sorted(poly.items())]


def _rewrite(files: _Files, rng, size: str) -> list:
    jobs = []
    for kind, source, exponents in REWRITE_KINDS:
        if size == "smoke":
            exponents = REWRITE_SMOKE_EXPONENTS
        for bucket in (None, BIG_BUCKET):
            field = _field(rng, bucket)
            draw = _Draw(rng, field)
            job = {"kind": kind, "source": source, "field": _field_name(field)}
            if kind == "skew":
                job["relations"] = _pairs_json(class_relations(source, draw))
                order = (3, 2, 1)
            else:
                lambdas, xs = family_data(source, draw)
                job["lambdas"] = _lambdas_json(lambdas)
                job["x"] = [str(v) for v in xs]
                order = (1, 2, 3)
            ngens = 6 if kind == "diffusion2" else 3
            words = [[g for g in order for _ in range(exponents[3 - g])]]
            words += [[rng.choice(order) for _ in range(SHORT_LENGTH)]
                      for _ in range(SHORT_WORDS)]
            job["words"] = words
            job["short_words"] = list(range(1, 1 + SHORT_WORDS))
            job["polys"] = [_poly_json(_random_poly(draw, support, ngens))
                            for support in POLY_SUPPORTS]
            jobs.append(job)
    # Deep words on tail-free class-1 presentations, one per field.  These
    # fail today, so their inputs are fixed and do not depend on the seed.
    for field_name in DEEP_FIELDS:
        relations = {(1, 2): (2, {}, 0), (1, 3): (3, {}, 0), (2, 3): (5, {}, 0)}
        jobs.append({"kind": "skew", "source": "1", "field": field_name, "deep": True,
                     "relations": _pairs_json(relations),
                     "words": [[3] * DEEP_LENGTH + [2] * DEEP_LENGTH + [1] * DEEP_LENGTH],
                     "short_words": [], "polys": []})
    return jobs


def generate(workload: str, seed: int, directory: str, size: str = "full") -> dict:
    """Write the inputs of one workload into ``directory`` (created or emptied)
    and return the manifest, which is also saved as manifest.json there."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    for entry in os.listdir(directory):
        if entry.endswith((".alg", ".json", ".jsonl")):
            os.remove(os.path.join(directory, entry))
    rng = random.Random(f"{workload}:{seed}:{size}")
    files = _Files(directory)
    builder = {"screen": _screen, "calculus": _calculus, "rewrite": _rewrite,
               "identities": _identities}[workload]
    jobs = builder(files, rng, size)
    manifest = {"workload": workload, "seed": seed, "size": size,
                "files": files.meta, "jobs": jobs}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest
