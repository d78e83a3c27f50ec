"""The jobs of a manifest as callables on the program's public entry points.

CLI jobs call ``skewsmooth.cli.main([..., "--json"])`` in-process with stdout
and stderr captured.  Rewrite jobs build one new presentation (so the rewrite
memo starts empty), normalize the job's words with ``Presentation.normal_form``
and form products with ``Presentation.multiply``, including both bracketings
of one triple.  Everything a job returns is turned into plain JSON by
``export`` after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction


class CliJob:
    def __init__(self, cli, argv):
        self.cli = cli
        self.argv = list(argv) + ["--json"]

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.argv)
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def succeeded(result) -> bool:
        return result[0] == 0

    @staticmethod
    def export(output):
        return list(output[:1]) + list(output[1]) if output[0] == "ok" else list(output)


def _poly_export(poly):
    return [[list(m), str(c)] for m, c in sorted(poly.terms.items())]


class RewriteJob:
    def __init__(self, spec: dict, lib: dict, field):
        self.lib = lib
        self.field = field
        self.kind = spec["kind"]
        if self.kind == "skew":
            self.relations = {
                tuple(int(g) for g in key.split(",")):
                    (Fraction(a), {int(g): Fraction(c) for g, c in tail.items()}, Fraction(e))
                for key, (a, tail, e) in spec["relations"].items()}
        else:
            self.lambdas = {tuple(int(g) for g in key.split(",")): Fraction(v)
                            for key, v in spec["lambdas"].items()}
            self.xs = tuple(Fraction(v) for v in spec["x"])
        self.words = [tuple(w) for w in spec["words"]]
        self.polys = [{tuple(m): Fraction(c) for m, c in poly} for poly in spec["polys"]]

    def presentation(self):
        lib = self.lib
        if self.kind == "skew":
            return lib["Presentation"].skew(self.field, 3, self.relations)
        dtype = lib["DiffusionType"].TYPE1 if self.kind == "diffusion1" \
            else lib["DiffusionType"].TYPE2
        xs = self.xs if self.kind == "diffusion1" else ()
        return lib["encode_presentation"](
            lib["DiffusionPresentation"](3, dtype, self.lambdas, xs, self.field))

    def __call__(self):
        pres = self.presentation()
        forms = [pres.normal_form(w) for w in self.words]
        products = []
        if self.polys:
            p, q, r = (pres.poly(terms) for terms in self.polys)
            pq = pres.multiply(p, q)
            products = [pq, pres.multiply(pq, r), pres.multiply(p, pres.multiply(q, r))]
        return forms, products

    @staticmethod
    def succeeded(result) -> bool:
        return True

    @staticmethod
    def export(output):
        if output[0] != "ok":
            return list(output)
        forms, products = output[1]
        return ["ok", [_poly_export(f) for f in forms], [_poly_export(p) for p in products]]


def build_jobs(manifest: dict, lib: dict, fields: dict) -> list:
    files = manifest["files"]
    if manifest["workload"] == "rewrite":
        return [RewriteJob(spec, lib, fields[spec["field"]]) for spec in manifest["jobs"]]
    jobs = []
    for spec in manifest["jobs"]:
        argv = [files[a]["path"] if a in files else a for a in spec["argv"]]
        jobs.append(CliJob(lib["cli"], argv))
    return jobs
