"""`chambers`: the wall-and-chamber calculus at genus 1, rank 3-4.

Every round runs the same op mix (see MIX); systems are drawn afresh.
Genericity verdicts are split between generic and non-generic systems,
and between systems the program enumerates and systems whose wall count
exceeds the enumeration cap (10^6), which the residue DP answers.
Two thirds of the same_chamber pairs are nearby pairs that share a chamber
(every wall is compared) and one third are pairs in different chambers
(the comparison stops at the first differing wall).
"""

from functools import partial

import gen
import oracle
from common import Op, Workload, weight_system
from oracle import expect

# key -> (builder, args); all genus 1
SHAPES = {
    "r3n4": (gen.plain_model, (1, 3, 4)),
    "r3n5": (gen.plain_model, (1, 3, 5)),
    "r3c2x3": (gen.cyclic_model, (1, 3, 2, 3)),   # 6 points, order-2 table
    "r3n8": (gen.plain_model, (1, 3, 8)),
    "r4n4": (gen.plain_model, (1, 4, 4)),
    "r3c2x2": (gen.cyclic_model, (1, 3, 2, 2)),   # 4 points, order-2 table
    "r4c4x2": (gen.cyclic_model, (1, 4, 4, 2)),   # 8 points, 1.8M walls
}

# (op kind, model keys); every round runs each pair once. The mix is laid
# out in cost bands so that the median and the 90th percentile fall inside
# a band of like ops, not in a gap between bands:
#   < 1 ms     10 ops  non-generic verdicts, DP verdicts, differing pairs
#   ~10 ms      3 ops  4 points at rank 3
#   ~20 ms      6 ops  5 points at rank 3 (the median lies here)
#   50-100 ms   7 ops  6 points, rank 4, stabilizer filters
#   ~200 ms     4 ops  same-chamber pairs at 6 points and at rank 4 (p90)
#   ~0.5 s      1 op   the automorphism report
MIX = [
    ("is_generic.enum.nongeneric", ("r3n4", "r3c2x3", "r3n8")),
    ("is_generic.dp.generic", ("r4c4x2", "r4c4x2")),
    ("is_generic.dp.nongeneric", ("r4c4x2", "r4c4x2")),
    ("same_chamber.differ", ("r3n5", "r3c2x3", "r3n8")),
    ("is_generic.enum.generic", ("r3n4", "r3n5", "r3n5", "r3n5", "r3c2x3", "r4n4")),
    ("chamber_fingerprint", ("r3n4", "r3n5", "r3n5", "r3n5", "r3c2x3", "r4n4")),
    ("same_chamber.same", ("r3n4", "r3n5", "r3c2x3", "r3c2x3", "r4n4", "r4n4")),
    ("stabilizer_d_alpha_quotient", ("r3n4", "r3c2x2")),
    ("automorphism_group_report", ("r3n4",)),
]


class Chambers(Workload):
    name = "chambers"

    def __init__(self, seed, P, workdir):
        super().__init__(seed, P, workdir)
        # The models are fixtures, the same for every seed: the cost of the
        # divisor-form search depends strongly on the point classes, so a
        # model drawn per seed would let the seed set the figures. The seed
        # draws every op's inputs.
        rng = gen.rng_for("fixed", self.name, "models")
        for key, (build, args) in SHAPES.items():
            self.docs[key] = build(rng, *args)
        self.load_models()
        self.curves = {k: oracle.Curve(d) for k, d in self.docs.items()}

    def round(self, idx):
        rng = gen.rng_for(self.seed, self.name, "round", idx)
        ops = []
        for kind, keys in MIX:
            for key in keys:
                op = self._op(rng, kind, key)
                op.model = key
                ops.append(op)
        rng.shuffle(ops)
        return ops

    def _op(self, rng, kind, key):
        P, m, c = self.P, self.models[key], self.curves[key]
        names, r = c.names, c.rank

        def ws(w):
            return weight_system(P, w, r)

        if kind.startswith("is_generic"):
            _, path, verdict = kind.split(".")
            if path == "dp":
                w = gen.dp_weights(rng, names, r, verdict == "generic")
            elif verdict == "generic":
                w = gen.generic_weights(rng, names, r)
            else:
                w = gen.nongeneric_weights(rng, names, r)
            return Op(kind, partial(P.is_generic, ws(w)),
                      partial(check_is_generic, oracle.wform(w)))
        if kind == "chamber_fingerprint":
            w = gen.generic_weights(rng, names, r)
            return Op(kind, partial(P.chamber_fingerprint, ws(w)),
                      partial(check_fingerprint, oracle.wform(w)))
        if kind.startswith("same_chamber"):
            w = gen.generic_weights(rng, names, r)
            if kind.endswith("same"):
                w2 = gen.nearby_weights(rng, w)
            else:
                w2 = gen.differing_weights(rng, w)
            return Op(kind, partial(P.same_chamber, ws(w), ws(w2)),
                      partial(check_same_chamber, kind.endswith("same")))
        d = rng.randint(-3, 3)
        w = gen.generic_weights(rng, names, r)
        if kind == "stabilizer_d_alpha_quotient":
            return Op(kind, partial(P.stabilizer_d_alpha_quotient, d, ws(w), m),
                      partial(check_d_alpha, c, d, w))
        return Op(kind, partial(P.automorphism_group_report, d, ws(w), m),
                  partial(check_aut_report, P, m, c, d, w))


# -- checks ---------------------------------------------------------------


def check_is_generic(ow, res):
    ok, witness = res
    expect(ok == oracle.generic_verdict(ow), "genericity verdict differs from the oracle's")
    if ok:
        expect(witness is None, "generic verdict with a witness")
    else:
        oracle.check_wall(ow, witness.subrank, witness.subsets, witness.value)


def check_fingerprint(ow, res):
    expect(list(res.floors) == oracle.floors(ow), "wall floors differ from the oracle's")


def check_same_chamber(same, res):
    # the generator built the pair with the oracle's comparison
    expect(res is same, f"same_chamber said {res}, the oracle says {same}")


def surviving_sectors(c, d, w):
    """Degree-d sectors whose weight action keeps w in its chamber."""
    wf = oracle.wform(w)
    zero = (0,) * c.dim
    out = []
    for sigma, s, hecke, ldeg in c.sectors(d):
        if oracle.same_chamber(c.act_weights((sigma, s, (ldeg, zero), hecke), wf), wf):
            out.append((sigma, s, hecke, ldeg))
    return out


def _rep_key(c, t):
    expect(t.line.jac.is_zero(), "representative with a torsion part")
    return (t.sigma, t.s, dict(t.hecke.mult), t.line.degree)


def check_d_alpha(c, d, w, res):
    got = [_rep_key(c, t) for t in res]
    expect(got == surviving_sectors(c, d, w), "chamber-filtered representatives differ")


def check_aut_report(P, m, c, d, w, res):
    def key(e):
        return (e["sigma"], e["s"], e["H"], e["L_degree"])

    expect(res["degree"] == d, "report degree")
    expect([key(e) for e in res["discrete_3bir"]] == c.sectors(d), "3-birational layer differs")
    expect([key(e) for e in res["discrete_regular"]] == surviving_sectors(c, d, w),
           "regular layer differs")
    for e in res["discrete_3bir"]:
        t = P.eval_expression(e["text"], m)
        expect((t.sigma, t.s, t.hecke.to_json(), t.line.degree) == key(e) and t.line.jac.is_zero(),
               f"report text {e['text']!r} does not evaluate to its entry")
