"""`algebra`: warm library calls on the group law and its actions.

Every round runs the same op mix on every model: 3 compose, 2 inverse,
1 act_degree, 2 act_det, 1 act_invariant, 1 compose_ext, 1 ext_inverse
and 1 act_ext, with fresh random tuples; then stabilizer_xi three times
(the paper's two worked counts and one random class on a small model).
"""

from functools import partial

import gen
import oracle
from common import Op, Workload, basic, weight_system
from oracle import expect

# key -> (builder, args); the contents are drawn from the seed
SHAPES = {
    "cyc3": (gen.cyclic_model, (1, 3, 3, 1)),
    "cyc2x2": (gen.cyclic_model, (4, 3, 2, 2)),
    "cyc4x2": (gen.cyclic_model, (2, 2, 4, 2)),
    "cyc6": (gen.cyclic_model, (3, 4, 6, 1)),
    "cyc12": (gen.cyclic_model, (6, 2, 12, 1)),
    "rot3": (gen.rotation_model, (5, 3, 3)),
    "rot4": (gen.rotation_model, (2, 2, 4)),
    "rot6": (gen.rotation_model, (1, 2, 6)),
    "inv": (gen.involution_model, (3, 2, 2)),
    "plain": (gen.plain_model, (1, 4, 1)),
}
PAPER_TOTALS = {"g1": 16, "g6": 16384}


def otuple(c, t):
    sigma, s, (deg, jac), hecke = t
    return (sigma, s, c.cls(deg, jac), dict(hecke))


class Algebra(Workload):
    name = "algebra"

    def __init__(self, seed, P, workdir):
        super().__init__(seed, P, workdir)
        rng = gen.rng_for(seed, self.name, "models")
        self.docs = gen.golden_models()
        for key, (build, args) in SHAPES.items():
            self.docs[key] = build(rng, *args)
        self.load_models()
        self.curves = {k: oracle.Curve(d) for k, d in self.docs.items()}

    def round(self, idx):
        rng = gen.rng_for(self.seed, self.name, "round", idx)
        ops = []
        for key in self.docs:
            ops += self._model_ops(rng, key)
        P = self.P
        for key in ("g1", "g6", "cyc3"):
            m, c = self.models[key], self.curves[key]
            if key in PAPER_TOTALS:
                xi = (0, [0] * c.dim)
            else:
                xi = gen.rand_class(rng, c.genus)
            pxi = P.LineBundleClass(xi[0], P.JacobianElement(xi[1]))
            ops.append(Op("stabilizer_xi", partial(P.stabilizer_xi, pxi, m),
                          partial(check_stabilizer_xi, c, c.cls(*xi), PAPER_TOTALS.get(key)), key))
        rng.shuffle(ops)
        return ops

    def _model_ops(self, rng, key):
        P, m, c, doc = self.P, self.models[key], self.curves[key], self.docs[key]
        r = c.rank

        def probe():
            xi = gen.rand_class(rng, c.genus)
            return c.cls(*xi), rng.randint(-6, 6), gen.rand_weights(rng, c.names, r)

        def invariant(xi, w):
            line = P.LineBundleClass(xi[0], P.JacobianElement(c.frac_vec(xi[1])))
            return P.ParabolicInvariant(r, line, weight_system(P, w, r))

        ops = []
        for _ in range(3):
            ta, tb = gen.rand_tuple(rng, doc), gen.rand_tuple(rng, doc)
            a, b = basic(P, m, ta), basic(P, m, tb)
            ops.append(Op("compose", partial(P.compose, a, b),
                          partial(check_compose, c, otuple(c, ta), otuple(c, tb), *probe())))
        for _ in range(2):
            ta = gen.rand_tuple(rng, doc)
            a = basic(P, m, ta)
            ops.append(Op("inverse", partial(P.inverse, a),
                          partial(check_inverse, c, otuple(c, ta), *probe())))
        ta = gen.rand_tuple(rng, doc)
        d = rng.randint(-20, 20)
        ops.append(Op("act_degree", partial(P.act_degree, basic(P, m, ta), d),
                      partial(check_act_degree, c, otuple(c, ta), d)))
        for _ in range(2):
            ta = gen.rand_tuple(rng, doc)
            xi, _, _ = probe()
            pxi = P.LineBundleClass(xi[0], P.JacobianElement(c.frac_vec(xi[1])))
            ops.append(Op("act_det", partial(P.act_det, basic(P, m, ta), pxi),
                          partial(check_act_det, c, otuple(c, ta), xi)))
        ta = gen.rand_tuple(rng, doc)
        xi, _, w = probe()
        ops.append(Op("act_invariant",
                      partial(P.act_invariant, basic(P, m, ta), invariant(xi, w)),
                      partial(check_act_invariant, c, otuple(c, ta), xi, w)))

        # extended elements: degree-fixing basic parts at the reference degree 0
        def ext():
            tilde = gen.rand_tilde(rng, c.dim, r)
            t = gen.rand_degree_fixing_tuple(rng, doc)
            e = P.ExtendedTransformation(
                P.make_jac_aut(tilde, r), basic(P, m, t), P.default_ref_det(m))
            return e, (tilde, otuple(c, t))

        def probe0():
            xi, _, w = probe()
            xi0 = (0, xi[1])
            return xi0, w, invariant(xi0, w)

        (e1, o1), (e2, o2) = ext(), ext()
        ops.append(Op("compose_ext", partial(P.compose_ext, e1, e2),
                      partial(check_compose_ext, c, o1, o2, *probe0()[:2])))
        e1, o1 = ext()
        ops.append(Op("ext_inverse", partial(P.ext_inverse, e1),
                      partial(check_ext_inverse, c, o1, *probe0()[:2])))
        e1, o1 = ext()
        xi0, w, v = probe0()
        ops.append(Op("act_ext", partial(P.act_ext, e1, v),
                      partial(check_act_ext, c, o1, xi0, w)))
        for op in ops:
            op.model = key
        return ops


# -- checks ---------------------------------------------------------------


def _actions(c, t, xi, d, wf):
    return c.act_det(t, xi), c.act_degree(t, d), c.act_weights(t, wf)


def check_compose(c, oa, ob, xi, d, w, res):
    rt = oracle.tuple_of(c, res)
    expect(rt == c.compose(oa, ob), "composite differs from the oracle's")
    wf = oracle.wform(w)
    det, deg, wt = _actions(c, ob, xi, d, wf)
    want = (c.act_det(oa, det), c.act_degree(oa, deg), c.act_weights(oa, wt))
    expect(_actions(c, rt, xi, d, wf) == want, "acting by the composite differs from acting by each factor")


def check_inverse(c, oa, xi, d, w, res):
    rt = oracle.tuple_of(c, res)
    expect(c.compose(rt, oa) == c.identity, "compose(inverse(t), t) is not the identity")
    expect(c.compose(oa, rt) == c.identity, "compose(t, inverse(t)) is not the identity")
    wf = oracle.wform(w)
    det, deg, wt = _actions(c, oa, xi, d, wf)
    got = (c.act_det(rt, det), c.act_degree(rt, deg), c.act_weights(rt, wt))
    expect(got == (xi, d, wf), "the inverse does not undo the actions")


def check_act_degree(c, ot, d, res):
    expect(res == c.act_degree(ot, d), "act_degree differs from s * (r deg L + d - |H|)")


def check_act_det(c, ot, xi, res):
    expect(oracle.class_of(c, res) == c.act_det(ot, xi), "act_det differs from the closed form")


def check_act_invariant(c, ot, xi, w, res):
    wf = oracle.wform(w)
    expect(res.rank == c.rank, "act_invariant changed the rank")
    expect(oracle.class_of(c, res.det) == c.act_det(ot, xi), "invariant determinant")
    expect(oracle.weights_of_program(res.weights, wf[0]) == c.act_weights(ot, wf), "invariant weights")


def _ext_of(c, e):
    return [list(row) for row in e.rho.tilde], oracle.tuple_of(c, e.basic), oracle.class_of(c, e.ref_det)


def _act_ext(c, oe, ref, inv):
    tilde, t = oe
    return c.act_ext(tilde, t, ref, inv)


def check_compose_ext(c, o1, o2, xi0, w, res):
    tilde, t, ref = _ext_of(c, res)
    expect(ref == (0, (0,) * c.dim), "compose_ext changed the reference determinant")
    expect((tilde, t) == c.compose_ext(o1, o2, ref), "extended composite differs from the oracle's")
    v = (xi0, oracle.wform(w))
    want = _act_ext(c, o1, ref, _act_ext(c, o2, ref, v))
    expect(c.act_ext(tilde, t, ref, v) == want, "extended action of the composite differs")


def check_ext_inverse(c, o1, xi0, w, res):
    tilde, t, ref = _ext_of(c, res)
    expect(c.compose_ext((tilde, t), o1, ref) == c.ext_identity, "ext_inverse(e) after e is not the identity")
    expect(c.compose_ext(o1, (tilde, t), ref) == c.ext_identity, "e after ext_inverse(e) is not the identity")
    v = (xi0, oracle.wform(w))
    expect(c.act_ext(tilde, t, ref, _act_ext(c, o1, ref, v)) == v, "ext_inverse does not undo the action")


def check_act_ext(c, o1, xi0, w, res):
    wf = oracle.wform(w)
    det, wt = _act_ext(c, o1, (0, (0,) * c.dim), (xi0, wf))
    expect(oracle.class_of(c, res.det) == det, "act_ext determinant differs from the closed form")
    expect(oracle.weights_of_program(res.weights, wf[0]) == wt, "act_ext weights")


def check_stabilizer_xi(c, xi, paper_total, res):
    """Sector list against the oracle's admissible sectors; each sector's
    root, as a line, must fix xi; the total is sectors times r^(2g)."""
    want = c.sectors(xi[0])
    got = res["sectors"]
    expect(len(got) == len(want), f"{len(got)} sectors, oracle counts {len(want)}")
    size = c.rank ** c.dim
    for sec, (sigma, s, hecke, ldeg) in zip(got, want):
        expect((sec["sigma"], sec["s"], sec["H"], sec["L_degree"]) == (sigma, s, hecke, ldeg),
               "sector differs from the oracle's")
        expect(sec["torsor_size"] == size, "torsor size")
        t = (sigma, s, c.cls(ldeg, sec["root"]), hecke)
        expect(c.act_det(t, xi) == xi, "sector root does not fix xi")
    expect(res["total"] == len(want) * size, "total is not sectors times r^(2g)")
    if paper_total is not None:
        expect(res["total"] == paper_total, f"worked count {res['total']}, paper gives {paper_total}")
