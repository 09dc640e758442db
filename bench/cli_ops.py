"""`cli`: one `partrans` process per op, run in sequence.

Every round runs each entry of MIX once, with fresh expressions and
files: all nine subcommands on the golden and synthetic model files, plus
one malformed expression that must exit with status 2. Expressions mix
powers X^k (k = 100..300), A[...] atoms, and lines with and without a
divisor form. Each op's exit code is checked (0 success or true, 1 false
verdict, 2 error) along with its output.

The untraced run starts each op as `python3 -m partrans.cli ...`; the
traced run calls partrans.cli.run_command in-process with stdout and
stderr captured.
"""

import contextlib
import io
import json
import shutil
import statistics
import sys
from fractions import Fraction
from functools import partial

import gen
import oracle
from chambers import surviving_sectors
from common import Op, Workload, run_child
from oracle import expect

SHAPES = {
    "p3": (gen.plain_model, (1, 2, 3)),
    "p4": (gen.plain_model, (2, 3, 4)),
    "p5": (gen.plain_model, (1, 2, 5)),
    "p6": (gen.plain_model, (1, 3, 6)),
    "cyc3": (gen.cyclic_model, (1, 3, 3, 1)),
}

# (op kind = "<subcommand>.<variant>", model key)
MIX = [
    ("normalize.power", "g1"),
    ("normalize.power", "cyc3"),
    ("normalize.ext", "g1"),
    ("normalize.nodiv", "p5"),
    ("normalize.nodiv", "p5"),
    ("normalize.plain", "p6"),
    ("compose.plain", "p3"),
    ("compose.nodiv", "p5"),
    ("act.degree_det", "cyc3"),
    ("act.weights", "p4"),
    ("act.invariant", "p3"),
    ("weights.check-generic", "p4"),
    ("weights.fingerprint", "cyc3"),
    ("weights.same-chamber", "p4"),
    ("weights.hecke", "p3"),
    ("weights.dual", "cyc3"),
    ("stabilizer.xi", "g1"),
    ("stabilizer.d-alpha", "cyc3"),
    ("aut-report.report", "p3"),
    ("torelli.decide", "p3"),
    ("bridge.degree", "g6"),
    ("verify.decomposition", "p3"),
    ("error.normalize", "p3"),
]
PAPER_XI_TOTALS = {"g1": 16, "g6": 16384}
NODIV_DEN = 7  # no point class of a generated model has a 7 in its denominator


def _frac_list(v):
    return [gen.fstr(x) for x in v]


def _div_text(div):
    out = []
    for x, k in div.items():
        if not out:
            out.append(f"{k}*{x}")
        else:
            out.append(f"{'+' if k > 0 else '-'} {abs(k)}*{x}")
    return " ".join(out)


class Expr:
    """Expression text with the oracle tuples of its factors, left to right
    (the left factor acts last), and an optional Jacobian part outermost."""

    def __init__(self, text, seq, tilde=None):
        self.text = text
        self.seq = seq
        self.tilde = tilde

    def det(self, c, xi):
        for t in reversed(self.seq):
            xi = c.act_det(t, xi)
        return xi

    def degree(self, c, d):
        for t in reversed(self.seq):
            d = c.act_degree(t, d)
        return d

    def weights(self, c, wf):
        for t in reversed(self.seq):
            wf = c.act_weights(t, wf)
        return wf

    def invariant(self, c, det, wf):
        det, wf = self.det(c, det), self.weights(c, wf)
        if self.tilde is not None:
            det = c.twist(self.tilde, (0, (0,) * c.dim), det)
        return det, wf


def atom(rng, c, kind):
    zero = (0, (0,) * c.dim)
    if kind == "S":
        name = rng.choice([a for a in c.auto_order if a != "id"] or ["id"])
        return f"S({name})", (name, 1, zero, {})
    if kind == "D":
        return "D-", ("id", -1, zero, {})
    if kind == "TO":
        xs = rng.sample(c.names, rng.randint(1, len(c.names)))
        div = {x: rng.choice((-3, -2, -1, 1, 2, 3)) for x in xs}
        return f"T(O({_div_text(div)}))", ("id", 1, c.divisor_class(div), {})
    if kind == "T7":
        # degree 0: the largest candidate set for the divisor search, every time
        deg, jac = 0, [Fraction(rng.randrange(1, NODIV_DEN), NODIV_DEN)] + [
            Fraction(rng.randrange(NODIV_DEN), NODIV_DEN) for _ in range(c.dim - 1)]
        return f"T({deg}, [{', '.join(_frac_list(jac))}])", ("id", 1, c.cls(deg, jac), {})
    if kind == "Tc":
        deg, jac = rng.randint(-3, 3), gen.rand_class(rng, c.genus)[1]
        return f"T({deg}, [{', '.join(_frac_list(jac))}])", ("id", 1, c.cls(deg, jac), {})
    xs = rng.sample(c.names, rng.randint(1, len(c.names)))
    div = {x: rng.randint(1, 2 * c.rank - 1) for x in xs}
    return f"H({_div_text(div)})", ("id", 1, zero, div)


def word(rng, c, kinds):
    parts = [atom(rng, c, k) for k in kinds]
    return Expr(" * ".join(p[0] for p in parts), [p[1] for p in parts])


def tuple_word(c, t):
    """Expression of one canonical tuple (sigma, s, (deg, jac), hecke)."""
    sigma, s, (deg, jac), hecke = t
    parts = []
    if sigma != "id":
        parts.append(f"S({sigma})")
    if s == -1:
        parts.append("D-")
    parts.append(f"T({deg}, [{', '.join(_frac_list(jac))}])")
    if hecke:
        parts.append(f"H({_div_text(hecke)})")
    return Expr(" * ".join(parts), [(sigma, s, c.cls(deg, jac), dict(hecke))])


def _same_weights(got, want):
    """Two oracle weight forms hold the same fractions (their Q may differ)."""
    gq, gv = got
    wq, wv = want
    return set(gv) == set(wv) and all(
        Fraction(a, gq) == Fraction(b, wq) for x in gv for a, b in zip(gv[x], wv[x]))


class Cli(Workload):
    name = "cli"
    spawns_processes = True  # the traced run switches to in-process calls

    def __init__(self, seed, P, workdir):
        super().__init__(seed, P, workdir)
        import partrans.cli
        self.cli = partrans.cli
        # The models are fixtures, the same for every seed: the cost of the
        # divisor-form search depends strongly on the point classes, so a
        # model drawn per seed would let the seed set the figures. The seed
        # draws every op's inputs.
        rng = gen.rng_for("fixed", self.name, "models")
        self.docs = gen.golden_models()
        for key, (build, args) in SHAPES.items():
            self.docs[key] = build(rng, *args)
        # the same curve as p3 with its points renamed and listed in another order
        p3 = self.docs["p3"]
        self.rename = {p["name"]: f"y{i}" for i, p in enumerate(p3["points"])}
        pts = [{"name": self.rename[p["name"]], "jac": p["jac"]} for p in p3["points"]]
        rng.shuffle(pts)
        self.docs["p3b"] = dict(p3, points=pts)
        self.load_models()
        self.curves = {k: oracle.Curve(d, extra_dens=(12, NODIV_DEN)) for k, d in self.docs.items()}
        self.model_dir = workdir / "models"
        self.model_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, doc in self.docs.items():
            path = self.model_dir / f"{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[key] = str(path)
        self.peak_child_rss_mb = 0.0

    def setup_script(self):
        return "import sys\nsys.path.insert(0, sys.argv[1])\nimport partrans.cli\n"

    def peak_rss_mb(self):
        return self.peak_child_rss_mb

    def wall_ms_by_subcommand(self, runner):
        out = {}
        for kind, vals in runner.by_kind.items():
            sub = kind.split(".")[0]
            if sub != "error":
                out.setdefault(sub, []).extend(vals)
        return {f"cli.{sub}.wall_ms": statistics.median(v) for sub, v in out.items()}

    # -- running one command ---------------------------------------------

    def invoke(self, argv):
        if self.spawns_processes:
            return self._invoke_child(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run_command(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _invoke_child(self, argv):
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            _, code, rss = run_child([sys.executable, "-m", "partrans.cli"] + argv, out, err)
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, rss)
        return code, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")

    # -- rounds ------------------------------------------------------------

    def round(self, idx):
        rng = gen.rng_for(self.seed, self.name, "round", idx)
        shutil.rmtree(self.workdir / f"r{idx - 1}", ignore_errors=True)
        self.rdir = self.workdir / f"r{idx}"
        self.rdir.mkdir(parents=True, exist_ok=True)
        self.nfile = 0
        ops = []
        for kind, key in MIX:
            self.op_model = key
            argv, check = getattr(self, "_" + kind.replace(".", "_").replace("-", "_"))(rng, key)
            ops.append(Op(kind, partial(self.invoke, argv), check, self.op_model))
        rng.shuffle(ops)
        return ops

    def file(self, obj):
        self.nfile += 1
        path = self.rdir / f"f{self.nfile}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def probe(self, rng, c):
        deg, jac = gen.rand_class(rng, c.genus)
        return c.cls(deg, jac), rng.randint(-6, 6), oracle.wform(gen.rand_weights(rng, c.names, c.rank))

    def _element_check(self, key, expr, probe, as_json):
        """Output (text, or JSON with text and element) acts like expr, and
        its text evaluates back to the same element."""
        P, m, c = self.P, self.models[key], self.curves[key]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            doc = json.loads(out) if as_json else {"text": out.strip()}
            back = P.eval_expression(doc["text"], m)
            # an extended element with identity Jacobian part prints as its
            # basic part, which evaluates back to a basic element
            if isinstance(back, P.ExtendedTransformation):
                tilde, basic = [list(r) for r in back.rho.tilde], back.basic
            else:
                tilde, basic = [[0] * c.dim for _ in range(c.dim)], back
            if as_json:
                el = doc["element"]
                got_json = back.to_json() if "rho_tilde" not in el else {
                    "rho_tilde": tilde, "basic": basic.to_json(), "ref_det": el["ref_det"]}
                expect(got_json == el, "text does not evaluate back to the element")
            xi, d, wf = probe
            t = oracle.tuple_of(c, basic)
            expect(t == c.compose_all(expr.seq), "output differs from the oracle's composite of the input")
            if expr.tilde is None:
                expect(not any(any(r) for r in tilde), "a Jacobian part appeared")
                got = (c.act_det(t, xi), c.act_degree(t, d), c.act_weights(t, wf))
                want = (expr.det(c, xi), expr.degree(c, d), expr.weights(c, wf))
            else:
                xi0 = (0, xi[1])
                expect(tilde == expr.tilde, "Jacobian part differs")
                got = c.act_ext(tilde, t, (0, (0,) * c.dim), (xi0, wf))
                want = expr.invariant(c, xi0, wf)
            expect(got == want, "output acts differently from the input expression")

        return check

    def _normalize_power(self, rng, key):
        c = self.curves[key]
        base = word(rng, c, rng.sample(["S", "D", "TO", "Tc", "H"], 3))
        k = rng.randint(100, 300)
        expr = Expr(f"({base.text})^{k}", base.seq * k)
        as_json = rng.random() < 0.5
        argv = ["normalize", "--model", self.paths[key], expr.text] + (["--json"] if as_json else [])
        return argv, self._element_check(key, expr, self.probe(rng, c), as_json)

    def _normalize_ext(self, rng, key):
        c, doc = self.curves[key], self.docs[key]
        tilde = gen.rand_tilde(rng, c.dim, c.rank)
        inner = tuple_word(c, gen.rand_degree_fixing_tuple(rng, doc))
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in tilde)
        expr = Expr(f"A[{rows}] * {inner.text}", inner.seq, tilde)
        argv = ["normalize", "--model", self.paths[key], "--json", expr.text]
        return argv, self._element_check(key, expr, self.probe(rng, c), True)

    def _normalize_nodiv(self, rng, key):
        c = self.curves[key]
        expr = word(rng, c, ["T7", rng.choice(["S", "D"])])
        argv = ["normalize", "--model", self.paths[key], expr.text]
        return argv, self._element_check(key, expr, self.probe(rng, c), False)

    def _normalize_plain(self, rng, key):
        c = self.curves[key]
        expr = word(rng, c, ["D", "TO", "H", "Tc"])
        argv = ["normalize", "--model", self.paths[key], "--json", expr.text]
        return argv, self._element_check(key, expr, self.probe(rng, c), True)

    def _compose_plain(self, rng, key):
        c = self.curves[key]
        parts = [word(rng, c, rng.sample(["S", "D", "TO", "H"], 2)) for _ in range(3)]
        expr = Expr(None, [t for p in parts for t in p.seq])
        argv = ["compose", "--model", self.paths[key], "--json"] + [p.text for p in parts]
        return argv, self._element_check(key, expr, self.probe(rng, c), True)

    def _compose_nodiv(self, rng, key):
        c = self.curves[key]
        parts = [word(rng, c, ["T7"]), word(rng, c, ["D"])]
        expr = Expr(None, [t for p in parts for t in p.seq])
        argv = ["compose", "--model", self.paths[key]] + [p.text for p in parts]
        return argv, self._element_check(key, expr, self.probe(rng, c), False)

    def _act_degree_det(self, rng, key):
        c = self.curves[key]
        expr = word(rng, c, ["S", "D", "Tc", "H"])
        xi, d, _ = self.probe(rng, c)
        path = self.file({"degree": xi[0], "jac": _frac_list(c.frac_vec(xi[1]))})
        argv = ["act", "--model", self.paths[key], "--json", "--degree", str(d), "--det", path, expr.text]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            doc = json.loads(out)
            expect(doc["degree"] == expr.degree(c, d), "degree action")
            expect(oracle.class_of_json(c, doc["det"]) == expr.det(c, xi), "determinant action")

        return argv, check

    def _act_weights(self, rng, key):
        c = self.curves[key]
        expr = word(rng, c, ["S", "D", "H"])
        w = gen.rand_weights(rng, c.names, c.rank)
        argv = ["act", "--model", self.paths[key], "--json", "--weights",
                self.file(gen.weights_json(w)), expr.text]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            got = oracle.wform(json.loads(out)["weights"])
            expect(_same_weights(got, expr.weights(c, oracle.wform(w))), "weight action")

        return argv, check

    def _act_invariant(self, rng, key):
        c, doc = self.curves[key], self.docs[key]
        tilde = gen.rand_tilde(rng, c.dim, c.rank)
        inner = tuple_word(c, gen.rand_degree_fixing_tuple(rng, doc))
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in tilde)
        expr = Expr(f"A[{rows}] * {inner.text}", inner.seq, tilde)
        xi, _, _ = self.probe(rng, c)
        xi0 = (0, xi[1])
        w = gen.rand_weights(rng, c.names, c.rank)
        inv = {"rank": c.rank, "det": {"degree": 0, "jac": _frac_list(c.frac_vec(xi0[1]))},
               "weights": gen.weights_json(w)}
        argv = ["act", "--model", self.paths[key], "--json", "--invariant", self.file(inv), expr.text]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            got = json.loads(out)["invariant"]
            det, wf = expr.invariant(c, xi0, oracle.wform(w))
            expect(oracle.class_of_json(c, got["det"]) == det, "invariant determinant")
            expect(_same_weights(oracle.wform(got["weights"]), wf), "invariant weights")

        return argv, check

    def _weights_check_generic(self, rng, key):
        c = self.curves[key]
        generic = rng.random() < 0.5
        make = gen.generic_weights if generic else gen.nongeneric_weights
        w = make(rng, c.names, c.rank)
        argv = ["weights", "check-generic", "--model", self.paths[key], "--json",
                self.file(gen.weights_json(w))]
        ow = oracle.wform(w)

        def check(res):
            code, out, _ = res
            doc = json.loads(out)
            expect(code == (0 if generic else 1), f"exit code {code}")
            expect(doc["generic"] is generic, "genericity verdict")
            if not generic:
                wall = doc["witness"]
                oracle.check_wall(ow, wall["subrank"], wall["subsets"].items(), wall["value"])

        return argv, check

    def _weights_fingerprint(self, rng, key):
        c = self.curves[key]
        w = gen.generic_weights(rng, c.names, c.rank)
        argv = ["weights", "fingerprint", "--model", self.paths[key], "--json",
                self.file(gen.weights_json(w))]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            expect(json.loads(out)["floors"] == oracle.floors(oracle.wform(w)),
                   "wall floors")

        return argv, check

    def _weights_same_chamber(self, rng, key):
        c = self.curves[key]
        w = gen.generic_weights(rng, c.names, c.rank)
        same = rng.random() < 0.5
        w2 = gen.nearby_weights(rng, w) if same else gen.differing_weights(rng, w)
        argv = ["weights", "same-chamber", "--model", self.paths[key],
                self.file(gen.weights_json(w)), self.file(gen.weights_json(w2))]

        def check(res):
            code, out, _ = res
            expect(code == (0 if same else 1), f"exit code {code}")
            expect(out.strip() == ("true" if same else "false"), "same-chamber verdict")

        return argv, check

    def _weights_hecke(self, rng, key):
        c = self.curves[key]
        w = gen.rand_weights(rng, c.names, c.rank)
        x = rng.choice(c.names)
        argv = ["weights", "hecke", "--model", self.paths[key], "--json", "--point", x,
                self.file(gen.weights_json(w))]
        t = ("id", 1, (0, (0,) * c.dim), {x: 1})
        return argv, self._weights_out_check(c, t, w)

    def _weights_dual(self, rng, key):
        c = self.curves[key]
        w = gen.rand_weights(rng, c.names, c.rank)
        argv = ["weights", "dual", "--model", self.paths[key], "--json", self.file(gen.weights_json(w))]
        t = ("id", -1, (0, (0,) * c.dim), {})
        return argv, self._weights_out_check(c, t, w)

    def _weights_out_check(self, c, t, w):
        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            want = c.act_weights(t, oracle.wform(w))
            expect(_same_weights(oracle.wform(json.loads(out)), want), "weights output")

        return check

    def _stabilizer_xi(self, rng, key):
        key = self.op_model = rng.choice(["g1", "g6", "cyc3"])
        c = self.curves[key]
        if key in PAPER_XI_TOTALS:
            xi = c.cls(0, [0] * c.dim)
        else:
            xi = self.probe(rng, c)[0]
        path = self.file({"degree": xi[0], "jac": _frac_list(c.frac_vec(xi[1]))})
        argv = ["stabilizer", "xi", "--model", self.paths[key], "--xi", path]
        from algebra import check_stabilizer_xi

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            check_stabilizer_xi(c, xi, PAPER_XI_TOTALS.get(key), json.loads(out))

        return argv, check

    def _stabilizer_d_alpha(self, rng, key):
        c = self.curves[key]
        w = gen.generic_weights(rng, c.names, c.rank)
        d = rng.randint(-3, 3)
        argv = ["stabilizer", "d-alpha", "--model", self.paths[key], "--degree", str(d),
                "--weights", self.file(gen.weights_json(w))]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            got = [(e["sigma"], e["s"], e["hecke"], e["line"]["degree"])
                   for e in json.loads(out)["representatives"]]
            expect(got == surviving_sectors(c, d, w), "chamber-filtered representatives")

        return argv, check

    def _aut_report_report(self, rng, key):
        c = self.curves[key]
        w = gen.generic_weights(rng, c.names, c.rank)
        d = rng.randint(-3, 3)
        argv = ["aut-report", "--model", self.paths[key], "--degree", str(d),
                "--weights", self.file(gen.weights_json(w))]
        from chambers import check_aut_report

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            check_aut_report(self.P, self.models[key], c, d, w, json.loads(out))

        return argv, check

    def _torelli_decide(self, rng, key):
        c = self.curves[key]
        case = rng.choice(("same", "rank", "relabeled"))

        def desc(rank, names):
            w = gen.generic_weights(rng, names, rank)
            return self.file({"rank": rank, "degree": rng.randint(-4, 4), "weights": gen.weights_json(w)})

        a = desc(2, c.names)
        if case == "same":
            argv = ["torelli", "--model", self.paths[key], "--desc-a", a, "--desc-b", desc(2, c.names)]
        elif case == "rank":
            argv = ["torelli", "--model", self.paths[key], "--desc-a", a, "--desc-b", desc(3, c.names)]
        else:
            names_b = [p["name"] for p in self.docs["p3b"]["points"]]
            argv = ["torelli", "--model-a", self.paths[key], "--model-b", self.paths["p3b"],
                    "--desc-a", a, "--desc-b", desc(2, names_b)]
        want = case != "rank"
        argv.append("--json")

        def check(res):
            code, out, _ = res
            expect(code == (0 if want else 1), f"exit code {code}")
            doc = json.loads(out)
            expect(doc["is_3birational"] is want, "3-birational verdict")
            expect(doc["curves_isomorphic"] is True, "the curves are isomorphic by construction")
            if case == "relabeled":
                a_pts, b_pts = c.pts, self.curves["p3b"].pts
                expect(all(a_pts[x] == b_pts[y] for x, y in doc["witness"]["points"].items()),
                       "witness maps a point to one of another class")

        return argv, check

    def _bridge_degree(self, rng, key):
        c = self.curves[key]
        d, d2 = rng.randint(-30, 30), rng.randint(-30, 30)
        x = rng.choice(c.names)
        argv = ["bridge", "--model", self.paths[key], "--json", "--from", str(d), "--to", str(d2),
                "--point", x]

        def check(res):
            code, out, _ = res
            expect(code == 0, f"exit code {code}")
            t = oracle.tuple_of_json(c, json.loads(out)["element"])
            expect(c.act_degree(t, d) == d2, "bridge does not move the degree as asked")

        return argv, check

    def _verify_decomposition(self, rng, key):
        c = self.curves[key]
        claim = rng.choice(("3birational", "isomorphism"))
        expr = word(rng, c, ["D", "TO", "H"])
        d = rng.randint(-4, 4)
        while True:  # the moved system must be generic to make a descriptor
            w = gen.generic_weights(rng, c.names, c.rank)
            moved_q, moved = expr.weights(c, oracle.wform(w))
            if oracle.generic_verdict((moved_q, moved)):
                break
        target_w = {x: tuple(Fraction(v, moved_q) for v in moved[x]) for x in c.names}
        passes = rng.random() < 0.5
        d2 = expr.degree(c, d) + (0 if passes else 1)
        src = self.file({"rank": c.rank, "degree": d, "weights": gen.weights_json(w)})
        tgt = self.file({"rank": c.rank, "degree": d2, "weights": gen.weights_json(target_w)})
        argv = ["verify", "--model", self.paths[key], "--source", src, "--target", tgt,
                "--transform", expr.text, "--claim", claim]

        def check(res):
            code, out, _ = res
            expect(code == (0 if passes else 1), f"exit code {code}")
            doc = json.loads(out)
            expect(doc["overall"] is passes, "verification verdict")
            checks = {x["name"]: x["pass"] for x in doc["checks"]}
            expect(checks["degree_transport"] is passes, "degree transport check")
            if claim == "isomorphism":
                expect(checks["chamber_match"] is True, "chamber check on the moved weights")

        return argv, check

    def _error_normalize(self, rng, key):
        text = rng.choice(["H(1*nowhere)", "T(O(", "S(no_such_auto)", "D- ** id"])
        argv = ["normalize", "--model", self.paths[key], text]

        def check(res):
            code, out, err = res
            expect(code == 2, f"exit code {code} on a bad expression")
            expect(out == "" and "error:" in err, "a failed command printed to stdout")

        return argv, check
