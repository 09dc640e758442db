"""Quick check of the benchmark itself.

    python3 bench/selfcheck.py

Run from the root of a source checkout. For every workload it

- builds the workload twice from one seed and confirms that the inputs
  are identical, and that another seed gives other inputs;
- runs one round with every check on and confirms that no op fails and
  every result passes its check;
- perturbs every op's result and confirms that its check rejects the
  perturbed result, so that no check passes vacuously.

Prints one line per workload and exits with status 1 on any failure.
"""

import copy
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SRC  # noqa: E402


def _bump_basic(P, t):
    line = P.LineBundleClass(t.line.degree + 1, t.line.jac)
    return P.BasicTransformation(t.model, t.sigma, t.s, line, t.hecke)


def _shift_torsion(P, t):
    """The same tuple with its line moved by an r-torsion class, which no
    action sees: the actions read the line only as L^r or by its degree."""
    shift = P.JacobianElement([Fraction(1, t.model.rank)] + [0] * (len(t.line.jac) - 1))
    line = P.LineBundleClass(t.line.degree, t.line.jac + shift)
    return P.BasicTransformation(t.model, t.sigma, t.s, line, t.hecke)


def _bump_invariant(P, v):
    det = P.LineBundleClass(v.det.degree + 1, v.det.jac)
    return P.ParabolicInvariant(v.rank, det, v.weights, v.label)


def _shift_root(res):
    out = copy.deepcopy(res)
    root = out["sectors"][0]["root"]
    r = round(out["sectors"][0]["torsor_size"] ** (1 / len(root)))
    # 1/(2r) is not r-torsion, so the shifted root no longer fixes xi
    root[0] = str((Fraction(root[0]) + Fraction(1, 2 * r)) % 1)
    return out


def library_perturbations(P, kind, res):
    """Wrong results for one op kind of the library workloads."""
    if kind in ("compose", "inverse"):
        return [_bump_basic(P, res), _shift_torsion(P, res)]
    if kind == "act_degree":
        return [res + 1]
    if kind == "act_det":
        shift = P.JacobianElement([Fraction(1, 3)] + [0] * (len(res.jac) - 1))
        return [P.LineBundleClass(res.degree, res.jac + shift),
                P.LineBundleClass(res.degree + 1, res.jac)]
    if kind in ("act_invariant", "act_ext"):
        return [_bump_invariant(P, res)]
    if kind in ("compose_ext", "ext_inverse"):
        return [P.ExtendedTransformation(res.rho, bump(P, res.basic), res.ref_det)
                for bump in (_bump_basic, _shift_torsion)]
    if kind == "stabilizer_xi":
        bumped = dict(res, total=res["total"] + 1)
        return [_shift_root(res), bumped]
    if kind.startswith("is_generic"):
        ok, wall = res
        out = [(not ok, wall)]
        if wall is not None:
            out.append((ok, P.WallDatum(wall.subrank, wall.subsets, wall.value + 1)))
        return out
    if kind == "chamber_fingerprint":
        return [P.ChamberFingerprint((res.floors[0] + 1,) + res.floors[1:])]
    if kind.startswith("same_chamber"):
        return [not res]
    if kind == "stabilizer_d_alpha_quotient":
        return [res[:-1]]
    if kind == "automorphism_group_report":
        return [dict(res, discrete_3bir=res["discrete_3bir"][1:]),
                dict(res, discrete_regular=res["discrete_regular"][:-1])]
    raise KeyError(kind)


def _json_edit(fn):
    def edit(out):
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc)
    return edit


def _bump_element(doc):
    el = doc["element"]
    (el.get("basic") or el)["line"]["degree"] += 1


def _bump_weights(w):
    name = next(iter(w))
    w[name][-1] = str(Fraction(w[name][-1]) + Fraction(1, 1000))


def _edit_text(out):
    # one more dualization acts differently on degrees and determinants
    return out.strip() + " * D-\n"


def _edit_element(out):
    return (_json_edit(_bump_element) if out.lstrip().startswith("{") else _edit_text)(out)


def _torsion_edit(P, model, out):
    """Append a tensor by an r-torsion class to the printed element, in its
    text and (JSON output) in its element alike, so that the output still
    evaluates back to itself and acts as before."""
    shift = "T(0, [1/%d%s])" % (model.rank, ", 0" * (2 * model.genus - 1))
    if not out.lstrip().startswith("{"):
        return f"{out.strip()} * {shift}\n"
    doc = json.loads(out)
    doc["text"] = f"{doc['text']} * {shift}"
    back = P.eval_expression(doc["text"], model)
    if "rho_tilde" in doc["element"]:
        doc["element"]["basic"] = back.basic.to_json()
    else:
        doc["element"] = back.to_json()
    return json.dumps(doc)


CLI_EDITS = {
    "normalize": _edit_element,
    "compose": _edit_element,
    "act.degree_det": _json_edit(lambda d: d.__setitem__("degree", d["degree"] + 1)),
    "act.weights": _json_edit(lambda d: _bump_weights(d["weights"])),
    "act.invariant": _json_edit(lambda d: d["invariant"]["det"].__setitem__(
        "degree", d["invariant"]["det"]["degree"] + 1)),
    "weights.check-generic": _json_edit(lambda d: d.__setitem__("generic", not d["generic"])),
    "weights.fingerprint": _json_edit(lambda d: d["floors"].__setitem__(0, d["floors"][0] + 1)),
    "weights.same-chamber": lambda out: "false\n" if out.strip() == "true" else "true\n",
    "weights.hecke": _json_edit(_bump_weights),
    "weights.dual": _json_edit(_bump_weights),
    "stabilizer.xi": _json_edit(lambda d: d.__setitem__("total", d["total"] + 1)),
    "stabilizer.d-alpha": _json_edit(lambda d: d["representatives"].pop()),
    "aut-report.report": _json_edit(lambda d: d["discrete_3bir"].pop(0)),
    "torelli.decide": _json_edit(lambda d: d.__setitem__("is_3birational", not d["is_3birational"])),
    "bridge.degree": _json_edit(_bump_element),
    "verify.decomposition": _json_edit(lambda d: d.__setitem__("overall", not d["overall"])),
    "error.normalize": lambda out: "id\n",
}


def cli_perturbations(P, wl, op, res):
    code, out, err = res
    edit = CLI_EDITS.get(op.kind) or CLI_EDITS[op.kind.split(".")[0]]
    wrong_code = {0: 1, 1: 0, 2: 0}[code]
    out_list = [(wrong_code, out, err), (code, edit(out), err)]
    if op.kind.split(".")[0] in ("normalize", "compose") and code == 0:
        out_list.append((code, _torsion_edit(P, wl.models[op.model], out), err))
    return out_list


def describe_inputs(P, wl, ops):
    """Seed-determined inputs of a round, with file paths replaced by the
    files' contents so that two work directories compare equal."""
    out = [json.dumps(wl.docs, sort_keys=True)]
    for op in ops:
        parts = [op.kind]
        for a in op.call.args:
            if isinstance(a, list):  # a CLI argv
                for x in a:
                    path = Path(x)
                    parts.append(path.read_text() if str(wl.workdir) in x and path.is_file() else x)
            elif isinstance(a, P.CurveModel):
                parts.append("model")
            else:
                parts.append(repr(a))
        out.append("|".join(parts))
    return out


def check_workload(name, P, make_workload):
    problems = []
    dirs = [OUT / f"selfcheck-{name}-{k}" for k in range(3)]
    try:
        wls = []
        for d, seed in zip(dirs, (11, 11, 12)):
            d.mkdir(parents=True, exist_ok=True)
            wls.append(make_workload(name, seed, P, d))
        rounds = [wl.round(0) for wl in wls]
        inputs = [describe_inputs(P, wl, ops) for wl, ops in zip(wls, rounds)]
        if inputs[0] != inputs[1]:
            problems.append("one seed gave two different sets of inputs")
        if inputs[0] == inputs[2]:
            problems.append("two seeds gave the same inputs")

        wl, ops = wls[0], rounds[0]
        rejected = 0
        for op in ops:
            try:
                res = op.call()
            except Exception as exc:  # report every failing op, then go on
                problems.append(f"{op.kind} failed: {exc!r}")
                continue
            try:
                op.check(res)
            except Exception as exc:  # noqa: BLE001  (a check that rejects a good result)
                problems.append(f"{op.kind} rejected a correct result: {exc!r}")
                continue
            if wl.spawns_processes:
                bad = cli_perturbations(P, wl, op, res)
            else:
                bad = library_perturbations(P, op.kind, res)
            for wrong in bad:
                try:
                    op.check(wrong)
                except Exception:  # noqa: BLE001  (any rejection counts)
                    rejected += 1
                else:
                    problems.append(f"{op.kind} accepted a perturbed result")
        print(f"{name}: {len(ops)} ops checked, {rejected} perturbed results rejected, "
              f"{len(problems)} problems")
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    for p in problems:
        print(f"  {p}")
    return not problems


def main():
    if not (SRC / "partrans" / "__init__.py").is_file():
        print(f"selfcheck: no partrans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partrans
    import partrans.cli  # noqa: F401
    from run import make_workload

    ok = True
    for name in ("algebra", "chambers", "cli"):
        ok = check_workload(name, partrans, make_workload) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
