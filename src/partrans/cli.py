"""Command line front end.

Results go to stdout, diagnostics to stderr. Exit status: 0 for success
and true verdicts, 1 for false verdicts, 2 for errors (including usage).
Structured reports print as JSON; --json switches the remaining commands
to their JSON schemas as well.
"""

import argparse
import json
import sys
from fractions import Fraction

from .classify import (
    ModuliDescriptor,
    bridge_transformation,
    torelli_3birational,
    verify_decomposition,
    weight_system_for,
)
from .curve import load_config, validate_model
from .dsl import eval_expression, format_canonical
from .errors import ConfigError, EnumerationCapExceeded, PartransError
from .extended import (
    ExtendedTransformation,
    act_A,
    act_ext,
    automorphism_group_report,
    default_ref_det,
)
from .picard import (
    DEFAULT_ENUM_CAP,
    JacobianElement,
    LineBundleClass,
    frac_to_str,
    make_jac_aut,
)
from .transform import (
    BasicTransformation,
    ParabolicInvariant,
    act_degree,
    act_det,
    act_invariant,
    act_weights,
    stabilizer_d_alpha_quotient,
    stabilizer_xi,
)
from .weights import (
    chamber_fingerprint,
    dual_weights,
    hecke_weights,
    is_generic,
    same_chamber,
)


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def _read_json(path):
    text = _read_file(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def _load_model(path):
    model = load_config(_read_file(path))
    report = validate_model(model)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.errors:
        for e in report.errors:
            print(f"model error: {e}", file=sys.stderr)
        raise ConfigError(f"{path} fails model validation")
    return model


def _class_from_json(obj, dim, where):
    if not isinstance(obj, dict) or "degree" not in obj or "jac" not in obj:
        raise ConfigError(f"{where}: expected an object with 'degree' and 'jac'")
    try:
        coords = [Fraction(v) for v in obj["jac"]]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: bad jac entry ({exc})") from None
    if len(coords) != dim:
        raise ConfigError(f"{where}: jac length {len(coords)}, expected {dim}")
    return LineBundleClass(int(obj["degree"]), JacobianElement(coords))


def _weights_from_file(model, path):
    return weight_system_for(model, _read_json(path))


def _invariant_from_json(model, obj, where):
    for key in ("rank", "det", "weights"):
        if key not in obj:
            raise ConfigError(f"{where}: missing key {key!r}")
    det = _class_from_json(obj["det"], 2 * model.genus, where + ".det")
    weights = weight_system_for(model, obj["weights"])
    return ParabolicInvariant(int(obj["rank"]), det, weights, obj.get("label", ""))


def _descriptor_from_file(model, path, cap):
    obj = _read_json(path)
    for key in ("rank", "degree", "weights"):
        if key not in obj:
            raise ConfigError(f"{path}: missing key {key!r}")
    weights = weight_system_for(model, obj["weights"])
    return ModuliDescriptor(model, int(obj["rank"]), int(obj["degree"]), weights, cap)


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _weights_text(w):
    return "\n".join(
        "%s: %s" % (name, ", ".join(frac_to_str(v) for v in vec))
        for name, vec in w.entries
    )


def _class_text(c):
    return "(%d, [%s])" % (c.degree, ", ".join(c.jac.texts()))


# -- subcommands ---------------------------------------------------------


def _cmd_normalize(args):
    model = _load_model(args.model)
    x = eval_expression(args.expr, model)
    text = format_canonical(x)
    if args.json:
        _emit({"text": text, "element": x.to_json()})
    else:
        print(text)
    return 0


def _cmd_compose(args):
    model = _load_model(args.model)
    joined = " * ".join(f"({e})" for e in args.exprs)
    x = eval_expression(joined, model)
    text = format_canonical(x)
    if args.json:
        _emit({"text": text, "element": x.to_json()})
    else:
        print(text)
    return 0


def _cmd_act(args):
    model = _load_model(args.model)
    x = eval_expression(args.expr, model)
    targets = [
        t
        for t, v in (
            ("degree", args.degree),
            ("det", args.det),
            ("weights", args.weights),
            ("invariant", args.invariant),
        )
        if v is not None
    ]
    if not targets:
        raise ConfigError("act needs at least one of --degree/--det/--weights/--invariant")
    basic_needed = [t for t in targets if t != "invariant"]
    if basic_needed and not isinstance(x, BasicTransformation):
        raise ConfigError(
            "acting on %s requires a basic transformation; the Jacobian part only "
            "acts on invariants" % ", ".join(basic_needed)
        )
    out = {}
    texts = []
    if args.degree is not None:
        d = act_degree(x, args.degree)
        out["degree"] = d
        texts.append(f"degree: {d}" if len(targets) > 1 else str(d))
    if args.det is not None:
        xi = _class_from_json(_read_json(args.det), 2 * model.genus, args.det)
        c = act_det(x, xi)
        out["det"] = c.to_json()
        t = _class_text(c)
        texts.append(f"det: {t}" if len(targets) > 1 else t)
    if args.weights is not None:
        w = act_weights(x, _weights_from_file(model, args.weights))
        out["weights"] = w.to_json()
        texts.append(_weights_text(w))
    if args.invariant is not None:
        v = _invariant_from_json(model, _read_json(args.invariant), args.invariant)
        if isinstance(x, ExtendedTransformation):
            moved = act_ext(x, v)
        else:
            moved = act_invariant(x, v)
        out["invariant"] = moved.to_json()
        texts.append(json.dumps(moved.to_json(), indent=2))
    if args.json:
        _emit(out)
    else:
        print("\n".join(texts))
    return 0


def _cmd_weights(args):
    model = _load_model(args.model)
    if args.weights_cmd == "check-generic":
        w = _weights_from_file(model, args.file)
        ok, witness = is_generic(w, args.enum_cap)
        if args.json:
            _emit({"generic": ok, "witness": witness.to_json() if witness else None})
        else:
            print("true" if ok else "false")
            if witness is not None:
                print(f"integral wall: {witness}", file=sys.stderr)
        return 0 if ok else 1
    if args.weights_cmd == "fingerprint":
        w = _weights_from_file(model, args.file)
        fp = chamber_fingerprint(w, args.enum_cap)
        if args.json:
            _emit(fp.to_json())
        else:
            print(fp)
        return 0
    if args.weights_cmd == "same-chamber":
        wa = _weights_from_file(model, args.file_a)
        wb = _weights_from_file(model, args.file_b)
        verdict = same_chamber(wa, wb, args.enum_cap)
        if args.json:
            _emit({"same_chamber": verdict})
        else:
            print("true" if verdict else "false")
        return 0 if verdict else 1
    if args.weights_cmd == "hecke":
        w = hecke_weights(_weights_from_file(model, args.file), args.point)
        _emit(w.to_json()) if args.json else print(_weights_text(w))
        return 0
    if args.weights_cmd == "dual":
        w = dual_weights(_weights_from_file(model, args.file))
        _emit(w.to_json()) if args.json else print(_weights_text(w))
        return 0
    raise ConfigError(f"unknown weights subcommand {args.weights_cmd!r}")


def _cmd_stabilizer(args):
    model = _load_model(args.model)
    if args.stab_cmd == "xi":
        xi = _class_from_json(_read_json(args.xi), 2 * model.genus, args.xi)
        _emit(stabilizer_xi(xi, model, args.enum_cap))
        return 0
    if args.stab_cmd == "d-alpha":
        alpha = _weights_from_file(model, args.weights)
        reps = stabilizer_d_alpha_quotient(args.degree, alpha, model, args.enum_cap)
        _emit(
            {
                "degree": args.degree,
                "representatives": [
                    dict(r.to_json(), text=format_canonical(r)) for r in reps
                ],
            }
        )
        return 0
    raise ConfigError(f"unknown stabilizer subcommand {args.stab_cmd!r}")


def _cmd_aut_report(args):
    model = _load_model(args.model)
    alpha = _weights_from_file(model, args.weights)
    _emit(automorphism_group_report(args.degree, alpha, model, args.enum_cap))
    return 0


def _cmd_torelli(args):
    path_a = args.model_a or args.model
    if path_a is None:
        raise ConfigError("torelli needs --model or --model-a")
    model_a = _load_model(path_a)
    model_b = _load_model(args.model_b) if args.model_b else model_a
    desc_a = _descriptor_from_file(model_a, args.desc_a, args.enum_cap)
    desc_b = _descriptor_from_file(model_b, args.desc_b, args.enum_cap)
    witness = _read_json(args.witness) if args.witness else None
    decision = torelli_3birational(desc_a, desc_b, iso=witness, cap=args.enum_cap)
    for w in decision["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        _emit(decision)
    else:
        print("true" if decision["is_3birational"] else "false")
    return 0 if decision["is_3birational"] else 1


def _cmd_bridge(args):
    model = _load_model(args.model)
    t = bridge_transformation(model, args.d_from, args.d_to, args.point)
    if args.json:
        _emit({"text": format_canonical(t), "element": t.to_json()})
    else:
        print(format_canonical(t))
    return 0


def _cmd_verify(args):
    model = _load_model(args.model)
    model_b = _load_model(args.model_b) if args.model_b else model
    source = _descriptor_from_file(model, args.source, args.enum_cap)
    target = _descriptor_from_file(model_b, args.target, args.enum_cap)
    transform = eval_expression(args.transform, model)
    if isinstance(transform, ExtendedTransformation):
        rho = transform.rho
        transform = transform.basic
    elif args.rho is not None:
        try:
            rows = json.loads(args.rho)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--rho is not a JSON matrix: {exc}") from None
        rho = make_jac_aut(rows, model.rank)
    else:
        rho = make_jac_aut(
            [[0] * (2 * model.genus) for _ in range(2 * model.genus)], model.rank
        )
    if args.xi:
        xi = _class_from_json(_read_json(args.xi), 2 * model.genus, args.xi)
    else:
        xi = default_ref_det(model, source.degree)
    witness = _read_json(args.witness) if args.witness else None
    report = verify_decomposition(
        source, target, witness, transform, rho, xi, args.claim, args.enum_cap
    )
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    _emit(report)
    return 0 if report["overall"] else 1


# -- argument wiring -----------------------------------------------------


def _build_parser():
    top = argparse.ArgumentParser(
        prog="partrans",
        description="Exact group calculus for basic transformations of parabolic bundles",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, model_required=True):
        p.add_argument("--model", required=model_required, help="model JSON file")
        p.add_argument(
            "--enum-cap",
            type=int,
            default=DEFAULT_ENUM_CAP,
            help="bound on enumerated sets (default 10^6)",
        )
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("normalize", help="canonical form of an expression")
    common(p)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("compose", help="compose expressions left to right")
    common(p)
    p.add_argument("exprs", nargs="+", metavar="expr")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("act", help="apply a transformation to data")
    common(p)
    p.add_argument("expr")
    p.add_argument("--degree", type=int, help="integer degree to act on")
    p.add_argument("--det", help="determinant class JSON file")
    p.add_argument("--weights", help="weight system JSON file")
    p.add_argument("--invariant", help="parabolic invariant JSON file")
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("weights", help="wall-and-chamber calculus")
    wsub = p.add_subparsers(dest="weights_cmd", required=True)
    q = wsub.add_parser("check-generic")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_weights)
    q = wsub.add_parser("fingerprint")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_weights)
    q = wsub.add_parser("same-chamber")
    common(q)
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.set_defaults(fn=_cmd_weights)
    q = wsub.add_parser("hecke")
    common(q)
    q.add_argument("file")
    q.add_argument("--point", required=True)
    q.set_defaults(fn=_cmd_weights)
    q = wsub.add_parser("dual")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("stabilizer", help="stabilizer subgroup reports")
    ssub = p.add_subparsers(dest="stab_cmd", required=True)
    q = ssub.add_parser("xi")
    common(q)
    q.add_argument("--xi", required=True, help="determinant class JSON file")
    q.set_defaults(fn=_cmd_stabilizer)
    q = ssub.add_parser("d-alpha")
    common(q)
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--weights", required=True, help="weight system JSON file")
    q.set_defaults(fn=_cmd_stabilizer)

    p = sub.add_parser("aut-report", help="layered automorphism report")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=_cmd_aut_report)

    p = sub.add_parser("torelli", help="3-birational equivalence decision")
    common(p, model_required=False)
    p.add_argument("--model-a", help="model for the first descriptor")
    p.add_argument("--model-b", help="model for the second descriptor")
    p.add_argument("--desc-a", required=True, help="first descriptor JSON file")
    p.add_argument("--desc-b", required=True, help="second descriptor JSON file")
    p.add_argument("--witness", help="isomorphism witness JSON file")
    p.set_defaults(fn=_cmd_torelli)

    p = sub.add_parser("bridge", help="degree-moving tuple at a point")
    common(p)
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("verify", help="check a proposed map decomposition")
    common(p)
    p.add_argument("--model-b", help="model for the target descriptor")
    p.add_argument("--source", required=True, help="source descriptor JSON file")
    p.add_argument("--target", required=True, help="target descriptor JSON file")
    p.add_argument("--transform", required=True, help="transformation expression")
    p.add_argument("--rho", help="Jacobian part as a JSON integer matrix")
    p.add_argument("--xi", help="reference determinant JSON file")
    p.add_argument("--witness", help="isomorphism witness JSON file")
    p.add_argument(
        "--claim", choices=("3birational", "isomorphism"), default="3birational"
    )
    p.set_defaults(fn=_cmd_verify)

    return top


def run_command(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PartransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EnumerationCapExceeded):
            print(f"hint: --enum-cap {exc.count} or more allows this enumeration", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
