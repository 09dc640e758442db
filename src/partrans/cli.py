"""Command line front end.

Results go to stdout, diagnostics to stderr. Exit status: 0 for success
and true verdicts, 1 for false verdicts, 2 for errors (including usage).
Structured reports print as JSON; --json switches the remaining commands
to their JSON schemas as well.
"""

import argparse
import json
import sys

from .classify import (
    ModuliDescriptor,
    bridge_transformation,
    torelli_3birational,
    verify_decomposition,
    weight_system_for,
)
from .curve import (
    _TOO_LONG,
    MAX_INT_DIGITS,
    _int,
    _int_matrix,
    _object,
    _rationals,
    _read_json,
    _string,
    load_config,
    validate_model,
)
from .dsl import eval_expression, format_canonical
from .errors import ConfigError, EnumerationCapExceeded, PartransError
from .extended import (
    ExtendedTransformation,
    act_ext,
    automorphism_group_report,
)
from .intmat import zero_matrix
from .picard import (
    DEFAULT_ENUM_CAP,
    JacobianElement,
    LineBundleClass,
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


def _document(path):
    """The JSON document in the file at path, and its location (see
    curve._where)."""
    return _read_json(_read_file(path), path), (path,)


def _load_model(path):
    model = load_config(_read_file(path), path)
    report = validate_model(model)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.errors:
        for e in report.errors:
            print(f"model error: {e}", file=sys.stderr)
        raise ConfigError(f"{path} fails model validation")
    return model


def _class(doc, dim, loc):
    """A class {"degree": int, "jac": [dim rationals]}."""
    _object(doc, ("degree", "jac"), loc, ())
    return LineBundleClass(
        _int(doc["degree"], loc + ("degree",)),
        JacobianElement(_rationals(doc["jac"], dim, loc + ("jac",))),
    )


def _class_file(model, path):
    doc, loc = _document(path)
    return _class(doc, 2 * model.genus, loc)


def _weights_file(model, path):
    return weight_system_for(model, *_document(path))


def _invariant_file(model, path):
    doc, loc = _document(path)
    _object(doc, ("rank", "det", "weights"), loc, ("label",))
    return ParabolicInvariant(
        _int(doc["rank"], loc + ("rank",)),
        _class(doc["det"], 2 * model.genus, loc + ("det",)),
        weight_system_for(model, doc["weights"], loc + ("weights",)),
        _string(doc.get("label", ""), loc + ("label",)),
    )


def _descriptor_file(model, path, cap):
    doc, loc = _document(path)
    _object(doc, ("rank", "degree", "weights"), loc, ())
    return ModuliDescriptor(
        model,
        _int(doc["rank"], loc + ("rank",)),
        _int(doc["degree"], loc + ("degree",)),
        weight_system_for(model, doc["weights"], loc + ("weights",)),
        cap,
    )


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _print(args, payload, text):
    """payload as JSON under --json, else text."""
    _emit(payload) if args.json else print(text)


def _print_element(args, x):
    text = format_canonical(x)
    _print(args, {"text": text, "element": x.to_json()}, text)
    return 0


def _weights_text(w):
    return "\n".join("%s: %s" % (name, ", ".join(texts)) for name, texts in w.to_json().items())


def _class_text(c):
    return "(%d, [%s])" % (c.degree, ", ".join(c.jac.texts()))


# -- subcommands ---------------------------------------------------------


def _cmd_normalize(args):
    return _print_element(args, eval_expression(args.expr, _load_model(args.model)))


def _cmd_compose(args):
    joined = " * ".join(f"({e})" for e in args.exprs)
    return _print_element(args, eval_expression(joined, _load_model(args.model)))


def _cmd_act(args):
    model = _load_model(args.model)
    x = eval_expression(args.expr, model)
    targets = [t for t in ("degree", "det", "weights", "invariant") if getattr(args, t) is not None]
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
        c = act_det(x, _class_file(model, args.det))
        out["det"] = c.to_json()
        t = _class_text(c)
        texts.append(f"det: {t}" if len(targets) > 1 else t)
    if args.weights is not None:
        w = act_weights(x, _weights_file(model, args.weights))
        out["weights"] = w.to_json()
        texts.append(_weights_text(w))
    if args.invariant is not None:
        v = _invariant_file(model, args.invariant)
        if isinstance(x, ExtendedTransformation):
            moved = act_ext(x, v)
        else:
            moved = act_invariant(x, v)
        out["invariant"] = moved.to_json()
        texts.append(json.dumps(moved.to_json(), indent=2))
    _print(args, out, "\n".join(texts))
    return 0


def _cmd_check_generic(args):
    w = _weights_file(_load_model(args.model), args.file)
    ok, witness = is_generic(w, args.enum_cap)
    _print(args, {"generic": ok, "witness": witness.to_json() if witness else None}, str(ok).lower())
    if witness is not None and not args.json:
        print(f"integral wall: {witness}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_fingerprint(args):
    fp = chamber_fingerprint(_weights_file(_load_model(args.model), args.file), args.enum_cap)
    _print(args, fp.to_json(), fp)
    return 0


def _cmd_same_chamber(args):
    model = _load_model(args.model)
    wa = _weights_file(model, args.file_a)
    wb = _weights_file(model, args.file_b)
    verdict = same_chamber(wa, wb, args.enum_cap)
    _print(args, {"same_chamber": verdict}, str(verdict).lower())
    return 0 if verdict else 1


def _cmd_hecke(args):
    w = hecke_weights(_weights_file(_load_model(args.model), args.file), args.point)
    _print(args, w.to_json(), _weights_text(w))
    return 0


def _cmd_dual(args):
    w = dual_weights(_weights_file(_load_model(args.model), args.file))
    _print(args, w.to_json(), _weights_text(w))
    return 0


def _cmd_stabilizer_xi(args):
    model = _load_model(args.model)
    _emit(stabilizer_xi(_class_file(model, args.xi), model, args.enum_cap))
    return 0


def _cmd_stabilizer_d_alpha(args):
    model = _load_model(args.model)
    alpha = _weights_file(model, args.weights)
    reps = stabilizer_d_alpha_quotient(args.degree, alpha, model, args.enum_cap)
    _emit(
        {
            "degree": args.degree,
            "representatives": [dict(r.to_json(), text=format_canonical(r)) for r in reps],
        }
    )
    return 0


def _cmd_aut_report(args):
    model = _load_model(args.model)
    alpha = _weights_file(model, args.weights)
    _emit(automorphism_group_report(args.degree, alpha, model, args.enum_cap))
    return 0


def _cmd_torelli(args):
    path_a = args.model_a or args.model
    if path_a is None:
        raise ConfigError("torelli needs --model or --model-a")
    model_a = _load_model(path_a)
    model_b = _load_model(args.model_b) if args.model_b else model_a
    desc_a = _descriptor_file(model_a, args.desc_a, args.enum_cap)
    desc_b = _descriptor_file(model_b, args.desc_b, args.enum_cap)
    witness, loc = _document(args.witness) if args.witness else (None, (None,))
    decision = torelli_3birational(desc_a, desc_b, witness, args.enum_cap, loc)
    for w in decision["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    _print(args, decision, str(decision["is_3birational"]).lower())
    return 0 if decision["is_3birational"] else 1


def _cmd_bridge(args):
    model = _load_model(args.model)
    return _print_element(args, bridge_transformation(model, args.d_from, args.d_to, args.point))


def _cmd_verify(args):
    model = _load_model(args.model)
    model_b = _load_model(args.model_b) if args.model_b else model
    source = _descriptor_file(model, args.source, args.enum_cap)
    target = _descriptor_file(model_b, args.target, args.enum_cap)
    transform = eval_expression(args.transform, model)
    if isinstance(transform, ExtendedTransformation):
        if args.rho is not None:
            raise ConfigError("the Jacobian part was given twice: by an A atom in --transform and by --rho")
        rho = transform.rho
        transform = transform.basic
    else:
        dim = 2 * model.genus
        rows = zero_matrix(dim) if args.rho is None else _int_matrix(
            _read_json(args.rho, "--rho"), dim, ("--rho",))
        rho = make_jac_aut(rows, model.rank)
    xi = _class_file(model, args.xi) if args.xi else None
    witness, loc = _document(args.witness) if args.witness else (None, (None,))
    report = verify_decomposition(
        source, target, witness, transform, rho, xi, args.claim, args.enum_cap, loc
    )
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    _emit(report)
    return 0 if report["overall"] else 1


# -- argument wiring -----------------------------------------------------


def _int_option(text):
    """argparse's int, refusing a literal of more than MAX_INT_DIGITS
    digits, as an expression or a JSON document does."""
    if sum(c.isdigit() for c in text) > MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(_TOO_LONG)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
            type=_int_option,
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
    p.add_argument("--degree", type=_int_option, help="integer degree to act on")
    p.add_argument("--det", help="determinant class JSON file")
    p.add_argument("--weights", help="weight system JSON file")
    p.add_argument("--invariant", help="parabolic invariant JSON file")
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("weights", help="wall-and-chamber calculus")
    wsub = p.add_subparsers(dest="weights_cmd", required=True)
    q = wsub.add_parser("check-generic")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_check_generic)
    q = wsub.add_parser("fingerprint")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_fingerprint)
    q = wsub.add_parser("same-chamber")
    common(q)
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.set_defaults(fn=_cmd_same_chamber)
    q = wsub.add_parser("hecke")
    common(q)
    q.add_argument("file")
    q.add_argument("--point", required=True)
    q.set_defaults(fn=_cmd_hecke)
    q = wsub.add_parser("dual")
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("stabilizer", help="stabilizer subgroup reports")
    ssub = p.add_subparsers(dest="stab_cmd", required=True)
    q = ssub.add_parser("xi")
    common(q)
    q.add_argument("--xi", required=True, help="determinant class JSON file")
    q.set_defaults(fn=_cmd_stabilizer_xi)
    q = ssub.add_parser("d-alpha")
    common(q)
    q.add_argument("--degree", type=_int_option, required=True)
    q.add_argument("--weights", required=True, help="weight system JSON file")
    q.set_defaults(fn=_cmd_stabilizer_d_alpha)

    p = sub.add_parser("aut-report", help="layered automorphism report")
    common(p)
    p.add_argument("--degree", type=_int_option, required=True)
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
    p.add_argument("--from", dest="d_from", type=_int_option, required=True)
    p.add_argument("--to", dest="d_to", type=_int_option, required=True)
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
