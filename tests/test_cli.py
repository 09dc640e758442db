"""End-to-end command line behavior through run_command."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from partrans.cli import run_command
from partrans.dsl import MAX_INT_DIGITS, MAX_NESTING, MAX_POWER_WORK


def _write(dirpath, name, payload):
    path = dirpath / name
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    out = {}
    out["g1"] = _write(
        d,
        "g1.json",
        {
            "genus": 1,
            "rank": 2,
            "degree": 0,
            "points": [
                {"name": "p", "jac": ["0", "0"]},
                {"name": "q", "jac": ["1/2", "0"]},
            ],
        },
    )
    out["g6"] = _write(
        d,
        "g6.json",
        {
            "genus": 6,
            "rank": 2,
            "degree": 0,
            "points": [
                {"name": "p", "jac": ["0"] * 12},
                {"name": "q", "jac": ["1/2"] + ["0"] * 11},
            ],
        },
    )
    out["cyc"] = _write(
        d,
        "cyc.json",
        {
            "genus": 1,
            "rank": 3,
            "degree": 1,
            "points": [
                {"name": f"c{k}", "jac": [str(Fraction(-k, 3) % 1), "1/3"]} for k in range(3)
            ],
            "automorphisms": [
                {
                    "name": "id" if j == 0 else f"tau{j}",
                    "perm": {f"c{k}": f"c{(k + j) % 3}" for k in range(3)},
                    "matrix": [[1, 0], [0, 1]],
                    "translation": [str(Fraction(j, 3)), "0"],
                }
                for j in range(3)
            ],
        },
    )
    out["bad_json"] = _write(d, "bad.json", "{not json")
    out["unclosed"] = _write(
        d,
        "unclosed.json",
        {
            "genus": 1,
            "rank": 2,
            "degree": 0,
            "points": [{"name": "p", "jac": ["0", "0"]}],
            "automorphisms": [
                {
                    "name": "id",
                    "perm": {},
                    "matrix": [[1, 0], [0, 1]],
                    "translation": ["0", "0"],
                },
                {
                    "name": "tau",
                    "perm": {},
                    "matrix": [[1, 0], [0, 1]],
                    "translation": ["1/3", "0"],
                },
            ],
        },
    )
    out["wa"] = _write(d, "wa.json", {"p": ["0", "1/3"], "q": ["0", "1/4"]})
    out["wb"] = _write(d, "wb.json", {"p": ["0", "1/3"], "q": ["0", "1/5"]})
    out["wswap"] = _write(d, "wswap.json", {"p": ["0", "1/4"], "q": ["0", "1/3"]})
    out["wall"] = _write(d, "wall.json", {"p": ["0", "1/2"], "q": ["0", "1/2"]})
    out["xi0_g6"] = _write(d, "xi0_g6.json", {"degree": 0, "jac": ["0"] * 12})
    out["det_g1"] = _write(d, "det_g1.json", {"degree": 1, "jac": ["1/2", "0"]})
    out["inv_g1"] = _write(
        d,
        "inv_g1.json",
        {
            "rank": 2,
            "det": {"degree": 0, "jac": ["1/5", "0"]},
            "weights": {"p": ["0", "1/3"], "q": ["0", "1/4"]},
        },
    )
    out["desc_a"] = _write(
        d, "desc_a.json", {"rank": 2, "degree": 0, "weights": {"p": ["0", "1/3"], "q": ["0", "1/4"]}}
    )
    out["desc_b"] = _write(
        d, "desc_b.json", {"rank": 2, "degree": 3, "weights": {"p": ["0", "1/3"], "q": ["0", "1/5"]}}
    )
    out["desc_r3"] = _write(
        d,
        "desc_r3.json",
        {
            "rank": 3,
            "degree": 0,
            "weights": {"p": ["0", "1/7", "2/7"], "q": ["0", "1/11", "5/11"]},
        },
    )
    return out


def run(capsys, *argv):
    rc = run_command(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# -- expression commands -------------------------------------------------


def test_normalize_worked_square(files, capsys):
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], "H(p) * H(p)")
    assert rc == 0
    assert out == "T(O(-1*p))\n"
    assert "error" not in err


def test_normalize_json_shape(files, capsys):
    rc, out, _ = run(
        capsys, "normalize", "--model", files["g1"], "--json", "D- * D-"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["text"] == "id"
    assert doc["element"]["s"] == 1


def test_compose_multiple(files, capsys):
    rc, out, _ = run(
        capsys, "compose", "--model", files["g1"], "D-", "T(O(q))", "D-"
    )
    assert rc == 0
    assert out == "T(O(-1*q))\n"


def test_parse_error_exits_2(files, capsys):
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], "Q(p)")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") or "error:" in err


def test_zero_denominator_exits_2_at_the_denominator(files, capsys):
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], "T(0, [1/0, 0])")
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: at position 8: zero denominator"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(" * 3000 + "id" + ")" * 3000, "parentheses nested deeper than the limit of 100"),
        ("id^" + "9" * 5000, "integer literal of 5000 digits exceeds the limit of 1000"),
        ("H(" + "1" * 4400 + "*p)", "integer literal of 4400 digits exceeds the limit of 1000"),
    ],
)
def test_parse_limits_exit_2_without_traceback(files, capsys, expr, message):
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], expr)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


def test_result_limit_exits_2_without_traceback(files, capsys):
    # before the limit, squaring this Jacobian part ran for seconds and then
    # failed to print an entry of more than 4300 digits
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], "A[[0,1],[1,2]]^" + "9" * 20)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert "evaluation built an integer of more than 4000 digits" in err


def test_power_work_limit_exits_2_within_two_seconds(capsys):
    # a dense nilpotent Jacobian part: its entries grow only linearly, so
    # the digit limit never fires, and 10^999 took 3322 squarings and 49 s
    row = "[" + ",".join(["1", "-1"] * 6) + "]"
    expr = "A[" + ",".join([row] * 12) + "]^1" + "0" * 999
    golden = Path(__file__).parent / "golden" / "model_g6.json"
    start = time.perf_counter()
    rc, out, err = run(capsys, "normalize", "--model", str(golden), expr)
    assert time.perf_counter() - start < 2.0
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"powers would take more than {MAX_POWER_WORK} products of 64-bit words" in err


# expressions from the grammar in partrans.dsl over one of the g1, g6 and
# cyc models: mostly its own names, vector lengths and Jacobian parts, some
# unknown or misshapen; integer literals are small or within one digit of
# MAX_INT_DIGITS
_MODELS = {
    # points, automorphisms, 2g, matrices M with id + rM unimodular
    "g1": (("p", "q"), ("id",), 2, ("[[0,1],[1,2]]", "[[-1,0],[0,-1]]", "[[0,1],[0,0]]")),
    "g6": (("p", "q"), ("id",), 12, (
        "[" + ",".join("[" + ",".join("1" if (i, j) == (0, 1) else "0" for j in range(12)) + "]"
                       for i in range(12)) + "]",
    )),
    "cyc": (("c0", "c1", "c2"), ("id", "tau1", "tau2"), 2, ("[[0,1],[1,3]]", "[[0,1],[0,0]]")),
}
_int = st.integers(0, 40).flatmap(
    # one literal in 41 of each length MAX_INT_DIGITS - 1, MAX_INT_DIGITS and
    # MAX_INT_DIGITS + 1, the others below 13
    lambda k: st.integers(0, 12).map(str) if k < 38 else st.integers(1, 9).map(
        lambda lead: str(lead) + "7" * (MAX_INT_DIGITS + k - 40))
)
_signed = st.builds(str.__add__, st.sampled_from(("", "-")), _int)
_rational = st.one_of(_signed, st.builds(lambda a, b: f"{a}/{b}", _signed, _int))


def _expressions(points, autos, dim, matrices):
    name = st.sampled_from(points * 7 + ("zz",))
    term = st.builds(lambda c, x: x if c is None else f"{c}*{x}", st.none() | _int, name)
    divisor = st.builds(
        lambda first, rest: first + "".join(f" {sign} {t}" for sign, t in rest),
        term,
        st.lists(st.tuples(st.sampled_from("+-"), term), max_size=3),
    )
    vector = st.sampled_from((dim,) * 7 + tuple(range(1, 14))).flatmap(
        lambda n: st.lists(_rational, min_size=n, max_size=n).map(
            lambda v: "[" + ", ".join(v) + "]")
    )
    matrix = st.one_of(
        st.sampled_from(matrices),
        st.lists(st.lists(_signed, min_size=2, max_size=2), min_size=2, max_size=2).map(
            lambda rows: "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"
        ),
    )
    primary = st.one_of(
        st.just("id"),
        st.just("D-"),
        st.sampled_from(autos + ("nope",)).map(lambda a: f"S({a})"),
        divisor.map(lambda dv: f"T(O({dv}))"),
        st.builds(lambda d, v: f"T({d}, {v})", _signed, vector),
        divisor.map(lambda dv: f"H({dv})"),
        matrix.map(lambda m: f"A{m}"),
    )
    expr = st.recursive(
        primary,
        lambda inner: st.one_of(
            inner.map(lambda e: f"({e})"),
            st.builds(lambda e, n: f"({e})^{n}", inner, _signed),
            st.lists(inner, min_size=2, max_size=4).map(" * ".join),
        ),
        max_leaves=8,
    )
    nested = st.builds(
        lambda depth, e: "(" * depth + e + ")" * depth,
        st.sampled_from((MAX_NESTING - 4, MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING + 1)),
        expr,
    )
    one = st.integers(0, 5).flatmap(lambda k: nested if k == 5 else expr)
    return st.lists(one, min_size=1, max_size=3)


_cases = st.sampled_from(sorted(_MODELS)).flatmap(
    lambda m: st.tuples(st.just(m), _expressions(*_MODELS[m]))
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases, as_json=st.booleans())
def test_expression_commands_fuzz(files, case, as_json):
    """normalize and compose on grammar-drawn expressions: exit 0 or 2,
    output only on 0, no traceback, and each call within 2 s."""
    model, exprs = case
    cmd = ["normalize", "--model", files[model], exprs[0]] if len(exprs) == 1 else [
        "compose", "--model", files[model], *exprs]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_command(cmd + ["--json"] * as_json)
    elapsed = time.perf_counter() - start
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (rc == 0) == (out.getvalue() != "")
    assert elapsed < 2.0, cmd


def test_usage_error_raises_system_exit(files):
    with pytest.raises(SystemExit) as exc:
        run_command(["normalize"])  # missing --model and expr
    assert exc.value.code == 2


# an integer option holds at most MAX_INT_DIGITS digits, as a JSON integer
# and an expression literal do: a degree of 4300 nines made act fail with
# a ValueError traceback and bridge print a 4300-digit line
_INT_OPTIONS = {
    "act --degree": ["act", "--model", "{g1}", "T(1, [0, 0])", "--degree", "{n}"],
    "stabilizer d-alpha --degree": ["stabilizer", "d-alpha", "--model", "{g1}", "--degree", "{n}", "--weights", "{wa}"],
    "aut-report --degree": ["aut-report", "--model", "{g1}", "--degree", "{n}", "--weights", "{wa}"],
    "bridge --from": ["bridge", "--model", "{g1}", "--from", "{n}", "--to", "0", "--point", "p"],
    "bridge --to": ["bridge", "--model", "{g1}", "--from", "0", "--to", "{n}", "--point", "p"],
}


@pytest.mark.parametrize("case", sorted(_INT_OPTIONS))
def test_integer_options_refuse_more_than_max_int_digits(files, capsys, case):
    """Past the limit (4300 nines, and one digit over it) the option is a
    usage error naming the limit: exit 2, nothing on stdout, no traceback.
    At the limit it is read, and a malformed one keeps argparse's text."""
    def argv(n):
        return [a.format(n=n, **files) for a in _INT_OPTIONS[case]]

    for n in ("9" * 4300, "-" + "9" * (MAX_INT_DIGITS + 1)):
        with pytest.raises(SystemExit) as exc:
            run_command(argv(n))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "Traceback" not in err
        assert f"integer of more than {MAX_INT_DIGITS} digits" in err
    rc, out, err = run(capsys, *argv("-" + "9" * MAX_INT_DIGITS))
    assert rc == 0 and out and "Traceback" not in err
    with pytest.raises(SystemExit):
        run_command(argv("1e3"))
    assert "invalid int value: '1e3'" in capsys.readouterr().err


# -- act -----------------------------------------------------------------


def test_act_degree(files, capsys):
    rc, out, _ = run(
        capsys, "act", "--model", files["g1"], "D-", "--degree", "3"
    )
    assert rc == 0
    assert out.strip() == "-3"


def test_act_det(files, capsys):
    rc, out, _ = run(
        capsys, "act", "--model", files["g1"], "H(q)", "--det", files["det_g1"]
    )
    assert rc == 0
    # (1, [1/2, 0]) loses the class of q: degree 0, torsion cancels
    assert out.strip() == "(0, [0, 0])"


def test_act_weights(files, capsys):
    rc, out, _ = run(
        capsys, "act", "--model", files["g1"], "H(q)", "--weights", files["wa"]
    )
    assert rc == 0
    assert out == "p: 0, 1/3\nq: 0, 3/4\n"


def test_act_invariant_with_jacobian_part(files, capsys):
    rc, out, _ = run(
        capsys,
        "act",
        "--model",
        files["g1"],
        "--json",
        "A[[-1,0],[0,-1]]",
        "--invariant",
        files["inv_g1"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["invariant"]["det"]["jac"] == ["4/5", "0"]


def test_act_extended_on_degree_rejected(files, capsys):
    rc, out, err = run(
        capsys,
        "act",
        "--model",
        files["g1"],
        "A[[-1,0],[0,-1]]",
        "--degree",
        "0",
    )
    assert rc == 2
    assert "basic transformation" in err


def test_act_needs_a_target(files, capsys):
    rc, _, err = run(capsys, "act", "--model", files["g1"], "id")
    assert rc == 2
    assert "error:" in err


# -- weights -------------------------------------------------------------


def test_weights_check_generic(files, capsys):
    rc, out, _ = run(
        capsys, "weights", "check-generic", "--model", files["g1"], files["wa"]
    )
    assert rc == 0 and out == "true\n"
    rc, out, err = run(
        capsys, "weights", "check-generic", "--model", files["g1"], files["wall"]
    )
    assert rc == 1 and out == "false\n"
    assert "integral wall" in err


def test_weights_fingerprint(files, capsys):
    rc, out, _ = run(
        capsys, "weights", "fingerprint", "--model", files["g1"], "--json", files["wa"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["floors"] == [0, 0, -1, -1]


def test_weights_same_chamber(files, capsys):
    rc, out, _ = run(
        capsys,
        "weights",
        "same-chamber",
        "--model",
        files["g1"],
        files["wa"],
        files["wb"],
    )
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(
        capsys,
        "weights",
        "same-chamber",
        "--model",
        files["g1"],
        files["wa"],
        files["wswap"],
    )
    assert rc == 1 and out == "false\n"


def test_weights_hecke_and_dual(files, capsys):
    rc, out, _ = run(
        capsys, "weights", "hecke", "--model", files["g1"], files["wa"], "--point", "q"
    )
    assert rc == 0
    assert out == "p: 0, 1/3\nq: 0, 3/4\n"
    rc, out, _ = run(capsys, "weights", "dual", "--model", files["g1"], files["wa"])
    assert rc == 0
    assert out == "p: 0, 1/3\nq: 0, 1/4\n"


def test_weights_cap_exceeded(files, capsys):
    rc, _, err = run(
        capsys,
        "weights",
        "fingerprint",
        "--model",
        files["g1"],
        "--enum-cap",
        "1",
        files["wa"],
    )
    assert rc == 2
    assert "error:" in err
    rc, out, err = run(
        capsys,
        "weights",
        "same-chamber",
        "--model",
        files["g1"],
        "--enum-cap",
        "3",
        files["wa"],
        files["wb"],
    )
    assert rc == 2 and out == ""
    assert "enumeration of 4 elements exceeds cap 3" in err


def test_cap_error_names_the_enumeration_and_hints(files, capsys):
    rc, out, err = run(
        capsys, "weights", "same-chamber", "--model", files["g1"], "--enum-cap", "3",
        files["wa"], files["wb"],
    )
    assert rc == 2 and out == ""
    assert "error: enumeration of 4 elements exceeds cap 3 (walls)\n" in err
    assert err.endswith("hint: --enum-cap 4 or more allows this enumeration\n")


# -- stabilizers and reports ---------------------------------------------

def test_stabilizer_xi_json(files, capsys):
    rc, out, err = run(
        capsys, "stabilizer", "xi", "--model", files["g6"], "--xi", files["xi0_g6"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 16384
    assert len(doc["sectors"]) == 4
    assert err == ""  # genus 6 passes validation silently


def test_stabilizer_d_alpha_json(files, capsys):
    rc, out, _ = run(
        capsys,
        "stabilizer",
        "d-alpha",
        "--model",
        files["g6"],
        "--degree",
        "0",
        "--weights",
        files["wb"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert [r["text"] for r in doc["representatives"]] == ["id", "D-"]


def test_aut_report_json(files, capsys):
    rc, out, _ = run(
        capsys,
        "aut-report",
        "--model",
        files["g6"],
        "--degree",
        "0",
        "--weights",
        files["wb"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert [e["text"] for e in doc["discrete_regular"]] == ["id", "D-"]
    assert doc["jacobian_layer"]["genus"] == 6


def test_weights_of_another_rank_exit_2(files, tmp_path, capsys):
    model = _write(tmp_path, "r3.json", {
        "genus": 1,
        "rank": 3,
        "degree": 0,
        "points": [{"name": "p", "jac": ["0", "0"]}, {"name": "q", "jac": ["1/3", "0"]}],
    })
    for argv in (("stabilizer", "d-alpha"), ("aut-report",)):
        rc, out, err = run(
            capsys, *argv, "--model", model, "--degree", "0", "--weights", files["wb"]
        )
        assert (rc, out) == (2, "")
        assert err.endswith("\nerror: weights rank 2 does not match model rank 3\n")


# -- decisions -----------------------------------------------------------


def test_torelli_true_with_warnings(files, capsys):
    rc, out, err = run(
        capsys,
        "torelli",
        "--model",
        files["g1"],
        "--desc-a",
        files["desc_a"],
        "--desc-b",
        files["desc_b"],
    )
    assert rc == 0
    assert out == "true\n"
    assert err.count("genus 1 < 4") == 2


def test_torelli_rank_mismatch_false(files, capsys):
    rc, out, _ = run(
        capsys,
        "torelli",
        "--model",
        files["g1"],
        "--desc-a",
        files["desc_a"],
        "--desc-b",
        files["desc_r3"],
        "--json",
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["is_3birational"] is False
    assert doc["rank_equal"] is False


def test_bridge_golden_text(files, capsys):
    rc, out, _ = run(
        capsys,
        "bridge",
        "--model",
        files["g1"],
        "--from",
        "0",
        "--to",
        "1",
        "--point",
        "p",
    )
    assert rc == 0
    assert out == "T(O(1*p)) * H(1*p)\n"


def test_verify_identity_pass(files, capsys):
    rc, out, _ = run(
        capsys,
        "verify",
        "--model",
        files["g1"],
        "--source",
        files["desc_a"],
        "--target",
        files["desc_a"],
        "--transform",
        "id",
        "--claim",
        "isomorphism",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert doc["transform"] == "id"


def test_verify_degree_fail(files, capsys):
    rc, out, _ = run(
        capsys,
        "verify",
        "--model",
        files["g1"],
        "--source",
        files["desc_a"],
        "--target",
        files["desc_b"],
        "--transform",
        "id",
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["overall"] is False


def test_verify_bridge_pass(files, capsys):
    rc, out, _ = run(
        capsys,
        "verify",
        "--model",
        files["g1"],
        "--source",
        files["desc_a"],
        "--target",
        files["desc_b"],
        "--transform",
        "T(O(2*p)) * H(1*p)",
        "--claim",
        "3birational",
    )
    assert rc == 0
    assert json.loads(out)["overall"] is True


# -- error surfaces ------------------------------------------------------


def test_missing_model_file(files, capsys):
    rc, out, err = run(capsys, "normalize", "--model", "/nonexistent.json", "id")
    assert rc == 2
    assert out == ""
    assert "cannot read" in err


def test_invalid_model_json(files, capsys):
    rc, _, err = run(capsys, "normalize", "--model", files["bad_json"], "id")
    assert rc == 2
    assert "invalid JSON" in err


def test_model_failing_validation(files, capsys):
    rc, _, err = run(capsys, "normalize", "--model", files["unclosed"], "id")
    assert rc == 2
    assert "model error:" in err
    assert "fails model validation" in err


def test_warnings_go_to_stderr_only(files, capsys):
    rc, out, err = run(capsys, "normalize", "--model", files["g1"], "id")
    assert rc == 0
    assert out == "id\n"
    assert "warning" in err and "genus" in err


def test_output_is_deterministic(files, capsys):
    args = (
        "stabilizer",
        "xi",
        "--model",
        files["g6"],
        "--xi",
        files["xi0_g6"],
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# -- malformed JSON inputs -----------------------------------------------

_W = {"p": ["0", "1/3"], "q": ["0", "1/4"]}
_DESC = {"rank": 2, "degree": 0, "weights": _W}
_WITNESS = {"points": {"p": "p", "q": "q"}}
_MODEL = {"genus": 1, "rank": 2,
          "points": [{"name": "p", "jac": ["0", "0"]}, {"name": "q", "jac": ["1/2", "0"]}]}
_TAU = {"name": "tau", "perm": {"p": "q", "q": "p"}}


def _act(flag):
    return ["act", "--model", "{model}", "id", flag, "{f}"]


def _torelli(flag="--witness"):
    return ["torelli", "--model", "{model}", "--desc-a", "{desc}", "--desc-b", "{desc}", flag, "{f}"]


def _verify(*rest):
    return ["verify", "--model", "{model}", "--source", "{desc}", "--target", "{desc}",
            "--transform", "id", *rest]


_DUAL = ["weights", "dual", "--model", "{model}", "{f}"]
_G1_AUTOS = {"automorphisms": [{"name": "id"}, {"name": "tau", "perm": {"p": ["p"]}}]}

# case -> (argv, with {f} for the damaged document's file, {desc} for a
# good descriptor and {model} for the model; the damaged document, None
# for none; the start of the location the error must name, its file
# written as f.json). Each of these ended in a traceback, or went through
# misread, before the JSON readers.
_MALFORMED = {
    "weights file that is a list": (_DUAL, [["0", "1/3"]], "f.json: expected an object"),
    "weight entry abc": (_DUAL, {"p": ["0", "abc"], "q": ["0", "1/4"]}, "f.json: p[1]:"),
    "det degree x": (_act("--det"), {"degree": "x", "jac": ["0", "0"]}, "f.json: degree:"),
    "det jac a string": (_act("--det"), {"degree": 0, "jac": "01"}, "f.json: jac:"),
    "det jac entry a float": (_act("--det"), {"degree": 0, "jac": [0.5, "0"]}, "f.json: jac[0]:"),
    "descriptor rank two": (_torelli("--desc-a"), dict(_DESC, rank="two"), "f.json: rank:"),
    "descriptor degree a float": (_torelli("--desc-a"), dict(_DESC, degree=0.5), "f.json: degree:"),
    "descriptor a string": (_torelli("--desc-a"), "desc", "f.json: expected an object"),
    "invariant rank x": (
        _act("--invariant"), {"rank": "x", "det": {"degree": 0, "jac": ["0", "0"]}, "weights": _W},
        "f.json: rank:"),
    "witness translation abc (torelli)": (
        _torelli(), dict(_WITNESS, translation=["abc", "0"]), "f.json: translation[0]:"),
    "witness translation abc (verify)": (
        _verify("--witness", "{f}"), dict(_WITNESS, translation=["abc", "0"]), "f.json: translation[0]:"),
    "witness matrix entry a": (
        _torelli(), dict(_WITNESS, matrix=[["a", 0], [0, 1]]), "f.json: matrix[0][0]:"),
    "witness without points": (_torelli(), {"matrix": [[1, 0], [0, 1]]}, "f.json: missing key 'points'"),
    "witness a list": (_torelli(), [1], "f.json: expected an object"),
    "witness points an int": (_torelli(), {"points": 5}, "f.json: points:"),
    "rho not a matrix": (_verify("--rho", "[1]"), None, "--rho: expected 2 rows"),
    "rho entry a": (_verify("--rho", '[["a", 0], [0, 0]]'), None, "--rho: [0][0]:"),
    "rho entry a float": (_verify("--rho", "[[1.5, 0], [0, 0]]"), None, "--rho: [0][0]:"),
    "model perm value a list": (
        ["normalize", "--model", "{f}", "id"], _G1_AUTOS, "f.json: automorphisms[1].perm.p:"),
    # a key no record reads: a misspelt "translation" would read as zero
    "model key bogus": (["normalize", "--model", "{f}", "id"], dict(_MODEL, bogus=1),
                        "f.json: unknown key 'bogus'"),
    "model automorphism tranlsation": (
        ["normalize", "--model", "{f}", "id"],
        dict(_MODEL, automorphisms=[{"name": "id"}, dict(_TAU, tranlsation=["1/2", "0"])]),
        "f.json: automorphisms[1]: unknown key 'tranlsation'"),
    "model point lable": (
        ["normalize", "--model", "{f}", "id"],
        dict(_MODEL, points=[{"name": "p", "jac": ["0", "0"], "lable": "p"}]),
        "f.json: points[0]: unknown key 'lable'"),
    "det key deg": (_act("--det"), {"degree": 0, "jac": ["0", "0"], "deg": 1}, "f.json: unknown key 'deg'"),
    "invariant lable": (
        _act("--invariant"), {"rank": 2, "det": {"degree": 0, "jac": ["0", "0"]}, "weights": _W, "lable": "v"},
        "f.json: unknown key 'lable'"),
    "descriptor key bogus": (_torelli("--desc-a"), dict(_DESC, bogus=1), "f.json: unknown key 'bogus'"),
    "witness tranlsation (torelli)": (
        _torelli(), dict(_WITNESS, tranlsation=["1/2", "0"]), "f.json: unknown key 'tranlsation'"),
    "witness tranlsation (verify)": (
        _verify("--witness", "{f}"), dict(_WITNESS, tranlsation=["1/2", "0"]), "f.json: unknown key 'tranlsation'"),
    # a rational is [+-]digits or [+-]digits/digits, each part and each
    # integer of at most MAX_INT_DIGITS digits: an exponent string took
    # seconds to read, or overflowed when written back, as did an integer
    # of 4300 digits
    "det jac entry 1e10000000": (
        _act("--det"), {"degree": 0, "jac": ["1e10000000", "0"]}, "f.json: jac[0]: malformed rational"),
    "det jac entry 1e-1000000": (
        _act("--det"), {"degree": 0, "jac": ["1e-1000000", "0"]}, "f.json: jac[0]: malformed rational"),
    "det degree of 4300 digits": (
        ["act", "--model", "{model}", "T(1, [0, 0])", "--det", "{f}"],
        {"degree": int("9" * 4300), "jac": ["0", "0"]}, "f.json: degree: integer of more than"),
    "weight entry 0.5": (_DUAL, {"p": ["0", "0.5"], "q": ["0", "1/4"]}, "f.json: p[1]: malformed rational"),
    "weight entry over the digit limit": (
        _DUAL, {"p": ["0", "1/" + "3" * (MAX_INT_DIGITS + 1)], "q": ["0", "1/4"]},
        "f.json: p[1]: integer of more than"),
}

# the cases that took seconds, or failed, before the rational reader was
# bounded: each must now be refused within a second
_ONCE_SLOW = {"det jac entry 1e10000000", "det jac entry 1e-1000000", "det degree of 4300 digits"}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_input_exits_2_naming_file_and_field(files, tmp_path, capsys, case):
    argv, doc, where = _MALFORMED[case]
    if doc is _G1_AUTOS:
        doc = dict(json.loads(open(files["g1"]).read()), **doc)
    paths = {"desc": _write(tmp_path, "desc.json", _DESC), "model": files["g1"],
             "f": _write(tmp_path, "f.json", json.dumps(doc))}
    start = time.perf_counter()
    rc, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert case not in _ONCE_SLOW or time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1].replace(str(tmp_path) + "/", "").startswith("error: " + where)


def test_verify_refuses_rho_beside_an_a_atom(files, tmp_path, capsys):
    """An A atom in --transform and --rho each give the Jacobian part: both
    at once are refused, where --rho alone is checked and the atom alone
    is taken."""
    desc = _write(tmp_path, "desc.json", _DESC)
    argv = ["verify", "--model", files["g1"], "--source", desc, "--target", desc]
    rc, out, err = run(capsys, *argv, "--transform", "A[[0,1],[0,0]]", "--rho", "[[5, 5], [5, 5]]")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        "error: the Jacobian part was given twice: by an A atom in --transform and by --rho")
    rc, out, err = run(capsys, *argv, "--transform", "id", "--rho", "[[5, 5], [5, 5]]")
    assert (rc, out) == (2, "")
    assert "determinant 21" in err
    rc, out, _ = run(capsys, *argv, "--transform", "A[[0,1],[0,0]]")
    assert rc == 0
    assert json.loads(out)["rho_tilde"] == [[0, 1], [0, 0]]


# JSON-input fuzz: one document of a command, or its model, damaged at one
# drawn place: a value replaced by a float, a bool, null, a string, a list
# or an object of the wrong kind, a key deleted, an array made one longer
# or shorter (a matrix row too, which makes it non-square)
_DOCS = {
    "model": {"genus": 1, "rank": 2, "degree": 0,
              "points": [{"name": "p", "jac": ["0", "0"]}, {"name": "q", "jac": ["1/2", "0"]}],
              "automorphisms": [{"name": "id", "perm": {"p": "p", "q": "q"},
                                 "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]}]},
    "w": _W,
    "xi": {"degree": 0, "jac": ["0", "1/2"]},
    "inv": {"rank": 2, "det": {"degree": 0, "jac": ["1/5", "0"]}, "weights": _W, "label": "v"},
    "desc": _DESC,
    "wit": dict(_WITNESS, matrix=[[1, 0], [0, 1]], translation=["0", "0"]),
    "rho": [[0, 1], [0, 0]],
}
_COMMANDS = [
    ["act", "H(q)", "--det", "{xi}", "--weights", "{w}", "--invariant", "{inv}"],
    ["weights", "check-generic", "{w}"],
    ["weights", "fingerprint", "{w}"],
    ["weights", "same-chamber", "{w}", "{w}"],
    ["weights", "hecke", "{w}", "--point", "q"],
    ["weights", "dual", "{w}"],
    ["stabilizer", "xi", "--xi", "{xi}"],
    ["stabilizer", "d-alpha", "--degree", "0", "--weights", "{w}"],
    ["aut-report", "--degree", "0", "--weights", "{w}"],
    ["torelli", "--desc-a", "{desc}", "--desc-b", "{desc}", "--witness", "{wit}"],
    ["verify", "--source", "{desc}", "--target", "{desc}", "--transform", "D- * D-",
     "--rho", "{rho}", "--xi", "{xi}", "--witness", "{wit}", "--claim", "isomorphism"],
]
_JUNK = [0.5, -1e3, float("nan"), float("inf"), True, False, None, "abc", "01", "1/0", "", 7, -3,
         10**30, [], {}, [[1]], ["0"], {"p": "q"}]


def _places(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _places(v, path + (k,))


def _damaged(doc, path, how, junk):
    doc = json.loads(json.dumps(doc))
    if not path:
        return junk
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    value = parent[last]
    if how == "delete" and isinstance(parent, dict):
        del parent[last]
    elif how == "longer" and isinstance(value, list):
        value.append(value[0] if value else junk)
    elif how == "shorter" and isinstance(value, list) and value:
        value.pop()
    else:
        parent[last] = junk
    return doc


@st.composite
def _damaged_commands(draw):
    cmd = draw(st.sampled_from(_COMMANDS))
    names = ["model"] + [n for n in _DOCS if any("{%s}" % n in a for a in cmd)]
    name = draw(st.sampled_from(names))
    doc = _DOCS[name]
    path = draw(st.sampled_from(list(_places(doc))))
    how = draw(st.sampled_from(("replace", "delete", "longer", "shorter")))
    return cmd, name, _damaged(doc, path, how, draw(st.sampled_from(_JUNK)))


_VERDICTS = {("weights", "check-generic"), ("weights", "same-chamber"), ("torelli",), ("verify",)}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_damaged_commands(), as_json=st.booleans())
def test_json_input_fuzz(fuzz_dir, case, as_json):
    """act, weights, stabilizer, aut-report, torelli and verify with one
    damaged JSON document: exit 0, 1 only for a false verdict, or 2 with
    nothing on stdout; no traceback, and each call within 2 s."""
    cmd, name, damaged = case
    docs = dict(_DOCS, **{name: damaged})
    paths = {n: _write(fuzz_dir, f"{n}.json", json.dumps(d)) for n, d in docs.items() if n != "rho"}
    paths["rho"] = json.dumps(docs["rho"])
    argv = [a.format(**paths) for a in cmd]
    sub = 2 if argv[0] in ("weights", "stabilizer") else 1
    argv[sub:sub] = ["--model", paths["model"], "--enum-cap", "1000"] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_command(argv)
    elapsed = time.perf_counter() - start
    assert rc in (0, 1, 2), err.getvalue()
    assert rc != 1 or tuple(argv[:sub]) in _VERDICTS, argv
    assert (rc == 2) == (out.getvalue() == ""), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert elapsed < 2.0, argv
