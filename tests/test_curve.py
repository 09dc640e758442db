import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from partrans import JacobianElement, curve, load_config, point_class, pullback, validate_model
from partrans.intmat import identity_matrix, mat_mul
from partrans.errors import (
    ConfigError,
    DimensionMismatch,
    ModelError,
    UnknownAutomorphism,
    UnknownPoint,
)

from conftest import (
    build_model,
    model_cyclic,
    model_cyclic3,
    model_elliptic2,
    model_involution,
    model_order4,
    model_rotation,
    model_worked6,
)


def doc(**over):
    base = {
        "genus": 1,
        "rank": 2,
        "degree": 0,
        "points": [
            {"name": "p", "jac": ["0", "0"]},
            {"name": "q", "jac": ["1/2", "0"]},
        ],
    }
    base.update(over)
    return json.dumps(base)


def test_load_happy_path():
    m = load_config(doc())
    assert m.genus == 1 and m.rank == 2 and m.degree_context == 0
    assert m.point_names == ("p", "q")
    assert m.identity_name == "id"
    c = point_class(m, "q")
    assert c.degree == 1
    assert str(c.jac.coords[0]) == "1/2"


def test_load_rejects_floats():
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "p", "jac": [0.5, 0]}]))


def test_load_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        load_config(json.dumps({"genus": 0, "rank": 2}))
    with pytest.raises(ConfigError):
        load_config(json.dumps({"genus": 1, "rank": 1}))
    with pytest.raises(DimensionMismatch):
        load_config(doc(points=[{"name": "p", "jac": ["0"]}]))
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "p", "jac": ["0", "0"]}, {"name": "p", "jac": ["0", "0"]}]))
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "not a name", "jac": ["0", "0"]}]))
    with pytest.raises(ConfigError):
        load_config("not json")
    with pytest.raises(ConfigError):
        load_config("[1, 2]")


def test_load_rejects_bad_automorphisms():
    idauto = {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]}
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "perm": {"p": "p", "q": "p"}}]))
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "matrix": [[2, 0], [0, 1]]}]))
    with pytest.raises(DimensionMismatch):
        load_config(doc(automorphisms=[idauto, {"name": "a", "matrix": [[1]]}]))
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "perm": {"p": "zz"}}]))
    with pytest.raises(ConfigError):
        load_config(doc(endomorphisms="field"))


def test_load_refuses_unknown_keys():
    """A record refuses the first key it does not read, naming source,
    path and key; the name maps (perm) take any point name."""
    idauto = {"name": "id"}
    tau = {"name": "tau", "perm": {"p": "q", "q": "p"}}
    cases = {
        "m.json: unknown key 'bogus'": doc(bogus=1),
        "m.json: automorphisms[1]: unknown key 'tranlsation'": doc(
            automorphisms=[idauto, dict(tau, tranlsation=["1/2", "0"])]),
        "m.json: automorphisms[1]: unknown key 'points'": doc(
            automorphisms=[idauto, {"name": "tau", "points": {"p": "q", "q": "p"}}]),
        "m.json: points[0]: unknown key 'lable'": doc(
            points=[{"name": "p", "jac": ["0", "0"], "lable": "x"}]),
    }
    for message, text in cases.items():
        with pytest.raises(ConfigError) as err:
            load_config(text, "m.json")
        assert str(err.value) == message
    m = load_config(doc(automorphisms=[idauto, dict(tau, translation=["1/2", "0"])]))
    assert m.automorphism("tau").point_perm == {"p": "q", "q": "p"}


def test_implicit_identity_when_table_empty():
    m = load_config(doc(automorphisms=[]))
    assert [a.name for a in m.automorphisms] == ["id"]
    assert validate_model(m).ok


def test_unknown_lookups_raise():
    m = model_elliptic2()
    with pytest.raises(UnknownPoint):
        m.point("zz")
    with pytest.raises(UnknownAutomorphism):
        m.automorphism("zz")


def test_validate_accepts_fixture_models():
    for m in (
        model_elliptic2(),
        model_worked6(),
        model_involution(),
        model_cyclic3(),
        model_order4(),
    ):
        report = validate_model(m)
        assert report.ok, report.errors
    report = validate_model(model_worked6())
    assert report.ok and not report.warnings


def test_validate_reads_a_point_left_out_of_a_perm_as_fixed():
    """A model built in code may leave fixed points out of a perm, as every
    reader of point_perm allows; its report is that of the model listing
    them, errors included."""
    zero = JacobianElement.zero(2)
    third = JacobianElement(["1/3", "0"])
    neg = [[-1, 0], [0, -1]]
    for jac, autos in (
        (zero, [("id", identity_matrix(2))]),
        (third, [("id", identity_matrix(2)), ("neg", neg)]),
    ):
        reports = []
        for perm in ({}, {"p": "p"}):
            m = curve.CurveModel(1, 2, 0, [curve.MarkedPoint("p", jac)],
                                 [curve.CurveAutomorphism(n, perm, a, zero) for n, a in autos])
            reports.append(validate_model(m).to_json())
        assert reports[0] == reports[1]
    assert reports[0]["errors"] == [
        "pullback of neg sends the class of p to ['2/3', '0'] instead of the class of p"
    ]


def test_validate_warns_small_genus():
    report = validate_model(model_elliptic2())
    assert any("genus 1" in w for w in report.warnings)


def test_validate_flags_unclosed_table():
    # iota without the identity present: table has no identity and iota*iota missing
    autos = [
        {
            "name": "iota",
            "perm": {"p": "q", "q": "p"},
            "matrix": [[-1, 0], [0, -1]],
            "translation": ["1/2", "0"],
        }
    ]
    m = load_config(doc(automorphisms=autos))
    report = validate_model(m)
    assert not report.ok
    assert any("no identity" in e for e in report.errors)
    assert any("not closed" in e for e in report.errors)


def test_missing_identity_raises_when_read():
    # loading succeeds; only reading the identity's name fails
    autos = [{"name": "iota", "perm": {"p": "q", "q": "p"}, "matrix": [[-1, 0], [0, -1]]}]
    m = load_config(doc(automorphisms=autos))
    with pytest.raises(ModelError, match="automorphism table has no identity entry"):
        m.identity_name


def test_validate_flags_pullback_mismatch():
    # iota's translation broken: classes no longer map to the permuted points
    autos = [
        {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
        {
            "name": "iota",
            "perm": {"p": "q", "q": "p"},
            "matrix": [[-1, 0], [0, -1]],
            "translation": ["0", "0"],
        },
    ]
    m = load_config(doc(automorphisms=autos))
    report = validate_model(m)
    assert any("pullback" in e for e in report.errors)


def test_compose_autos_cyclic_table():
    m = model_cyclic3()
    assert m.compose_autos("tau", "tau") == "tau2"
    assert m.compose_autos("tau", "tau2") == "id"
    assert m.compose_autos("id", "tau") == "tau"
    assert m.inverse_auto("tau") == "tau2"
    assert m.inverse_auto("id") == "id"


def test_compose_autos_matrix_table():
    m = model_order4()
    assert m.compose_autos("r1", "r1") == "r2"
    assert m.compose_autos("r1", "r3") == "id"
    assert m.compose_autos("r2", "r2") == "id"
    assert m.inverse_auto("r1") == "r3"


def test_no_points_model_loads():
    m = build_model(1, 3, [])
    assert m.point_names == ()
    assert validate_model(m).ok


# -- the linear-scan table arithmetic as an oracle -----------------------


def scan_composed_data(m, outer, inner):
    """Composite table data with the translation summed on Fractions."""
    perm = {x: inner.point_perm.get(outer.point_perm.get(x, x), outer.point_perm.get(x, x))
            for x in m.point_names}
    matrix = tuple(tuple(row) for row in mat_mul(outer.matrix, inner.matrix))
    moved = [sum(Fraction(a) * t for a, t in zip(row, inner.translation.coords))
             for row in outer.matrix]
    translation = JacobianElement(a + b for a, b in zip(moved, outer.translation.coords))
    return perm, matrix, translation


def scan_is_identity(m, perm, matrix, translation):
    return (
        all(perm.get(x, x) == x for x in m.point_names)
        and matrix == tuple(tuple(row) for row in identity_matrix(2 * m.genus))
        and translation.is_zero()
    )


def scan_find_entry(m, perm, matrix, translation):
    for a in m.automorphisms:
        if (
            all(a.point_perm.get(x, x) == perm.get(x, x) for x in m.point_names)
            and a.matrix == matrix
            and a.translation == translation
        ):
            return a
    return None


def scan_identity_name(m):
    for a in m.automorphisms:
        if scan_is_identity(m, a.point_perm, a.matrix, a.translation):
            return a.name
    raise ModelError("automorphism table has no identity entry")


def scan_compose_autos(m, outer_name, inner_name):
    outer = m.automorphism(outer_name)
    inner = m.automorphism(inner_name)
    entry = scan_find_entry(m, *scan_composed_data(m, outer, inner))
    if entry is None:
        raise ModelError(
            f"automorphism table is not closed: {outer_name} composed with {inner_name}"
        )
    return entry.name


def scan_inverse_auto(m, name):
    a = m.automorphism(name)
    for b in m.automorphisms:
        if scan_is_identity(m, *scan_composed_data(m, a, b)):
            return b.name
    raise ModelError(f"automorphism {name!r} has no inverse in the table")


def scan_validate_errors(m):
    """validate_model's error list with every pair composed and scanned."""
    errors = []
    if not any(scan_is_identity(m, a.point_perm, a.matrix, a.translation)
               for a in m.automorphisms):
        errors.append("automorphism table has no identity entry")
    for a in m.automorphisms:
        for b in m.automorphisms:
            if scan_find_entry(m, *scan_composed_data(m, a, b)) is None:
                errors.append(f"table not closed: composition of {a.name} with {b.name} is missing")
    for a in m.automorphisms:
        if not any(scan_is_identity(m, *scan_composed_data(m, a, b)) for b in m.automorphisms):
            errors.append(f"automorphism {a.name} has no inverse in the table")
    for a in m.automorphisms:
        inv_perm = a.perm_inverse()
        for x in m.point_names:
            got = pullback(a, m.point_class(x))
            if got != m.point_class(inv_perm[x]):
                errors.append(
                    f"pullback of {a.name} sends the class of {x} to "
                    f"{got.jac.to_json()} instead of the class of {inv_perm[x]}"
                )
    return errors


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ModelError as exc:
        return "error", str(exc)


def assert_table_matches_scan(m):
    names = [a.name for a in m.automorphisms]
    assert outcome(lambda: m.identity_name) == outcome(scan_identity_name, m)
    for a in names:
        assert outcome(m.inverse_auto, a) == outcome(scan_inverse_auto, m, a)
        for b in names:
            assert outcome(m.compose_autos, a, b) == outcome(scan_compose_autos, m, a, b)
            data = scan_composed_data(m, m.automorphism(a), m.automorphism(b))
            assert m.find_entry(*data) is scan_find_entry(m, *data)
    assert validate_model(m).errors == scan_validate_errors(m)


def golden(name):
    return load_config((Path(__file__).parent / "golden" / name).read_text())


def table_doc(model, keep=None):
    """The model's configuration; with `keep`, a list of (new name, old
    name), only those table entries, renamed, in that order."""
    autos = {a.name: a for a in model.automorphisms}
    if keep is None:
        keep = [(name, name) for name in autos]
    return doc(
        genus=model.genus,
        rank=model.rank,
        points=[{"name": p.name, "jac": p.jac_class.to_json()} for p in model.points],
        automorphisms=[
            {
                "name": new,
                "perm": autos[old].point_perm,
                "matrix": [list(r) for r in autos[old].matrix],
                "translation": autos[old].translation.to_json(),
            }
            for new, old in keep
        ],
    )


def test_cayley_table_matches_linear_scan():
    for m in (
        golden("model_g1.json"),
        golden("model_g6.json"),
        model_involution(),
        model_cyclic3(),
        model_order4(),
        model_cyclic(2, 4, rank=3),
        model_cyclic(6, 6),
        model_rotation(2, 3),
        model_rotation(1, 4),
        model_rotation(3, 6),
    ):
        assert validate_model(m).ok
        assert_table_matches_scan(m)


def test_cayley_table_matches_scan_on_broken_tables():
    cyc4 = model_cyclic(1, 4)
    # not closed: tau2 is missing, so tau1 and tau3 compose outside the table
    unclosed = load_config(table_doc(cyc4, [(n, n) for n in ("id", "tau1", "tau3")]))
    # no identity entry: inverses are still found structurally
    no_id = load_config(table_doc(cyc4, [(n, n) for n in ("tau1", "tau2", "tau3")]))
    # structurally equal entries: the first in table order wins
    dup = load_config(table_doc(cyc4, [("id", "id"), ("tau1", "tau1"), ("e", "id"),
                                       ("tau2", "tau2"), ("t1", "tau1"), ("tau3", "tau3")]))
    for m in (unclosed, no_id, dup):
        assert_table_matches_scan(m)
    assert not validate_model(unclosed).ok
    assert unclosed.inverse_auto("tau1") == "tau3"
    with pytest.raises(ModelError, match="not closed: tau1 composed with tau1"):
        unclosed.compose_autos("tau1", "tau1")
    assert no_id.inverse_auto("tau1") == "tau3"
    assert no_id.inverse_auto("tau2") == "tau2"
    assert "automorphism table has no identity entry" in validate_model(no_id).errors
    assert dup.compose_autos("t1", "e") == "tau1"
    assert dup.compose_autos("tau3", "tau1") == "id"
    assert dup.inverse_auto("tau3") == "tau1"
    assert dup.inverse_auto("e") == "id"
    assert validate_model(dup).ok


def test_implicit_identity_loads_without_a_product(monkeypatch):
    rotation = table_doc(model_rotation(1, 4))
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return mat_mul(a, b)

    monkeypatch.setattr(curve, "mat_mul", counting)
    # the identity composed with itself was a 640 x 640 product
    m = load_config(doc(genus=320, points=[]))
    assert calls == []
    assert m.identity_name == m.compose_autos("id", "id") == m.inverse_auto("id") == "id"
    assert validate_model(m).ok
    # of the 16 pairs of an order-4 rotation table, the 9 without the
    # identity entry are multiplied
    load_config(rotation)
    assert calls == [2] * 9


def test_identity_factors_keep_the_tables():
    """composed_data leaves out the product where a factor's matrix is the
    identity; the Cayley and inverse tables are those of a product for
    every pair."""
    for m in (
        golden("model_g1.json"),
        golden("model_g6.json"),
        model_cyclic3(),
        model_cyclic(2, 4, rank=3),
        model_rotation(2, 3),
        model_rotation(1, 4),
        model_rotation(3, 6),
    ):
        compose = [[m.find_entry(*scan_composed_data(m, a, b)) for b in m.automorphisms]
                   for a in m.automorphisms]
        inverse = [next((b for b in m.automorphisms if scan_is_identity(m, *scan_composed_data(m, a, b))), None)
                   for a in m.automorphisms]
        assert m._compose == compose
        assert m._inverse == inverse
        for a in m.automorphisms:
            for b in m.automorphisms:
                assert m.composed_data(a, b)[1] == scan_composed_data(m, a, b)[1]


def test_load_and_validate_order12_genus6_table_is_fast():
    text = table_doc(model_cyclic(6, 12))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        report = validate_model(load_config(text))
        best = min(best, time.perf_counter() - start)
    assert report.ok
    assert best < 0.2
