"""Byte-exact goldens of the wall-and-chamber commands.

Every case of CASES runs `partrans` in-process from tests/golden/walls, and
its stdout, stderr and exit code must equal the recorded ones in
tests/golden/walls/cases.json. The inputs cover ranks 3 to 6 on genus-1
models with cyclic automorphism tables: generic systems, a system moved by
a few millionths (same chamber), another chamber, systems on a wall of
subrank 1 and of the middle subrank, and runs stopped by --enum-cap. The
chamber-filtered stabilizer and the automorphism report also run at every
degree -3..3 on plain rank-3 models of 4, 5 and 6 points, a two-orbit
table and a plain rank-4 model, under a generic and a symmetric system.

To rebuild the inputs and the goldens from the code under src/:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import functools
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from partrans.cli import run_command

WALLS = Path(__file__).parent / "golden" / "walls"


def _cyclic_model(rank, names, jacs, translation):
    """Genus 1: the points `names` at `jacs`, one translation by 1/len(names)
    along the first coordinate cycling them."""
    n = len(names)
    autos = [
        {
            "name": "id" if j == 0 else f"tau{j}",
            "perm": {names[k]: names[(k + j) % n] for k in range(n)} if j else {},
            "matrix": [[1, 0], [0, 1]],
            "translation": [translation[j], "0"],
        }
        for j in range(n)
    ]
    return {
        "genus": 1,
        "rank": rank,
        "degree": 0,
        "points": [{"name": x, "jac": jac} for x, jac in zip(names, jacs)],
        "automorphisms": autos,
    }


def _plain_model(rank, n):
    """Genus 1, the trivial table: point x_k at (k/7, k^2 mod 5 / 5)."""
    return {
        "genus": 1,
        "rank": rank,
        "degree": 0,
        "points": [{"name": f"x{k}", "jac": [f"{k}/7", f"{k * k % 5}/5"]} for k in range(n)],
    }


def _two_orbit_model(rank):
    """Genus 1, an order-2 translation by 1/2 along the first coordinate
    swapping the points of each of two orbits."""
    names = [["a0", "a1"], ["b0", "b1"]]
    return {
        "genus": 1,
        "rank": rank,
        "degree": 0,
        "points": [{"name": names[o][k], "jac": [f"{k}/2", f"{o}/3"]} for o in range(2) for k in range(2)],
        "automorphisms": [
            {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
            {"name": "tau", "perm": {"a0": "a1", "a1": "a0", "b0": "b1", "b1": "b0"},
             "matrix": [[1, 0], [0, 1]], "translation": ["1/2", "0"]},
        ],
    }


def _generic(names, rank):
    """Point k on (0, k + 3, 3k + 10, 7k + 24)[:rank] over the k-th prime
    from 97: no wall is integral, as no point's wall entries vanish mod
    its prime."""
    primes = [97, 101, 103, 107, 109, 113, 127]
    return {x: ["0"] + [f"{a}/{p}" for a in (k + 3, 3 * k + 10, 7 * k + 24)[:rank - 1]]
            for k, (x, p) in enumerate(zip(names, primes))}


def _symmetric(names, rank, same):
    """The first `same` points on (0, 3, 10, 24)[:rank] over 101, which
    keeps every wall off the integers; the next two on
    (0, 1/r, ..., (r - 1)/r), which Hecke steps and the dual keep; the
    rest on one row over 7."""
    row = ["0"] + [f"{j}/{rank}" for j in range(1, rank)]
    first = ["0"] + [f"{a}/101" for a in (3, 10, 24)[:rank - 1]]
    vecs = {x: first for x in names[:same]}
    vecs.update({x: row for x in names[same:same + 2]})
    vecs.update({x: ["0"] + [f"{a}/7" for a in (1, 5, 6)[:rank - 1]] for x in names[same + 2:]})
    return vecs


def _nearby(vecs, num=1, den=1000003):
    """Every entry but the first moved up by num / den."""
    return {x: [v if not k else str(Fraction(v) + Fraction(num, den)) for k, v in enumerate(vec)]
            for x, vec in vecs.items()}


_R3 = {"p": ["0", "2/7", "5/11"], "q": ["0", "1/13", "7/17"], "s": ["0", "3/19", "10/23"]}
_R4 = {"c0": ["0", "2/7", "5/11", "12/13"], "c1": ["0", "1/17", "7/19", "15/23"]}
_R5 = {"c0": ["0", "2/7", "5/11", "9/13", "16/17"], "c1": ["0", "1/19", "7/23", "15/29", "30/31"]}
_R6 = {"c0": ["0", "2/7", "5/11", "9/13", "11/13", "16/17"],
       "c1": ["0", "1/19", "7/23", "15/29", "20/29", "30/31"]}

# input file name -> document
INPUTS = {
    # the three-point cyclic test model (conftest.model_cyclic3)
    "model_r3.json": _cyclic_model(3, ["p", "q", "s"], [["0", "0"], ["2/3", "0"], ["1/3", "0"]],
                                   ["0", "1/3", "2/3"]),
    # conftest.model_cyclic(1, 2, rank) at ranks 4, 5 and 6
    **{f"model_r{r}.json": _cyclic_model(r, ["c0", "c1"], [["0", "1/3"], ["1/2", "1/3"]], ["0", "1/2"])
       for r in (4, 5, 6)},
    "r3_a.json": _R3,
    "r3_near.json": _nearby(_R3),
    "r3_other.json": {"p": ["0", "3/7", "6/11"], "q": ["0", "5/13", "11/17"], "s": ["0", "1/19", "20/23"]},
    "r3_wall.json": {"p": ["0", "5/7", "6/7"], "q": ["0", "1/5", "3/5"], "s": ["0", "3/7", "6/7"]},
    "r4_a.json": _R4,
    "r4_near.json": _nearby(_R4, 2),
    "r4_other.json": {"c0": ["0", "1/7", "8/11", "10/13"], "c1": ["0", "5/17", "8/19", "21/23"]},
    "r4_wall.json": {"c0": ["0", "1/10", "3/5", "7/10"], "c1": ["0", "2/9", "2/3", "7/9"]},
    "r4_wall2.json": {"c0": ["0", "1/7", "2/7", "6/7"], "c1": ["0", "5/9", "2/3", "8/9"]},
    "r5_a.json": _R5,
    "r5_near.json": _nearby(_R5, 3),
    "r5_other.json": {"c0": ["0", "3/7", "5/11", "11/13", "15/17"], "c1": ["0", "2/19", "9/23", "13/29", "20/31"]},
    "r5_wall.json": {"c0": ["0", "1/9", "2/3", "7/9", "8/9"], "c1": ["0", "1/7", "2/7", "3/7", "6/7"]},
    "r5_wall2.json": {"c0": ["0", "1/7", "2/7", "3/7", "6/7"], "c1": ["0", "1/12", "1/6", "5/12", "5/6"]},
    # the same vector at both points: tau1 keeps the chamber
    "r5_sym.json": {x: ["0", "10/143", "311/1001", "575/1001", "739/1001"] for x in ("c0", "c1")},
    "r6_a.json": _R6,
    "r6_near.json": _nearby(_R6),
    "r6_other.json": {"c0": ["0", "1/7", "3/11", "8/13", "10/13", "15/17"],
                      "c1": ["0", "2/19", "5/23", "16/29", "21/29", "29/31"]},
    "r6_wall.json": {"c0": ["0", "1/6", "1/3", "1/2", "2/3", "5/6"], "c1": ["0", "1/7", "2/7", "3/7", "4/7", "5/7"]},
    "r6_wall2.json": {"c0": ["0", "1/12", "1/6", "5/12", "7/12", "5/6"],
                      "c1": ["0", "1/12", "1/4", "1/3", "1/2", "7/12"]},
}

# the chamber-filtered stabilizer and the automorphism report at every
# degree -3..3: model file -> weights files
FILTER_INPUTS = {
    **{f"model_r3n{n}.json": _plain_model(3, n) for n in (4, 5, 6)},
    "model_r3c2x2.json": _two_orbit_model(3),
    "model_r4n3.json": _plain_model(4, 3),
}
for _name, _doc in list(FILTER_INPUTS.items()):
    _names, _rank = [p["name"] for p in _doc["points"]], _doc["rank"]
    _stem = _name[len("model_"):-len(".json")]
    FILTER_INPUTS[f"{_stem}_a.json"] = _generic(_names, _rank)
    FILTER_INPUTS[f"{_stem}_sym.json"] = _symmetric(_names, _rank, 2 if "c2" in _stem else 1)
INPUTS.update(FILTER_INPUTS)
FILTERED = [(name, [w for w in FILTER_INPUTS if w.startswith(name[len("model_"):-len(".json")] + "_")])
            for name in FILTER_INPUTS if name.startswith("model_")]


def _cases():
    out = []
    for r in (3, 4, 5, 6):
        model = ["--model", f"model_r{r}.json"]
        walls = [f"r{r}_wall.json"] + ([f"r{r}_wall2.json"] if f"r{r}_wall2.json" in INPUTS else [])
        a, near, other = f"r{r}_a.json", f"r{r}_near.json", f"r{r}_other.json"
        for json_flag in ([], ["--json"]):
            for f in [a, *walls]:
                out.append(["weights", "check-generic", *model, *json_flag, f])
                out.append(["weights", "fingerprint", *model, *json_flag, f])
            for pair in ((a, near), (near, a), (a, other), (other, a), (a, walls[0]), (walls[-1], a),
                         (walls[-1], walls[-1])):
                out.append(["weights", "same-chamber", *model, *json_flag, *pair])
        out.append(["weights", "fingerprint", *model, "--enum-cap", "10", a])
        out.append(["weights", "same-chamber", *model, "--enum-cap", "10", a, near])
        if r == 6:
            continue
        for d in ("0", "1", "-2"):
            out.append(["stabilizer", "d-alpha", *model, "--degree", d, "--weights", a])
        sym = f"r{r}_sym.json"
        if sym in INPUTS:
            for d in ("0", "1"):
                out.append(["stabilizer", "d-alpha", *model, "--degree", d, "--weights", sym])
            out.append(["aut-report", *model, "--json", "--degree", "0", "--weights", sym])
        out.append(["stabilizer", "d-alpha", *model, "--degree", "0", "--weights", walls[-1]])
        out.append(["aut-report", *model, "--json", "--degree", "0", "--weights", a])
        out.append(["aut-report", *model, "--json", "--degree", "1", "--weights", near])
        out.append(["aut-report", *model, "--json", "--degree", "0", "--weights", walls[0]])
        # past the Hecke-tuple count, then past the wall count only
        out.append(["stabilizer", "d-alpha", *model, "--enum-cap", "5", "--degree", "0", "--weights", a])
        out.append(["aut-report", *model, "--json", "--enum-cap", "30", "--degree", "0", "--weights", a])
    for model, weights in FILTERED:
        for d in range(-3, 4):
            for w in weights:
                out.append(["stabilizer", "d-alpha", "--model", model, "--degree", str(d), "--weights", w])
                out.append(["aut-report", "--model", model, "--json", "--degree", str(d), "--weights", w])
    return out


CASES = _cases()


# a longer stdout, such as a report listing hundreds of sectors, is
# recorded as its SHA-256
MAX_RECORDED = 16384


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_command(list(argv))
    stdout = out.getvalue()
    if len(stdout) > MAX_RECORDED:
        stdout = "sha256:" + hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return {"argv": list(argv), "exit": rc, "stdout": stdout, "stderr": err.getvalue()}


@functools.lru_cache(maxsize=None)
def _recorded():
    return json.loads((WALLS / "cases.json").read_text(encoding="utf-8"))


def test_inputs_are_the_recorded_ones():
    for name, doc in INPUTS.items():
        assert json.loads((WALLS / name).read_text(encoding="utf-8")) == doc, name


def test_cases_cover_every_exit_code():
    recorded = _recorded()
    assert [c["argv"] for c in recorded] == CASES
    assert {c["exit"] for c in recorded} == {0, 1, 2}
    assert any("EnumerationCapExceeded" in c["stderr"] or "--enum-cap" in c["stderr"] for c in recorded)


@pytest.mark.parametrize("case", range(len(CASES)), ids=lambda k: " ".join(CASES[k]))
def test_wall_commands_match_their_goldens(case, monkeypatch):
    monkeypatch.chdir(WALLS)
    want = _recorded()[case]
    assert _run(want["argv"]) == want


if __name__ == "__main__":
    import os

    WALLS.mkdir(parents=True, exist_ok=True)
    for name, doc in INPUTS.items():
        (WALLS / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.chdir(WALLS)
    got = [_run(argv) for argv in CASES]
    (WALLS / "cases.json").write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
    print(f"{len(got)} cases, exits {sorted({c['exit'] for c in got})}", file=sys.stderr)
