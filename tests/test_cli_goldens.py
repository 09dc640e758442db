"""Byte-exact goldens of the wall-and-chamber commands.

Every case of CASES runs `partrans` in-process from tests/golden/walls, and
its stdout, stderr and exit code must equal the recorded ones in
tests/golden/walls/cases.json. The inputs cover ranks 3 to 6 on genus-1
models with cyclic automorphism tables: generic systems, a system moved by
a few millionths (same chamber), another chamber, systems on a wall of
subrank 1 and of the middle subrank, and runs stopped by --enum-cap.

To rebuild the inputs and the goldens from the code under src/:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import functools
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
    return out


CASES = _cases()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_command(list(argv))
    return {"argv": list(argv), "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


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
