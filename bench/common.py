"""What every workload shares: the op record and building program objects
from the generator's plain data."""

import json
import os
import resource
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def run_child(argv, stdout, stderr):
    """Run a child with ./src on its path to completion; (seconds, exit
    code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


class Op:
    """One unit of a workload: `call` is timed, `check(result)` is not.

    `check` raises oracle.Mismatch when the result is wrong.
    """

    __slots__ = ("kind", "call", "check", "model")

    def __init__(self, kind, call, check, model=""):
        self.kind = kind
        self.call = call
        self.check = check
        self.model = model


class Workload:
    """Models fixed by the seed, ops drawn afresh for every round.

    Subclasses set `name`, fill `docs` (model name -> JSON document) and
    implement `round(idx)`, which returns the same op kinds in the same
    proportions every time.
    """

    name = ""
    spawns_processes = False  # ops run as child processes

    def __init__(self, seed, P, workdir):
        self.seed = seed
        self.P = P
        self.workdir = workdir
        self.docs = {}
        self.models = {}

    def load_models(self):
        for key, doc in self.docs.items():
            model = self.P.load_config(json.dumps(doc))
            report = self.P.validate_model(model)
            if report.errors:
                raise RuntimeError(f"generated model {key} is invalid: {report.errors}")
            self.models[key] = model

    def setup_script(self):
        """Python source a fresh interpreter runs to set up this workload."""
        return (
            "import pathlib, sys\nsys.path.insert(0, sys.argv[1])\nimport partrans\n"
            "for f in sys.argv[2:]:\n"
            "    partrans.validate_model(partrans.load_config(pathlib.Path(f).read_text()))\n"
        )

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def round(self, idx):
        raise NotImplementedError


def basic(P, model, t):
    """Program tuple from generator data (sigma, s, (deg, jac), hecke)."""
    sigma, s, (deg, jac), hecke = t
    line = P.LineBundleClass(deg, P.JacobianElement(jac))
    return P.make_basic(sigma, s, line, hecke, model)


def weight_system(P, w, rank):
    return P.WeightSystem({x: tuple(vec) for x, vec in w.items()}, rank)

