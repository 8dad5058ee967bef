"""Golden artifacts: the JSON and CSV outputs of three CLI runs, compared
field by field at stated tolerances.

The runs, on the configs in ``tests/golden``:

- ``solve`` on the 4x4x16 channel (``channel.cfg``),
- ``certify`` on the same channel at seed 0 with 100 samples,
- a 2-level Stokes ``mms`` study (``mms.cfg``).

Tolerances, by field:

- counts, flags and strings compare exactly;
- norms, fluxes, constants, MMS errors and orders at 1e-12 relative;
- the convergence history of the Picard iteration (``d_theta_norm``,
  ``beta_hat`` and the residuals ``r_momentum``, ``r_heat``) at 1e-2
  relative: its last increments are contractions of the solver's
  rounding, whose last digits move with any change of summation order.
  Every ``beta_hat`` must stay below 1 exactly.

Rewrite the golden files, after a change that is meant to move them, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from thermoduct.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "solve": (["solve", "--config", str(GOLDEN / "channel.cfg")],
              ("solve_report.json", "trace.csv")),
    "certify": (["certify", "--config", str(GOLDEN / "channel.cfg"), "--seed", "0"],
                ("certificate.json", "trace.csv")),
    "mms": (["mms", "--config", str(GOLDEN / "mms.cfg")],
            ("mms_report.json", "mms_stokes.csv")),
}
HISTORY = {"d_theta_norm", "beta_hat", "r_momentum", "r_heat"}


def run(name, out):
    args, _ = RUNS[name]
    assert main(args + ["--out", str(out)]) == 0


def read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as f:
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(f)]


def _number(text):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def mismatches(ref, got, key=None, where=""):
    """(where, ref, got) of each leaf of ``got`` outside its tolerance."""
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [(where, sorted(ref), sorted(got))]
        return [m for k in ref for m in mismatches(ref[k], got[k], k, f"{where}/{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [(where, len(ref), len(got))]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, key, f"{where}[{i}]")]
    if isinstance(ref, float) and not isinstance(got, (bool, str)):
        rel = 1e-2 if key in HISTORY else 1e-12
        return [] if math.isclose(ref, got, rel_tol=rel, abs_tol=0.0) else [(where, ref, got)]
    return [] if type(ref) is type(got) and ref == got else [(where, ref, got)]


@pytest.fixture(scope="module", params=list(RUNS))
def outputs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    run(request.param, out)
    return request.param, out


def test_artifacts_match_golden(outputs):
    name, out = outputs
    for fname in RUNS[name][1]:
        ref, got = read(GOLDEN / name / fname), read(out / fname)
        assert mismatches(ref, got) == [], fname
        if fname == "trace.csv":
            assert all(row["beta_hat"] < 1.0 for row in got)


def test_tolerance_classes():
    ref = {"n": 9, "flux": -0.5, "rows": [{"beta_hat": 0.1, "ok": True}]}
    assert mismatches(ref, {"n": 9, "flux": -0.5 * (1 + 1e-13),
                            "rows": [{"beta_hat": 0.1005, "ok": True}]}) == []
    assert [m[0] for m in mismatches(ref, {"n": 10, "flux": -0.5 * (1 + 1e-11),
                                           "rows": [{"beta_hat": 0.102, "ok": 1}]})] == [
        "/n", "/flux", "/rows[0]/beta_hat", "/rows[0]/ok"]


if __name__ == "__main__":
    for name in sys.argv[1:] or RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            run(name, Path(tmp))
            (GOLDEN / name).mkdir(exist_ok=True)
            for fname in RUNS[name][1]:
                shutil.copyfile(Path(tmp) / fname, GOLDEN / name / fname)
