"""Which record types are dataclasses and which are NamedTuples.

Building a dataclass generates and compiles its methods when the module
is imported, a NamedTuple far less, so the solver's internal records are
NamedTuples. Only types that need a dataclass feature stay dataclasses:
__post_init__ validation, dataclasses.replace/fields/asdict in callers,
or a cached_property built on first use.
"""

import json
import os
import subprocess
import sys

import pytest

import curvsqp.classify as classify
import curvsqp.curvature as curvature
import curvsqp.factor as factor
import curvsqp.merit as merit
import curvsqp.model as model
import curvsqp.problemfile as problemfile
import curvsqp.qpstep as qpstep
import curvsqp.workset as workset

DATACLASSES = {
    "curvsqp.api.IterationRecord",
    "curvsqp.api.SolveResult",
    "curvsqp.api.SolverConfig",
    "curvsqp.model.NlpProblem",
    "curvsqp.problemfile.Polynomial",
}

RECORDS = [
    (classify.Measures, ("eta", "omega_first", "curv_ratio", "omega", "phi_S", "phi_L")),
    (classify.FilterState, ("tau", "phi_S_max", "phi_L_max", "mu_R", "y_E")),
    (curvature.CurvatureDirection,
     ("exists", "u_hat", "w_hat", "curvature_B", "rayleigh", "rho", "pivot_indices")),
    (curvature.ScaledStep, ("u", "w", "beta")),
    (factor.KktSystem, ("mu", "K", "n_free", "m", "norm_max", "h_scale")),
    (factor.PivotBlock, ("values", "tag", "offset")),
    (factor.Stage1Factor, ("kkt", "perm", "A", "S", "n_piv", "ptype", "psize")),
    (factor.Convexification, ("delta", "shifted_rows")),
    (merit.MeritState, ("y_E", "mu", "nu", "eta_S", "alpha_min")),
    (merit.LineSearchResult,
     ("alpha", "accepted", "ev", "merit_new", "n_trials", "bound_rejections")),
    (model.Iterate, ("x", "y")),
    (model.Evaluation, ("f", "c", "g", "J", "H", "h_scale")),
    (model.DerivativeReport, ("gradient_error", "jacobian_error", "hessian_error", "step")),
    (qpstep.QpStep, ("p", "z", "model_decrease", "active", "iterations")),
    (workset.WorkingSet, ("active", "free")),
    (problemfile.ParsedProblem, ("problem", "x0", "y0", "config")),
]

# run in a fresh interpreter, where only `import curvsqp` has run
_LIST_DATACLASSES = """
import dataclasses, json, sys
import curvsqp
found = sorted(
    f"{name}.{obj.__name__}"
    for name, mod in list(sys.modules.items())
    if name == "curvsqp" or name.startswith("curvsqp.")
    for obj in vars(mod).values()
    if isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)
)
print(json.dumps(found))
"""


def test_import_builds_only_the_listed_dataclasses():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _LIST_DATACLASSES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert set(json.loads(out)) == DATACLASSES


@pytest.mark.parametrize("cls, names", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_internal_records_are_immutable_named_tuples(cls, names):
    assert issubclass(cls, tuple)
    assert cls._fields == names
    record = cls(**dict.fromkeys(names))
    with pytest.raises(AttributeError):
        setattr(record, names[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0
