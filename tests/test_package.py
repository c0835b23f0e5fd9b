"""Import-time behaviour of the package, each check in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's public names; each must resolve both ways
EXPORTS = """
AliasingError ConditioningError RelphaseError SupportError TruncationError
PrimitiveConvention SingleModeState TwoModeState evolve jm_labels make_coherent_state
make_number_state single_to_two_mode state_from_json state_to_json
YMoments QuadratureMoments commutator_check generalized_phase_pdf heterodyne_moments
y_moments
DiscretePhasePmf pb_convergence pb_pmf phase_cdf
AngularPdf PhaseWavefunction angular_grid ml_phase_pdf number_moment_spectral
paley_wiener_diagnostics phase_pdf phase_wavefunction
LinearPolSpec XCoherent XNumber XSuperposition db_view local_maxima
polarization_ellipse snapshot_sequence to_circular
BranchSet absolute_time_pdf branch_wavefunctions conditioning_probability marginal_pdf
snapshot_pdf snapshot_sweep
apply_jminus apply_jplus apply_jz commutator_residuals j_squared_eigencheck rotate_z
""".split()


def fresh(code: str, **env) -> str:
    """stdout of `python -c code` in a new interpreter that sees src/ first."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ.update(env, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.strip()


def test_import_loads_no_numpy():
    assert fresh("import sys, relphase; print('numpy' in sys.modules)") == "False"


def test_every_export_resolves_by_star_import_and_attribute():
    code = (
        "import relphase\n"
        "from relphase import *\n"
        f"names = {EXPORTS!r}\n"
        "assert sorted(relphase.__all__) == sorted(names), set(relphase.__all__) ^ set(names)\n"
        "assert set(names) <= set(dir(relphase))\n"
        "for n in names:\n"
        "    assert globals()[n] is getattr(relphase, n), n\n"
        "print(len(names))\n"
    )
    assert fresh(code) == str(len(EXPORTS))


def test_unknown_name_is_an_attribute_error():
    code = "import relphase\ntry:\n    relphase.nope\nexcept AttributeError:\n    print('ok')"
    assert fresh(code) == "ok"


@pytest.mark.parametrize("env,expected", [({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "12"}, "12")])
def test_cli_sets_the_openblas_thread_timeout_unless_set(env, expected):
    code = "import os, relphase.cli; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert fresh(code, **env) == expected


def test_cli_import_loads_neither_fractions_nor_decimal():
    """The CSV formatter builds its tables from integers, on first use."""
    code = "import sys, relphase.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert fresh(code) == "[]"
