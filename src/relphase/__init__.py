"""Quantum phase and angle measurement statistics for one- and two-mode fields.

The public names below load their submodule on first use (PEP 562), so
``import relphase`` imports neither numpy nor any submodule. This lets
``relphase.cli`` set up the environment numpy reads when it loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AliasingError",
        "RelphaseError",
        "SupportError",
        "TruncationError",
    ),
    "fock": (
        "PrimitiveConvention",
        "SingleModeState",
        "TwoModeState",
        "angular_grid",
        "jm_labels",
        "make_coherent_state",
        "make_number_state",
        "single_to_two_mode",
        "state_from_json",
        "state_to_json",
    ),
    "naimark": ("heterodyne_moments", "y_moments"),
    "pegg_barnett": ("kolmogorov_distance", "pb_pmf", "phase_cdf"),
    "phase": ("phase_pdf", "phase_wavefunction"),
    "polarization": (
        "LinearPolSpec",
        "XCoherent",
        "XNumber",
        "XSuperposition",
        "db_view",
        "to_circular",
    ),
    "pom": (
        "absolute_time_pdf",
        "branch_wavefunctions",
        "conditioning_probability",
        "marginal_pdf",
        "snapshot_sweep",
    ),
    "schwinger": (
        "apply_jminus",
        "apply_jplus",
        "apply_jz",
        "commutator_residuals",
        "rotate_z",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not cached in this module's namespace: each access reads the submodule's
    # current binding, so a wrapper set there (and later removed) is followed.
    if name in _EXPORTS:  # a submodule, e.g. relphase.fock
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
