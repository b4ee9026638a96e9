"""Pseudospectral solver and verification harness for Benjamin-type
dispersive wave equations on periodic domains.

The package namespace holds the API of the README's library example, the
``benj`` command and the experiment scripts; everything else is reached
through its module (``benj.spectral``, ``benj.semidiscrete``, ...).
"""

__version__ = "0.1.0"

from .errors import ConfigError, DivergenceError, IterationError
from .harness import (
    IntegratorPolicy,
    intermediate_problem_study,
    self_convergence,
    soliton_propagation_test,
)
from .initdata import InitialDataSpec, build_field, gaussian, petviashvili
from .invariants import c_pi, e_pi, i_pi, record_invariants
from .model import ModelParams
from .snapshots import read_snapshot, write_snapshot
from .timestep import IntegratorConfig, default_dt, evolve

__all__ = [
    "ConfigError",
    "DivergenceError",
    "InitialDataSpec",
    "IntegratorConfig",
    "IntegratorPolicy",
    "IterationError",
    "ModelParams",
    "build_field",
    "c_pi",
    "default_dt",
    "e_pi",
    "evolve",
    "gaussian",
    "i_pi",
    "intermediate_problem_study",
    "petviashvili",
    "read_snapshot",
    "record_invariants",
    "self_convergence",
    "soliton_propagation_test",
    "write_snapshot",
]
