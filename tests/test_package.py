"""The package's public surface is each layer's ``__all__``, republished."""

import qbracket
from qbracket import analytic, core, errors, harness, polygon, solver

LAYERS = (errors, core, analytic, polygon, solver, harness)

PUBLIC = [
    "Assertion", "CertificationFailure", "ContextMismatch", "DomainError",
    "FixedPointRecord", "LiftFailure", "NewtonPolygon", "PadicError",
    "PadicNumber", "PrecisionExhausted", "PrimeContext", "SUITE_IDS",
    "SolveOutcome", "SuiteReport", "TruncatedSeries", "ZeroAtPrecision",
    "a_poly", "cocycle_check", "ctx_new", "digit_sum", "equals_to_precision",
    "exp", "factorial_valuation", "fixed_points_for_q", "hensel_lift", "in_S",
    "local_Q", "log1p", "m0_for_x", "multiplicity_from_c1", "multiplicity_of",
    "phi1_contains", "phi2_contains", "polygon_build", "q_bracket", "q_for_x",
    "q_pow", "reports_to_json", "root_valuations", "run_all", "run_suite",
    "sample", "series1", "series2", "unit_disk_zero_count",
]


def test_public_names_are_unchanged():
    assert qbracket.__all__ == PUBLIC


def test_public_names_are_the_layers_lists():
    names = [n for layer in LAYERS for n in layer.__all__]
    assert len(names) == len(set(names))  # no name in two layers
    assert qbracket.__all__ == sorted(names)


def test_public_names_are_the_layers_objects():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(qbracket, name) is getattr(layer, name)


def test_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from qbracket import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == PUBLIC
