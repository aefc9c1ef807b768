"""The package's public names: each module's __all__ resolves."""

import importlib

import pytest

import gravscatter

MODULES = ["lorentz", "kinematics", "amplitudes", "qed", "cross_sections",
           "coincidence", "constants", "verify", "cli"]


@pytest.mark.parametrize("name", [None] + MODULES)
def test_all_names_resolve(name):
    module = gravscatter if name is None else importlib.import_module(f"gravscatter.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attribute in exported:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute}"


def test_verify_is_the_module():
    """gravscatter.verify is the verify module: no public name of the package shadows it."""
    assert gravscatter.verify is importlib.import_module("gravscatter.verify")
    assert "verify" not in gravscatter.__all__
