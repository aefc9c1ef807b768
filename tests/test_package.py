"""The package's public names: each module's __all__ resolves."""

import importlib

import pytest

import gravscatter

MODULES = ["lorentz", "kinematics", "amplitudes", "qed", "cross_sections",
           "coincidence", "constants", "cli"]


@pytest.mark.parametrize("name", [None] + MODULES)
def test_all_names_resolve(name):
    module = gravscatter if name is None else importlib.import_module(f"gravscatter.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attribute in exported:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute}"

