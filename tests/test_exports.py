"""Every name a module exports in ``__all__`` exists on it."""

import importlib

import pytest

MODULES = [
    "blurshift",
    "blurshift.cli",
    "blurshift.diagnostics",
    "blurshift.engine",
    "blurshift.experiments",
    "blurshift.fileio",
    "blurshift.kernels",
    "blurshift.shrinkage",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
