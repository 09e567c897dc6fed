"""Every name a public ``__all__`` lists resolves in its module.

``benchmarks/spans.py`` wraps the functions of the layer modules by walking
their ``__all__`` with ``getattr``, so a stale entry left by a deletion
breaks a traced benchmark run as well as ``from hestonstab import *``.
"""

import importlib

import pytest

MODULES = ("hestonstab", *(f"hestonstab.{name}" for name in
                           ("grid", "operators", "linalg", "stability", "experiments", "cli")))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
