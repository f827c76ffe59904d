import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from corrsched import fixtures, simplex


@pytest.fixture(scope="session")
def two_sensor():
    spec = fixtures.two_sensor_spec()
    return spec, fixtures.two_sensor_strategies(spec)


@pytest.fixture(scope="session")
def three_sensor():
    spec = fixtures.three_sensor_spec()
    return spec, fixtures.three_sensor_strategies(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name): a list that gets the arguments of every call to corrsched's ``name``.

    The name is wrapped in every corrsched module that has it, since the
    modules import functions by name and call them through their own
    namespace.
    """

    def install(name):
        calls = []
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("corrsched") and hasattr(module, name):

                def counted(*args, original=getattr(module, name), **kwargs):
                    calls.append(args)
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def lp_paths(monkeypatch):
    """lp_paths() runs a loop body once on each path of solve_lp, yielding its suffix.

    First Python floats, then numpy arrays with SCALAR_ENTRIES patched to -1
    (an LP with no rows has n * m = 0).  On each, the other path's ``_iterate`` fails the test if an LP reaches
    it.  The suffix names the path's functions: ``_iterate`` + suffix and
    ``_pivot`` + suffix.
    """
    original = {name: getattr(simplex, name) for name in ("SCALAR_ENTRIES", "_iterate", "_iterate_floats")}

    def refuse(*args, **kwargs):
        raise AssertionError("an LP reached the other path of solve_lp")

    def paths():
        for suffix, entries, other in (
            ("_floats", original["SCALAR_ENTRIES"], "_iterate"),
            ("", -1, "_iterate_floats"),
        ):
            for name in ("_iterate", "_iterate_floats"):
                monkeypatch.setattr(simplex, name, original[name])
            monkeypatch.setattr(simplex, "SCALAR_ENTRIES", entries)
            monkeypatch.setattr(simplex, other, refuse)
            yield suffix

    return paths


@pytest.fixture
def lp_digests():
    """scripts/lp_digests.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "lp_digests.py"
    spec = importlib.util.spec_from_file_location("lp_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
