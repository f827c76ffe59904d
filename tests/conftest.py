import sys

import numpy as np
import pytest

from corrsched import fixtures


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
