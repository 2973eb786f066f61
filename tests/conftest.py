import importlib
import pkgutil

import pytest

import grauert
import grauert.flow


@pytest.fixture
def kernel_calls(monkeypatch):
    """The lanes of each flow_lanes call from here on, in call order.

    Every flow is a lane of flow_lanes, and flow() is a one-lane call of it;
    the counter replaces it in every grauert module that holds it.
    """
    real_flow_lanes = grauert.flow.flow_lanes
    calls = []

    def counted(model, points, *args, **kwargs):
        calls.append(len(points))
        return real_flow_lanes(model, points, *args, **kwargs)

    for info in pkgutil.iter_modules(grauert.__path__, "grauert."):
        module = importlib.import_module(info.name)
        if getattr(module, "flow_lanes", None) is real_flow_lanes:
            monkeypatch.setattr(module, "flow_lanes", counted)
    return calls
