"""The benchmark's tracer binds hgam entry points by name and reads some of
their arguments and results; a rename or a changed signature here would
break it silently. perfbench/tracing.py is only loaded, never changed."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from hgam.neural import TANH, NetSpec, Network, adam_step, backward, forward

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    tracing = load_tracing()
    for mod_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"hgam.{mod_name}")
        assert callable(getattr(module, attr, None)), f"hgam.{mod_name}.{attr}"
    for mod_name, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"hgam.{mod_name}"), cls_name)
        assert meth in cls.__dict__, f"hgam.{mod_name}.{cls_name}.{meth}"


def test_gradient_signatures_the_tracer_reads():
    # the tracer takes adam_step's gradient as args[1] or kwargs["grads"]
    # and each backward result's first item as the parameter gradient
    assert list(inspect.signature(adam_step).parameters) == ["net", "grads", "lr"]
    net = Network(NetSpec({"muav": 3}, 2, TANH, embed_dim=4, head_hidden=5),
                  np.random.default_rng(0))
    tape = forward(net, np.ones((1, 2, 3)), ("muav", "muav"), 0)
    result = backward(net, tape, np.ones((1, 2)))
    assert isinstance(result, tuple) and len(result) == 2
