"""The program names and return shapes the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps public functions of ``rainreplay`` by module and
attribute name, and ``perfbench/workloads.py`` unpacks what the two
loss-and-gradient functions return. A rename or a changed return shape makes
every benchmark pass fail, so these tests catch it where the change is made.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rainreplay import restorer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _, _ in tracing.BINDINGS])
def test_every_traced_binding_resolves(module_name, attr):
    module = importlib.import_module(f"rainreplay.{module_name}")
    assert callable(getattr(module, attr, None)), f"rainreplay.{module_name}.{attr}"


def test_every_probe_is_a_binding():
    bound = {f"{m}.{a}" for m, a, _, _ in tracing.BINDINGS}
    assert set(tracing.PROBES) <= bound


def _grads_ok(grads):
    return (set(grads) == {n for n, _ in restorer.LAYER_SHAPES}
            and all(grads[n].shape == s for n, s in restorer.LAYER_SHAPES))


def test_loss_grads_return_the_tuples_the_workloads_unpack():
    rng = np.random.default_rng(0)
    state = restorer.RestorerState.random_init(1)
    x = rng.uniform(0.0, 1.0, (2, 3, 16, 16))
    y = rng.uniform(0.0, 1.0, (2, 3, 16, 16))
    prev_out = restorer.forward(restorer.RestorerState.random_init(2), x)
    assert prev_out.shape == x.shape

    loss, grads = restorer.restoration_loss_grads(state, x, y)
    assert isinstance(loss, float) and _grads_ok(grads)

    l_replay, l_consist, grads = restorer.replay_loss_grads(state, x, y, prev_out, 1.0)
    assert isinstance(l_replay, float) and isinstance(l_consist, float)
    assert _grads_ok(grads)
