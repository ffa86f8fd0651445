"""The workloads separate the layers: a fixed delay in ``restorer.forward``
moves clgid-stream's pass_s beyond its bound and leaves memory-chain within
it; a delay in ``synthdata.render_rain_layer`` does the reverse.

Runs real passes (about two minutes):  python3 -m pytest -q perfbench
"""

import statistics
import time

import pytest

import run

run.pin_blas_threads()
run.import_program()

from rainreplay import restorer, synthdata  # noqa: E402

import workloads  # noqa: E402

BOUND = next(m["bound"] for m in run._DECLARED["end_to_end"] if m["name"] == "pass_s")
FORWARD_DELAY_S = 0.03  # clgid-stream makes 116 forward calls a pass, memory-chain none
RENDER_DELAY_S = 0.012  # memory-chain renders 240 rain layers a pass, clgid-stream 30


def _delayed(fn, seconds):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return slow


def _pass_s(name, passes=2):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(1)
    oracle = wl.prepare(inputs)[1]
    done = [run.one_pass(wl, inputs, oracle) for _ in range(passes)]
    assert not any(p.failed for p in done)
    return statistics.median(p.seconds for p in done)


@pytest.mark.parametrize("name, forward_moves", [("clgid-stream", True),
                                                 ("memory-chain", False)])
def test_delays_move_only_the_workload_that_uses_the_layer(name, forward_moves, monkeypatch):
    base = _pass_s(name)
    with monkeypatch.context() as m:
        m.setattr(restorer, "forward", _delayed(restorer.forward, FORWARD_DELAY_S))
        forward_growth = _pass_s(name) / base - 1.0
    with monkeypatch.context() as m:
        m.setattr(synthdata, "render_rain_layer",
                  _delayed(synthdata.render_rain_layer, RENDER_DELAY_S))
        render_growth = _pass_s(name) / base - 1.0
    print(f"{name}: forward delay {forward_growth:+.1%}, render delay "
          f"{render_growth:+.1%}, bound {BOUND:.0%}")
    assert (forward_growth > BOUND) == forward_moves
    assert (render_growth > BOUND) == (not forward_moves)
