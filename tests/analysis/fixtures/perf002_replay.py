"""PERF002 fixture: raw allocations on a (fake) tape-replay path.

``Tape.replay`` seeds the forward slice.  Flagged: fresh numpy
allocations in replay-reachable functions.  Quiet: calls that write into
caller storage via ``out=`` (an op forward passing its own ``out``
through), and the backward slice (the walk never descends into
``backward``/``_replay_backward``).
"""

import numpy as np


def helper_alloc(shape):
    return np.empty(shape, dtype=np.float32)  # expect: PERF002


class FakeOp:
    @staticmethod
    def forward(ctx, a, out=None):
        return np.concatenate([a], out=out)

    @staticmethod
    def backward(ctx, grad):
        return (np.zeros_like(grad),)


class Tape:
    def replay(self, inputs):
        buf = np.empty((4, 4), dtype=np.float32)  # expect: PERF002
        out = FakeOp.forward(None, buf)
        helper_alloc((2, 2))
        joined = np.concatenate([buf, out])  # expect: PERF002
        np.concatenate([buf, out], out=joined)
        self._replay_backward(joined)
        return joined

    def _replay_backward(self, seed):
        return np.ones((3,), dtype=np.float32)
