"""Memory-plan correctness: the PR 8 acceptance gates as tests.

Four contracts pin the tape-planned arena allocator:

- **out= parity** — every op's ``forward(..., out=slab)`` path must be
  bit-for-bit the natural allocation path, forward and backward (the
  planned replay is only allowed to change *where* bytes live, never
  what they are).
- **planned replay parity** — a planned replay is bitwise identical to
  the unplanned replay and to eager, for losses, every ``.grad`` and
  every BatchNorm running buffer, with the arena NaN-poisoned between
  steps so any stale read fails loudly.
- **plan determinism** — the layout is a pure function of the tape:
  identical digests when rebuilt, including across processes; and the
  greedy interval coloring never lets two live buffers share bytes
  (checked property-style over random tape shapes).
- **fault hygiene** — an injected NaN through a planned (or observing)
  replay plus a guardrail-style restore leaves no stale arena state:
  the resumed run re-plans cleanly and matches an unfaulted run bitwise.
"""

import contextlib
import inspect
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import nn
from repro.faults import plane
from repro.faults.plane import FaultEvent, FaultPlan
from repro.nn.conv import Conv2dOp
from repro.nn.pool import AvgPool2dOp, MaxPool2dOp
from repro.optim import SGD
from repro.tensor import Tensor, memplan, no_fusion
from repro.tensor import core_ops as ops
from repro.tensor.engine import Context, registered_ops
from repro.tensor.tape import TapedFunction, capture


@pytest.fixture(autouse=True)
def memplan_hygiene():
    """Planning on, debug fill off, fresh scratch state around every test."""
    memplan.set_planning(True)
    previous_fill = memplan.set_debug_fill(False)
    memplan.clear_scratch_cache()
    yield
    memplan.set_planning(True)
    memplan.set_debug_fill(previous_fill)
    memplan.clear_scratch_cache()


# ----------------------------------------------------------------------
# out= parity, op by op
# ----------------------------------------------------------------------
def _rng(seed=0):
    return np.random.default_rng(seed)


def assert_out_path_bitwise(op_cls, arrays, params=None):
    """forward+backward with ``out=`` must equal the natural path bit-for-bit.

    The out slab is deliberately garbage-filled (not zeroed) so any op
    that *reads* its output buffer before writing it is caught here.
    """
    params = dict(params or {})
    ctx_nat = Context()
    ctx_nat.needs_input_grad = (True,) * len(arrays)
    natural = op_cls.forward(ctx_nat, *arrays, **params)

    # The slab spec is what the tape's observation replay records: the
    # natural output's shape and dtype.
    ctx_out = Context()
    ctx_out.needs_input_grad = (True,) * len(arrays)
    slab = np.full(np.shape(natural), np.nan, dtype=natural.dtype)
    got = op_cls.forward(ctx_out, *arrays, out=slab, **params)

    assert got is slab, f"{op_cls.name} did not write into the caller slab"
    assert natural.shape == got.shape and natural.dtype == got.dtype
    assert natural.tobytes() == got.tobytes(), f"{op_cls.name} forward drifted"

    grad = _rng(5).standard_normal(natural.shape).astype(natural.dtype, copy=False)
    grads_nat = op_cls.backward(ctx_nat, grad)
    grads_out = op_cls.backward(ctx_out, grad)
    assert len(grads_nat) == len(grads_out)
    for slot, (expected, actual) in enumerate(zip(grads_nat, grads_out)):
        if expected is None or actual is None:
            assert expected is actual, f"{op_cls.name} grad[{slot}] None mismatch"
            continue
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        assert expected.dtype == actual.dtype
        assert expected.tobytes() == actual.tobytes(), \
            f"{op_cls.name} grad[{slot}] drifted"


def _f32(seed, *shape):
    return _rng(seed).standard_normal(shape).astype(np.float32)


def _pos(seed, *shape):
    return (np.abs(_f32(seed, *shape)) + 0.5).astype(np.float32)


OP_CASES = [
    ("add", ops.AddOp, lambda: (_f32(1, 3, 4), _f32(2, 3, 4)), {}),
    ("add_broadcast", ops.AddOp, lambda: (_f32(1, 3, 4), _f32(2, 4)), {}),
    ("sub", ops.SubOp, lambda: (_f32(3, 3, 4), _f32(4, 3, 4)), {}),
    ("mul", ops.MulOp, lambda: (_f32(5, 3, 4), _f32(6, 3, 4)), {}),
    ("div", ops.DivOp, lambda: (_f32(7, 3, 4), _pos(8, 3, 4)), {}),
    ("neg", ops.NegOp, lambda: (_f32(9, 3, 4),), {}),
    ("matmul", ops.MatMulOp, lambda: (_f32(10, 3, 4), _f32(11, 4, 5)), {}),
    ("sum_all", ops.SumOp, lambda: (_f32(12, 3, 4),), {}),
    ("sum_axis", ops.SumOp, lambda: (_f32(13, 3, 4),),
     {"axis": 1, "keepdims": False}),
    ("exp", ops.ExpOp, lambda: (_f32(14, 3, 4),), {}),
    ("log", ops.LogOp, lambda: (_pos(15, 3, 4),), {}),
    ("sqrt", ops.SqrtOp, lambda: (_pos(16, 3, 4),), {}),
    ("tanh", ops.TanhOp, lambda: (_f32(17, 3, 4),), {}),
    ("sigmoid", ops.SigmoidOp, lambda: (_f32(18, 3, 4),), {}),
    ("relu", ops.ReluOp, lambda: (_f32(19, 3, 4),), {}),
    ("maximum", ops.MaximumOp, lambda: (_f32(20, 3, 4), _f32(21, 3, 4)), {}),
    ("linear", ops.LinearOp,
     lambda: (_f32(22, 5, 4), _f32(23, 4, 6), _f32(24, 6)), {}),
    ("linear_relu", ops.LinearReluOp,
     lambda: (_f32(25, 5, 4), _f32(26, 4, 6), _f32(27, 6)), {}),
    ("batch_norm", ops.BatchNormOp, lambda: (_f32(28, 6, 5),),
     {"axes": (0,), "eps": 1e-5}),
    ("conv2d", Conv2dOp,
     lambda: (_f32(29, 2, 3, 6, 6), _f32(30, 3 * 3 * 3, 4), _f32(31, 4)),
     {"kernel": 3, "stride": 1, "padding": 1}),
    ("maxpool2d", MaxPool2dOp, lambda: (_f32(32, 2, 3, 6, 6),), {"kernel": 2}),
    ("avgpool2d", AvgPool2dOp, lambda: (_f32(33, 2, 3, 6, 6),), {"kernel": 2}),
    ("abs", ops.AbsOp, lambda: (_f32(34, 3, 4),), {}),
    ("max_all", ops.MaxOp, lambda: (_f32(35, 3, 4),), {}),
    ("max_axis", ops.MaxOp, lambda: (_f32(36, 3, 4),),
     {"axis": 0, "keepdims": True}),
    ("concat", ops.ConcatOp, lambda: (_f32(37, 2, 4), _f32(38, 3, 4)),
     {"axis": 0}),
    ("stack", ops.StackOp, lambda: (_f32(39, 3, 4), _f32(40, 3, 4)),
     {"axis": 1}),
    ("l2normalize", ops.L2NormalizeOp, lambda: (_f32(41, 5, 6),),
     {"axis": -1, "eps": 1e-12}),
    ("cosine_rows", ops.CosineRowsOp, lambda: (_f32(42, 5, 6), _f32(43, 5, 6)),
     {"axis": -1, "eps": 1e-12}),
    ("normalized_mse", ops.NormalizedMseOp,
     lambda: (_f32(44, 5, 6), _f32(45, 5, 6)), {"axis": -1, "eps": 1e-12}),
]


def _takes_out(op_cls) -> bool:
    return "out" in inspect.signature(op_cls.forward).parameters


class TestOutParamParity:
    @pytest.mark.parametrize("label, op_cls, build, params",
                             OP_CASES, ids=[c[0] for c in OP_CASES])
    def test_out_matches_natural(self, label, op_cls, build, params):
        assert_out_path_bitwise(op_cls, build(), params)

    def test_every_out_taking_op_has_a_case(self):
        # A new op that accepts ``out=`` gets arena storage on planned
        # replays; its out path must be pinned bitwise like the rest.
        covered = {op_cls.name for _label, op_cls, _build, _params in OP_CASES}
        covered.add(ops.PowOp.name)  # pinned per exponent below
        out_ops = {name for name, op_cls in registered_ops().items()
                   if _takes_out(op_cls)}
        assert out_ops - covered == set()

    @pytest.mark.parametrize("exponent", [2, 1, 0.5, -1, 3, 0.3, -2])
    def test_pow_fast_paths(self, exponent):
        # Each scalar exponent numpy special-cases in ``**`` must be
        # mirrored by the op's ufunc, not rewritten mathematically.
        a = _pos(40, 4, 5)
        assert_out_path_bitwise(ops.PowOp, (a,), {"exponent": exponent})
        ctx = Context()
        ctx.needs_input_grad = (True,)
        got = ops.PowOp.forward(ctx, a, exponent=exponent)
        assert got.tobytes() == (a ** exponent).tobytes()


class TestPlanCoverage:
    def test_tiny_conv_simsiam_step_plans_every_eligible_output(self, monkeypatch):
        """The opt-in is structural: every instruction of an op that takes
        ``out=`` gets an arena view when its observed output is fresh and
        C-ordered, of the dispatch dtype and not the loss root.  A renamed or dropped
        ``out`` parameter leaves the arena here instead of silently."""
        from repro.continual.config import ContinualConfig, build_objective
        from repro.ssl.step import SSLTrainStep
        from repro.tensor.tape import Tape

        out_ops = {op_cls.name for _label, op_cls, _build, _params in OP_CASES}
        out_ops.add(ops.PowOp.name)
        observed = {}
        build_plan = Tape._build_plan

        def spy(self, values, ctxs, natural_ok):
            observed.update(values=list(values), natural_ok=list(natural_ok))
            return build_plan(self, values, ctxs, natural_ok)

        monkeypatch.setattr(Tape, "_build_plan", spy)
        config = ContinualConfig()
        rng = np.random.default_rng(0)
        objective = build_objective(config, (3, 8, 8), rng)
        step = SSLTrainStep(objective, SGD(objective.parameters(), lr=0.03))
        data = np.random.default_rng(1).standard_normal(
            (config.batch_size, 3, 8, 8)).astype(np.float32)
        step(data, data[::-1].copy())   # capture
        step(data, data[::-1].copy())   # observation replay builds the plan
        (tape,) = step.taped.tapes.values()
        assert tape.plan is not None and observed

        values = observed["values"]
        expected, planned = [], []
        for i, inst in enumerate(tape.instructions):
            data_i = values[inst.out_slot]
            fresh = (data_i.base is None and data_i.flags.c_contiguous
                     and not any(np.may_share_memory(data_i, values[s])
                                 for s in inst.input_slots))
            if (inst.name in out_ops and fresh and observed["natural_ok"][i]
                    and inst.out_slot != tape.seed_slot):
                expected.append((i, inst.name))
            if tape.plan.out_views[i] is not None:
                planned.append((i, inst.name))
        assert planned == expected
        names = {name for _i, name in planned}
        assert {"conv2d", "batch_norm", "relu", "maxpool2d"} <= names


class TestScratchCache:
    def test_freed_buffer_serves_any_smaller_request(self):
        big = memplan.acquire((4, 8, 8), np.float32)
        big_bytes = big.base
        memplan.release(big.reshape(-1))  # any view returns its buffer
        before = memplan.stats_snapshot()
        small = memplan.acquire((3, 5), np.float64)
        assert small.base is big_bytes
        assert small.flags.c_contiguous and small.shape == (3, 5)
        assert small.dtype == np.float64
        assert memplan.stats_snapshot()["cache_misses"] == before["cache_misses"]

    def test_smallest_fitting_buffer_is_taken(self):
        bufs = [memplan.acquire((n,), np.float32) for n in (64, 16, 32)]
        roots = [b.base for b in bufs]
        for b in bufs:
            memplan.release(b)
        assert memplan.acquire((20,), np.float32).base is roots[2]
        assert memplan.acquire((20,), np.float32).base is roots[0]
        before = memplan.stats_snapshot()["cache_misses"]
        memplan.acquire((20,), np.float32)  # only the 16-float buffer is left
        assert memplan.stats_snapshot()["cache_misses"] == before + 1


# ----------------------------------------------------------------------
# Shared harness: tiny train steps driven through TapedFunction
# ----------------------------------------------------------------------
def _build_mlp(seed=7):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(12, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.ReLU(),
        nn.Linear(16, 8, rng=rng),
    )
    model.train()

    def step(v1, v2):
        a = model(Tensor(v1))
        b = model(Tensor(v2))
        loss = ((a - b) ** 2).mean() + (a ** 2).mean()
        loss.backward()
        return loss

    return model, step


def _mlp_batches(n_steps, seed=42):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((10, 12)).astype(np.float32),
             rng.standard_normal((10, 12)).astype(np.float32))
            for _ in range(n_steps)]


def _build_conv(seed=11):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(2, 4, 3, stride=1, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.MaxPool2d(2),
    )
    model.train()

    def step(v1, v2):
        a = model(Tensor(v1))
        b = model(Tensor(v2))
        loss = ((a - b) ** 2).mean() + (a ** 2).mean()
        loss.backward()
        return loss

    return model, step


def _conv_batches(n_steps, seed=43):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((4, 2, 6, 6)).astype(np.float32),
             rng.standard_normal((4, 2, 6, 6)).astype(np.float32))
            for _ in range(n_steps)]


MODELS = {"mlp": (_build_mlp, _mlp_batches), "conv": (_build_conv, _conv_batches)}


def _step_state(model, params, loss):
    return {
        "loss": np.asarray(loss.data).copy(),
        "grads": [p.grad.copy() for p in params],
        "params": [p.data.copy() for p in params],
        "buffers": {name: buf.copy() for name, buf in model.named_buffers()},
    }


def _assert_traces_identical(reference, candidate, label):
    assert len(reference) == len(candidate)
    for i, (expected, actual) in enumerate(zip(reference, candidate)):
        np.testing.assert_array_equal(expected["loss"], actual["loss"],
                                      err_msg=f"{label}: step {i} loss")
        for slot, (e, a) in enumerate(zip(expected["grads"], actual["grads"])):
            np.testing.assert_array_equal(e, a,
                                          err_msg=f"{label}: step {i} grad[{slot}]")
        for slot, (e, a) in enumerate(zip(expected["params"], actual["params"])):
            np.testing.assert_array_equal(e, a,
                                          err_msg=f"{label}: step {i} param[{slot}]")
        assert expected["buffers"].keys() == actual["buffers"].keys()
        for name, e in expected["buffers"].items():
            np.testing.assert_array_equal(e, actual["buffers"][name],
                                          err_msg=f"{label}: step {i} buffer {name}")


def _drive(model_name, mode, n_steps=6):
    """Run ``n_steps`` SGD steps in one of three replay regimes.

    ``eager`` never tapes; ``unplanned`` replays on the allocate-per-op
    path; ``planned`` replays against the arena (steps 3+, after the
    capture and observation passes).
    """
    build, make_batches = MODELS[model_name]
    model, step = build()
    params = list(model.parameters())
    optimizer = SGD(params, lr=0.05, momentum=0.9)
    taped = TapedFunction(step)
    if mode == "eager":
        taped.enabled = False
    stack = contextlib.ExitStack()
    if mode == "unplanned":
        stack.enter_context(memplan.no_planning())
    trace = []
    with stack:
        for v1, v2 in make_batches(n_steps):
            optimizer.zero_grad()
            loss = taped(v1, v2)
            optimizer.step()
            trace.append(_step_state(model, params, loss))
    if mode == "planned":
        tape = next(iter(taped.tapes.values()))
        assert tape.plan is not None, "planned run never built a plan"
        assert tape.plan.planned_outputs > 0
    if mode == "unplanned":
        for tape in taped.tapes.values():
            assert tape.plan is None, "no_planning run built a plan"
    return trace


class TestPlannedReplayParity:
    """Planned == unplanned == eager, bit for bit, fused and unfused."""

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("model_name", ["mlp", "conv"])
    def test_bitwise_parity(self, model_name, fused):
        # NaN-poison the arena at every step boundary: a planned replay
        # reading any stale byte diverges and fails the comparison.
        memplan.set_debug_fill(True)
        stack = contextlib.ExitStack()
        if not fused:
            stack.enter_context(no_fusion())
        with stack:
            eager = _drive(model_name, "eager")
            unplanned = _drive(model_name, "unplanned")
            planned = _drive(model_name, "planned")
        _assert_traces_identical(eager, unplanned,
                                 f"{model_name} unplanned-vs-eager")
        _assert_traces_identical(eager, planned,
                                 f"{model_name} planned-vs-eager")

    def test_planned_replay_uses_the_arena(self):
        before = memplan.stats_snapshot()
        _drive("mlp", "planned")
        after = memplan.stats_snapshot()
        assert after["arena_outputs"] > before["arena_outputs"]
        assert after["arena_resets"] > before["arena_resets"]

    def test_conv_warm_planned_replay_makes_no_fresh_allocations(self):
        """The dissolved ``_ColBufferPool``'s regression, on the new plane:
        a warm planned conv step allocates nothing — outputs come from the
        arena, im2col scratch from warm cache buckets, and nothing falls
        through to a fresh ``np.empty``."""
        build, make_batches = MODELS["conv"]
        model, step = build()
        optimizer = SGD(list(model.parameters()), lr=0.05, momentum=0.9)
        taped = TapedFunction(step)
        batches = make_batches(7)
        for v1, v2 in batches[:4]:  # capture, observe, 2 planned warm-ups
            optimizer.zero_grad()
            taped(v1, v2)
            optimizer.step()
        before = memplan.stats_snapshot()
        for v1, v2 in batches[4:]:
            optimizer.zero_grad()
            taped(v1, v2)
            optimizer.step()
        after = memplan.stats_snapshot()
        assert after["cache_misses"] == before["cache_misses"]
        assert after["helper_allocs"] == before["helper_allocs"]
        assert after["arena_outputs"] > before["arena_outputs"]


# ----------------------------------------------------------------------
# Plan determinism: pure function of the tape, in and across processes
# ----------------------------------------------------------------------
def _plan_for_mlp(batch, in_dim, hidden, seed):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(in_dim, hidden, rng=rng),
        nn.BatchNorm1d(hidden),
        nn.ReLU(),
        nn.Linear(hidden, max(2, in_dim // 2), rng=rng),
    )
    model.train()
    data = np.random.default_rng(seed + 1).standard_normal(
        (batch, in_dim)).astype(np.float32)
    with capture((data,)) as tape:
        loss = (model(Tensor(data)) ** 2).mean()
        loss.backward()
    assert tape.complete
    tape.replay((data,))  # observation pass builds the plan
    assert tape.plan is not None
    return tape.plan


def _plan_for_conv(batch, channels, hw, seed):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(channels, channels + 1, 3, stride=1, padding=1, rng=rng),
        nn.BatchNorm2d(channels + 1),
        nn.ReLU(),
        nn.MaxPool2d(2),
    )
    model.train()
    data = np.random.default_rng(seed + 1).standard_normal(
        (batch, channels, hw, hw)).astype(np.float32)
    with capture((data,)) as tape:
        loss = (model(Tensor(data)) ** 2).mean()
        loss.backward()
    assert tape.complete
    tape.replay((data,))
    assert tape.plan is not None
    return tape.plan


def _assert_plan_well_formed(plan):
    """The interval-coloring safety invariants every layout must satisfy."""
    assert plan.items
    for item in plan.items:
        assert item.offset >= 0
        assert item.offset % memplan.ALIGNMENT == 0
        assert item.offset + item.aligned <= plan.total_bytes
        assert item.start <= item.stop
        assert item.nbytes > 0
    for i, a in enumerate(plan.items):
        for b in plan.items[i + 1:]:
            lifetimes_overlap = a.start <= b.stop and b.start <= a.stop
            bytes_overlap = (a.offset < b.offset + b.aligned
                             and b.offset < a.offset + a.aligned)
            assert not (lifetimes_overlap and bytes_overlap), (
                f"live buffers share arena bytes:\n  {a}\n  {b}")


_DIGEST_SCRIPT = textwrap.dedent("""\
    import numpy as np
    from repro import nn
    from repro.tensor import Tensor
    from repro.tensor.tape import capture

    rng = np.random.default_rng(7)
    model = nn.Sequential(nn.Linear(12, 16, rng=rng), nn.BatchNorm1d(16),
                          nn.ReLU(), nn.Linear(16, 8, rng=rng))
    model.train()
    data = np.random.default_rng(3).standard_normal((10, 12)).astype(np.float32)
    with capture((data,)) as tape:
        loss = (model(Tensor(data)) ** 2).mean()
        loss.backward()
    tape.replay((data,))
    assert tape.plan is not None
    print(tape.plan.digest())
""")


class TestPlanDeterminism:
    def test_rebuilt_plan_has_identical_layout(self):
        first = _plan_for_mlp(10, 12, 16, seed=7)
        second = _plan_for_mlp(10, 12, 16, seed=7)
        assert first.digest() == second.digest()
        assert first.total_bytes == second.total_bytes
        layout = [(it.inst, it.key, it.offset, it.nbytes)
                  for it in first.items]
        assert layout == [(it.inst, it.key, it.offset, it.nbytes)
                          for it in second.items]

    def test_digest_identical_across_processes(self):
        """No id()/hash ordering anywhere: two fresh interpreters produce
        the byte-identical plan for the same program."""
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        digests = []
        for _ in range(2):
            result = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                                    capture_output=True, text=True,
                                    env=env, timeout=120)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64  # sha256 hex

    @settings(max_examples=12, deadline=None)
    @given(batch=st.integers(2, 9), in_dim=st.integers(2, 10),
           hidden=st.integers(2, 12), seed=st.integers(0, 10_000))
    def test_random_mlp_tapes_color_safely(self, batch, in_dim, hidden, seed):
        plan = _plan_for_mlp(batch, in_dim, hidden, seed)
        _assert_plan_well_formed(plan)
        rebuilt = _plan_for_mlp(batch, in_dim, hidden, seed)
        assert rebuilt.digest() == plan.digest()

    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(1, 4), channels=st.integers(1, 3),
           hw=st.sampled_from([4, 6, 8]), seed=st.integers(0, 10_000))
    def test_random_conv_tapes_color_safely(self, batch, channels, hw, seed):
        plan = _plan_for_conv(batch, channels, hw, seed)
        _assert_plan_well_formed(plan)
        rebuilt = _plan_for_conv(batch, channels, hw, seed)
        assert rebuilt.digest() == plan.digest()


# ----------------------------------------------------------------------
# Fault hygiene: corruption through the planned path, restore, resume
# ----------------------------------------------------------------------
def _snapshot(model, params):
    return ([p.data.copy() for p in params],
            {name: buf.copy() for name, buf in model.named_buffers()})


def _restore(model, params, snap):
    datas, buffers = snap
    for p, d in zip(params, datas):
        np.copyto(p.data, d)
    for name, buf in model.named_buffers():
        np.copyto(buf, buffers[name])


def _nan_plan():
    return FaultPlan(seed=0, scenario="memplan-nan", events=(
        FaultEvent(site="tape.replay", kind="nan_payload", hit=0),))


def _run_with_fault(fault_before_step, n_steps=7):
    """Train the MLP; before step ``fault_before_step`` run one poisoned
    replay on a throwaway batch, then restore state guardrail-style.

    Momentum is off so the restorable state is exactly (weights, buffers);
    the poisoned batch never reaches ``optimizer.step``, mirroring the
    guardrail ladder's skip-batch rung.  Returns (trace, taped).
    """
    model, step = _build_mlp()
    params = list(model.parameters())
    optimizer = SGD(params, lr=0.05, momentum=0.0)
    taped = TapedFunction(step)
    throwaway = _mlp_batches(1, seed=777)[0]
    trace = []
    for i, (v1, v2) in enumerate(_mlp_batches(n_steps)):
        if i == fault_before_step:
            snap = _snapshot(model, params)
            with plane.armed(_nan_plan()):
                optimizer.zero_grad()
                poisoned = taped(*throwaway)
                assert np.isnan(np.asarray(poisoned.data)).any()
            _restore(model, params, snap)
        optimizer.zero_grad()
        loss = taped(v1, v2)
        optimizer.step()
        trace.append(_step_state(model, params, loss))
    return trace, taped


class TestFaultHygiene:
    def _reference(self, n_steps=7):
        model, step = _build_mlp()
        params = list(model.parameters())
        optimizer = SGD(params, lr=0.05, momentum=0.0)
        taped = TapedFunction(step)
        trace = []
        for v1, v2 in _mlp_batches(n_steps):
            optimizer.zero_grad()
            loss = taped(v1, v2)
            optimizer.step()
            trace.append(_step_state(model, params, loss))
        return trace, taped

    def test_nan_through_planned_replay_restores_clean(self):
        """Fault hits a *planned* replay (plan live, arena bound): after
        restore, the plan survives and resumed steps are bitwise clean."""
        memplan.set_debug_fill(True)
        reference, ref_taped = self._reference()
        trace, taped = _run_with_fault(fault_before_step=4)
        tape = next(iter(taped.tapes.values()))
        assert tape.plan is not None and not tape._plan_failed
        assert tape.plan.digest() == \
            next(iter(ref_taped.tapes.values())).plan.digest()
        _assert_traces_identical(reference, trace, "nan-through-planned")

    def test_nan_during_observation_defers_planning(self):
        """Fault hits the observation replay: the plan build is skipped
        (never built from poisoned values), deferred to the next clean
        replay, and the resumed run still matches bitwise."""
        memplan.set_debug_fill(True)
        reference, ref_taped = self._reference()

        model, step = _build_mlp()
        params = list(model.parameters())
        optimizer = SGD(params, lr=0.05, momentum=0.0)
        taped = TapedFunction(step)
        batches = _mlp_batches(7)
        throwaway = _mlp_batches(1, seed=777)[0]

        # Step 0 captures the tape eagerly.
        v1, v2 = batches[0]
        optimizer.zero_grad()
        loss = taped(v1, v2)
        optimizer.step()
        trace = [_step_state(model, params, loss)]

        # The next replay would be the observation pass — poison it.
        snap = _snapshot(model, params)
        tape = next(iter(taped.tapes.values()))
        with plane.armed(_nan_plan()):
            optimizer.zero_grad()
            poisoned = taped(*throwaway)
            assert np.isnan(np.asarray(poisoned.data)).any()
        assert tape.plan is None, "plan was built from a poisoned replay"
        assert not tape._plan_failed, "armed observation must defer, not fail"
        _restore(model, params, snap)

        for v1, v2 in batches[1:]:
            optimizer.zero_grad()
            loss = taped(v1, v2)
            optimizer.step()
            trace.append(_step_state(model, params, loss))

        assert tape.plan is not None, "planning never recovered after disarm"
        assert tape.plan.digest() == \
            next(iter(ref_taped.tapes.values())).plan.digest()
        _assert_traces_identical(reference, trace, "nan-during-observation")
