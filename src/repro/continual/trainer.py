"""The continual training loop (Fig. 2's training + selecting stages).

For each increment: fresh optimizer over the method's current parameter set
(heads change per increment), epochs of two-view CSSL batches, method hooks
around each optimizer step, then the method's ``end_task`` (selection /
consolidation) and a KNN evaluation over all increments seen so far — one
row of the accuracy matrix.

Fault tolerance (``repro.runtime``) threads through the same loop:

- with a ``checkpoint_dir``, the full run state (method, memory, RNG
  stream, partial accuracy matrix) is checkpointed atomically after every
  increment, and ``run(..., resume=True)`` continues a killed run
  bit-for-bit from the last good checkpoint;
- with a ``guardrails`` policy, every batch is screened for NaN/Inf loss,
  exploding gradients, and autograd anomalies, recovering by an escalating
  ladder: skip batch → restore the task-start state with LR backoff →
  abort with a structured failure report (:class:`TrainingDiverged`).

With ``config.workers`` set, shard-safe methods run each batch through the
sharded regime (``repro.parallel``): fixed micro-shards, broadcast state,
fixed-order tree all-reduce into the same leaf ``.grad`` buffers.  Results
are bit-for-bit identical for every worker count; a worker dying mid-step
surfaces as a ``WorkerFailure`` that enters the guardrail ladder like any
other poisoned batch.

The trainer walks one loop over a
:class:`~repro.scenarios.streams.ScenarioStream`; a plain ``TaskSequence``
is first turned into its ``class_incremental`` stream (the same ``Task``
objects).  A boundary controller turns the stream's shape into
:class:`~repro.continual.method.BoundaryEvent` begin/end pairs: sharp
streams get one pair per segment, while ``task_free`` streams route every
segment through a :class:`~repro.scenarios.drift.DriftDetector` and emit
boundaries only when the input statistics drift — methods self-trigger
selection and consolidation.  A run handed a stream additionally records
a :class:`~repro.eval.transfer.TransferMatrix` (online + final accuracy on
the full eval panel per segment), rewritten atomically next to the
checkpoints *before* each checkpoint commit so resume restores it
bit-for-bit.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.augment.base import TwoViewAugment
from repro.augment.image import simsiam_image_pipeline
from repro.augment.tabular import tabular_pipeline
from repro.continual.config import ContinualConfig, build_objective
from repro.continual.method import (BoundaryEvent, ContinualMethod,
                                    make_method)
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.splits import Task, TaskSequence
from repro.eval.metrics import ContinualResult
from repro.eval.protocol import evaluate_tasks
from repro.eval.transfer import TransferMatrix
from repro.faults import plane as _faults
from repro.optim import SGD, Adam, ConstantLR, CosineLR
from repro.parallel import N_SHARDS, ShardedStep, WorkerFailure
from repro.runtime.checkpoint import CheckpointError, CheckpointManager
from repro.runtime.guardrail import (GuardrailPolicy, GuardrailViolation,
                                     RunLog, TrainingDiverged,
                                     build_failure_report, clip_detail,
                                     global_grad_norm)
from repro.scenarios.drift import DriftDetector
from repro.scenarios.streams import (ScenarioStream,
                                     class_incremental_stream)
from repro.tensor.anomaly import AnomalyError, detect_anomaly
from repro.tensor.tape import TapedFunction
from repro.utils.rng import get_rng_state, set_rng_state
from repro.utils.serialization import (load_transfer_matrix,
                                       save_transfer_matrix)


def _build_optimizer(config: ContinualConfig, parameters):
    if config.optimizer == "sgd":
        return SGD(parameters, lr=config.lr, momentum=config.momentum,
                   weight_decay=config.weight_decay)
    if config.optimizer == "adam":
        return Adam(parameters, lr=config.lr, weight_decay=config.weight_decay)
    raise ValueError(f"unknown optimizer {config.optimizer!r}")


def _build_schedule(config: ContinualConfig, optimizer):
    if config.schedule == "cosine":
        return CosineLR(optimizer, total_epochs=config.epochs)
    if config.schedule == "constant":
        return ConstantLR(optimizer)
    raise ValueError(f"unknown schedule {config.schedule!r}")


def _build_augment(config: ContinualConfig, train_x: np.ndarray) -> TwoViewAugment:
    """Image pipeline for NCHW data, SCARF corruption for tabular rows."""
    if train_x.ndim == 4:
        return TwoViewAugment(simsiam_image_pipeline(padding=config.augment_padding))
    if train_x.ndim == 2:
        return TwoViewAugment(tabular_pipeline(train_x, config.tabular_corruption))
    raise ValueError(f"unsupported data shape {train_x.shape}")


class SharpBoundaryController:
    """Default boundary controller: every stream segment is its own task.

    Emits one begin/end pair per segment through
    :meth:`ContinualMethod.on_boundary`.  Stateless, so its checkpoint
    contribution is ``None`` and sharp-stream checkpoints carry no
    ``stream`` key.
    """

    def begin_segment(self, method: ContinualMethod, task: Task,
                      task_index: int, n_tasks: int) -> None:
        method.on_boundary(BoundaryEvent("begin", task, task_index, n_tasks))

    def end_segment(self, method: ContinualMethod, task: Task,
                    task_index: int, is_last: bool) -> None:
        method.on_boundary(BoundaryEvent("end", task, task_index))

    def state_dict(self) -> dict | None:
        return None

    def load_state_dict(self, state: dict | None) -> None:
        if state is not None:
            raise CheckpointError(
                "checkpoint carries task-free stream state but this run uses "
                "sharp boundaries — resume under the original scenario")


class TaskFreeBoundaryController:
    """Self-triggered boundaries for streams with no boundary signal.

    Routes every arriving segment's raw data through a
    :class:`~repro.scenarios.drift.DriftDetector`.  While the statistics
    hold steady, segments accumulate into the current *virtual task* and
    no method hook fires; when they drift, the previous virtual task ends
    — ``end`` is delivered with the merged data of all its segments, so
    selection methods (EDSR's boundary-triggered selection in particular)
    see one coherent increment — and a new one begins.  Virtual indices
    therefore lag segment indices; ``n_tasks`` passed at ``begin`` is the
    segment count, the upper bound on how many virtual tasks can exist
    (memory budgets split by it stay conservative).

    Fully serializable: the state (virtual index, open segment indices,
    detector statistics) joins the guardrail snapshot and the checkpoint
    run state, so restores and resumes replay the detection trajectory
    bit-for-bit.  The stream itself is not serialized — it is rebuilt as
    a pure function of the scenario config, and the open-segment indices
    re-reference it.
    """

    def __init__(self, stream: ScenarioStream, detector: DriftDetector):
        # Rebuilt deterministically from the scenario config on resume;
        # the serialized state references it by segment index only.
        self._stream = stream  # repro-lint: disable=SER002
        self.detector = detector
        self.virtual_index = -1
        self.open_segments: list[int] = []

    def begin_segment(self, method: ContinualMethod, task: Task,
                      task_index: int, n_tasks: int) -> None:
        drifted = self.detector.observe(task.train.x)
        if self.virtual_index < 0:
            self.virtual_index = 0
            self.open_segments = [task_index]
            method.on_boundary(BoundaryEvent("begin", task, 0, n_tasks,
                                             kind="drift"))
        elif drifted:
            method.on_boundary(BoundaryEvent("end", self._merged_task(),
                                             self.virtual_index, kind="drift"))
            self.virtual_index += 1
            self.open_segments = [task_index]
            method.on_boundary(BoundaryEvent("begin", task, self.virtual_index,
                                             n_tasks, kind="drift"))
        else:
            self.open_segments.append(task_index)

    def end_segment(self, method: ContinualMethod, task: Task,
                    task_index: int, is_last: bool) -> None:
        if is_last:
            method.on_boundary(BoundaryEvent("end", self._merged_task(),
                                             self.virtual_index, kind="drift"))

    def _merged_task(self) -> Task:
        """The finished virtual task: its open segments merged into one."""
        segments = [self._stream.segments[i].task for i in self.open_segments]
        train = ArrayDataset.concatenate(
            [s.train for s in segments],
            name=f"virtual-task-{self.virtual_index}")
        classes = tuple(int(c) for c in train.classes)
        return Task(task_id=self.virtual_index, classes=classes, train=train,
                    test=segments[-1].test)

    def state_dict(self) -> dict:
        return {
            "virtual_index": self.virtual_index,
            "open_segments": list(self.open_segments),
            "detector": self.detector.state_dict(),
        }

    def load_state_dict(self, state: dict | None) -> None:
        if state is None:
            raise CheckpointError(
                "checkpoint carries no task-free stream state — it was "
                "written by a sharp-boundary run; resume under the original "
                "scenario")
        self.virtual_index = int(state["virtual_index"])
        self.open_segments = [int(i) for i in state["open_segments"]]
        self.detector.load_state_dict(state["detector"])


class ContinualTrainer:
    """Runs one method over one task sequence.

    Parameters
    ----------
    method:
        A constructed :class:`ContinualMethod` wrapping the live objective.
    config:
        The run configuration.
    rng:
        Generator for loader shuffling and augmentation.
    verbose:
        Print one line per increment.
    checkpoint_dir:
        Directory for per-task atomic checkpoints and the event log; the
        run becomes resumable via ``run(..., resume=True)``.  ``None``
        disables checkpointing.
    guardrails:
        A :class:`GuardrailPolicy` enabling divergence detection and
        recovery.  ``None`` (default) trains unguarded, exactly as before.
    keep_checkpoints:
        Retain only the newest N checkpoints (``None`` keeps all).
    """

    def __init__(self, method: ContinualMethod, config: ContinualConfig,
                 rng: np.random.Generator, verbose: bool = False,
                 checkpoint_dir: str | pathlib.Path | None = None,
                 guardrails: GuardrailPolicy | None = None,
                 keep_checkpoints: int | None = None):
        self.method = method
        self.config = config
        self.rng = rng
        self.verbose = verbose
        self.guardrails = guardrails
        self._taped_step: TapedFunction | None = None
        self._sharded_step: ShardedStep | None = None
        self._shard_active = False
        self._task_index = 0
        self._controller = SharpBoundaryController()
        #: The stream run's TransferMatrix (``None`` for plain sequences);
        #: populated by :meth:`run` and kept current row by row.
        self.transfer_matrix: TransferMatrix | None = None
        self.checkpoints = None
        log_path = None
        if checkpoint_dir is not None:
            self.checkpoints = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
            log_path = self.checkpoints.directory / "events.jsonl"
        self.log = RunLog(log_path)

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _run_state(self, task_index: int, n_tasks: int,
                   result: ContinualResult) -> dict:
        """The full serializable state of the run after ``task_index``."""
        state = {
            "method_name": self.method.name,
            "n_tasks": n_tasks,
            "task_index": task_index,
            "method": self.method.state_dict(),
            "rng": get_rng_state(self.rng),
            "result": result.state_dict(),
        }
        # Only stateful controllers (task-free streams) contribute; sharp
        # runs omit the key.
        stream_state = self._controller.state_dict()
        if stream_state is not None:
            state["stream"] = stream_state
        return state

    def _restore_run_state(self, state: dict, n_tasks: int,
                           result: ContinualResult) -> int:
        """Load a checkpoint state; returns the first task still to run."""
        if state["method_name"] != self.method.name:
            raise CheckpointError(
                f"checkpoint was written by method {state['method_name']!r}, "
                f"this trainer runs {self.method.name!r}")
        if int(state["n_tasks"]) != n_tasks:
            raise CheckpointError(
                f"checkpoint covers a {state['n_tasks']}-task sequence, "
                f"this run has {n_tasks} tasks")
        self.method.load_state_dict(state["method"])
        set_rng_state(self.rng, state["rng"])
        result.load_state_dict(state["result"])
        self._controller.load_state_dict(state.get("stream"))
        return int(state["task_index"]) + 1

    def _save_checkpoint(self, task_index: int, n_tasks: int,
                         result: ContinualResult) -> None:
        if self.checkpoints is None:
            return
        # Informational only: the probe choice also lives in the result
        # state, and the sharded regime's results are worker-count
        # independent, so resume never reads this.
        meta = {"probe": self.config.probe}
        if self.config.workers is not None:
            meta.update(workers=self.config.workers, n_shards=N_SHARDS)
        try:
            path = self.checkpoints.save(
                task_index, self._run_state(task_index, n_tasks, result),
                meta=meta)
        except (OSError, CheckpointError) as exc:
            # Checkpointing is best-effort: a full disk or torn write must
            # not kill a run that is otherwise training fine.  The failure
            # is logged, the previous checkpoint stays the resume point
            # (resume re-runs the lost tasks bit-for-bit), and the swept
            # tmp residue is cleared on the next manager init.
            self.log.append("checkpoint-failed", task_index=task_index,
                            detail=clip_detail(exc))
            return
        self.log.append("checkpoint", task_index=task_index, path=str(path))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, sequence: TaskSequence | ScenarioStream,
            resume: bool = False) -> ContinualResult:
        """Train segment by segment over a scenario stream.

        A plain :class:`TaskSequence` runs as its ``class_incremental``
        stream and probes only the panel columns its result rows read.  A
        :class:`~repro.scenarios.streams.ScenarioStream` probes its whole
        eval panel and fills :attr:`transfer_matrix` — one online row
        (before the segment trains) and one final row (after) per segment.
        Either way, result row ``i`` reads ``final[seg.eval_alias]`` for
        every segment seen so far.
        """
        config = self.config
        method = self.method
        record = isinstance(sequence, ScenarioStream)
        stream = sequence if record else class_incremental_stream(sequence)
        n_tasks = len(stream)
        panel = range(len(stream.eval_tasks))
        result = ContinualResult(n_tasks, name=method.name, probe=config.probe)
        self._controller = self._make_controller(stream)
        transfer = self._make_transfer(stream) if record else None
        self.transfer_matrix = transfer
        start_task = 0
        prior_elapsed = 0.0

        if resume:
            if self.checkpoints is None:
                raise ValueError("resume=True requires a checkpoint_dir")
            loaded = self.checkpoints.load_latest()
            if loaded is not None:
                for reason in loaded.skipped:
                    self.log.append("corrupt-checkpoint", detail=reason)
                start_task = self._restore_run_state(loaded.state, n_tasks, result)
                prior_elapsed = result.elapsed_seconds
                if record:
                    self._restore_transfer(transfer, start_task)
                self.log.append("resume", task_index=start_task,
                                checkpoint=str(loaded.path))
                if self.verbose:
                    print(f"[{method.name}] resumed after task "
                          f"{start_task}/{n_tasks} from {loaded.path.name}")

        start = time.perf_counter()
        # online[i] is final[i-1]: between the two probes only the matrix
        # and checkpoint writes run, and neither touches the model or the
        # run RNG.  So online is probed only for the first segment this
        # process trains.
        final_row = None
        try:
            for task_index in range(start_task, n_tasks):
                seen = stream.segments[:task_index + 1]
                online_row = final_row
                if record and online_row is None:
                    online_row = self._probe(stream, panel)
                self._run_task(seen[-1].task, task_index, n_tasks)
                columns = panel if record else sorted(
                    {segment.eval_alias for segment in seen})
                final_row = self._probe(stream, columns)
                result.record_row([final_row[segment.eval_alias]
                                   for segment in seen])
                result.elapsed_seconds = prior_elapsed + (time.perf_counter() - start)
                if record:
                    # Matrix first, checkpoint second: a crash between the
                    # two leaves the matrix one row ahead, which resume
                    # truncates back to the checkpoint's row count — the
                    # reverse order would lose a row it cannot recompute.
                    transfer.record_row(online_row, final_row)
                    self._save_transfer(transfer)
                self._save_checkpoint(task_index, n_tasks, result)
                # Whole-process crash site (chaos scenarios): fires between
                # the checkpoint commit and the next task, the window a
                # SIGKILL would most likely land in on a long run.
                _faults.fault_point("trainer.task.boundary")
                if self.verbose:
                    print(f"[{method.name}] task {task_index + 1}/{n_tasks}: "
                          f"Acc={result.acc_at(task_index):.4f} Fgt={result.fgt_at(task_index):.4f}")
        finally:
            if self._sharded_step is not None:
                self._sharded_step.close()
                self._sharded_step = None
            self._shard_active = False

        result.elapsed_seconds = prior_elapsed + (time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # Stream plumbing (boundary controllers and the transfer matrix)
    # ------------------------------------------------------------------
    def _make_controller(self, stream: ScenarioStream):
        if stream.boundary_mode == "task_free":
            return TaskFreeBoundaryController(
                stream, DriftDetector(stream.drift_threshold))
        return SharpBoundaryController()

    def _make_transfer(self, stream: ScenarioStream) -> TransferMatrix:
        eval_names = [f"task-{task.task_id}" for task in stream.eval_tasks]
        chance = [1.0 / max(1, len(task.classes))
                  for task in stream.eval_tasks]
        return TransferMatrix(
            len(stream), eval_names, name=self.method.name,
            scenario=stream.scenario, probe=self.config.probe,
            row_sources=[segment.source_task for segment in stream.segments],
            chance=chance)

    def _probe(self, stream: ScenarioStream, columns) -> list[float]:
        """One panel row: the probe's accuracy on ``columns``, NaN elsewhere."""
        accuracies = evaluate_tasks(self.method.objective,
                                    [stream.eval_tasks[c] for c in columns],
                                    knn_k=self.config.knn_k,
                                    probe=self.config.probe)
        row = [float("nan")] * len(stream.eval_tasks)
        for column, accuracy in zip(columns, accuracies):
            row[column] = accuracy
        return row

    def _transfer_path(self) -> pathlib.Path | None:
        if self.checkpoints is None:
            return None
        return self.checkpoints.directory / "transfer-matrix.json"

    def _save_transfer(self, transfer: TransferMatrix) -> None:
        path = self._transfer_path()
        if path is None:
            return
        try:
            save_transfer_matrix(transfer, path)
        except OSError as exc:
            # Best-effort, like checkpoints: a failed matrix write must
            # not kill a training run.  Resume backfills what it cannot
            # recover (see _restore_transfer).
            self.log.append("transfer-save-failed", detail=clip_detail(exc))

    def _restore_transfer(self, transfer: TransferMatrix,
                          start_task: int) -> None:
        """Reload the on-disk matrix and align it with the checkpoint.

        The matrix is written *before* each checkpoint, so it is normally
        at or ahead of the checkpoint's row count: ahead gets truncated
        (the re-run segments re-record identical rows).  Behind means an
        earlier save failed — those model states are gone, so the lost
        rows are backfilled as NaN and logged rather than silently
        misaligned.
        """
        path = self._transfer_path()
        loaded = None
        if path is not None and path.exists():
            try:
                loaded = load_transfer_matrix(path)
            except (OSError, ValueError, KeyError) as exc:
                self.log.append("transfer-load-failed",
                                detail=clip_detail(exc))
        if loaded is not None and (loaded.n_rows != transfer.n_rows
                                   or loaded.n_eval != transfer.n_eval):
            self.log.append(
                "transfer-load-failed",
                detail=f"matrix shape {loaded.n_rows}x{loaded.n_eval} does "
                       f"not match stream {transfer.n_rows}x{transfer.n_eval}")
            loaded = None
        if loaded is not None:
            transfer.load_state_dict(loaded.state_dict())
        if transfer.rows_recorded > start_task:
            transfer.truncate(start_task)
        elif transfer.rows_recorded < start_task:
            self.log.append("transfer-backfilled",
                            rows=start_task - transfer.rows_recorded)
            transfer.backfill(start_task)

    def _log_step_event(self, kind: str, **fields) -> None:
        """Operational events from the sharded step (e.g. pool-degraded)."""
        self.log.append(kind, task_index=self._task_index, **fields)

    # ------------------------------------------------------------------
    # One task, with the guardrail escalation ladder
    # ------------------------------------------------------------------
    def _run_task(self, task, task_index: int, n_tasks: int) -> None:
        config = self.config
        method = self.method
        policy = self.guardrails
        self._task_index = task_index
        method.augment = _build_augment(config, task.train.x)

        # Sharded regime: engages only when the config asks for it, the
        # method is shard-safe, and guardrails don't require per-op anomaly
        # inspection (the shards run out of process, beyond its reach).
        # Ineligibility falls back to the classic step with a logged reason,
        # never an error — semantics stay identical either way.
        self._shard_active = False
        if config.workers is not None:
            reason = None
            if not method.shard_safe:
                reason = f"method {method.name!r} is not shard-safe"
            elif policy is not None and policy.anomaly_mode:
                reason = "guardrail anomaly mode requires eager in-process dispatch"
            if reason is not None:
                self.log.append("shard-fallback", task_index=task_index,
                                detail=reason)
            else:
                if self._sharded_step is None:
                    self._sharded_step = ShardedStep(
                        method.objective, config, task.train.x.shape[1:],
                        workers=config.workers, use_tape=config.use_tape,
                        on_event=self._log_step_event)
                self._shard_active = True

        # Fresh tape per task: the trainable parameter set (heads, frozen
        # backbones) can change at task boundaries, and a stale tape would
        # fail its validity check every batch anyway.  The sharded step
        # tapes per shard shape inside its executors instead.
        self._taped_step = None
        if config.use_tape and method.tape_safe and not self._shard_active:
            self._taped_step = TapedFunction(self._eager_loss_backward,
                                             name=f"{method.name}-step")

        # Task-start snapshot: equivalent to the last good checkpoint (same
        # boundary), held in memory so a restore never touches disk.  The
        # boundary controller's state joins it: begin_segment can fire
        # method hooks and advance the drift detector, and a restore must
        # replay both identically.
        snapshot = None
        if policy is not None:
            snapshot = {"method": method.state_dict(),
                        "rng": get_rng_state(self.rng),
                        "stream": self._controller.state_dict()}

        restores = 0
        while True:
            self._controller.begin_segment(method, task, task_index, n_tasks)
            optimizer = _build_optimizer(config, method.trainable_parameters())
            if restores:
                optimizer.lr *= policy.lr_backoff ** restores
            schedule = _build_schedule(config, optimizer)
            # One draw keys every epoch's shuffle: the order becomes a pure
            # function of (seed, epoch) instead of the trainer RNG's rolling
            # state, so iteration order can never drift with worker count or
            # with how much RNG the steps in between consumed.
            loader_seed = int(self.rng.integers(2 ** 63))
            loader = DataLoader(task.train, config.batch_size, shuffle=True,
                                seed=loader_seed)
            method.objective.train()

            if self._train_task_epochs(loader, schedule, optimizer, task_index):
                self._controller.end_segment(method, task, task_index,
                                             task_index == n_tasks - 1)
                return

            # Too many poisoned batches: escalate to restore + LR backoff.
            if restores >= policy.max_restores_per_task:
                self._abort(task_index, restores)
            restores += 1
            method.load_state_dict(snapshot["method"])
            set_rng_state(self.rng, snapshot["rng"])
            self._controller.load_state_dict(snapshot["stream"])
            self.log.append("restore", task_index=task_index, restores=restores,
                            lr_scale=policy.lr_backoff ** restores)
            if self.verbose:
                print(f"[{method.name}] task {task_index + 1}: diverged, "
                      f"restored task-start state (retry {restores}, "
                      f"lr x{policy.lr_backoff ** restores:g})")

        # unreachable

    def _train_task_epochs(self, loader, schedule, optimizer,
                           task_index: int) -> bool:
        """Run the epoch loop; ``False`` means the skip budget was exhausted."""
        config = self.config
        policy = self.guardrails
        skips = 0
        for epoch in range(config.epochs):
            schedule.step(epoch)
            loader.set_epoch(epoch)
            try:
                for batch_index, (x_batch, _y_batch) in enumerate(loader):
                    event = self._guarded_step(x_batch, optimizer, task_index,
                                               epoch, batch_index)
                    if event is None:
                        continue
                    skips += 1
                    if skips > policy.max_skips_per_task:
                        self.log.append("skip-budget-exhausted",
                                        task_index=task_index,
                                        epoch=epoch, skips=skips)
                        return False
            except OSError as exc:
                # A persistent read fault survived the loader's bounded
                # retries: the rest of this epoch is unreadable.  Under a
                # guardrail policy it enters the ladder like a poisoned
                # batch (skip the epoch, charge the skip budget); unguarded
                # runs propagate it — data loss is not silently ignorable.
                if policy is None:
                    raise
                skips += 1
                self.log.append("loader-fault", action="skip-epoch",
                                task_index=task_index, epoch=epoch,
                                detail=clip_detail(exc))
                if skips > policy.max_skips_per_task:
                    self.log.append("skip-budget-exhausted",
                                    task_index=task_index,
                                    epoch=epoch, skips=skips)
                    return False
        return True

    def _eager_loss_backward(self, view1, view2, x_batch):
        """The raw step body: loss forward + backward, eager dispatch."""
        loss = self.method.batch_loss(view1, view2, x_batch)
        loss.backward()
        return loss

    def _loss_backward(self, view1, view2, x_batch):
        """Forward + backward, sharded or tape-replayed when eligible.

        All three dispatch targets land gradients in the same leaf
        ``.grad`` buffers.  The sharded step only engages for shard-safe
        methods, whose ``batch_loss`` ignores ``x_batch`` by definition.
        For the taped path all three batch arrays are declared as tape
        inputs so the validity check covers them even when ``batch_loss``
        ignores ``x_batch``.
        """
        if self._shard_active:
            return self._sharded_step.loss_backward(view1, view2)
        if self._taped_step is not None:
            return self._taped_step(view1, view2, x_batch)
        return self._eager_loss_backward(view1, view2, x_batch)

    def _guarded_step(self, x_batch, optimizer, task_index: int, epoch: int,
                      batch_index: int) -> dict | None:
        """One optimizer step; returns the logged event if the batch was skipped."""
        method = self.method
        policy = self.guardrails
        view1, view2 = method.augment(x_batch, self.rng)
        optimizer.zero_grad()

        if policy is None:
            self._loss_backward(view1, view2, x_batch)
            method.before_step()
            optimizer.step()
            method.after_step()
            return None

        try:
            if policy.anomaly_mode:
                # Anomaly mode inspects every eager dispatch, so this path
                # never tapes (a capture under anomaly marks itself unsafe).
                with detect_anomaly():
                    loss = method.batch_loss(view1, view2, x_batch)
                    self._check_loss(loss, policy)
                    loss.backward()
            else:
                # The taped step runs forward and backward as one unit, so
                # the loss screen moves after backward; a violation still
                # skips the batch and zero_grad discards the gradients, so
                # the resulting state is identical.
                loss = self._loss_backward(view1, view2, x_batch)
                self._check_loss(loss, policy)
        except AnomalyError as exc:
            optimizer.zero_grad()
            return self._skip_event("anomaly", exc, task_index, epoch, batch_index)
        except GuardrailViolation as exc:
            optimizer.zero_grad()
            return self._skip_event(exc.kind, exc, task_index, epoch, batch_index)
        except WorkerFailure as exc:
            # A worker died/hung/raised mid-step.  The pool has already
            # respawned dead workers; the gradients are unusable, so this
            # batch enters the ladder like any other poisoned batch:
            # skip → (budget exhausted) restore → abort.
            optimizer.zero_grad()
            return self._skip_event("worker-failure", exc, task_index, epoch,
                                    batch_index)

        norm = global_grad_norm(optimizer.parameters)
        if not np.isfinite(norm) or (policy.max_grad_norm is not None
                                     and norm > policy.max_grad_norm):
            optimizer.zero_grad()
            return self._skip_event(
                "grad-explosion",
                f"global gradient norm {norm:.3e} exceeds "
                f"{policy.max_grad_norm:.3e}" if np.isfinite(norm)
                else f"global gradient norm is {norm}",
                task_index, epoch, batch_index)

        method.before_step()
        optimizer.step()
        method.after_step()
        return None

    @staticmethod
    def _check_loss(loss, policy: GuardrailPolicy) -> None:
        value = float(loss.data)
        if not np.isfinite(value):
            raise GuardrailViolation("nonfinite-loss", f"batch loss is {value}")
        if policy.max_loss is not None and abs(value) > policy.max_loss:
            raise GuardrailViolation(
                "loss-explosion",
                f"batch loss {value:.3e} exceeds {policy.max_loss:.3e}")

    def _skip_event(self, kind: str, detail, task_index: int, epoch: int,
                    batch_index: int) -> dict:
        return self.log.append(kind, action="skip-batch", task_index=task_index,
                               epoch=epoch, batch=batch_index,
                               detail=clip_detail(detail))

    def _abort(self, task_index: int, restores: int) -> None:
        report = build_failure_report(self.method.name, task_index, restores,
                                      self.guardrails, self.log)
        report_path = self.log.write_failure_report(report)
        self.log.append("abort", task_index=task_index, restores=restores,
                        report=None if report_path is None else str(report_path))
        raise TrainingDiverged(report["message"], report=report,
                               report_path=report_path)


def build_trainer(name: str, config: ContinualConfig,
                  sample_shape: tuple[int, ...], seed: int = 0,
                  verbose: bool = False,
                  checkpoint_dir: str | pathlib.Path | None = None,
                  guardrails: GuardrailPolicy | None = None) -> ContinualTrainer:
    """``default_rng(seed)`` → objective → method → trainer, in that order.

    Every entry point builds its trainer here, so the objective's and the
    method's initial draws come off the generator the trainer then keeps,
    and a run is a pure function of ``seed``.
    """
    rng = np.random.default_rng(seed)
    objective = build_objective(config, sample_shape, rng)
    method = make_method(name, objective, config, rng)
    return ContinualTrainer(method, config, rng, verbose=verbose,
                            checkpoint_dir=checkpoint_dir,
                            guardrails=guardrails)


def run_method(name: str, sequence: TaskSequence, config: ContinualConfig,
               seed: int = 0, verbose: bool = False,
               checkpoint_dir: str | pathlib.Path | None = None,
               resume: bool = False,
               guardrails: GuardrailPolicy | None = None) -> ContinualResult:
    """One-call convenience: build objective + method, train, return result.

    ``checkpoint_dir``/``resume``/``guardrails`` are forwarded to
    :class:`ContinualTrainer`; a resumed run rebuilds the objective and
    method from the same seed, then the checkpoint overwrites every piece of
    state (including the RNG stream), so the continuation is bit-for-bit
    identical to the uninterrupted run.  Runs the plain class-incremental
    sequence only: a config naming another scenario is rejected.
    """
    if config.scenario != "class_incremental":
        raise ValueError(
            f"config.scenario is {config.scenario!r} but run_method trains "
            f"the plain class-incremental sequence; use "
            f"repro.scenarios.run_scenario_method for scenario runs")
    trainer = build_trainer(name, config, sequence[0].train.x.shape[1:], seed,
                            verbose=verbose, checkpoint_dir=checkpoint_dir,
                            guardrails=guardrails)
    return trainer.run(sequence, resume=resume)
