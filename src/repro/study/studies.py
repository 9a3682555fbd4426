"""The bundled study registry: every paper artifact and extension.

Each study declares *what* to measure; :func:`repro.study.core.run_study`
decides *how* (engine, workers).  Scenario-shaped studies (Figure 7, the
checkpoint-overhead measurement, the design-space sweeps, the fleet
study) expand into :class:`~repro.fleet.scenario.Scenario` lists and run
through :class:`~repro.fleet.runner.FleetRunner` — continuous-power cells
use the ``"mains"`` trace kind (no harvester).  Direct studies (Tables
I/II, Figure 8, the ablations) compute in their own ``run(ctx)`` and
append each row to their :class:`~repro.study.table.ResultTable` as it
is measured; :mod:`repro.experiments` only supplies the shared
building blocks (``prepare_quantized``, ``make_dataset``,
``run_inference``) and the paper's published numbers.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import RUNTIME_ORDER, TASKS
from repro.experiments.reporting import format_table
from repro.fleet.scenario import Scenario, TraceSpec
from repro.obs import metrics as _obs
from repro.study.core import Study, StudyContext, register
from repro.study.table import ResultTable


def _first_result(res):
    """The single per-inference record of a one-sample scenario, or ``None``.

    ``None`` means the scenario *failed* (``res.error`` is set and its
    stats are empty — see :class:`~repro.fleet.report.ScenarioResult`).
    Collectors map that to a DNF-style row with ``completed=False`` and
    zeroed measurements, so a study table keeps one row per scenario even
    when a cell raised under ``on_error="record"``.
    """
    if res.stats.results:
        return res.stats.results[0]
    return None


def _single_task(ctx: StudyContext, study_name: str) -> str:
    """The one task a single-task study runs on (default MNIST).

    Rejecting a multi-task profile beats silently dropping all but the
    first entry — the caller would read task-one numbers as a sweep.
    """
    tasks = ctx.tasks(("mnist",))
    if len(tasks) != 1:
        raise ConfigurationError(
            f"study {study_name!r} takes exactly one task, got {tasks!r}"
        )
    return tasks[0]


def _distinct_tasks(ctx: StudyContext) -> Tuple[str, ...]:
    """The profile's tasks (default all three), each once: a per-task
    table has one row per task even if the profile repeats one."""
    return tuple(dict.fromkeys(ctx.tasks(TASKS)))


def _ace_run(qmodel, x, **runtime_options):
    """One ACE inference of ``x`` on a fresh, continuously powered board."""
    from repro.ace import AceRuntime
    from repro.hw.board import msp430fr5994
    from repro.sim import IntermittentMachine

    runtime = AceRuntime(qmodel, **runtime_options)
    return IntermittentMachine(msp430fr5994(), runtime).run(x)


# ---------------------------------------------------------------------------
# Table I — BCM compression
# ---------------------------------------------------------------------------


def _table1_run(ctx: StudyContext) -> ResultTable:
    from repro.bcm import compression_table

    table = ResultTable((
        ("kernel_bytes", "int"),
        ("block_size", "int"),
        ("compressed_bytes", "int"),
        ("reduction_pct", "float"),
    ))
    for r in compression_table(512, 512):
        table.append(
            kernel_bytes=r.kernel_bytes,
            block_size=r.block_size,
            compressed_bytes=r.compressed_bytes,
            reduction_pct=100.0 * r.storage_reduction,
        )
    return table


def _table1_render(table: ResultTable) -> str:
    return format_table(
        ["Kernel Size (B)", "Block size", "Compressed kernel (B)",
         "Storage reduction"],
        [
            (r["kernel_bytes"], r["block_size"], r["compressed_bytes"],
             f"{r['reduction_pct']:.2f}%")
            for r in table
        ],
        title="Table I — BCM compression for 512x512 fully connected layer",
    )


register(Study(
    name="table1",
    title="BCM storage reduction of a 512x512 FC layer",
    artifact="Table I",
    benchmark="bench_table1_bcm_compression.py",
    params=(),  # pure algebra: no tasks, no seed, no machine
    run=_table1_run,
    render=_table1_render,
))


# ---------------------------------------------------------------------------
# Table II — model structures and accuracies
# ---------------------------------------------------------------------------


def _describe_structure(model) -> str:
    """Table II's layer inventory of a trained RAD model."""
    from repro.nn.layers import BCMDense, Conv2D

    lines = []
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            o, i, kh, kw = layer.weight.shape
            pruned = layer.weight.mask is not None
            tag = " [structured pruning 2x]" if pruned else ""
            lines.append(f"Conv {o}x{i}x{kh}x{kw}{tag}")
        elif isinstance(layer, BCMDense):
            lines.append(
                f"FC {layer.in_features}x{layer.out_features} "
                f"[BCM {layer.block_size}x]"
            )
        elif type(layer).__name__ == "Dense":
            lines.append(f"FC {layer.in_features}x{layer.out_features}")
    return "; ".join(lines)


def _table2_row(task: str, full: bool, seed: int) -> dict:
    """Train, prune, and quantize one task's model (the RAD pipeline).

    Every task draws only from its own seed, so :func:`_table2_rows` can
    train any task on its spawned worker with the same bits.
    """
    from dataclasses import replace

    import numpy as np

    from repro.experiments.common import FAST, FULL, make_dataset
    from repro.experiments.table2 import PAPER_ACCURACY
    from repro.nn.data import train_test_split
    from repro.rad import RADConfig, run_rad

    profile = replace(FULL if full else FAST, seed=seed)
    ds = make_dataset(task, profile.n_samples, seed=profile.seed)
    train, test = train_test_split(
        ds.x, ds.y, ds.num_classes,
        rng=np.random.default_rng(profile.seed), name=task,
    )
    result = run_rad(RADConfig(
        task=task,
        epochs=profile.epochs,
        admm_iterations=profile.admm_iterations,
        admm_epochs=profile.admm_epochs,
        finetune_epochs=profile.finetune_epochs,
        seed=profile.seed,
    ), train, test)
    return dict(
        task=task,
        structure=_describe_structure(result.model),
        float_acc=result.float_accuracy,
        quantized_acc=result.quantized_accuracy,
        paper_acc=PAPER_ACCURACY[task],
        fram_bytes=result.quantized.weight_bytes,
    )


def _table2_worker(conn, tasks: Tuple[str, ...], full: bool, seed: int,
                   obs_on: bool) -> None:
    """The spawned worker: sends ``(row, snapshot)`` down ``conn`` for
    each task in order, where ``snapshot`` is the worker's cumulative
    metrics when obs is on (else ``None``).  A task's exception is sent
    in place of its row and ends the run."""
    if obs_on:
        _obs.enable()
    for task in tasks:
        try:
            row = _table2_row(task, full, seed)
        except Exception as exc:
            conn.send(exc)
            return
        conn.send((row, _obs.snapshot() if obs_on else None))


def _table2_rows(tasks: Tuple[str, ...], full: bool, seed: int) -> List[dict]:
    """Every task's row, in task order.

    This process trains the first task (MNIST by default, the longest)
    while one ``spawn``-started worker trains the rest; not ``fork``,
    because ``repro serve`` runs studies on threads.  The worker is a
    daemon, so interpreter exit terminates it instead of waiting for its
    tasks (``repro serve`` exits with timed-out jobs still running).  A
    task's exception propagates as in a serial loop.  If the worker is
    lost, or never starts, this process trains its unfinished tasks
    itself: the same bits, since each row depends only on
    ``(task, full, seed)``.
    """
    if len(tasks) == 1:
        return [_table2_row(tasks[0], full, seed)]
    from multiprocessing import get_context

    first, rest = tasks[0], tasks[1:]
    ctx = get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_table2_worker,
                         args=(send, rest, full, seed, _obs.ENABLED),
                         name="repro-table2", daemon=True)
    snap = None
    try:
        try:
            worker.start()
        except Exception:  # the worker cannot start: its tasks train here
            pass
        # Only the worker holds the write end now, so recv() raises
        # EOFError once the worker is gone.
        send.close()
        rows = [_table2_row(first, full, seed)]
        for task in rest:
            try:
                sent = recv.recv()
            except (EOFError, OSError):
                # The worker is lost (OSError: mid-message): train here.
                rows.append(_table2_row(task, full, seed))
                if _obs.ENABLED:
                    _obs.count("faults.recovered")
                    _obs.count("faults.recovered.table2.worker")
                continue
            if isinstance(sent, Exception):
                raise sent
            row, snap = sent
            rows.append(row)
    finally:
        recv.close()
        if worker.pid is not None:
            worker.terminate()  # its rows are in, or no longer wanted
            worker.join()
    if snap is not None:
        # Cumulative: the last snapshot holds all of the worker's work.
        _obs.absorb(snap)
    return rows


def _table2_run(ctx: StudyContext) -> ResultTable:
    """Train, prune, and quantize each task's model (the RAD pipeline)."""
    table = ResultTable((
        ("task", "str"),
        ("structure", "str"),
        ("float_acc", "float"),
        ("quantized_acc", "float"),
        ("paper_acc", "float"),
        ("fram_bytes", "int"),
    ))
    for row in _table2_rows(_distinct_tasks(ctx), ctx.profile.full,
                            ctx.profile.seed):
        table.append(**row)
    return table


def _table2_render(table: ResultTable) -> str:
    return format_table(
        ["Task", "Structure", "Float acc", "Quantized acc", "Paper acc",
         "Weights (B)"],
        [
            (r["task"].upper(), r["structure"],
             f"{100 * r['float_acc']:.1f}%",
             f"{100 * r['quantized_acc']:.1f}%",
             f"{100 * r['paper_acc']:.0f}%",
             r["fram_bytes"])
            for r in table
        ],
        title="Table II — structure and accuracy of the DNN models",
    )


register(Study(
    name="table2",
    title="Model structures, compression, and accuracies (trains)",
    artifact="Table II",
    benchmark="bench_table2_models.py",
    params=("tasks", "seed", "full"),
    run=_table2_run,
    render=_table2_render,
))


# ---------------------------------------------------------------------------
# Figure 7 — runtime comparison (scenario-shaped: fleet-executed)
# ---------------------------------------------------------------------------

_FIG7_COLUMNS = (
    ("task", "str"),
    ("regime", "str"),
    ("runtime", "str"),
    ("completed", "bool"),
    ("wall_ms", "float"),
    ("active_ms", "float"),
    ("energy_mj", "float"),
    ("checkpoint_mj", "float"),
    ("reboots", "int"),
    ("cpu_mj", "float"),
    ("lea_mj", "float"),
    ("dma_mj", "float"),
    ("fram_mj", "float"),
    ("sram_mj", "float"),
)

_FIG7_COMPONENTS = ("cpu", "lea", "dma", "fram", "sram")

#: The two power regimes of Figure 7: tethered (a, c) and the paper's
#: 100 uF square-wave testbed supply (b).
_FIG7_REGIMES = (
    ("continuous", TraceSpec("mains")),
    ("intermittent", TraceSpec("square")),
)


def _fig7_scenarios(ctx: StudyContext) -> List[Scenario]:
    seed = ctx.profile.seed
    return [
        Scenario(
            name=f"{task}/{regime}/{runtime}",
            task=task,
            runtime=runtime,
            trace=trace,
            cap_uf=100.0,
            n_samples=1,
            seed=seed,
            model_seed=seed,
        )
        for task in ctx.tasks(TASKS)
        for regime, trace in _FIG7_REGIMES
        for runtime in RUNTIME_ORDER
    ]


def _fig7_collect(report, ctx: StudyContext, cache) -> ResultTable:
    table = ResultTable(_FIG7_COLUMNS)
    for res in report.results:
        r = _first_result(res)
        task, regime, runtime = res.scenario.name.split("/")
        if r is None:
            table.append(
                task=task, regime=regime, runtime=runtime, completed=False,
                wall_ms=0.0, active_ms=0.0, energy_mj=0.0, checkpoint_mj=0.0,
                reboots=0,
                **{f"{c}_mj": 0.0 for c in _FIG7_COMPONENTS},
            )
            continue
        comp = r.energy_by_component
        table.append(
            task=task,
            regime=regime,
            runtime=runtime,
            completed=r.completed,
            wall_ms=r.wall_time_s * 1e3,
            active_ms=r.active_time_s * 1e3,
            energy_mj=r.energy_j * 1e3,
            checkpoint_mj=r.checkpoint_energy_j * 1e3,
            reboots=r.reboots,
            **{f"{c}_mj": comp.get(c, 0.0) * 1e3 for c in _FIG7_COMPONENTS},
        )
    return table


def _fig7_render_a(table: ResultTable) -> str:
    from repro.experiments.fig7 import PAPER_FIG7A_SPEEDUPS

    rows = []
    cont = table.filter(lambda r: r["regime"] == "continuous")
    for task, group in cont.group_by("task").items():
        flex_wall = {r["runtime"]: r["wall_ms"] for r in group}["ACE+FLEX"]
        for r in group:
            paper = PAPER_FIG7A_SPEEDUPS.get(task, {}).get(r["runtime"])
            rows.append((
                task.upper(),
                r["runtime"],
                f"{r['wall_ms']:.1f}",
                f"{r['wall_ms'] / flex_wall:.2f}x",
                f"{paper:.1f}x" if paper else "-",
            ))
    return format_table(
        ["Task", "Runtime", "Time (ms)", "vs ACE+FLEX", "Paper"],
        rows,
        title="Figure 7(a) — inference time on continuous power",
    )


def _fig7_render_b(table: ResultTable) -> str:
    from repro.experiments.fig7 import PAPER_FIG7B_SPEEDUPS

    rows = []
    inter = table.filter(lambda r: r["regime"] == "intermittent")
    for task, group in inter.group_by("task").items():
        flex = {r["runtime"]: r for r in group}["ACE+FLEX"]
        for r in group:
            paper = PAPER_FIG7B_SPEEDUPS.get(task, {}).get(r["runtime"])
            if r["completed"]:
                speed = (r["active_ms"] / flex["active_ms"]
                         if flex["completed"] else None)
                rows.append((
                    task.upper(),
                    r["runtime"],
                    f"{r['wall_ms']:.1f}",
                    f"{r['reboots']}",
                    f"{speed:.2f}x" if speed else "-",
                    f"{paper:.1f}x" if paper else "-",
                ))
            else:
                rows.append((
                    task.upper(), r["runtime"], "DNF (X)", f"{r['reboots']}",
                    "-", "X" if r["runtime"] in ("BASE", "ACE") else "-",
                ))
    return format_table(
        ["Task", "Runtime", "Wall time (ms)", "Reboots", "active vs FLEX",
         "Paper"],
        rows,
        title="Figure 7(b) — inference time on intermittent power (100 uF)",
    )


def _fig7_render_c(table: ResultTable) -> str:
    rows = []
    cont = table.filter(lambda r: r["regime"] == "continuous")
    for task, group in cont.group_by("task").items():
        for r in group:
            rows.append((
                task.upper(),
                r["runtime"],
                f"{r['energy_mj']:.3f}",
                *[f"{r[f'{c}_mj']:.3f}" for c in _FIG7_COMPONENTS],
                f"{r['checkpoint_mj']:.4f}",
            ))
    return format_table(
        ["Task", "Runtime", "Total (mJ)",
         *[c.upper() for c in _FIG7_COMPONENTS], "Checkpoint (mJ)"],
        rows,
        title="Figure 7(c) — energy breakdown (continuous power)",
    )


def _fig7_render(table: ResultTable) -> str:
    return "\n\n".join([
        _fig7_render_a(table), _fig7_render_b(table), _fig7_render_c(table),
    ])


register(Study(
    name="fig7",
    title="Runtime comparison: continuous time, intermittent time, energy",
    artifact="Figure 7",
    benchmark="bench_fig7a_continuous.py",
    scenarios=_fig7_scenarios,
    collect=_fig7_collect,
    render=_fig7_render,
))


# ---------------------------------------------------------------------------
# Figure 8 — FC1 vs BCM block size
# ---------------------------------------------------------------------------


def _fig8_run(ctx: StudyContext) -> ResultTable:
    """Measure the isolated FC1 layer under each block size, on
    ``ctx.engine`` (both engines are bit-identical)."""
    import numpy as np

    from repro.ace import AceRuntime
    from repro.experiments.fig8 import BLOCK_SIZES, IN_FEATURES, OUT_FEATURES
    from repro.hw.board import msp430fr5994
    from repro.nn import BCMDense, Dense, Sequential
    from repro.rad.quantize import quantize_model
    from repro.sim import make_machine

    seed = ctx.profile.seed
    rng = np.random.default_rng(seed)
    calib = np.random.default_rng(seed + 1).uniform(
        -0.9, 0.9, (16, IN_FEATURES)
    )
    table = ResultTable((
        ("variant", "str"),
        ("block_size", "int"),
        ("latency_ms", "float"),
        ("energy_uj", "float"),
        ("weight_bytes", "int"),
    ))
    for block in BLOCK_SIZES:
        if block is None:
            layer = Dense(IN_FEATURES, OUT_FEATURES, rng=rng)
        else:
            layer = BCMDense(IN_FEATURES, OUT_FEATURES, block, rng=rng)
        model = Sequential([layer], name=f"fc1-{block or 'dense'}")
        qmodel = quantize_model(model, (IN_FEATURES,), calib)
        runtime = AceRuntime(qmodel)
        result = make_machine(msp430fr5994(), runtime,
                              engine=ctx.engine).run(calib[0])
        table.append(
            variant="dense" if block is None else f"BCM {block}",
            block_size=0 if block is None else block,
            latency_ms=result.wall_time_s * 1e3,
            energy_uj=result.energy_j * 1e6,
            weight_bytes=qmodel.weight_bytes,
        )
    return table


def _fig8_render(table: ResultTable) -> str:
    dense = {r["variant"]: r for r in table}["dense"]
    return format_table(
        ["Variant", "Latency (ms)", "speedup", "Energy (uJ)", "saving",
         "Weights (B)"],
        [
            (r["variant"],
             f"{r['latency_ms']:.2f}",
             f"{dense['latency_ms'] / r['latency_ms']:.1f}x",
             f"{r['energy_uj']:.2f}",
             f"{dense['energy_uj'] / r['energy_uj']:.1f}x",
             r["weight_bytes"])
            for r in table
        ],
        title="Figure 8 — first FC layer of MNIST vs BCM block size",
    )


register(Study(
    name="fig8",
    title="FC1 latency/energy vs BCM block size",
    artifact="Figure 8",
    benchmark="bench_fig8_fc_blocksize.py",
    params=("seed",),  # an isolated layer, not a task model
    engine_aware=True,
    run=_fig8_run,
    render=_fig8_render,
))


# ---------------------------------------------------------------------------
# Section IV-A.5 — checkpoint overhead (scenario-shaped)
# ---------------------------------------------------------------------------


def _overhead_scenarios(ctx: StudyContext) -> List[Scenario]:
    seed = ctx.profile.seed
    return [
        Scenario(
            name=f"{task}/overhead",
            task=task,
            runtime="ACE+FLEX",
            trace=TraceSpec("square"),
            cap_uf=100.0,
            n_samples=1,
            seed=seed,
            model_seed=seed,
        )
        for task in ctx.tasks(TASKS)
    ]


def _overhead_collect(report, ctx: StudyContext, cache) -> ResultTable:
    from repro.experiments.checkpoint_overhead import (
        PAPER_OVERHEAD,
        worst_case_checkpoint_mj,
    )

    table = ResultTable((
        ("task", "str"),
        ("worst_ckpt_mj", "float"),
        ("total_overhead", "float"),
        ("reboots", "int"),
        ("completed", "bool"),
        ("paper_overhead", "float"),
    ))
    for res in report.results:
        r = _first_result(res)
        if r is None:
            table.append(
                task=res.scenario.task, worst_ckpt_mj=0.0,
                total_overhead=0.0, reboots=0, completed=False,
                paper_overhead=PAPER_OVERHEAD.get(res.scenario.task, 0.0),
            )
            continue
        qmodel = cache.get(res.scenario)  # shared: resolved once by the runner
        table.append(
            task=res.scenario.task,
            worst_ckpt_mj=worst_case_checkpoint_mj(qmodel),
            total_overhead=r.checkpoint_overhead,
            reboots=r.reboots,
            completed=r.completed,
            paper_overhead=PAPER_OVERHEAD.get(res.scenario.task, 0.0),
        )
    return table


def _overhead_render(table: ResultTable) -> str:
    from repro.experiments.checkpoint_overhead import PAPER_MAX_COST_MJ

    return format_table(
        ["Task", "Worst ckpt (mJ)", "Paper bound (mJ)", "Total overhead",
         "Paper overhead", "Reboots"],
        [
            (r["task"].upper(),
             f"{r['worst_ckpt_mj']:.4f}",
             f"{PAPER_MAX_COST_MJ:.3f}",
             f"{100 * r['total_overhead']:.2f}%",
             f"{100 * r['paper_overhead']:.2f}%",
             r["reboots"])
            for r in table
        ],
        title="Checkpoint/restore overhead of FLEX (Section IV-A.5)",
    )


register(Study(
    name="overhead",
    title="FLEX checkpoint/restore overhead under harvested power",
    artifact="Section IV-A.5",
    benchmark="bench_checkpoint_overhead.py",
    scenarios=_overhead_scenarios,
    collect=_overhead_collect,
    render=_overhead_render,
))


# ---------------------------------------------------------------------------
# Ablations A1-A5 of the design choices (direct)
# ---------------------------------------------------------------------------

#: A1's input batch: the float and fixed-point forward passes both see
#: this many samples of the task's dataset.
_OVERFLOW_SAMPLES = 32

#: A4's FLEX voltage-warning thresholds (V), low (late) to high (eager).
_V_WARNS = (1.9, 2.2, 2.6, 3.0)


def _ablation_overflow_run(ctx: StudyContext) -> ResultTable:
    """A1: run the BCM pipeline with Algorithm 1's scaling on
    (``stage``/``prescale``) and off (``none``) against the float
    forward pass; count saturations and the output corruption."""
    import numpy as np

    from repro.experiments.common import make_dataset
    from repro.fixedpoint import OverflowMonitor
    from repro.rad.quantize import quantize_model
    from repro.rad.zoo import INPUT_SHAPES, build_model

    task = _single_task(ctx, "ablation-overflow")
    seed = ctx.profile.seed
    ds = make_dataset(task, _OVERFLOW_SAMPLES, seed=seed)
    model = build_model(task, rng=np.random.default_rng(seed))
    qmodel = quantize_model(model, INPUT_SHAPES[task], ds.x[:16], name=task)
    x = ds.x[:_OVERFLOW_SAMPLES]
    ref = model.forward(x)
    denom = float(np.max(np.abs(ref))) or 1.0
    table = ResultTable((
        ("mode", "str"),
        ("overflow_events", "int"),
        ("max_rel_error", "float"),
        ("argmax_agreement", "float"),
    ))
    for mode in ("stage", "prescale", "none"):
        monitor = OverflowMonitor()
        got = qmodel.forward(x, monitor=monitor, bcm_mode=mode)
        table.append(
            mode=mode,
            overflow_events=monitor.total,
            max_rel_error=float(np.max(np.abs(got - ref))) / denom,
            argmax_agreement=float(
                np.mean(np.argmax(got, 1) == np.argmax(ref, 1))
            ),
        )
    return table


def _ablation_overflow_render(table: ResultTable) -> str:
    return format_table(
        ["BCM scaling", "Overflow events", "Max rel err", "Argmax agreement"],
        [
            (r["mode"], r["overflow_events"], f"{r['max_rel_error']:.4f}",
             f"{100 * r['argmax_agreement']:.1f}%")
            for r in table
        ],
        title="A1 — overflow-aware computation (Algorithm 1 scaling)",
    )


register(Study(
    name="ablation-overflow",
    title="A1: overflow-aware BCM scaling on/off",
    artifact="Ablation A1",
    benchmark="bench_ablation_overflow.py",
    run=_ablation_overflow_run,
    render=_ablation_overflow_render,
))


def _ablation_buffers_run(ctx: StudyContext) -> ResultTable:
    """A2: activation memory of the two-buffer plan versus one buffer
    per layer."""
    from repro.ace import circular_plan, per_layer_plan
    from repro.ace.runtime import _numel
    from repro.experiments.common import prepare_quantized

    table = ResultTable((
        ("task", "str"),
        ("circular_bytes", "int"),
        ("per_layer_bytes", "int"),
        ("saving_pct", "float"),
    ))
    for task in _distinct_tasks(ctx):
        qmodel = prepare_quantized(task, seed=ctx.profile.seed)
        io_sizes = [_numel(qmodel.input_shape)] + [
            _numel(layer.out_shape) for layer in qmodel.layers
        ]
        circular = circular_plan(io_sizes).total_bytes
        per_layer = per_layer_plan(io_sizes).total_bytes
        table.append(task=task, circular_bytes=circular,
                     per_layer_bytes=per_layer,
                     saving_pct=100.0 * (1.0 - circular / per_layer))
    return table


def _ablation_buffers_render(table: ResultTable) -> str:
    return format_table(
        ["Task", "Circular (B)", "Per-layer (B)", "Saving"],
        [
            (r["task"].upper(), r["circular_bytes"], r["per_layer_bytes"],
             f"{r['saving_pct']:.1f}%")
            for r in table
        ],
        title="A2 — circular-buffer convolution memory footprint",
    )


register(Study(
    name="ablation-buffers",
    title="A2: circular two-buffer plan vs per-layer buffers",
    artifact="Ablation A2",
    benchmark="bench_ablation_buffers.py",
    run=_ablation_buffers_run,
    render=_ablation_buffers_render,
))


def _ablation_dma_run(ctx: StudyContext) -> ResultTable:
    """A3: ACE inference time and energy with the DMA engine disabled."""
    from repro.experiments.common import make_dataset, prepare_quantized

    seed = ctx.profile.seed
    table = ResultTable((
        ("task", "str"),
        ("dma_ms", "float"),
        ("cpu_ms", "float"),
        ("dma_mj", "float"),
        ("cpu_mj", "float"),
    ))
    for task in _distinct_tasks(ctx):
        qmodel = prepare_quantized(task, seed=seed)
        x = make_dataset(task, 16, seed=seed).x[0]
        dma = _ace_run(qmodel, x, use_dma=True)
        cpu = _ace_run(qmodel, x, use_dma=False)
        table.append(task=task, dma_ms=dma.wall_time_s * 1e3,
                     cpu_ms=cpu.wall_time_s * 1e3, dma_mj=dma.energy_j * 1e3,
                     cpu_mj=cpu.energy_j * 1e3)
    return table


def _ablation_dma_render(table: ResultTable) -> str:
    return format_table(
        ["Task", "DMA time (ms)", "CPU time (ms)", "time saving",
         "energy saving"],
        [
            (r["task"].upper(), f"{r['dma_ms']:.1f}", f"{r['cpu_ms']:.1f}",
             f"{r['cpu_ms'] / r['dma_ms']:.2f}x",
             f"{r['cpu_mj'] / r['dma_mj']:.2f}x")
            for r in table
        ],
        title="A3 — DMA vs CPU-driven data movement (ACE)",
    )


register(Study(
    name="ablation-dma",
    title="A3: DMA vs CPU-only data movement",
    artifact="Ablation A3",
    benchmark="bench_ablation_dma.py",
    run=_ablation_dma_run,
    render=_ablation_dma_render,
))


def _ablation_vwarn_run(ctx: StudyContext) -> ResultTable:
    """A4: sweep FLEX's on-demand checkpoint trigger under the paper's
    harvester.  A low threshold checkpoints late (risking rollback if
    the failure is not predicted); a high one checkpoints eagerly
    (paying snapshot energy long before it is needed)."""
    from repro.experiments.common import (
        make_dataset,
        paper_harvester,
        prepare_quantized,
        run_inference,
    )

    task = _single_task(ctx, "ablation-vwarn")
    seed = ctx.profile.seed
    qmodel = prepare_quantized(task, seed=seed)
    x = make_dataset(task, 16, seed=seed).x[0]
    table = ResultTable((
        ("v_warn", "float"),
        ("completed", "bool"),
        ("wall_ms", "float"),
        ("checkpoint_uj", "float"),
        ("wasted_cycles", "float"),
        ("reboots", "int"),
    ))
    for v_warn in _V_WARNS:
        r = run_inference("ACE+FLEX", qmodel, x,
                          harvester=paper_harvester(), v_warn=v_warn)
        table.append(v_warn=v_warn, completed=r.completed,
                     wall_ms=r.wall_time_s * 1e3,
                     checkpoint_uj=r.checkpoint_energy_j * 1e6,
                     wasted_cycles=r.wasted_cycles, reboots=r.reboots)
    return table


def _ablation_vwarn_render(table: ResultTable) -> str:
    return format_table(
        ["v_warn (V)", "Completed", "Wall (ms)", "Ckpt energy (uJ)",
         "Wasted cycles", "Reboots"],
        [
            (f"{r['v_warn']:.1f}", r["completed"], f"{r['wall_ms']:.1f}",
             f"{r['checkpoint_uj']:.2f}", f"{r['wasted_cycles']:.0f}",
             r["reboots"])
            for r in table
        ],
        title="A4 — FLEX on-demand checkpoint threshold sweep",
    )


register(Study(
    name="ablation-vwarn",
    title="A4: FLEX voltage-warning threshold sweep",
    artifact="Ablation A4",
    benchmark="bench_ablation_vwarn.py",
    run=_ablation_vwarn_run,
    render=_ablation_vwarn_render,
))


def _ablation_compression_run(ctx: StudyContext) -> ResultTable:
    """A5: RAD's contribution alone — the same ACE runtime on the dense
    backbone and on the RAD-compressed model.  Only MNIST's dense
    backbone fits FRAM; on HAR/OKG the dense model cannot even deploy,
    itself the result."""
    from repro.experiments.common import make_dataset, prepare_quantized

    task = _single_task(ctx, "ablation-compression")
    seed = ctx.profile.seed
    dense = prepare_quantized(task, compressed=False, pruned=False, seed=seed)
    comp = prepare_quantized(task, compressed=True, pruned=True, seed=seed)
    x = make_dataset(task, 16, seed=seed).x[0]
    dense_s = _ace_run(dense, x, fram_budget_bytes=None).wall_time_s
    comp_s = _ace_run(comp, x, fram_budget_bytes=None).wall_time_s
    table = ResultTable((
        ("task", "str"),
        ("dense_ms", "float"),
        ("compressed_ms", "float"),
        ("dense_bytes", "int"),
        ("compressed_bytes", "int"),
    ))
    table.append(task=task, dense_ms=dense_s * 1e3,
                 compressed_ms=comp_s * 1e3,
                 dense_bytes=dense.weight_bytes,
                 compressed_bytes=comp.weight_bytes)
    return table


def _ablation_compression_render(table: ResultTable) -> str:
    return format_table(
        ["Task", "Dense (ms)", "Compressed (ms)", "Speedup", "Size reduction"],
        [
            (r["task"].upper(), f"{r['dense_ms']:.1f}",
             f"{r['compressed_ms']:.1f}",
             f"{r['dense_ms'] / r['compressed_ms']:.2f}x",
             f"{100 * (1.0 - r['compressed_bytes'] / r['dense_bytes']):.1f}%")
            for r in table
        ],
        title="A5 — RAD compression contribution (same ACE runtime)",
    )


register(Study(
    name="ablation-compression",
    title="A5: RAD compression's contribution to ACE speed",
    artifact="Ablation A5",
    benchmark="bench_ablation_compression.py",
    run=_ablation_compression_run,
    render=_ablation_compression_render,
))


# ---------------------------------------------------------------------------
# Design-space sweeps (scenario-shaped)
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = (
    ("axis", "float"),
    ("runtime", "str"),
    ("completed", "bool"),
    ("wall_ms", "float"),
    ("reboots", "int"),
)


def _sweep_collect(report, ctx: StudyContext, cache) -> ResultTable:
    """Shared collector: scenario names are ``task/<axis>/<runtime>``."""
    table = ResultTable(_SWEEP_COLUMNS)
    for res in report.results:
        r = _first_result(res)
        axis = float(res.scenario.name.split("/")[1])
        if r is None:
            table.append(axis=axis, runtime=res.scenario.runtime,
                         completed=False, wall_ms=0.0, reboots=0)
            continue
        table.append(axis=axis, runtime=res.scenario.runtime,
                     completed=r.completed, wall_ms=r.wall_time_s * 1e3,
                     reboots=r.reboots)
    return table


def _sweep_render(table: ResultTable, axis_label: str, unit: str) -> str:
    runtimes: List[str] = []
    for r in table:
        if r["runtime"] not in runtimes:
            runtimes.append(r["runtime"])
    rows = []
    for axis, group in table.group_by("axis").items():
        cells = {r["runtime"]: r for r in group}
        rendered = []
        for name in runtimes:
            r = cells[name]
            rendered.append(
                f"{r['wall_ms']:.0f}ms/{r['reboots']}rb" if r["completed"]
                else "DNF"
            )
        rows.append((f"{axis}{unit}", *rendered))
    return format_table([axis_label, *runtimes], rows,
                        title=f"Sweep over {axis_label}")


_SWEEP_CAPS_UF = (22.0, 47.0, 100.0, 330.0, 1000.0)


def _sweep_capacitor_scenarios(ctx: StudyContext) -> List[Scenario]:
    task = _single_task(ctx, "sweep-capacitor")
    seed = ctx.profile.seed
    return [
        Scenario(name=f"{task}/{cap}/{runtime}", task=task, runtime=runtime,
                 trace=TraceSpec("square"), cap_uf=cap, n_samples=1,
                 seed=seed, model_seed=seed)
        for cap in _SWEEP_CAPS_UF
        for runtime in RUNTIME_ORDER
    ]


register(Study(
    name="sweep-capacitor",
    title="Completion vs energy-storage size (22 uF .. 1 mF)",
    artifact="Extension: sweeps",
    scenarios=_sweep_capacitor_scenarios,
    collect=_sweep_collect,
    render=lambda table: _sweep_render(table, "capacitance", " uF"),
))


_SWEEP_POWERS_MW = (1.0, 2.0, 5.0, 12.0, 40.0)


def _sweep_power_scenarios(ctx: StudyContext) -> List[Scenario]:
    task = _single_task(ctx, "sweep-power")
    seed = ctx.profile.seed
    return [
        Scenario(name=f"{task}/{p_mw}/{runtime}", task=task, runtime=runtime,
                 trace=TraceSpec("square", p_mw * 1e-3), cap_uf=100.0,
                 n_samples=1, seed=seed, model_seed=seed)
        for p_mw in _SWEEP_POWERS_MW
        for runtime in RUNTIME_ORDER
    ]


register(Study(
    name="sweep-power",
    title="Completion vs harvesting strength (1 .. 40 mW)",
    artifact="Extension: sweeps",
    scenarios=_sweep_power_scenarios,
    collect=_sweep_collect,
    render=lambda table: _sweep_render(table, "harvest power", " mW"),
))


def _sweep_trace_scenarios(ctx: StudyContext) -> List[Scenario]:
    task = _single_task(ctx, "sweep-trace")
    seed = ctx.profile.seed
    traces = (
        ("square-wave", TraceSpec("square")),
        ("bursty-rf", TraceSpec("rf", 1.5e-3, 0.06, 1.0 / 3.0, seed=seed)),
        ("solar-like", TraceSpec("solar", 5e-3, 1.0)),
    )
    return [
        Scenario(name=f"{task}/{label}/ACE+FLEX", task=task,
                 runtime="ACE+FLEX", trace=trace, cap_uf=100.0, n_samples=1,
                 seed=seed, model_seed=seed)
        for label, trace in traces
    ]


def _sweep_trace_collect(report, ctx: StudyContext, cache) -> ResultTable:
    table = ResultTable((
        ("trace", "str"),
        ("runtime", "str"),
        ("completed", "bool"),
        ("wall_ms", "float"),
        ("reboots", "int"),
    ))
    for res in report.results:
        r = _first_result(res)
        if r is None:
            table.append(trace=res.scenario.name.split("/")[1],
                         runtime=res.scenario.runtime, completed=False,
                         wall_ms=0.0, reboots=0)
            continue
        table.append(trace=res.scenario.name.split("/")[1],
                     runtime=res.scenario.runtime, completed=r.completed,
                     wall_ms=r.wall_time_s * 1e3, reboots=r.reboots)
    return table


def _sweep_trace_render(table: ResultTable) -> str:
    return format_table(
        ["trace", "runtime", "result"],
        [
            (r["trace"], r["runtime"],
             f"{r['wall_ms']:.0f}ms/{r['reboots']}rb" if r["completed"]
             else "DNF")
            for r in table
        ],
        title="Sweep over harvesting-source type",
    )


register(Study(
    name="sweep-trace",
    title="ACE+FLEX across qualitatively different harvesting sources",
    artifact="Extension: sweeps",
    scenarios=_sweep_trace_scenarios,
    collect=_sweep_trace_collect,
    render=_sweep_trace_render,
))


# ---------------------------------------------------------------------------
# Fleet study (the default grid, or a corpus-driven one)
# ---------------------------------------------------------------------------


def _fleet_scenarios(ctx: StudyContext) -> List[Scenario]:
    from repro.fleet.grid import corpus_traces, default_grid

    traces = None
    if ctx.profile.corpus is not None:
        # An empty tuple sweeps the whole registered corpus.
        traces = corpus_traces(ctx.profile.corpus or None)
    return default_grid(
        tasks=ctx.tasks(("mnist",)),
        n_samples=ctx.profile.samples,
        base_seed=ctx.profile.seed,
        traces=traces,
    )


def _fleet_collect(report, ctx: StudyContext, cache) -> ResultTable:
    return report.scenario_table()


def _fleet_render(table: ResultTable) -> str:
    from repro.fleet.report import (
        FleetReport,
        render_runtime_table,
        render_scenario_table,
    )

    title = (
        f"Fleet study: {len(table)} scenarios, "
        f"{table.meta.get('unique_models', '?')} unique models, "
        f"{table.meta.get('workers', '?')} worker(s)"
    )
    return "\n\n".join([
        render_runtime_table(FleetReport.runtime_table(table), title=title),
        render_scenario_table(table),
    ])


register(Study(
    name="fleet",
    title="Fleet study: parallel scenario grid with distribution report",
    artifact="Extension: fleet",
    benchmark="bench_fleet_throughput.py",
    params=("tasks", "seed", "samples", "corpus"),
    scenarios=_fleet_scenarios,
    collect=_fleet_collect,
    render=_fleet_render,
))
