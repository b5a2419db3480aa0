"""``signoff``: one-shot sign-off jobs on the two largest circuits.

A job is what a user runs to sign off one circuit: the calls behind
``repro-sta sta`` (proposed and pin-to-pin full passes), ``report``
(critical/shortest path, required times, slack table), ``sta --corners
fast,typ,slow,slow_derated`` (one corner-batched pass) and ``mc``.
Everything runs at the public entry points' defaults except the Monte
Carlo sample count, and the report reads the proposed pass the ``sta``
call has just made instead of repeating it (see README.md).  The MC
seed is drawn from the workload seed for each job.  Jobs alternate over
the circuits in rounds until the measured time is up.

The four calls are the operations.  ``job_s`` is the mean over the two
circuits of the sum of each call's median repeat, in seconds at the
reference host speed (see ``bench_common``'s timing rule).
"""

from __future__ import annotations

import bench_common as bc

CIRCUITS = ("c5315s", "c7552s")
TINY_CIRCUITS = ("c17", "c432s")
MC_SAMPLES = 32
TINY_MC_SAMPLES = 4
CORNERS = "fast,typ,slow,slow_derated"

def signoff_job(ctx, library, circuit, mc_seed: int, samples: int) -> dict:
    """One circuit's sign-off; returns answers and per-call laps."""
    from repro.models import PinToPinModel, VShapeModel
    from repro.pvt import CornerAnalyzer, CornerLibrary, parse_corner_list
    from repro.sta import TimingAnalyzer, TimingReporter
    from repro.stat import run_mc

    watch = bc.Stopwatch(ctx.speed)
    with ctx.span("signoff.sta"):
        analyzers, passes = {}, {}
        for label, model in (("proposed", VShapeModel()),
                             ("pin2pin", PinToPinModel())):
            analyzers[label] = TimingAnalyzer(circuit, library, model)
            with ctx.span("sta.analysis.pass"):
                passes[label] = analyzers[label].analyze()
    watch.lap("sta")
    with ctx.span("signoff.report"):
        analyzer, result = analyzers["proposed"], passes["proposed"]
        reporter = TimingReporter(analyzer, result)
        with ctx.span("sta.report.path"):
            critical = reporter.critical_path()
            reporter.shortest_path()
        with ctx.span("sta.report.slack"):
            required = analyzer.compute_required(result)
            reporter.slack_table(required, worst=10)
    watch.lap("report")
    with ctx.span("signoff.corners"):
        corners, libraries = CornerLibrary.derived(
            library, parse_corner_list(CORNERS)
        ).ordered()
        with ctx.span("sta.compile.build"):
            corner_analyzer = CornerAnalyzer(circuit, corners, libraries)
        with ctx.span("pvt.corners"):
            corner_result = corner_analyzer.analyze()
    watch.lap("corners")
    with ctx.span("signoff.mc"):
        mc = run_mc(circuit, samples=samples, seed=mc_seed)
    watch.lap("mc")
    return {
        "laps": watch.laps,
        "proposed": result,
        "critical_arrival": critical.arrival,
        "typ": corner_result.results[
            [c.name for c in corners].index("typ")
        ],
        "mc_nominal": mc.nominal_max,
    }


def check_job(ctx, answer: dict) -> list:
    """Names of the calls whose answers disagree with the cross-checks."""
    bad = []
    det_max = answer["proposed"].output_max_arrival()
    if ctx.planted(answer["critical_arrival"]) != det_max:
        bad.append("report")
    if not bc.same_windows(answer["typ"], answer["proposed"]):
        bad.append("corners")
    if answer["mc_nominal"] != det_max:
        bad.append("mc")
    return bad


def check_sigma_zero(circuit, deterministic) -> bool:
    """Sigma-0 Monte Carlo must reproduce the deterministic pass."""
    from repro.stat import VariationModel, run_mc

    mc = run_mc(
        circuit, samples=2, seed=1,
        variation=VariationModel(sigma_corr=0.0, sigma_ind=0.0),
    )
    return bool(
        (mc.delay == deterministic.output_max_arrival()).all()
        and (mc.min_delay == deterministic.output_min_arrival()).all()
    )


def run(ctx):
    from repro.characterize import CellLibrary
    from repro.circuit import load_packaged_bench

    names = TINY_CIRCUITS if ctx.tiny else CIRCUITS
    samples = TINY_MC_SAMPLES if ctx.tiny else MC_SAMPLES
    setup = bc.SetupSampler(ctx.speed, names, ctx.setup_repeats,
                            ctx.seconds)
    bc.pin_to_one_cpu()
    library = CellLibrary.load_default()
    circuits = {name: load_packaged_bench(name) for name in names}
    first = {}  # circuit -> its first job's deterministic pass

    def job(name):
        def one(i: int, traced: bool) -> None:
            mc_seed = bc.derive_seed(ctx.seed, "signoff", "mc", name, i)
            try:
                with ctx.use_trace(traced):
                    answer = signoff_job(
                        ctx, library, circuits[name], mc_seed, samples
                    )
            except Exception as exc:  # noqa: BLE001 — counted, not raised
                ctx.record_error(name, f"{type(exc).__name__}: {exc}")
                return
            for op, seconds, scale in answer["laps"]:
                ctx.record(name, op, seconds, traced, scale)
            # Checked now, after the timed calls, so no job's answers
            # outlive it (peak memory does not grow with the rounds).
            for op in check_job(ctx, answer):
                ctx.fail(f"{name}/{op}: answer differs from its cross-check")
            first.setdefault(name, answer["proposed"])
        return name, one

    bc.run_rounds(ctx, [job(name) for name in names], setup)
    setup_s, parse_s = setup.finish()
    rss = bc.peak_rss_mb()

    for name, proposed in first.items():
        if not check_sigma_zero(circuits[name], proposed):
            ctx.fail(f"{name}/mc: sigma-0 Monte Carlo != deterministic pass")

    ctx.details.update({
        "ops": bc.op_summary(ctx),
        "job_times_s": bc.job_times(ctx.samples),
        "setup_raw_s": setup.raw,
    })
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "job_s": bc.mean_job_s(ctx.samples),
    }
    layers = {"circuit.parse_s": parse_s}
    if ctx.trace:
        reg = ctx.registry
        n_traced = sum(len(v) for (_, op), v in ctx.traced_samples.items()
                       if op == "sta")
        layers.update(bc.registry_layers(reg, n_traced))
        pvt = bc.span_times(reg, "pvt.corners")
        _, pass_total, _ = bc.hist(reg, "sta.compile.pass_s")
        mc_s = bc.median(bc.span_times(reg, "signoff.mc"))
        layers.update({
            "sta.analysis.pass_s": bc.median(
                bc.span_times(reg, "sta.analysis.pass")
            ),
            "sta.level.extract_s": bc.ratio(
                sum(pvt) - pass_total, len(pvt)
            ),
            "sta.report.slack_s": bc.median(
                bc.span_times(reg, "sta.report.slack")
            ),
            "sta.report.path_s": bc.median(
                bc.span_times(reg, "sta.report.path")
            ),
            "pvt.corners_s": bc.median(pvt),
            "stat.mc_s": mc_s,
            "stat.mc.samples_per_s": bc.ratio(samples, mc_s),
            "trace.overhead_s": bc.trace_overhead(ctx),
        })
    return e2e, layers
