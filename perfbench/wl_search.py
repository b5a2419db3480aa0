"""``search``: the two search loops, gate sizing and crosstalk ATPG.

A round runs four jobs, each the work of one command-line call:

* ``greedy`` — ``optimize_sizing`` at its defaults (greedy, ``wns``
  cost) on a freshly parsed c7552s, then a sign-off read (a default
  ``TimingAnalyzer`` pass over the sized circuit);
* ``anneal`` — the same on c5315s with simulated annealing
  (``anneal_steps=4``, the seed drawn from the workload seed);
* ``atpg-c432s`` and ``atpg-c880s`` — one ``repro-sta atpg`` run at its
  defaults: a probe generator reads the nominal timing and fixes the
  clock period at 0.85 x its max arrival, then a fresh generator (delta
  0.4 ns, window 0.12 ns, backtrack limit 48, ITR on) runs the serial
  ``CrosstalkAtpg.run_all`` over the run's fault list, one fault at a
  time so each search is timed on its own.

Committed resizes and ``try_edits`` ladders put the sizing time into
``sta.incremental`` and ``sta.optimize``; the ATPG time goes to
per-gate windows, implication, ITR refinement and search.  MC, corners
and the server stay idle.

Fault lists.  A fault's search costs about 0.5 s when it runs out of
backtracks (aborted) and 0.001-0.1 s when it is proved untestable, so
the cost of a list drawn at random follows how many aborted and how
many slow untestable faults it drew.  Each circuit's seeded population
is therefore searched once, serially and outside the measured time, and
the list takes a fixed number of faults of each status (``FAULT_MIX``),
spread evenly over that status's range of cost.  Runs differ in which
faults they search, not in how much search they bring.  After the
measured phase the list is searched again with ``jobs=2``; every serial
answer must match it.
"""

from __future__ import annotations

import time

import bench_common as bc

GREEDY, ANNEAL = "c7552s", "c5315s"
TINY_GREEDY, TINY_ANNEAL = "c432s", "c17"
ANNEAL_STEPS = 4
TINY_ANNEAL_STEPS = 2

NS = 1e-9
DELTA, WINDOW = 0.4 * NS, 0.12 * NS
PERIOD_FRACTION = 0.85
BACKTRACK_LIMIT = 48
#: Faults of each status in a circuit's list; a status the population
#: lacks is made up from the other faults in population order.
FAULT_MIX = {
    "c432s": {"aborted": 1, "untestable": 8},
    "c880s": {"untestable": 9},
}
TINY_FAULT_MIX = {"c17": {"untestable": 3}}
POPULATION = 24
TINY_POPULATION = 8


# ----------------------------------------------------------------------
# Sizing
# ----------------------------------------------------------------------
def sizing_job(ctx, kind: str, circuit, library, seed: int, steps: int):
    """One sizing job; returns ``(result, signoff, laps)``."""
    from repro.sta import TimingAnalyzer
    from repro.sta.optimize import SizingConfig, optimize_sizing

    config = (
        None if kind == "greedy"
        else SizingConfig(anneal_steps=steps, seed=seed)
    )
    watch = bc.Stopwatch(ctx.speed)
    with ctx.span(f"sizing.{kind}"):
        result = optimize_sizing(circuit, config=config)
    watch.lap("optimize")
    with ctx.span("sizing.signoff"):
        signoff = TimingAnalyzer(circuit, library).analyze()
    watch.lap("signoff")
    return result, signoff, watch.laps


def check_sized(ctx, circuit, library, result, signoff) -> bool:
    """A fresh analysis of the sized circuit must reproduce the job's
    sign-off windows and the optimizer's final cost, bitwise."""
    from repro.sta import TimingAnalyzer

    fresh = TimingAnalyzer(circuit, library).analyze()
    cost = fresh.output_max_arrival() - result.required
    return (
        cost == ctx.planted(result.final_cost)
        and bc.same_windows(fresh, signoff)
        and result.final_wns >= result.initial_wns
    )


# ----------------------------------------------------------------------
# ATPG
# ----------------------------------------------------------------------
def atpg_config(period: float):
    from repro.atpg import AtpgConfig

    return AtpgConfig(
        use_itr=True, backtrack_limit=BACKTRACK_LIMIT, period=period
    )


def answer_key(result) -> tuple:
    vector = None
    if result.vector is not None:
        vector = sorted(
            (pi, repr(stim)) for pi, stim in result.vector.items()
        )
    return result.status, vector


def population(seed: int, circuit, count: int):
    """The seeded fault population a circuit's list is drawn from."""
    from repro.atpg import generate_fault_list

    return generate_fault_list(
        circuit, count, seed=bc.derive_seed(seed, "atpg", circuit.name),
        delta=DELTA, window=WINDOW,
    )


def pick_faults(statuses, costs, mix: dict) -> list:
    """Indices of the list: per status, ``mix[status]`` faults spread
    over that status's range of cost (the middle fault of each of
    ``mix[status]`` equal strata), made up from the rest if short."""
    want = sum(mix.values())
    picks = []
    for status, count in mix.items():
        ranked = sorted((costs[k], k) for k, s in enumerate(statuses)
                        if s == status)
        n = len(ranked)
        if n <= count:
            picks += [k for _, k in ranked]
            continue
        for j in range(count):
            lo, hi = j * n // count, (j + 1) * n // count
            picks.append(ranked[(lo + hi - 1) // 2][1])
    rest = [k for k in range(len(statuses)) if k not in picks]
    return sorted(picks + rest[:want - len(picks)])


def atpg_job(ctx, library, circuit, faults):
    """One ATPG run; returns ``(results, probe_s, per_fault_s)``."""
    from repro.atpg import CrosstalkAtpg

    t0 = time.perf_counter()
    with ctx.span("atpg.job"):
        with ctx.span("atpg.probe"):
            probe = CrosstalkAtpg(circuit, library)
            period = probe.period * PERIOD_FRACTION
            atpg = CrosstalkAtpg(
                circuit, library, config=atpg_config(period)
            )
        probe_s = time.perf_counter() - t0
        results, per_fault = [], []
        for fault in faults:
            t1 = time.perf_counter()
            with ctx.span("atpg.fault"):
                results.extend(atpg.run_all([fault]).results)
            per_fault.append(time.perf_counter() - t1)
    return results, probe_s, per_fault


def prepare_atpg(ctx, library, circuit, mix: dict, count: int):
    """The circuit's fault list: its seeded population is searched once,
    serially and outside the measured time, and the list is drawn from
    it by status and cost (see :func:`pick_faults`)."""
    from repro.atpg import CrosstalkAtpg

    period = CrosstalkAtpg(circuit, library).period * PERIOD_FRACTION
    faults = population(ctx.seed, circuit, count)
    atpg = CrosstalkAtpg(circuit, library, config=atpg_config(period))
    statuses, costs = [], []
    for fault in faults:
        t0 = time.perf_counter()
        statuses.append(atpg.run_all([fault]).results[0].status)
        costs.append(time.perf_counter() - t0)
    return [faults[k] for k in pick_faults(statuses, costs, mix)], period


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(ctx):
    from repro.characterize import CellLibrary
    from repro.circuit import load_packaged_bench

    sizing = {
        "greedy": TINY_GREEDY if ctx.tiny else GREEDY,
        "anneal": TINY_ANNEAL if ctx.tiny else ANNEAL,
    }
    steps = TINY_ANNEAL_STEPS if ctx.tiny else ANNEAL_STEPS
    mixes = TINY_FAULT_MIX if ctx.tiny else FAULT_MIX
    count = TINY_POPULATION if ctx.tiny else POPULATION
    names = sorted(set(sizing.values()) | set(mixes))
    bc.pin_to_one_cpu()
    library = CellLibrary.load_default()
    setup = bc.SetupSampler(ctx.speed, names, ctx.setup_repeats,
                            ctx.seconds)
    anneal_seed = bc.derive_seed(ctx.seed, "search", "anneal")

    atpg_circuits = {name: load_packaged_bench(name) for name in mixes}
    lists = {
        name: prepare_atpg(ctx, library, circuit, mixes[name], count)
        for name, circuit in atpg_circuits.items()
    }
    first = {}  # kind -> (circuit, result, signoff) of its first run
    served = {name: [] for name in mixes}  # circuit -> [results]

    def sizing_fn(kind):
        def one(i: int, traced: bool) -> None:
            circuit = load_packaged_bench(sizing[kind])
            try:
                with ctx.use_trace(traced):
                    result, signoff, laps = sizing_job(
                        ctx, kind, circuit, library, anneal_seed, steps
                    )
            except Exception as exc:  # noqa: BLE001 — counted, not raised
                ctx.record_error(kind, f"{type(exc).__name__}: {exc}")
                return
            for op, seconds, scale in laps:
                ctx.record(kind, op, seconds, traced, scale)
            # Sizing is deterministic for a given seed: every later run
            # must equal the first (checked now, after the timed calls,
            # so no run's circuit outlives it), and the first is checked
            # against a fresh analysis after the measured phase.
            if kind not in first:
                first[kind] = (circuit, result, signoff)
            elif not (result.to_dict() == first[kind][1].to_dict()
                      and bc.same_windows(signoff, first[kind][2])):
                ctx.fail(f"{kind}/{circuit.name}: sized result differs "
                         "from the first run's")
        return kind, one

    def atpg_fn(name):
        job = f"atpg-{name}"
        faults = lists[name][0]

        def one(i: int, traced: bool) -> None:
            try:
                with ctx.use_trace(traced):
                    results, probe_s, per_fault = atpg_job(
                        ctx, library, atpg_circuits[name], faults
                    )
            except Exception as exc:  # noqa: BLE001 — counted, not raised
                ctx.record_error(job, f"{type(exc).__name__}: {exc}")
                return
            ctx.record(job, "probe", probe_s, traced)
            for k, seconds in enumerate(per_fault):
                ctx.record(job, f"fault{k:02d}", seconds, traced)
            served[name].append(results)
        return job, one

    jobs = [sizing_fn(kind) for kind in sizing]
    jobs += [atpg_fn(name) for name in mixes]
    bc.run_rounds(ctx, jobs, setup)
    setup_s, parse_s = setup.finish()
    rss = bc.peak_rss_mb()

    for kind, (circuit, result, signoff) in first.items():
        if not check_sized(ctx, circuit, library, result, signoff):
            ctx.fail(f"{kind}/{circuit.name}: sized result does not "
                     "reproduce under a fresh analysis")
    # Every serial ATPG answer must match a jobs=2 run of the same list.
    from repro.atpg import CrosstalkAtpg

    statuses = {}
    for name, runs in served.items():
        faults, period = lists[name]
        again = CrosstalkAtpg(
            atpg_circuits[name], library, config=atpg_config(period)
        ).run_all(faults, jobs=2).results
        reference = [answer_key(r) for r in again]
        statuses[name] = [r.status for r in again]
        for results in runs:
            got = [answer_key(r) for r in results]
            if ctx.planted(got) != reference:
                ctx.fail(f"atpg-{name}: serial answers differ from the "
                         "jobs=2 reference run")

    ctx.details.update({
        "ops": bc.op_summary(ctx),
        "job_times_s": bc.job_times(ctx.samples),
        "setup_raw_s": setup.raw,
        "fault_status": statuses,
    })
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "job_s": bc.mean_job_s(ctx.samples),
    }
    layers = {"circuit.parse_s": parse_s}
    if ctx.trace:
        reg = ctx.registry
        n_traced = sum(
            len(v) for (_, op), v in ctx.traced_samples.items()
            if op in ("optimize", "probe")
        )
        faults_s = bc.span_times(reg, "atpg.fault")
        layers.update(bc.registry_layers(reg, n_traced))
        layers.update({
            "atpg.fault_p50_s": bc.median(faults_s),
            "atpg.fault_p95_s": bc.percentile(faults_s, 95.0),
            "trace.overhead_s": bc.trace_overhead(ctx),
        })
    return e2e, layers
