"""``serve``: a paced, seeded request mix against a warm timing daemon.

The benchmark spawns ``repro-sta serve c7552s c880s`` at its defaults
(in-process sessions, ``workers=0``; only an ephemeral port is chosen)
and drives it open-loop from this process over at most two keep-alive
connections, paced by seeded Poisson arrivals at a fixed rate.

The traffic is a deck of request templates (``DECK``; README.md gives
the reason for every share), dealt again in a fresh seeded order every
round:

* reads — ``windows`` over fresh line sets, ``windows`` over a small
  hot set and ``path``, the last two repeating so the response memo
  hits;
* ``slack`` with a distinct clock each time, on the smaller circuit;
* single-edit ``whatif`` requests on the big circuit, and a
  ``/v1/batch`` group of what-ifs that repeats one member, so the
  daemon both deduplicates and coalesces it into one ``try_edits``
  call;
* rare ``mc`` (4 samples) and ``corners`` requests on the smaller
  circuit.

A template keeps its kind, circuit and (for what-ifs) gate from round to
round; its parameters are drawn fresh each time (line sets, clocks,
sizes, MC seeds), so only the hot reads and paths hit the memo.  Every
latency runs from the request's due time to its reply, so time spent
waiting behind another request counts; how late the generator sent
behind the schedule is reported as ``serve.gen_lag_s``.  Rounds run one
after another.  ``job_s`` is the geometric mean over the templates of
each template's fastest round: its latency when it waited behind no
other request and the host was in its fastest spell of the run.  These
are raw wall-clock seconds.  The calibration of ``bench_common`` times
this process, not the daemon: scaling by it, per round or once per run,
whether or not the daemon shared this process's CPU, spread ``job_s``
between seeds as much or more.  Set-up is spawn-to-warm (every method
answered once), measured over several daemon boots.  A seeded sample of
the responses is re-answered by a fresh in-process ``SessionRegistry``
and must match exactly.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import threading
import time

import bench_common as bc

CIRCUITS = ("c7552s", "c880s")
TINY_CIRCUITS = ("c432s", "c17")
#: Offered load, requests per second.
RATE = 10.0
TINY_RATE = 10.0
#: Load-generator connections: one per host CPU, at most two.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Daemon boots per run; set-up is their median, the last one serves.
BOOTS = 3
#: What-if resize targets are drawn from this range (3 decimals, never
#: repeated within a run, since a repeat would be a memo hit).
SIZE_RANGE = (0.5, 5.7)
CORNERS = ["fast", "typ", "slow", "slow_derated"]
MC_SAMPLES = 4
#: A ``/v1/batch`` group holds this many distinct what-ifs and then a
#: repeat of its first one.
BATCH_DISTINCT = 3
HOT_SETS = 4
CHECK_SAMPLE = 12

#: One round of traffic: (kind, templates on the big circuit, templates
#: on the small one).  No record of real traffic exists for this
#: service, so every share is an assumption; README.md states each one
#: with its reason.
DECK = (
    ("windows", 3, 1),
    ("windows_hot", 7, 3),
    ("path", 3, 1),
    ("slack", 0, 2),
    ("whatif", 7, 0),
    ("batch", 1, 0),
    ("mc", 0, 1),
    ("corners", 0, 1),
)
DECK_SIZE = sum(big + small for _, big, small in DECK)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _query(circuit: str, method: str, params: dict) -> dict:
    return {"circuit": circuit, "method": method, "params": params}


def cone_sizes(circuit) -> dict:
    """Gate output -> gates a resize of that gate re-times.

    A resize changes the gate's own delay and the load on the gates
    driving its inputs, so the re-timed set is the union of the fanout
    cones of the gate and of its drivers.
    """
    order = circuit.topological_order()
    bit = {line: 1 << k for k, line in enumerate(order)}
    cones = {}
    for line in reversed(order):
        mask = bit[line]
        for gate in circuit.fanouts(line):
            mask |= cones[gate.output]
        cones[line] = mask
    sizes = {}
    for line in order:
        mask = cones[line]
        for source in circuit.gates[line].inputs:
            mask |= cones.get(source, 0)
        sizes[line] = mask.bit_count()
    return sizes


def stratified_gates(circuit, count: int) -> list:
    """``count`` what-if gates spread over the range of re-time sizes.

    A what-if's cost follows how many gates it re-times (2 ms to 250 ms
    on c7552s), and steeply so around the median gate: with 32 gates
    drawn at random per seed, even one per stratum of re-time size, the
    median cost still moved between 47 and 80 ms.  So the gates are
    ranked by re-time size and cut into ``count`` strata of equal size,
    and each stratum contributes its middle gate, in rank order: every
    run edits the same gates.  The schedule's seed draws the resize
    targets, the order and the arrival times.
    """
    sizes = cone_sizes(circuit)
    ranked = sorted(sizes, key=lambda line: (sizes[line], line))
    picks = []
    for k in range(count):
        lo = k * len(ranked) // count
        hi = max((k + 1) * len(ranked) // count, lo + 1)
        picks.append(ranked[(lo + hi - 1) // 2])
    return picks


def templates(big: str, small: str) -> list:
    """The deck's templates, in a fixed order: ``(label, kind, circuit)``."""
    out = []
    for kind, n_big, n_small in DECK:
        for k, name in enumerate([big] * n_big + [small] * n_small):
            out.append((f"{kind}{k:02d}", kind, name))
    return out


def make_schedule(seed: int, seconds: float, rate: float, circuits: dict,
                  max_arrival_ns: dict) -> list:
    """The seeded arrival schedule: ``[(due_s, label, kind, endpoint,
    body)]``, one round of ``DECK_SIZE`` entries after another, each
    ``due_s`` counted from the start of its round.

    ``circuits`` maps name -> Circuit (big first); ``max_arrival_ns``
    anchors the slack clocks.  Pure function of its arguments.
    """
    r = bc.rng(seed, "serve", "schedule")
    big, small = list(circuits)
    info = {
        name: {
            "lines": sorted(c.lines),
            "outputs": list(c.outputs),
        }
        for name, c in circuits.items()
    }
    hot = {
        name: [
            sorted(bc.rng(seed, "serve", "hot", name, k).sample(
                d["lines"], min(6, len(d["lines"]))
            ))
            for k in range(HOT_SETS)
        ]
        for name, d in info.items()
    }
    deck = templates(big, small)
    # Whole rounds of the deck fill rate x seconds; each round spans an
    # equal share of them and, given its count, its Poisson arrival
    # times are sorted uniform draws.
    rounds = max(1, round(rate * seconds / DECK_SIZE))
    edits = sum(BATCH_DISTINCT if kind == "batch" else 1
                for _, kind, _ in deck if kind in ("whatif", "batch"))
    gates = stratified_gates(circuits[big], edits)
    used = set()

    def whatif(gate) -> dict:
        size = round(r.uniform(*SIZE_RANGE), 3)
        while size in used:
            size = round(r.uniform(*SIZE_RANGE), 3)
        used.add(size)
        return _query(big, "whatif", {"edits": [
            {"op": "resize", "line": gate, "value": size}
        ]})

    # Each what-if template owns its gates for the whole run: a batch
    # takes gates spread over the strata, each single edit one of the
    # rest, in rank order.
    owned, singles = {}, list(gates)
    for label, kind, _ in deck:
        if kind == "batch":
            n = len(singles)
            owned[label] = [singles[(2 * j + 1) * n // (2 * BATCH_DISTINCT)]
                            for j in range(BATCH_DISTINCT)]
            singles = [g for g in singles if g not in owned[label]]
    for label, kind, _ in deck:
        if kind == "whatif":
            owned[label] = [singles.pop(0)]

    span = seconds / rounds
    schedule = []
    for k in range(rounds):
        order = list(deck)
        r.shuffle(order)
        dues = sorted(r.uniform(0.0, span) for _ in order)
        for due, (label, kind, name) in zip(dues, order):
            index = int(label[-2:])
            if kind == "windows":
                body = _query(name, "windows", {
                    "lines": sorted(r.sample(
                        info[name]["lines"], min(8, len(info[name]["lines"]))
                    ))
                })
            elif kind == "windows_hot":
                body = _query(name, "windows",
                              {"lines": hot[name][index % HOT_SETS]})
            elif kind == "path":
                body = _query(name, "path",
                              {"kind": ("max", "min")[index % 2]})
            elif kind == "slack":
                clock = max_arrival_ns[name] * r.uniform(0.8, 1.2)
                body = _query(name, "slack", {"clock_ns": clock, "worst": 10})
            elif kind == "whatif":
                body = whatif(owned[label][0])
            elif kind == "batch":
                members = [whatif(gate) for gate in owned[label]]
                body = {"requests": members + [members[0]]}
            elif kind == "mc":
                body = _query(name, "mc", {
                    "samples": MC_SAMPLES, "seed": r.randrange(1 << 30),
                })
            else:  # corners
                body = _query(name, "corners", {
                    "corners": CORNERS,
                    "lines": sorted(r.sample(
                        info[name]["outputs"],
                        min(4, len(info[name]["outputs"])),
                    )),
                })
            endpoint = "/v1/batch" if kind == "batch" else "/v1/query"
            schedule.append((due, label, kind, endpoint, body))
    return schedule


def warm_queries(circuits: dict) -> list:
    """One query per method and circuit, outside the measured mix."""
    big, small = list(circuits)
    out = []
    for name in circuits:
        gate = sorted(circuits[name].gates)[0]
        out += [
            _query(name, "windows", {}),
            _query(name, "path", {"kind": "max"}),
            _query(name, "slack", {}),
            _query(name, "whatif", {"edits": [
                {"op": "resize", "line": gate, "value": 1.2}
            ]}),
        ]
    out += [
        _query(small, "mc", {"samples": MC_SAMPLES, "seed": 1 << 31}),
        _query(small, "corners", {"corners": CORNERS}),
    ]
    return out


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro-sta serve`` subprocess on an ephemeral port."""

    def __init__(self, names, log_path) -> None:
        self.log = open(log_path, "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *names,
             "--port", "0"],
            cwd=bc.ROOT, env=bc.child_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.port = None
        self.port = self._read_port(timeout=120.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("serve daemon did not announce its port")

    def peak_rss_mb(self) -> float:
        return bc.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        from repro.server import ServerClient

        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise RuntimeError("no port to ask for a shutdown")
                with ServerClient("127.0.0.1", self.port, timeout=10) as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 — fall back to signals
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def boot(names, circuits, log_path):
    """Spawn and warm one daemon; returns ``(daemon, seconds, warm)``."""
    from repro.server import ServerClient

    t0 = time.perf_counter()
    daemon = Daemon(names, log_path)
    warm = {}
    try:
        with ServerClient("127.0.0.1", daemon.port, timeout=120) as client:
            for query in warm_queries(circuits):
                warm[(query["circuit"], query["method"])] = client.result(
                    query["circuit"], query["method"], query["params"]
                )
    except Exception:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0, warm


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
def drive(port: int, schedule: list, connections: int) -> list:
    """Send ``schedule`` open-loop; one record per request, in order.

    Each of ``connections`` threads holds one keep-alive connection and,
    whenever it is free, takes the next request in due order and sends
    it at its due time, or at once when every connection was still busy
    then; the record's ``sent - due`` shows how late.
    """
    from repro.server import ServerClient

    records = [None] * len(schedule)
    pending = iter(range(len(schedule)))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def connection() -> None:
        with ServerClient("127.0.0.1", port, timeout=30) as client:
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                due, label, kind, endpoint, body = schedule[index]
                delay = t0 + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if endpoint == "/v1/batch":
                        response = client.batch(body["requests"])
                    else:
                        response = client.query(
                            body["circuit"], body["method"], body["params"]
                        )
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    response = {"ok": False, "error": repr(exc)}
                records[index] = {
                    "label": label, "kind": kind, "due": t0 + due,
                    "sent": sent,
                    "done": time.perf_counter(), "response": response,
                }

    threads = [threading.Thread(target=connection)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _responses(record) -> list:
    """The query bodies inside one record (batch members unpacked)."""
    response = record["response"]
    if record["kind"] == "batch":
        return list(response.get("responses", [])) or [response]
    return [response]


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check_sample(ctx, circuits, schedule, records) -> None:
    """Re-answer a seeded sample of queries in-process; count mismatches."""
    from repro.server import SessionRegistry, validate_request

    registry = SessionRegistry()
    for circuit in circuits.values():
        registry.register(circuit)
    r = bc.rng(ctx.seed, "serve", "check")
    picks = sorted(r.sample(range(len(records)),
                            min(CHECK_SAMPLE, len(records))))
    for index in picks:
        _, _, kind, _, body = schedule[index]
        queries = body["requests"] if kind == "batch" else [body]
        served = _responses(records[index])
        for query, response in zip(queries, served):
            if not response.get("ok"):
                continue  # already counted as failed
            request = validate_request(query)
            local = registry.dispatch(
                request.circuit, request.method, request.params
            )
            expected = json.loads(json.dumps(local))
            if ctx.planted(response["result"]) != expected:
                ctx.fail(f"{kind}#{index}: served result differs from the "
                         "in-process SessionRegistry answer")
                break


class PromView:
    """Dotted-name view of a ``/metrics`` scrape, shaped like a registry
    for :func:`bench_common.registry_layers` (counters, gauges and
    histograms with ``count``/``total``/``percentile(50)``)."""

    def __init__(self, text: str) -> None:
        from repro.obs.prom import prom_name

        self._name = prom_name
        self.samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                self.samples[key] = float(value)
        self.counters = _Lookup(self, "counter")
        self.gauges = _Lookup(self, "gauge")
        self.histograms = _Lookup(self, "histogram")


class _Metric:
    def __init__(self, value=0.0, count=0, total=0.0, p50=0.0) -> None:
        self.value, self.count, self.total, self._p50 = value, count, total, p50

    def percentile(self, q: float) -> float:
        return self._p50


class _Lookup:
    def __init__(self, view: PromView, kind: str) -> None:
        self.view, self.kind = view, kind

    def get(self, name: str):
        s, n = self.view.samples, self.view._name(name)
        if self.kind == "counter":
            value = s.get(n + "_total")
            return None if value is None else _Metric(value=value)
        if self.kind == "gauge":
            value = s.get(n)
            return None if value is None else _Metric(value=value)
        if n + "_count" not in s:
            return None
        return _Metric(count=s[n + "_count"], total=s[n + "_sum"],
                       p50=s.get(n + '{quantile="0.5"}', 0.0))

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __getitem__(self, name: str):
        return self.get(name)


def serve_layers(view: PromView, records: list, computed: list) -> dict:
    methods = ("windows", "path", "slack", "mc", "corners")
    layers = bc.registry_layers(view, len(records))
    for method in methods:
        layers[f"server.exec.{method}_s"] = bc.hist(
            view, f"server.session.{method}_s"
        )[2]
    # What-ifs bypass the session dispatcher (they ride try_edits
    # batches), so their execute time is the trial time.
    layers["server.exec.whatif_s"] = bc.hist(view, "sta.incr.trial_s")[2]
    exec_n, exec_total = 0, 0.0
    for name in [f"server.session.{m}_s" for m in methods] + [
        "sta.incr.trial_s"
    ]:
        count, total, _ = bc.hist(view, name)
        exec_n += count
        exec_total += total
    requests = sum(
        value for key, value in view.samples.items()
        if key.startswith("repro_server_requests_") and key.endswith("_total")
    )
    batch_n, batch_total, _ = bc.hist(view, "server.batch.size")
    layers.update({
        "serve.queue_wait_s": max(
            bc.ratio(sum(computed), len(computed))
            - bc.ratio(exec_total, exec_n), 0.0
        ),
        "server.memo.hit_ratio": bc.ratio(
            bc.counter(view, "server.memo.hits"), requests
        ),
        "server.batch.deduped": bc.counter(view, "server.batch.deduped"),
        "server.batch.size": bc.ratio(batch_total, batch_n),
        "server.whatif.coalesced_requests": bc.counter(
            view, "server.whatif.coalesced_requests"
        ),
        "server.whatif.batch_fallbacks": bc.counter(
            view, "server.whatif.batch_fallbacks"
        ),
    })
    return layers


def record_spans(registry, records: list) -> None:
    """One span per request, due time to reply, for the Chrome export."""
    from repro.obs import SpanRecord

    origin = min(rec["due"] for rec in records)
    for rec in records:
        name = f"serve.{rec['kind']}"
        registry.spans.append(SpanRecord(
            name, name, rec["due"] - origin, rec["done"] - rec["due"], 0,
        ))


def run(ctx):
    from repro.circuit import load_packaged_bench
    from repro.server import ServerClient

    names = TINY_CIRCUITS if ctx.tiny else CIRCUITS
    rate = TINY_RATE if ctx.tiny else RATE
    boots = 2 if ctx.tiny else BOOTS
    _, parse_s = bc.SetupSampler(ctx.speed, names, 1, ctx.seconds).finish()
    circuits = {name: load_packaged_bench(name) for name in names}
    bc.OUT.mkdir(parents=True, exist_ok=True)
    log_path = bc.OUT / "serve-daemon.log"

    boot_s, daemon, warm = [], None, None
    for k in range(boots):
        if daemon is not None:
            daemon.stop()
        daemon, seconds, warm = boot(names, circuits, log_path)
        boot_s.append(seconds)
    try:
        max_arrival_ns = {
            name: warm[(name, "windows")]["output_max_arrival_s"] * 1e9
            for name in names
        }
        schedule = make_schedule(ctx.seed, ctx.seconds, rate, circuits,
                                 max_arrival_ns)
        ctx.details["rss_after_warm_mb"] = daemon.peak_rss_mb()
        records = []
        for k in range(0, len(schedule), DECK_SIZE):
            records += drive(daemon.port, schedule[k:k + DECK_SIZE],
                             CONNECTIONS)
        rss = daemon.peak_rss_mb()
        metrics_text = None
        if ctx.trace:
            with ServerClient("127.0.0.1", daemon.port, timeout=30) as c:
                metrics_text = c.metrics()
    finally:
        daemon.stop()

    computed, lags, every = [], [], []
    for index, rec in enumerate(records):
        kind = rec["kind"]
        lat = rec["done"] - rec["due"]
        lags.append(rec["sent"] - rec["due"])
        bodies = _responses(rec)
        if rec["response"].get("_status") != 200 or not all(
            b.get("ok") for b in bodies
        ):
            error = rec["response"].get("error") or bodies[0].get("error")
            ctx.record_error(kind, f"#{index}: {error}")
        else:
            ctx.record(kind, rec["label"], lat)
            every.append(lat)
            if not all(b.get("cached") for b in bodies):
                computed.append(lat)
    ctx.commit(1.0)  # the daemon's times are not scaled; see above
    check_sample(ctx, circuits, schedule, records)
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec["done"] - rec["due"])
    fastest = [min(times) for times in ctx.samples.values()]
    ctx.details.update({
        "ops": bc.op_summary(ctx),
        "by_kind": {
            kind: {"n": len(v), "p50_s": bc.median(v),
                   "p95_s": bc.percentile(v, 95.0)}
            for kind, v in sorted(by_kind.items())
        },
        "p50_s": bc.median(every),
        "p95_s": bc.percentile(every, 95.0),
        "boot_s": boot_s,
        "gen_lag_p95_s": bc.percentile(lags, 95.0),
    })

    e2e = {
        "setup_s": bc.median(boot_s),
        "peak_rss_mb": rss,
        "job_s": math.exp(statistics.fmean(math.log(t) for t in fastest))
        if fastest else 0.0,
    }
    layers = {"circuit.parse_s": parse_s}
    if ctx.trace:
        layers.update(serve_layers(PromView(metrics_text), records, computed))
        record_spans(ctx.registry, records)
        # The daemon's registry is always live and request spans are
        # recorded after the stream, so traced and untraced runs execute
        # the same code: the tracing overhead is zero by construction.
        layers.update({
            "serve.gen_lag_s": bc.percentile(lags, 95.0),
            "trace.overhead_s": 0.0,
        })
    return e2e, layers
