"""Tests for the timing daemon (``repro.server``).

Covers the protocol layer (normalization, idempotency keys, the error
table), the async application (structured error paths, timeouts,
backpressure, shutdown-with-inflight, dedup/memo, what-if coalescing
and fallback isolation), bitwise parity with one-shot engine runs, and
a real socket round-trip through :class:`ServerThread` +
:class:`ServerClient`.
"""

import asyncio
import http.client
import json
import math

import pytest

from repro.characterize import CellLibrary
from repro.circuit import load_packaged_bench
from repro.obs import use_registry
from repro.server import (
    Request,
    ServerApp,
    ServerClient,
    ServerConfig,
    ServerError,
    ServerThread,
    validate_request,
)
from repro.server.app import _Pending
from repro.server.client import ServerRequestError
from repro.server.session import path_payload, windows_payload
from repro.sta.analysis import TimingAnalyzer
from repro.stat import run_mc
from repro.stat.runner import MC_MODELS
from repro.stat.variation import VariationModel

CIRCUIT = load_packaged_bench("c17")
LIBRARY = CellLibrary.load_default()
GATE = sorted(CIRCUIT.gates)[0]

def query(method, params=None, circuit="c17", **extra):
    payload = {"circuit": circuit, "method": method,
               "params": params or {}}
    payload.update(extra)
    return payload


def run_app(coro_factory, config=None, circuits=None):
    """Run ``coro_factory(app)`` against a started in-process app."""
    async def main():
        app = ServerApp(
            circuits or {"c17": CIRCUIT},
            config or ServerConfig(workers=0),
            library=LIBRARY,
        )
        await app.startup()
        try:
            return await coro_factory(app)
        finally:
            await app.aclose()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_normalize_into_the_key(self):
        # A request spelling out the defaults and one omitting them are
        # the same idempotent request.
        explicit = validate_request(query(
            "slack", {"model": "vshape", "worst": 10, "clock_ns": None}
        ))
        implicit = validate_request(query("slack"))
        assert isinstance(explicit, Request)
        assert explicit.params == implicit.params
        assert explicit.key == implicit.key

    def test_params_change_the_key(self):
        a = validate_request(query("slack", {"worst": 3}))
        b = validate_request(query("slack", {"worst": 4}))
        assert a.key != b.key

    VALIDATION_TABLE = [
        (["not", "a", "dict"], "bad_request"),
        ({"method": "windows", "params": {}}, "bad_request"),
        (query("windows", junk=1), "bad_request"),
        (query("explode"), "unknown_method"),
        (query("windows", {"lines": "G1"}), "bad_request"),
        (query("windows", {"model": "nope"}), "bad_request"),
        (query("slack", {"worst": 0}), "bad_request"),
        (query("path", {"kind": "sideways"}), "bad_request"),
        (query("mc", {"samples": 0}), "bad_request"),
        (query("mc", {"quantiles": [1.5]}), "bad_request"),
        (query("mc", {"sigma_corr": -0.1}), "bad_request"),
        (query("whatif", {"edits": []}), "bad_request"),
        (query("whatif", {"edits": [{"op": "melt", "line": "G1",
                                     "value": 1.0}]}), "bad_request"),
        (query("whatif", {"edits": [{"op": "resize", "line": "G1",
                                     "value": -2.0}]}), "bad_request"),
        (query("whatif", {"edits": [
            {"op": "resize", "line": "G1", "value": 1.0}] * 33,
        }), "oversized_batch"),
        (query("corners"), "bad_request"),
        (query("corners", {"corners": []}), "bad_request"),
        (query("corners", {"corners": [42]}), "bad_request"),
        (query("corners", {"corners": [""]}), "bad_request"),
        (query("corners", {"corners": [{"vdd": 3.0}]}), "bad_request"),
        (query("corners", {"corners": [
            {"name": "x", "voltage": 3.0}]}), "bad_request"),
        (query("corners", {"corners": [
            {"name": "x", "vdd": "high"}]}), "bad_request"),
        (query("corners", {"corners": ["typ"] * 33}), "oversized_batch"),
        (query("corners", {"corners": ["typ"], "lines": "G1"}),
         "bad_request"),
        (query("windows", timeout_s=0.0), "bad_request"),
        # mc takes no engine field: every pass runs on the compiled engine.
        (query("mc", {"engine": "level"}), "bad_request"),
        # json.loads takes NaN and Infinity; no engine input may be either.
        (query("windows", timeout_s=math.nan), "bad_request"),
        (query("mc", {"sigma_corr": math.nan}), "bad_request"),
        (query("mc", {"sigma_ind": math.inf}), "bad_request"),
        (query("mc", {"sigma_corr": 10**400}), "bad_request"),
        (query("whatif", {"edits": [{"op": "resize", "line": "G1",
                                     "value": math.nan}]}), "bad_request"),
        (query("corners", {"corners": [
            {"name": "x", "vdd": math.inf}]}), "bad_request"),
    ]

    def test_corner_specs_normalize_into_the_key(self):
        # Spec strings pass through untouched; corner objects keep only
        # the fields given, coerced to float — so a request spelling a
        # field as int and one as float share the idempotency key.
        as_int = validate_request(query("corners", {
            "corners": ["slow", {"name": "hot", "temp_c": 125}],
        }))
        as_float = validate_request(query("corners", {
            "corners": ["slow", {"name": "hot", "temp_c": 125.0}],
        }))
        assert as_int.params["corners"] == [
            "slow", {"name": "hot", "temp_c": 125.0}
        ]
        assert as_int.key == as_float.key
        # Corner order is part of the request's identity.
        swapped = validate_request(query("corners", {
            "corners": [{"name": "hot", "temp_c": 125.0}, "slow"],
        }))
        assert swapped.key != as_int.key

    @pytest.mark.parametrize("payload,code", VALIDATION_TABLE)
    def test_validation_error_table(self, payload, code):
        with pytest.raises(ServerError) as err:
            validate_request(payload)
        assert err.value.code == code
        body = err.value.body()
        assert body["ok"] is False
        assert body["error"]["code"] == code
        assert "traceback" not in json.dumps(body).lower()


# ----------------------------------------------------------------------
# Application error paths
# ----------------------------------------------------------------------
class TestErrorPaths:
    SERVED_TABLE = [
        ("loads of junk", 400, "bad_request"),
        (query("windows", circuit="c9999"), 404, "unknown_circuit"),
        (query("explode"), 404, "unknown_method"),
        (query("whatif", {"edits": [
            {"op": "resize", "line": "G1", "value": 1.0}] * 33,
        }), 413, "oversized_batch"),
        # An unknown gate line passes validation (the protocol layer is
        # circuit-blind) and must come back structured from the session.
        (query("whatif", {"edits": [
            {"op": "resize", "line": "no_such_line", "value": 2.0},
        ]}), 400, "bad_request"),
        # Corner specs resolve session-side: a malformed inline spec,
        # a duplicate name, and an unknown line all pass the (engine-
        # free) protocol layer but must come back structured.
        (query("corners", {"corners": ["typ:bogus=1"]}),
         400, "bad_request"),
        (query("corners", {"corners": ["typ", "typ"]}),
         400, "bad_request"),
        (query("corners", {"corners": ["typ"], "lines": ["NOPE"]}),
         400, "bad_request"),
        # Once an internal error ("ValueError while serving mc").
        (query("mc", {"sigma_corr": math.nan}), 400, "bad_request"),
        (query("mc", {"sigma_ind": math.inf}), 400, "bad_request"),
    ]

    @pytest.mark.parametrize("payload,status,code", SERVED_TABLE)
    def test_served_error_table(self, payload, status, code):
        got_status, body = run_app(
            lambda app: app.handle_request_payload(payload)
        )
        assert got_status == status
        assert body["ok"] is False
        assert body["error"]["code"] == code
        assert "traceback" not in json.dumps(body).lower()

    def test_timeout_expiry(self):
        # A microsecond budget cannot cover a real MC run; the waiter
        # gets a structured 504 while the computation (shielded) is
        # allowed to finish in the background.
        payload = query(
            "mc", {"samples": 64, "block": 8}, timeout_s=1e-6
        )
        status, body = run_app(
            lambda app: app.handle_request_payload(payload)
        )
        assert status == 504
        assert body["error"]["code"] == "timeout"

    def test_overloaded_when_queue_is_full(self):
        async def scenario(app):
            # Park the drainer so the queue genuinely fills.
            q = app._queue_for("c17")
            app._drainers["c17"].cancel()
            stuck = validate_request(query("windows"))
            q.put_nowait(_Pending(
                stuck, asyncio.get_running_loop().create_future()
            ))
            return await app.handle_request_payload(query("slack"))

        status, body = run_app(
            scenario, config=ServerConfig(workers=0, queue_limit=1)
        )
        assert status == 503
        assert body["error"]["code"] == "overloaded"

    def test_shutdown_fails_queued_inflight_work(self):
        async def scenario(app):
            q = app._queue_for("c17")
            app._drainers["c17"].cancel()
            future = asyncio.get_running_loop().create_future()
            q.put_nowait(_Pending(validate_request(query("path")), future))
            app.request_shutdown()
            with pytest.raises(ServerError) as err:
                await future
            assert err.value.code == "shutting_down"
            # And new work is turned away at the door.
            return await app.handle_request_payload(query("windows"))

        status, body = run_app(scenario)
        assert status == 503
        assert body["error"]["code"] == "shutting_down"

    def test_batch_endpoint_cap_and_mixed_outcomes(self):
        oversized = {"requests": [query("windows")] * 3}
        status, body = run_app(
            lambda app: app.handle_batch_payload(oversized),
            config=ServerConfig(workers=0, max_batch=2),
        )
        assert status == 413
        assert body["error"]["code"] == "oversized_batch"

        mixed = {"requests": [query("windows"), query("explode")]}
        status, body = run_app(
            lambda app: app.handle_batch_payload(mixed)
        )
        assert status == 200
        assert body["ok"] is False
        oks = [item["ok"] for item in body["responses"]]
        assert oks == [True, False]


# ----------------------------------------------------------------------
# Memo, dedup, coalescing
# ----------------------------------------------------------------------
class TestBatching:
    def test_memo_replays_identical_requests(self):
        async def scenario(app):
            first = await app.handle_request_payload(query("slack"))
            second = await app.handle_request_payload(query("slack"))
            return first, second

        (s1, b1), (s2, b2) = run_app(scenario)
        assert s1 == s2 == 200
        assert b1["cached"] is False
        assert b2["cached"] is True
        assert b1["result"] == b2["result"]
        assert b1["key"] == b2["key"]

    def test_concurrent_duplicates_collapse_to_one_computation(self):
        async def scenario(app):
            return await asyncio.gather(*[
                app.handle_request_payload(query("windows"))
                for _ in range(4)
            ])

        with use_registry() as registry:
            answered = run_app(scenario)
            counters = registry.snapshot()["counters"]
        results = [body["result"] for _, body in answered]
        assert all(status == 200 for status, _ in answered)
        assert all(result == results[0] for result in results)
        assert counters.get("server.batch.deduped", 0) >= 3

    def test_concurrent_whatifs_ride_one_trial_batch(self):
        def whatif(value):
            return query("whatif", {"edits": [
                {"op": "resize", "line": GATE, "value": value},
            ]})

        async def scenario(app):
            return await asyncio.gather(
                app.handle_request_payload(whatif(0.5)),
                app.handle_request_payload(whatif(2.0)),
            )

        with use_registry() as registry:
            answered = run_app(scenario)
            counters = registry.snapshot()["counters"]
        assert all(status == 200 for status, _ in answered)
        assert counters.get("server.whatif.coalesced_batches", 0) >= 1

    def test_poisoned_whatif_fails_alone(self):
        # Swapping a NAND to a fan-in-incompatible cell poisons the
        # shared trial batch; the fallback re-run must keep the failure
        # with its owner while the resize still succeeds.
        good = query("whatif", {"edits": [
            {"op": "resize", "line": GATE, "value": 2.0},
        ]})
        bad = query("whatif", {"edits": [
            {"op": "swap", "line": GATE, "value": "no_such_cell"},
        ]})

        async def scenario(app):
            return await asyncio.gather(
                app.handle_request_payload(good),
                app.handle_request_payload(bad),
            )

        (s_good, b_good), (s_bad, b_bad) = run_app(scenario)
        assert s_good == 200 and b_good["ok"] is True
        assert s_bad in (400, 500) and b_bad["ok"] is False
        assert "traceback" not in json.dumps(b_bad).lower()


# ----------------------------------------------------------------------
# Bitwise parity with one-shot engine runs
# ----------------------------------------------------------------------
class TestParity:
    def test_windows_matches_fresh_scalar_analysis(self):
        status, body = run_app(
            lambda app: app.handle_request_payload(
                query("windows", {"lines": list(CIRCUIT.outputs)})
            )
        )
        assert status == 200
        reference = windows_payload(
            TimingAnalyzer(
                CIRCUIT, LIBRARY, MC_MODELS["vshape"]()
            ).analyze_per_gate(),
            list(CIRCUIT.outputs),
        )
        assert body["result"] == reference

    @pytest.mark.parametrize("kind", ["max", "min"])
    def test_path_matches_fresh_per_gate_trace(self, kind):
        status, body = run_app(
            lambda app: app.handle_request_payload(
                query("path", {"kind": kind})
            )
        )
        assert status == 200
        analyzer = TimingAnalyzer(CIRCUIT, LIBRARY, MC_MODELS["vshape"]())
        reference = path_payload(analyzer, analyzer.analyze_per_gate(), kind)
        assert body["result"] == reference

    def test_mc_matches_one_shot_run_mc(self):
        params = {
            "samples": 24, "seed": 7, "block": 5, "sigma_corr": 0.04,
            "sigma_ind": 0.06, "quantiles": [0.5, 0.95],
        }
        status, body = run_app(
            lambda app: app.handle_request_payload(query("mc", params))
        )
        assert status == 200
        reference = run_mc(
            CIRCUIT, LIBRARY, model="vshape",
            variation=VariationModel(sigma_corr=0.04, sigma_ind=0.06),
            samples=24, seed=7, jobs=1, block=5,
        ).summary((0.5, 0.95), None)
        assert json.dumps(body["result"], sort_keys=True) \
            == json.dumps(reference, sort_keys=True)

    def test_corners_matches_fresh_corner_analyzer(self):
        from repro.pvt import CornerAnalyzer, parse_corner, scaled_library
        from repro.server.session import corners_payload

        specs = ["typ", "slow", "fast:process=0.9:vdd=3.6:late=1.05"]
        status, body = run_app(
            lambda app: app.handle_request_payload(
                query("corners", {"corners": specs})
            )
        )
        assert status == 200
        corners = [parse_corner(spec) for spec in specs]
        reference = corners_payload(
            corners,
            CornerAnalyzer(
                CIRCUIT, corners,
                [scaled_library(LIBRARY, corner) for corner in corners],
                model=MC_MODELS["vshape"](),
            ).analyze(),
            list(CIRCUIT.outputs),
        )
        assert json.dumps(body["result"], sort_keys=True) \
            == json.dumps(reference, sort_keys=True)

    def test_corners_reuses_warm_engine_across_queries(self):
        # Same corner set, different lines: distinct request keys (no
        # app-level memo hit), but one multi-corner engine build.
        from repro.server.session import CircuitSession

        lines = sorted(CIRCUIT.outputs)
        with use_registry() as registry:
            session = CircuitSession(CIRCUIT, LIBRARY)
            for subset in (lines, lines[:1]):
                params = validate_request(query("corners", {
                    "corners": ["typ", "slow"], "lines": subset,
                })).params
                session.dispatch("corners", params)
            built = registry.counter("server.session.corner_engines_built")
            assert built.value == 1
            # A different corner set is a genuinely new engine.
            session.dispatch("corners", validate_request(
                query("corners", {"corners": ["typ", "fast"]})
            ).params)
            assert built.value == 2

    def test_whatif_matches_per_edit_fresh_analysis(self):
        edits = [
            {"op": "resize", "line": GATE, "value": 0.5},
            {"op": "resize", "line": GATE, "value": 4.0},
        ]
        status, body = run_app(
            lambda app: app.handle_request_payload(
                query("whatif", {"edits": edits, "clock_ns": 2.0})
            )
        )
        assert status == 200
        model = MC_MODELS["vshape"]()
        base = TimingAnalyzer(
            CIRCUIT, LIBRARY, model
        ).analyze_per_gate().output_max_arrival()
        assert body["result"]["base_max_arrival_s"] == base
        for edit, row in zip(edits, body["result"]["trials"]):
            variant = load_packaged_bench("c17")
            variant.resize_gate(edit["line"], edit["value"])
            arrival = TimingAnalyzer(
                variant, LIBRARY, MC_MODELS["vshape"]()
            ).analyze_per_gate().output_max_arrival()
            assert row["max_arrival_s"] == arrival
            assert row["delta_s"] == arrival - base
            assert row["slack_s"] == 2.0e-9 - arrival


# ----------------------------------------------------------------------
# Socket round-trip
# ----------------------------------------------------------------------
class TestServerThread:
    def test_full_round_trip_and_clean_shutdown(self):
        # The CLI installs a metrics registry before serving; do the
        # same here so the /metrics scrape has content.
        with use_registry(), ServerThread(
            {"c17": CIRCUIT}, ServerConfig(port=0, workers=0),
            library=LIBRARY,
        ) as handle:
            with ServerClient("127.0.0.1", handle.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["circuits"] == ["c17"]

                result = client.result(
                    "c17", "windows", {"lines": list(CIRCUIT.outputs)}
                )
                assert set(result["lines"]) == set(CIRCUIT.outputs)

                with pytest.raises(ServerRequestError) as err:
                    client.result("c9999", "windows")
                assert err.value.code == "unknown_circuit"

                metrics = client.metrics()
                assert "repro_server_windows_latency_s" in metrics
                assert "repro_server_requests_windows_total" in metrics

                # Malformed JSON over the raw socket: structured 400.
                conn = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=10
                )
                conn.request(
                    "POST", "/v1/query", body=b"{nope",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                wire = response.read().decode("utf-8")
                conn.close()
                assert response.status == 400
                assert json.loads(wire)["error"]["code"] == "bad_request"
                assert "traceback" not in wire.lower()

                # json.loads takes the NaN token; the normalizer does not.
                conn = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=10
                )
                conn.request(
                    "POST", "/v1/query",
                    body=b'{"circuit": "c17", "method": "mc", '
                         b'"params": {"sigma_corr": NaN}}',
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                wire = response.read().decode("utf-8")
                conn.close()
                assert response.status == 400
                assert json.loads(wire)["error"]["code"] == "bad_request"

                client.shutdown()
        assert handle.stop() == []
        assert handle.error is None
