"""Tests for the differential fuzzing subsystem (``repro.fuzz``)."""

import json

import numpy as np
import pytest

import repro.sta.compile as compile_mod
from repro.cli import main
from repro.fuzz import (
    FuzzCase,
    FuzzConfig,
    FuzzRunner,
    ORACLES,
    case_size,
    generate_case,
    load_artifact,
    prune_circuit_dict,
    replay_artifact,
    run_fuzz,
    run_oracle,
    select_oracles,
    shrink_case,
    write_artifact,
)
from repro.fuzz.case import (
    delete_gate_from_dict,
    faults_valid_for,
    window_from_list,
    window_to_list,
)
from repro.sta.windows import DirWindow

#: Coordinates of a ``level`` case the planted bug is known to fail on
#: (a 30-gate circuit that shrinks to one gate in 5 oracle checks);
#: deterministic because cases derive entirely from (seed, oracle, index).
PLANTED_SEED, PLANTED_INDEX = 1234, 2

FAST_ORACLES = ("level", "itr")


def plant_curvature_bug(monkeypatch):
    """Swap the curvature conditions in the compiled engine's
    ``quad_extremes_batch``.

    The mutant counts the interior stationary point toward the max for
    convex quadratics and toward the min for concave ones — exactly
    backwards — so the level-compiled pass returns wrong pin-to-pin
    extremes while the scalar walk it is diffed against stays right.
    """

    def buggy(a2, a1, a0, t_star, v_min, v_max, lo, hi):
        # The arc rows carry the T* value as the candidate of the
        # extreme its curvature allows (the other one is inert at
        # +-inf); the mutant hands each to the other extreme.
        v_lo = (a2 * lo + a1) * lo + a0
        v_hi = (a2 * hi + a1) * hi + a0
        interior = (lo < t_star) & (t_star < hi)
        maxs = np.maximum(v_lo, v_hi)
        maxs = np.where(
            interior & np.isfinite(v_min), np.maximum(maxs, v_min), maxs
        )
        mins = np.minimum(v_lo, v_hi)
        mins = np.where(
            interior & np.isfinite(v_max), np.minimum(mins, v_max), mins
        )
        return mins, maxs

    monkeypatch.setattr(compile_mod, "quad_extremes_batch", buggy)


class TestGenerators:
    def test_same_coordinates_same_case(self):
        for oracle in ORACLES:
            a = generate_case(oracle, seed=99, index=3)
            b = generate_case(oracle, seed=99, index=3)
            assert a.to_dict() == b.to_dict(), oracle

    def test_different_coordinates_differ(self):
        a = generate_case("level", seed=99, index=3)
        b = generate_case("level", seed=99, index=4)
        c = generate_case("level", seed=100, index=3)
        assert a.to_dict() != b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_cases_are_json_round_trippable(self):
        for oracle in ORACLES:
            case = generate_case(oracle, seed=5, index=0)
            wire = json.loads(json.dumps(case.to_dict()))
            assert FuzzCase.from_dict(wire).to_dict() == case.to_dict()

    def test_generated_circuits_build(self):
        for index in range(6):
            case = generate_case("level", seed=11, index=index)
            circuit = case.build_circuit()
            assert circuit.outputs
            assert circuit.topological_order()


class TestOracleRegistry:
    def test_expected_oracles_registered(self):
        assert set(ORACLES) == {
            "level", "incremental", "itr", "atpg-jobs",
            "char-jobs", "mc", "serve", "corners", "spice",
        }

    def test_select_all_and_unknown(self):
        assert [o.name for o in select_oracles()] == list(ORACLES)
        with pytest.raises(KeyError):
            select_oracles(["no-such-oracle"])

    def test_schedule_covers_every_registered_oracle(self):
        config = FuzzConfig(cases=len(ORACLES) * 2, seed=0)
        runner = FuzzRunner(config)
        scheduled = {oracle for oracle, _ in runner._schedule()}
        assert scheduled == set(ORACLES)

    def test_fast_oracles_pass_on_healthy_build(self):
        for oracle in FAST_ORACLES:
            for index in range(3):
                case = generate_case(oracle, seed=21, index=index)
                result = run_oracle(case)
                assert result.ok, f"{oracle}[{index}]: {result.detail}"


class TestCampaign:
    def test_run_is_deterministic_and_green(self, tmp_path):
        config = FuzzConfig(
            oracles=FAST_ORACLES, cases=9, seed=2026,
            artifact_dir=tmp_path / "a",
        )
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.ok and second.ok
        key = lambda r: [(o.oracle, o.index, o.ok) for o in r.outcomes]  # noqa: E731
        assert key(first) == key(second)
        assert not list((tmp_path / "a").glob("*.json"))

    def test_parallel_matches_serial_schedule(self, tmp_path):
        serial = run_fuzz(FuzzConfig(
            oracles=("level", "itr"), cases=6, seed=4,
            artifact_dir=tmp_path,
        ))
        parallel = run_fuzz(FuzzConfig(
            oracles=("level", "itr"), cases=6, seed=4, jobs=2,
            artifact_dir=tmp_path,
        ))
        key = lambda r: sorted((o.oracle, o.index, o.ok) for o in r.outcomes)  # noqa: E731
        assert key(serial) == key(parallel)

    def test_parallel_workers_report_merged_metrics(self, tmp_path):
        # Pool workers run real registries whose per-case deltas merge
        # back into the parent (like the characterize/ATPG/MC pools),
        # so --jobs N counter totals equal --jobs 1 and no
        # "uninstrumented workers" warning remains.
        import warnings

        from repro.obs import use_registry

        def totals(jobs):
            with use_registry() as registry:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    run_fuzz(FuzzConfig(
                        oracles=("level",), cases=2, seed=5, jobs=jobs,
                        artifact_dir=tmp_path,
                    ))
                snapshot = registry.snapshot()["counters"]
            return {
                name: value for name, value in snapshot.items()
                if name.startswith(("fuzz.", "sta."))
            }

        serial, parallel = totals(1), totals(2)
        assert parallel["fuzz.cases"] == 2
        assert parallel.get("sta.gates_evaluated", 0) > 0
        assert parallel == serial

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(cases=None, time_budget=None)
        with pytest.raises(ValueError):
            FuzzConfig(cases=0)


class TestPlantedBug:
    def test_caught_shrunk_and_replayable(self, monkeypatch, tmp_path):
        plant_curvature_bug(monkeypatch)
        case = generate_case("level", PLANTED_SEED, PLANTED_INDEX)
        result = run_oracle(case)
        assert not result.ok, "planted curvature bug was not detected"

        shrunk = shrink_case(case, max_checks=400)
        assert shrunk.reduced
        assert case_size(shrunk.case) < case_size(case)
        assert len(shrunk.case.circuit["gates"]) <= 3
        assert not run_oracle(shrunk.case).ok

        path = write_artifact(
            case, result.detail, directory=tmp_path,
            shrunk=shrunk.case, shrink_note=shrunk.summary(),
        )
        replayed_case, replayed = replay_artifact(path)
        assert replayed_case.to_dict() == shrunk.case.to_dict()
        assert not replayed.ok

    def test_runner_writes_artifact_for_failure(self, monkeypatch, tmp_path):
        plant_curvature_bug(monkeypatch)
        config = FuzzConfig(
            oracles=("level",), cases=PLANTED_INDEX + 1,
            seed=PLANTED_SEED, artifact_dir=tmp_path,
        )
        report = run_fuzz(config)
        assert not report.ok
        failure = report.failures[0]
        assert failure.artifact is not None
        assert failure.shrunk_gates is not None
        assert failure.shrunk_gates <= 3
        payload = load_artifact(failure.artifact)
        assert payload["seed"] == PLANTED_SEED
        assert "shrunk" in payload
        assert "FAILURE" in report.format_summary()

    def test_artifact_passes_once_bug_is_fixed(self, monkeypatch, tmp_path):
        with monkeypatch.context() as patched:
            plant_curvature_bug(patched)
            case = generate_case("level", PLANTED_SEED, PLANTED_INDEX)
            detail = run_oracle(case).detail
            path = write_artifact(case, detail, directory=tmp_path)
        # Monkeypatch undone: the real primitive is back, the replay
        # passes.
        _, result = replay_artifact(path)
        assert result.ok


class TestCaseSurgery:
    def test_window_list_round_trip(self):
        w = DirWindow(a_s=1e-10, a_l=3e-10, t_s=2e-10, t_l=4e-10, state=1)
        assert window_from_list(window_to_list(w)) == w
        assert window_from_list(window_to_list(DirWindow.impossible())) \
            == DirWindow.impossible()

    def test_prune_to_cone(self):
        circ = {
            "name": "t", "inputs": ["a", "b", "c"], "outputs": ["y", "z"],
            "gates": [["x", "and", ["a", "b"]],
                      ["y", "or", ["x", "c"]],
                      ["z", "not", ["c"]]],
        }
        pruned = prune_circuit_dict(circ, ["z"])
        assert pruned["inputs"] == ["c"]
        assert [g[0] for g in pruned["gates"]] == ["z"]

    def test_delete_gate_promotes_pi(self):
        circ = {
            "name": "t", "inputs": ["a", "b"], "outputs": ["y"],
            "gates": [["x", "and", ["a", "b"]], ["y", "not", ["x"]]],
        }
        reduced = delete_gate_from_dict(circ, "x")
        assert "x" in reduced["inputs"]
        assert [g[0] for g in reduced["gates"]] == ["y"]
        assert delete_gate_from_dict(circ, "a") is None

    def test_faults_filtered_to_surviving_lines(self):
        circ = {"name": "t", "inputs": ["a"], "outputs": ["y"],
                "gates": [["y", "not", ["a"]]]}
        faults = [
            {"aggressor": "a", "victim": "y"},
            {"aggressor": "gone", "victim": "y"},
            {"aggressor": "y", "victim": "y"},
        ]
        assert faults_valid_for(circ, faults) == [faults[0]]


class TestCli:
    def test_fuzz_list_oracles(self, capsys):
        assert main(["fuzz", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_fuzz_green_run(self, tmp_path, capsys):
        rc = main([
            "fuzz", "--oracles", "level,itr", "--cases", "6",
            "--seed", "7", "--artifact-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "0 failures" in capsys.readouterr().out

    def test_fuzz_unknown_oracle_is_an_error(self, tmp_path):
        rc = main([
            "fuzz", "--oracles", "bogus", "--cases", "1",
            "--artifact-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_fuzz_failure_exit_code_and_replay(
        self, monkeypatch, tmp_path, capsys
    ):
        with monkeypatch.context() as patched:
            plant_curvature_bug(patched)
            rc = main([
                "fuzz", "--oracles", "level", "--no-shrink",
                "--cases", str(PLANTED_INDEX + 1),
                "--seed", str(PLANTED_SEED),
                "--artifact-dir", str(tmp_path),
            ])
            assert rc == 1
            artifacts = sorted(tmp_path.glob("*.json"))
            assert artifacts
            assert main(["fuzz", "--replay", str(artifacts[0])]) == 1
        # Bug gone: the same artifact replays clean.
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_missing_file_is_an_error(self, tmp_path, capsys):
        rc = main(["fuzz", "--replay", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error: cannot read artifact" in capsys.readouterr().err

    def test_replay_non_artifact_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "is not a repro fuzz-failure artifact" in (
            capsys.readouterr().err
        )

    def test_replay_unregistered_oracle_is_an_error(self, tmp_path, capsys):
        """An artifact of an oracle this build no longer has (the
        retired ``kernels`` one) is an error, not a failing replay."""
        case = generate_case("level", PLANTED_SEED, PLANTED_INDEX)
        path = write_artifact(
            case.clone(oracle="kernels"), "saved", directory=tmp_path
        )
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "error: unknown oracle 'kernels'" in capsys.readouterr().err
