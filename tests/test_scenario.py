"""The unified scenario & runtime-backend layer (``repro.run``)."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.run import (
    XSIM_ENV_VARS,
    Scenario,
    capped_shards,
    expand_matrix,
    load_scenario_file,
    parse_dims,
    parse_set,
    run_scenario,
    run_sweep,
)
from repro.run.envvars import read_environment
from repro.run.scenario import BACKEND_TRANSPORTS
from repro.util.errors import ConfigurationError

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = Path(__file__).resolve().parent.parent / "docs"


def tiny(**overrides) -> Scenario:
    """A fast 8-rank scenario (sub-second serial run)."""
    base = dict(ranks=8, iterations=20, interval=10)
    base.update(overrides)
    return Scenario(**base)


# ----------------------------------------------------------------------
# layered resolution
# ----------------------------------------------------------------------
class TestResolutionPrecedence:
    def test_defaults_match_bare_cli(self):
        s = Scenario()
        assert (s.ranks, s.topology, s.app) == (64, "torus", "heat3d")
        assert (s.iterations, s.interval, s.seed, s.shards) == (1000, 1000, 0, 1)

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "s.toml"
        f.write_text("[machine]\nranks = 16\n")
        s = Scenario.resolve(file=f, use_environment=False)
        assert s.ranks == 16
        assert s.topology == "torus"  # untouched default

    def test_env_overrides_file(self, tmp_path):
        f = tmp_path / "s.toml"
        f.write_text('[resilience]\nfailures = "1@5s"\n\n[execution]\nshards = 4\n')
        s = Scenario.resolve(
            file=f, environ={"XSIM_FAILURES": "2@9s", "XSIM_SHARDS": "2"}
        )
        assert s.failures == "2@9s"  # env replaces, not extends
        assert s.shards == 2

    def test_flags_override_env(self, tmp_path):
        f = tmp_path / "s.toml"
        f.write_text("[machine]\nranks = 16\n")
        s = Scenario.resolve(
            file=f,
            environ={"XSIM_FAILURES": "2@9s", "XSIM_SHARDS": "3"},
            failures="5@1s",
            ranks=32,
        )
        assert s.failures == "5@1s"
        assert s.shards == 3  # env layer, no flag
        assert s.ranks == 32  # flag beats file

    def test_the_worker_count_is_no_field(self):
        """A campaign's worker count is its own argument: XSIM_JOBS moves
        no scenario, and neither a constructor call nor a digest stand-in
        takes one."""
        assert Scenario.resolve(environ={"XSIM_JOBS": "2"}).scenario_digest() == (
            Scenario().scenario_digest()
        )
        with pytest.raises(TypeError, match="'jobs'"):
            Scenario(jobs=2)
        with pytest.raises(TypeError, match="'jobs'"):
            Scenario().digest_with(jobs=1)

    def test_none_override_means_not_given(self):
        assert Scenario.resolve(use_environment=False, ranks=None).ranks == 64

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            Scenario.resolve(use_environment=False, rank_count=8)

    def test_flags_scenario_equals_toml_scenario(self, tmp_path):
        """A scenario built from CLI-style kwargs equals one from the
        equivalent TOML file — including the digest."""
        f = tmp_path / "s.toml"
        f.write_text(
            "[machine]\nranks = 8\n\n[app]\niterations = 20\ninterval = 10\n"
            '\n[resilience]\nfailures = "3@50s"\n'
        )
        from_file = Scenario.resolve(file=f, use_environment=False)
        from_flags = Scenario.resolve(
            use_environment=False, ranks=8, iterations=20, interval=10,
            failures="3@50s",
        )
        assert from_file == from_flags
        assert from_file.scenario_digest() == from_flags.scenario_digest()

    def test_bad_env_int_rejected(self):
        with pytest.raises(ConfigurationError, match="XSIM_SHARDS"):
            Scenario.resolve(environ={"XSIM_SHARDS": "many"})

    def test_shard_transport_from_environment(self):
        s = Scenario.resolve(
            environ={"XSIM_SHARDS": "2", "XSIM_SHARD_TRANSPORT": "shm"}
        )
        assert s.shard_transport == "shm"
        assert s.backend_name() == "sharded-shm"

    def test_bad_env_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="XSIM_SHARD_TRANSPORT"):
            Scenario.resolve(environ={"XSIM_SHARD_TRANSPORT": "morse"})


# ----------------------------------------------------------------------
# serialization & digest
# ----------------------------------------------------------------------
class TestSerialization:
    def test_toml_round_trip(self):
        s = tiny(
            topology="mesh", dims=(3, 3), failures="1@5s", mttf=None,
            shards=2, shard_transport="inline", check=True, trace_out="t.json",
        )
        assert Scenario.from_toml(s.to_toml()) == s

    def test_round_trip_keeps_digest(self):
        s = tiny(mttf=3000.0, seed=7)
        assert Scenario.from_toml(s.to_toml()).scenario_digest() == s.scenario_digest()

    def test_dict_round_trip(self):
        s = tiny(dims=(2, 2, 2), topology="torus")
        assert Scenario.from_dict(s.to_dict()) == s

    def test_digest_changes_with_any_field(self):
        assert tiny().scenario_digest() != tiny(seed=1).scenario_digest()

    def test_golden_digests(self):
        """Scenario digests are an on-disk contract (cache keys, ledger
        records): the values below were taken at the commit before the
        digest became a once-per-instance value and ``cache_key``
        stopped building a normalized scenario through ``with_``.  They
        predate the removal of the ``engine`` field, which is why the
        digest still hashes the line ``engine='heap'`` in its place (and
        ``jobs=1`` where the worker count was a field; ``busy``'s value
        is the one it had at ``jobs=1``)."""
        busy = Scenario(
            ranks=125, topology="mesh", dims=(5, 5, 5), app="cg", iterations=40,
            interval=7, failures="3@50s,straggler:2@50s+10s*2.0", mttf=3000,
            strategy="ckpt-multilevel", strategy_params={"k": 4}, seed=11,
            shards=2, shard_transport="inline", check=True,
            trace_out="/tmp/t.json", slowdown=2,
        )
        golden = "d9dea4ff92f1f07d39b861d21e13e87ca65bbadef8e9aeeea080b3d1eaa668bd"
        normalized = "48a68f82e48ba36d888bfa1b69cb29e5f6c50d9115afd2182f7954a535f7ea4d"
        assert Scenario().scenario_digest() == (
            "9aa39df03a7b3fd126e166c6062f1ab2f158e496e2eab80f37a591406e6718c4"
        )
        assert busy.scenario_digest() == golden
        assert busy.scenario_digest() == golden  # second read: the kept value
        execution = dict(shards=1, shard_transport=None, trace_out="")
        assert busy.digest_with(**execution) == normalized
        assert busy.with_(**execution).scenario_digest() == normalized
        # the kept digest is not a field: ==, repr, to_dict, TOML never see it
        fresh = busy.with_()
        assert fresh == busy and repr(fresh) == repr(busy)
        assert fresh.to_dict() == busy.to_dict() and fresh.to_toml() == busy.to_toml()
        assert "_digest" not in repr(busy) + busy.to_toml()

    def test_digest_with_refuses_a_name_that_is_not_a_field(self):
        """A misspelt stand-in would silently hash the field it meant to
        replace, so two keys that should differ would collide: it raises
        what ``with_`` raises instead."""
        with pytest.raises(TypeError) as from_with:
            Scenario().with_(shard=4)
        with pytest.raises(TypeError) as from_digest:
            Scenario().digest_with(shard=4)
        assert str(from_digest.value) == str(from_with.value)
        with pytest.raises(TypeError, match="'engine'"):
            Scenario().digest_with(engine="heap")  # hashed, but not a field
        with pytest.raises(TypeError, match="'backend'"):
            Scenario().digest_with(backend=None)  # likewise

    def test_random_scenarios_keep_their_digests_and_keys(self):
        """400 scenarios drawn from a fixed seed hash to the digests they
        had while the worker count was a field (at its default, 1), and to
        the cache keys of cache schema 5 (the schema is in every key's
        salt): every pinned scorecard still matches."""
        import hashlib
        import random

        from repro.cache.store import cache_key

        rng = random.Random(49)
        digests, keys = hashlib.sha256(), hashlib.sha256()
        for _ in range(400):
            shards = rng.choice([1, 1, 2, 4])
            s = Scenario(
                ranks=rng.choice([8, 16, 27, 64, 125]),
                topology=rng.choice(["torus", "mesh", "fattree"]),
                latency=rng.choice(["1us", "500ns", "2us"]),
                bandwidth=rng.choice(["32GB/s", "10GB/s"]),
                slowdown=rng.choice([1000.0, 1.0, 2.5]),
                collectives=rng.choice(["linear", "tree"]),
                app=rng.choice(["heat3d", "cg"]),
                iterations=rng.randint(1, 2000),
                interval=rng.randint(1, 500),
                failures=rng.choice(["", "3@50s", "1@5s,2@9s"]),
                mttf=rng.choice([None, 3000.0, 125.5]),
                strategy=rng.choice(["ckpt", "none", "ckpt-multilevel"]),
                seed=rng.randint(0, 2**31),
                shards=shards,
                shard_transport=rng.choice([None, "inline", "shm"]) if shards > 1 else None,
                check=rng.choice([None, True, False]),
                observe=rng.choice([True, False]),
                trace_detail=rng.choice([True, False]),
                trace_out=rng.choice(["", "t.json"]),
            )
            digests.update(f"{s.scenario_digest()}\n".encode())
            keys.update(f"{cache_key(s)}\n".encode())
        assert digests.hexdigest() == (
            "226b4e00c9b52379b0c28a56fea9925adba62a5dd5702ceb848d28eecaa1dc07"
        )
        assert keys.hexdigest() == (
            "e69ac55b9c5ec7f411cdc1c5c36ca8ddf0522531ea0205b1cb4a4ec3a7887acf"
        )

    def test_stand_ins_that_change_nothing_return_the_kept_digest(self, monkeypatch):
        """A scenario already in normal form is hashed once for its cache
        key and its summary; stand-ins that hash alike but are spelt
        differently (``True`` for ``1``) are not the field's value."""
        import repro.run.scenario as module

        hashed = []
        real = module._field_digest
        monkeypatch.setattr(
            module, "_field_digest", lambda s, o: hashed.append(o) or real(s, o)
        )
        s = tiny(seed=3)
        assert s.digest_with(shards=1, trace_out="") == s.scenario_digest()
        assert hashed == [{}]
        assert s.digest_with(slowdown=s.slowdown) == s.scenario_digest() and len(hashed) == 1
        odd = tiny(iterations=1)
        assert odd.digest_with(iterations=True) != odd.scenario_digest()
        with pytest.raises(ConfigurationError, match="^iterations must be an integer, got True$"):
            odd.with_(iterations=True)  # a bool is no iterations count
        assert s.digest_with(shards=2) == s.with_(shards=2).scenario_digest() != s.scenario_digest()

    def test_unknown_table_and_key_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown scenario table"):
            Scenario.from_toml("[wardrobe]\nnarnia = true\n")
        with pytest.raises(ConfigurationError, match="machine.rank_count"):
            Scenario.from_toml("[machine]\nrank_count = 8\n")

    def test_trace_out_implies_observe(self):
        assert tiny(trace_out="t.json").observe is True

    def test_file_round_trip(self, tmp_path):
        s = tiny(failures="2@7s")
        path = tmp_path / "s.toml"
        s.to_toml_file(path)
        assert Scenario.from_toml_file(path) == s

    def test_sweep_table_loaded_and_validated(self, tmp_path):
        f = tmp_path / "s.toml"
        f.write_text("[machine]\nranks = 8\n\n[sweep]\ninterval = [10, 5]\n")
        scenario, grid = load_scenario_file(f, use_environment=False)
        assert scenario.ranks == 8
        assert grid == {"interval": [10, 5]}
        f.write_text("[sweep]\nwarp = [1]\n")
        with pytest.raises(ConfigurationError, match="unknown sweep field"):
            load_scenario_file(f, use_environment=False)


# ----------------------------------------------------------------------
# the removed event-core selector
# ----------------------------------------------------------------------
class TestEngineSelectorIsGone:
    """There is one event core; what used to pick between two is refused
    at every layer that took it, not accepted and ignored."""

    def test_scenario_file_key_refused(self):
        with pytest.raises(ConfigurationError, match=r"unknown scenario key execution\.engine"):
            Scenario.from_toml('[execution]\nengine = "flat"\n')

    def test_sweep_grid_and_keyword_refused(self, tmp_path):
        f = tmp_path / "s.toml"
        f.write_text('[sweep]\nengine = ["heap", "flat"]\n')
        with pytest.raises(ConfigurationError, match="unknown sweep field 'engine'"):
            load_scenario_file(f, use_environment=False)
        with pytest.raises(ConfigurationError, match="unknown scenario field.*engine"):
            Scenario.resolve(use_environment=False, engine="flat")

    def test_environment_variable_is_not_read(self):
        # Spelled in two pieces: a grep for the removed name finds no reader.
        env = {"XSIM_" + "ENGINE": "flat"}
        assert read_environment(env) == {}
        assert Scenario.resolve(environ=env).scenario_digest() == Scenario().scenario_digest()


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_registry_names(self):
        assert BACKEND_TRANSPORTS == {
            "serial": None,
            "sharded-inline": "inline",
            "sharded-shm": "shm",
        }

    def test_backend_name_derivation(self):
        assert tiny().backend_name() == "serial"
        assert tiny(shards=2).backend_name() == "sharded-inline"
        assert tiny(shards=2, shard_transport="inline").backend_name() == "sharded-inline"
        assert tiny(shards=2, shard_transport="shm").backend_name() == "sharded-shm"

    def test_unknown_transport_rejected_at_resolution(self):
        with pytest.raises(ConfigurationError, match="unknown shard transport"):
            tiny(shards=2, shard_transport="carrier-pigeon")

    def test_serial_vs_sharded_inline_digest_parity(self):
        serial = run_scenario(tiny())
        sharded = run_scenario(tiny(shards=2, shard_transport="inline"))
        assert serial.digest() == sharded.digest()
        assert serial.scenario.scenario_digest() != sharded.scenario.scenario_digest()

    def test_restart_mode_with_schedule(self):
        outcome = run_scenario(tiny(iterations=40, failures="3@50s"))
        assert outcome.mode == "restart"
        assert outcome.completed
        assert outcome.run.f == 1
        summary = outcome.summary()
        assert summary["restarts"] == 1
        assert summary["result_digest"] == outcome.digest()

    def test_restart_digest_matches_across_backends(self):
        """A restart scenario, through its TOML round trip, digests the
        same on every backend."""
        scenario = Scenario.from_toml(tiny(iterations=40, failures="3@50s").to_toml())
        digests = {
            name: run_scenario(
                scenario.with_(shards=1 if transport is None else 2, shard_transport=transport)
            ).digest()
            for name, transport in BACKEND_TRANSPORTS.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_outcome_metadata_records_actual_transport(self):
        outcome = run_scenario(tiny(shards=2, shard_transport="inline"))
        assert outcome.metadata == {"shard_transport": "inline", "nshards": 2}
        # Execution facts stay out of the result digest: a serial run of
        # the same workload (empty metadata) produces the same digest.
        serial = run_scenario(tiny())
        assert serial.metadata == {}
        assert serial.digest() == outcome.digest()

    def test_outcome_metadata_in_restart_mode(self):
        outcome = run_scenario(
            tiny(iterations=40, failures="3@50s", shards=2, shard_transport="inline")
        )
        assert outcome.mode == "restart"
        assert outcome.metadata == {"shard_transport": "inline", "nshards": 2}

    def test_xsim_from_scenario_backend_described(self):
        from repro.core.simulator import XSim

        sim = XSim.from_scenario(tiny(shards=2, shard_transport="inline"))
        described = sim.describe_architecture()["backend"]
        assert described == {
            "name": "sharded-inline", "shards": 2, "shard_transport": "inline",
        }


#: Scenario field -> how a built simulation shows it carries the value.
CARRIED = {
    "check": lambda sim: sim.checker is not None,
    "observe": lambda sim: sim.observer is not None,
    "trace_detail": lambda sim: sim.observer.detail,
    "seed": lambda sim: sim.seed,
    "shards": lambda sim: sim.shards,
    "shard_transport": lambda sim: sim.shard_transport,
    "record_events": lambda sim: sim.event_trace is not None,
}


class TestConstructionParity:
    """Every simulation a scenario causes to be built carries the
    scenario's values, whichever of the two sites built it:
    ``RestartDriver`` (each segment of every run, a fault-free one
    included) and ``_build_replica`` (each inline shard)."""

    SCENARIO = dict(
        check=True, observe=True, trace_detail=True, seed=7,
        shards=2, shard_transport="inline", record_events=True,
    )

    @pytest.fixture(scope="class")
    def built(self):
        """mode -> every XSim constructed while running it."""
        from repro.core.simulator import XSim

        sims: list = []
        init = XSim.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sims.append(self)

        runs = {"single": tiny(**self.SCENARIO)}
        runs["restart"] = runs["single"].with_(iterations=40, failures="3@50s")
        out = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(XSim, "__init__", recording_init)
            for mode, scenario in runs.items():
                del sims[:]
                outcome = run_scenario(scenario, cache=False)
                assert outcome.mode == mode
                out[mode] = list(sims)
        # parent + one replica; two segments of parent + one replica
        assert [len(out[mode]) for mode in ("single", "restart")] == [2, 4]
        return out

    @pytest.mark.parametrize("mode", ["single", "restart"])
    @pytest.mark.parametrize("field", list(CARRIED))
    def test_every_built_sim_carries_the_field(self, built, mode, field):
        assert [CARRIED[field](sim) for sim in built[mode]] == (
            [self.SCENARIO[field]] * len(built[mode])
        )


class TestCappedShards:
    """Boundary cases of the jobs x shards CPU cap (satellite c)."""

    def test_exact_fit_is_untouched(self, monkeypatch):
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 8)
        assert capped_shards(4, jobs=2, transport="shm") == 4

    def test_inline_never_capped(self, monkeypatch):
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 1)
        assert capped_shards(64, jobs=64, transport="inline") == 64

    def test_jobs_beyond_cpus_clamp_to_one_shard(self, monkeypatch, capsys):
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 4)
        assert capped_shards(2, jobs=8, transport="shm") == 1
        assert "capping shards to 1" in capsys.readouterr().err

    def test_undeterminable_cpu_count_caps_hard(self, monkeypatch, capsys):
        """os.cpu_count() may return None; the cap must neither crash nor
        oversubscribe — an unknown host is treated as one core."""
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: None)
        assert capped_shards(4, jobs=1, transport="shm") == 1
        assert capped_shards(4, jobs=3, transport="shm") == 1
        assert "oversubscribe" in capsys.readouterr().err
        # The inline transport needs no extra processes, so it is exempt.
        assert capped_shards(4, jobs=3, transport="inline") == 4

    def test_single_shard_skips_the_cap(self, monkeypatch):
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: None)
        assert capped_shards(1, jobs=64, transport="shm") == 1

    def test_cli_reexport_is_registry_function(self):
        from repro import cli
        from repro.run import backends

        assert cli.capped_shards is backends.capped_shards

    def test_a_pool_of_shm_cells_is_capped(self, monkeypatch, capfd):
        """Where processes multiply: two pool workers x two shm shards
        on two CPUs run one shard a cell, with one warning line for the
        campaign, and the summaries match a serial campaign's.  (The
        cells resolve under ``XSIM_JOBS=2`` so a campaign that read the
        worker count off its cells caps them alike.)"""
        import repro.run.backends as backends
        from repro.run.sweep import run_cells

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 2)
        cells = [
            Scenario.resolve(environ={"XSIM_JOBS": "2"}, ranks=8, iterations=10,
                             interval=5, seed=seed, shards=2, shard_transport="shm")
            for seed in (0, 1)
        ]
        pooled = run_cells(cells, jobs=2, cache=False)
        assert capfd.readouterr().err.count("capping shards to 1") == 1
        serial = run_cells([c.with_(shards=1) for c in cells], jobs=1, cache=False)
        for got, want in zip(pooled, serial):
            assert got["result_digest"] == want["result_digest"]
            assert got["backend"] == "sharded-shm"  # the cell as given

    def test_a_single_run_is_never_capped(self, monkeypatch, capsys):
        """One run forks only its own shards: ``XSIM_JOBS`` (a campaign's
        setting) neither caps it nor warns about it."""
        import repro.run.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 2)
        scenario = Scenario.resolve(
            environ={"XSIM_JOBS": "8"}, ranks=8, iterations=4, shards=2,
            shard_transport="shm",
        )
        outcome = run_scenario(scenario, cache=False)
        assert outcome.metadata["nshards"] == 2
        assert "oversubscribe" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_attach_to_sim(self):
        from repro.core.harness.config import SystemConfig
        from repro.core.simulator import XSim

        sim = XSim(
            SystemConfig.small_test_system(nranks=2),
            check=True, record_events=True, observe=True,
        )
        assert sim.checker is not None and sim.engine.check is not None
        assert sim.event_trace is not None and sim.engine.event_trace is sim.event_trace
        assert sim.observer is not None and sim.engine.obs is sim.observer

    def test_detached_by_default(self):
        from repro.core.harness.config import SystemConfig
        from repro.core.simulator import XSim

        sim = XSim(SystemConfig.small_test_system(nranks=2), check=False)
        assert sim.checker is None and sim.event_trace is None and sim.observer is None

    def test_observer_instance_passes_through(self):
        from repro.obs import Observer, observer_for

        obs = Observer(detail=True)
        assert observer_for(obs) is obs
        assert observer_for(None) is None
        assert observer_for(False) is None
        assert observer_for(True, detail=True).detail is True
        local = observer_for(obs, shard_local=True)
        assert local is not obs and local.detail is True and local.events == []
        assert observer_for(None, shard_local=True) is None


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_expand_matrix_order(self):
        cells = expand_matrix(tiny(), {"interval": [10, 5], "seed": [0, 1]})
        assert [(c.interval, c.seed) for c in cells] == [
            (10, 0), (10, 1), (5, 0), (5, 1),
        ]

    def test_parse_set_coercion(self):
        assert parse_set("mttf=6000,3000") == ("mttf", [6000.0, 3000.0])
        assert parse_set("interval=500,250") == ("interval", [500, 250])
        assert parse_set("check=1,0") == ("check", [True, False])
        assert parse_set("dims=2x2,4x1") == ("dims", [(2, 2), (4, 1)])

    def test_parse_set_errors(self):
        with pytest.raises(ConfigurationError, match="unknown sweep field"):
            parse_set("warp=9")
        with pytest.raises(ConfigurationError, match="expected field="):
            parse_set("interval")

    @given(st.lists(st.sampled_from(["", " ", "1", "8", " 27 ", "1e1"]), min_size=1, max_size=4))
    def test_parse_set_keeps_every_value_or_refuses(self, values):
        # "ranks=1,,2" used to read as [1, 2]: an empty value is refused.
        text = "ranks=" + ",".join(values)
        try:
            name, parsed = parse_set(text)
        except ConfigurationError as err:
            assert "" in [v.strip() for v in values]
            assert str(err).startswith("--set ranks ")
            return
        assert (name, parsed) == ("ranks", [int(float(v)) for v in values])

    @pytest.mark.parametrize(
        "text, expected",
        [
            # Regression: booleans used to fall through as raw strings for
            # any spelling outside a hand-maintained set, so "False" became
            # a truthy non-empty string and silently changed the digest.
            ("check=False,True", ("check", [False, True])),
            ("observe=no,yes", ("observe", [False, True])),
            ("record_events=off,on", ("record_events", [False, True])),
            ("trace_detail=0,1", ("trace_detail", [False, True])),
            # Scientific notation: floats parse, integral forms coerce to int.
            ("mttf=1e-3,2.5e3", ("mttf", [0.001, 2500.0])),
            ("slowdown=1e3", ("slowdown", [1000.0])),
            ("iterations=1e3,250", ("iterations", [1000, 250])),
            ("seed=2e1", ("seed", [20])),
            # Strings and dims stay themselves.
            ("app=cg,heat3d", ("app", ["cg", "heat3d"])),
            ("failures=3@5s", ("failures", ["3@5s"])),
            ("dims=4x2", ("dims", [(4, 2)])),
        ],
    )
    def test_parse_set_coercion_table(self, text, expected):
        name, values = parse_set(text)
        assert (name, values) == expected
        # types must be exact (True is not 1 for digest purposes)
        assert [type(v) for v in values] == [type(v) for v in expected[1]]

    def test_parse_set_rejects_non_integral_int(self):
        # The message an XSIM_* value gets, naming the axis instead.
        with pytest.raises(ConfigurationError, match="--set iterations must be an integer, got '2.5'"):
            parse_set("iterations=2.5")
        with pytest.raises(ConfigurationError, match="--set check must be a boolean"):
            parse_set("check=maybe")
        with pytest.raises(ConfigurationError, match="--set interval must be an integer, got 'fast'"):
            parse_set("interval=fast")

    def test_run_sweep_serial_matches_grid(self):
        pairs = run_sweep(tiny(), {"seed": [0, 1]})
        assert len(pairs) == 2
        (s0, r0), (s1, r1) = pairs
        assert (s0.seed, s1.seed) == (0, 1)
        assert r0["completed"] and r1["completed"]
        assert r0["result_digest"] == r1["result_digest"]  # seed only feeds injection

    def test_machine_override_reaches_a_pool_worker(self):
        # A slower machine (2x slowdown) must lengthen the simulated run:
        # the override crossed the process boundary into the worker's
        # SystemConfig.
        base = Scenario(ranks=8, iterations=100, interval=100)
        pairs = run_sweep(base, {"slowdown": [1000.0, 2000.0]}, jobs=2, cache=False)
        (_, plain), (_, slowed) = pairs
        assert slowed["exit_time"] > plain["exit_time"] * 1.5


# ----------------------------------------------------------------------
# dims (satellite d)
# ----------------------------------------------------------------------
class TestDims:
    def test_parse_dims(self):
        assert parse_dims("8x8x4") == (8, 8, 4)
        assert parse_dims("16,3") == (16, 3)
        with pytest.raises(ConfigurationError, match="bad dims"):
            parse_dims("8xbig")
        with pytest.raises(ConfigurationError, match=">= 1"):
            parse_dims("8x0")

    def test_valid_dims_build_topology(self):
        s = tiny(topology="mesh", dims=(3, 3))
        topo = s.system_config().make_topology()
        assert type(topo).__name__ == "MeshTopology"
        assert topo.nnodes == 9  # the grid's capacity; >= the 8 ranks

    def test_undersized_dims_rejected_with_counts(self):
        with pytest.raises(ConfigurationError) as err:
            Scenario(ranks=64, dims=(2, 2, 2))
        assert "hold 8 nodes but the job needs 64" in str(err.value)

    def test_fattree_dims_are_arity_levels(self):
        tiny(topology="fattree", dims=(4, 2))  # 4^2 = 16 >= 8: fine
        with pytest.raises(ConfigurationError, match=r"4\^1 holds 4 nodes"):
            tiny(topology="fattree", dims=(4, 1))
        with pytest.raises(ConfigurationError, match="arity must be >= 2"):
            tiny(topology="fattree", dims=(1, 8))

    def test_crossbar_takes_no_dims(self):
        with pytest.raises(ConfigurationError, match="takes no dims"):
            tiny(topology="crossbar", dims=(8,))

    def test_cli_dims_error_message(self, capsys):
        assert main(["app", "--ranks", "64", "--dims", "2x2x2"]) == 2
        err = capsys.readouterr().err
        assert "2x2x2" in err and "needs 64" in err

    def test_cli_dims_accepted(self, capsys):
        assert main([
            "app", "--app", "heat3d", "--ranks", "4", "--iterations", "2",
            "--dims", "2x2", "--topology", "mesh",
        ]) == 0
        assert "completed=True" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI integration (scenario flag, sweep subcommand, arch backend line)
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_app_scenario_file_and_digest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("XSIM_FAILURES", raising=False)
        f = tmp_path / "s.toml"
        f.write_text(
            "[machine]\nranks = 8\n\n[app]\niterations = 20\ninterval = 10\n"
        )
        assert main(["app", "--scenario", str(f), "--digest"]) == 0
        out = capsys.readouterr().out
        serial = re.search(r"result digest: ([0-9a-f]{64})", out).group(1)
        assert main([
            "app", "--scenario", str(f), "--digest",
            "--shards", "2", "--shard-transport", "inline",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(r"result digest: ([0-9a-f]{64})", out).group(1) == serial

    def test_a_failure_scenario_file_is_one_digest_serial_and_sharded(
        self, tmp_path, capsys, monkeypatch
    ):
        """A scenario file is a complete description of a restart run:
        serially and on 2 inline shards it prints one result digest, and
        its TOML round trip keeps the scenario and its digest."""
        for name in [n for n in os.environ if n.startswith("XSIM_") and n != "XSIM_CHECK"]:
            monkeypatch.delenv(name)
        f = tmp_path / "scenario.toml"
        f.write_text(
            '[machine]\nranks = 8\n\n[app]\nname = "heat3d"\niterations = 40\n'
            'interval = 10\n\n[resilience]\nfailures = "3@50s"\n'
        )
        digests = []
        for extra in ([], ["--shards", "2", "--shard-transport", "inline"]):
            assert main(["app", "--scenario", str(f), "--digest", *extra]) == 0
            digests += re.findall(r"^result digest: .*$", capsys.readouterr().out, re.M)
        assert len(digests) == 2 and digests[0] == digests[1]
        loaded, _ = load_scenario_file(f, use_environment=False)
        round_tripped = Scenario.from_toml(loaded.to_toml())
        assert round_tripped == loaded
        assert round_tripped.scenario_digest() == loaded.scenario_digest()

    def test_app_flags_override_scenario_file(self, tmp_path, capsys):
        f = tmp_path / "s.toml"
        f.write_text("[machine]\nranks = 8\n\n[app]\nname = \"heat3d\"\n")
        assert main([
            "app", "--scenario", str(f), "--app", "heat3d", "--iterations", "2",
            "--ranks", "4",
        ]) == 0
        assert "4 processes" in capsys.readouterr().out

    def test_sweep_cli_table(self, tmp_path, capsys):
        f = tmp_path / "s.toml"
        f.write_text(
            "[machine]\nranks = 8\n\n[app]\niterations = 20\ninterval = 10\n"
            "\n[sweep]\nseed = [0, 1]\n"
        )
        assert main(["sweep", "--scenario", str(f), "--set", "interval=10,5"]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out and "digest" in out

    def test_sweep_without_grid_errors(self, capsys):
        assert main(["sweep", "--ranks", "8"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_arch_renders_backend(self, capsys):
        assert main([
            "arch", "--ranks", "16", "--shards", "2", "--shard-transport", "inline",
        ]) == 0
        out = capsys.readouterr().out
        assert "execution backend: sharded-inline (2 shards, inline transport)" in out

    def test_arch_default_backend_serial(self, capsys):
        assert main(["arch", "--ranks", "16"]) == 0
        assert "execution backend: serial (1 shard)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# env-var registry vs docs vs code (satellite a)
# ----------------------------------------------------------------------
class TestEnvVarDocs:
    def test_env_var_docs_match_code(self):
        """Every XSIM_* variable the source reads is in the registry, and
        every registry entry is documented in the INTERNALS table; a
        retired variable (read only to be refused) is named there too,
        outside the table."""
        from repro.run.envvars import XSIM_ENV_RETIRED, XSIM_ENV_SWITCHES

        registered = set(XSIM_ENV_VARS) | set(XSIM_ENV_SWITCHES)
        read_in_source = set()
        for path in SRC.rglob("*.py"):
            for name in re.findall(r"\bXSIM_[A-Z_]+\b", path.read_text()):
                if name not in ("XSIM_ENV_VARS", "XSIM_ENV_SWITCHES", "XSIM_ENV_RETIRED"):
                    read_in_source.add(name)
        assert read_in_source == registered | set(XSIM_ENV_RETIRED)
        assert not registered & set(XSIM_ENV_RETIRED)

        table = (DOCS / "INTERNALS.md").read_text()
        documented = set(re.findall(r"^\| `(XSIM_[A-Z_]+)` \|", table, re.M))
        assert documented == registered
        assert all(f"`{name}`" in table for name in XSIM_ENV_RETIRED)

    def test_registry_flags_exist_in_cli(self):
        from repro.cli import build_parser

        help_text = build_parser().format_help()
        app_help = [
            a for a in build_parser()._subparsers._group_actions[0].choices.items()
        ]
        flags = {v.cli_flag for v in XSIM_ENV_VARS.values()}
        all_help = help_text + "".join(p.format_help() for _, p in app_help)
        for flag in flags:
            assert flag in all_help

    def test_scenario_fields_cover_registry(self):
        from dataclasses import fields

        names = {f.name for f in fields(Scenario)}
        assert {v.field for v in XSIM_ENV_VARS.values()} <= names
