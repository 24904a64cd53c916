"""The richer fault vocabulary: grammar, overlay semantics, and
serial <-> sharded digest parity for every kind."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.faults import (
    CorrelatedFailure,
    FaultOverlay,
    FailureSchedule,
    LinkDegradeFault,
    ScheduledFailure,
    StragglerFault,
    expand_correlated,
)
from repro.run.backends import run_scenario
from repro.run.scenario import Scenario
from repro.util.errors import ConfigurationError


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------
time_text = st.one_of(
    st.builds("{}e{}{}".format, st.integers(0, 99), st.integers(-3, 400), st.sampled_from(["", "s", "h"])),
    st.floats(min_value=0.0).map(repr),
)
entry_text = st.one_of(
    st.builds("{}@{}".format, st.integers(0, 7), time_text),
    st.builds("straggler:{}@{}+{}*2".format, st.integers(0, 7), time_text, time_text),
    st.builds("link:0-{}@{}+{}*3".format, st.integers(1, 7), time_text, time_text),
    st.builds("corr:{}@{}~1+{}".format, st.integers(0, 7), time_text, time_text),
)


@given(st.lists(entry_text, min_size=1, max_size=3).map(",".join))
def test_every_parsed_time_is_finite_or_the_schedule_is_refused(text):
    try:
        schedule = FailureSchedule.parse(text)
    except ConfigurationError:
        return
    for entry in schedule.entries:  # every entry here spells its duration
        for name in ("time", "duration", "spread"):
            assert math.isfinite(getattr(entry, name, 0.0)), (text, entry)


class TestGrammar:
    def test_all_kinds_roundtrip(self):
        text = "3@100.0,straggler:1@10.0+50.0*2.5,link:2-4@10.0+5.0*4.0,corr:5@200.0~2+1.0"
        sched = FailureSchedule.parse(text)
        assert FailureSchedule.parse(sched.render()).render() == sched.render()
        kinds = [type(e).__name__ for e in sched.entries]
        assert set(kinds) == {
            "ScheduledFailure", "StragglerFault", "LinkDegradeFault", "CorrelatedFailure",
        }

    def test_unit_suffixes_accepted_everywhere(self):
        sched = FailureSchedule.parse("straggler:0@1ms+2ms*2.0,link:1-2@500us*3.0")
        strag = next(e for e in sched.entries if isinstance(e, StragglerFault))
        link = next(e for e in sched.entries if isinstance(e, LinkDegradeFault))
        assert strag.time == pytest.approx(1e-3)
        assert strag.duration == pytest.approx(2e-3)
        assert link.time == pytest.approx(5e-4)
        assert math.isinf(link.duration)

    def test_infinite_window_renders_without_duration(self):
        text = StragglerFault(3, 5.0, 2.0).render()
        assert "+" not in text
        assert FailureSchedule.parse(text).entries[0].duration == math.inf

    def test_link_endpoints_canonicalized(self):
        a = LinkDegradeFault(4, 2, 10.0, 3.0)
        b = LinkDegradeFault(2, 4, 10.0, 3.0)
        assert (a.rank_a, a.rank_b) == (2, 4)
        assert a.render() == b.render()

    def test_factor_below_one_rejected(self):
        # Factors < 1 would speed ranks up, invalidating the sharded
        # engine's conservative lookahead (costs must stay >= undegraded).
        with pytest.raises(ConfigurationError):
            StragglerFault(0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            FailureSchedule.parse("link:0-1@5.0*0.9")

    def test_validate_checks_every_kind_in_range(self):
        for text in ("straggler:9@1.0*2.0", "link:0-9@1.0*2.0", "corr:9@1.0~1"):
            with pytest.raises(ConfigurationError):
                FailureSchedule.parse(text).validate(nranks=8)
        FailureSchedule.parse(
            "straggler:7@1.0*2.0,link:0-7@1.0*2.0,corr:7@1.0~1"
        ).validate(nranks=8)

    def test_cross_kind_sort_is_deterministic(self):
        text = "link:0-1@5.0*2.0,straggler:2@5.0*2.0,corr:3@5.0~1,4@5.0"
        rendered = FailureSchedule.parse(text).render()
        # Same time: fail-stop, correlated, straggler, link (kind order).
        assert rendered == "4@5.0,corr:3@5.0~1,straggler:2@5.0*2.0,link:0-1@5.0*2.0"

    def test_digest_folds_new_kinds(self):
        base = Scenario(ranks=8, app="heat3d", iterations=10)
        digests = {
            base.with_(failures=f).scenario_digest()
            for f in ("", "straggler:3@5.0*2.0", "straggler:3@5.0*3.0",
                      "link:0-1@5.0*2.0", "corr:3@5.0~1")
        }
        assert len(digests) == 5


# ----------------------------------------------------------------------
# overlay
# ----------------------------------------------------------------------
class TestOverlay:
    def test_empty_overlay_is_identity(self):
        ov = FaultOverlay()
        assert not ov.active_compute and not ov.active_links
        assert ov.compute_factor(0, 1.0) == 1.0
        assert ov.link_factor(0, 1, 1.0) == 1.0

    def test_no_window_rank_returns_duration_unchanged(self):
        ov = FaultOverlay()
        ov.arm(StragglerFault(3, 5.0, 2.0, 10.0))
        # Bit-exact passthrough for unaffected ranks: the armed overlay
        # must not perturb their digests.
        for d in (0.1, 1.0 / 3.0, 7.25):
            assert ov.stretch_compute(0, 2.0, d) == d

    def test_stretch_fully_inside_window(self):
        ov = FaultOverlay()
        ov.arm(StragglerFault(0, 0.0, 2.0, 100.0))
        assert ov.stretch_compute(0, 10.0, 5.0) == pytest.approx(10.0)

    def test_stretch_window_opens_mid_compute(self):
        ov = FaultOverlay()
        ov.arm(StragglerFault(0, 10.0, 3.0))  # open-ended from t=10
        # 8s of work from t=6: 4s undegraded, then 4s of work at 3x = 12s.
        assert ov.stretch_compute(0, 6.0, 8.0) == pytest.approx(16.0)

    def test_stretch_window_closes_mid_compute(self):
        ov = FaultOverlay()
        ov.arm(StragglerFault(0, 0.0, 2.0, 10.0))
        # From t=0: the first 10 wall seconds do 5s of work (2x), the
        # remaining 3s run clean -> 13s wall for 8s of work.
        assert ov.stretch_compute(0, 0.0, 8.0) == pytest.approx(13.0)

    def test_overlapping_windows_compound(self):
        ov = FaultOverlay()
        ov.arm(StragglerFault(0, 0.0, 2.0, 100.0))
        ov.arm(StragglerFault(0, 0.0, 3.0, 100.0))
        assert ov.compute_factor(0, 1.0) == pytest.approx(6.0)
        assert ov.stretch_compute(0, 0.0, 4.0) == pytest.approx(24.0)

    def test_link_factor_is_undirected(self):
        ov = FaultOverlay()
        ov.arm(LinkDegradeFault(5, 2, 0.0, 4.0, 10.0))
        assert ov.link_factor(2, 5, 1.0) == 4.0
        assert ov.link_factor(5, 2, 1.0) == 4.0
        assert ov.link_factor(2, 5, 10.0) == 1.0  # window closed
        assert ov.link_factor(2, 4, 1.0) == 1.0  # other pair


# ----------------------------------------------------------------------
# correlated expansion
# ----------------------------------------------------------------------
class TestCorrelatedExpansion:
    def _network(self, ranks=16):
        return Scenario(ranks=ranks, topology="torus").system_config().make_network()

    def test_radius_zero_is_seed_only(self):
        net = self._network()
        fault = CorrelatedFailure(5, 100.0, 0)
        assert expand_correlated(fault, net, 16) == [(5, 100.0)]

    def test_radius_one_is_topology_neighborhood(self):
        net = self._network()
        fault = CorrelatedFailure(5, 100.0, 1, spread=1.0)
        expanded = dict(expand_correlated(fault, net, 16))
        assert expanded[5] == 100.0
        for rank, t in expanded.items():
            hops = net.hops(5, rank)
            assert hops <= 1
            assert t == 100.0 + hops * 1.0
        # Everything within the radius is present, nothing outside it.
        expected = {r for r in range(16) if net.hops(5, r) <= 1}
        assert set(expanded) == expected


# ----------------------------------------------------------------------
# end-to-end effect + serial <-> sharded parity
# ----------------------------------------------------------------------
def _outcome(failures, **kw):
    s = Scenario(ranks=8, app="heat3d", iterations=10, failures=failures, **kw)
    return run_scenario(s, cache=False).summary()


class TestEndToEnd:
    def test_straggler_stretches_completion(self):
        base = _outcome("")
        hit = _outcome("straggler:3@0.0*2.0")
        assert hit["completed"]
        assert hit["exit_time"] > base["exit_time"]

    def test_short_window_inside_one_compute_phase_still_felt(self):
        # heat3d batches iterations into coarse compute advances; a window
        # opening mid-phase must still stretch the overlapping portion.
        base = _outcome("")
        e1 = base["exit_time"]
        hit = _outcome(f"straggler:3@{e1 / 2!r}+5.0*4.0")
        assert 0.0 < hit["exit_time"] - e1 < 5.0 * 4.0

    def test_correlated_kills_neighborhood_and_restarts(self):
        base = _outcome("")
        hit = _outcome("corr:2@5.0~1")
        assert hit["completed"]
        assert hit["restarts"] >= 1
        assert hit["failures"] > 1  # the whole neighborhood died
        assert hit["exit_time"] > base["exit_time"]

    @pytest.mark.parametrize(
        "failures",
        [
            "straggler:3@5.0*2.0",
            "straggler:3@5.0+20.0*3.0",
            "link:0-1@5.0*8.0",
            "corr:2@5.0~1",
            "corr:2@5.0~1+0.5",
            "1@3.0,straggler:2@5.0+20.0*2.0,link:3-7@0.0*4.0",
        ],
    )
    def test_serial_sharded_digest_parity(self, failures):
        serial = _outcome(failures)
        sharded = _outcome(failures, shards=2, shard_transport="inline")
        assert serial["result_digest"] == sharded["result_digest"]
        assert serial["exit_time"] == sharded["exit_time"]
