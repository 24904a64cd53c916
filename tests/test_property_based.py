"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import (
    daly_higher_order_interval,
    daly_simple_interval,
    expected_completion_time,
)
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.models.network.topology import MeshTopology, TorusTopology
from repro.util.stats import summarize
from repro.util.units import format_size, format_time, parse_size

# ----------------------------------------------------------------------
# topologies: hop metric properties
# ----------------------------------------------------------------------
dims_strategy = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3).map(tuple)


@given(dims=dims_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_torus_hops_is_a_metric(dims, data):
    t = TorusTopology(dims)
    a = data.draw(st.integers(0, t.nnodes - 1))
    b = data.draw(st.integers(0, t.nnodes - 1))
    c = data.draw(st.integers(0, t.nnodes - 1))
    # identity, symmetry, triangle inequality
    assert t.hops(a, a) == 0
    assert t.hops(a, b) == t.hops(b, a)
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert t.hops(a, b) <= t.diameter()


@given(dims=dims_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_mesh_dominates_torus_distance(dims, data):
    m, t = MeshTopology(dims), TorusTopology(dims)
    a = data.draw(st.integers(0, m.nnodes - 1))
    b = data.draw(st.integers(0, m.nnodes - 1))
    assert m.hops(a, b) >= t.hops(a, b)


@given(dims=dims_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_torus_neighbors_consistent_with_hops(dims, data):
    t = TorusTopology(dims)
    node = data.draw(st.integers(0, t.nnodes - 1))
    for nb in t.neighbors(node):
        assert t.hops(node, nb) == 1


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
@settings(max_examples=100)
def test_summarize_invariants(xs):
    s = summarize(xs)
    assert s.minimum <= s.median <= s.maximum
    assert s.minimum <= s.mean <= s.maximum
    assert s.stddev >= 0
    assert s.count == len(xs)
    assert s.total == sum(xs)
    assert s.mode in xs
    # numpy agreement (population stddev)
    assert math.isclose(s.stddev, float(np.std(xs)), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(s.median, float(np.median(xs)), rel_tol=1e-9, abs_tol=1e-9)


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10**15))
@settings(max_examples=100)
def test_size_format_is_parseable(n):
    # formatting is lossy (1 decimal) but must parse back within 5 %
    back = parse_size(format_size(n).replace(" ", ""))
    assert back == n or abs(back - n) <= max(64.0, 0.05 * n)


@given(st.floats(min_value=1e-9, max_value=1e6, allow_nan=False))
@settings(max_examples=100)
def test_time_format_roundtrip_within_precision(t):
    text = format_time(t).replace(",", "").replace(" ", "")
    from repro.util.units import parse_time

    # one-decimal formatting rounds by up to 0.05 units of the chosen
    # scale, i.e. up to ~5 % at the bottom of a decade
    assert math.isclose(parse_time(text), t, rel_tol=0.06)


# ----------------------------------------------------------------------
# failure schedule textual format
# ----------------------------------------------------------------------
schedule_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
    ),
    max_size=20,
)


@given(schedule_strategy)
@settings(max_examples=100)
def test_failure_schedule_render_parse_roundtrip(pairs):
    # Schedules are canonical: duplicates collapse (merging via extend
    # cannot double-inject) and entries sort by (time, rank), so the
    # round-trip preserves the canonical set, not the raw input list.
    s = FailureSchedule.of(*pairs)
    canonical = sorted({(r, float(t)) for r, t in pairs}, key=lambda p: (p[1], p[0]))
    assert [(e.rank, e.time) for e in s] == canonical
    back = FailureSchedule.parse(s.render())
    assert [(e.rank, e.time) for e in back] == canonical


# ----------------------------------------------------------------------
# multi-kind fault schedules
# ----------------------------------------------------------------------
_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_factor = st.floats(min_value=1.0, max_value=100.0, allow_nan=False, allow_infinity=False)
_window = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_rank = st.integers(min_value=0, max_value=63)


def _entry_strategy():
    from repro.core.faults import (
        CorrelatedFailure,
        LinkDegradeFault,
        ScheduledFailure,
        StragglerFault,
    )

    failstop = st.builds(ScheduledFailure, _rank, _time)
    straggler = st.builds(StragglerFault, _rank, _time, _factor, _window)
    link = st.tuples(_rank, _rank, _time, _factor, _window).filter(
        lambda t: t[0] != t[1]
    ).map(lambda t: LinkDegradeFault(*t))
    corr = st.builds(
        CorrelatedFailure,
        _rank,
        _time,
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    return st.one_of(failstop, straggler, link, corr)


@given(st.lists(_entry_strategy(), max_size=12))
@settings(max_examples=100, deadline=None)
def test_multi_kind_schedule_canonical_fixpoint(entries):
    # Construction canonicalizes (dedupe + stable cross-kind sort); the
    # textual form must round-trip that canonical schedule exactly, and
    # re-parsing its own render must be a fixpoint.
    s = FailureSchedule(list(entries))
    assert s.entries == sorted(set(s.entries), key=lambda e: _canonical_key(e))
    back = FailureSchedule.parse(s.render())
    assert back.entries == s.entries
    assert back.render() == s.render()


def _canonical_key(entry):
    from repro.core.faults.schedule import _sort_key

    return _sort_key(entry)


# ----------------------------------------------------------------------
# correlated expansion == hop ball
# ----------------------------------------------------------------------
@given(
    dims=dims_strategy,
    ranks_per_node=st.integers(min_value=1, max_value=2),
    radius=st.integers(min_value=0, max_value=3),
    spread=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_correlated_expansion_is_exact_hop_ball(dims, ranks_per_node, radius, spread, data):
    from repro.core.faults import CorrelatedFailure, expand_correlated
    from repro.models.network.model import NetworkModel

    net = NetworkModel(TorusTopology(dims), ranks_per_node=ranks_per_node)
    nranks = net.topology.nnodes * ranks_per_node
    seed = data.draw(st.integers(0, nranks - 1))
    fault = CorrelatedFailure(seed, 50.0, radius, spread=spread)
    expanded = expand_correlated(fault, net, nranks)
    # sorted by rank, seed included, and exactly the <= radius hop ball
    assert [r for r, _ in expanded] == sorted(r for r, _ in expanded)
    assert dict(expanded).get(seed) == 50.0
    for rank in range(nranks):
        hops = net.hops(seed, rank)
        if hops <= radius:
            assert dict(expanded)[rank] == 50.0 + hops * spread
        else:
            assert rank not in dict(expanded)


# ----------------------------------------------------------------------
# adaptive explorer: spend is monotone in the CI target
# ----------------------------------------------------------------------
@given(
    widths=st.tuples(
        st.floats(min_value=0.08, max_value=0.45),
        st.floats(min_value=0.08, max_value=0.45),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=20, deadline=None)
def test_explorer_spend_monotone_in_ci_target(widths, seed):
    from unittest import mock

    from repro.explore import ExploreSpec, run_explore
    from repro.run.scenario import Scenario

    def fake_run_cells(scenarios, jobs=1, cache=None):
        out = []
        for s in scenarios:
            if not s.failures:
                out.append({"completed": True, "exit_time": 100.0,
                            "result_digest": "base", "mode": "single"})
            else:
                h = hash((seed, s.failures)) % 1000 / 1000.0
                out.append({"completed": True, "exit_time": 100.0 * (1.0 + h),
                            "e2": 100.0 * (1.0 + h), "result_digest": f"d{h}",
                            "mode": "restart", "mttf_a": 50.0})
        return out

    loose_w, tight_w = max(widths), min(widths)
    base = ExploreSpec(
        scenario=Scenario(ranks=8, app="heat3d", iterations=10),
        rank_bins=2, time_bins=2, min_samples=2, batch=8,
        max_cells=300, impact_threshold=0.5, seed=seed % 97,
    )
    with mock.patch("repro.explore.sampler.run_cells", fake_run_cells):
        loose = run_explore(base.with_(ci_width=loose_w))
        tight = run_explore(base.with_(ci_width=tight_w))
    # The allocation policy never reads the stopping target, so a looser
    # target can only stop earlier, along the identical trajectory.
    assert loose.spent <= tight.spent
    assert loose.batches == tight.batches[: len(loose.batches)]


# ----------------------------------------------------------------------
# Daly formulas
# ----------------------------------------------------------------------
@given(
    delta=st.floats(min_value=0.1, max_value=100.0),
    mttf=st.floats(min_value=200.0, max_value=1e6),
)
@settings(max_examples=100)
def test_daly_interval_positive_and_ordered(delta, mttf):
    simple = daly_simple_interval(delta, mttf)
    higher = daly_higher_order_interval(delta, mttf)
    assert simple > 0
    assert higher > 0
    # the higher-order correction matters most when delta/M is large, but
    # stays within a factor of 2 of the first-order optimum in this range
    assert 0.5 < higher / simple < 2.0


@given(
    work=st.floats(min_value=100.0, max_value=1e5),
    tau=st.floats(min_value=1.0, max_value=1e3),
    delta=st.floats(min_value=0.1, max_value=50.0),
    mttf=st.floats(min_value=100.0, max_value=1e6),
)
@settings(max_examples=100)
def test_expected_completion_never_beats_raw_work(work, tau, delta, mttf):
    t = expected_completion_time(work, min(tau, work), delta, mttf)
    assert t > work * 0.999


# ----------------------------------------------------------------------
# checkpoint store: random operation sequences keep invariants
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["begin", "commit", "delete_file", "delete_set", "cleanup"]),
        st.integers(min_value=0, max_value=4),  # ckpt id
        st.integers(min_value=0, max_value=3),  # rank
    ),
    max_size=60,
)


@given(ops_strategy)
@settings(max_examples=100)
def test_store_invariants_under_random_ops(ops):
    from repro.util.errors import CheckpointError

    store = CheckpointStore()
    nranks = 4
    for op, cid, rank in ops:
        if op == "begin":
            store.begin_write(cid, rank, {"cid": cid}, 8)
        elif op == "commit":
            try:
                store.commit_write(cid, rank)
            except CheckpointError:
                pass  # committing a never-begun file is an app error
        elif op == "delete_file":
            store.delete(cid, rank)
        elif op == "delete_set":
            store.delete(cid)
        elif op == "cleanup":
            store.cleanup_incomplete(nranks)
    # invariant: whatever happened, latest_valid returns a fully valid set
    latest = store.latest_valid(nranks)
    if latest is not None:
        assert store.is_valid(latest, nranks)
        for r in range(nranks):
            assert store.read(latest, r).data == {"cid": latest}
    # and after the shell-script step only valid sets remain
    store.cleanup_incomplete(nranks)
    for cid in store.checkpoint_ids():
        assert store.is_valid(cid, nranks)


# ----------------------------------------------------------------------
# engine: random compute/communicate apps terminate deterministically
# ----------------------------------------------------------------------
@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=6
    ),
    failure_time=st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)),
)
@settings(max_examples=60, deadline=None)
def test_engine_clocks_monotone_and_deterministic(durations, failure_time):
    from repro.pdes.engine import Engine
    from repro.pdes.requests import Advance

    def build():
        eng = Engine()

        def worker(ds):
            for d in ds:
                yield Advance(d)

        for i in range(len(durations)):
            eng.spawn(worker(durations[i:] + durations[:i]))
        if failure_time is not None:
            eng.schedule_failure(0, failure_time)
        return eng.run()

    r1, r2 = build(), build()
    assert r1.end_times == r2.end_times
    assert r1.failures == r2.failures
    total = sum(durations)
    for rank, end in r1.end_times.items():
        assert 0.0 <= end <= total + 1e-9
        if r1.states[rank].value == "done":
            assert math.isclose(end, total, rel_tol=1e-9, abs_tol=1e-12)
    if failure_time is not None and r1.failures:
        # activation at-or-after the scheduled time
        assert r1.failures[0][1] >= failure_time - 1e-12
