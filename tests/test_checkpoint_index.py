"""The checkpoint store is indexed by checkpoint id, and a restart is
linear in ranks.

Every rank of a (re)started job runs ``restore_latest``; at the parent of
this change each of them rescanned the whole namespace (``checkpoint_ids``
and ``is_valid`` walked every file of every set), so a restart cost
ranks x files.  Two kinds of test hold the fix:

* an **operation count** — file records handed out while all 2,048 ranks
  restore, counted through the mapping that holds them (counts repeat
  exactly; a timer would not);
* a **property** — every indexed query equals the scan formula it
  replaced, after any sequence of writes, commits and deletes, asked
  again after each one so a stale memo cannot hide.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint.protocol import resolve_protocol
from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.resilience.multilevel import MultilevelStore
from repro.util.errors import CheckpointError

RANKS = 2048


class CountingFiles(dict):
    """One set's ``{rank: file}`` mapping, counting every file record it
    hands out: one per successful point lookup, the whole set per
    iteration (a scan is charged in full even if it stops early)."""

    def __init__(self, files, counter):
        super().__init__(files)
        self.counter = counter

    def __getitem__(self, rank):
        self.counter[0] += 1
        return super().__getitem__(rank)

    def get(self, rank, default=None):
        found = super().get(rank, default)
        if found is not default:
            self.counter[0] += 1
        return found

    def __iter__(self):
        self.counter[0] += len(self)
        return super().__iter__()

    def items(self):
        self.counter[0] += len(self)
        return super().items()

    def values(self):
        self.counter[0] += len(self)
        return super().values()


def two_complete_sets(store, nranks):
    for cid in (20, 40):
        for rank in range(nranks):
            store.begin_write(cid, rank, {"iteration": cid}, 64)
            store.commit_write(cid, rank)


def count_reads(store_for_app, namespaces):
    """Run a job whose every rank restores from ``store_for_app``; return
    the file records read from ``namespaces`` meanwhile, and what each
    rank restored."""
    counter = [0]
    for store in namespaces:
        store._sets = {cid: CountingFiles(files, counter) for cid, files in store._sets.items()}

    def app(mpi):
        yield from mpi.init()
        proto = resolve_protocol(mpi, store_for_app)
        cid, data = yield from proto.restore_latest()
        yield from mpi.finalize()
        return cid, data["iteration"]

    sim = XSim(SystemConfig.small_test_system(nranks=RANKS))
    result = sim.run(app)
    assert result.completed
    return counter[0], result.exit_values


class TestRestartIsLinearInRanks:
    # parent: 2 x 2,048^2 = 8,388,608 records (is_valid walked both sets
    # of 2,048 files for each of the 2,048 ranks)
    def test_single_level_protocol(self):
        store = CheckpointStore()
        two_complete_sets(store, RANKS)
        reads, restored = count_reads(store, [store])
        assert set(restored.values()) == {(40, 40)}
        # one validity scan of the newest set + one read per rank
        assert reads == 2 * RANKS

    def test_multilevel_protocol(self):
        ml = MultilevelStore(k=4, partner_every=2)
        two_complete_sets(ml.local, RANKS)
        reads, restored = count_reads(ml, ml.component_stores())
        assert set(restored.values()) == {(40, 40)}
        # one recoverability scan + per rank: find the tier, read, note
        # which tiers hold the id for the next prune
        assert reads == 4 * RANKS

    def test_a_change_to_the_set_is_seen_by_the_next_rank(self):
        # the memo is per state of the set, not per store lifetime
        store = CheckpointStore()
        two_complete_sets(store, 4)
        assert store.latest_valid(4) == 40
        store.begin_write(40, 2, None, 64)  # rank 2 rewrites: PARTIAL again
        assert store.latest_valid(4) == 20
        store.commit_write(40, 2)
        assert store.latest_valid(4) == 40
        store.delete(40, 3)
        assert store.latest_valid(4) == 20
        assert store.is_valid(40, 3)  # exactly ranks 0..2 now
        ml = MultilevelStore(k=2, partner_every=1)
        two_complete_sets(ml.local, 4)
        assert ml.recoverable(40, 4)
        ml.local.delete(40, 1)  # node memory of rank 1 lost
        assert not ml.recoverable(40, 4)
        ml.partner.begin_write(40, 1, None, 64)
        assert not ml.recoverable(40, 4)  # partner copy still PARTIAL
        ml.partner.commit_write(40, 1)
        assert ml.recoverable(40, 4)


# ----------------------------------------------------------------------
# the indexed queries against the scans they replaced
# ----------------------------------------------------------------------
class ScanStore:
    """The parent commit's store: one flat ``{(ckpt_id, rank): [state,
    nbytes]}`` namespace, every query a scan of all of it."""

    def __init__(self):
        self.files = {}
        self.writes = self.deletes = 0

    def begin_write(self, cid, rank, data, nbytes):
        self.files[(cid, rank)] = [FileState.PARTIAL, nbytes]
        self.writes += 1

    def commit_write(self, cid, rank):
        if (cid, rank) not in self.files:
            raise CheckpointError("unknown")
        self.files[(cid, rank)][0] = FileState.COMPLETE

    def delete(self, cid, rank=None):
        keys = [k for k in self.files if k[0] == cid and (rank is None or k[1] == rank)]
        for key in keys:
            del self.files[key]
        self.deletes += len(keys)
        return len(keys)

    def checkpoint_ids(self):
        return sorted({cid for cid, _ in self.files})

    def ranks_present(self, cid):
        return sorted(r for c, r in self.files if c == cid)

    def is_valid(self, cid, nranks):
        present = 0
        for (c, rank), (state, _) in self.files.items():
            if c != cid:
                continue
            if rank >= nranks or state is not FileState.COMPLETE:
                return False
            present += 1
        return present == nranks

    def latest_valid(self, nranks):
        for cid in reversed(self.checkpoint_ids()):
            if self.is_valid(cid, nranks):
                return cid
        return None

    def corrupted_files(self, cid):
        return sorted(
            r for (c, r), (state, _) in self.files.items()
            if c == cid and state is FileState.PARTIAL
        )

    def cleanup_incomplete(self, nranks):
        removed = [cid for cid in self.checkpoint_ids() if not self.is_valid(cid, nranks)]
        for cid in removed:
            self.delete(cid)
        return removed


IDS = (10, 20, 30)
MAX_RANK = 4  # ranks 0..4, job widths 0..5

ops = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(IDS), st.integers(0, MAX_RANK), st.integers(0, 99)),
    st.tuples(st.just("commit"), st.sampled_from(IDS), st.integers(0, MAX_RANK)),
    st.tuples(st.just("delete"), st.sampled_from(IDS), st.integers(0, MAX_RANK)),
    st.tuples(st.just("delete-set"), st.sampled_from(IDS)),
    st.tuples(st.just("cleanup"), st.integers(0, MAX_RANK + 1)),
)


def apply(store, op):
    kind, *args = op
    if kind == "begin":
        cid, rank, nbytes = args
        return store.begin_write(cid, rank, None, nbytes)
    if kind == "commit":
        try:
            return store.commit_write(*args)
        except CheckpointError:
            return "unknown file"
    if kind in ("delete", "delete-set"):
        return store.delete(*args)
    return store.cleanup_incomplete(*args)


def assert_same_answers(store, scan):
    assert store.checkpoint_ids() == scan.checkpoint_ids()
    assert (len(store), store.writes, store.deletes) == (len(scan.files), scan.writes, scan.deletes)
    assert store.total_bytes() == sum(nbytes for _, nbytes in scan.files.values())
    assert {key: (f.state, f.nbytes) for key, f in store.files()} == {
        key: tuple(value) for key, value in scan.files.items()
    }
    for cid in IDS:
        assert store.ranks_present(cid) == scan.ranks_present(cid)
        assert store.corrupted_files(cid) == scan.corrupted_files(cid)
        for rank in range(MAX_RANK + 1):
            state = scan.files.get((cid, rank), [None])[0]
            assert store.state_of(cid, rank) is state
            assert store.exists(cid, rank) == (state is not None)
    for nranks in range(MAX_RANK + 2):
        for cid in IDS:
            assert store.is_valid(cid, nranks) == scan.is_valid(cid, nranks), (cid, nranks)
        assert store.latest_valid(nranks) == scan.latest_valid(nranks)


@given(sequence=st.lists(ops, max_size=30))
@settings(max_examples=150, deadline=None)
def test_indexed_queries_equal_the_scan_formulas(sequence):
    store, scan = CheckpointStore(), ScanStore()
    assert_same_answers(store, scan)
    for op in sequence:
        # every memo is warm from the last round when the change lands
        assert apply(store, op) == apply(scan, op), op
        assert_same_answers(store, scan)
    assert_same_answers(pickle.loads(pickle.dumps(store)), scan)


tier_ops = st.tuples(
    st.sampled_from(("local", "partner", "global")),
    st.sampled_from(("begin", "commit", "delete")),
    st.integers(0, 3),
)


@given(sequence=st.lists(tier_ops, max_size=25))
@settings(max_examples=100, deadline=None)
def test_recoverable_equals_the_per_rank_tier_scan(sequence):
    ml = MultilevelStore(k=2, partner_every=1)

    def scan(nranks):
        return all(
            any(t.state_of(7, q) is FileState.COMPLETE for t in ml.component_stores())
            for q in range(nranks)
        )

    for tier, kind, rank in sequence:
        store = ml.tier_of(tier)
        if kind == "begin":
            store.begin_write(7, rank, None, 8)
        elif kind == "commit" and store.exists(7, rank):
            store.commit_write(7, rank)
        elif kind == "delete":
            store.delete(7, rank)
        for nranks in range(5):
            assert ml.recoverable(7, nranks) == scan(nranks)


def test_a_store_round_trips_field_for_field():
    # a cached result carries its store, memo included
    store = CheckpointStore()
    two_complete_sets(store, 3)
    store.delete(20, 1)
    assert store.latest_valid(3) == 40
    again = pickle.loads(pickle.dumps(store))
    assert vars(again).keys() == vars(store).keys()
    assert (again._revs, again._valid) == (store._revs, store._valid)
    assert (again.writes, again.deletes, len(again)) == (6, 1, 5)
    assert again.checkpoint_ids() == [20, 40] and again.ranks_present(20) == [0, 2]
