"""SimLog: entries in order, the default level, the command-line form."""

from repro.util.simlog import LogEntry, SimLog


class TestUnboundedDefault:
    def test_records_everything_in_order(self):
        log = SimLog()
        for i in range(5):
            log.log(float(i), "tick", f"n={i}")
        assert len(log) == 5
        assert [e.time for e in log] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_default_level_is_info(self):
        log = SimLog()
        log.log(0.0, "failure", "rank died", rank=3)
        (entry,) = log.entries
        assert entry.level == "info"

    def test_render_unchanged(self):
        entry = LogEntry(time=1.5, category="failure", rank=2, message="boom")
        assert entry.render() == "[xsim       1.500000s rank 2] failure: boom"
