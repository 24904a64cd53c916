"""Unit parsing and formatting (repro.util.units)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.units import format_size, format_time, parse_rate, parse_size, parse_time


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("42") == 42

    def test_paper_eager_threshold(self):
        assert parse_size("256kB") == 256_000

    def test_binary_prefix(self):
        assert parse_size("256KiB") == 262_144

    def test_decimal_prefixes(self):
        assert parse_size("1MB") == 1_000_000
        assert parse_size("2GB") == 2_000_000_000
        assert parse_size("1TB") == 10**12
        assert parse_size("1PB") == 10**15

    def test_binary_prefixes(self):
        assert parse_size("1MiB") == 2**20
        assert parse_size("1GiB") == 2**30
        assert parse_size("1TiB") == 2**40

    def test_case_insensitive(self):
        assert parse_size("64 mb") == parse_size("64MB")

    def test_whitespace(self):
        assert parse_size("  32 GB ") == 32_000_000_000

    def test_fractional(self):
        assert parse_size("1.5kB") == 1500

    def test_scientific(self):
        assert parse_size("1e3") == 1000

    def test_numeric_passthrough(self):
        assert parse_size(1024) == 1024
        assert parse_size(10.6) == 11

    def test_bare_b_suffix(self):
        assert parse_size("128B") == 128

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_size(-1)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_size("fast")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_size("3 qB")


class TestParseTime:
    def test_paper_link_latency(self):
        assert parse_time("1us") == pytest.approx(1e-6)

    def test_micro_sign(self):
        assert parse_time("2µs") == pytest.approx(2e-6)

    def test_all_units(self):
        assert parse_time("1ns") == pytest.approx(1e-9)
        assert parse_time("1ms") == pytest.approx(1e-3)
        assert parse_time("1s") == 1.0
        assert parse_time("2min") == 120.0
        assert parse_time("1h") == 3600.0
        assert parse_time("1d") == 86400.0

    def test_bare_number_is_seconds(self):
        assert parse_time("3000") == 3000.0

    def test_thousands_separator(self):
        assert parse_time("3,000 s") == 3000.0

    def test_numeric_passthrough(self):
        assert parse_time(2.5) == 2.5

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_time("soon")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_time("3 fortnights")


class TestParseRate:
    def test_paper_bandwidth(self):
        assert parse_rate("32GB/s") == 32_000_000_000

    def test_without_per_second(self):
        assert parse_rate("1MB") == 1_000_000

    def test_numeric_passthrough(self):
        assert parse_rate(5e9) == 5e9


# A number as a user may spell it: exponents past a float's range
# (``1e400`` is inf), overflow only after the unit's scale (``1e300PB``),
# float reprs (``inf`` among them) and digit soup.
number_text = st.one_of(
    st.builds("{}e{}".format, st.integers(0, 999), st.integers(-400, 400)),
    st.floats(min_value=0.0).map(repr),
    st.text("0123456789.e+-", max_size=8),
)
size_units = st.sampled_from(["", "B", "kB", "MB", "GiB", "PB", "PiB", "x"])
time_units = st.sampled_from(["", "s", "ns", "us", "ms", "min", "h", "d", "fortnights"])


def _finite_or_refused(parse, value):
    try:
        out = parse(value)
    except ConfigurationError:
        return
    assert math.isfinite(out)


class TestParsersAreFiniteOrRefuse:
    """Every parser returns a finite value or raises ConfigurationError:
    an ``OverflowError`` or an infinite time reached the CLI as a
    traceback or a run that never ends."""

    @given(st.one_of(st.builds("{}{}".format, number_text, size_units), st.floats()))
    def test_parse_size(self, value):
        _finite_or_refused(parse_size, value)

    @given(st.one_of(st.builds("{}{}/s".format, number_text, size_units), st.floats()))
    def test_parse_rate(self, value):
        _finite_or_refused(parse_rate, value)

    @given(st.one_of(st.builds("{} {}".format, number_text, time_units), st.floats()))
    def test_parse_time(self, value):
        _finite_or_refused(parse_time, value)

    def test_the_overflows_that_reached_the_cli(self):
        for parse, text in ((parse_size, "1e400"), (parse_rate, "1e400GB/s"), (parse_time, "1e400s")):
            with pytest.raises(ConfigurationError, match="not finite"):
                parse(text)


class TestFormat:
    def test_format_size_ranges(self):
        assert format_size(12) == "12 B"
        assert format_size(2_500) == "2.5 kB"
        assert format_size(3_000_000) == "3.0 MB"
        assert format_size(32e9) == "32.0 GB"
        assert format_size(5e12) == "5.0 TB"
        assert format_size(7e15) == "7.0 PB"

    def test_format_time_ranges(self):
        assert format_time(0.0) == "0 s"
        assert format_time(5e-9) == "5.0 ns"
        assert format_time(2e-6) == "2.0 us"
        assert format_time(3e-3) == "3.0 ms"
        assert format_time(1.5) == "1.500 s"
        assert format_time(5248.0) == "5,248 s"

    def test_roundtrip_examples(self):
        assert parse_time(format_time(5248.0).replace(",", "")) == 5248.0
