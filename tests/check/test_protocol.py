"""The protocol explorer: full coverage on the real engine, bug detection."""

import pytest

from repro.check.protocol import ProtocolExplorer, build_engine
from tests.check.test_hypothesis_bugs import mutate_skip_invalidation


class TestRealProtocol:
    def test_three_tile_exhaustive(self):
        """The acceptance config: >= 1000 states, zero violations."""
        report = ProtocolExplorer(tiles=3, lines=1, depth=4).explore()
        assert report.explored_states >= 1000
        assert report.transitions >= 1000
        assert report.unique_states >= 5
        assert report.violations == []
        assert report.unreachable == []
        assert report.ok

    def test_two_tiles_two_lines(self):
        report = ProtocolExplorer(tiles=2, lines=2, depth=3).explore()
        assert report.violations == []
        assert report.unreachable == []

    def test_mesi(self):
        report = ProtocolExplorer(tiles=2, lines=1, depth=3,
                                  protocol="mesi").explore()
        assert report.violations == []
        assert report.unreachable == []

    @pytest.mark.parametrize("directory", ["limited", "limitless"])
    def test_directory_variants(self, directory):
        report = ProtocolExplorer(tiles=3, lines=1, depth=3,
                                  directory_type=directory,
                                  max_sharers=2).explore()
        assert report.violations == []
        assert report.unreachable == []

    def test_needs_two_tiles(self):
        with pytest.raises(ValueError):
            ProtocolExplorer(tiles=1)


class TestBugDetection:
    def test_skipped_invalidation_is_caught(self):
        def buggy():
            engine = build_engine(2)
            mutate_skip_invalidation(engine)
            return engine

        report = ProtocolExplorer(tiles=2, lines=1, depth=3,
                                  engine_factory=buggy).explore()
        assert report.violations
        # The report carries a runnable reproduction sequence.
        assert all(v.sequence for v in report.violations)

    def test_lost_writeback_is_caught(self):
        """Dropping writebacks breaks functional data integrity."""
        def buggy():
            engine = build_engine(2)
            engine.backing.write_line = lambda address, data: None
            return engine

        report = ProtocolExplorer(tiles=2, lines=1, depth=3,
                                  engine_factory=buggy).explore()
        assert any("stale" in v.message or "lost" in v.message
                   for v in report.violations)

    def test_violation_reports_are_bounded(self):
        def buggy():
            engine = build_engine(2)
            mutate_skip_invalidation(engine)
            return engine

        report = ProtocolExplorer(tiles=2, lines=1, depth=4,
                                  engine_factory=buggy,
                                  max_violations=3).explore()
        assert len(report.violations) == 3
