"""Property: every mutated directory transition table yields a finding.

The explorer is only trustworthy if it actually *fails* on broken
protocols.  Each mutation below corrupts one transition of the
directory state machine; hypothesis drives combinations of mutation,
tile count and exploration depth, and the property is that the
explorer always reports at least one violation with a reproduction
sequence attached.
"""

from hypothesis import given, settings, strategies as st

from repro.check.protocol import ProtocolExplorer, build_engine
from repro.memory.directory import AddResult, DirState


def override(obj, **methods):
    """Give ``obj`` alone these methods: the model classes are slotted
    and take no instance attributes, so its class becomes a
    ``__slots__ = ()`` subclass that defines them."""
    obj.__class__ = type(f"Mutant{type(obj).__name__}", (type(obj),),
                         {"__slots__": (), **methods})


def mutate_drop_add(engine):
    """add_sharer forgets to record the sharer (U -> S loses the S)."""
    for directory in engine.directories:
        override(directory, add_sharer=lambda self, entry, tile,
                 timestamp=0: AddResult())


def mutate_phantom_sharer(engine):
    """add_sharer also records a tile that never requested the line."""
    def add_sharer(self, entry, tile, timestamp=0):
        result = super(type(self), self).add_sharer(entry, tile,
                                                    timestamp)
        phantom = type(tile)((int(tile) + 1) % engine.num_tiles)
        if phantom not in entry.sharers:
            entry.sharers += (phantom,)
        return result

    for directory in engine.directories:
        override(directory, add_sharer=add_sharer)


def mutate_skip_invalidation(engine):
    """Writes no longer invalidate the other sharers (S -> M keeps S)."""
    override(engine, _invalidate_sharers=lambda self, home, sharers, line,
             ts, exclude: 0)


def mutate_forget_modified(engine):
    """Every lookup downgrades M entries to SHARED: the directory
    forgets ownership, so dirty recalls are skipped."""
    def entry(self, line_address):
        result = super(type(self), self).entry(line_address)
        if result.state is DirState.MODIFIED:
            result.state = DirState.SHARED
        return result

    for directory in engine.directories:
        override(directory, entry=entry)


MUTATIONS = [mutate_drop_add, mutate_phantom_sharer,
             mutate_skip_invalidation, mutate_forget_modified]


@settings(max_examples=12, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS),
       tiles=st.integers(min_value=2, max_value=3),
       depth=st.integers(min_value=3, max_value=4))
def test_mutated_directory_always_produces_findings(mutation, tiles,
                                                    depth):
    def buggy():
        engine = build_engine(tiles)
        mutation(engine)
        return engine

    report = ProtocolExplorer(tiles=tiles, lines=1, depth=depth,
                              engine_factory=buggy,
                              max_violations=1).explore()
    assert report.violations, (
        f"{mutation.__name__} with {tiles} tiles at depth {depth} "
        "was not detected")
    violation = report.violations[0]
    assert violation.sequence
    assert violation.message


def test_unmutated_engine_is_a_valid_control():
    """The same harness reports nothing when no mutation is applied."""
    report = ProtocolExplorer(tiles=2, lines=1, depth=3,
                              engine_factory=lambda: build_engine(2),
                              max_violations=1).explore()
    assert report.violations == []
