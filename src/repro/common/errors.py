"""Exception hierarchy for the simulator.

Every error raised by the simulator derives from :class:`SimulationError`
so callers can catch simulator faults without masking ordinary Python
bugs.
"""


class SimulationError(Exception):
    """Base class for all simulator-raised errors."""


class ConfigError(SimulationError):
    """An invalid or inconsistent configuration was supplied."""


class TargetFault(SimulationError):
    """The simulated application performed an illegal operation.

    Examples: access to an unmapped target address, double-free in the
    target heap, joining a thread that was never spawned.
    """


class DeadlockError(SimulationError):
    """No runnable thread remains but the simulation has not finished."""


class TransportError(SimulationError):
    """A failure in the physical transport layer."""


class ProtocolError(SimulationError):
    """The cache-coherence engine reached an illegal protocol state."""


class CheckpointError(SimulationError):
    """A snapshot could not be written, validated or restored.

    Raised by :mod:`repro.ckpt` for unreadable checkpoint directories,
    manifest/blob checksum mismatches (corruption), format-version
    mismatches and replay failures while rebuilding thread generators.
    """


class SnapshotWriteError(CheckpointError, OSError):
    """A snapshot's file write failed (a full disk, say): a
    :class:`CheckpointError` that is also the ``OSError`` it wraps,
    ``errno`` included, so either ``except`` catches it."""


class SampleError(SimulationError):
    """A failure in checkpoint-accelerated sampling (:mod:`repro.sample`).

    Raised by the snapshot library for workloads that finish before the
    requested fast-forward target, corrupt or missing library entries,
    and — loudly — whenever the determinism check finds a forked run
    whose metrics are not byte-identical to an unshared run of the same
    configuration.
    """


class ServeError(SimulationError):
    """A failure in the simulation service (:mod:`repro.serve`).

    Raised for protocol-version mismatches on the client channel,
    malformed frames, requests naming unknown jobs, and a daemon that
    cannot be reached at its socket.
    """


class SanitizerViolation(SimulationError):
    """A runtime sanitizer observed a broken simulation invariant.

    Raised by :mod:`repro.check.sanitize` when a ``--sanitize`` run
    violates clock monotonicity, message causality or barrier
    membership.  Always indicates a simulator bug, never an
    application bug.
    """
