"""Host-performance observability: where does *wall* time go?

The target-side story lives in :mod:`repro.telemetry` (simulated
events on simulated clocks); this package watches the *simulator
itself* — scoped host timers with per-subsystem attribution,
simulation-rate gauges (cycles and instructions per host second,
achieved slowdown vs the modeled native time) and distributed
collection from mp workers over wire-v3 ``HOST_STATS`` frames.  (The
repo's benchmark lives outside the package, in ``bench/``.)

Profiling is zero-overhead when disabled (no profiler object exists;
call sites keep their original methods) and purely observational when
enabled: simulation metrics are byte-identical either way.
"""
