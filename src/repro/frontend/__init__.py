"""Front-end: the dynamic-binary-translator substitute.

Real Graphite uses Pin to run x86 binaries natively, trapping memory
references, system calls, synchronization and user-level messages into
the back-end.  This package provides the equivalent trap stream from
*target programs written as Python generators*: each program yields
typed ops (:mod:`repro.frontend.ops`), the interpreter
(:mod:`repro.frontend.interpreter`) executes them against the core,
memory, network and system models, and the user API
(:mod:`repro.frontend.api`) gives programs the same surface Graphite
applications see — pthreads-style spawn/join, locks and barriers, the
core-to-core messaging API, malloc, and system calls.
"""
