"""Simulation assembly: the public entry point.

:class:`~repro.sim.simulator.Simulator` wires every subsystem together
exactly as Figure 2b draws them — front-end interpreters trapping into
the core, memory and network models over the physical transport, with
the MCP/LCP system layer and a synchronization model — and runs a
target program to completion.  :mod:`repro.sim.experiment` adds the
multi-run/multi-config sweep helpers the benchmarks are built on.
"""
