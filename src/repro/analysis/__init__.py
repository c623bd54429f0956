"""Analysis: turning raw simulation results into the paper's artefacts.

:mod:`repro.analysis.metrics` computes the derived quantities the paper
reports (speedups, slowdowns, error, CoV); :mod:`repro.analysis.tables`
renders aligned text tables matching the paper's table layouts; and
:mod:`repro.analysis.figures` renders series as text charts so every
figure has a directly comparable textual form in the benchmark output.
"""
