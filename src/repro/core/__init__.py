"""Core performance model (paper §3.1).

A purely *modeled* component managing the simulated clock local to each
tile.  It follows a producer-consumer design: the front-end (our DBT
substitute) produces instructions and dynamic information (memory
latencies, branch outcomes); the model consumes them and advances the
tile's local clock.  The model is isolated from functional execution, so
alternative core models (e.g. out-of-order) can be swapped in without
touching the functional simulator.
"""
