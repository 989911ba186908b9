"""The finfree benchmark: workloads, the worker that runs one, the tracer,
and the metric definitions.  Entry point: bench/run.py."""
