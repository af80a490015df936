"""Laboratory for two-way DFAs and the one-way liveness language."""

__version__ = "0.1.0"
