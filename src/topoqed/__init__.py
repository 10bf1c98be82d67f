"""Simulator of a tunable Majorana / charge-qubit / microwave-cavity interface."""

__version__ = "0.1.0"
