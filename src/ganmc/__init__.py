"""Generative-network Monte Carlo pricing for options, forwards and futures."""

__version__ = "0.1.0"
