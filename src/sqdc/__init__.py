"""Desk-scale simulator of two authenticated semi-quantum direct
communication protocols over Bell states, with adversary models and Monte
Carlo verification of their eavesdropping-detection probabilities."""

__version__ = "0.1.0"
