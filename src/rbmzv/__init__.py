"""Free commutative Rota-Baxter algebras, multiple zeta values and their
q-analogs: exact mixable shuffle products (the quasi-shuffle is their
weight-1 case), symbolic identity verification, double-shuffle relation
generation and numeric checks by truncated nested sums.
"""

__version__ = "0.1.0"
