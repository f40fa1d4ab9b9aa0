"""Optimal payment-channel rebalancing.

Pipeline: build a rebalancing instance, solve for the maximum-value
circulation exactly, decompose it into atomic cycle flows, and execute
each cycle with HTLCs under configurable adversaries. A simulated
secret-shared solve reproduces the plaintext optimum with a
data-independent transcript.
"""

__version__ = "0.1.0"
