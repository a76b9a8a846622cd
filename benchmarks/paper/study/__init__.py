"""Simulated user-study harness (Tables 8/10, Figure 9a)."""
