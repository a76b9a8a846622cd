"""Baselines the paper compares against: DTW, Euclidean, and a VQS tool."""
