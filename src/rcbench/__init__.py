"""Radar/camera corruption models, Gaussian voxel expansion, and
confidence-guided fusion numerics, with a synthetic robustness benchmark."""
