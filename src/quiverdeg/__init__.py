"""Exact invariants, degeneration order and singularity types for quiver
representations, specialized to nilpotent classes of cyclic quivers."""
