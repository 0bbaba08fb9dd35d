"""padlab benchmark: end-to-end workloads and an outside-in per-layer trace."""
