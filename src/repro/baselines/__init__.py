"""Baselines the paper compares against: sorted-vector binary search (LB),
B-tree (GBT), R-tree on MBRs (RT) and an S2ShapeIndex analog (SI)."""
