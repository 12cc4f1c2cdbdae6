"""Cone-envelope Lipschitz extensions on a strip.

Builds the extension of C^{1,1} boundary data whose value at (x, d) is the
supremum of downward cones of slope L planted on the boundary line, locates
its contact points by a contracting fixed-point solve, checks it against
brute-force and envelope oracles, and measures how boundary curvature kinks
reappear on the top line.
"""

__version__ = "0.1.0"
