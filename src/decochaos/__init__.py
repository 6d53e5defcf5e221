"""decochaos: how fast orbit instability destroys wavepacket coherence.

The package propagates pairs of adjacent classical orbits and quantum
wavepackets in 2D Hamiltonian families, drives a thermal bath of
dipole-coupled oscillators with the resulting mean positions, and
quantifies the decay of coherence between the pair, together with the
growth law (cubic in time for regular motion, exponential at twice the
maximum Lyapunov rate for chaotic motion) that controls it.
"""

__version__ = "0.1.0"
