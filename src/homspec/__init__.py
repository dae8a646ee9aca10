"""Spectral machinery for periodic divergence-form Schrodinger operators.

Subpackages roughly follow the pipeline:

    torus       periodic fields on T^d, cell and stream-matrix solvers
    classical   homogenized tensors read off the corrector store
    hermite     the macroscopic L2(R^d) space and the homogenized eigensolver
    expansion   the recursive eigenvalue/eigenfunction correction hierarchy
    reference   fine-grid eigensolves, matching and convergence-rate fits
    pipeline    orchestration, manifests, CSV artifacts
"""

__version__ = "0.1.0"
