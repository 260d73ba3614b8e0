"""polycrep: exact combinatorics of crepant resolutions of hyperpolygon
and polygon quotient spaces.

Modules:
    ratgeom       exact rational cones, dual descriptions, LP feasibility
    complexes     maximally-biconnected complexes and set partitions
    polygon_cones polygon-side orbit cones and their closed-form criteria
    bunches       projectivity of a complex, certified by its faces
    hyper_cones   hyperpolygon-side orbit cones, Psi construction, census
    arrangements  hyperplane arrangements and exact region counting
    coxrelations  Cox-ring relation generators and exact point checks
    crosscheck    exhaustive closed-form vs polyhedral-oracle validation
    cli           batch command surface (`polycrep`, `python -m polycrep`)
    values        the base of the immutable value classes
"""

__version__ = "0.1.0"

__all__ = [
    "ratgeom",
    "complexes",
    "polygon_cones",
    "bunches",
    "hyper_cones",
    "arrangements",
    "coxrelations",
    "crosscheck",
    "cli",
    "values",
]
