"""Pointwise classification, verification, and reconstruction tools for
special Lagrangian 3-folds in C^3.

Subpackage map:

* ``slag3.cubics``          -- traceless symmetric cubics on R^3, rotation
                               orbits, axial decomposition, stabilizer-type
                               classification and normal forms.
* ``slag3.ambient``         -- the flat special Kaehler structure of C^3
                               (symplectic form, holomorphic volume form,
                               complex structure).
* ``slag3.geometry``        -- residuals of the special Lagrangian condition
                               on parametrized patches, adapted frames, the
                               pointwise fundamental cubic, sweeps, and
                               curvature-compatibility checks.
* ``slag3.gallery``         -- explicit special Lagrangian families as
                               ready-made patches with analytic derivatives.
* ``slag3.integrate``       -- reconstruction of immersions from the closed
                               six-function order-2-symmetric frame system.
* ``slag3.structure_laws``  -- coefficient laws of the closed frame systems
                               (circle-symmetric profile, order-2-symmetric).
"""

__version__ = "0.1.0"
