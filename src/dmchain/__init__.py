"""Characterization of anisotropic XY spin chains with antisymmetric
exchange through the information carried by two-spin measurements.

The package itself binds only ``__version__``; import each layer as a
module (``from dmchain.fisher import fisher_point``), so a program loads
only the layers it uses.
"""

__version__ = "0.1.0"
