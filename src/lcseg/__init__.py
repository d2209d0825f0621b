"""Bat-optimized watershed segmentation of lamina cribrosa mesh images.

Modules follow the processing stages: :mod:`lcseg.image` (pixel
containers, PGM/PPM I/O, phantom generation), :mod:`lcseg.wavelet`
(undecimated a trous transform), :mod:`lcseg.bat` (bat-algorithm
threshold optimization), :mod:`lcseg.histeq` (histogram equalization),
:mod:`lcseg.watershed` (marker-controlled watershed cut),
:mod:`lcseg.metrics` (evaluation suite and ROC) and :mod:`lcseg.pipeline`
/ :mod:`lcseg.cli` (orchestration).
"""

from .image import PhantomSpec, generate_phantom, read_pgm, write_pgm

__version__ = "0.1.0"

__all__ = ["PhantomSpec", "generate_phantom", "read_pgm", "write_pgm", "__version__"]
