"""Benchmark accelerator registry (Table 3/4 of the paper)."""

from __future__ import annotations

from typing import Dict, Type

from .aes import AesAccelerator
from .base import AcceleratorDesign
from .cjpeg import JpegEncoder
from .djpeg import JpegDecoder
from .h264 import H264Decoder
from .md import MolecularDynamics
from .sha import ShaAccelerator
from .stencil import StencilFilter

_DESIGNS: Dict[str, Type[AcceleratorDesign]] = {
    cls.name: cls
    for cls in (H264Decoder, JpegEncoder, JpegDecoder, MolecularDynamics,
                StencilFilter, AesAccelerator, ShaAccelerator)
}

ALL_DESIGNS = tuple(_DESIGNS)


def get_design(name: str) -> AcceleratorDesign:
    """Instantiate a benchmark accelerator by name."""
    try:
        return _DESIGNS[name]()
    except KeyError:
        raise KeyError(
            f"unknown accelerator {name!r}; choose from {ALL_DESIGNS}"
        ) from None
