"""The seven benchmark accelerators of the paper's evaluation."""

from .aes import AesAccelerator
from .base import AcceleratorDesign, JobInput
from .cjpeg import JpegEncoder
from .djpeg import JpegDecoder
from .h264 import H264Decoder
from .md import MolecularDynamics
from .registry import ALL_DESIGNS, get_design
from .sha import ShaAccelerator
from .stencil import StencilFilter

__all__ = [
    "ALL_DESIGNS", "AcceleratorDesign", "AesAccelerator", "H264Decoder",
    "JobInput", "JpegDecoder", "JpegEncoder", "MolecularDynamics",
    "ShaAccelerator", "StencilFilter", "get_design",
]
