"""Desk-scale software model of a portable ECG monitor.

Pipeline: synthetic signal source -> analog front-end model -> 12-bit ADC
with a ping-pong double buffer -> digital filtering and edge-trigger heart
rate -> scope-style rendering and JSON telemetry with threshold alerts.
"""

from .signals import *
from .frontend import *
from .acquisition import *
from .dsp import *
from .render import *
from .telemetry import *
from .config import *
from .pipeline import *

__version__ = "0.1.0"
