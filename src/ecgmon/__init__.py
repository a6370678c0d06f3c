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


def __getattr__(name):
    # the cloud model loads http.server, which no command needs: import it
    # the first time its listener is asked for (PEP 562)
    if name == "LoopbackListener":
        from .cloud import LoopbackListener

        return LoopbackListener
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
