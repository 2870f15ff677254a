"""Simulator of a cavity-mediated atom-photon conditional-phase gate.

Modules cover the small-system linear algebra (qlin), the reflection
model and gate (cavity), pulse statistics and imperfections (pulse), the
tomography pipeline (tomography), the experiment drivers (protocols) and the
configuration/CLI layer (config, cli).
"""
# perfbench's setup timing calls apgate.load_config.
from .config import load_config

__version__ = "0.1.0"
