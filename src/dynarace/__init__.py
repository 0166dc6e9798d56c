"""Static data-race detection for SDN models with a NetKAT-based DSL.

The pipeline: parse a model file (recursive switch/controller
definitions over dup-free NetKAT policies), compute head normal forms,
symbolically execute the component vector with vector clocks up to an
unfold depth, and report minimal packet sequences witnessing
control-plane/data-plane concurrency.
"""

__version__ = "0.1.0"
