"""Static data-race detection for SDN models with a NetKAT-based DSL.

The pipeline: parse a model file (recursive switch/controller
definitions over dup-free NetKAT policies), compute head normal forms,
symbolically execute the component vector with vector clocks up to an
unfold depth, and report minimal packet sequences witnessing
control-plane/data-plane concurrency.
"""

from .clocks import LengthMismatch, clock_leq, clocks_concurrent
from .domains import (
    DomainTooLarge,
    DynaraceError,
    EmptyModel,
    FieldDomains,
    UndeclaredValue,
)
from .engine import (
    PacketTransition,
    RcfgTransition,
    build_tree,
    initial_state,
    successors,
)
from .hnf import hnf
from .model import (
    DuplicateDefinition,
    ModelSyntaxError,
    ParInsideDefinition,
    UnboundVariable,
    UnguardedRecursion,
    infer_domains,
    load_model,
    parse_model,
)
from .netkat import (
    eval_policy,
    normal_form,
    parse_policy,
    policy_equiv,
    render_policy,
)
from .races import extract_witnesses, witness_packets
from .render import render_traces

__all__ = [
    "DomainTooLarge",
    "DuplicateDefinition",
    "DynaraceError",
    "EmptyModel",
    "FieldDomains",
    "LengthMismatch",
    "ModelSyntaxError",
    "PacketTransition",
    "ParInsideDefinition",
    "RcfgTransition",
    "UnboundVariable",
    "UndeclaredValue",
    "UnguardedRecursion",
    "build_tree",
    "clock_leq",
    "clocks_concurrent",
    "eval_policy",
    "extract_witnesses",
    "hnf",
    "infer_domains",
    "initial_state",
    "load_model",
    "normal_form",
    "parse_model",
    "parse_policy",
    "policy_equiv",
    "render_policy",
    "render_traces",
    "successors",
    "witness_packets",
]

__version__ = "0.1.0"
