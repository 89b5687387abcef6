"""The skip-mechanism axis: SAVE and its rivals as machine variants.

A *mechanism* names how a machine exploits sparsity.  Each rival is a
**variant configuration of the existing core/pipeline model** — a
(config, machine) transform applied at the last moment before
simulation — never a forked simulator:

``save``
    The paper's design, unchanged: whatever SAVE features the given
    machine preset enables (merge units, rotation, broadcast cache).
    The identity transform.

``sparce``
    A SparCE-style scalar skip-redundancy baseline (arXiv:1711.06315):
    the core detects fully-zero source registers and skips whole
    instructions, but never coalesces lanes across instructions.
    Modeled as SAVE with :data:`~repro.core.config.CoalescingScheme`
    ``NAIVE`` (whole-instruction skip only), lane-wise dependence off,
    no rotation, no mixed-precision pairing, no broadcast cache, and a
    single merge-check unit.  Works with any kernel family —
    unstructured or N:M.

``indexmac``
    An IndexMAC-style indexed-MAC pipeline (arXiv:2311.07241): the
    N:M-compressed instruction stream of
    :mod:`repro.rivals.indexmac` issued on a SAVE-*disabled* machine
    (dense index-gather issue, no merge/rotation logic).  Structured
    patterns only — requesting it for an unstructured kernel raises
    :class:`MechanismError`.

Fairness policy (see docs/methodology.md): every mechanism sees the
same operand data — the transform may recompress the *schedule* but
never the matrices, so functional results agree across mechanisms and
speedups are measured against one shared baseline.

The fast tier is calibrated against SAVE's exact pipeline only, so
mechanisms other than ``save`` are **exact-engine only**; requesting
them with the fast engine raises :class:`MechanismError` here,
the single enforcement point every producer (executor, sweeps, serve)
funnels through.
"""

from __future__ import annotations

from repro.core.config import (
    CoalescingScheme,
    MachineConfig,
    SaveConfig,
)
from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.rivals.indexmac import IndexMACConfig
from repro.rivals.nm import NMKernelConfig

__all__ = [
    "DEFAULT_MECHANISM",
    "MECHANISMS",
    "MechanismError",
    "resolve_mechanism",
    "sparce_save_config",
    "validate_mechanism",
]

#: Every mechanism the axis accepts, in canonical (figure) order.
MECHANISMS: tuple[str, ...] = ("save", "sparce", "indexmac")

DEFAULT_MECHANISM = "save"


class MechanismError(ValueError):
    """An invalid mechanism, or one paired with an unsupported config."""


def validate_mechanism(mechanism: str) -> str:
    if mechanism not in MECHANISMS:
        known = ", ".join(MECHANISMS)
        raise MechanismError(
            f"unknown mechanism {mechanism!r}; available: {known}"
        )
    return mechanism


def sparce_save_config() -> SaveConfig:
    """The SaveConfig encoding SparCE's whole-instruction skip."""
    return SaveConfig(
        enabled=True,
        coalescing=CoalescingScheme.NAIVE,
        lane_wise_dependence=False,
        rotation_states=1,
        mixed_precision_technique=False,
        broadcast_cache=BroadcastCacheKind.NONE,
        mgu_count=1,
    )


def resolve_mechanism(
    mechanism: str,
    config: object,
    machine: MachineConfig,
    engine: str = "exact",
) -> tuple[object, MachineConfig]:
    """Transform (config, machine) for one mechanism.

    Returns the pair to hand to the simulator.  ``save`` is the
    identity; rivals are exact-engine only (the fast tier's calibration
    contract covers SAVE alone).
    """
    validate_mechanism(mechanism)
    if mechanism == "save":
        return config, machine
    if engine != "exact":
        raise MechanismError(
            f"mechanism {mechanism!r} supports only the exact engine "
            f"(got {engine!r}): the fast tier is calibrated against "
            "SAVE's pipeline only"
        )
    if mechanism == "sparce":
        from dataclasses import replace

        return config, replace(machine, save=sparce_save_config())
    # indexmac: compress the schedule, disable SAVE in the machine.
    if isinstance(config, IndexMACConfig):
        indexed = config
    elif isinstance(config, NMKernelConfig):
        indexed = IndexMACConfig(nm=config)
    else:
        raise MechanismError(
            "mechanism 'indexmac' models structured patterns only; "
            f"got a {type(config).__name__} (use an N:M kernel such as "
            "nm24_fwd)"
        )
    return indexed, machine.with_save(enabled=False)
