"""Swizzle strategies: LASP with the CTA-swizzle scheduler arm enabled.

Each strategy is full LADM (LASP placement + CRB cache insertion) with one
difference: 2-D-tiled RCL/RSTRIDE launches are rasterised along a swizzle
curve (:mod:`repro.sched.swizzle`) instead of line-binding / alignment-aware
batching, with the curve dealing snapped to Equation-2 page batches by
default.  This isolates the scheduling axis so ``repro swizzle`` /
``run_matrix`` can measure swizzle-vs-LADM head to head.
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.passes import CompiledProgram
from repro.kir.program import KernelLaunch
from repro.runtime.lasp import LASP, LaunchDecision
from repro.sched.swizzle import SWIZZLE_KINDS
from repro.strategies.base import Strategy
from repro.topology.system import SystemTopology

__all__ = ["SwizzleStrategy"]

_NAMES = {"bit": "SWZ-Bit", "morton": "SWZ-Morton", "hilbert": "SWZ-Hilbert"}


class SwizzleStrategy(Strategy):
    """LADM with the swizzle arm: curve rasterisation for 2-D tilings."""

    def __init__(self, kind: str, cache_mode: str = "crb", snap: bool = True):
        if kind not in SWIZZLE_KINDS:
            raise ValueError(f"unknown swizzle kind {kind!r}")
        self.kind = kind
        self.cache_mode = cache_mode
        self.snap = snap
        self.name = _NAMES[kind] if snap else f"{_NAMES[kind]}/nosnap"
        self._lasp_cache: Dict[int, LASP] = {}

    def _lasp(self, compiled: CompiledProgram, topology: SystemTopology) -> LASP:
        key = id(compiled) ^ id(topology)
        lasp = self._lasp_cache.get(key)
        if lasp is None:
            lasp = LASP(
                compiled,
                topology,
                cache_mode=self.cache_mode,
                swizzle=self.kind,
                swizzle_snap=self.snap,
            )
            self._lasp_cache[key] = lasp
        return lasp

    def decide_launch(
        self,
        compiled: CompiledProgram,
        topology: SystemTopology,
        launch: KernelLaunch,
    ) -> LaunchDecision:
        return self._lasp(compiled, topology).decide(launch)
