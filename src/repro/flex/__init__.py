"""FLEX — on-demand robust checkpointing for intermittent inference."""

from repro.flex.checkpoint import BcmStage, FlexCheckpoint
from repro.flex.runtime import FlexRuntime

__all__ = ["BcmStage", "FlexCheckpoint", "FlexRuntime"]
