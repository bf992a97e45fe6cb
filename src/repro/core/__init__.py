"""FLIM core: fault models, masks, mapping, vectors, injector, campaigns.

The platform structure mirrors the paper's Fig. 2: a :class:`FaultGenerator`
builds fault vectors offline (distribution → mapping → extraction), and a
:class:`FaultInjector` applies them during inference through the fault
hooks of the quantized layers.  :class:`FaultCampaign` wraps the
sweep-with-repetitions protocol of §IV.
"""

from .campaign import FaultCampaign, SweepResult
from .detection import (majority_vote_predict, march_test,
                        masks_from_detection, remap_columns)
from .engine import (CampaignEvaluator, CampaignJob, SerialExecutor,
                     SharedMemoryExecutor, build_jobs, get_executor,
                     plan_has_faults)
from .faults import FaultSpec, FaultType, Semantics, SpatialMode, StuckPolarity
from .generator import FaultGenerator, FaultPlan, mapped_layers
from .injector import FaultInjector
from .journal import CampaignJournal
from .mapping import LayerMapping, tile_vector
from .resilience import (ExecutorDegraded, JobQuarantined, JobRetried,
                         RetryPolicy, SupervisorGaveUp, WorkerLost)
from .masks import (LayerMasks, assemble_layer_masks, build_bitflip_mask,
                    build_clustered_mask, build_line_mask, build_rate_mask,
                    build_row_burst_mask, build_stuck_mask)
from .vectors import load_fault_vectors, save_fault_vectors

__all__ = [
    "FaultType", "StuckPolarity", "Semantics", "SpatialMode", "FaultSpec",
    "LayerMasks", "build_bitflip_mask", "build_stuck_mask", "build_line_mask",
    "build_clustered_mask", "build_row_burst_mask", "build_rate_mask",
    "assemble_layer_masks",
    "LayerMapping", "tile_vector",
    "FaultGenerator", "FaultPlan", "mapped_layers",
    "FaultInjector",
    "FaultCampaign", "SweepResult",
    "CampaignJob", "CampaignEvaluator", "SerialExecutor",
    "SharedMemoryExecutor", "CampaignJournal",
    "build_jobs", "get_executor", "plan_has_faults",
    "RetryPolicy", "SupervisorGaveUp", "JobRetried", "JobQuarantined",
    "WorkerLost", "ExecutorDegraded",
    "save_fault_vectors", "load_fault_vectors",
    "march_test", "masks_from_detection", "remap_columns",
    "majority_vote_predict",
]
