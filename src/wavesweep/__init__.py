"""2D finite-volume wave-propagation solver with pointwise Riemann kernels,
interchangeable grid traversals, and pluggable threading backends."""

from .grid import (AuxField, BoundaryCondition, FluctuationField, GridSpec,
                   StateField, allocate_fields, fill_ghost)
from .kernels import (DESCRIPTORS, KERNEL_NAMES, Direction, Kernel, KernelDescriptor,
                      KernelError, RiemannResult, euler_flux, make_kernel,
                      rp_acoustics_const, rp_acoustics_var, rp_advection, rp_euler)
from .parallel import (Backend, ParallelError, Serial, StaticThreads,
                       WorkStealing, default_thread_count, detect_cores,
                       for_each_unit)
# the function sweep is not re-exported, so that wavesweep.sweep stays the module
from .sweep import (CellWise, RowWise, Strategy, SweepError, SweepStats, Tiled,
                    apply_update)
from .driver import (DEFAULT_IC, SimulationConfig, StepLimitError, StepReport,
                     TimestepController, choose_dt, initial_condition, integrate,
                     run, step)

__version__ = "0.1.0"
