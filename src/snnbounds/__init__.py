"""Path-norm complexity measures and generalization bounds for shallow nets."""

from .activations import ACTIVATIONS, RELU, SIGMOID, TANH, Activation
from .bounds import (BoundValue, all_bound_values, cm_constant,
                     cm_prime_constant, comparator_bound, gen_bound_pn,
                     gen_bound_spn, rad_lower, rad_upper_path)
from .datasets import (DataStats, Dataset, RawImageSet, TaskSpec,
                       build_binary_task, parse_cifar10_bin, parse_idx_images,
                       parse_idx_labels, subsample)
from .linalg import fork_rng, make_rng, sample_signs, spectral_norm
from .measures import (CellConstants, MeasureReport, cell_constants,
                       init_activation_term, measure_report, path_norm,
                       report_from_row)
from .model import (Checkpoint, InitSnapshot, SnnParams, checkpoint_load,
                    checkpoint_save, forward, init_kaiming)
from .rademacher import RadConfig, RadEstimate, enumerate_signs, mc_rad_estimate
from .trainer import (TrainConfig, TrainReport, bce_logits, margins,
                      ramp_risk, sgd_train, zero_one_error)

__version__ = "0.1.0"
