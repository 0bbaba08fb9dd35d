"""padlab: a desk-scale CNN laboratory built around pad-indicator channels.

The pieces: a tape-based autodiff core over dense (N, C, H, W) tensors;
padding operators (zero / reflect / replicate) and the ones-channel attach
whose interaction with zero padding yields an exact 0/1 marker of the original
image extent; VGG/ResNet-style model builders with the marker channel as a
flag; exact integer parameter/MAC accounting; seeded SGD training runs with
best-checkpoint selection; and pooled one-sided t statistics over run groups.
"""

from .autodiff import Tape, Variable, backward, grad_check
from .cost import CostReport, cost_table, count_macs, count_params
from .data import (AugmentConfig, Dataset, EvalAugment, TrainAugment,
                   augment_eval, augment_train, gen_border_task,
                   identity_augment, load_cifar_binary, save_cifar_binary)
from .models import FAMILIES, Model, ModelSpec, build_model
from .nn import (ConvSpec, PaddingMode, attach_pad_channel, batchnorm2d,
                 conv2d, dropout, global_avgpool, kaiming_init, linear,
                 maxpool2d, pad2d, relu, softmax, softmax_cross_entropy)
from .rng import Rng
from .stats import (ComparisonReport, RunGroup, load_reference_runs, mean,
                    pooled_t_one_sided, sample_stdev, summarize, t_cdf,
                    welch_t_one_sided)
from .training import (Checkpoint, RunLog, TrainConfig, epochs_to_threshold,
                       evaluate, lr_at, sgd_step, split_train_val, train_run)

__version__ = "0.1.0"
