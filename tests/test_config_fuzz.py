"""Config fuzzing: `padlab train` on a minimal valid border config with one key
changed must end with exit code 0, 1, 2 or 3, never with a raised exception."""

import copy
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from padlab.cli import main

BASE = {
    "arch": "tinyresnet",
    "pad_channel": True,
    "num_classes": 2,
    "input_size": 16,
    "input_channels": 3,
    "padding_mode": "zero",
    "dataset": {"kind": "border", "n": 40, "size": 16, "seed": 1, "val_fraction": 0.2},
    "train": {"base_lr": 0.02, "momentum": 0.9, "weight_decay": 1e-4, "epochs": 1,
              "lr_step": 1, "lr_gamma": 0.5, "batch_size": 16, "seeds": [0],
              "early_stop_top1": 99.0},
    # identity-sized: every crop and resize keeps the 16-pixel images
    "augment": {"train": {"random_resized_crop_size": 16, "horizontal_flip_prob": 0.5,
                          "scale": [0.08, 1.0], "aspect": [0.75, 1.25]},
                "eval": {"resize_size": 16, "center_crop_size": 16}},
    "out_dir": "runs",
}
SECTIONS = [(), ("dataset",), ("train",), ("augment", "train"), ("augment", "eval")]


def _section(cfg, path):
    for part in path:
        cfg = cfg[part]
    return cfg


KEYS = [(path, k) for path in SECTIONS for k in _section(BASE, path)]

WRONG_TYPE = ["x", 1, 2.5, True, None, [], {}, [1], ["x"]]
# 10**400 is finite in JSON but no float holds it.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]
# No large sizes or epoch counts that a float holds: those are valid and only
# slow.  "exp.json" is the config file itself, a file where out_dir needs a
# directory.
OUT_OF_RANGE = [-10**9, -1, 0, 1, 2, 7, -1.0, 0.0, 0.5, 1.0, 1.5, 100.5, 1e300, -1e300,
                "nonesuch", "", "reflect", "exp.json", [], [-1], [2**70], [0, 0],
                [1, 10**400], [1, 2**70]]


@st.composite
def changed_configs(draw):
    """BASE with one key given a bad value, removed, or joined by an unknown sibling."""
    section, key = draw(st.sampled_from(KEYS))
    change = draw(st.sampled_from(["wrong_type", "non_finite", "out_of_range",
                                   "unknown_key", "missing_key"]))
    cfg = copy.deepcopy(BASE)
    parent = _section(cfg, section)
    if change == "missing_key":
        parent.pop(key, None)
    elif change == "unknown_key":
        parent["surprise"] = 1
    else:
        pool = {"wrong_type": WRONG_TYPE, "non_finite": NON_FINITE,
                "out_of_range": OUT_OF_RANGE}[change]
        parent[key] = draw(st.sampled_from(pool))
    return cfg


@settings(max_examples=40, deadline=None)
@given(changed_configs())
def test_changed_config_exits_with_a_code(cfg):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative out_dir values, the default "runs" too, land here
        try:
            Path("exp.json").write_text(json.dumps(cfg))
            with np.errstate(all="ignore"):
                assert main(["train", "--config", "exp.json"]) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)
