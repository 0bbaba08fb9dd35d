"""Exact integer accounting of parameters and multiply-accumulate operations.

Counting convention (inferred; it reproduces the reference table values for
all four full-size families at 224x224 to their printed precision):

    conv2d      k_h * k_w * C_in * C_out * H_out * W_out, plus one op per
                output element when the layer has a bias
    linear      in * out, plus out for the bias
    batchnorm   2 ops per element (scale, shift)
    relu        2 ops per element (compare, select)
    pooling     2 ops per input element (max, average and adaptive alike)
    dropout, flatten, residual add: zero

All counts are exact integers; GMACs and percentage columns are derived at
report time and never stored rounded.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .errors import GeometryError
from .models import Model, ModelSpec, build_model, normalize_family
from .rng import Rng

COST_FAMILIES = ("vgg11-bn", "vgg16-bn", "resnet18", "resnet50")


def count_params(model: Model) -> int:
    return sum(var.data.size for _, var in model.named_parameters())


def _totals(model: Model) -> tuple[int, int]:
    """(params, MACs) for one image at the spec's input size, from one walk."""
    try:
        _, params, macs = zip(*model.cost_rows())
    except GeometryError as exc:
        raise GeometryError(f"input size {model.spec.input_size} too small "
                            f"for {model.spec.family}: {exc}") from exc
    return sum(params), sum(macs)


def count_macs(model: Model) -> int:
    """MACs for one forward pass of a single image at the spec's input size."""
    return _totals(model)[1]


@dataclass
class CostRow:
    family: str
    variant: str            # "base" or "pc"
    params: int
    macs: int
    params_delta: int = 0   # vs the paired base row
    macs_delta: int = 0

    @property
    def gmacs(self) -> float:
        return self.macs / 1e9

    @property
    def params_pct(self) -> float:
        base = self.params - self.params_delta
        return 100.0 * self.params_delta / base if base else 0.0

    @property
    def macs_pct(self) -> float:
        base = self.macs - self.macs_delta
        return 100.0 * self.macs_delta / base if base else 0.0


@dataclass
class CostReport:
    input_size: int
    rows: list[CostRow] = field(default_factory=list)

    def row(self, family: str, variant: str) -> CostRow:
        family = normalize_family(family)
        for r in self.rows:
            if r.family == family and r.variant == variant:
                return r
        raise KeyError((family, variant))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("family,variant,params,params_delta,params_pct,"
                  "gmacs,gmacs_delta,gmacs_pct\n")
        for r in self.rows:
            out.write(f"{r.family},{r.variant},{r.params},{r.params_delta},"
                      f"{r.params_pct:.6f},{r.gmacs:.6f},"
                      f"{r.macs_delta / 1e9:.6f},{r.macs_pct:.6f}\n")
        return out.getvalue()

    def to_text(self) -> str:
        lines = [f"costs at input size {self.input_size} "
                 "(params exact, GMACs = MACs / 1e9)",
                 f"{'family':<12} {'variant':<7} {'params':>12} {'+params':>8} "
                 f"{'%':>8} {'GMACs':>8} {'+GMACs':>7} {'%':>7}"]
        for r in self.rows:
            if r.variant == "base":
                lines.append(f"{r.family:<12} {r.variant:<7} {r.params:>12} "
                             f"{'':>8} {'':>8} {r.gmacs:>8.2f} {'':>7} {'':>7}")
            else:
                lines.append(f"{r.family:<12} {r.variant:<7} {r.params:>12} "
                             f"{'+' + str(r.params_delta):>8} "
                             f"{r.params_pct:>+8.4f} {r.gmacs:>8.2f} "
                             f"{r.macs_delta / 1e9:>+7.2f} {r.macs_pct:>+7.3f}")
        return "\n".join(lines) + "\n"


def cost_pair(family: str, input_size: int, num_classes: int = 1000) -> list[CostRow]:
    """Base and pad-channel rows for one family."""
    def row(variant: str, pc: bool) -> CostRow:
        spec = ModelSpec(family, pad_channel=pc, num_classes=num_classes,
                         input_size=input_size)
        return CostRow(spec.family, variant,
                       *_totals(build_model(spec, Rng(0), init="zeros")))

    base, pc = row("base", False), row("pc", True)
    pc.params_delta, pc.macs_delta = pc.params - base.params, pc.macs - base.macs
    return [base, pc]


def cost_table(families=COST_FAMILIES, input_size: int = 224,
               num_classes: int = 1000) -> CostReport:
    report = CostReport(input_size)
    for family in families:
        report.rows.extend(cost_pair(family, input_size, num_classes))
    return report
