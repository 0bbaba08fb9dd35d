"""Run-group statistics: means, sample stdevs, one-sided two-sample t-tests.

The Student-t CDF is evaluated through the regularized incomplete beta
function, computed with a continued-fraction expansion (modified Lentz) plus
the usual symmetry reduction. Relative tolerance 1e-12, at most 300 terms;
closed forms exist at df=1 (arctangent) and df=2 (algebraic) and are used as
verification anchors in the tests, never in this code path.

The default two-sample test pools the variance (df = n1 + n2 - 2) with the
one-sided alternative "second group mean exceeds the first"; a Welch variant
is available for sensitivity checks. `variance_ratio_one_sided` tests the
paper's second claim, that the pad channel lowers the run-to-run variance,
with a one-sided F-test on the same incomplete beta function.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import DegenerateSampleError, MissingPairError


def mean(xs) -> float:
    xs = list(xs)
    if len(xs) < 1:
        raise DegenerateSampleError("mean needs at least one value")
    return math.fsum(xs) / len(xs)


def sample_stdev(xs) -> float:
    xs = list(xs)
    if len(xs) < 2:
        raise DegenerateSampleError("sample stdev needs at least two values")
    m = mean(xs)
    return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1))


# ---------------------------------------------------------------------------
# incomplete beta / t CDF

_TINY = 1e-300
_TOL = 1e-12
_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd coefficient of term m, one Lentz step each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _TOL:
            return h
    return h  # converged to working precision in practice; 300 is a hard cap


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (a * math.log(x) + b * math.log1p(-x)
                - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with df degrees of freedom; exact 0.5 at t = 0."""
    if df < 1:
        raise DegenerateSampleError(f"df must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


# ---------------------------------------------------------------------------
# two-sample tests

def _two_groups(base, treated) -> tuple[list, list]:
    base, treated = list(base), list(treated)
    if len(base) < 2 or len(treated) < 2:
        raise DegenerateSampleError("both groups need at least two runs")
    return base, treated


def _t_one_sided(m1: float, m2: float, se2: float, df) -> tuple[float, float]:
    """t = (m2 - m1) / sqrt(se2) and p = P(T_df > t). Zero se2 is degenerate but
    well-defined: equal means give (0.0, 0.5), others (inf or -inf, 0.0 or 1.0)."""
    if se2 == 0.0:
        if m2 == m1:
            return 0.0, 0.5
        return (math.inf if m2 > m1 else -math.inf), (0.0 if m2 > m1 else 1.0)
    t = (m2 - m1) / math.sqrt(se2)
    return t, 1.0 - t_cdf(t, df)


def pooled_t_one_sided(base, treated) -> tuple[float, float]:
    """Pooled-variance Student t; p is one-sided for 'treated mean > base mean'."""
    base, treated = _two_groups(base, treated)
    n1, n2 = len(base), len(treated)
    m1, m2 = mean(base), mean(treated)
    s1, s2 = sample_stdev(base), sample_stdev(treated)
    df = n1 + n2 - 2
    pooled = ((n1 - 1) * s1 * s1 + (n2 - 1) * s2 * s2) / df
    return _t_one_sided(m1, m2, pooled * (1.0 / n1 + 1.0 / n2), df)


def welch_t_one_sided(base, treated) -> tuple[float, float]:
    """Welch's unequal-variance variant, for sensitivity analysis."""
    base, treated = _two_groups(base, treated)
    n1, n2 = len(base), len(treated)
    m1, m2 = mean(base), mean(treated)
    v1 = sample_stdev(base) ** 2 / n1
    v2 = sample_stdev(treated) ** 2 / n2
    # Welch-Satterthwaite df, undefined when both groups are constant
    df = (v1 + v2) ** 2 / (v1 ** 2 / (n1 - 1) + v2 ** 2 / (n2 - 1)) if v1 + v2 else None
    return _t_one_sided(m1, m2, v1 + v2, df)


def variance_ratio_one_sided(base, treated) -> tuple[float, float]:
    """Variance-ratio F-test; p is one-sided for 'treated variance < base variance'.

    F = s_base^2 / s_treated^2 with d1 = n_base - 1, d2 = n_treated - 1, and
    p = P(F(d1, d2) >= F) = I_{d2 / (d2 + d1 F)}(d2 / 2, d1 / 2). A constant
    treated group gives F = inf and p = 0.0, unless both are constant (F = 1).
    """
    base, treated = _two_groups(base, treated)
    v1, v2 = sample_stdev(base) ** 2, sample_stdev(treated) ** 2
    d1, d2 = len(base) - 1, len(treated) - 1
    f = v1 / v2 if v2 else (math.inf if v1 else 1.0)
    return f, betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


# ---------------------------------------------------------------------------
# reports

@dataclass
class RunGroup:
    arch: str
    variant: str           # "base" or "pc"
    best_top1: list[float]


@dataclass
class ComparisonRow:
    arch: str
    n: int
    mean_base: float
    mean_pc: float
    stdev_base: float
    stdev_pc: float
    t: float
    p_one_sided: float

    @property
    def mean_diff(self) -> float:
        return self.mean_pc - self.mean_base

    @property
    def stdev_diff(self) -> float:
        return self.stdev_pc - self.stdev_base


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes an arch holding a comma
        writer.writerow(["arch", "n", "mean_base", "mean_pc", "mean_diff", "stdev_base",
                         "stdev_pc", "stdev_diff", "t", "p_one_sided"])
        for r in self.rows:
            writer.writerow([r.arch, r.n, f"{r.mean_base:.6f}", f"{r.mean_pc:.6f}",
                             f"{r.mean_diff:+.6f}", f"{r.stdev_base:.6f}",
                             f"{r.stdev_pc:.6f}", f"{r.stdev_diff:+.6f}", f"{r.t:.6f}",
                             f"{r.p_one_sided:.6f}"])
        return out.getvalue()

    def to_text(self) -> str:
        lines = [f"{'arch':<12} {'n':>2} {'mean base':>10} {'mean pc':>10} "
                 f"{'diff':>8} {'sd base':>8} {'sd pc':>8} {'t':>8} {'p':>8}"]
        for r in self.rows:
            lines.append(f"{r.arch:<12} {r.n:>2} {r.mean_base:>10.3f} "
                         f"{r.mean_pc:>10.3f} {r.mean_diff:>+8.3f} "
                         f"{r.stdev_base:>8.3f} {r.stdev_pc:>8.3f} "
                         f"{r.t:>8.4f} {r.p_one_sided:>8.4f}")
        return "\n".join(lines) + "\n"


def summarize(groups, use_welch: bool = False) -> ComparisonReport:
    """Pair base/pc groups per architecture and run the one-sided test."""
    by_arch: dict[str, dict[str, RunGroup]] = {}  # in first-seen order
    for g in groups:
        by_arch.setdefault(g.arch, {})[g.variant] = g
    rows = []
    test = welch_t_one_sided if use_welch else pooled_t_one_sided
    for arch, pair in by_arch.items():
        if "base" not in pair or "pc" not in pair:
            raise MissingPairError(f"{arch}: need both base and pc run groups")
        base, pc = pair["base"].best_top1, pair["pc"].best_top1
        t, p = test(base, pc)
        rows.append(ComparisonRow(arch, min(len(base), len(pc)), mean(base), mean(pc),
                                  sample_stdev(base), sample_stdev(pc), t, p))
    return ComparisonReport(rows)


def bar_chart_svg(report: ComparisonReport, which: str = "mean") -> str:
    """Static SVG with paired base/pc bars per architecture."""
    from xml.sax.saxutils import escape  # not at the top: it pulls in urllib.request
    if which == "mean":
        pick = lambda r: (r.mean_base, r.mean_pc)
        title = "mean best top-1 (%)"
    else:
        pick = lambda r: (r.stdev_base, r.stdev_pc)
        title = "stdev of best top-1 (%)"
    values = [v for r in report.rows for v in pick(r)]
    lo = min(values + [0.0]) if which != "mean" else min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    lo -= 0.1 * span
    hi += 0.1 * span
    width, height, margin = 640, 360, 50
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    n = len(report.rows)
    group_w = plot_w / max(n, 1)
    bar_w = group_w / 3.0

    def y(v):
        return margin + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for i, r in enumerate(report.rows):
        x0 = margin + i * group_w + group_w / 6.0
        vb, vp = pick(r)
        for j, (v, color, label) in enumerate(((vb, "#888888", "base"),
                                               (vp, "#3b6fb6", "pc"))):
            x = x0 + j * bar_w
            top = y(v)
            parts.append(f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w:.1f}" '
                         f'height="{height - margin - top:.1f}" fill="{color}"/>')
            parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{top - 4:.1f}" '
                         f'text-anchor="middle" font-size="9">{v:.3f}</text>')
        parts.append(f'<text x="{x0 + bar_w:.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="11">{escape(r.arch)}</text>')
    parts.append(f'<text x="{margin}" y="{margin - 6}" font-size="10">'
                 f'grey = base, blue = pc</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def groups_from_csv(text: str) -> list[RunGroup]:
    """Parse `arch,variant,run,best_top1` rows into ordered RunGroups."""
    groups: dict[tuple[str, str], RunGroup] = {}  # in first-seen order
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["arch"], row["variant"])
        group = groups.setdefault(key, RunGroup(*key, []))
        group.best_top1.append(float(row["best_top1"]))
    return list(groups.values())


def load_reference_runs() -> list[RunGroup]:
    """The committed fixture of reference run accuracies (5 runs per variant)."""
    from importlib import resources
    text = resources.files("padlab").joinpath("fixtures/reference_runs.csv").read_text()
    return groups_from_csv(text)
