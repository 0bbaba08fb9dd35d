"""The benchmark's workloads, each driven through padlab's public Python API.

Every workload is built from the benchmark seed and prepared once
(`prepare`).  A repetition (`rep`) does the whole user-visible pipeline,
checks its outputs and returns its timings plus hashes of what it produced,
so a later change's bit-identity shows without rerunning Tier-1; the traced
run repeats it.  The end-to-end run does one repetition as its correctness
pass and warm-up, then times two short units, `primary_unit` and
`secondary_unit`, in turn, each bracketed by the calibration kernel.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from padlab import cost, data, gradcheck_suite, models, stats, training
from padlab.rng import Rng

N_IMAGES = 10000          # border task; the tail split leaves 8000 / 2000
SIZE = 32
VAL_FRACTION = 0.2
BATCH = 64
BASE_LR = 0.02
EVALS_PER_REP = 3
TOP1_FLOOR = 95.0         # criterion 7's threshold; one epoch reaches >99 here
TRAIN_CHUNK = 512         # images per timed train_run unit (8 steps of 64) ...
VAL_CHUNK = 128           # ... and its in-loop validation: the same 4:1 split
EVAL_CHUNK = 512          # images per timed evaluate unit (two batches of 256)
GRAD_TOL = 1e-4
TRIALS = 3
UNIT_TRIALS = 1           # run_suite trials per timed gradcheck unit

# criteria 1 and 2: base GMACs (2 decimals) and pad-channel parameter delta
EXPECTED_COST = {"vgg11-bn": (7.66, 576), "vgg16-bn": (15.55, 576),
                 "resnet18": (1.83, 3136), "resnet50": (4.13, 3136)}
# criterion 3: mean base, mean pc, stdev base, stdev pc (3 decimals), p
EXPECTED_STATS = {
    "vgg11-bn": (71.071, 71.070, 0.165, 0.099, 0.5018),
    "vgg16-bn": (74.218, 74.240, 0.149, 0.103, 0.3928),
    "resnet18": (70.301, 70.321, 0.126, 0.113, 0.3988),
    "resnet50": (76.432, 76.640, 0.130, 0.097, 0.0104),
}


def sha256(payload) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


class Tally:
    """Operations attempted and failed; failures are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int):
        self.attempted += n

    def check(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, n: int = 1):
        self.failed += n
        self.failures.append(what)


@dataclass
class Rep:
    primary_s: float
    outputs: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0


class _FirstStep(Exception):
    pass


class Training:
    """train_run (one epoch), save_run, then evaluate on the final model."""

    setup_probes = 5
    # calibration kernel per metric, see calib.py
    calibration = {"primary_s": "array", "secondary_s": "array", "setup_s": "array"}
    secondary_repeats = 1
    primary = (f"train_run over {TRAIN_CHUNK} images, one epoch incl. validation "
               f"on {VAL_CHUNK}")
    secondary = f"evaluate of the trained model over {EVAL_CHUNK} images, batch 256"

    def __init__(self, family: str, seed: int):
        self.seed = seed
        self.spec = models.ModelSpec(family, pad_channel=True, num_classes=2,
                                     input_size=SIZE)
        self.cfg = training.TrainConfig(base_lr=BASE_LR, epochs=1,
                                        batch_size=BATCH, seeds=(seed,))
        self.model = None

    def expected_counts(self) -> dict:
        """Span name -> images (or None: just calls) each repetition must show."""
        n_val = len(self.val)
        calls = dict.fromkeys((
            "training.train_run", "models.build_model", "autodiff.backward",
            "training.sgd_step", "models.zero_grads", "training.evaluate",
            "checkpoint.write_tensors"))
        return dict(calls, **{"models.forward.train": len(self.train),
                              "models.forward.eval": n_val * (1 + EVALS_PER_REP)})

    def prepare(self):
        images = data.gen_border_task(N_IMAGES, SIZE, Rng(self.seed).child("data"))
        self.train, self.val = training.split_train_val(images, VAL_FRACTION)

    def probe_setup(self):
        """Child process: report readiness at the first training step."""
        def first_step(*args, **kwargs):
            raise _FirstStep

        models.Model.forward = first_step
        self.prepare()
        try:
            training.train_run(self.spec, self.cfg, self.train, self.val, self.seed)
        except _FirstStep:
            print("ready", flush=True)

    def rep(self, tally: Tally, out_dir) -> Rep:
        t0 = time.perf_counter()
        log, best, model = training.train_run(self.spec, self.cfg, self.train,
                                              self.val, self.seed)
        result = Rep(time.perf_counter() - t0)
        self.model = model
        steps = math.ceil(len(self.train) / self.cfg.batch_size)
        tally.ops(len(log.records) * (steps + 1))  # steps + in-loop eval pass
        losses = [r.train_loss for r in log.records]
        last_top1 = log.records[-1].val_top1
        tally.check(f"epoch losses finite {losses}",
                    all(math.isfinite(x) for x in losses))
        tally.check(f"val top-1 {last_top1} >= {TOP1_FLOOR}", last_top1 >= TOP1_FLOOR)

        ckpt = (training.save_run(out_dir, log, best) / "best.ckpt").read_bytes()
        for _ in range(EVALS_PER_REP):
            top1 = training.evaluate(model, self.val)
            tally.check(f"evaluate top-1 {top1} == last val_top1 {last_top1}",
                        top1 == last_top1)
        result.outputs = {"best_ckpt_sha256": sha256(ckpt),
                          "loss_sha256": sha256(repr(losses))}
        result.checkpoint_bytes = len(ckpt)
        return result

    def primary_unit(self, tally: Tally) -> tuple[float, dict]:
        """One epoch of train_run on the first TRAIN_CHUNK / VAL_CHUNK images."""
        train, val = self.train[:TRAIN_CHUNK], self.val[:VAL_CHUNK]
        t0 = time.perf_counter()
        log, _, model = training.train_run(self.spec, self.cfg, train, val, self.seed)
        elapsed = time.perf_counter() - t0
        tally.ops(math.ceil(len(train) / self.cfg.batch_size) + 1)
        losses = [r.train_loss for r in log.records]
        tally.check(f"chunk epoch losses finite {losses}",
                    all(math.isfinite(x) for x in losses))
        top1 = log.records[-1].val_top1
        tally.check(f"chunk evaluate == val_top1 {top1}",
                    training.evaluate(model, val) == top1)
        return elapsed, {"loss_sha256": sha256(repr(losses)), "val_top1": top1}

    def secondary_unit(self, tally: Tally) -> tuple[float, dict]:
        """evaluate of the model `rep` trained on the first EVAL_CHUNK val images."""
        val = self.val[:EVAL_CHUNK]
        t0 = time.perf_counter()
        top1 = training.evaluate(self.model, val)
        elapsed = time.perf_counter() - t0
        tally.check(f"chunk evaluate top-1 {top1} >= {TOP1_FLOOR}", top1 >= TOP1_FLOOR)
        return elapsed, {"top1": top1}


class Analysis:
    """Gradcheck suite, the four-family cost table and the fixture t-tests."""

    setup_probes = 9
    calibration = {"primary_s": "calls", "secondary_s": "fill", "setup_s": "array"}
    # the tables unit takes a tenth of the suite's time and varies more
    secondary_repeats = 4
    primary = f"gradcheck_suite.run_suite(trials={UNIT_TRIALS})"
    secondary = "cost_table() + summarize(fixture)"
    model = None

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        # The seed orders the fixture groups; every order has the same rows.
        # The cost families keep their order, because the time of a
        # cost_table() call depends on which family comes first.
        self.groups = stats.load_reference_runs()
        random.Random(self.seed).shuffle(self.groups)
        self.expected_forwards = TRIALS * sum(
            1 + 2 * math.prod(shape) for _, _, shape in gradcheck_suite.suite_cases())

    def expected_counts(self) -> dict:
        """Span name -> forwards (or None: just calls) each repetition must show."""
        calls = dict.fromkeys(("gradcheck_suite.run_suite", "autodiff.backward",
                               "models.build_model", "cost.cost_table",
                               "stats.summarize"))
        return dict(calls, **{"autodiff.grad_check": self.expected_forwards})

    def probe_setup(self):
        """Child process: report readiness at the start of the suite."""
        self.prepare()
        print("ready", flush=True)

    def rep(self, tally: Tally, out_dir) -> Rep:
        t0 = time.perf_counter()
        results = gradcheck_suite.run_suite(trials=TRIALS)
        result = Rep(time.perf_counter() - t0)
        report = cost.cost_table()
        comparison = stats.summarize(self.groups)
        self.check_suite(results, tally)
        self.check_tables(report, comparison, tally)
        result.outputs = {"gradcheck_sha256": sha256(repr(results)),
                          "cost_csv_sha256": sha256(report.to_csv()),
                          "stats_csv_sha256": sha256(comparison.to_csv())}
        return result

    def primary_unit(self, tally: Tally) -> tuple[float, dict]:
        t0 = time.perf_counter()
        results = gradcheck_suite.run_suite(trials=UNIT_TRIALS)
        elapsed = time.perf_counter() - t0
        self.check_suite(results, tally)
        return elapsed, {"gradcheck_sha256": sha256(repr(results))}

    def secondary_unit(self, tally: Tally) -> tuple[float, dict]:
        t0 = time.perf_counter()
        report = cost.cost_table()
        comparison = stats.summarize(self.groups)
        elapsed = time.perf_counter() - t0
        self.check_tables(report, comparison, tally)
        return elapsed, {"cost_csv_sha256": sha256(report.to_csv()),
                         "stats_csv_sha256": sha256(comparison.to_csv())}

    @staticmethod
    def check_suite(results, tally: Tally):
        for name, err in results:
            tally.check(f"gradcheck {name}: {err:.3e} < {GRAD_TOL}", err < GRAD_TOL)

    @staticmethod
    def check_tables(report, comparison, tally: Tally):
        for family, (gmacs, delta) in EXPECTED_COST.items():
            base, pc = report.row(family, "base"), report.row(family, "pc")
            got = (round(base.gmacs, 2), pc.params_delta)
            tally.check(f"cost {family} {got} == {(gmacs, delta)}",
                        got == (gmacs, delta))
        for row in comparison.rows:
            mb, mp, sb, sp, p = EXPECTED_STATS[row.arch]
            got = tuple(round(v, 3) for v in (row.mean_base, row.mean_pc,
                                              row.stdev_base, row.stdev_pc))
            tally.check(f"fixture {row.arch} {got} p={row.p_one_sided:.4f}",
                        got == (mb, mp, sb, sp) and abs(row.p_one_sided - p) <= 5e-4)
        tally.check(f"fixture rows {len(comparison.rows)} == {len(EXPECTED_STATS)}",
                    len(comparison.rows) == len(EXPECTED_STATS))


WORKLOADS = {
    "border-tinyvgg-pc": lambda seed: Training("tinyvgg", seed),
    "analysis": Analysis,
}
