"""End-to-end and per-layer benchmark of the ``shor-mps`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload sample-1943 --seed 1 --seconds 30 --trace 0

Each round runs the workload's ``shor-mps`` calls once per layout, each layout
in a fresh single-threaded interpreter (``worker.py``).  Rounds repeat until
``--seconds`` have passed.  Every report is checked against the exact law,
orbit, order and residue-set ranks computed in ``law.py`` and ``checks.py``.
The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
workers wrap the program's public functions (``tracing.py``).  See README.md
for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import Instance, check_profile_report, check_sample_report
from law import ALPHA, GoodnessOfFit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

LAYOUTS = ("static", "dynamic")
BLAS_THREADS = "1"
SETUP_REPEATS = 9
# a run stops starting workers after this, so it ends well inside 180 s
DEADLINE_S = 150.0


@dataclass(frozen=True)
class Call:
    """One ``shor-mps`` invocation; ``ops`` is its number of operations."""

    command: str
    n: int
    a: int
    ops: int = 1
    extra: tuple[str, ...] = ()

    @staticmethod
    def sample_seed(run_seed: int, k: int) -> int:
        """Seed of the call in round k; a call's samples use it and the ones after it."""
        return (1000 * run_seed + k) * 1000

    def argv(self, layout: str, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--n", str(self.n), "--a", str(self.a), "--layout", layout]
        if self.command == "sample":
            argv += ["--samples", str(self.ops), "--seed", str(seed)]
        return argv + list(self.extra) + ["--out", str(out)]


WORKLOADS = {
    # 2^21 < Q = 2^22 keeps the report's O(Q^2/r) reference law out of the run
    "sample-1943": [Call("sample", 1943, 2, 1, ("--dense-cap", str(1 << 21)))],
    "campaign-small": [Call("sample", 21, 2, 100), Call("sample", 247, 2, 30)],
    "modexp-16351": [Call("profile", 16351, 2)],
}
# (r, alpha, beta) from the paper's table
PAPER_ORDERS = {16351: (8036, 2, 2009)}

PER_LAYER_TIMES = [
    "cli.main", "shor.run_modexp", "shor.measure_lower_register", "shor.apply_lnn_qft",
    "mps.apply_two_site_gate", "mps.swap_sites", "mps.sweep", "mps.measure_qudit",
    "mps.reduced_density_nonlocal", "mps.promote_to_complex", "tensor.svd_truncated",
    "oracle.exact_distribution", "numtheory.multiplicative_order",
    "numtheory.continued_fraction_convergents", "numtheory.recover_factors",
]
PER_LAYER_CALLS = [
    "shor.sample_run", "mps.apply_two_site_gate", "mps.swap_sites", "mps.measure_qudit",
    "tensor.svd_truncated", "oracle.exact_distribution",
]


def median(values) -> float:
    """Median, or 0 for a layer that the workload never reached."""
    return statistics.median(values) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("SHOR_MPS_THREADS", None)
    return env


def measure_setup(env: dict) -> float:
    """Median time to start an interpreter and import ``shormps.cli``."""
    argv = [sys.executable, "-c", "import shormps.cli"]
    subprocess.run(argv, env=env, check=True)  # compiles bytecode once, untimed
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_worker(calls: list[list[str]], trace: bool, out: Path, env: dict,
               timeout: float) -> tuple[dict | None, str]:
    """Run one layout's calls in a fresh interpreter; (result or None, error)."""
    job = json.dumps({"calls": calls, "trace": trace, "out": str(out)})
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not out.is_file():
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(out.read_text()), ""


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.calls = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failed operations
        self.problems: list[str] = []  # wrong outputs
        self.round_s = {layout: [] for layout in LAYOUTS}
        self.rss_mb = {layout: [] for layout in LAYOUTS}
        self.elements = {layout: 0 for layout in LAYOUTS}
        self.traces = {layout: [] for layout in LAYOUTS}
        self.pools: dict[tuple[int, int, str], list[int]] = {}
        self.instances: dict[tuple[int, int], Instance] = {}

    def instance(self, n: int, a: int) -> Instance:
        if (n, a) not in self.instances:
            inst = self.instances[(n, a)] = Instance(n, a)
            paper = PAPER_ORDERS.get(n)
            if paper and (inst.r, inst.alpha, inst.beta) != paper:
                self.problems.append(f"n={n}: (r, alpha, beta) = "
                                     f"{inst.r, inst.alpha, inst.beta}, paper has {paper}")
        return self.instances[(n, a)]

    def round(self, k: int, env: dict, deadline: float) -> bool:
        """One round of every call in both layouts; False once time ran out."""
        for layout in LAYOUTS:
            outs = [RESULTS / f"{self.workload}-{layout}-call{i}.json"
                    for i in range(len(self.calls))]
            argvs = [c.argv(layout, c.sample_seed(self.seed, k), o)
                     for c, o in zip(self.calls, outs)]
            timeout = deadline - perf_counter()
            result, error = run_worker(argvs, self.trace, RESULTS / f"worker-{layout}.json",
                                       env, timeout)
            self.attempted += sum(c.ops for c in self.calls)
            if result is None:
                self.failed += sum(c.ops for c in self.calls)
                self.errors.append(f"round {k} {layout}: {error}")
                return False
            for call, out, done in zip(self.calls, outs, result["calls"]):
                if done["exit"] != 0:
                    self.failed += call.ops
                    self.errors.append(f"round {k} {layout} {call}: exit {done['exit']} "
                                         f"{done['error'] or ''}")
                    continue
                self.check(call, layout, json.loads(out.read_text()), f"round {k} {layout}")
            # a layout's time, RSS and trace come only from rounds whose calls all ended
            if all(done["exit"] == 0 for done in result["calls"]):
                self.round_s[layout].append(sum(c["seconds"] for c in result["calls"]))
                self.rss_mb[layout].append(result["maxrss_kb"] / 1024)
                if result["trace"]:
                    self.traces[layout].append(result["trace"])
        return perf_counter() < deadline

    def check(self, call: Call, layout: str, report: dict, where: str) -> None:
        inst = self.instance(call.n, call.a)
        where = f"{where} n={call.n}"
        if call.command == "profile":
            self.problems += check_profile_report(inst, report, layout, where)
            peak = report["elements"][layout]["peak"]
        else:
            self.problems += check_sample_report(inst, report, layout, call.ops, where)
            stages = report["layouts"][layout]["aggregate"]["peak_elements_per_stage"]
            peak = max(stages.values())
            self.pools.setdefault((call.n, call.a, layout), []).extend(
                rec["measured_s"] for rec in report["layouts"][layout]["records"])
        self.elements[layout] = max(self.elements[layout], peak)

    def check_laws(self) -> dict[str, float]:
        """Goodness of fit of the pooled s of each instance and layout."""
        fits, pvalues = {}, {}
        for (n, a, layout), s in sorted(self.pools.items()):
            inst = self.instance(n, a)
            if (n, a) not in fits:
                fits[(n, a)] = GoodnessOfFit(inst.l, inst.r)
            p = pvalues[f"n={n} {layout}"] = fits[(n, a)].pvalue(s)
            if p < ALPHA:
                self.problems.append(f"n={n} {layout}: {len(s)} sampled s fail the "
                                     f"goodness-of-fit test, p = {p:.3g} < {ALPHA}")
        return pvalues

    def unmeasured(self, layout: str, rounds: list) -> bool:
        """True, and the run marked incorrect, when no round of the layout ended
        whole: its metrics are then null, never a 0 that reads as a gain."""
        if rounds:
            return False
        self.problems.append(f"{layout}: no round ended without a failed call")
        return True

    def end_to_end(self, setup_s: float) -> dict:
        metrics = {"setup_s": (setup_s, "s")}
        for layout in LAYOUTS:
            none = self.unmeasured(layout, self.round_s[layout])
            metrics[f"{layout}_s"] = (None if none else median(self.round_s[layout]), "s")
            metrics[f"{layout}_rss_mb"] = (None if none else median(self.rss_mb[layout]), "MB")
            metrics[f"{layout}_elements"] = (None if none else self.elements[layout], "elements")
        return metrics

    def per_layer(self) -> tuple[dict, dict]:
        """Per-round means over the traced rounds, and the full trace summary."""
        metrics, summary = {}, {}
        for layout in LAYOUTS:
            traces = self.traces[layout]
            none = self.unmeasured(layout, traces)
            rounds = max(1, len(traces))
            funcs: dict[str, dict] = {}
            for tr in traces:
                for name, st in tr["functions"].items():
                    agg = funcs.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
                    for key in agg:
                        agg[key] += st[key] / rounds
            runs = [d for tr in traces for d in tr["durations"]["shor.sample_run"]]
            svd_flops = sum(tr["svd"]["computed_flops"] for tr in traces) / rounds
            svd_max = max((tr["svd"]["max_elements"] for tr in traces), default=0)
            sfx = f".{layout}"
            for name in PER_LAYER_TIMES:
                metrics[f"{name}.s{sfx}"] = (funcs.get(name, {}).get("inclusive_s", 0.0), "s")
            for name in PER_LAYER_CALLS:
                metrics[f"{name}.calls{sfx}"] = (funcs.get(name, {}).get("calls", 0), "count")
            metrics[f"shor.sample_run.median_s{sfx}"] = (median(runs), "s")
            metrics[f"tensor.svd_truncated.flops{sfx}"] = (svd_flops, "computed_flop")
            metrics[f"tensor.svd_truncated.max_elements{sfx}"] = (svd_max, "elements")
            if none:
                metrics.update({name: (None, unit) for name, (_, unit) in metrics.items()
                                if name.endswith(sfx)})
            summary[layout] = {"rounds": len(traces), "per_round": funcs}
        return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shormps" / "cli.py").is_file():
        print(f"error: no shor-mps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    deadline = perf_counter() + DEADLINE_S
    setup_s = 0.0 if args.trace else measure_setup(env)
    run = Run(args.workload, args.seed, bool(args.trace))
    measure_start = perf_counter()
    k = 0
    while run.round(k, env, deadline):
        k += 1
        if perf_counter() - measure_start >= args.seconds:
            break
    pvalues = run.check_laws()
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, summary = run.per_layer()
        (RESULTS / f"trace-{tag}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    else:
        metrics = run.end_to_end(setup_s)
        (RESULTS / f"result-{tag}.json").write_text(json.dumps(
            {"round_s": run.round_s, "rss_mb": run.rss_mb, "setup_s": setup_s,
             "pvalues": pvalues, "errors": run.errors, "problems": run.problems},
            indent=1, sort_keys=True))
    for line in run.errors[:10]:
        print(f"failed: {line}", file=sys.stderr)
    for line in run.problems[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {'null' if value is None else f'{value:.6g}':>16} {unit}",
              file=sys.stderr)
    for pool, p in pvalues.items():
        print(f"goodness of fit {pool}: p = {p:.3g}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
