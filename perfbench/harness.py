"""Passes, checks and metrics of the lienilp benchmark.

A pass builds every input of a workload from cold (a fresh catalog,
fresh group objects, an empty ``lower_central_series`` cache), runs
``analyze`` on it and checks the report.  End-to-end metrics come from
untraced passes; the per-layer metrics come from traced passes run in
the same process, which also gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import lienilp
from lienilp import groups
from lienilp import report as report_module
from lienilp.catalog import Catalog, load_catalog

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
SETUP_REPS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import lienilp; "
              "lienilp.Catalog.load()")
# Checks every analysis of a p-group must run and pass; the oracle ones
# are added when the oracle ran.
FORMULA_CHECKS = ("routes_agree", "sum_rule", "shalev_vanishing",
                  "classification_biconditional")
ORACLE_CHECKS = ("oracle_upper_matches_jennings", "direct_series_agrees",
                 "bounds")

# The original, kept so its cache can be cleared while tracing wraps it.
_lower_central_series = groups.lower_central_series
_extra_entries = load_catalog(BENCH / "extra_catalog.jsonl")


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    max_analysis_s: float
    seconds: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, float] | None = None
    spans: list[dict] = field(default_factory=list)
    warmup: bool = False


def _fresh_catalog() -> Catalog:
    """A catalog with nothing built yet: the shipped entries plus the
    benchmark's large products."""
    return Catalog(Catalog.load().entries + _extra_entries)


def _build(inp: inputs.Input, catalog: Catalog):
    if inp.catalog_name is not None:
        # Each input gets its own memo, so no group is reused.
        return Catalog(catalog.entries).build(inp.catalog_name)
    return groups.from_permutation_generators(
        inp.degree, [list(g) for g in inp.generators])


def digest(rep) -> str:
    return hashlib.sha256(
        json.dumps(rep.to_json_dict()).encode()).hexdigest()


def _problems(inp: inputs.Input, g, rep, expected: dict) -> list[str]:
    out = [f"check {k} is {v}" for k, v in sorted(rep.checks.items())
           if v is False]
    if inp.expected_order is not None and g.order != inp.expected_order:
        out.append(f"order {g.order}, expected {inp.expected_order}")
    oracle_due = (inp.run_oracle if inp.run_oracle is not None
                  else g.order <= inp.oracle_cap)
    if rep.oracle.ran != oracle_due:
        out.append(f"oracle ran={rep.oracle.ran}, expected {oracle_due}")
    due = FORMULA_CHECKS + (ORACLE_CHECKS if oracle_due else ())
    out += [f"check {k} did not run" for k in due
            if rep.checks.get(k) is None]
    if inp.key in expected:
        want = expected[inp.key]
        got = {"t_upper_jennings": rep.t_upper_jennings,
               "verdict": rep.verdict, "sha256": digest(rep)}
        out += [f"{k} {got[k]!r}, expected {want[k]!r}" for k in want
                if got[k] != want[k]]
    return out


def run_pass(work: tuple[inputs.Input, ...], expected: dict,
             tracer: tracing.Tracer | None = None) -> PassResult:
    gc.collect()
    _lower_central_series.cache_clear()
    catalog = _fresh_catalog()
    result = PassResult(traced=tracer is not None, wall_s=0.0,
                        max_analysis_s=0.0)
    start = time.perf_counter()
    for inp in work:
        if tracer is not None:
            tracer.analysis = inp.key
        t0 = time.perf_counter()
        try:
            g = _build(inp, catalog)
            rep = report_module.analyze(g, inp.prime, name=inp.key,
                                        run_oracle=inp.run_oracle,
                                        oracle_cap=inp.oracle_cap)
            result.seconds[inp.key] = time.perf_counter() - t0
            problems = _problems(inp, g, rep, expected)
        except Exception:  # a failed analysis is counted, not fatal
            result.seconds[inp.key] = time.perf_counter() - t0
            problems = [traceback.format_exc()]
        if problems:
            result.failures[inp.key] = "; ".join(problems)
    result.wall_s = time.perf_counter() - start
    result.max_analysis_s = max(result.seconds.values())
    return result


def traced_pass(work, expected) -> PassResult:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run_pass(work, expected, tracer)
    result.per_layer = tracer.per_layer()
    result.spans = list(tracer.span_records())
    return result


def setup_seconds(reps: int) -> list[float]:
    """Wall time of fresh interpreters that import lienilp and load the
    shipped catalog, as every command-line call does."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                       cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
            "seed": seed}


def end_to_end(plain: list[PassResult], setup: list[float]) -> dict:
    return {
        "wall_s": {"value": median(p.wall_s for p in plain), "unit": "s"},
        "max_analysis_s": {"value": median(p.max_analysis_s
                                            for p in plain), "unit": "s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(plain: list[PassResult], traced: list[PassResult]) -> dict:
    out = {}
    for name in traced[0].per_layer:
        unit = ("s" if name.endswith("self_s")
                else "bytes" if name.endswith("bytes_in_computed")
                else "count")
        out[name] = {"value": median(p.per_layer[name] for p in traced),
                     "unit": unit}
    untraced = median(p.wall_s for p in plain)
    out["trace.overhead_share"] = {
        "value": (median(p.wall_s for p in traced) - untraced) / untraced,
        "unit": "ratio"}
    return out


def measure(work, expected, seconds: float, trace: bool
            ) -> list[PassResult]:
    """A warm-up pass, checked but not timed, then passes until the next
    one would end past ``seconds``.  With tracing, untraced and traced
    passes alternate, at least one of each."""
    warmup = run_pass(work, expected)
    warmup.warmup = True
    passes = [warmup]
    start = time.perf_counter()
    while True:
        timed = len(passes) - 1
        passes.append(traced_pass(work, expected) if trace and timed % 2
                      else run_pass(work, expected))
        if trace and timed == 0:
            continue
        typical = median(p.wall_s for p in passes[1:])
        if time.perf_counter() - start + typical > seconds:
            return passes


def _write_record(stem: str, record: dict, passes) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    spans = [s for p in passes if p.traced for s in p.spans]
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if Path(lienilp.__file__).resolve().parent != ROOT / "src" / "lienilp":
        print(f"perfbench: lienilp imported from {lienilp.__file__}",
              file=sys.stderr)
        return 2
    work = inputs.workload_inputs(workload, seed)
    expected = json.loads(EXPECTED.read_text())
    setup = setup_seconds(SETUP_REPS)
    passes = measure(work, expected, seconds, trace)
    plain = [p for p in passes if not (p.traced or p.warmup)]
    traced = [p for p in passes if p.traced]
    metrics = (per_layer(plain, traced) if trace
               else end_to_end(plain, setup))
    attempted = len(work) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    env = environment(seed)
    drawn = [{"key": i.key, "order": i.expected_order} for i in work
             if i.expected_order is not None]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "inputs_drawn": drawn,
              "setup_s": setup, "failed_share": failed / attempted,
              "passes": [{"traced": p.traced, "warmup": p.warmup,
                          "wall_s": p.wall_s,
                          "max_analysis_s": p.max_analysis_s,
                          "seconds": p.seconds, "failures": p.failures}
                         for p in passes],
              "metrics": metrics}
    _write_record(f"{workload}-seed{seed}-trace{int(trace)}", record, passes)
    for p in passes:
        for key, why in p.failures.items():
            print(f"perfbench: FAILED {key}: {why}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    if drawn:
        print(f"# orders drawn {[d['order'] for d in drawn]}")
    print(f"# {len(passes)} passes, failed_share {failed}/{attempted} "
          f"= {failed / attempted:g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """First input of every workload, one untraced and one traced pass;
    every metric named in BENCHMARK.json must be reported."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(EXPECTED.read_text())
    setup = setup_seconds(1)
    bad = 0
    for workload in inputs.WORKLOADS:
        work = inputs.workload_inputs(workload, 1)[:1]
        plain = [run_pass(work, expected)]
        traced = [traced_pass(work, expected)]
        for kind, got in (("end_to_end", end_to_end(plain, setup)),
                          ("per_layer", per_layer(plain, traced))):
            missing = [m["name"] for m in spec[kind]
                       if m["name"] not in got]
            bad += len(missing)
            if missing:
                print(f"{workload} {kind}: missing {missing}")
        for p in plain + traced:
            for key, why in p.failures.items():
                bad += 1
                print(f"{workload}: FAILED {key}: {why}")
        print(f"{workload} {work[0].key}: {plain[0].wall_s:.3f} s")
    print("smoke ok" if not bad else f"smoke: {bad} problems")
    return 1 if bad else 0


def pin() -> int:
    """Record t_upper_jennings, verdict and a digest of the JSON report
    of every fixed input, as the current code produces them."""
    out = {}
    catalog = _fresh_catalog()
    for inp in inputs.ORACLE_CATALOG + inputs.FORMULA_LARGE:
        rep = report_module.analyze(_build(inp, catalog), inp.prime,
                                    name=inp.key, run_oracle=inp.run_oracle,
                                    oracle_cap=inp.oracle_cap)
        out[inp.key] = {"t_upper_jennings": rep.t_upper_jennings,
                        "verdict": rep.verdict, "sha256": digest(rep)}
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    return 0
