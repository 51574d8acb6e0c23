"""The analysis record: golden output and one computation per fact."""

import functools
import hashlib
import importlib
import json
import sys
from pathlib import Path

from lienilp.report import analyze

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"


def test_analyze_golden(catalog_reports):
    """sha256 of json.dumps(to_json_dict()) for every shipped entry at
    p = 2, 3, 5 with the CLI defaults.  The file pins the output byte
    for byte; only an intended change of output may rewrite it."""
    golden = json.loads(GOLDEN.read_text())
    got = {f"{name}@{p}": hashlib.sha256(
               json.dumps(rep.to_json_dict()).encode()).hexdigest()
           for (name, p), rep in catalog_reports.items()}
    assert len(got) == 72
    assert got == golden


COUNTED = {
    "lienilp.dimension": ("series_recursive", "series_product", "d_vector"),
    "lienilp.classify": ("theorem1_structural_case", "lemma2_profile",
                         "cross_validate", "classify"),
}


def test_each_fact_computed_once(built, monkeypatch):
    """One analyze runs each series route and each detector exactly
    once.  Every lienilp module whose namespace refers to a counted
    function gets a counting wrapper, so calls from any module are
    seen."""
    counts: dict[str, int] = {}
    modules = [m for n, m in sys.modules.items()
               if n == "lienilp" or n.startswith("lienilp.")]

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, names in COUNTED.items():
        for name in names:
            orig = getattr(importlib.import_module(owner), name)
            new = counting(name, orig)
            for mod in modules:
                if mod.__dict__.get(name) is orig:
                    monkeypatch.setattr(mod, name, new)
    every = [name for names in COUNTED.values() for name in names]
    for name, p in (("C2wrC4", 2), ("C3wrC3", 3)):
        counts.update(dict.fromkeys(every, 0))
        rep = analyze(built(name), p, name=name)
        assert rep.oracle.ran
        assert counts == dict.fromkeys(every, 1), f"{name}@p{p}"
