"""Catalog parsing/building and the command line interface."""

import json

import pytest

from lienilp.catalog import Catalog, load_catalog
from lienilp.cli import main
from lienilp.errors import (
    CatalogParseError,
    NotHomomorphismError,
    NotPrimeError,
    UnknownConstructionError,
    UnresolvedReferenceError,
)
from lienilp.groups import full_subgroup, is_abelian_subgroup

REQUIRED_ENTRIES = {"C2", "C4", "C2xC2", "D8", "Q8", "C4xC2", "D8xD8",
                    "C2wrC4", "H27", "C3wrC3", "H125", "S3"}


# --- catalog ---------------------------------------------------------------------


def test_shipped_catalog_loads(catalog):
    names = {e.name for e in catalog.entries}
    assert REQUIRED_ENTRIES <= names
    for entry in catalog.entries:
        assert catalog.build(entry.name).order >= 1


def test_builds_well_known_orders(built):
    assert built("D8").order == 8
    assert built("C2wrC4").order == 64
    assert built("H125").order == 125
    assert built("D8sd").order == 8


def test_parse_error_reports_line(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"kind": "cyclic", "name": "C2", "order": 2}\nnot json\n')
    with pytest.raises(CatalogParseError) as err:
        load_catalog(f)
    assert err.value.line == 2


def test_duplicate_name_rejected(tmp_path):
    f = tmp_path / "dup.jsonl"
    f.write_text('{"kind": "cyclic", "name": "A", "order": 2}\n'
                 '{"kind": "cyclic", "name": "A", "order": 3}\n')
    with pytest.raises(CatalogParseError):
        load_catalog(f)


def test_unknown_kind(tmp_path):
    f = tmp_path / "weird.jsonl"
    f.write_text('{"kind": "sporadic", "name": "M"}\n')
    with pytest.raises(UnknownConstructionError):
        load_catalog(f)


def test_unresolved_and_cyclic_references(tmp_path):
    f = tmp_path / "refs.jsonl"
    f.write_text(
        '{"kind": "direct_product", "name": "A", "factors": ["B", "B"]}\n'
        '{"kind": "direct_product", "name": "B", "factors": ["A", "A"]}\n'
        '{"kind": "direct_product", "name": "C", "factors": ["nope", "A"]}\n')
    cat = Catalog(load_catalog(f))
    with pytest.raises(UnresolvedReferenceError, match="cyclic"):
        cat.build("A")
    with pytest.raises(UnresolvedReferenceError, match="nope"):
        cat.build("C")


def test_semidirect_action_on_generators(tmp_path):
    f = tmp_path / "sd.jsonl"
    f.write_text(
        '{"kind": "cyclic", "name": "C4", "order": 4}\n'
        '{"kind": "cyclic", "name": "C2", "order": 2}\n'
        '{"kind": "semidirect", "name": "D8v", "parts": ["C4", "C2"],'
        ' "action": {"1": [0, 3, 2, 1]}}\n')
    g = Catalog(load_catalog(f)).build("D8v")
    assert g.order == 8 and not is_abelian_subgroup(full_subgroup(g))


def test_semidirect_action_must_cover(tmp_path):
    f = tmp_path / "sd.jsonl"
    f.write_text(
        '{"kind": "cyclic", "name": "C4", "order": 4}\n'
        '{"kind": "direct_product", "name": "V", "factors": ["C2", "C2"]}\n'
        '{"kind": "cyclic", "name": "C2", "order": 2}\n'
        '{"kind": "semidirect", "name": "X", "parts": ["C4", "V"],'
        ' "action": {"0": [0, 1, 2, 3]}}\n')
    with pytest.raises(NotHomomorphismError):
        Catalog(load_catalog(f)).build("X")


def test_semidirect_action_must_be_multiplicative(tmp_path):
    """x -> 2x has order 4 in Aut(C5), so it cannot be the image of the
    order-2 generator of C2."""
    f = tmp_path / "sd.jsonl"
    f.write_text(
        '{"kind": "cyclic", "name": "C5", "order": 5}\n'
        '{"kind": "cyclic", "name": "C2", "order": 2}\n'
        '{"kind": "semidirect", "name": "X", "parts": ["C5", "C2"],'
        ' "action": {"1": [0, 2, 4, 1, 3]}}\n')
    with pytest.raises(NotHomomorphismError):
        Catalog(load_catalog(f)).build("X")


@pytest.mark.parametrize("key", ["01", "\u0661"])
def test_action_key_spelled_twice_rejected(tmp_path, capsys, key):
    """"01" and the Arabic-Indic digit one both read as element 1,
    which "1" already names: a catalog error, not a last-wins merge."""
    f = tmp_path / "sd.jsonl"
    f.write_text(
        '{"kind": "cyclic", "name": "C4", "order": 4}\n'
        '{"kind": "cyclic", "name": "C2", "order": 2}\n'
        '{"kind": "semidirect", "name": "X", "parts": ["C4", "C2"],'
        f' "action": {{"1": [0, 1, 2, 3], {json.dumps(key)}: [0, 3, 2, 1]}}}}\n')
    with pytest.raises(CatalogParseError) as err:
        Catalog(load_catalog(f)).build("X")
    assert err.value.line == 3 and "'action' must be" in str(err.value)
    assert main(["analyze", "X", "--prime", "2", "--catalog", str(f)]) == 2
    assert "error: catalog line 3: " in capsys.readouterr().err


def test_comments_and_blank_lines_skipped(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text('# header\n\n{"kind": "cyclic", "name": "C3", "order": 3}\n')
    assert len(load_catalog(f)) == 1


# --- CLI -------------------------------------------------------------------------


def test_analyze_d8(capsys):
    rc = main(["analyze", "D8", "--prime", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict       : maximal" in out
    assert "t upper (formula): 3" in out


def test_analyze_s3_not_lie_nilpotent(capsys):
    rc = main(["analyze", "S3", "--prime", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "not_lie_nilpotent" in out


def test_analyze_unknown_group_exits_2(capsys):
    rc = main(["analyze", "Nope", "--prime", "2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_oracle_without_table_exits_2(capsys):
    """A permutation-backed group has no dense table for the oracle: a
    one-line error and exit 2, not a traceback."""
    rc = main(["analyze", "C5wrC5", "--prime", "5", "--oracle"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: C5wrC5:")
    assert err.count("\n") == 1


def test_scan_oracle_without_table_exits_2(tmp_path, capsys):
    f = tmp_path / "perm.jsonl"
    f.write_text('{"kind": "wreath_cyclic", "name": "C5wrC5", "p": 5, '
                 '"q": 5}\n')
    rc = main(["scan", "--prime", "5", "--oracle", "--catalog", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: C5wrC5:")
    assert err.count("\n") == 1


def test_oracle_refused_above_order_limit(tmp_path):
    """A forced oracle on the order-2048 C2wrC8, a table-backed group
    above ORACLE_ORDER_LIMIT, is refused before any chain runs: exit 2
    and one error line from analyze and scan.  Run in a subprocess with
    a timeout, since an oracle that ran would take hours."""
    import subprocess
    import sys
    f = tmp_path / "big.jsonl"
    f.write_text('{"kind": "wreath_cyclic", "name": "C2wrC8", "p": 2, '
                 '"q": 8}\n')
    script = (
        "import contextlib, io, json, sys; from lienilp.cli import main\n"
        "for argv in (['analyze', 'C2wrC8'], ['scan']):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        rc = main(argv + ['--prime', '2', '--oracle',\n"
        "                          '--catalog', sys.argv[1]])\n"
        "    print(json.dumps([rc, err.getvalue()]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(f)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    message = ("error: C2wrC8: group order 2048 is above 1024, the "
               "largest order the oracle runs on\n")
    assert [json.loads(line) for line in proc.stdout.splitlines()] == \
        [[2, message]] * 2


@pytest.mark.parametrize("fields,key", [
    ('"kind": "cyclic", "order": [4]', "order"),
    ('"kind": "cyclic", "order": null', "order"),
    ('"kind": "permutations", "degree": 3, "generators": 5', "generators"),
    ('"kind": "direct_product", "factors": [1, 2]', "factors"),
    ('"kind": "semidirect", "parts": ["C2", "C2"], "action": {"x": [0, 1]}',
     "action"),
    ('"kind": "semidirect", "parts": ["C2", "C2"], "action": {"2": [0, 1]}',
     "action"),
])
def test_bad_field_type_exits_2(tmp_path, capsys, fields, key):
    """A field of the wrong JSON type is a catalog error naming its
    line: exit 2 and one error line from analyze and scan, not a
    TypeError traceback."""
    f = tmp_path / "bad.jsonl"
    f.write_text('{"kind": "cyclic", "name": "C2", "order": 2}\n'
                 f'{{"name": "X", {fields}}}\n')
    for argv in (["analyze", "X"], ["scan"]):
        rc = main(argv + ["--prime", "2", "--catalog", str(f)])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("error: catalog line 2: ") and \
            f"'{key}' must be" in err, err
        assert err.count("\n") == 1


def test_analyze_json_deterministic(capsys):
    rc = main(["analyze", "C3wrC3", "--prime", "3", "--json", "--no-oracle"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["analyze", "C3wrC3", "--prime", "3", "--json", "--no-oracle"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    payload = json.loads(first)
    assert payload["t_upper_jennings"] == 8
    assert payload["verdict"] == "almost_maximal.iv"
    assert payload["d_vector"] == {"2": 1, "3": 1}
    assert payload["oracle"]["ran"] is False


def test_analyze_force_oracle(capsys):
    rc = main(["analyze", "C2wrC4", "--prime", "2", "--json", "--cap", "8",
               "--oracle"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["oracle"]["ran"] is True
    assert payload["oracle"]["t_upper"] == 8


def test_analyze_cap_skips_oracle(capsys):
    rc = main(["analyze", "D8", "--prime", "2", "--json", "--cap", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["oracle"]["ran"] is False
    assert payload["checks"]["oracle_upper_matches_jennings"] is None


def test_scan_p2(capsys):
    rc = main(["scan", "--prime", "2", "--max-order", "64", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    summary = payload["summary"]
    assert summary["biconditional_violations"] == []
    assert summary["verdict_counts"]["almost_maximal.i"] == 1
    assert summary["verdict_counts"]["almost_maximal.iii"] == 1
    names = {w["name"] for w in summary["sharpness_witnesses"]}
    assert "C2wrC4" in names


def test_scan_p3(capsys):
    rc = main(["scan", "--prime", "3", "--max-order", "81", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    names = {w["name"] for w in payload["summary"]["sharpness_witnesses"]}
    assert "C3wrC3" in names


def test_scan_p5_no_oracle_text(capsys):
    rc = main(["scan", "--prime", "5", "--no-oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C5wrC5" in out


def test_selftest_skips_oracle_criteria(capsys):
    rc = main(["selftest", "--cap", "0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    by_key = {c["key"]: c["status"] for c in payload["criteria"]}
    assert by_key["1-golden-indices"] == "skip"
    assert by_key["4-bounds"] == "skip"
    assert by_key["3-biconditional"] == "pass"
    assert by_key["8-negative-controls"] == "pass"


NON_PRIMES = ["1", "0", "4", "6", "-2"]


@pytest.fixture(scope="module")
def non_prime_runs():
    """analyze and scan at every non-prime, all in one subprocess with a
    timeout, so a hang fails the tests rather than the run.  Each
    command prints one JSON line: the prime, its exit code, its stderr."""
    import subprocess
    import sys
    script = (
        "import contextlib, io, json, sys; from lienilp.cli import main\n"
        "for p in sys.argv[1:]:\n"
        "    for argv in (['analyze', 'D8'], ['scan']):\n"
        "        err = io.StringIO()\n"
        "        with contextlib.redirect_stderr(err):\n"
        "            rc = main(argv + ['--prime', p])\n"
        "        print(json.dumps([p, rc, err.getvalue()]))\n")
    proc = subprocess.run([sys.executable, "-c", script, *NON_PRIMES],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    runs: dict = {}
    for line in proc.stdout.splitlines():
        p, rc, err = json.loads(line)
        runs.setdefault(p, []).append((rc, err))
    return runs


@pytest.mark.parametrize("prime", NON_PRIMES)
def test_non_prime_rejected(non_prime_runs, prime):
    """A --prime that is not a prime >= 2 is a usage error of analyze and
    scan, never a hang (p = 1) or a traceback (p = 0)."""
    message = f"error: --prime must be a prime >= 2, got {prime}\n"
    assert non_prime_runs[prime] == [(2, message)] * 2


@pytest.mark.parametrize("prime", [1, 0, 4, 6, -2])
def test_library_analyze_rejects_non_prime(built, prime):
    """The library call checks p itself: 4 and 6 are not reported as
    not_lie_nilpotent, and 1 does not reach the base-p logarithm."""
    from lienilp.report import analyze
    with pytest.raises(NotPrimeError, match=f"got {prime}$"):
        analyze(built("D8"), prime)


def test_console_script_entry():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "lienilp.cli", "analyze", "Q8",
         "--prime", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_upper_jennings"] == 3
