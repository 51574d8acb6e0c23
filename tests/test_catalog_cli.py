"""Catalog parsing/building and the command line interface."""

import dataclasses
import json
from pathlib import Path

import pytest

from lienilp.catalog import Catalog, load_catalog
from lienilp.cli import main
from lienilp.errors import (
    CapExceededError,
    CatalogParseError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotAutomorphismError,
    NotHomomorphismError,
    NotPrimeError,
    UnknownConstructionError,
    UnresolvedReferenceError,
)
from lienilp.groups import full_subgroup, is_abelian_subgroup
from lienilp.oracle import DEFAULT_ORACLE_CAP
from lienilp.report import analyze

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
    with pytest.raises(UnknownConstructionError) as err:
        load_catalog(f)
    assert err.value.line == 1


@pytest.mark.parametrize("entry,message", [
    ('{"kind": "sporadic", "name": "X"}',
     "catalog line 1: unknown construction kind 'sporadic'"),
    ('{"kind": "direct_product", "name": "X", "factors": ["C2"]}',
     "catalog line 1: direct_product entry 'X' needs at least two factors"),
    ('{"kind": "semidirect", "name": "X", "parts": ["C2"], "action": {}}',
     "catalog line 1: semidirect entry 'X' needs parts = [normal, acting]"),
], ids=["unknown-kind", "one-factor", "one-part"])
def test_catalog_errors_name_line_and_entry(tmp_path, capsys, entry,
                                            message):
    """An unknown kind and a wrong number of referenced entries are
    worded like every other catalog error: one line naming the catalog
    line, and the entry where there is one."""
    f = tmp_path / "bad.jsonl"
    f.write_text(entry + '\n{"kind": "cyclic", "name": "C2", "order": 2}\n')
    assert main(["analyze", "X", "--prime", "2", "--catalog", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    """The oracle refuses a group by order, above ORACLE_ORDER_LIMIT
    (C5wrC5 has order 15625): a one-line error and exit 2, not a
    traceback."""
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
    """A forced oracle on the order-2048 C2wrC8, a permutation-backed
    group above ORACLE_ORDER_LIMIT, is refused before any chain runs: exit 2
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


@pytest.mark.parametrize("fields,message", [
    ('"kind": "cyclic", "order": 65536', "cyclic order 65536 is above 4096"),
    ('"kind": "dihedral", "order": 16384',
     "dihedral order 16384 is above 4096"),
    ('"kind": "extraspecial", "p": 37', "extraspecial order 50653 is above"),
    ('"kind": "permutations", "degree": -1, "generators": []',
     "permutation degree -1 is negative"),
])
def test_oversized_or_negative_entries_exit_2(tmp_path, capsys, monkeypatch,
                                              fields, message):
    """Table orders past the table limit and a negative degree give exit
    2 and one error line, refused before any numpy array is built."""
    from lienilp import groups
    monkeypatch.setattr(groups, "np", None)
    f = tmp_path / "big.jsonl"
    f.write_text(f'{{"name": "X", {fields}}}\n')
    rc = main(["analyze", "X", "--prime", "2", "--catalog", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_builder_refusal_names_its_entry(tmp_path, capsys, command):
    """A builder's refusal names the catalog entry and line it came from,
    also when another entry references it, in one error line."""
    f = tmp_path / "big.jsonl"
    f.write_text('{"kind": "cyclic", "name": "C2", "order": 2}\n'
                 '{"kind": "cyclic", "name": "Big", "order": 65536}\n'
                 '{"kind": "direct_product", "name": "X", '
                 '"factors": ["C2", "Big"]}\n')
    argv = [command] + (["X"] if command == "analyze" else [])
    rc = main(argv + ["--prime", "2", "--catalog", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: cyclic order 65536 is above 4096, the largest "
                   "order built as a table (catalog line 2, entry 'Big')\n")


@pytest.mark.parametrize("fields,error,message", [
    ('"kind": "table", "table": [[0, 1, 2], [1, 2, 2], [2, 2, 1]]',
     NotAssociativeError, "multiplication table is not associative"),
    ('"kind": "table", "table": [[1, 1], [1, 1]]', NoIdentityError,
     "multiplication table has no two-sided identity"),
    ('"kind": "table", "table": [[0, 1], [1, 1]]', NoInverseError,
     "element 1 has no two-sided inverse"),
    ('"kind": "table", "table": [[0, 1], [1]]', ValueError,
     "multiplication table must be square"),
    ('"kind": "semidirect", "parts": ["C4", "C2"], "action": '
     '{"1": [0, 2, 1, 3]}', NotAutomorphismError,
     "action of element 1 does not preserve multiplication"),
    ('"kind": "semidirect", "parts": ["C5", "C2"], "action": '
     '{"1": [0, 2, 4, 1, 3]}', NotHomomorphismError,
     "action is not multiplicative at the pair"),
    ('"kind": "semidirect", "parts": ["C2", "C2"], "action": {"2": [0, 1]}',
     NotHomomorphismError, "action key 2 is not an element index below 2"),
    ('"kind": "cyclic", "order": 65536', CapExceededError,
     "cyclic order 65536 is above 4096"),
    ('"kind": "wreath_cyclic", "p": 3, "q": 1000000', CapExceededError,
     "wreath order p^q * q for p = 3, q = 1000000 exceeds cap 65536"),
])
def test_every_builder_error_names_its_entry(tmp_path, capsys, fields, error,
                                             message):
    """Whatever a builder raises, analyze and scan exit 2 with one error
    line that ends in the entry's catalog line and name, and
    Catalog.build raises the builder's own error with its fields."""
    f = tmp_path / "bad.jsonl"
    f.write_text('{"kind": "cyclic", "name": "C2", "order": 2}\n'
                 '{"kind": "cyclic", "name": "C4", "order": 4}\n'
                 '{"kind": "cyclic", "name": "C5", "order": 5}\n'
                 f'{{"name": "X", {fields}}}\n')
    for argv in (["analyze", "X"], ["scan"]):
        rc = main(argv + ["--prime", "2", "--catalog", str(f)])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith(f"error: {message}"), err
        assert err.endswith(" (catalog line 4, entry 'X')\n"), err
        assert err.count("\n") == 1
    with pytest.raises(error) as raised:
        Catalog(load_catalog(f)).build("X")
    assert type(raised.value) is error
    if error is NotAssociativeError:
        i, j, k = raised.value.triple
        t = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
        assert t[t[i][j]][k] != t[i][t[j][k]]
    if error is NoInverseError:
        assert raised.value.element == 1


@pytest.mark.parametrize("fields,key", [
    ('"kind": "cyclic", "order": [4]', "order"),
    ('"kind": "cyclic", "order": null', "order"),
    ('"kind": "permutations", "degree": 3, "generators": 5', "generators"),
    ('"kind": "direct_product", "factors": [1, 2]', "factors"),
    ('"kind": "semidirect", "parts": ["C2", "C2"], "action": {"x": [0, 1]}',
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
    """Both witnesses at p = 2 reach 2^n; C2wrC4 also passes the p >= 5
    bound p^(n-1) + 2p - 1, D8xD8 falls short of it.  The text scan
    prints each bound."""
    argv = ["scan", "--prime", "2", "--max-order", "64"]
    rc = main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    summary = payload["summary"]
    assert summary["failed_checks"] == []
    assert summary["verdict_counts"]["almost_maximal.i"] == 1
    assert summary["verdict_counts"]["almost_maximal.iii"] == 1
    assert summary["sharpness_witnesses"] == [
        {"name": "D8xD8", "n": 2, "t_upper": 4, "small_p_bound": 5},
        {"name": "C2wrC4", "n": 3, "t_upper": 8, "small_p_bound": 7}]
    assert main(argv + ["--no-oracle"]) == 0
    assert "-- sharpness witnesses: D8xD8 (t=4, p>=5 bound 5), C2wrC4 " \
        "(t=8, p>=5 bound 7)\n" in capsys.readouterr().out


def test_failed_check_exits_3(monkeypatch, capsys):
    """A report with one check False makes analyze and scan exit 3;
    scan marks the group CHECK-FAILED and lists the check in its
    summary."""
    def failing(*args, **kwargs):
        rep = analyze(*args, **kwargs)
        return dataclasses.replace(rep, checks={**rep.checks,
                                                "sum_rule": False})
    monkeypatch.setattr("lienilp.cli.analyze", failing)
    assert main(["analyze", "D8", "--prime", "2"]) == 3
    capsys.readouterr()
    argv = ["scan", "--prime", "2", "--max-order", "8", "--no-oracle"]
    assert main(argv) == 3
    assert "CHECK-FAILED" in capsys.readouterr().out
    assert main(argv + ["--json"]) == 3
    failed = json.loads(capsys.readouterr().out)["summary"]["failed_checks"]
    assert {"name": "D8", "failed_checks": ["sum_rule"]} in failed


def test_scan_p3(capsys):
    rc = main(["scan", "--prime", "3", "--max-order", "81", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["summary"]["sharpness_witnesses"] == [
        {"name": "C3wrC3", "n": 2, "t_upper": 8, "small_p_bound": 8}]


def test_scan_formula_route_at_scale(capsys):
    """The formula route on the order-2048 C2wrC8 (permutation backing)
    and the order-65536 C2wrC8 x C8 x C4 (product backing), both far
    above the oracle's limit: the same jump exponents, t = 30, and the
    two series routes agree."""
    path = Path(__file__).parent / "data" / "scale.jsonl"
    rc = main(["scan", "--prime", "2", "--no-oracle", "--json",
               "--catalog", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    big = {r["name"]: r for r in payload["reports"]
           if r["name"].startswith("C2wrC8")}
    assert {name: r["order"] for name, r in big.items()} == \
        {"C2wrC8": 2048, "C2wrC8xC8xC4": 65536}
    for r in big.values():
        assert r["d_vector"] == {str(k): 1 for k in range(2, 9)}
        assert r["t_upper_jennings"] == 30
        assert r["series_orders"]["recursive"] == \
            [r["order"], 128, 64, 32, 16, 8, 4, 2, 1]
        assert r["checks"]["routes_agree"] is True


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
    assert by_key["2-checks"] == "skip"
    assert by_key["3-sharpness"] == "pass"
    assert by_key["6-negative-controls"] == "pass"


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


@pytest.mark.parametrize("argv, value", [
    (["analyze", "D8", "--prime", "2", "--cap"], "-1"),
    (["scan", "--prime", "2", "--cap"], "-1"),
    (["selftest", "--cap"], "-5"),
    (["scan", "--prime", "2", "--max-order"], "-1")])
def test_negative_cap_rejected(capsys, argv, value):
    """A negative --cap or --max-order (the last word of argv) is a
    usage error with one error line, not a silent "no oracle" or an
    empty scan; --cap 0 stays valid."""
    assert main(argv + [value]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {argv[-1]} must be >= 0, got {value}\n")
    if argv[0] == "analyze":
        assert main(argv + ["0", "--json"]) == 0
        assert not json.loads(capsys.readouterr().out)["oracle"]["ran"]


@pytest.mark.parametrize("command", ["analyze", "scan", "selftest"])
def test_every_option_explained(capsys, command):
    """Each command's --help explains every option and prints the
    default oracle cap."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    options = ["--catalog FILE", "--cap N", "--json"]
    if command != "selftest":
        options.append("--prime PRIME")
    for option in options:
        assert f"{option} " in text and f"{option} --" not in text, option
    assert f"(default {DEFAULT_ORACLE_CAP})" in text


def test_console_script_entry():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "lienilp.cli", "analyze", "Q8",
         "--prime", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_upper_jennings"] == 3


def test_closed_stdout_exits_without_traceback():
    """A reader that closes the pipe before any output arrives (as
    ``| head`` does once it has enough) ends the run with exit code 1
    and nothing on stderr.  The child is still importing when the pipe
    closes, so every write meets a closed pipe."""
    import subprocess
    import sys
    proc = subprocess.Popen(
        [sys.executable, "-m", "lienilp.cli", "analyze", "D8wrC2",
         "--prime", "2", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == 1
