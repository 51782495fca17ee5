"""Command-line behavior: exit codes, report shape, emitted files, fixtures."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

from msalg.corpus import corpus_algebra, corpus_names
import msalg.cli as cli
from msalg.cli import main
from msalg import clone
from msalg.clone import fragment_contains, generate_fragment
from msalg.fmt import parse_algebra
from msalg.core import Profile, build_algebra, term_str
from msalg.hetero import canonical_pair
from msalg.homog import homogenize
from msalg.lattice import PPFormula, inv_enumerate, pp_evaluate
from oracle_clone import fragment_tables

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(args))
    return rc, buf.getvalue()


def body_after_algebra_marker(out):
    head, sep, tail = out.partition("algebra:\n")
    assert sep, "no algebra block in output"
    return tail


def test_pure_reports_match_fixtures_byte_for_byte():
    for name in corpus_names():
        rc, out = run_cli(["pure", "@" + name, "--deterministic-timing"])
        with open(os.path.join(FIXTURES, "pure_%s.txt" % name)) as fh:
            assert out == fh.read(), name
        assert rc == (1 if name == "nonpure" else 0), name


# Fixture name -> command line, for the lattice commands whose reports are
# checked byte for byte on every corpus algebra.  inv-iso needs a pure
# algebra and exits 2 on nonpure, its report cut short.
LATTICE_FIXTURES = {"sub": ["sub"], "con": ["con"], "inv_mu2": ["inv", "--mu", "2"], "inv_iso": ["inv-iso"]}


def test_lattice_reports_match_fixtures_byte_for_byte():
    for key, args in LATTICE_FIXTURES.items():
        for name in corpus_names():
            rc, out = run_cli(args + ["@" + name, "--deterministic-timing"])
            with open(os.path.join(FIXTURES, "%s_%s.txt" % (key, name))) as fh:
                assert out == fh.read(), (key, name)
            assert rc == (2 if (key, name) == ("inv_iso", "nonpure") else 0), (key, name)


def test_pure_nonpure_lists_both_missing_sort_pairs():
    rc, out = run_cli(["pure", "@nonpure", "--deterministic-timing"])
    assert rc == 1
    assert "missing: a->b" in out
    assert "missing: b->a" in out


def test_homogenize_emits_a_parseable_single_sorted_file():
    rc, out = run_cli(["homogenize", "@a_tiny", "--deterministic-timing"])
    assert rc == 0
    assert "carrier: 6" in out
    alg = parse_algebra(body_after_algebra_marker(out))
    assert alg.is_single_sorted
    assert alg.carriers == (6,)
    names = [s.name for s in alg.signature.symbols]
    assert "diag" in names


def test_homogenize_out_flag_writes_the_file(tmp_path):
    target = str(tmp_path / "collapsed.alg")
    rc, out = run_cli(["homogenize", "@a_malcev", "--out", target])
    assert rc == 0
    assert "written: %s" % target in out
    with open(target) as fh:
        alg = parse_algebra(fh.read())
    assert alg.carriers == (6,)


def test_heterogenize_output_round_trips_through_the_parser():
    rc, out = run_cli(["heterogenize", "@a_tiny", "--deterministic-timing"])
    assert rc == 0
    alg = parse_algebra(body_after_algebra_marker(out))
    assert alg.carriers == (2, 3)


def test_reports_are_byte_identical_across_runs():
    for args in (["transfer", "@a_tiny", "--deterministic-timing"],
                 ["sub", "@a_malcev", "--deterministic-timing"],
                 ["diag-find", "@a_group", "--width", "1",
                  "--deterministic-timing"]):
        rc1, out1 = run_cli(args)
        rc2, out2 = run_cli(args)
        assert (rc1, out1) == (rc2, out2)


def named_pair_algebra(corrupt):
    """A single-sorted algebra carrying its own pair as named symbols.

    Starts from the collapse of a_tiny and appends d, e0, e1; with corrupt
    set, e1 becomes a rotation, which is not idempotent.
    """
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    ops = []
    for sym, tab in zip(h.algebra.signature.symbols, h.algebra.tables):
        ops.append((sym.name, ["x"] * sym.profile.arity, "x", list(tab.outputs)))
    ops.append(("d", ["x", "x"], "x", list(pair.d.outputs)))
    ops.append(("e0", ["x"], "x", list(pair.es[0].outputs)))
    e1 = list(pair.es[1].outputs)
    if corrupt:
        e1 = [(v + 1) % h.size for v in e1]
    ops.append(("e1", ["x"], "x", e1))
    return build_algebra([("x", h.size)], ops)


def test_diag_verify_accepts_a_named_pair(tmp_path):
    from msalg.fmt import save_algebra
    path = str(tmp_path / "named.alg")
    save_algebra(path, named_pair_algebra(corrupt=False))
    rc, out = run_cli(["diag-verify", path, "--d", "d", "--e", "e0,e1"])
    assert rc == 0
    assert "verdict: pass" in out


def test_diag_verify_rejects_a_corrupted_e(tmp_path):
    from msalg.fmt import save_algebra
    path = str(tmp_path / "broken.alg")
    save_algebra(path, named_pair_algebra(corrupt=True))
    rc, out = run_cli(["diag-verify", path, "--d", "d", "--e", "e0,e1"])
    assert rc == 1
    assert "FAIL" in out


def test_transfer_passes_when_closed_terms_fill_the_unreachable_sort(tmp_path):
    # no term w -> u, so the algebra is not pure, yet the constant fills w:
    # every closed family has w = {0}, and all 8 boxes are distinct
    from msalg.fmt import save_algebra
    path = str(tmp_path / "constant.alg")
    save_algebra(path, build_algebra([("u", 3), ("w", 1)], [("c", [], "w", [0])]))
    rc, out = run_cli(["transfer", path, "--deterministic-timing"])
    assert rc == 0, out
    assert "check sub-injective-iff-pure: pass (box map injective on 8 families, purity False)" in out


def test_transfer_passes_when_a_carrier_is_empty(tmp_path):
    # the empty product carrier has one congruence, the image of both
    # partitions of u, so the congruence map is onto but not injective
    from msalg.fmt import save_algebra
    path = str(tmp_path / "empty.alg")
    save_algebra(path, build_algebra([("u", 2), ("w", 0)], []))
    rc, out = run_cli(["transfer", path, "--deterministic-timing"])
    assert rc == 0, out
    assert "check con-product-bijection: pass (2 congruences, 1 on the product carrier)" in out


def test_files_without_sorts_exit_2(tmp_path, capsys):
    # zero sorts leave no product carrier to collapse onto, so the parser
    # refuses them before any command runs
    path = tmp_path / "nosorts.alg"
    path.write_text("msalg 1\nsorts 0\nsymbols 0\nend\n")
    for cmd in ("transfer", "jonsson", "inv-iso"):
        rc, out = run_cli([cmd, str(path)])
        assert rc == 2, (cmd, out)
        assert "verdict:" not in out
        assert "sort count must be at least 1" in capsys.readouterr().err, cmd


def test_transfer_passes_on_a_pure_algebra_with_constants(tmp_path):
    # closed terms take u to 1 and 2, so the collapse pads lift_f0 with 1;
    # the quotient by u-blocks {0,2},{1} sends 1 to block 1 and 2 to block
    # 0, so its own collapse would pad with 0, not with the image of 1
    from msalg.fmt import save_algebra
    path = str(tmp_path / "constants.alg")
    save_algebra(path, build_algebra([("u", 3), ("v", 1)],
                                     [("f0", [], "v", [0]), ("f1", [], "u", [1]),
                                      ("f2", ["v", "v"], "u", [2]), ("f3", ["v"], "u", [2])]))
    rc, out = run_cli(["transfer", path, "--deterministic-timing"])
    assert rc == 0, out
    assert "check quotient-compatible: pass (all 5 quotients match)" in out


INV_ISO_BINARY = """msalg 1
sorts 2
sort u 3
sort w 2
symbols 3
symbol cu 1 u -> w
symbol cw 1 w -> u
symbol f0 2 u u -> w
table cu 3
0 1 1
table cw 2
1 2
table f0 9
0 1 1
0 1 0
0 1 1
end
"""


def test_inv_iso_passes_on_a_binary_symbol_over_a_carrier_of_3(tmp_path):
    # the matrix route closes the many-sorted powers A and A^2 under cu, cw
    # and f0, 3 + 2 and 9 + 4 points; the source's fragment over two
    # variables per sort, which neither route builds, grows past 26000
    # tables per sort here
    path = tmp_path / "binary.alg"
    path.write_text(INV_ISO_BINARY)
    rc, out = run_cli(["inv-iso", str(path), "--deterministic-timing"])
    assert rc == 0, out
    assert "check reshape-bijection-mu1: pass (4 invariant sets as code tuples, 4 as matrices)" in out
    assert "check reshape-bijection-mu2: pass (44 invariant sets as code tuples, 44 as matrices)" in out


def test_the_parser_is_built_once_per_process(monkeypatch):
    builds = []
    build = cli._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    cli._parser.cache_clear()
    try:
        for args in (["pure", "@a_tiny"], ["sub", "@a_tiny"], ["pure", "@nonpure"]):
            run_cli(args + ["--deterministic-timing"])
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_the_shared_parser_keeps_no_state_between_calls():
    # quotient appends --pair; con without it must still enumerate, and
    # every rerun must print its command's first report byte for byte
    quotient = ["quotient", "@a_tiny", "--pair", "u", "0", "1", "--deterministic-timing"]
    con = ["con", "@a_tiny", "--deterministic-timing"]
    first = {}
    for args in (quotient, con, quotient, con):
        got = run_cli(args)
        assert got == first.setdefault(tuple(args), got), args
    assert "classes: u=[0,0] w=[0,0,1]" in first[tuple(quotient)][1]
    assert "count: 4" in first[tuple(con)][1]


def test_exit_2_on_unknown_corpus_name():
    rc, _out = run_cli(["pure", "@no_such_algebra"])
    assert rc == 2


def test_exit_2_on_missing_file():
    rc, _out = run_cli(["pure", "/nonexistent/path.alg"])
    assert rc == 2


def test_exit_2_on_malformed_profile():
    rc, _out = run_cli(["clone", "@a_tiny", "--profile", "zz"])
    assert rc == 2


def test_exit_2_when_quotient_lacks_pairs():
    rc, _out = run_cli(["quotient", "@a_tiny"])
    assert rc == 2


def test_exit_2_on_generator_outside_carrier():
    rc, _out = run_cli(["sub", "@a_tiny", "--gens", "u=7;w="])
    assert rc == 2


def test_exit_2_on_pair_outside_carrier():
    rc, _out = run_cli(["quotient", "@a_tiny", "--pair", "w", "0", "9"])
    assert rc == 2


def test_range_errors_exit_2_under_python_optimize():
    for args in (["sub", "@a_tiny", "--gens", "u=7;w="],
                 ["quotient", "@a_tiny", "--pair", "w", "0", "9"]):
        proc = subprocess.run([sys.executable, "-O", "-m", "msalg", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "outside carrier" in proc.stderr


def test_inv_arity_below_one_exits_2_with_and_without_optimize():
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "msalg", "inv", "@a_tiny", "--mu", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 2, (flags, proc.stderr)
        assert "at least 1" in proc.stderr
        assert "count:" not in proc.stdout


def test_inv_iso_arity_bound_below_one_exits_2_with_and_without_optimize():
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "msalg", "inv-iso", "@a_tiny", "--mu-max", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 2, (flags, proc.stderr)
        assert "at least 1" in proc.stderr
        assert "verdict:" not in proc.stdout


def test_negative_jonsson_bound_exits_2_with_and_without_optimize():
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "msalg", "jonsson", "@a_lattice",
                               "--jonsson-max", "-1"], capture_output=True, text=True)
        assert proc.returncode == 2, (flags, proc.stderr)
        assert "at least 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "absent" not in proc.stdout


def test_pp_usage_errors_exit_2():
    """Negative counts and out-of-range positions are usage errors; the
    python -O rerun runs this too, so no assert decides them."""
    for args in (["--mu", "-1", "--conjunct", "1:0:0"],
                 ["--mu", "2", "--nu", "-1", "--conjunct", "1:1:0"],
                 ["--mu", "2", "--nu", "-1", "--conjunct", "1:0:0"],
                 ["--mu", "1", "--conjunct", "2:0:0,5"]):
        rc, out = run_cli(["pp", "@a_group", *args])
        assert rc == 2, args
        assert "result:" not in out


def test_exit_2_on_budget_exhaustion():
    rc, _out = run_cli(["clone", "@a_malcev", "--profile", "u,u->u",
                        "--table-budget", "3"])
    assert rc == 2


def test_pure_exits_2_when_a_fragment_exceeds_the_table_budget():
    for name in ("a_malcev", "a_tiny"):
        rc, out = run_cli(["pure", "@" + name, "--table-budget", "0"])
        assert rc == 2, name
        assert "verdict:" not in out
    # nonpure has no operations, so no table is ever added past the
    # projections: still a property failure, not a budget error
    rc, out = run_cli(["pure", "@nonpure", "--table-budget", "0"])
    assert rc == 1
    assert "missing: a->b" in out


def test_clone_tables_report_the_witness_of_each_table():
    """--tables prints each table with its aligned witness: the report is
    the one a per-table fragment_contains lookup gives."""
    alg = corpus_algebra("a_malcev")
    text = "u,w,w->w"
    frag = generate_fragment(alg, [(0, 1, 1)])
    tables = fragment_tables(frag, Profile((0, 1, 1), 1))
    lines = ["profile %s: %d tables" % (text, len(tables))]
    for i, t in enumerate(tables):
        found, term = fragment_contains(frag, t)
        assert found
        lines.append("table %s #%d: %s" % (text, i, " ".join(map(str, t.outputs))))
        lines.append("term %s #%d: %s" % (text, i, term_str(term)))
    rc, out = run_cli(["clone", "@a_malcev", "--profile", text, "--tables", "--deterministic-timing"])
    assert rc == 0 and len(tables) > 1
    assert "\n".join(lines) + "\n" in out
    assert out.count("term %s #" % text) == len(tables)


def test_malcev_absence_exits_1():
    rc, out = run_cli(["malcev", "@a_semilat", "--mode", "per_sort"])
    assert rc == 1
    assert "per-sort: absent" in out


def test_jonsson_cli_verdicts():
    rc, out = run_cli(["jonsson", "@a_malcev", "--mode", "per_sort"])
    assert rc == 1
    assert "absent up to n=4" in out
    rc, out = run_cli(["jonsson", "@a_lattice", "--mode", "both"])
    assert rc == 0
    assert "per-sort: found n=1" in out
    assert "homogenized: found n=1" in out


def test_cp_and_cd_on_the_collapsed_semilattices():
    rc, out = run_cli(["cp", "@a_semilat", "--homogenize"])
    assert rc == 1
    assert "permutes: no" in out
    assert "witness" in out
    rc, out = run_cli(["cd", "@a_semilat", "--homogenize"])
    assert rc == 0
    assert "distributes: yes" in out


ROUNDTRIP_MU_HEAD = """max-arity: 6
table-budget: 2000000
jonsson-max: 4
mu-max: 2
lam: %d
"""
ROUNDTRIP_MU_PASS = """check pure: pass
check canonical-pair: pass
check sort-sizes: pass (split carriers (2, 3) vs source (2, 3))
check mu-bijective: pass
check ops-transport: pass
check fragments-match: pass
verdict: pass
elapsed-s: 0.000
"""


def test_roundtrip_mu_reports_byte_for_byte():
    cases = [
        (["@a_malcev"], 0, ROUNDTRIP_MU_HEAD % 2 + ROUNDTRIP_MU_PASS),
        (["@nonpure"], 1, ROUNDTRIP_MU_HEAD % 2 + "check pure: FAIL (no canonical pair without purity)\n"
                                                  "verdict: fail\nelapsed-s: 0.000\n"),
        (["@a_tiny", "--lam", "3"], 0, ROUNDTRIP_MU_HEAD % 3 + ROUNDTRIP_MU_PASS),
        # lam is checked only after purity, so this still fails on it
        (["@nonpure", "--lam", "7"], 1, ROUNDTRIP_MU_HEAD % 7 + "check pure: FAIL (no canonical pair without purity)\n"
                                                             "verdict: fail\nelapsed-s: 0.000\n"),
    ]
    for args, code, body in cases:
        args = ["roundtrip-mu", *args, "--deterministic-timing"]
        rc, out = run_cli(args)
        assert (rc, out) == (code, "command: msalg %s\n" % " ".join(args) + body), args


def spy_closures(monkeypatch):
    """The input profiles clone._closure_full is called with."""
    calls = []
    real = clone._closure_full

    def spy(alg, inputs, budget):
        calls.append(inputs)
        return real(alg, inputs, budget)

    monkeypatch.setattr(clone, "_closure_full", spy)
    return calls


def test_roundtrip_mu_compares_profiles_up_to_lam(capsys, monkeypatch):
    # lam 7 asks for profiles of 7 arguments, over the arity bound 6; lam 40
    # would list 2 + 2^2 + ... + 2^40 of them.  Either is rejected once the
    # codings are known, after only the unary fragments
    calls = spy_closures(monkeypatch)
    for lam in ["7", "40"]:
        rc = main(["roundtrip-mu", "@a_tiny", "--lam", lam])
        assert rc == 2
        assert ("requested input profile (0, 0, 0, 0, 0, 0, 0) has arity 7, above the bound 6"
                in capsys.readouterr().err)
    assert calls and all(len(inputs) <= 1 for inputs in calls)


# sorts u = 3, w = 2: the collapse has 86048 binary term operations, so
# generating the source's binary fragment trips a budget of 1000, while the
# split's 170 table entries and the 6-element unary fragment fit
SCALE = build_algebra([("u", 3), ("w", 2)], [
    ("cu", ["u"], "w", [0, 1, 0]), ("cw", ["w"], "u", [1, 2]),
    ("f0", ["u", "w"], "u", [0, 1, 1, 0, 2, 1]), ("f1", ["w", "w"], "u", [0, 0, 1, 1])])


def test_a_certified_roundtrip_nu_needs_no_binary_source_fragment(tmp_path, monkeypatch):
    from msalg.fmt import save_algebra
    path = str(tmp_path / "scale.alg")
    save_algebra(path, SCALE)
    calls = spy_closures(monkeypatch)
    rc, out = run_cli(["roundtrip-nu", path, "--table-budget", "1000", "--deterministic-timing"])
    assert rc == 0, out
    assert "check fragments-match: pass\n" in out
    assert (0, 0) not in calls


DECOMPOSE = """command: msalg %s
max-arity: 6
table-budget: %d
jonsson-max: 4
mu-max: 2
lam: %d
check phi-injective: pass (%d tables, %d images)
check phi-image-equals-generated: pass (image %d vs generated %d)
check phi-image-equals-classes: pass (image %d vs classes %d)
check composition-compatible: pass
check element-bijection: pass (carrier %d, product %d, distinct %d)
check product-pair: pass
verdict: pass
elapsed-s: 0.000
"""


def decompose_report(args, budget, lam, tables, carrier):
    return DECOMPOSE % ((" ".join(args), budget, lam) + (tables,) * 6 + (carrier,) * 3)


def test_decompose_scale_at_lam_2_reports_every_check(tmp_path):
    # 86048 binary tables on a carrier of 6: the composition law is
    # certified by the element bijection, not checked table by table
    from msalg.fmt import save_algebra
    path = str(tmp_path / "scale.alg")
    save_algebra(path, SCALE)
    args = ["decompose", path, "--lam", "2", "--deterministic-timing"]
    assert run_cli(args) == (0, decompose_report(args, 2_000_000, 2, 86048, 6))


# sorts u, w of 2 with a constant k: the collapse has 4 closed terms and
# 36 unary term operations
CONSTANTS = build_algebra([("u", 2), ("w", 2)], [("cu", ["u"], "w", [1, 0]), ("cw", ["w"], "u", [0, 1]),
                                                 ("k", [], "u", [1])])


def test_decompose_at_lam_0_generates_only_the_closed_terms(tmp_path, capsys):
    # a table budget of 4 holds the 4 closed terms, though not the 36
    # unary tables, so lam 0 passes; a budget of 3 trips on the closed terms
    from msalg.fmt import save_algebra
    path = str(tmp_path / "constants.alg")
    save_algebra(path, CONSTANTS)
    args = ["decompose", path, "--lam", "0", "--table-budget", "4", "--deterministic-timing"]
    assert run_cli(args) == (0, decompose_report(args, 4, 0, 4, 4))
    assert main(["decompose", path, "--lam", "0", "--table-budget", "3"]) == 2
    assert capsys.readouterr().err == "error: fragment for cod sort 0 exceeds the table budget 3\n"


ROUNDTRIP_NU = ROUNDTRIP_MU_HEAD + """psi: %s
check element-bijection: pass (source %d, collapsed %d, distinct %d)
check fragments-match: pass
check pair-transport: pass
verdict: pass
elapsed-s: 0.000
"""


def test_roundtrip_nu_reports_byte_for_byte():
    six, four = "0 1 2 3 4 5", "0 1 2 3"
    cases = [
        (["@a_tiny"], ROUNDTRIP_NU % (2, six, 6, 6, 6)),
        (["@a_malcev", "--lam", "2"], ROUNDTRIP_NU % (2, six, 6, 6, 6)),
        (["@a_malcev", "--lam", "3"], ROUNDTRIP_NU % (3, six, 6, 6, 6)),
        (["@a_lattice"], ROUNDTRIP_NU % (2, four, 4, 4, 4)),
    ]
    for args, body in cases:
        args = ["roundtrip-nu", *args, "--deterministic-timing"]
        rc, out = run_cli(args)
        assert (rc, out) == (0, "command: msalg %s\n" % " ".join(args) + body), args


def test_roundtrip_nu_compares_arities_up_to_lam(capsys, monkeypatch):
    # lam 7 asks for the 7-ary fragment, over the arity bound 6; it is
    # rejected before any fragment is generated
    calls = spy_closures(monkeypatch)
    rc = main(["roundtrip-nu", "@a_tiny", "--lam", "7"])
    assert rc == 2
    assert ("requested input profile (0, 0, 0, 0, 0, 0, 0) has arity 7, above the bound 6"
            in capsys.readouterr().err)
    assert calls == []


def test_negative_lam_and_width_are_usage_errors(capsys, monkeypatch):
    """Each is rejected, naming the value, before any fragment is
    generated; lam 0 and width 0 are still accepted."""
    calls = spy_closures(monkeypatch)
    for args, message in [
        (["decompose", "@a_tiny", "--lam", "-1"], "lam must be at least 0, got -1"),
        (["roundtrip-mu", "@a_tiny", "--lam", "-1"], "lam must be at least 0, got -1"),
        (["roundtrip-nu", "@a_tiny", "--lam", "-1"], "lam must be at least 0, got -1"),
        (["roundtrip-nu", "@a_group", "--width", "1", "--lam", "-2"], "lam must be at least 0, got -2"),
        (["diag-find", "@a_group", "--width", "-1"], "pair width must be at least 0, got -1"),
        (["decompose", "@a_group", "--width", "-3"], "pair width must be at least 0, got -3"),
    ]:
        assert main(args) == 2, args
        assert capsys.readouterr().err == "error: %s\n" % message, args
        assert calls == [], args
    for args in (["decompose", "@a_tiny", "--lam", "0"], ["roundtrip-mu", "@a_tiny", "--lam", "0"],
                 ["roundtrip-nu", "@a_tiny", "--lam", "0"], ["diag-find", "@a_group", "--width", "0"]):
        assert main(args) in (0, 1), args
        assert capsys.readouterr().err == "", args


def test_sub_with_generators():
    rc, out = run_cli(["sub", "@a_tiny", "--gens", "u=1;w="])
    assert rc == 0
    assert "family: u={1} w={1}" in out


def test_con_enumeration_count():
    rc, out = run_cli(["con", "@a_tiny"])
    assert rc == 0
    assert "count: 4" in out


def test_inv_count_matches_the_library():
    rels = inv_enumerate(corpus_algebra("a_tiny"), 1)
    rc, out = run_cli(["inv", "@a_tiny", "--mu", "1"])
    assert rc == 0
    assert "count: %d" % len(rels) in out


def test_pp_composition_through_the_cli():
    rels = inv_enumerate(corpus_algebra("a_group"), 2)
    successor = frozenset({(0, 1), (1, 2), (2, 0)})
    k = next(i for i, r in enumerate(rels) if r.tuples == successor)
    rc, out = run_cli(["pp", "@a_group", "--mu", "2", "--nu", "1",
                       "--conjunct", "2:%d:0,2" % k,
                       "--conjunct", "2:%d:2,1" % k])
    assert rc == 0
    assert "result: (0,2) (1,0) (2,1)" in out


def test_pp_enumerates_each_arity_once(monkeypatch):
    calls = []

    def counted(alg, mu, **kw):
        calls.append((mu, inv_enumerate(alg, mu, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "inv_enumerate", counted)
    rc, out = run_cli(["pp", "@a_tiny", "--mu", "2", "--conjunct", "2:3:0,1", "--conjunct", "2:5:1,0",
                       "--conjunct", "2:7:0,0", "--conjunct", "1:1:1", "--conjunct", "2:3:1,1"])
    assert rc == 0
    assert [mu for mu, _ in calls] == [2, 1]
    rels = [calls[0][1][i] for i in (3, 5, 7)] + [calls[1][1][1]]
    result = pp_evaluate(rels, PPFormula(2, 0, ((0, (0, 1)), (1, (1, 0)), (2, (0, 0)), (3, (1,)), (0, (1, 1)))), 6)
    lines = out.splitlines()
    assert ["relation %d: %s" % (i, cli._fmt_tuples(r.tuples)) for i, r in enumerate(rels)] \
        == [line for line in lines if line.startswith("relation ")]
    assert "result: %s" % cli._fmt_tuples(result.tuples) in lines


def test_quotient_output_parses_and_shrinks():
    rc, out = run_cli(["quotient", "@a_tiny", "--pair", "w", "0", "1"])
    assert rc == 0
    alg = parse_algebra(body_after_algebra_marker(out))
    assert alg.carriers == (1, 2)


def test_product_of_two_factors():
    rc, out = run_cli(["product", "@a_tiny", "@a_tiny"])
    assert rc == 0
    assert "carriers: 4 9" in out


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "msalg", "pure", "@a_tiny",
         "--deterministic-timing"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pure: yes" in proc.stdout


def test_no_transport_command_or_criterion_imports_numpy_ma():
    """np.unique without return_index imports numpy.ma in numpy 2.4, about
    10 ms in a fresh process; core.distinct_rows avoids it.  decompose,
    roundtrip-mu and criteria 1-6 run without loading it."""
    code = """if True:
        import contextlib, io, sys
        from msalg import suite
        from msalg.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["decompose", "@a_tiny", "--lam", "1"]), main(["roundtrip-mu", "@a_tiny"])]
            oks = [fn()[0] for index, _name, fn in suite.CRITERIA if index <= 6]
        print(codes, oks, "numpy.ma" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "[0, 0] [True, True, True, True, True, True] False\n", proc.stderr
