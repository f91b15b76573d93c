import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from glaw import assemble_nontransitive, cli, exactla, gen_symplectic, gen_with_trivial_summand, liecore
from helpers import generator_triplets

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str, stdin: str | None = None, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "glaw", *args],
        cwd=ROOT,
        env={**os.environ, **env} if env else None,
        input=stdin,
        text=True,
        capture_output=True,
        check=False,
    )


def gen_g2_spec() -> str:
    proc = run_cli("gen", "sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "g2")
    assert proc.returncode == 0
    return proc.stdout


def strip_timings(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


def test_generated_spec_validates_with_exit_zero(tmp_path):
    spec = tmp_path / "g2.json"
    spec.write_text(gen_g2_spec(), encoding="utf-8")
    proc = run_cli("validate", str(spec))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True and payload["violations"] == []


def test_invariant_violation_exits_one(tmp_path):
    obj = json.loads(gen_g2_spec())
    obj["B0"][0][1] = "5"  # break symmetry
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    proc = run_cli("validate", str(spec))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert any("symmetric" in v for v in payload["violations"])


def test_malformed_rational_exits_two(tmp_path):
    obj = json.loads(gen_g2_spec())
    obj["B0"][0][0] = "1/0"
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    proc = run_cli("validate", str(spec))
    assert proc.returncode == 2
    assert "malformed rational" in proc.stderr


def test_invalid_json_exits_two(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json", encoding="utf-8")
    assert run_cli("validate", str(spec)).returncode == 2


def test_grow_pipeline_reports_expected_dims():
    proc = run_cli("grow", "-", "--max-degree", "4", stdin=gen_g2_spec())
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dims"] == {"pos": [4, 1, 0], "neg": [4, 1, 0]}
    assert payload["terminated"] == {"pos": True, "neg": True}
    assert payload["pairing_ranks"] == [4, 1]


def test_dims_thin_variant():
    proc = run_cli("dims", "-", "--max-degree", "3", "--side", "pos", stdin=gen_g2_spec())
    payload = json.loads(proc.stdout)
    assert payload["command"] == "dims"
    assert payload["dims"] == {"pos": [4, 1, 0]}
    assert "pairing_ranks" not in payload


def test_block_family_growth_not_terminated():
    gen = run_cli("gen", "glblock", "--n", "2", "--lambda1", "1", "--lambda2", "2")
    proc = run_cli("grow", "-", "--max-degree", "3", stdin=gen.stdout)
    payload = json.loads(proc.stdout)
    assert payload["terminated"] == {"pos": False, "neg": False}
    assert payload["dims"]["pos"][1] > 0


def test_non_transitive_grow_exits_three():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "1", "--lambda", "1", "--form", "trace")
    summand = run_cli("gen", "trivial-summand", "-", "--k", "1", stdin=gen.stdout)
    assert summand.returncode == 0
    proc = run_cli("grow", "-", "--max-degree", "2", stdin=summand.stdout)
    assert proc.returncode == 3
    assert "reduce" in proc.stderr


def test_reduce_command_round_trip():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "1", "--lambda", "1", "--form", "trace")
    summand = run_cli("gen", "trivial-summand", "-", "--k", "1", stdin=gen.stdout)
    proc = run_cli("reduce", "-", stdin=summand.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["v0_dim"] == 1 and payload["kernel_dim"] == 0
    inner = payload["transitive_part"]
    assert inner["dim_V"] == 2 and inner["dim_g0"] == 4


def test_pn_check_command():
    proc = run_cli("pn-check", "-", "--n", "3", stdin=gen_g2_spec())
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["holds"] is True and payload["witness"] is None
    proc = run_cli("pn-check", "-", "--n", "2", stdin=gen_g2_spec())
    payload = json.loads(proc.stdout)
    assert payload["holds"] is False
    assert payload["witness"]["v_indices"] is not None


@pytest.mark.parametrize("n", ["1", "6"])
def test_pn_check_outside_its_degree_range_is_a_precondition_refusal(n):
    proc = run_cli("pn-check", "-", "--n", n, stdin=gen_g2_spec())
    assert proc.returncode == 3 and proc.stdout == ""
    error = {"error": "the identity check is supported for 2 <= n <= 5", "kind": "precondition"}
    assert json.loads(proc.stderr) == error


def test_sl2_command_with_polynomial():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2", "--form", "trace")
    proc = run_cli("sl2", "-", "--poly", "x0^2+x1^2", stdin=gen.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["property_P"] is True
    assert payload["certificate"]["residuals_zero"] is True
    assert payload["certificate"]["y"] == ["-1/2", "0", "-1/2"]


@pytest.mark.parametrize("poly", ["x0^2--x1^2", "x0^2+x1^2+", "+", "-"])
def test_sl2_polynomial_with_a_stray_sign_is_a_parse_error(poly):
    # each sign was dropped: "x0^2--x1^2" was certified as x0^2 - x1^2, "+" and "-" read as zero
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2", "--form", "trace")
    proc = run_cli("sl2", "-", "--poly", poly, stdin=gen.stdout)
    assert_parse_error(proc)
    assert proc.stdout == "" and "malformed polynomial" in proc.stderr


def test_sl2_command_rejects_degree_one_candidates():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "1", "--lambda", "3", "--form", "sl-shifted")
    proc = run_cli("sl2", "-", "--x-vector", "1,0", stdin=gen.stdout)
    assert proc.returncode == 3


def test_centralizer_command():
    gen = run_cli("gen", "sp", "--n", "3", "--p", "2", "--lambda", "2", "--form", "trace")
    proc = run_cli("centralizer", "-", "--sub", "o(3)", "--max-degree", "1", stdin=gen.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dims"] == {"-1": 1, "0": 1, "1": 1}


def test_assemble_command():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2", "--form", "trace")
    proc = run_cli("assemble", "-", "--max-degree", "3", stdin=gen.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 10
    assert payload["killing_rank"] == 10
    assert payload["center_dim"] == 0


def test_assemble_refuses_unterminated_tower():
    gen = run_cli("gen", "glblock", "--n", "2", "--lambda1", "1", "--lambda2", "2")
    proc = run_cli("assemble", "-", "--max-degree", "3", stdin=gen.stdout)
    assert proc.returncode == 3


def test_cartan_generator_pipeline():
    gen = run_cli("gen", "cartan", "--matrix", "2,-1;-2,2")
    proc = run_cli("dims", "-", "--max-degree", "4", "--side", "pos", stdin=gen.stdout)
    payload = json.loads(proc.stdout)
    assert payload["dims"]["pos"] == [2, 1, 1, 0]


def test_reports_are_deterministic_modulo_timings(tmp_path):
    spec = tmp_path / "g2.json"
    spec.write_text(gen_g2_spec(), encoding="utf-8")
    a = json.loads(run_cli("grow", str(spec), "--max-degree", "3").stdout)
    b = json.loads(run_cli("grow", str(spec), "--max-degree", "3").stdout)
    assert json.dumps(strip_timings(a), sort_keys=True) == json.dumps(strip_timings(b), sort_keys=True)


def test_schema_round_trip_is_identity():
    spec = gen_g2_spec()
    from glaw.cli import canonical_json, emit_triplet_spec, parse_triplet_spec

    obj = json.loads(spec)
    t, name, meta = parse_triplet_spec(obj)
    again = emit_triplet_spec(t, name, meta)
    assert canonical_json(again) == canonical_json(obj)
    t2, name2, meta2 = parse_triplet_spec(again)
    assert name2 == name and meta2 == meta
    assert t2.g0.structure == t.g0.structure
    assert t2.b0.gram.entries == t.b0.gram.entries
    assert all(a.entries == b.entries for a, b in zip(t2.rho.action, t.rho.action))


def test_triplet_hash_is_content_based(tmp_path):
    from glaw.cli import parse_triplet_spec, triplet_hash

    obj = json.loads(gen_g2_spec())
    t1, _, _ = parse_triplet_spec(obj)
    obj2 = dict(obj)
    obj2["name"] = "renamed"
    t2, _, _ = parse_triplet_spec(obj2)
    assert triplet_hash(t1) == triplet_hash(t2)


def _negated(terms):
    return [[k, str(-Fraction(c))] for k, c in terms]


# each rewrites the canonical i < j entries of a spec into an equivalent list
EQUIVALENT_ENTRIES = {
    "reversed": lambda sc: [[j, i, _negated(terms)] for i, j, terms in sc],
    "repeated": lambda sc: [[i, j, [[k, str(Fraction(c) / 2)]]] for i, j, terms in sc for k, c in terms for _ in (0, 1)],
    "unsorted-terms": lambda sc: [[i, j, terms[::-1]] for i, j, terms in sc],
    "cancelling": lambda sc: sc
    + [[0, 1, [[2, "1"], [3, "1/2"]]], [1, 0, [[2, "1"]]], [0, 1, [[3, "-1/2"]]], [0, 3, [[1, "5"]]], [3, 0, [[1, "5"]]]],
}


@pytest.mark.parametrize("variant", list(EQUIVALENT_ENTRIES))
def test_equivalent_structure_entries_parse_to_the_canonical_spec(variant):
    # gl(2) on coordinates: [E01, E10] = E00 - E11 is an entry with two terms
    canonical = cli.emit_triplet_spec(gen_symplectic(2, 1, 1), "gl2")
    obj = dict(canonical, structure_constants=EQUIVALENT_ENTRIES[variant](canonical["structure_constants"]))
    assert obj["structure_constants"] != canonical["structure_constants"]
    t, name, meta = cli.parse_triplet_spec(obj)
    assert cli.triplet_hash(t) == cli.triplet_hash(cli.parse_triplet_spec(canonical)[0])
    assert cli.canonical_json(cli.emit_triplet_spec(t, name, meta)) == cli.canonical_json(canonical)


def test_parsing_takes_memory_bounded_by_the_spec_entries():
    # one structure entry in dim_g0 = 100: a dense dim_g0^3 table would be 10^6 cells
    n = 100
    obj = {
        "dim_g0": n,
        "dim_V": 1,
        "B0": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        "rho": [[["0"]] for _ in range(n)],
        "structure_constants": [[0, 1, [[2, "1"]]]],
    }
    tracemalloc.start()
    try:
        cli.parse_triplet_spec(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@settings(max_examples=30, deadline=None)
@given(generator_triplets())
def test_emitted_specs_parse_back_to_the_same_triplet(t):
    again, _, _ = cli.parse_triplet_spec(json.loads(cli.canonical_json(cli.emit_triplet_spec(t, "x"))))
    assert cli.triplet_hash(again) == cli.triplet_hash(t)
    assert again.g0.structure_pairs == t.g0.structure_pairs


def test_degree_cap_env_var(tmp_path):
    import os
    import subprocess as sp

    gen = run_cli("gen", "glblock", "--n", "2", "--lambda1", "1", "--lambda2", "2")
    env = dict(os.environ, GLAW_MAX_DEGREE="2")
    proc = sp.run(
        [sys.executable, "-m", "glaw", "dims", "-", "--max-degree", "4", "--side", "pos"],
        cwd=ROOT,
        input=gen.stdout,
        text=True,
        capture_output=True,
        env=env,
    )
    payload = json.loads(proc.stdout)
    assert payload["max_degree"] == 2
    assert len(payload["dims"]["pos"]) == 2


def test_out_of_range_indices_exit_two(tmp_path):
    obj = json.loads(gen_g2_spec())
    obj["structure_constants"][0][0] = 99
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    assert run_cli("validate", str(spec)).returncode == 2


# golden file -> (`glaw gen` argv, report argv on the generated spec)
GOLDEN_REPORTS = {
    "a2_grow": (("cartan", "--matrix", "2,-1;-1,2"), ("grow", "-", "--max-degree", "3")),
    "g2_cubic_assemble_full": (
        ("sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "g2"),
        ("assemble", "-", "--max-degree", "4", "--full"),
    ),
    "g2_cartan_assemble_full": (
        ("cartan", "--matrix", "2,-1;-3,2"),
        ("assemble", "-", "--max-degree", "6", "--full"),
    ),
    "sym_square_3_centralizer": (
        ("sp", "--n", "3", "--p", "2", "--lambda", "2"),
        ("centralizer", "-", "--sub", "o(3)", "--max-degree", "2"),
    ),
    "glblock_2_pn_check": (
        ("glblock", "--n", "2", "--lambda1", "1", "--lambda2", "2"),
        ("pn-check", "-", "--n", "3"),
    ),
    "a4_pn_check_n4": (
        ("cartan", "--matrix", "2,-1,0,0;-1,2,-1,0;0,-1,2,-1;0,0,-1,2"),
        ("pn-check", "-", "--n", "4"),
    ),
    "sym_square_3_pn_check_n3": (
        ("sp", "--n", "3", "--p", "2", "--lambda", "2"),
        ("pn-check", "-", "--n", "3"),
    ),
    "glblock_3_grow_both": (
        ("glblock", "--n", "3", "--lambda1", "1", "--lambda2", "2"),
        ("grow", "-", "--side", "both", "--max-degree", "3"),
    ),
}


@pytest.mark.parametrize("golden_name", list(GOLDEN_REPORTS))
def test_grow_report_matches_golden_file(golden_name):
    gen_args, report_args = GOLDEN_REPORTS[golden_name]
    gen = run_cli("gen", *gen_args)
    proc = run_cli(*report_args, stdin=gen.stdout)
    assert proc.returncode == 0, proc.stderr
    payload = strip_timings(json.loads(proc.stdout))
    got = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    golden = (Path(__file__).parent / "golden" / f"{golden_name}.json").read_text(encoding="utf-8")
    assert got == golden


E6_CARTAN = "2,-1,0,0,0,0;-1,2,-1,0,0,0;0,-1,2,-1,0,-1;0,0,-1,2,-1,0;0,0,0,-1,2,0;0,0,-1,0,0,2"


def test_e6_assemble_full_report_matches_recorded_digest():
    # the largest table built from (k, coefficient) pairs; its report is kept as a sha256 only
    gen = run_cli("gen", "cartan", "--matrix", E6_CARTAN)
    proc = run_cli("assemble", "-", "--max-degree", "12", "--full", stdin=gen.stdout, env={"GLAW_MAX_DEGREE": "12"})
    assert proc.returncode == 0, proc.stderr
    payload = strip_timings(json.loads(proc.stdout))
    assert payload["dim"] == 78 and payload["killing_rank"] == 78 and payload["center_dim"] == 0
    got = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    digest = (Path(__file__).parent / "golden" / "e6_assemble_full.sha256").read_text(encoding="utf-8").strip()
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def count_calls(monkeypatch, *fns) -> Counter:
    """Count the calls of each function by (name, dim of the algebra it is given, None for a matrix), under every
    name a glaw module binds it to."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name == "glaw" or name.startswith("glaw.")]
    for fn in fns:
        def counted(x, *args, fn=fn):
            calls[fn.__name__, getattr(x, "dim", None)] += 1
            return fn(x, *args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_assemble_reads_the_killing_rank_and_center_off_one_sparse_elimination(monkeypatch):
    # a count guard, no timing: the Killing rows go through no dense matrix, a zero Killing radical proves
    # the assembled center zero, and the transitivity check reads the two span conditions, not g0's center
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    calls = count_calls(monkeypatch, liecore.center, exactla.rref, liecore.killing_form, liecore.grading_element)
    monkeypatch.setenv("GLAW_MAX_DEGREE", "12")
    for name, gen_args, degree in (
        ("assemble-e6", ["cartan", "--matrix", E6_CARTAN], "12"),
        ("assemble-g2-cubic", ["sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "g2"], "4"),
    ):
        code, spec, _ = run_main(["gen", *gen_args])
        assert code == 0
        calls.clear()
        code, out, err = run_main(["assemble", "-", "--max-degree", degree], stdin=spec)
        assert code == 0, err
        assert calls == {}, name
        got = json.dumps(strip_timings(json.loads(out)), sort_keys=True, separators=(",", ":")) + "\n"
        assert hashlib.sha256(got.encode()).hexdigest() == digests[name]
    # g2 cubic plus a two-dimensional trivial summand: a degenerate Killing form, so the center is sought once
    algebra = assemble_nontransitive(gen_with_trivial_summand(gen_symplectic(2, 3, 1, "g2"), 2), 4).algebra
    calls.clear()
    assert liecore.killing_rank_and_center_dim(algebra) == (14, 4)
    assert calls == {("center", 18): 1}


def test_one_sl2_command_derives_g0_twice_and_solves_twice(monkeypatch):
    # a count guard, no timing: assumption (H) and the completion each take the derived algebra once, and the
    # completion's covector solve is the one decision of property (P). Two derived algebras is today's count, not
    # a target: complete_triple could reuse the basis assumption_h_check already derived
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    code, spec, _ = run_main(["gen", "sp", "--n", "3", "--p", "2", "--lambda", "2"])
    assert code == 0
    calls = count_calls(monkeypatch, liecore.derived_subalgebra, exactla.solve_pairs)
    code, out, err = run_main(["sl2", "-", "--poly", "x0^2+x1^2+x2^2"], stdin=spec)
    assert code == 0, err
    assert calls == {("derived_subalgebra", 9): 2, ("solve_pairs", None): 2}
    got = json.dumps(strip_timings(json.loads(out)), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(got.encode()).hexdigest() == digests["sl2-sym-square-3"]


def test_centralizer_of_the_zero_subalgebra_is_everything():
    # o(1) has no basis vectors, so every degree is its own centralizer
    gen = run_cli("gen", "sp", "--n", "1", "--p", "2", "--lambda", "2")
    proc = run_cli("centralizer", "-", "--sub", "o(1)", "--max-degree", "1", stdin=gen.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sub_dim"] == 0
    assert payload["dims"] == {"-1": 1, "0": 1, "1": 1}


def assert_parse_error(proc: subprocess.CompletedProcess):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["kind"] == "parse"


def test_non_integer_degree_cap_is_a_parse_error(tmp_path):
    spec = tmp_path / "g2.json"
    spec.write_text(gen_g2_spec(), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "glaw", "grow", str(spec)],
        cwd=ROOT,
        text=True,
        capture_output=True,
        env=dict(os.environ, GLAW_MAX_DEGREE="abc"),
    )
    assert_parse_error(proc)
    assert "GLAW_MAX_DEGREE" in proc.stderr


def test_scalar_b0_rows_are_a_parse_error():
    obj = json.loads(gen_g2_spec())
    obj["B0"] = [1] * obj["dim_g0"]
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_non_list_structure_constants_are_a_parse_error():
    obj = json.loads(gen_g2_spec())
    obj["structure_constants"] = 5
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_string_rho_rows_are_a_parse_error():
    # "10" has length dim_V = 2; it must not be read digit by digit as a row.
    obj = {"name": "", "dim_g0": 1, "dim_V": 2, "B0": [["1"]], "rho": [["10", "01"]], "structure_constants": []}
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_string_structure_terms_are_a_parse_error():
    # The term "11" must not be read as (k=1, coeff=1).
    obj = json.loads(gen_g2_spec())
    obj["structure_constants"].append([0, 1, ["11"]])
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_overflowing_dimension_is_a_parse_error():
    # JSON reads 1e400 as a float infinity, which int() cannot convert
    text = '{"dim_g0": 1e400, "dim_V": 1, "B0": [["1"]], "rho": [[["0"]]], "structure_constants": []}'
    assert_parse_error(run_cli("validate", "-", stdin=text))


def test_fractional_dimension_is_a_parse_error():
    obj = json.loads(gen_g2_spec())
    obj["dim_V"] = obj["dim_V"] + 0.5
    proc = run_cli("validate", "-", stdin=json.dumps(obj))
    assert_parse_error(proc)
    assert "dim_V" in proc.stderr


def test_boolean_structure_index_is_a_parse_error():
    obj = json.loads(gen_g2_spec())
    i, j, terms = obj["structure_constants"][0]
    assert j == 1
    obj["structure_constants"][0] = [i, True, terms]
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_structure_entry_bracketing_an_element_with_itself_is_a_parse_error():
    obj = json.loads(gen_g2_spec())
    obj["structure_constants"].append([0, 0, [[0, "1"]]])
    assert_parse_error(run_cli("validate", "-", stdin=json.dumps(obj)))


def test_shapes_are_checked_before_the_structure_table_is_allocated():
    # a dim_g0^3 table for this header would not fit in memory; the 1x1 B0 is refused first
    obj = {"dim_g0": 10**12, "dim_V": 1, "B0": [["1"]], "rho": [[["0"]]], "structure_constants": []}
    proc = run_cli("validate", "-", stdin=json.dumps(obj))
    assert_parse_error(proc)
    assert "B0" in proc.stderr


@pytest.mark.parametrize("where", ["missing", "directory", "missing-subalgebra-file"])
def test_unreadable_paths_are_a_parse_error(tmp_path, where):
    if where == "missing-subalgebra-file":
        spec = tmp_path / "g2.json"
        spec.write_text(gen_g2_spec(), encoding="utf-8")
        proc = run_cli("centralizer", str(spec), "--sub", f"file:{tmp_path / 'absent.json'}", "--max-degree", "1")
    else:
        proc = run_cli("validate", str(tmp_path / "absent.json" if where == "missing" else tmp_path))
    assert_parse_error(proc)


@pytest.mark.parametrize(
    "content",
    ["5", "[1]", '[["1"]]', '[["1", "0", "0", "0", "0"]]'],
    ids=["scalar", "flat-list", "short-vector", "long-vector"],
)
def test_malformed_subalgebra_files_are_a_parse_error(tmp_path, content):
    # g0 = gl(2) has dimension 4, so --sub must list vectors of exactly 4 rationals
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2")
    spec = tmp_path / "sp.json"
    spec.write_text(gen.stdout, encoding="utf-8")
    sub = tmp_path / "sub.json"
    sub.write_text(content, encoding="utf-8")
    proc = run_cli("centralizer", str(spec), "--sub", f"file:{sub}", "--max-degree", "1")
    assert_parse_error(proc)
    assert "4 rationals" in proc.stderr


@pytest.mark.parametrize("sub", ["o(3)", "o(x)", "o()"])
def test_o_k_must_name_the_spec_n(sub):
    # the spec is gl(2), so only o(2) names a subalgebra of it
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2")
    proc = run_cli("centralizer", "-", "--sub", sub, "--max-degree", "1", stdin=gen.stdout)
    assert_parse_error(proc)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_glblock_needs_a_positive_n(n):
    proc = run_cli("gen", "glblock", "--n", n, "--lambda1", "1", "--lambda2", "2")
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "n must be at least 1", "kind": "precondition"}


def test_subalgebra_file_gives_the_same_report_as_o_n(tmp_path):
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2")
    spec = tmp_path / "sp.json"
    spec.write_text(gen.stdout, encoding="utf-8")
    sub = tmp_path / "sub.json"
    sub.write_text('[[0, "1", "-1", 0]]', encoding="utf-8")  # E_01 - E_10 spans o(2)
    reports = [
        strip_timings(json.loads(run_cli("centralizer", str(spec), "--sub", s, "--max-degree", "2").stdout))
        for s in (f"file:{sub}", "o(2)")
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv", [("sl2", "-", "--poly", "x0^2+x1^2"), ("centralizer", "-", "--sub", "o(2)", "--max-degree", "1")]
)
def test_symplectic_metadata_without_n_is_a_parse_error(argv):
    gen = run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2", "--form", "trace")
    obj = json.loads(gen.stdout)
    obj["meta"] = {"family": "symplectic"}
    proc = run_cli(*argv, stdin=json.dumps(obj))
    assert_parse_error(proc)
    assert "meta" in proc.stderr


@pytest.mark.parametrize(
    "field, value, argv",
    [
        ("n", 3, ("centralizer", "-", "--sub", "o(3)", "--max-degree", "1")),
        ("p", 3, ("sl2", "-", "--poly", "x0^3+x1^3")),
    ],
    ids=["o(n)-needs-n-squared-dim-g0", "poly-needs-dim-V-monomials"],
)
def test_metadata_that_disagrees_with_the_dimensions_is_a_parse_error(field, value, argv):
    # gl(2) on quadrics: dim_g0 = 4 = 2^2 and dim_V = 3 quadratic monomials in 2 variables
    obj = json.loads(run_cli("gen", "sp", "--n", "2", "--p", "2", "--lambda", "2").stdout)
    obj["meta"][field] = value
    proc = run_cli(*argv, stdin=json.dumps(obj))
    assert_parse_error(proc)
    assert proc.stdout == "" and "meta field" in proc.stderr


def test_trivial_summand_needs_a_non_negative_k():
    gen = run_cli("gen", "sp", "--n", "2", "--p", "1", "--lambda", "1")
    proc = run_cli("gen", "trivial-summand", "-", "--k", "-1", stdin=gen.stdout)
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "k must be at least 0", "kind": "precondition"}


def run_main(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Run glaw.cli.main in this process on a spec read from stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_an_unexpected_exception_is_an_internal_json_error(monkeypatch):
    def broken(t):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "validate", broken)
    code, out, err = run_main(["validate", "-"], stdin=gen_g2_spec())
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "RuntimeError: boom", "kind": "internal"}


@pytest.mark.parametrize(
    "argv",
    [
        ["grow", "spec", "--max-degree", "abc"],
        ["pn-check", "spec"],
        ["frobnicate", "spec"],
        [],
        ["gen", "cartan", "--symmetrizer", "-1,-1"],
    ],
    ids=["bad-int", "missing-option", "unknown-command", "no-arguments", "option-like-value"],
)
def test_usage_errors_are_json_parse_errors(argv):
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "parse"


def test_help_exits_zero_with_its_text():
    proc = run_cli("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: glaw") and proc.stderr == ""


def fuzz_bases() -> list[dict]:
    """Small generator specs with their metadata: gl(2) on quadrics and on lines, gl(1) on quadrics."""
    specs = []
    for n, p in [("2", "2"), ("2", "1"), ("1", "2")]:
        code, out, _ = run_main(["gen", "sp", "--n", n, "--p", p, "--lambda", "2"])
        assert code == 0
        specs.append(json.loads(out))
    return specs


FUZZ_BASES = fuzz_bases()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
FUZZ_COMMANDS = st.one_of(
    st.just(["validate"]),
    st.builds(lambda d: ["grow", "--max-degree", d], st.sampled_from(["1", "2", "3"])),
    st.just(["pn-check", "--n", "2"]),
    st.builds(lambda poly: ["sl2", "--poly", poly], st.sampled_from(["x0^2+x1^2", "x0*x1", "x0^2", "x0^3+x1^3"])),
    st.builds(
        lambda sub, d: ["centralizer", "--sub", sub, "--max-degree", d],
        st.sampled_from(["o(1)", "o(2)", "o(3)"]),
        st.sampled_from(["1", "2", "3"]),
    ),
)


@st.composite
def mutated_specs(draw) -> dict:
    """A generator spec with one field dropped, replaced by a random JSON value,
    or with its meta.n or meta.p edited."""
    spec = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    how = draw(st.sampled_from(["drop", "replace", "meta"]))
    if how == "meta":
        spec["meta"][draw(st.sampled_from(["n", "p"]))] = draw(st.integers(-2, 6) | st.just(10**12) | JSON_VALUES)
    else:
        target = spec["meta"] if draw(st.booleans()) else spec
        key = draw(st.sampled_from(sorted(target)))
        if how == "drop":
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return spec


@settings(max_examples=150, deadline=None)
@given(spec=mutated_specs(), command=FUZZ_COMMANDS)
def test_fuzzed_specs_get_a_defined_answer(spec, command):
    code, out, err = run_main([command[0], "-", *command[1:]], stdin=json.dumps(spec))
    assert code in (0, 1, 2, 3)
    assert code != 1 or command[0] == "validate"
    if code in (0, 1):
        json.loads(out)
    else:
        assert out == ""
        assert json.loads(err)["kind"] in ("parse", "precondition", "internal")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, glaw.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, text=True, capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_glaw_class_is_a_dataclass():
    modules = [m for name, m in sys.modules.items() if name == "glaw" or name.startswith("glaw.")]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    assert len(modules) >= 7 and len(classes) >= 24
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []
