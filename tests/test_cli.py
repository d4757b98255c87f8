"""Exit codes, output determinism, JSON round-trips, and eager argument
validation for every subcommand."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperiod import cli, cyclo, liedata, tau
from qperiod.cli import GAUSS_MAX_COSETS, main
from qperiod.cyclo import CyclotomicInt, cyclo_to_json, ohtsuki_digits
from qperiod.liedata import build_root_system, gauss_report, gauss_sum
from qperiod.linkdiag import (
    BOUNDARY_WIDTH_CAP,
    BraidWord,
    WidthLimitError,
    closure,
    jones,
    murasugi_check,
    p2_check,
    parse_braid,
    parse_pd,
    pd_text,
    yokota_check,
)
from qperiod.modular import InputError, is_prime
from qperiod.qpoly import poly_to_json
from qperiod.tau import obstruction_test, period_discriminant, quotient_congruence_test, tau_for
from test_cli_golden import command_line, golden_entries

SUBCOMMANDS = [
    "tau",
    "obstruct",
    "discriminant",
    "ohtsuki",
    "jones",
    "murasugi",
    "yokota",
    "gauss",
    "liedata",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# subprocesses import the package from the checkout, without an install
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}

TREFOIL_PD = """\
X(1,4,2,5)
X(3,6,4,1)
X(5,2,6,3)
component 1 2 3 4 5 6
"""


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# usage plumbing


def test_top_level_help_exits_zero(capsys) -> None:
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    for name in SUBCOMMANDS:
        assert name in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, name: str) -> None:
    code, out, _ = run_cli(capsys, [name, "--help"])
    assert code == 0
    assert "--json" in out


def test_missing_subcommand_is_usage_error(capsys) -> None:
    code, _, _ = run_cli(capsys, [])
    assert code == 2


def test_unknown_flag_is_usage_error(capsys) -> None:
    code, _, err = run_cli(capsys, ["tau", "--manifold", "s3", "--r", "5", "--frobnicate"])
    assert code == 2
    assert "unrecognized" in err


# ---------------------------------------------------------------------------
# obstruct


def test_obstruct_poincare_r7_json(capsys) -> None:
    code, out, _ = run_cli(capsys, ["obstruct", "--manifold", "poincare", "--r", "7", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "obstructed"
    assert obj["admissible_v"] == []
    assert obj["a"] == [[0, 1], [1, 6], [2, 3], [3, 2]]


def test_obstruct_nonprime_r_is_usage_error(capsys) -> None:
    code, _, err = run_cli(capsys, ["obstruct", "--manifold", "poincare", "--r", "6"])
    assert code == 2
    assert "r = 6 must be prime" in err


def test_obstruct_small_r_names_hypothesis(capsys) -> None:
    code, _, err = run_cli(capsys, ["obstruct", "--manifold", "poincare", "--r", "3"])
    assert code == 2
    assert "r = 3 must exceed d*h_dual = 4 for sl2" in err


def test_obstruct_inadmissible_system_is_reported_not_error(capsys) -> None:
    code, out, _ = run_cli(
        capsys,
        ["obstruct", "--manifold", "poincare", "--r", "5", "--type", "B", "--rank", "2", "--json"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "inadmissible_r"


def test_obstruct_unsupported_system_is_usage_error(capsys) -> None:
    code, _, err = run_cli(
        capsys,
        ["obstruct", "--manifold", "poincare", "--r", "7", "--type", "E", "--rank", "6"],
    )
    assert code == 2
    assert "unsupported root system E6" in err


def test_obstruct_json_reparses_into_report(capsys) -> None:
    _, out, _ = run_cli(capsys, ["obstruct", "--manifold", "brieskorn237", "--r", "7", "--json"])
    obj = json.loads(out)
    assert obj == obstruction_test(tau_for("brieskorn_2_3_7", 7).value, 7).to_json("brieskorn_2_3_7")
    assert obj["verdict"] == "not_obstructed"
    assert obj["admissible_v"] == [2]
    assert obj["r"] == 7


def test_obstruct_table_mode_mentions_verdict(capsys) -> None:
    code, out, _ = run_cli(capsys, ["obstruct", "--manifold", "poincare", "--r", "11"])
    assert code == 0
    assert "verdict obstructed" in out
    assert "admissible_v (none)" in out


# ---------------------------------------------------------------------------
# tau and ohtsuki


def test_tau_json_round_trip(capsys) -> None:
    code, out, _ = run_cli(capsys, ["tau", "--manifold", "poincare", "--r", "5", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["manifold"] == "poincare"
    assert obj["value"] == cyclo_to_json(tau_for("poincare", 5).value)
    assert obj["value"]["coeffs"] == [1, 2, 2, 1]
    assert obj["a"] == [[0, 1], [1, 1], [2, 0], [3, 4]]


def test_tau_table_aligns_columns(capsys) -> None:
    code, out, _ = run_cli(capsys, ["tau", "--manifold", "poincare", "--r", "13"])
    assert code == 0
    lines = out.splitlines()
    table = [ln for ln in lines if ln.lstrip()[:1].isdigit() or ln.endswith("a_n")]
    widths = {len(ln) for ln in table}
    assert len(widths) == 1


def test_tau_s3_small_prime_allowed(capsys) -> None:
    code, out, _ = run_cli(capsys, ["tau", "--manifold", "s3", "--r", "3", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == {"r": 3, "coeffs": [1, 0]}


@pytest.mark.parametrize("command", ["tau", "obstruct", "ohtsuki"])
def test_s3_at_level_two_is_usage_error(capsys, command: str) -> None:
    code, out, err = run_cli(capsys, [command, "--manifold", "s3", "--r", "2"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"qperiod {command}: error: r = 2 must be an odd prime"


def test_tau_depth_out_of_range(capsys) -> None:
    code, _, err = run_cli(capsys, ["tau", "--manifold", "s3", "--r", "5", "--depth", "4"])
    assert code == 2
    assert "depth" in err


def test_ohtsuki_default_depth_is_full(capsys) -> None:
    code, out, _ = run_cli(capsys, ["ohtsuki", "--manifold", "poincare", "--r", "7", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert [n for n, _ in obj["a"]] == list(range(6))


def test_ohtsuki_table_rows(capsys) -> None:
    code, out, _ = run_cli(capsys, ["ohtsuki", "--manifold", "poincare", "--r", "7", "--depth", "1"])
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", "6"]


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant_poincare_json(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["discriminant", "--manifold", "poincare", "--primes", "7,11,13,17", "--json"]
    )
    assert code == 0
    assert "480" in out
    obj = json.loads(out)
    assert obj["lifted"] == 480
    assert obj["factors"] == [[2, 5], [3, 1], [5, 1]]
    assert obj == period_discriminant("poincare", [7, 11, 13, 17]).to_json()


def test_discriminant_brieskorn_table(capsys) -> None:
    code, out, _ = run_cli(
        capsys, ["discriminant", "--manifold", "brieskorn237", "--primes", "11,13,17,19"]
    )
    assert code == 0
    assert "lifted 1344" in out
    assert "factors 2^6 * 3 * 7" in out


def test_discriminant_rejects_bad_level(capsys) -> None:
    code, _, err = run_cli(capsys, ["discriminant", "--manifold", "poincare", "--primes", "7,9"])
    assert code == 2
    assert "r = 9 must be a prime > 4" in err


@pytest.mark.parametrize("primes", [",", ""])
def test_discriminant_rejects_empty_list(capsys, primes: str) -> None:
    code, out, err = run_cli(capsys, ["discriminant", "--manifold", "poincare", "--primes", primes])
    assert code == 2 and out == ""
    assert "--primes is an empty list" in err


def test_discriminant_at_large_levels_is_immediate(capsys) -> None:
    # a level reduces four integers mod r, so no element of Z[xi] is built
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, ["discriminant", "--manifold", "poincare", "--primes", "100003,1000003", "--json"]
    )
    assert time.monotonic() - start < 1.0
    assert code == 0
    obj = json.loads(out)
    assert obj["residues"] == [[100003, 99991, 480], [1000003, 999991, 480]]
    assert obj["lifted"] == 480


def test_out_of_memory_is_computation_error(capsys, monkeypatch) -> None:
    # a level whose Z[xi] elements cannot be allocated
    def exhausted(manifold, r):
        raise MemoryError

    monkeypatch.setattr(cli, "tau_for", exhausted)
    code, out, err = run_cli(capsys, ["tau", "--manifold", "s3", "--r", "6768176633"])
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_discriminant_rejects_malformed_list(capsys) -> None:
    code, _, err = run_cli(capsys, ["discriminant", "--manifold", "poincare", "--primes", "7,x"])
    assert code == 2
    assert "comma-separated" in err


# ---------------------------------------------------------------------------
# link commands


def test_jones_braid_trefoil_text(capsys) -> None:
    code, out, _ = run_cli(capsys, ["jones", "--braid", "strands 2 : 1 1 1"])
    assert code == 0
    assert out.strip() == "1*t^(1) + 1*t^(3) + -1*t^(4)"


def test_jones_pd_file(capsys, tmp_path) -> None:
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL_PD, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["jones", "--pd", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == poly_to_json(jones(parse_pd(TREFOIL_PD)))
    assert obj["terms"] == [[-8, -1], [-6, 1], [-2, 1]]


def test_jones_requires_exactly_one_source(capsys, tmp_path) -> None:
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL_PD, encoding="utf-8")
    code, _, _ = run_cli(capsys, ["jones"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["jones", "--braid", "strands 2 : 1", "--pd", str(path)])
    assert code == 2


def test_jones_bad_braid_is_usage_error(capsys) -> None:
    code, _, err = run_cli(capsys, ["jones", "--braid", "two strands"])
    assert code == 2


def test_jones_missing_pd_file_is_usage_error(capsys, tmp_path) -> None:
    code, _, err = run_cli(capsys, ["jones", "--pd", str(tmp_path / "absent.pd")])
    assert code == 2
    assert "cannot read" in err


def test_jones_pd_over_the_width_cap_is_refused(capsys, tmp_path) -> None:
    # contracting this diagram would take hours, so this returns only if
    # the refusal comes before any work
    wide = parse_braid("strands 12 : " + " ".join(["1 -2 3 -4 5 -6 7 -8 9 -10 11"] * 14))
    path = tmp_path / "wide.pd"
    path.write_text(pd_text(closure(wide)), encoding="utf-8")
    code, out, err = run_cli(capsys, ["jones", "--pd", str(path)])
    assert code == 2 and out == ""
    assert err.endswith(
        f"qperiod jones: error: contraction boundary width 24 exceeds the cap {BOUNDARY_WIDTH_CAP}\n"
    )


def stdout_digest(capsys, *argvs: list[str]) -> str:
    """The SHA-256 of the calls' stdout, in order; each call must succeed
    within 5 s."""
    digest = hashlib.sha256()
    for argv in argvs:
        start = time.monotonic()
        code, out, _ = run_cli(capsys, argv)
        assert time.monotonic() - start < 5.0
        assert code == 0
        digest.update(out.encode())
    return digest.hexdigest()


def test_murasugi_on_a_nine_strand_power_is_fast(capsys) -> None:
    # the digest is of the report the Temperley-Lieb transfer gave, in
    # about 15 s
    argv = ["murasugi", "--braid", "strands 9 : 1 -2 3 -4 5 -6 7 -8 1 -2 3 -4", "--p", "5", "--json"]
    assert stdout_digest(capsys, argv) == (
        "d29795662f05618d9146331aa7a4829d3f4cf2e296868b597a97ad7f4e2379a2"
    )


def test_jones_pd_with_sixty_crossings_is_fast(capsys, tmp_path) -> None:
    # the digest is of `jones --braid` on the same word by the
    # Temperley-Lieb transfer; 2^60 states were out of reach
    path = tmp_path / "sixty.pd"
    path.write_text(pd_text(closure(BraidWord(4, (1, -2, 3, 2, -1, -3) * 10))), encoding="utf-8")
    assert stdout_digest(capsys, ["jones", "--pd", str(path), "--json"]) == (
        "f1701c7fcf9bfad21c7c06fa64551086ffecb1d49d291ee54b0be65591aa3b37"
    )


def test_tau_at_level_10007_is_fast(capsys) -> None:
    # the digest is of the report the window sum gave, in about 35 s
    argv = ["tau", "--manifold", "poincare", "--r", "10007", "--json"]
    assert stdout_digest(capsys, argv) == (
        "b755a03203bcd1e88b2f0e9c163a7ec655fa153a2d42b97fdb339deb272c018f"
    )


def test_obstruct_at_level_10007_is_fast(capsys) -> None:
    # the digest is of the report the window sum gave, in about 35 s
    argv = ["obstruct", "--manifold", "brieskorn237", "--r", "10007", "--json"]
    assert stdout_digest(capsys, argv) == (
        "022d858ca39e270c9fbda6bd4a861277904445218e0c94a42abf96e7bd8896f4"
    )


def test_manifold_reports_below_400_are_unchanged(capsys) -> None:
    # the digest is of the window sum's reports at every prime level
    argvs = [
        [command, "--manifold", manifold, "--r", str(r), "--json"]
        for manifold in ("poincare", "brieskorn237")
        for r in range(5, 400)
        if is_prime(r)
        for command in ("tau", "obstruct", "ohtsuki")
    ]
    assert stdout_digest(capsys, *argvs) == (
        "64affac650ed7641c433130919cf6aa6f77973b9a5364ee2fb51ade4508a137d"
    )


def test_jones_malformed_pd_content_is_computation_error(capsys, tmp_path) -> None:
    path = tmp_path / "bad.pd"
    path.write_text("X(1,2,2,1)\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["jones", "--pd", str(path)])
    assert code == 1
    assert err.startswith("error:")


def test_jones_pd_component_of_arcs_at_no_crossing_is_computation_error(capsys, tmp_path) -> None:
    # one circle written as two arcs is refused, not counted as two loops
    path = tmp_path / "circle.pd"
    path.write_text("component 1 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["jones", "--pd", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: component 1 2 meets no crossing; a free loop is one arc\n"


@pytest.mark.parametrize("command", [["jones"], ["yokota", "--p", "3"]])
def test_pd_with_odd_crossings_between_components_is_refused(capsys, tmp_path, command) -> None:
    # two closed curves in the plane cross an even number of times; these
    # two components cross three times, so no planar diagram draws them
    path = tmp_path / "odd.pd"
    path.write_text(
        "X(4,3,2,6)\nX(1,5,6,2)\nX(5,3,4,1)\ncomponent 1 6 3\ncomponent 5 4 2\n", encoding="utf-8"
    )
    code, out, err = run_cli(capsys, [*command, "--pd", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: odd inter-component crossing sum; diagram is malformed\n"


def test_murasugi_pass_and_json(capsys) -> None:
    code, out, _ = run_cli(capsys, ["murasugi", "--braid", "strands 2 : 1", "--p", "3"])
    assert code == 0
    assert "murasugi p=3 PASS" in out
    code, out, _ = run_cli(capsys, ["murasugi", "--braid", "strands 2 : 1", "--p", "3", "--json"])
    assert code == 0
    assert json.loads(out) == murasugi_check(parse_braid("strands 2 : 1"), 3).to_json()


@pytest.mark.parametrize("p, needle", [(4, "must be prime"), (2, "odd prime")])
def test_murasugi_rejects_bad_p(capsys, p: int, needle: str) -> None:
    code, _, err = run_cli(capsys, ["murasugi", "--braid", "strands 2 : 1", "--p", str(p)])
    assert code == 2
    assert needle in err


def test_yokota_pass_and_fail_are_both_exit_zero(capsys) -> None:
    code, out, _ = run_cli(capsys, ["yokota", "--braid", "strands 2 : 1 1 1", "--p", "3"])
    assert code == 0
    assert "yokota p=3 PASS" in out
    code, out, _ = run_cli(capsys, ["yokota", "--braid", "strands 2 : 1 1 1", "--p", "5"])
    assert code == 0
    assert "yokota p=5 FAIL" in out
    assert "residual" in out


def test_yokota_pd_source(capsys, tmp_path) -> None:
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL_PD, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["yokota", "--pd", str(path), "--p", "3", "--json"])
    assert code == 0
    assert json.loads(out)["passed"] is True


# ---------------------------------------------------------------------------
# algebraic data commands


def test_gauss_report_round_trip(capsys) -> None:
    code, out, _ = run_cli(capsys, ["gauss", "--type", "A", "--rank", "1", "--r", "5", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == gauss_report(build_root_system("A", 1), 5).to_json()
    assert obj["magnitude_ok"] and obj["ratio_ok"] and obj["omega"] in (1, -1)


def test_gauss_level_too_small_names_hypothesis(capsys) -> None:
    code, _, err = run_cli(capsys, ["gauss", "--type", "A", "--rank", "1", "--r", "2"])
    assert code == 2
    assert "r = 2 must exceed d*h_dual = 2 for sl2" in err


def test_gauss_nonprime_r(capsys) -> None:
    code, _, err = run_cli(capsys, ["gauss", "--type", "A", "--rank", "2", "--r", "9"])
    assert code == 2
    assert "r = 9 must be prime" in err


def test_gauss_refuses_too_many_cosets_before_work(capsys) -> None:
    # summing 53^6 cosets would take days, so this returns only if the
    # refusal comes first
    code, out, err = run_cli(capsys, ["gauss", "--type", "A", "--rank", "6", "--r", "53"])
    assert code == 2 and out == ""
    assert f"53^6 = {53**6} cosets exceeds the limit of {GAUSS_MAX_COSETS}" in err
    assert "--max-cosets" in err


def test_gauss_max_cosets_flag_moves_the_limit(capsys) -> None:
    argv = ["gauss", "--type", "A", "--rank", "2", "--r", "7", "--json"]
    code, _, err = run_cli(capsys, argv + ["--max-cosets", "48"])
    assert code == 2
    assert "7^2 = 49 cosets exceeds the limit of 48" in err
    code, out, _ = run_cli(capsys, argv + ["--max-cosets", "49"])
    assert code == 0
    assert json.loads(out)["r"] == 7


def test_gauss_default_limit_admits_documented_calls() -> None:
    # the largest documented call is gauss --type A --rank 5 --r 11
    assert 11**5 <= GAUSS_MAX_COSETS


def test_liedata_g2(capsys) -> None:
    code, out, _ = run_cli(capsys, ["liedata", "--type", "G", "--rank", "2", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["h"], obj["h_dual"], obj["D"], obj["weyl_order"]) == (6, 4, 1, 12)
    code, out, _ = run_cli(capsys, ["liedata", "--type", "G", "--rank", "2"])
    assert code == 0
    assert "weyl_order" in out


def test_liedata_bad_rank_is_usage_error(capsys) -> None:
    code, _, err = run_cli(capsys, ["liedata", "--type", "D", "--rank", "3"])
    assert code == 2
    assert "unsupported root system D3" in err


# ---------------------------------------------------------------------------
# the manifold path: one exact division per invariant, none for digits or twists


@pytest.mark.parametrize("manifold", sorted(cli.MANIFOLD_IDS))
def test_manifold_commands_divide_once_per_level(capsys, monkeypatch, manifold) -> None:
    calls = []
    divide = cyclo.divide_power_vector

    def counted(y):
        calls.append(len(y))
        return divide(y)

    for name, module in list(sys.modules.items()):
        if name == "qperiod" or name.startswith("qperiod."):
            if "divide_power_vector" in vars(module):
                monkeypatch.setattr(module, "divide_power_vector", counted)
    tau.tau_poincare(5)
    assert calls == [5]  # the patch is live
    # the Eichler sum divides once by 1 - xi; s3, the Ohtsuki digits of the
    # full `ohtsuki` table, the twists and the discriminant divide nothing
    want = 0 if manifold == "s3" else 1
    for r in ("5", "7", "59"):
        for argv, n in ((["tau", "--r", r], want), (["obstruct", "--r", r], want),
                        (["ohtsuki", "--r", r], want), (["discriminant", "--primes", r], 0)):
            calls.clear()
            code, _, err = run_cli(capsys, [*argv, "--manifold", manifold])
            assert code == 0, (argv, err)
            assert calls == [int(r)] * n, argv


# ---------------------------------------------------------------------------
# refusals: the library's words, before the work they guard


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tau", "--manifold", "poincare", "--r", "7", "--depth", "-1"],
         "depth = -1 must lie in [0, r-2] = [0, 5]"),
        (["ohtsuki", "--manifold", "poincare", "--r", "7", "--depth", "6"],
         "depth = 6 must lie in [0, r-2] = [0, 5]"),
        (["obstruct", "--manifold", "poincare", "--r", "7", "--type", "E", "--rank", "6"],
         "unsupported root system E6"),
        (["gauss", "--type", "A", "--rank", "6", "--r", "53"],
         f"r^rank = 53^6 = {53**6} cosets exceeds the limit of {GAUSS_MAX_COSETS}; "
         "raise it with --max-cosets"),
    ],
)
def test_refusal_comes_before_the_work(capsys, monkeypatch, argv, message) -> None:
    def work(*args):
        raise AssertionError("reached the work that the refusal guards")

    monkeypatch.setattr(tau, "_eichler_tau", work)
    monkeypatch.setattr(liedata, "gauss_sum", work)
    with pytest.raises(AssertionError, match="reached"):
        main(["tau", "--manifold", "poincare", "--r", "7"])  # the patch is live
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"qperiod {argv[0]}: error: {message}"


B = parse_braid("strands 2 : 1 1 1")
ONE = CyclotomicInt.one(5)


@pytest.mark.parametrize(
    "case, call",
    [
        ("tau --manifold poincare --r 6", lambda: tau_for("poincare", 6)),
        ("tau --manifold brieskorn237 --r 3", lambda: tau_for("brieskorn_2_3_7", 3)),
        ("tau --manifold s3 --r 2", lambda: tau_for("s3", 2)),
        ("tau --manifold s3 --r 3317044064679887385961981",
         lambda: tau_for("s3", 3317044064679887385961981)),
        ("discriminant --manifold poincare --primes 9,3",
         lambda: period_discriminant("poincare", [9, 3])),
        ("discriminant --manifold poincare --primes 7,3317044064679887385961981",
         lambda: period_discriminant("poincare", [7, 3317044064679887385961981])),
        ("gauss --type A --rank 2 --r 9", lambda: gauss_sum(build_root_system("A", 2), 9)),
        ("gauss --type A --rank 1 --r 2", lambda: gauss_sum(build_root_system("A", 1), 2)),
        ("tau --manifold s3 --r 5 --depth 4", lambda: ohtsuki_digits(ONE, 4)),
        ("murasugi --braid 'strands 2 : 1' --p 4", lambda: murasugi_check(B, 4)),
        ("murasugi --braid 'strands 2 : 1' --p 2", lambda: murasugi_check(B, 2)),
        ("yokota --braid 'strands 2 : 1 1 1' --p 9", lambda: yokota_check(closure(B), 9)),
        ("yokota --braid 'strands 2 : 1 1 1' --p 2", lambda: yokota_check(closure(B), 2)),
        ("murasugi --braid 'strands 2 : 1' --p -3", lambda: p2_check(B, -3)),
        ("yokota --braid 'strands 2 : 1 1 1' --p 9", lambda: quotient_congruence_test(ONE, ONE, 9, 5)),
        ("murasugi --braid 'strands x' --p 3", lambda: parse_braid("strands x")),
        ("jones --braid 'strands 2 : 3'", lambda: parse_braid("strands 2 : 3")),
        ("obstruct --manifold poincare --r 7 --type E --rank 6", lambda: build_root_system("E", 6)),
    ],
)
def test_library_refuses_with_the_cli_words(case, call) -> None:
    # the golden entry's last stderr line is "stderr qperiod <cmd>: error: <message>"
    entry = golden_entries()[command_line(shlex.split(case))]
    message = entry.splitlines()[2].split(": error: ", 1)[1]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_pd_errors_are_not_refusals() -> None:
    # a malformed PD file is a computation error (exit 1), a diagram over
    # the width cap a refusal (exit 2)
    assert issubclass(WidthLimitError, InputError)
    with pytest.raises(ValueError) as info:
        parse_pd("X(1,2,2,1)\n")
    assert not isinstance(info.value, InputError)


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["obstruct", "--manifold", "poincare", "--r", "7", "--json"],
        ["discriminant", "--manifold", "poincare", "--primes", "7,11,13,17", "--json"],
        ["gauss", "--type", "A", "--rank", "2", "--r", "7", "--json"],
        ["jones", "--braid", "strands 3 : 1 -2 1 -2", "--json"],
    ],
)
def test_json_output_is_byte_identical(capsys, argv: list[str]) -> None:
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def assert_script_output_is_unchanged(name: str) -> None:
    """scripts/<name>.py exits 0 and prints tests/data/<name>.txt byte for byte."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{name}.py")],
        capture_output=True,
        env=SRC_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "data", f"{name}.txt"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_reproduce_tables_script_output_is_unchanged() -> None:
    assert_script_output_is_unchanged("reproduce_tables")


def test_gauss_survey_script_output_is_unchanged() -> None:
    assert_script_output_is_unchanged("gauss_survey")


def test_installed_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "qperiod.cli", "tau", "--manifold", "s3", "--r", "7", "--json"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["manifold"] == "s3"


def test_closed_output_pipe_exits_quietly() -> None:
    # the reader is gone before the first write: exit 1, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qperiod.cli", "ohtsuki", "--manifold", "poincare", "--r", "59"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=SRC_ENV,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# fuzzing: any drawn input ends in a report, exit 1 or exit 2, never an
# uncaught exception


def exit_code(argv: list[str]) -> int:
    return exit_and_output(argv)[0]


def exit_and_output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def mostly(valid, invalid):
    """Draw from valid three times in four, so that most draws get past
    the argument checks."""
    return st.one_of(valid, valid, valid, invalid)


def letters(n: int) -> list[int]:
    return [s * k for k in range(1, n) for s in (1, -1)]


small_primes = st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
levels = mostly(small_primes, st.integers(-2, 60)).map(str)
braid_words = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.sampled_from(letters(n)), max_size=6).map(lambda word: BraidWord(n, tuple(word)))
)


def braid_text(b: BraidWord) -> str:
    return f"strands {b.strands} : " + " ".join(map(str, b.letters))


braid_texts = mostly(
    braid_words.map(braid_text),
    st.one_of(
        st.builds(
            lambda n, word: f"strands {n} : " + " ".join(map(str, word)),
            st.integers(0, 4),
            st.lists(st.integers(-5, 5), max_size=6),
        ),
        st.text(alphabet="strands :-x1", max_size=16),
    ),
)


@st.composite
def pd_texts(draw) -> str:
    """The PD text of a closed braid with at most four crossings, often
    damaged by dropping a line or adding a drawn one."""
    n = draw(st.integers(2, 4))
    word = draw(st.lists(st.sampled_from(letters(n)), max_size=4))
    lines = pd_text(closure(BraidWord(n, tuple(word)))).splitlines()
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    extra = draw(st.one_of(
        st.none(),
        st.builds(lambda arcs: "X({},{},{},{})".format(*arcs),
                  st.lists(st.integers(0, 9), min_size=4, max_size=4)),
        st.builds(lambda arcs: "component " + " ".join(map(str, arcs)),
                  st.lists(st.integers(0, 9), min_size=1, max_size=4)),
        st.text(alphabet="X(),component 0123", max_size=12),
    ))
    if extra is not None and sum(line.startswith("X") for line in lines) < 4:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["jones", "murasugi", "yokota"]), braid_texts, levels, st.booleans())
def test_fuzz_braid_commands_exit_cleanly(command, braid, p, as_json):
    argv = [command, "--braid", braid] + (["--p", p] if command != "jones" else [])
    assert exit_code(argv + ["--json"] * as_json) in (0, 1, 2)


def over_only_two_arc_component(d) -> bool:
    """Whether some two-arc component of d passes under no crossing, the
    shape whose orientation parse_pd cannot derive."""
    under = {x[0] for x in d.crossings} | {x[2] for x in d.crossings}
    return any(len(comp) == 2 and not under.intersection(comp) for comp in d.components)


@settings(max_examples=60, deadline=None)
@given(braid_words, small_primes)
@example(BraidWord(2, (1, -1)), 3)  # the strand crossed twice over is refused as a PD file
@example(BraidWord(3, ()), 5)  # three free loops
def test_braid_and_pd_of_its_closure_print_the_same_bytes(b, p):
    # --braid loads the closure of the word, so jones and yokota take one
    # path for both sources; only the PD file of an over-only two-arc
    # component is refused, since it carries no orientation
    d = closure(b)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "closure.pd")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pd_text(d))
        for command in (["jones"], ["yokota", "--p", str(p)]):
            by_braid = exit_and_output([*command, "--braid", braid_text(b), "--json"])
            by_pd = exit_and_output([*command, "--pd", path, "--json"])
            assert by_braid[0] == 0
            if over_only_two_arc_component(d):
                assert by_pd[0] == 1
            else:
                assert by_pd == by_braid


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["jones", "yokota"]), pd_texts(), levels)
def test_fuzz_pd_commands_exit_cleanly(command, text, p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.pd")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--pd", path] + (["--p", p] if command == "yokota" else [])
        assert exit_code(argv) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["gauss", "liedata", "tau"]),
    mostly(st.sampled_from(list("ABCDG")), st.sampled_from(list("EFH"))),
    mostly(st.integers(1, 3), st.integers(-1, 7)),
    levels,
    st.one_of(st.none(), st.integers(-2, 9).map(str)),
    mostly(st.sampled_from(["poincare", "brieskorn237", "s3"]), st.just("lens")),
    st.booleans(),
)
def test_fuzz_lie_and_tau_arguments_exit_cleanly(command, family, rank, r, depth, manifold, as_json):
    if command == "tau":
        argv = ["tau", "--manifold", manifold, "--r", r]
        argv += ["--depth", depth] if depth is not None else []
    else:
        argv = [command, "--type", family, "--rank", str(rank)]
        # a small limit keeps the coset sum of a valid gauss call fast
        argv += ["--r", r, "--max-cosets", "5000"] if command == "gauss" else []
    assert exit_code(argv + ["--json"] * as_json) in (0, 1, 2)


prime_lists = st.one_of(
    st.lists(mostly(small_primes, st.integers(-3, 60)), max_size=6).map(
        lambda ps: ",".join(map(str, ps))
    ),
    st.text(alphabet="0123456789,- x", max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["obstruct", "ohtsuki", "discriminant"]),
    mostly(st.sampled_from(["poincare", "brieskorn237", "s3"]), st.just("lens")),
    levels,
    st.one_of(st.none(), st.integers(-2, 61).map(str)),
    prime_lists,
    st.booleans(),
)
def test_fuzz_manifold_commands_exit_cleanly(command, manifold, r, depth, primes, as_json):
    argv = [command, "--manifold", manifold]
    if command == "discriminant":
        argv += ["--primes", primes]
    else:
        argv += ["--r", r]
    if command == "ohtsuki" and depth is not None:
        argv += ["--depth", depth]
    assert exit_code(argv + ["--json"] * as_json) in (0, 1, 2)
