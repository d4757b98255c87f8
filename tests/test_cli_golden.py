"""The CLI's bytes, pinned against tests/data/cli_golden.txt: every
subcommand in table and --json form, each usage refusal, and the
computation errors.

Each entry records the argv, the exit code, the last line of stderr
(argparse wraps its usage lines differently across Python versions) and
the stdout.  The PD files live in a temporary directory that the entries
call {pd}.  After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""
from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from qperiod.cli import main
from qperiod.linkdiag import BraidWord, closure, pd_text

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.txt"

PD_FILES = {
    "trefoil.pd": "X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)\ncomponent 1 2 3 4 5 6\n",
    "figure8.pd": pd_text(closure(BraidWord(3, (1, -2, 1, -2)))),
    "long.pd": pd_text(closure(BraidWord(2, (1,) * 25))),
    "wide.pd": pd_text(closure(BraidWord(12, (1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11) * 14))),
    "bad.pd": "X(1,2,2,1)\n",
}

CASES = [
    # tau
    "tau --manifold poincare --r 7",
    "tau --manifold poincare --r 7 --json",
    "tau --manifold brieskorn237 --r 11 --depth 5",
    "tau --manifold brieskorn237 --r 11 --json",
    "tau --manifold s3 --r 3",
    "tau --manifold s3 --r 5 --json",
    "tau --manifold poincare --r 5 --depth 0",
    "tau --manifold poincare --r 6",
    "tau --manifold poincare --r 1",
    "tau --manifold brieskorn237 --r 3",
    "tau --manifold s3 --r 2",
    "tau --manifold s3 --r 5 --depth 4",
    "tau --manifold poincare --r 7 --depth -1",
    "tau --manifold poincare",
    # two bad arguments: the first in the order checked is the one reported
    "tau --manifold poincare --r 6 --depth 9",
    # psi_12, a strong pseudoprime to the bases 2..37, and psi_13, where
    # is_prime stops deciding
    "tau --manifold s3 --r 318665857834031151167461",
    "tau --manifold s3 --r 3317044064679887385961981",
    # a level over the cap, refused before tau is computed
    "tau --manifold poincare --r 1000000007",
    # obstruct
    "obstruct --manifold poincare --r 7",
    "obstruct --manifold poincare --r 7 --json",
    "obstruct --manifold brieskorn237 --r 7",
    "obstruct --manifold brieskorn237 --r 13 --json",
    "obstruct --manifold s3 --r 5",
    "obstruct --manifold poincare --r 5 --type B --rank 2",
    "obstruct --manifold poincare --r 11 --type G --rank 2 --json",
    "obstruct --manifold poincare --r 9",
    "obstruct --manifold poincare --r 3",
    "obstruct --manifold s3 --r 2",
    "obstruct --manifold poincare --r 7 --type E --rank 6",
    "obstruct --manifold poincare --r 7 --type A --rank 0",
    "obstruct --manifold poincare --r 9 --type E --rank 6",
    # discriminant
    "discriminant --manifold poincare --primes 7,11,13,17",
    "discriminant --manifold poincare --primes 7,11,13,17 --json",
    "discriminant --manifold brieskorn237 --primes 11,13,17,19",
    "discriminant --manifold brieskorn237 --primes 19,11,13,17,13 --json",
    "discriminant --manifold s3 --primes 5,7",
    "discriminant --manifold s3 --primes 5 --json",
    "discriminant --manifold poincare --primes 7,9",
    "discriminant --manifold poincare --primes 3,7",
    "discriminant --manifold poincare --primes 7,x",
    "discriminant --manifold poincare --primes ,",
    "discriminant --manifold poincare --primes=",
    "discriminant --manifold poincare --primes 7,3317044064679887385961981",
    "discriminant --manifold poincare --primes 9,3",
    # ohtsuki
    "ohtsuki --manifold poincare --r 7",
    "ohtsuki --manifold poincare --r 7 --json",
    "ohtsuki --manifold brieskorn237 --r 13 --depth 5",
    "ohtsuki --manifold s3 --r 5 --depth 0 --json",
    "ohtsuki --manifold poincare --r 7 --depth 6",
    "ohtsuki --manifold poincare --r 15",
    "ohtsuki --manifold s3 --r 2",
    # the full table at r = 10,007 is over the digit-table cap
    "ohtsuki --manifold poincare --r 10007",
    # jones
    "jones --braid 'strands 2 : 1 1 1'",
    "jones --braid 'strands 2 : 1 1 1' --json",
    "jones --braid 'strands 3 : 1 -2 1 -2'",
    "jones --braid 'strands 3 :' --json",
    "jones --pd {pd}/trefoil.pd",
    "jones --pd {pd}/figure8.pd --json",
    "jones --braid 'two strands'",
    "jones --braid 'strands 2 : 3'",
    # letters run together are no braid word
    "jones --braid 'strands 2 : 1-1'",
    # a strand count over the cap, once too large for a machine word
    "jones --braid 'strands 12345678901234567890 :'",
    "jones",
    "jones --braid 'strands 2 : 1' --pd {pd}/trefoil.pd",
    "jones --pd {pd}/absent.pd",
    "jones --pd {pd}/long.pd",
    "jones --pd {pd}/wide.pd",
    "jones --pd {pd}/bad.pd",
    # murasugi
    "murasugi --braid 'strands 2 : 1' --p 3",
    "murasugi --braid 'strands 2 : 1' --p 3 --json",
    "murasugi --braid 'strands 2 : 1 1 1' --p 5",
    "murasugi --braid 'strands 2 : 1 1 1' --p 5 --json",
    "murasugi --braid 'strands 2 : 1' --p 4",
    "murasugi --braid 'strands 2 : 1' --p 2",
    "murasugi --braid 'strands 2 : 1' --p -3",
    "murasugi --braid 'strands x' --p 3",
    "murasugi --braid 'strands x' --p 4",
    "murasugi --p 3",
    "murasugi --braid 'strands 12 : 1 -2 3 -4 5 -6 7 -8 9 -10 11 1 -2 3 -4 5 -6 7 -8 9 -10 11' --p 7",
    # yokota
    "yokota --braid 'strands 2 : 1 1 1' --p 3",
    "yokota --braid 'strands 2 : 1 1 1' --p 5",
    "yokota --braid 'strands 2 : 1 1 1' --p 5 --json",
    "yokota --pd {pd}/trefoil.pd --p 3 --json",
    "yokota --pd {pd}/figure8.pd --p 5",
    "yokota --braid 'strands 2 : 1 1 1' --p 9",
    "yokota --braid 'strands 2 : 1 1 1' --p 2",
    "yokota --p 3",
    "yokota --pd {pd}/absent.pd --p 3",
    "yokota --pd {pd}/absent.pd --p 4",
    "yokota --pd {pd}/long.pd --p 3",
    "yokota --braid 'strands 2 : 1 1 1' --p 318665857834031151167461",
    "yokota --braid 'strands 2 : 1 1 1' --p 3317044064679887385961981",
    # gauss
    "gauss --type A --rank 1 --r 5",
    "gauss --type A --rank 1 --r 5 --json",
    "gauss --type A --rank 2 --r 7",
    "gauss --type G --rank 2 --r 13 --json",
    "gauss --type B --rank 2 --r 11",
    "gauss --type A --rank 1 --r 2",
    "gauss --type C --rank 2 --r 7",
    "gauss --type A --rank 3 --r 7",
    "gauss --type B --rank 3 --r 13 --json",
    "gauss --type C --rank 3 --r 11",
    "gauss --type D --rank 4 --r 7 --json",
    "gauss --type A --rank 2 --r 9",
    "gauss --type E --rank 6 --r 53",
    "gauss --type A --rank 6 --r 53",
    "gauss --type A --rank 2 --r 7 --max-cosets 48",
    "gauss --type A --rank 2 --r 7 --max-cosets 49 --json",
    "gauss --type A --r 7",
    "gauss --type A --rank 1 --r 3317044064679887385961981",
    # r = 9 is not prime, and 9^6 cosets are over the default cap
    "gauss --type A --rank 6 --r 9",
    "gauss --type E --rank 6 --r 9",
    # liedata
    "liedata --type G --rank 2",
    "liedata --type G --rank 2 --json",
    "liedata --type A --rank 3",
    "liedata --type F --rank 4 --json",
    "liedata --type D --rank 3",
    "liedata --type B --rank 1",
    # plumbing
    "",
    "tau --manifold s3 --r 5 --frobnicate",
]


def command_line(argv: list[str]) -> str:
    return f"$ {shlex.join(['qperiod'] + argv)}"


def run(argv: list[str], pd_dir: str) -> str:
    """The golden entry of one call: a '$ qperiod ...' line, the exit code,
    the last stderr line, then stdout as printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{pd}", pd_dir) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    last = (err.getvalue().splitlines() or [""])[-1]
    text = f"exit {code}\n{f'stderr {last}'.rstrip()}\n{out.getvalue()}".replace(pd_dir, "{pd}")
    assert not any(line.startswith("$ ") for line in text.splitlines())
    return f"{command_line(argv)}\n{text}"


def write_pd_files(directory: str) -> None:
    for name, text in PD_FILES.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def golden_entries() -> dict[str, str]:
    """Each entry of the golden file, keyed by its '$ qperiod ...' line."""
    blocks = re.split(r"^(?=\$ )", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    return {block.split("\n", 1)[0]: block for block in blocks if block}


@pytest.fixture(scope="module")
def pd_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("pd")
    write_pd_files(str(directory))
    return str(directory)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return golden_entries()


def test_golden_lists_exactly_the_cases(golden):
    assert list(golden) == [command_line(shlex.split(case)) for case in CASES]


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case, pd_dir, golden):
    argv = shlex.split(case)
    assert run(argv, pd_dir) == golden[command_line(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_pd_files(tmp)
        sys.stdout.write("".join(run(shlex.split(c), tmp) for c in CASES))
