"""The command line's guarantees, one row each.

A row is (command line, seconds, expectation).  The command line runs
in-process through cli.main, and the time around main must stay within
seconds: the bounds exclude interpreter start-up, which CI's README step
still pays once per command through the installed grmahler script.  The
expectation, one of the five kinds below, checks the exit code, stdout and
stderr.  A new guarantee of the command line is a row here, not a CI step;
test_only_the_readme_step_of_ci_runs_the_command_line holds the workflow to
that.

Guarantees that another tier-1 test pins with the same command line and an
equal or stricter bound are not repeated here:
- the lambda-free Z^2 3+x+y and Z^3 4+x1+x2+x3 series enclose log 3 and
  log 4: test_cli.py::test_lambda_free_series_answers_in_time;
- Z^2 x+x^-1+y+y^-1 at lambda 0.1 and epsilon 1e-300 exits 4 with a
  ResourceLimitError: test_cli.py::test_general_series_too_deep_is_refused_at_once;
- the abelian chain at --params 2048 exits 4 with a ResourceLimitError:
  test_cli.py::test_huge_abelian_converge_sweep_is_a_resource_error;
- the finite lambda measures, spectra and float determinant load no numpy:
  test_cli.py::test_only_float_spectral_routes_import_numpy.
"""
import ast
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grmahler import cli
from grmahler.genfun import u_free
from test_cli import CHAIN_REQUESTS, run_cli, strict_json


def _answer(rc, out, err):
    assert rc == 0 and err == "", err
    return strict_json(out)


def answers(max_error_bound=None):
    """Kind 1: exit 0 and strict JSON, with error_bound at most max_error_bound."""

    def check(rc, out, err):
        res = _answer(rc, out, err)
        assert max_error_bound is None or res["error_bound"] <= max_error_bound

    return check


def refuses(code, error_type):
    """Kind 2: exit code and the error type of the JSON object on stderr."""

    def check(rc, out, err):
        assert (rc, out) == (code, ""), err
        assert strict_json(err)["error"]["type"] == error_type

    return check


def encloses(constant):
    """Kind 3: value within its own error_bound of constant."""

    def check(rc, out, err):
        res = _answer(rc, out, err)
        assert abs(res["value"] - constant) <= res["error_bound"]

    return check


def meets(reference, tolerance, own_bound=False, reference_bound=False):
    """Kind 4: value within tolerance, plus its own error_bound and the
    reference's where asked, of the value of a reference command line or of
    a closed form (a callable, which has no bound)."""

    def check(rc, out, err):
        res = _answer(rc, out, err)
        if callable(reference):
            ref = {"value": reference(), "error_bound": 0.0}
        else:
            ref = _answer(*run_cli(reference.split()))
        allowed = ((res["error_bound"] if own_bound else 0.0)
                   + (ref["error_bound"] if reference_bound else 0.0) + tolerance)
        assert abs(res["value"] - ref["value"]) <= allowed

    return check


def prints(golden):
    """Kind 5: exit 0 and stdout byte-equal to golden."""

    def check(rc, out, err):
        assert (rc, out, err) == (0, golden, "")

    return check


# dense Bareiss elimination printed these in 14 s and 43 s
D128_GOLDEN = (
    '{"command": "measure", "group": "D128", "poly": "9+x+y", "lambda": null, '
    '"method": "finite-determinant", "value": 2.19093418447066, "error_bound": 0, '
    '"extra": {"group_order": 256, "determinant": '
    '1490873456890088538220162522932901234596010265949794434346431334259927384669'
    '8416517174791358956211295900034590580487808895043624607752318976233883838407'
    '8565688671271942264809775156471515660915813863481198119968013851223325982681'
    '1565849496938306762390524146401003589351099936610904640723561477463528803090'
    '2604778114807283338628863561621005657748673697255637966993506503479134073280'
    '7661752810609045386146966433927995437372775489084785272828025756238194076131'
    '71203908926159519145046202839049'
    '}}\n'
)
Z24_GOLDEN = (
    '{"command": "measure", "group": "Z/24xZ/24", "poly": "3+x+y", "lambda": null, '
    '"method": "finite-determinant", "value": 1.09861228865939, "error_bound": 0, '
    '"extra": {"group_order": 576, "determinant": '
    '4402358772268867065793457707510127073259401105370867533540504197448535338375'
    '8889568410636351466648933560385440761657979500324665682297166915646387116855'
    '9334481297732820008814881731356844211434519604352553242473127264628393920529'
    '2027311294132238499245677481307486328237346328328079736243739180793533292420'
    '1278965044979550974808615844073380063081135011425297358533292076211234091159'
    '0902212361921851224236604845463810178144958792801864547979271218302995488015'
    '8991782123413219044684059377353340587197239132160000000000000000000000000000'
    '000000000000000000'
    '}}\n'
)

Z2 = "--group Z^2 --poly x+x^-1+y+y^-1"
Z3 = "--group Z^3 --poly x1+x1^-1+x2+x2^-1+x3+x3^-1"
Z4 = "--group Z^4 --poly x1+x1^-1+x2+x2^-1+x3+x3^-1+x4+x4^-1"
DIHEDRAL = "--poly x+x^-1+y --lambda 0.1"  # P on Dinf and its quotients D_m

ROWS = [
    # one request per row of experiments.CHAINS over its limit group, and the
    # zxzm chain at a negative lambda and at 0
    (f"converge --chain abelian {Z2} --lambda 0.1 --params 4,8", 10, answers()),
    (f"converge --chain dihedral --group Dinf {DIHEDRAL} --params 4,8", 10, answers()),
    ("converge --chain dicyclic --group Dicinf --poly x+x^-1 --lambda 0.1 --params 4,8", 10,
     answers()),
    (f"converge --chain zxzm {Z2} --lambda 0.1 --params 2,4", 10, answers()),
    (f"converge --chain zxzm {Z2} --lambda -0.1 --params 2,4", 10, answers()),
    (f"converge --chain zxzm {Z2} --lambda 0 --params 2,4", 10, answers()),
    # the zxzm chain serves any reciprocal P over Z^2, and refuses one that
    # is not reciprocal
    ("converge --chain zxzm --group Z^2 --poly x+x^-1+2*y+2*y^-1+xy+x^-1y^-1 --lambda 0.05 "
     "--params 2,4,64", 10, answers()),
    ("converge --chain zxzm --group Z^2 --poly 1+x+y --lambda 0.1 --params 2,4", 10,
     refuses(3, "DomainError")),
    # a group the chain does not serve
    (f"converge --chain dihedral --group Z^2 {DIHEDRAL} --params 4,8", 10,
     refuses(3, "DomainError")),
    # every chain over finite quotients refuses a parameter past its point or
    # order cap before any work; a Z x Z/m quotient is walked by the series,
    # whose depth does not grow with m
    *((f"converge --chain {chain} --group {CHAIN_REQUESTS[chain][0]} "
       f"--poly {CHAIN_REQUESTS[chain][1]} --lambda 0.1 --params 100000000000", 10,
       refuses(4, "ResourceLimitError")) for chain in cli.ex.CHAINS if chain != "zxzm"),
    (f"converge --chain zxzm {Z2} --lambda 0.1 --params 100000000000", 2, answers()),
    # --n past the term cap and a group past the order cap, before any work
    ("coeffs --group Z --poly x+x^-1 --n 8000", 10, refuses(4, "ResourceLimitError")),
    ("genfun --series tree --degree 3 --n 2000", 10, refuses(4, "ResourceLimitError")),
    # a --degree below the least its series takes, like any size below its floor
    ("genfun --series tree --degree 1", 10, refuses(2, "ParseError")),
    ("genfun --series free-p2 --degree 1", 10, refuses(2, "ParseError")),
    # a --degree to a series that takes none
    *((f"genfun --series {series} --degree 5 --n 3", 10, refuses(2, "ParseError"))
      for series in ("z2", "psl2-xyy", "psl2-2xyy")),
    ("spectrum --group Z/300xZ/300 --poly x+x^-1+y+y^-1", 10, refuses(4, "ResourceLimitError")),
    # the torus grid at its point cap, 1024^2 = 2^20 characters, against the series
    (f"measure {Z2} --method torus --lambda 0.1 --grid 1024", 20,
     meets(f"measure {Z2} --lambda 0.1", 1e-10)),
    # an even grid reads its grid // 2 estimate off the even-index points of
    # its own character array, an odd one evaluates the grid // 2 grid on its own
    *((f"measure {group} --method torus --lambda 0.1{grid}", 5,
       meets(f"measure {group} --method series --lambda 0.1", 1e-9, own_bound=True))
      for group, grid in ((Z2, ""), (Z2, " --grid 7"), (Z3, " --grid 20"))),
    # each block of terms on its own axes is walked alone and the blocks are
    # combined by binomial convolution; equal blocks share a walk
    (f"measure {Z3} --lambda 0.15", 10,
     meets(f"measure {Z3} --lambda 0.15 --method torus --grid 101", 1e-12,
           own_bound=True, reference_bound=True)),
    (f"measure {Z4} --lambda 0.1", 10, answers()),
    # a nearest-neighbour P over F2 or C2*C3 takes its walk counts from
    # first-passage equations, which build no power
    ("measure --group F2 --poly 3+x+y", 10, encloses(math.log(3))),
    ("measure --group F2 --poly 4+x+y+y^-1", 10, answers(max_error_bound=1e-10)),
    ("measure --group C2*C3 --poly 4+x+y+y^-1", 10, answers(max_error_bound=1e-10)),
    ("u --group F2 --poly x+x^-1+y+y^-1 --lambda 0.08 --epsilon 1e-12", 10,
     meets(lambda: u_free(2).evaluate(0.08), 1e-12)),
    # the finite-to-infinite limit at |G| = 2048, from 2x2 representation
    # blocks with no adjacency built
    (f"measure --group D1024 {DIHEDRAL}", 5,
     meets(f"measure --group Dinf {DIHEDRAL}", 1e-12, reference_bound=True)),
    # the blocks against the Cayley adjacency and eigvalsh
    (f"measure --group D256 {DIHEDRAL}", 10,
     meets(f"measure --group D256 {DIHEDRAL} --method finite", 1e-12)),
    # lambda-free exact det(B), a product over 2x2 representations or over
    # characters, with no adjacency built
    ("measure --group D128 --poly 9+x+y", 10, prints(D128_GOLDEN)),
    ("measure --group Z/24xZ/24 --poly 3+x+y", 10, prints(Z24_GOLDEN)),
]


@pytest.mark.parametrize("line, seconds, expect", ROWS, ids=[line for line, _, _ in ROWS])
def test_guarantee(line, seconds, expect):
    start = time.perf_counter()
    rc, out, err = run_cli(line.split())
    elapsed = time.perf_counter() - start
    expect(rc, out, err)
    assert elapsed <= seconds, f"{elapsed:.2f} s > {seconds} s"


TESTS = Path(__file__).parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
# the installed script as a shell word, python -m grmahler.cli, or cli.main
CLI_CALL = re.compile(r"(?<![\w./-])grmahler\s|-m\s+grmahler\b|\bmain\(")


def _ci_steps():
    """(name line, body without its comment lines) of each step of the workflow."""
    for step in re.split(r"^\s*- (?=name:|uses:)", WORKFLOW.read_text(), flags=re.M)[1:]:
        name, _, body = step.partition("\n")
        yield name, "\n".join(line for line in body.splitlines() if not line.lstrip().startswith("#"))


def test_only_the_readme_step_of_ci_runs_the_command_line():
    calling = [name for name, code in _ci_steps() if CLI_CALL.search(code)]
    assert calling == ["name: README commands through the installed grmahler entry point"]


SCRIPTS = sorted((TESTS.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[script.name for script in SCRIPTS])
def test_experiment_script_runs(script):
    # each experiment sweep, as its own process with its default arguments
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def _randomized(module: Path) -> bool:
    """The test module imports hypothesis or has a function that takes the rng fixture."""
    tree = ast.parse(module.read_text())
    imported = ({a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
                | {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)})
    takes = {a.arg for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) for a in n.args.args}
    return "rng" in takes or any(m.split(".")[0] == "hypothesis" for m in imported)


def test_every_randomized_module_runs_on_the_held_out_seed():
    held_out = next(code for _, code in _ci_steps() if "--hypothesis-seed" in code)
    listed = set(re.findall(r"\btests/(test_\w+\.py)\b", held_out))
    randomized = {m.name for m in TESTS.glob("test_*.py") if _randomized(m)}
    assert randomized - listed == set()
