"""The capacity table: every cap refuses a value just past it with the
one message format, and no module raises a capacity error of its own."""

import ast
from pathlib import Path

import numpy as np
import pytest

from bqsm.classical_ot import (OtOutputDistribution, min_pointer_epsilon_lp,
                               one_of_n_condition)
from bqsm.cli import _exp_azuma
from bqsm.cqstate import CqState, pa_distance_slow
from bqsm.entropy import JointDistribution
from bqsm.errors import CAPS, CapacityError
from bqsm.hashing import HashFamily, enumerate_ndlf
from bqsm.markov import accumulated_min_entropy_markov, floor_hugging_chain
from bqsm.protocols import (LinearCode, binding_experiment,
                            sender_security_distance, store_prefix)
from bqsm.protocols.adversary import epr_blocks_dense
from bqsm.qkd import Eavesdropper, QkdConfig, rate_bound_check, run_qkd
from bqsm.qstate import haar_state
from bqsm.uncertainty import two_basis_relation


# cap name -> (call just past the cap, "param=value" it must name)
PAST_CAP = {
    "dense-qubits": (lambda: haar_state(15, np.random.default_rng(0)),
                     "n=15"),
    "cq-dimension": (lambda: CqState(
        tuple(range(16385)), np.full(16385, 1 / 16385),
        (np.ones((1, 1)),) * 16385, 0).assemble(), "dim=16385"),
    "joint-entries": (lambda: JointDistribution(
        [range(1025), range(1024)], np.zeros((1025, 1024)),
        normalized=False), "entries=1049600"),
    "hash-family": (lambda: HashFamily(21, 1).members(), "n*ell=21"),
    "hash-table": (lambda: HashFamily(9, 2).eval_table(),
                   "2^(n*ell+n)=134217728"),
    "pa-oracle": (lambda: pa_distance_slow(
        CqState((0,), [1.0], (np.ones((1, 1)),), 0),
        HashFamily(13, 1)), "members=8192"),
    "ndlf-ell": (lambda: next(enumerate_ndlf(17)), "ell=17"),
    "ot-ell": (lambda: OtOutputDistribution(np.ones((1, 1, 1)), 9),
               "ell=9"),
    "ot-outputs": (lambda: OtOutputDistribution(
        np.full((2, 2, 65), 1 / 260), 1), "|W|=65"),
    "lp-ell": (lambda: min_pointer_epsilon_lp(OtOutputDistribution(
        np.full((4, 4, 1), 1 / 16), 2)), "ell=2"),
    "lp-outputs": (lambda: min_pointer_epsilon_lp(OtOutputDistribution(
        np.full((2, 2, 9), 1 / 36), 1)), "|W|=9"),
    "one-of-n": (lambda: one_of_n_condition(
        np.full((2,) * 5 + (1,), 1 / 32), 1, 0.1), "n=5"),
    "one-of-n-ell": (lambda: one_of_n_condition(
        np.full((8, 8, 1), 1 / 64), 3, 0.1), "ell=3"),
    "relation-qubits": (lambda: two_basis_relation(
        haar_state(13, np.random.default_rng(0)), [], []), "n=13"),
    "dense-engine": (lambda: epr_blocks_dense(13, store_prefix(1)),
                     "n=13"),
    "binding-audit": (lambda: binding_experiment(store_prefix(1), 17),
                      "n=17"),
    "honest-path": (lambda: run_qkd(QkdConfig(symbols=100_001), 0),
                    "symbols=100001"),
    "ot12-audit": (lambda: sender_security_distance(
        store_prefix(1), "ot12", 7), "n=7"),
    "ot12-block": (lambda: sender_security_distance(
        store_prefix(0), "ot12", 6, ell=3), "(n+2)*ell+2*q+1=25"),
    "rate-check": (lambda: rate_bound_check(
        QkdConfig(ec_bits_per_symbol=0.0), Eavesdropper("trivial"), 11, 0),
        "m=11"),
    "coset-table": (lambda: LinearCode(np.eye(1, 25, dtype=np.uint8)),
                    "length=25"),
    "walk-steps": (lambda: accumulated_min_entropy_markov(
        floor_hugging_chain(4, 1.0), 65537, 0.1, 1, 0), "n=65537"),
}


def test_every_cap_has_a_case():
    assert set(PAST_CAP) == set(CAPS)


def _assert_refused(name, call, named):
    with pytest.raises(CapacityError) as err:
        call()
    param = named.split("=")[0]
    assert str(err.value) == (f"{named} exceeds the {name} cap "
                              f"{CAPS[name]}; lower {param}")


@pytest.mark.parametrize("name", sorted(CAPS))
def test_cap_refuses_a_value_just_past_it(name):
    _assert_refused(name, *PAST_CAP[name])


def test_hash_table_labels_name_spec_parameters():
    # the affine member table and the row-space class table
    _assert_refused("hash-table",
                    lambda: HashFamily(9, 2, "affine").eval_table(),
                    "2^((n+1)*ell+n)=536870912")
    _assert_refused("hash-table",
                    lambda: HashFamily(14, 1).representatives(),
                    "classes(n,ell)*2^n=268435456")


def test_walk_steps_bound_the_azuma_walk():
    _assert_refused("walk-steps", lambda: _exp_azuma(0, n=65537), "n=65537")


SRC = Path(__file__).resolve().parents[1] / "src" / "bqsm"


def test_only_check_cap_raises_capacity_errors():
    sites = [(path.name, line.strip())
             for path in sorted(SRC.rglob("*.py"))
             for line in path.read_text().splitlines()
             if "raise CapacityError" in line]
    assert len(sites) == 1 and sites[0][0] == "errors.py", sites


def test_imports_are_used_and_mass_is_float64():
    """Every imported name is used (or listed in `__all__`), no module
    imports `fractions` or builds a `dtype=object` array (float64 is the
    only mass type), and no module imports scipy when it loads: the two
    scipy optimizers are imported by the functions that call them."""
    unused, banned = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        local = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
                    if alias.name == "fractions" or (
                            alias.name.split(".")[0] == "scipy"
                            and id(node) not in local):
                        banned.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
                if node.module == "fractions" or (
                        (node.module or "").split(".")[0] == "scipy"
                        and id(node) not in local):
                    banned.append((path.name, node.lineno))
            elif isinstance(node, ast.keyword) and node.arg == "dtype" \
                    and ast.unparse(node.value) in ("object", "np.object_"):
                banned.append((path.name, node.lineno))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [(path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert not unused, unused
    assert not banned, banned
