import inspect
import json
import math
import subprocess
import sys

import pytest

from bqsm import cli
from bqsm.cli import (ExperimentSpec, ParameterError, REGISTRY,
                      list_experiments, main, run)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bqsm.cli", *args],
                          capture_output=True, text=True)


class TestRegistry:
    def test_listing(self):
        rows = list_experiments()
        names = {r["experiment"] for r in rows}
        assert "qkd-thresholds" in names and "bell-attack" in names
        assert list_experiments("commit")[0]["experiment"] \
            == "commitment-honest"
        assert list_experiments("zzz") == []
        # each numeric parameter shows its domain next to its type
        [hmin] = list_experiments("hmin-accumulated")
        assert hmin["parameters"] == {"n": "int [1, inf)",
                                      "lam": "float (0, inf)",
                                      "trials": "int [1, inf)"}
        [rate] = list_experiments("qkd-rate-check")
        assert rate["parameters"]["memory_qubits"] == "int [0, inf)"
        assert rate["parameters"]["eve"] == "str"

    def test_unknown_experiment(self):
        with pytest.raises(ParameterError):
            run(ExperimentSpec("nope", {}, 1))

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            run(ExperimentSpec("qkd-thresholds", {"bogus": 1}, 1))

    def test_every_registered_experiment_has_schema(self):
        for name, (func, schema) in REGISTRY.items():
            assert callable(func)
            assert isinstance(schema, dict)

    def test_schema_is_the_scalar_keyword_parameters(self):
        for name, (func, schema) in REGISTRY.items():
            params = inspect.signature(func).parameters
            scalar = {k for k, par in params.items()
                      if par.default is None
                      or isinstance(par.default, (int, float, str))}
            assert set(schema) == scalar, name
            for k, t in schema.items():
                default = params[k].default
                assert default is None or type(default) is t, (name, k)
        assert REGISTRY["hd-table"][1] == {}        # dims is a tuple
        assert REGISTRY["qkd-run"][1]["code"] is str
        assert REGISTRY["uncertainty-two-basis"][1]["max_set"] is int

    @pytest.mark.parametrize("name, params", [
        ("qkd-run", {"symbols": "200", "margin_bits": "2.5"}),
        ("qkd-rate-check", {"m": "3", "margin_bits": "0.25"}),
        ("uncertainty-two-basis", {"n": "2", "trials": "2",
                                   "max_set": "1"}),
    ])
    def test_signature_parameters_are_settable(self, name, params):
        result = run(ExperimentSpec(name, params, 3))
        assert result["spec"]["parameters"] == params


EDGE_VALUES = {int: ("-1", "0", "1", "2"),
               float: ("-0.5", "0", "1", "1.5", "nan", "inf")}
# In-domain edge specs that a bound narrower than the parameter's domain
# refuses: a library range, a parity or a cap that depends on the other
# parameters.
NARROWER = {
    ("second-relation", "lam", "1"): "lam must be in (0, 1/2)",
    ("second-relation", "lam", "1.5"): "lam must be in (0, 1/2)",
    ("hmin-accumulated", "lam", "1"): "lam must be in (0, 1/2)",
    ("hmin-accumulated", "lam", "1.5"): "lam must be in (0, 1/2)",
    ("qkd-run", "p", "1"): "p must lie in [0, 1/2)",
    ("bell-attack", "n", "1"): "needs even n",
    ("splitting-reduction", "ell", "2"): "hash-table cap",
}


def in_domain(param, typ, text):
    """Whether `text` lies in the interval the domain table gives."""
    domain = cli.DOMAINS.get(param, cli.DEFAULT_DOMAIN[typ])
    least, most = (float(b) for b in domain[1:-1].split(", "))
    v = float(text)
    return ((least < v) if domain[0] == "(" else (least <= v)) \
        and ((v < most) if domain[-1] == ")" else (v <= most))


def strict_json(text):
    def refuse(token):
        raise ValueError(f"bare {token}")
    return json.loads(text, parse_constant=refuse)


class TestDomains:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_domain_walk(self, name, monkeypatch, capsys):
        # every int and float parameter at the edge values, one at a time
        func, schema = REGISTRY[name]

        def entered(seed, **kwargs):
            raise AssertionError(f"{name} entered with {kwargs}")

        for param, typ in schema.items():
            for text in EDGE_VALUES.get(typ, ()):
                spec = (name, param, text)
                inside = in_domain(param, typ, text)
                monkeypatch.setitem(REGISTRY, name,
                                    (func if inside else entered, schema))
                code = main(["-e", name, "--seed", "1",
                             "-p", f"{param}={text}"])
                out, err = capsys.readouterr()
                if not inside or spec in NARROWER:
                    assert code == 2 and out == "", spec
                    [line] = err.splitlines()
                    error = json.loads(line)["error"]
                    assert error.startswith(f"{param}=") if not inside \
                        else NARROWER[spec] in error, (spec, error)
                else:
                    assert code in (0, 3), (spec, err)
                    strict_json(out)

    def test_non_finite_result_exits_2(self, monkeypatch, capsys):
        monkeypatch.setitem(REGISTRY, "pa-quantum", (
            lambda seed, **kw: {"rows": [{"exact": math.nan}],
                                "violations": 0}, {}))
        assert main(["-e", "pa-quantum", "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert "pa-quantum gave a non-finite result" \
            in json.loads(line)["error"]


class TestDeterminism:
    def test_identical_specs_identical_results(self):
        spec = ExperimentSpec("uncertainty-two-basis",
                              {"n": 3, "trials": 20}, 5)
        a = run(spec)
        b = run(spec)
        assert json.dumps(a, sort_keys=True, default=str) \
            == json.dumps(b, sort_keys=True, default=str)

    def test_seed_changes_results(self):
        a = run(ExperimentSpec("hd-mc", {"d": 2, "samples": 500}, 1))
        b = run(ExperimentSpec("hd-mc", {"d": 2, "samples": 500}, 2))
        assert a["rows"][0]["estimate"] != b["rows"][0]["estimate"]


class TestProcessInterface:
    def test_list_flag(self):
        res = run_cli("--list")
        assert res.returncode == 0
        assert "bell-attack" in res.stdout

    def test_missing_seed_is_parameter_error(self):
        assert main(["-e", "qkd-thresholds"]) == 2

    def test_unknown_param_exit_code(self):
        assert main(["-e", "qkd-thresholds", "--seed", "1",
                     "-p", "zz=1"]) == 2

    def test_success_and_byte_identical_output(self):
        args = ("-e", "qkd-thresholds", "--seed", "7", "--format", "csv")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("alphabet,")

    @pytest.mark.parametrize("params, code, named", [
        (("binding", "n=40"), 2, "n=40"),
        (("rabin-honest", "n=100001", "runs=1"), 2, "n=100001"),
        (("pa-quantum", "strategy=nope"), 2, "strategy"),
        (("qkd-run", "symbols=200000"), 2, "symbols=200000"),
        (("ot12-honest", "n=100001", "runs=1"), 2, "n=100001"),
        # past one machine word the member draw no longer overflows
        (("ot12-honest", "n=80", "runs=1"), 0, None),
        (("qkd-rate-check", "m=11"), 2, "m=11"),
        (("purification-equivalence", "n=13"), 2, "n=13"),
        (("sender-security", "protocol=ot12", "n=7"), 2, "n=7"),
        # --config files: absent, not JSON, lacking a required field
        (("--config", None), 2, "spec.json"),
        (("--config", "{not json"), 2, "spec.json"),
        (("--config", '{"experiment": "hd-table"}'), 2, "seed"),
        (("--config", '{"seed": 4}'), 2, "experiment"),
        (("--config", '["hd-table", 4]'), 2, "spec.json"),
        # hash families past the exhaustive-averaging cap
        (("lhl-classical", "n=11", "ell=2"), 2, "n*ell=22"),
        (("pa-quantum", "n=7", "q=1", "ell=3"), 2, "n*ell=21"),
        # the (g0, g1, d, s0, s1, k, k) block array, at most 2^27 cells
        (("sender-security", "protocol=ot12", "n=6", "ell=3"), 2,
         "(n+2)*ell+2*q+1=27"),
        # within that cap: (n+2)*ell+2*q+1 = 17
        (("sender-security", "protocol=ot12", "n=5", "ell=2"), 0, None),
        # channel tables are refused before any cell is built
        (("ot-from-uot", "n=12"), 2, "8^n="),
        (("splitting-reduction", "n=14"), 2, "2*4^n="),
        # 43,947 row-space classes at n=9, ell=2: a (class, output) pair
        # array of 175,788^2 cells is refused before any row is built
        (("splitting-reduction", "ell=2"), 2,
         "(classes(n,ell)*2^ell)^2=30901420944"),
        # within the hash-family cap, each row-space class needs 2^r span
        # cells, not 2^n
        (("lhl-classical", "n=14", "ell=1"), 0, None),
        (("lhl-classical", "n=10", "ell=2"), 0, None),
        # a Monte-Carlo walk row must fit one row block; trials cost no
        # memory
        (("azuma-empirical", "n=20000000000"), 2, "n=20000000000"),
        (("hmin-accumulated", "n=100000", "trials=1000000"), 2, "n=100000"),
        # counts below their least meaningful value are refused by name
        (("qkd-run", "symbols=0"), 2, "symbols=0"),
        (("qkd-run", "symbols=-4"), 2, "symbols=-4"),
        (("rabin-honest", "runs=0"), 2, "runs=0"),
        (("rabin-honest", "runs=-1"), 2, "runs=-1"),
        (("azuma-empirical", "trials=0"), 2, "trials=0"),
        (("azuma-empirical", "n=0"), 2, "n=0"),
        (("azuma-empirical", "n=-5"), 2, "n=-5"),
        (("hmin-accumulated", "trials=0"), 2, "trials=0"),
        (("hmin-accumulated", "n=0"), 2, "n=0"),
        (("hmin-accumulated", "n=-5"), 2, "n=-5"),
        # the ddof=1 stderr needs two samples
        (("hd-mc", "samples=0"), 2, "samples=0"),
        (("hd-mc", "samples=1"), 2, "samples=1"),
        (("hd-mc", "samples=-3"), 2, "samples=-3"),
        # honest runs need a qubit and a run
        (("commitment-honest", "n=0"), 2, "n=0"),
        (("commitment-honest", "n=-3"), 2, "n=-3"),
        (("commitment-honest", "runs=0"), 2, "runs=0"),
        (("ot12-honest", "runs=0"), 2, "runs=0"),
        # the sweeps draw set sizes from [1, max_set], max_set <= 2^n
        (("uncertainty-two-basis", "n=-1"), 2, "n=-1"),
        (("uncertainty-two-basis", "max_set=-1"), 2, "max_set=-1"),
        (("uncertainty-two-basis", "n=2", "max_set=9"), 2, "max_set=9"),
        (("uncertainty-two-basis", "max_set=0"), 2, "max_set=0"),
        (("uncertainty-two-basis", "n=2", "max_set=4", "trials=2"), 0,
         None),
        (("uncertainty-two-basis", "trials=0"), 2, "trials=0"),
        (("uncertainty-multi-mub", "trials=0"), 2, "trials=0"),
        (("second-relation", "trials=0"), 2, "trials=0"),
        (("second-relation", "trials=-1"), 2, "trials=-1"),
        # an empty sweep certifies nothing
        (("lhl-classical", "distributions=0"), 2, "distributions=0"),
        (("maassen-uffink", "trials=0"), 2, "trials=0"),
        (("uncertainty-tight-cases", "n_max=1"), 2, "n_max=1"),
        # every string parameter is one of its experiment's choices
        (("binding", "mode=bogus"), 2, "unknown mode"),
        (("qkd-rate-check", "eve=bogus"), 2, "unknown eve "),
        (("splitting-reduction", "channel=bogus"), 2, "unknown channel"),
        (("qkd-rate-check", "eve=store_subset", "eve_param=abc"), 2,
         "bad value for eve_param"),
        (("qkd-rate-check", "eve=store_subset", "eve_param=-1"), 2,
         "eve_param=-1"),
        (("qkd-rate-check", "eve=intercept_resend", "eve_param=bogus"), 2,
         "unknown eve_param"),
        (("qkd-run", "alphabet=bogus"), 2, "unknown alphabet 'bogus'; choose"),
        (("sender-security", "protocol=bogus"), 2,
         "unknown protocol 'bogus'; choose"),
        # the accumulated min-entropy statement needs lam in (0, 1/2)
        (("hmin-accumulated", "lam=4"), 2, "lam must be in (0, 1/2)"),
        (("hmin-accumulated", "lam=0.5"), 2, "lam must be in (0, 1/2)"),
        # a parameter the chosen eavesdropper ignores is refused
        (("qkd-rate-check", "eve=trivial", "eve_param=abc"), 2,
         "eve_param=abc"),
    ])
    def test_library_errors_exit_2_with_json(self, params, code, named,
                                             tmp_path, capsys):
        exp, *kvs = params
        if exp == "--config":
            cfg = tmp_path / "spec.json"
            if kvs[0] is not None:
                cfg.write_text(kvs[0])
            args = ["--config", str(cfg)]
        else:
            args = ["-e", exp, "--seed", "1"]
            for kv in kvs:
                args += ["-p", kv]
        # no exception escapes main
        assert main(args) == code
        err = capsys.readouterr().err
        if named is not None:
            assert named in json.loads(err.splitlines()[-1])["error"]

    def test_purification_at_odd_n(self, capsys):
        # the alternating fixed-basis strategy needs one basis per qubit
        assert main(["-e", "purification-equivalence", "--seed", "1",
                     "-p", "n=5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == 0
        assert "measure_fixed" in {r["strategy"] for r in out["rows"]}

    def test_bound_violation_exit_code(self, tmp_path, monkeypatch):
        # a synthetic failing experiment exercises the CI gate
        from bqsm import cli as climod
        climod.REGISTRY["always-fails"] = (
            lambda seed: {"rows": [{"bad": 1}], "violations": 1}, {})
        try:
            code = climod.main(["-e", "always-fails", "--seed", "1",
                                "--out", str(tmp_path / "x.json")])
            assert code == 3
        finally:
            climod.REGISTRY.pop("always-fails")

    def test_memory_error_exits_2_with_json(self, monkeypatch, capsys):
        # an allocation failure follows the exit-2 JSON error contract
        from bqsm import cli as climod

        def exhausted(seed, n=4, q=1):
            raise MemoryError

        monkeypatch.setitem(climod.REGISTRY, "pa-quantum",
                            (exhausted, climod.REGISTRY["pa-quantum"][1]))
        code = main(["-e", "pa-quantum", "--seed", "1", "-p", "n=12"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error.startswith("pa-quantum ran out of memory")
        assert "lower its size parameter (n, q, ell)" in error

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": "hd-table",
                                   "seed": 4}))
        res = run_cli("--config", str(cfg))
        assert res.returncode == 0
        assert "h_d" in res.stdout

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["-e", "hd-table", "--seed", "1", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("d,")
        # 12 significant digits, point decimal
        assert "0.721347520444" in text
