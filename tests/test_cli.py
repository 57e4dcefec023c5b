import hashlib
import json
import math
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from chaindyn import cli
from chaindyn.uniform import MAX_POINTS

SPECS = Path(__file__).resolve().parent.parent / "specs"
#: SHA-256 of the machine report of each listed request, recorded once.
DIGESTS = json.loads((Path(__file__).resolve().parent / "golden" / "digests.json").read_text())


def write_spec(tmp_path, text, name="system.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


GOLDEN = (math.sqrt(5) - 1) / 2


@pytest.fixture
def rotation_spec(tmp_path):
    return write_spec(
        tmp_path,
        f"name: golden\nmap: rotation\ngeometry: circle\ngrid_n: 128\n"
        f"params: [{GOLDEN!r}]\n",
    )


@pytest.fixture
def doubling_spec(tmp_path):
    return write_spec(
        tmp_path,
        "name: doubling\nmap: doubling\ngeometry: circle\ngrid_n: 64\n",
        name="doubling.yaml",
    )


class TestCommands:
    def test_chains_on_golden_rotation(self, rotation_spec, capsys):
        code, out = run_cli(
            ["chains", "--spec", rotation_spec, "--format", "machine"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]["chains"]
        assert res["chain_transitive"] is True
        assert res["period"] == 1
        assert res["classes"] == [list(range(128))]
        assert res["chain_recurrent_is_all"] is True

    def test_mixing_on_two_point_half_rotation(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "name: half\nmap: rotation\ngeometry: circle\ngrid_n: 2\nparams: [0.5]\n",
        )
        code, out = run_cli(
            ["mixing", "--spec", spec, "--epsilon", "0.2", "--format", "machine"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["mixing"]
        assert res["chain_mixing"] is False
        assert res["period"] == 2
        assert res["totally_chain_transitive"] is False  # f^2 is the identity
        assert res["cross_check_consistent"] is True

    def test_dichotomy_agreement_both_ways(self, tmp_path, capsys):
        from chaindyn import cantor_space

        coords = [p[0] for p in cantor_space(3).points]
        cantor_spec = write_spec(
            tmp_path,
            "name: cantor3\nmap: identity\ngeometry: discrete\npoints: "
            + json.dumps(coords)
            + "\n",
            name="cantor.yaml",
        )
        code, out = run_cli(
            [
                "dichotomy", "--spec", cantor_spec,
                "--epsilon", "0.03", "--seed", "1", "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["dichotomy"]
        assert res["totally_disconnected_at_scale"] is True
        assert res["modulus_found"] is True
        assert res["agreement"] is True

        interval_spec = write_spec(
            tmp_path,
            "name: grid\nmap: identity\ngeometry: interval\ngrid_n: 101\n",
            name="interval.yaml",
        )
        code, out = run_cli(
            [
                "dichotomy", "--spec", interval_spec,
                "--epsilon", "0.02", "--seed", "1", "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["dichotomy"]
        assert res["connected_at_scale"] is True
        assert res["modulus_found"] is False
        assert res["agreement"] is True

    def test_full_report_has_every_stage(self, doubling_spec, capsys):
        code, out = run_cli(
            ["full", "--spec", doubling_spec, "--seed", "7", "--format", "machine"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["results"]) == {
            "axioms", "graph", "chains", "mixing", "diameter",
            "shadowing", "recurrence",
        }
        assert doc["schema_version"] == "1"
        assert doc["provenance"]["seed"] == 7

    def test_full_text_report_lists_stages_in_dispatch_order(
        self, doubling_spec, capsys
    ):
        code, out = run_cli(["full", "--spec", doubling_spec, "--seed", "7"], capsys)
        assert code == 0
        headers = [ln.strip("[]") for ln in out.splitlines() if ln.startswith("[")]
        assert headers == [
            "axioms", "graph", "chains", "mixing", "diameter",
            "shadowing", "recurrence",
        ]

    def test_omega_command(self, rotation_spec, capsys):
        code, out = run_cli(
            [
                "omega", "--spec", rotation_spec, "--x", "5",
                "--horizon", "400", "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["omega"]
        assert res["x"] == 5
        assert res["transient"] == 200
        assert len(res["omega_limit"]) > 0

    def test_diameter_negative_finding_exits_zero(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "name: sq\nmap: square\ngeometry: interval\ngrid_n: 32\n"
        )
        code, out = run_cli(
            ["diameter", "--spec", spec, "--format", "machine"], capsys
        )
        assert code == 0
        res = json.loads(out)["results"]["diameter"]
        assert res["defined"] is False
        assert res["reason"] == "not chain transitive"


class TestDeterminismAndRendering:
    def test_identical_requests_render_identically(self, doubling_spec, capsys):
        args = ["full", "--spec", doubling_spec, "--seed", "7", "--format", "machine"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_text_format_marks_none(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "name: sq\nmap: square\ngeometry: interval\ngrid_n: 16\n"
        )
        code, out = run_cli(["diameter", "--spec", spec], capsys)
        assert code == 0
        assert "diameter: none" in out

    def test_machine_report_is_sorted_json(self, rotation_spec, capsys):
        _, out = run_cli(
            ["graph", "--spec", rotation_spec, "--format", "machine"], capsys
        )
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_out_flag_writes_file(self, rotation_spec, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(
            [
                "graph", "--spec", rotation_spec,
                "--format", "machine", "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "graph"

    def test_dump_graph_edges(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "name: half\nmap: rotation\ngeometry: circle\ngrid_n: 2\nparams: [0.5]\n"
        )
        dump = tmp_path / "edges.txt"
        code, _ = run_cli(
            [
                "graph", "--spec", spec, "--epsilon", "0.2",
                "--dump-graph", str(dump), "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        assert dump.read_text() == "0 1\n1 0\n"

    def test_thread_count_does_not_change_bytes(self, doubling_spec, capsys, monkeypatch):
        args = ["chains", "--spec", doubling_spec, "--format", "machine"]
        monkeypatch.setenv("CHAINDYN_THREADS", "1")
        _, single = run_cli(args, capsys)
        monkeypatch.setenv("CHAINDYN_THREADS", "8")
        _, pooled = run_cli(args, capsys)
        assert single == pooled


class TestBundledSpecs:
    # the files shipped under specs/ stay loadable and analyzable

    def test_golden_chains(self, capsys):
        code, out = run_cli(
            ["chains", "--spec", str(SPECS / "golden.yaml"), "--format", "machine"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["chains"]
        assert res["chain_transitive"] is True and res["period"] == 1

    def test_cantor_dichotomy(self, capsys):
        code, out = run_cli(
            ["dichotomy", "--spec", str(SPECS / "cantor3.yaml"), "--format", "machine"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["dichotomy"]
        assert res["agreement"] is True
        assert res["totally_disconnected_at_scale"] is True

    def test_doubling_full(self, capsys):
        code, out = run_cli(
            ["full", "--spec", str(SPECS / "doubling.yaml"), "--format", "machine"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["provenance"]["seed"] == 7


class TestMoreCommands:
    def test_axioms_command(self, rotation_spec, capsys):
        code, out = run_cli(
            ["axioms", "--spec", rotation_spec, "--basis", "5", "--format", "machine"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["axioms"]
        assert res["all_ok"] is True
        assert len(res["levels"]) == 6  # five dyadic levels plus the floor

    def test_recurrence_command(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "name: sq\nmap: square\ngeometry: interval\ngrid_n: 64\n"
        )
        code, out = run_cli(
            ["recurrence", "--spec", spec, "--horizon", "200", "--format", "machine"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]["recurrence"]
        assert res["omega"] == [0, 1, 2, 57, 58, 59, 60, 61, 62, 63]
        assert res["omega_is_all"] is False
        assert res["subset_of_chain_recurrent"] is False  # square-map transit artifacts

    def test_golden_machine_report(self, tmp_path, capsys, monkeypatch):
        # byte-stable contract: the checked-in golden file from the first
        # certified run must be reproduced exactly
        spec = write_spec(
            tmp_path,
            "name: doubling64\nmap: doubling\ngeometry: circle\ngrid_n: 64\n",
        )
        monkeypatch.setenv("CHAINDYN_THREADS", "1")
        _, out = run_cli(
            ["full", "--spec", spec, "--seed", "7", "--format", "machine"], capsys
        )
        golden = (
            Path(__file__).resolve().parent / "golden" / "full_doubling64_seed7.json"
        )
        assert out == golden.read_text()

    @pytest.mark.parametrize(
        "request_",
        DIGESTS["requests"],
        ids=[" ".join([r["spec"], *r["argv"]]) for r in DIGESTS["requests"]],
    )
    def test_report_digest(self, request_, tmp_path):
        # reports past the benchmark's sizes: forced cycles longer than the
        # horizon, and Cantor levels below the gap
        spec = request_["spec"]
        if spec in DIGESTS["specs"]:
            spec = write_spec(tmp_path, DIGESTS["specs"][spec])
        else:
            spec = str(SPECS.parent / spec)
        command, *flags = request_["argv"]
        out = tmp_path / "report.json"
        argv = [command, "--spec", spec, *flags, "--format", "machine", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == request_["sha256"]


class TestErrorsAndDefaults:
    def test_module_error_exits_one(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "name: bad\nmap: rotation\ngeometry: interval\ngrid_n: 8\nparams: [0.3]\n",
        )
        code = cli.main(["graph", "--spec", spec])
        err = capsys.readouterr().err
        assert code == 1
        assert "ValidationError" in err

    @pytest.mark.parametrize(
        "spec_text, field",
        [
            ("map: rotation\ngeometry: circle\ngrid_n: 8\nparams: [abc]\n", "params"),
            ("map: permutation\ngeometry: discrete\ngrid_n: 4\ncycles: [[0, a]]\n", "cycle"),
            ("map: identity\ngeometry: discrete\npoints: 5\n", "points"),
            (
                "map: identity\ngeometry: interval\ngrid_n: 8\nanalysis: {horizon: abc}\n",
                "analysis.horizon",
            ),
            (
                "map: doubling\ngeometry: circle\ngrid_n: 16\nanalysis: {horizn: 50, sed: 3}\n",
                "analysis.horizn",
            ),
            (  # a misspelt table is refused, not dropped
                "map: doubling\ngeometry: circle\ngrid_n: 16\nanalyis: {seed: 7, horizon: 50}\n",
                "unknown key analyis",
            ),
            ("map: identity\ngeometry: interval\ngrid_n: true\n", "grid_n"),
            ("map: permutation\ngeometry: circle\ngrid_n: 4\ncycles: [[0, 1]]\n", "geometry"),
        ],
    )
    def test_malformed_spec_is_a_validation_error(self, tmp_path, capsys, spec_text, field):
        spec = write_spec(tmp_path, "name: bad\n" + spec_text)
        code = cli.main(["recurrence", "--spec", spec])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ValidationError:") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "command, extra_spec, flags",
        [("graph", "", ["--epsilon", "nan"]), ("axioms", "analysis: {epsilon: .inf}\n", [])],
    )
    def test_non_finite_epsilon_exits_one(self, tmp_path, capsys, command, extra_spec, flags):
        # NaN and infinity are not JSON numbers, so no report may echo them
        spec = write_spec(
            tmp_path, "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 16\n" + extra_spec)
        code = cli.main([command, "--spec", spec, "--format", "machine", *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: InvalidParameterError: epsilon")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("omega", ["--nmax", "-5000"]),
            ("graph", ["--trials", "0", "--nmax", "0"]),
            ("recurrence", ["--horizon", "0"]),
            ("axioms", ["--basis", "-1"]),
        ],
    )
    def test_knob_below_one_exits_one(self, tmp_path, capsys, command, flags):
        # refused for every command, before the knob's cost is computed
        spec = write_spec(tmp_path, "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 64\n")
        code = cli.main([command, "--spec", spec, *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: InvalidParameterError: {flags[-2]} must be >= 1")

    @pytest.mark.parametrize(
        "flag, key",
        [("--out", "out"), ("--dump-graph", "dump_graph")],
        ids=["out", "dump-graph"],
    )
    @pytest.mark.parametrize("from_spec", [False, True], ids=["flag", "spec"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, flag, key, from_spec):
        target = str(tmp_path / "missing" / "r.txt")
        analysis = f"analysis: {{{key}: '{target}'}}\n" if from_spec else ""
        spec = write_spec(
            tmp_path, "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 16\n" + analysis)
        code = cli.main(["graph", "--spec", spec] + ([] if from_spec else [flag, target]))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: FileNotFoundError:")
        assert captured.err.count("\n") == 1 and target in captured.err

    def test_exponent_without_dot_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-1 as a string; the loader still takes it as a float
        spec = write_spec(
            tmp_path,
            "name: r\nmap: rotation\ngeometry: circle\ngrid_n: 8\nparams: [1e-1]\n"
            "analysis: {epsilon: 25e-2}\n",
        )
        code, out = run_cli(["graph", "--spec", spec, "--format", "machine"], capsys)
        assert code == 0
        assert json.loads(out)["request"]["epsilon"] == 0.25

    def test_seed_required_for_stochastic_commands(self, doubling_spec):
        with pytest.raises(SystemExit) as exc:
            cli.main(["shadowing", "--spec", doubling_spec])
        assert exc.value.code == 2

    def test_spec_file_supplies_seed(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 32\n"
            "analysis:\n  seed: 5\n  trials: 3\n  horizon: 20\n",
        )
        code, out = run_cli(
            ["shadowing", "--spec", spec, "--format", "machine"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 5
        assert doc["request"]["trials"] == 3

    def test_flag_overrides_file(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 32\n"
            "analysis:\n  seed: 5\n  horizon: 20\n",
        )
        code, out = run_cli(
            [
                "shadowing", "--spec", spec, "--seed", "9",
                "--trials", "2", "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 9
        assert doc["request"]["horizon"] == 20  # file value survives

    def test_garbage_thread_env_falls_back_to_one(self, monkeypatch):
        from chaindyn import _parallel

        monkeypatch.setenv("CHAINDYN_THREADS", "many")
        assert _parallel.thread_count() == 1
        monkeypatch.setenv("CHAINDYN_THREADS", "0")
        assert _parallel.thread_count() == 1
        monkeypatch.setenv("CHAINDYN_THREADS", "3")
        assert _parallel.thread_count() == 3

    def test_ordered_map_runs_in_the_calling_thread(self, monkeypatch):
        from chaindyn import _parallel

        monkeypatch.setenv("CHAINDYN_THREADS", "8")
        caller = threading.get_ident()
        assert _parallel.ordered_map(lambda _: threading.get_ident(), range(16)) == [caller] * 16

    def test_epsilon_defaults_to_twice_resolution(self, doubling_spec, capsys):
        _, out = run_cli(
            ["graph", "--spec", doubling_spec, "--format", "machine"], capsys
        )
        doc = json.loads(out)
        assert doc["request"]["epsilon"] == pytest.approx(2 / 64)


#: Per request option: its built-in default, a table value and a flag value, all distinct
#: where the option allows (on doubling-16, where the default epsilon 2h is 0.125).
OPTION_VALUES = {
    "epsilon": (0.125, 0.25, 0.375),
    "basis": (8, 6, 5),
    "horizon": (100, 40, 30),
    "trials": (20, 4, 3),
    "seed": (None, 5, 9),
    "nmax": (4, 3, 2),
    "x": (0, 1, 2),
    "format": ("text", "machine", "text"),
    "out": (None, "table.txt", "flag.txt"),
    "dump_graph": (None, "table.txt", "flag.txt"),
}


class TestRequestOptions:
    """Each option comes from its flag, else the spec's analysis table, else its default."""

    @staticmethod
    def effective(key, table, flag, tmp_path, capsys):
        """The value of option ``key`` in a graph request, as its report or files show it."""
        run = tmp_path / str(len(list(tmp_path.iterdir())))
        run.mkdir()
        files = key in ("out", "dump_graph")  # their values name files in the run's folder
        text = "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 16\n"
        if table is not None:
            value = "~" if table == "~" else json.dumps(str(run / table) if files else table)
            text += f"analysis: {{{key}: {value}}}\n"
        argv = ["graph", "--spec", write_spec(run, text, name="spec.yaml")]
        if key != "format":
            argv += ["--format", "machine"]
        if flag is not None:
            argv += ["--" + key.replace("_", "-"), str(run / flag if files else flag)]
        code, out = run_cli(argv, capsys)
        assert code == 0
        if key == "format":
            return "machine" if out.startswith("{") else "text"
        if files:
            written = [f.name for f in run.iterdir() if f.name != "spec.yaml"]
            assert len(written) <= 1 and (out == "") == (key == "out" and written != [])
            return written[0] if written else None
        return json.loads(out)["request"][{"basis": "basis_levels", "nmax": "n_max"}.get(key, key)]

    @pytest.mark.parametrize("key", list(OPTION_VALUES))
    def test_flag_then_table_then_default(self, key, tmp_path, capsys):
        default, table, flag = OPTION_VALUES[key]
        assert self.effective(key, None, None, tmp_path, capsys) == default
        assert self.effective(key, table, None, tmp_path, capsys) == table
        assert self.effective(key, table, flag, tmp_path, capsys) == flag
        assert self.effective(key, "~", None, tmp_path, capsys) == default

    def test_flags_are_the_option_table(self):
        from chaindyn.systems import ANALYSIS_OPTIONS

        parser = cli._build_parser()
        flags = [a.dest for a in parser._actions if a.option_strings]
        assert flags == ["help", "spec", *ANALYSIS_OPTIONS]
        assert list(OPTION_VALUES) == list(ANALYSIS_OPTIONS)


class TestOncePerRequest:
    def test_spec_is_parsed_once(self, doubling_spec, capsys, monkeypatch):
        from chaindyn import systems

        # parse_spec makes one yaml.load call per parse, with the module's loader
        calls = []
        load = systems.yaml.load
        monkeypatch.setattr(
            systems.yaml, "load",
            lambda fh, Loader: calls.append(Loader) or load(fh, Loader=Loader),
        )
        code, _ = run_cli(["graph", "--spec", doubling_spec], capsys)
        assert code == 0
        assert calls == [systems._LOADER]

    def test_one_parser_serves_every_request(self, doubling_spec, capsys):
        assert cli._build_parser() is cli._build_parser()
        args = ["graph", "--spec", doubling_spec, "--format", "machine"]
        _, coarse = run_cli([*args, "--epsilon", "0.25"], capsys)
        _, default = run_cli(args, capsys)
        assert json.loads(coarse)["request"]["epsilon"] == 0.25
        assert json.loads(default)["request"]["epsilon"] == pytest.approx(2 / 64)

    def test_full_builds_each_artifact_once(self, doubling_spec, tmp_path, capsys, monkeypatch):
        counts = {}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("make_epsilon_entourage", "dyadic_basis", "build_transition_graph"):
            counted(name)
        dump = tmp_path / "edges.txt"
        code, out = run_cli(
            [
                "full", "--spec", doubling_spec, "--seed", "7", "--trials", "2",
                "--horizon", "8", "--dump-graph", str(dump), "--format", "machine",
            ],
            capsys,
        )
        assert code == 0
        assert counts == {
            "make_epsilon_entourage": 1, "dyadic_basis": 1, "build_transition_graph": 1,
        }
        edges = json.loads(out)["results"]["graph"]["edges"]
        assert len(dump.read_text().splitlines()) == edges

    def test_mixing_builds_n_max_graphs(self, rotation_spec, capsys, monkeypatch):
        # one row build per graph: f for the request, f^2..f^n_max for the mixing stage
        from chaindyn import chaingraph

        calls = []
        build = chaingraph.build_transition_graph

        def counted(system, d):
            calls.append(system.power)
            return build(system, d)

        monkeypatch.setattr(cli, "build_transition_graph", counted)
        monkeypatch.setattr(chaingraph, "build_transition_graph", counted)
        code, out = run_cli(
            ["mixing", "--spec", rotation_spec, "--nmax", "5", "--format", "machine"], capsys)
        assert code == 0
        # every iterate is transitive, so none is skipped by a short circuit
        assert json.loads(out)["results"]["mixing"]["totally_chain_transitive"]
        assert calls == [1, 2, 3, 4, 5]

    def test_mixing_runs_tarjan_once_per_graph(self, rotation_spec, capsys, monkeypatch):
        # the request's own pass serves f; f^2..f^n_max are answered by two
        # sweeps each and run no Tarjan pass
        from chaindyn import chaingraph

        calls = []
        scc = chaingraph.strongly_connected_components

        def counted(g):
            calls.append(g.source[1])
            return scc(g)

        monkeypatch.setattr(chaingraph, "strongly_connected_components", counted)
        code, out = run_cli(
            ["mixing", "--spec", rotation_spec, "--nmax", "5", "--format", "machine"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["mixing"]["totally_chain_transitive"]
        assert len(calls) == 1 and "|f^" not in calls[0]

    def test_mixing_applies_the_map_n_times_per_graph(self, rotation_spec, capsys, monkeypatch):
        # each k-fold image is the (k-1)-fold one stepped once: n * n_max
        # applications of the rotation formula, where rebuilding every image
        # from its grid point takes n * (1 + 2 + ... + n_max).  The angle counts
        # them: the formula adds it to a float, which calls its __radd__.
        applications = []

        class CountedAngle(float):
            def __radd__(self, other):
                applications.append(1)
                return other + float(self)

        load = cli.load_system

        def counted_load(*args):
            system = load(*args)
            return replace(system, params=(CountedAngle(system.params[0]),))

        monkeypatch.setattr(cli, "load_system", counted_load)
        code, out = run_cli(
            ["mixing", "--spec", rotation_spec, "--nmax", "5", "--format", "machine"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["mixing"]["totally_chain_transitive"]
        assert len(applications) == 128 * 5


class TestResourceLimits:
    @pytest.mark.parametrize(
        "spec_text",
        [
            "map: odometer\ngeometry: discrete\nparams: [40]\n",
            "map: identity\ngeometry: interval\ngrid_n: 1000000000\n",
            # 4097 * 4096 / 2 circle pair distances exceed MAX_ORBIT_CELLS
            pytest.param(
                "map: identity\ngeometry: circle\npoints: [%s]\n"
                % ", ".join(repr(k / 4097) for k in range(4097)),
                id="circle-points-4097",
            ),
        ],
    )
    def test_oversized_space_is_refused_at_once(self, tmp_path, capsys, spec_text):
        spec = write_spec(tmp_path, "name: big\n" + spec_text)
        start = time.perf_counter()
        code = cli.main(["graph", "--spec", spec])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ResourceLimitError:")
        assert elapsed < 1.0

    def test_long_horizon_is_refused_at_once(self, tmp_path, capsys):
        assert MAX_POINTS * 100 <= cli.MAX_ORBIT_CELLS  # the default horizon fits any space
        spec = write_spec(tmp_path, "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 16\n")
        start = time.perf_counter()
        code = cli.main(["recurrence", "--spec", spec, "--horizon", "1000000000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ResourceLimitError:")
        assert "--horizon" in err
        assert elapsed < 1.0

    def test_dichotomy_trials_are_charged_its_orbit_length(self, tmp_path, capsys):
        # the dichotomy walks 100-step orbits whatever --horizon says, so a
        # one-step horizon admits no more trials
        cycles = [[k, k + 1] for k in range(0, 64, 2)]
        spec = write_spec(
            tmp_path, f"name: p\nmap: permutation\ngeometry: discrete\ngrid_n: 64\ncycles: {cycles}\n")
        argv = ["dichotomy", "--spec", spec, "--seed", "1", "--horizon", "1"]
        assert cli.DICHOTOMY_LENGTH == 100
        start = time.perf_counter()
        code = cli.main([*argv, "--trials", "1000000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ResourceLimitError:")
        assert "--trials" in err[0] and "orbit length 100" in err[0]
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--nmax", "1000000"), ("--basis", "1000000"), ("--trials", "1000000000")],
    )
    def test_large_knob_is_refused_at_once(self, tmp_path, capsys, flag, value):
        # every default fits the largest space
        cost = {"--nmax": MAX_POINTS * 4 * 4 // 2, "--basis": MAX_POINTS * 8 * 8,
                "--trials": (20 + 1) * 8 * 100}
        assert cost[flag] <= cli.MAX_ORBIT_CELLS
        spec = write_spec(tmp_path, "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 16\n")
        start = time.perf_counter()
        code = cli.main(["full", "--spec", spec, "--seed", "1", flag, value])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ResourceLimitError:")
        assert flag in err
        assert elapsed < 1.0
