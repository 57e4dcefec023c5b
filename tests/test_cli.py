import json
import math
import threading
import time
from pathlib import Path

import pytest

from chaindyn import cli

SPECS = Path(__file__).resolve().parent.parent / "specs"


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
            ("map: identity\ngeometry: interval\ngrid_n: true\n", "grid_n"),
        ],
    )
    def test_malformed_spec_is_a_validation_error(self, tmp_path, capsys, spec_text, field):
        spec = write_spec(tmp_path, "name: bad\n" + spec_text)
        code = cli.main(["recurrence", "--spec", spec])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ValidationError:")
        assert field in err

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


class TestOncePerRequest:
    def test_spec_is_parsed_once(self, doubling_spec, capsys, monkeypatch):
        from chaindyn import systems

        calls = []
        safe_load = systems.yaml.safe_load
        monkeypatch.setattr(
            systems.yaml, "safe_load", lambda fh: calls.append(1) or safe_load(fh)
        )
        code, _ = run_cli(["graph", "--spec", doubling_spec], capsys)
        assert code == 0
        assert len(calls) == 1

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


class TestResourceLimits:
    @pytest.mark.parametrize(
        "spec_text",
        [
            "map: odometer\ngeometry: discrete\nparams: [40]\n",
            "map: identity\ngeometry: interval\ngrid_n: 1000000000\n",
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
