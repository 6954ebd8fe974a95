"""CLI surface: exit codes, report schema, output formats, determinism."""

import contextlib
import io
import json
import subprocess
import sys
from math import gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_shor import semiprime_and_base

import _dense
from _helpers import (
    BEYOND_PAPER_ROWS,
    graded_modexp,
    package_env,
    rank_oracle_for_bond,
    reference_sample_report,
)

from shormps import __version__, cli, oracle, shor
from shormps.numtheory import (
    MAX_MODULUS,
    OrderSearchCapError,
    SemiprimeInstance,
    is_probable_prime,
    multiplicative_order,
)
from shormps.shor import MAX_SIMULATED_MODULUS


def run_cli(argv):
    return cli.main(argv)


# 402 digits: beyond the float range of the prime-power test's roots
HUGE_N = "1" + "0" * 400 + "1"
# just above and just below the simulated range n < 2^31
ABOVE_2_31 = 3 * 715827883  # 2^31 + 1
MERSENNE_31 = (1 << 31) - 1  # prime


class TestSample:
    def test_basic_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            ["sample", "--n", "21", "--a", "2", "--samples", "5", "--layout",
             "dynamic", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["instance"] == {"n": 21, "a": 2, "l": 5, "p": None, "q": None}
        records = report["layouts"]["dynamic"]["records"]
        assert len(records) == 5
        for rec in records:
            assert rec["alpha_hat"] == 1
            assert 0 <= rec["measured_s"] < 1024

    def test_random_base_echoed(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "21", "--samples", "2", "--seed", "3",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        a = report["instance"]["a"]
        assert 1 < a < 21 and a not in (3, 7, 9, 12, 15, 18, 14, 6)
        assert all(rec["a"] == a for rec in report["layouts"]["dynamic"]["records"])

    def test_comb_histogram(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "15", "--a", "7", "--samples", "200",
                        "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        hist = report["layouts"]["dynamic"]["aggregate"]["s_histogram"]
        assert set(hist) <= {"0", "256", "512", "768"}
        assert report["layouts"]["dynamic"]["aggregate"]["tvd_vs_oracle"] is not None

    def test_both_layouts(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "15", "--a", "7", "--samples", "2",
                        "--seed", "1", "--layout", "both", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["layouts"]) == {"static", "dynamic"}

    def test_order_profile_with_factors(self, tmp_path):
        # n = 1943 has d_p != d_q, so it tells a swap of the two apart
        cases = [
            (("21", "2", "3", "7"),
             {"r": 6, "alpha": 1, "beta": 3, "lambda_n": 6, "dp": 1, "dq": 1}),
            (("1943", "2", "29", "67"),
             {"r": 924, "alpha": 2, "beta": 231, "lambda_n": 924, "dp": 2, "dq": 1}),
        ]
        out = tmp_path / "r.json"
        for (n, a, p, q), want in cases:
            assert run_cli(["sample", "--n", n, "--a", a, "--p", p, "--q", q,
                            "--samples", "1", "--seed", "0", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["order_profile"] == want

    def test_invalid_n_prime(self):
        assert run_cli(["sample", "--n", "13", "--samples", "1"]) == 2

    def test_invalid_n_prime_power(self):
        assert run_cli(["sample", "--n", "27", "--samples", "1"]) == 2

    def test_invalid_n_even(self):
        assert run_cli(["sample", "--n", "22", "--samples", "1"]) == 2

    def test_memory_limit_exit_code(self):
        code = run_cli(["sample", "--n", "21", "--a", "2", "--samples", "1",
                        "--seed", "0", "--max-elements", "10"])
        assert code == 3

    def test_memory_limit_keeps_requested_base(self, capsys):
        # a guard trip ends the run; no other base is sampled in its place
        code = run_cli(["sample", "--n", "247", "--a", "2", "--samples", "1",
                        "--seed", "0", "--max-elements", "1000"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: modexp: 1119 elements would exceed the limit 1000\n"

    def test_memory_limit_bounds_qft(self, tmp_path, capsys, monkeypatch):
        # the graded stages hold less than modexp's final chain (182 elements
        # here), so no single limit passes modexp and trips them; lifting
        # modexp's own limit exposes their guards: "measure" holds 39
        # elements of residue counts, "qft" 63 with its complex vectors
        modexp = shor.run_modexp
        monkeypatch.setattr(shor, "run_modexp", lambda lower, inst, layouts, max_elements:
                            modexp(lower, inst, layouts))
        argv = ["sample", "--n", "21", "--a", "2", "--layout", "dynamic", "--samples",
                "5", "--seed", "0", "--max-elements"]
        assert run_cli(argv + ["38"]) == 3
        assert capsys.readouterr().err == "error: measure: 39 elements would exceed the limit 38\n"
        assert run_cli(argv + ["62"]) == 3
        assert capsys.readouterr().err == "error: qft: 63 elements would exceed the limit 62\n"
        out = tmp_path / "r.json"
        assert run_cli(argv + ["63", "--out", str(out)]) == 0
        peaks = json.loads(out.read_text())["layouts"]["dynamic"]["aggregate"][
            "peak_elements_per_stage"]
        assert (peaks["measure"], peaks["qft"]) == (39, 63)

    def test_memory_limit_bounds_the_whole_run(self, tmp_path, capsys):
        # the sample peak is modexp's: a limit at it passes, one below trips modexp
        argv = ["sample", "--n", "21", "--a", "2", "--layout", "dynamic", "--samples",
                "5", "--seed", "0", "--max-elements"]
        assert run_cli(argv + ["181"]) == 3
        assert capsys.readouterr().err.startswith("error: modexp: 182 elements")
        out = tmp_path / "r.json"
        assert run_cli(argv + ["182", "--out", str(out)]) == 0
        peaks = json.loads(out.read_text())["layouts"]["dynamic"]["aggregate"][
            "peak_elements_per_stage"]
        assert max(peaks.values()) == peaks["modexp"] == 182

    def test_reference_law_computed_once(self, tmp_path, monkeypatch):
        # the order is found once for both layouts, and the law is evaluated
        # at each layout's sampled outcomes, never as a Q-length table
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return multiplicative_order(*args, **kwargs)

        def banned(*args, **kwargs):
            raise AssertionError("Q-length table built for the report")

        monkeypatch.setattr(cli, "multiplicative_order", counted)
        monkeypatch.setattr(cli, "exact_distribution", banned)
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "21", "--a", "2", "--samples", "3", "--seed", "1",
                        "--layout", "both", "--out", str(out)]) == 0
        assert calls == [(2, 21)]
        report = json.loads(out.read_text())
        table = oracle.exact_distribution(5, 6)
        for layout in ("static", "dynamic"):
            aggregate = report["layouts"][layout]["aggregate"]
            counts = np.zeros(len(table))
            for s, c in aggregate["s_histogram"].items():
                counts[int(s)] = c
            assert aggregate["order_r"] == 6
            assert aggregate["tvd_vs_oracle"] == pytest.approx(_dense.tvd(table, counts),
                                                               abs=1e-12)

    def test_reference_law_at_l13_builds_no_table(self, tmp_path, monkeypatch):
        # Q = 2^26 is within the default --dense-cap, so the report has the law,
        # evaluated at the sampled outcomes alone
        def banned(*args, **kwargs):
            raise AssertionError("Q-length table built for the report")

        monkeypatch.setattr(cli, "exact_distribution", banned)
        monkeypatch.setattr(oracle, "exact_distribution", banned)
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "8189", "--a", "10", "--samples", "2", "--seed", "1",
                        "--layout", "both", "--out", str(out)]) == 0
        for block in json.loads(out.read_text())["layouts"].values():
            aggregate = block["aggregate"]
            assert aggregate["order_r"] == 3870
            assert 0 <= aggregate["tvd_vs_oracle"] <= 1

    def test_csv_rejected_for_sample(self, capsys):
        assert run_cli(["sample", "--n", "21", "--a", "2", "--samples", "1",
                        "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: --format must be one of json, got 'csv'\n"

    def test_sample_runs_no_svd(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", broken)
        out = tmp_path / "r.json"
        assert run_cli(["sample", "--n", "21", "--a", "2", "--samples", "3",
                        "--layout", "both", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["layouts"]["static"]["records"]) == 3


# one JSON-report call per command; the sample call reaches every report field
REPORT_COMMANDS = [
    ["sample", "--n", "21", "--a", "2", "--p", "3", "--q", "7", "--samples", "20",
     "--seed", "5", "--layout", "both"],
    ["profile", "--n", "247", "--a", "2", "--layout", "both"],
    ["oracle", "--l", "5", "--r", "6"],
    ["verify-paper"],
]


@pytest.fixture
def dumped(monkeypatch):
    """The objects ``cli._dump_json`` serializes, in call order."""
    objs = []
    dump = cli._dump_json

    def recording(obj):
        objs.append(obj)
        return dump(obj)

    monkeypatch.setattr(cli, "_dump_json", recording)
    return objs


@contextlib.contextmanager
def captured_calls():
    """The ``shor.SampleCall`` views of each ``cli.sample_runs`` call, by layout."""
    calls = {}
    sample_runs = cli.sample_runs

    def recording(*args):
        views = sample_runs(*args)
        calls.update(views)
        return views

    with mock.patch.object(cli, "sample_runs", recording):
        yield calls


class TestReportForm:
    """Reports are compact canonical JSON with one trailing newline, and parse
    to what the earlier ``indent=1`` encoding of the same report gives."""

    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=lambda argv: argv[0])
    def test_compact_and_same_content(self, argv, tmp_path, dumped):
        out = tmp_path / "r.json"
        with captured_calls() as calls:
            assert run_cli(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        assert report["schema"] == 1
        if argv[0] == "sample":
            # sample encodes its records apart from the rest of the report
            obj = reference_sample_report(argv, calls, report["elapsed_seconds"])
        else:
            [obj] = dumped
        assert report == json.loads(json.dumps(obj, indent=1, sort_keys=True))

    def test_sample_floats_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        # cmd_sample reads the clock before and after its samples
        start, stop = 10.0, 10.0 + 1 / 3
        with captured_calls() as calls, \
                mock.patch.object(cli, "perf_counter", iter([start, stop]).__next__):
            assert run_cli(REPORT_COMMANDS[0] + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        obj = reference_sample_report(REPORT_COMMANDS[0], calls, stop - start)
        for layout, block in obj["layouts"].items():
            parsed = report["layouts"][layout]
            for key in ("tvd_vs_oracle", "factor_success_rate"):
                value = block["aggregate"][key]
                assert isinstance(value, float) and parsed["aggregate"][key] == value
            for rec, got in zip(block["records"], parsed["records"], strict=True):
                assert got["stage_seconds"] == rec["stage_seconds"]
                assert all(isinstance(t, float) for t in rec["stage_seconds"].values())
        assert report["elapsed_seconds"] == obj["elapsed_seconds"]

    def test_oracle_probs_round_trip(self, tmp_path):
        out = tmp_path / "o.json"
        assert run_cli(["oracle", "--l", "5", "--r", "6", "--out", str(out)]) == 0
        probs = json.loads(out.read_text())["probs"]
        assert probs == oracle.exact_distribution(5, 6).tolist()


class TestRecordEncoding:
    """``sample`` writes its records from a template that each call fills
    once, with what records share encoded once (``cli._records_json``); the
    report must be, byte for byte, the one ``json.dumps`` gives for the same
    records as schema-1 dicts."""

    @staticmethod
    def assert_reference_bytes(argv, tmp_path):
        out = tmp_path / "r.json"
        with captured_calls() as calls:
            assert run_cli(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        elapsed = json.loads(text)["elapsed_seconds"]
        reference = reference_sample_report(argv, calls, elapsed)
        assert text == json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
        return calls

    @settings(max_examples=60, deadline=None)
    @given(semiprime_and_base(), st.integers(0, 2**70),
           st.sampled_from(["static", "dynamic", "both"]), st.integers(1, 30),
           st.integers(1, 1000))
    @example((15, 7), 2**70, "both", 30, 1)
    def test_report_is_the_reference_encoding(self, tmp_path_factory, case, seed, layout,
                                               samples, batch_elements):
        # a batch holds batch_elements // 63 samples of n=21 and one of
        # n=3127, so many calls here are cut into batches, whose records
        # differ in their stage_seconds
        n, a = case
        argv = ["sample", "--n", str(n), "--a", str(a), "--seed", str(seed),
                "--samples", str(samples), "--layout", layout]
        with mock.patch.object(shor, "BATCH_ELEMENTS", batch_elements):
            self.assert_reference_bytes(argv, tmp_path_factory.mktemp("report"))

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "1943", "--a", "2", "--seed", "7", "--samples", "2",
         "--layout", "both", "--dense-cap", str(1 << 21)],
        REPORT_COMMANDS[0],
    ], ids=["n1943", "factors"])
    def test_rows(self, argv, tmp_path):
        calls = self.assert_reference_bytes(argv, tmp_path)
        if "--p" in argv:
            assert any(rec.factors and rec.verified_r for call in calls.values()
                       for rec in call.records)


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def untimed(obj):
    """``obj``, a parsed report or part of one, without its timings."""
    if isinstance(obj, dict):
        return {key: untimed(value) for key, value in obj.items()
                if key not in ("stage_seconds", "elapsed_seconds")}
    return [untimed(value) for value in obj] if isinstance(obj, list) else obj


class TestLayoutsShareOneRun:
    """``--layout both`` runs each call once for both layouts: one residue
    index, one gate loop and one sampler, with each layout's report block
    what that layout's call alone writes."""

    @settings(max_examples=60, deadline=None)
    @given(semiprime_and_base(), st.sampled_from(["sample", "profile"]), st.data())
    def test_guard_trips_as_the_layouts_in_turn(self, case, command, data):
        # static's guard is checked first, at every gate; no gate leaves the
        # dynamic tally above the static one, so both trips as static does,
        # and otherwise as dynamic does
        n, a = case
        static_tally = graded_modexp(SemiprimeInstance(n, a), "static")[3]
        limit = data.draw(st.integers(1, static_tally + 10), label="max elements")
        argv = [command, "--n", str(n), "--a", str(a), "--max-elements", str(limit)]
        if command == "sample":
            argv += ["--samples", "2", "--seed", "3"]
        code, _, err = run_captured(argv + ["--layout", "both"])
        static = run_captured(argv + ["--layout", "static"])
        dynamic = run_captured(argv + ["--layout", "dynamic"])
        if static[0] == 3:
            assert (code, err) == (3, static[2])
        elif dynamic[0] == 3:
            assert (code, err) == (3, dynamic[2])
        else:
            assert (static[0], dynamic[0], code) == (0, 0, 0)

    @staticmethod
    def count_calls(monkeypatch, *targets):
        """Count the calls of each (owner, name) of ``targets``, by name."""
        counts = dict.fromkeys((name for _, name in targets), 0)
        for owner, name in targets:
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_sample_runs_the_pipeline_once(self, monkeypatch, tmp_path):
        # a sample of n=21 holds 63 elements: 5 samples in batches of 2, 2, 1
        counts = self.count_calls(
            monkeypatch, (shor.LowerRegisterIndex, "__init__"), (shor, "run_modexp"),
            (shor.LowerRegisterIndex, "gate_maps"), (shor, "residue_exponents"),
            (shor, "graded_fourier"))
        monkeypatch.setattr(shor, "BATCH_ELEMENTS", 2 * 63)
        assert run_cli(["sample", "--n", "21", "--a", "2", "--samples", "5", "--layout",
                        "both", "--out", str(tmp_path / "r.json")]) == 0
        assert counts == {"__init__": 1, "run_modexp": 1, "gate_maps": 1,
                          "residue_exponents": 1, "graded_fourier": 3}

    def test_profile_runs_modexp_once(self, monkeypatch, tmp_path):
        counts = self.count_calls(
            monkeypatch, (shor.LowerRegisterIndex, "__init__"), (cli, "run_modexp"))
        assert run_cli(["profile", "--n", "247", "--a", "2", "--layout", "both",
                        "--out", str(tmp_path / "p.json")]) == 0
        assert counts == {"__init__": 1, "run_modexp": 1}

    @settings(max_examples=30, deadline=None)
    @given(semiprime_and_base(), st.integers(0, 2**40), st.integers(1, 30),
           st.integers(1, 1000))
    def test_both_is_the_two_single_layout_reports(self, case, seed, samples,
                                                   batch_elements):
        # apart from timings and the --layout echo
        n, a = case
        base = ["--n", str(n), "--a", str(a)]
        sample = ["sample", *base, "--seed", str(seed), "--samples", str(samples)]
        with mock.patch.object(shor, "BATCH_ELEMENTS", batch_elements):
            (both, static, dynamic), (both_p, static_p, dynamic_p) = (
                [json.loads(run_captured(argv + ["--layout", layout])[1])
                 for layout in ("both", "static", "dynamic")]
                for argv in (sample, ["profile", *base]))
        want = {**static, "config": {**static["config"], "layout": "both"},
                "layouts": {**static["layouts"], **dynamic["layouts"]}}
        assert untimed(both) == untimed(want)
        assert both_p == {**static_p, "profiles": static_p["profiles"] + dynamic_p["profiles"],
                          "elements": {**static_p["elements"], **dynamic_p["elements"]}}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--n", "21", "--a", "2", "--samples", "0"], None),
            (["sample", "--n", "21", "--a", "2", "--samples", "-3"], None),
            (["sample", "--n", "21", "--a", "2", "--seed", "-1"],
             "--seed must be non-negative, got -1"),
            (["oracle", "--n", "21", "--a", "3"], None),
            (["sample", "--n", "21", "--a", "2", "--p", "3", "--samples", "1"],
             "supply both factors or neither"),
            (["sample", "--n", "21", "--a", "2", "--max-elements", "0"], None),
            (["profile", "--n", "21", "--a", "2", "--max-elements", "0"], None),
            (["sample", "--n", HUGE_N, "--a", "2"], None),
            (["profile", "--n", HUGE_N, "--a", "2"], None),
            (["oracle", "--n", HUGE_N, "--a", "2"], None),
            # the residue index needs n < 2^31; oracle keeps the 62-bit range
            (["sample", "--n", str(ABOVE_2_31), "--a", "2"],
             "n exceeds the supported 31-bit range"),
            (["profile", "--n", str(ABOVE_2_31), "--a", "2"],
             "n exceeds the supported 31-bit range"),
            # just below, the bound passes and the next check speaks
            (["sample", "--n", str(MERSENNE_31), "--a", "2"], f"n = {MERSENNE_31} is prime"),
            (["profile", "--n", str(MERSENNE_31), "--a", "2"], f"n = {MERSENNE_31} is prime"),
            # oracle refuses such a cap too ("exceeds cap")
            (["sample", "--n", "21", "--a", "2", "--dense-cap", "0"],
             "--dense-cap must be at least 1, got 0"),
            # --r is a law's order: it needs the register width, not n and a
            (["oracle", "--n", "21", "--a", "2", "--r", "3"], "--r needs --l"),
            # and with --l it fixes the law, so n, a and the factors have no say
            (["oracle", "--l", "5", "--r", "7", "--n", "21", "--a", "2"],
             "--r cannot be combined with --n, --a, --p or --q"),
            (["oracle", "--l", "5", "--r", "6", "--p", "3"],
             "--r cannot be combined with --n, --a, --p or --q"),
            # the closed form's limit is checked before the table is allocated
            (["oracle", "--l", "33", "--r", "3", "--dense-cap", str(10**23)],
             "l=33 exceeds the closed form's limit l <= 32"),
        ],
    )
    def test_exit_2_with_message(self, argv, message, capsys):
        # message: the exact error line, or None to accept any one-line error
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if message is not None:
            assert captured.err == f"error: {message}\n"

    def test_oracle_keeps_the_62_bit_range(self, tmp_path):
        out = tmp_path / "o.json"
        assert run_cli(["oracle", "--n", str(ABOVE_2_31), "--a", "2", "--p", "3",
                        "--q", "715827883", "--l", "3", "--out", str(out)]) == 0
        r = json.loads(out.read_text())["r"]
        assert pow(2, r, ABOVE_2_31) == 1

    @pytest.mark.parametrize("command", ["sample", "profile"])
    def test_out_of_memory_exits_3(self, command, monkeypatch, capsys):
        # the residue index's table takes 4n bytes, up to 8 GB below 2^31
        def refused(n):
            raise MemoryError(f"Unable to allocate {4 * n} bytes")

        monkeypatch.setattr(cli, "LowerRegisterIndex", refused)
        monkeypatch.setattr(shor, "LowerRegisterIndex", refused)
        assert run_cli([command, "--n", "21", "--a", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 84 bytes\n"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 2147483648 bytes", "Unable to allocate 2147483648 bytes"),
        ("", "out of memory"),
    ])
    def test_oracle_out_of_memory_exits_3(self, message, line, monkeypatch, capsys):
        # a --dense-cap raised past what the machine will allocate
        def refused(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "exact_distribution", refused)
        assert run_cli(["oracle", "--l", "14", "--r", "3", "--dense-cap", str(1 << 32)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    def test_program_fault_propagates(self, monkeypatch):
        # a ValueError past the input checks is a fault, not invalid input
        def fault(*args, **kwargs):
            raise ValueError("fault in the sampler")

        monkeypatch.setattr(cli, "sample_runs", fault)
        with pytest.raises(ValueError, match="fault in the sampler"):
            run_cli(["sample", "--n", "21", "--a", "2"])

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2(self, argv, where, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the job ran before --out was checked")

        for name in ("sample_runs", "run_modexp", "exact_distribution",
                     "multiplicative_order"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "absent" / "x.json" if where == "missing directory" else tmp_path
        assert run_cli(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        *before, last = captured.err.splitlines()
        assert last.startswith(f"error: cannot write {out}: ")
        assert before == [] and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_check_accepts_what_open_accepts(self, tmp_path):
        existing = tmp_path / "old.json"
        existing.write_text("kept")
        assert cli._unwritable(str(existing)) is None
        assert existing.read_text() == "kept"
        assert cli._unwritable(str(tmp_path / "new.json")) is None
        assert cli._unwritable(None) is None
        assert cli._unwritable(str(tmp_path)) == "Is a directory"
        assert cli._unwritable(str(tmp_path / "absent" / "x.json")) == (
            "No such file or directory")
        assert cli._unwritable(str(existing / "x.json")) == "Not a directory"

    def test_oracle_gcd_message_matches_sample(self, capsys):
        assert run_cli(["sample", "--n", "21", "--a", "3", "--samples", "1"]) == 2
        from_sample = capsys.readouterr().err
        assert run_cli(["oracle", "--n", "21", "--a", "3"]) == 2
        assert capsys.readouterr().err == from_sample


# every flag of each command, as README and --help name them
COMMAND_FLAGS = {
    "sample": ["--n", "--a", "--p", "--q", "--layout", "--max-elements", "--out",
               "--format", "--samples", "--seed", "--dense-cap"],
    "verify-paper": ["--out"],
    "profile": ["--n", "--a", "--p", "--q", "--layout", "--max-elements", "--out",
                "--format"],
    "oracle": ["--l", "--r", "--n", "--a", "--p", "--q", "--dense-cap", "--out",
               "--format"],
}


class TestFlagParsing:
    """The option table's contract: exact names, ``--flag value`` or
    ``--flag=value``, argparse's defaults, and one ``error:`` line with exit 2
    (not a usage block and ``SystemExit``) for every malformed flag."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--n", "21", "--sam", "5"], "unknown flag '--sam' for sample"),
            (["sample", "--a", "2", "--n"], "--n needs a value"),
            (["sample", "--n", "--a", "2"], "--n needs a value"),
            (["sample", "--n", "21", "--a", "abc"], "--a takes an integer, got 'abc'"),
            (["sample", "--n", "21", "--layout", "diag"],
             "--layout must be one of static, dynamic, both, got 'diag'"),
            (["oracle", "--l", "3", "--r", "2", "--format", "xml"],
             "--format must be one of json, csv, got 'xml'"),
            (["sample"], "sample needs --n"),
            (["profile", "--a", "2"], "profile needs --n"),
            (["frobnicate"],
             "unknown command 'frobnicate' (choose from sample, verify-paper, profile, oracle)"),
            ([], "no command given (choose from sample, verify-paper, profile, oracle)"),
        ],
    )
    def test_malformed_exits_2_with_one_line(self, argv, message, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_equals_form_and_last_repeat(self):
        spaced = cli._parse(["sample", "--n", "21", "--a", "2", "--layout", "both"])
        assert cli._parse(["sample", "--n=21", "--a=2", "--layout=both"]) == spaced
        assert cli._parse(["sample", "--n", "15", "--a", "4", "--n=21", "--a", "2",
                           "--layout", "both"]) == spaced
        # single-dash values reach the command's own checks
        assert cli._parse(["sample", "--n", "21", "--seed", "-1"]).seed == -1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["sample", "--n", "21"],
             {"command": "sample", "n": 21, "a": None, "p": None, "q": None,
              "layout": "dynamic", "max_elements": 1 << 30, "out": None, "format": "json",
              "samples": 1, "seed": 0, "dense_cap": 1 << 26}),
            (["profile", "--n", "21"],
             {"command": "profile", "n": 21, "a": None, "p": None, "q": None,
              "layout": "dynamic", "max_elements": 1 << 30, "out": None, "format": "json"}),
            (["oracle", "--l", "3", "--r", "2"],
             {"command": "oracle", "l": 3, "r": 2, "n": None, "a": None, "p": None,
              "q": None, "dense_cap": 1 << 26, "out": None, "format": "json"}),
            (["verify-paper"], {"command": "verify-paper", "out": None}),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_defaults_are_argparses(self, argv, expected):
        assert vars(cli._parse(argv)) == expected

    @pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_flag(self, command, flag, capsys):
        assert run_cli([flag] if command is None else [command, flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: shor-mps")
        if command is None:
            for name in [*COMMAND_FLAGS, "--help", "--version"]:
                assert name in captured.out
        else:
            listed = [line.split()[0] for line in captured.out.splitlines()
                      if line.startswith("  --")]
            assert listed == COMMAND_FLAGS[command]

    def test_version(self, capsys, monkeypatch):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr() == (f"{__version__}\n", "")
        # main() without arguments reads sys.argv
        monkeypatch.setattr(sys, "argv", ["shor-mps", "--version"])
        assert cli.main() == 0
        assert capsys.readouterr().out == f"{__version__}\n"


SMALL_PRIMES = [p for p in range(3, 60) if is_probable_prime(p)]


def _not_an_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


@st.composite
def bad_flags(draw, command):
    """A valid ``command`` call on a small semiprime with one flag made bad."""
    p, q = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=2, max_size=2,
                         unique=True))
    n = p * q
    a = draw(st.integers(2, n - 1).filter(lambda x: gcd(x, n) == 1))
    flags = {"--n": n, "--a": a, "--layout": draw(st.sampled_from(["static", "dynamic",
                                                                   "both"]))}
    if command == "sample":
        flags["--samples"] = draw(st.integers(1, 3))
        flags["--seed"] = draw(st.integers(0, 1 << 40))
    extra = ["--samples", "--seed", "--dense-cap"] if command == "sample" else []
    int_flags = ["--n", "--a", "--p", "--q", "--max-elements", *extra]
    which = draw(st.sampled_from(["--n", "--a", "--p/--q", "--max-elements", *extra,
                                  "non-integer", "--layout"]))
    if which == "non-integer":
        flags[draw(st.sampled_from(int_flags))] = draw(st.one_of(
            st.sampled_from(["abc", "1.5", "0x10", "1e3", "", "2 1", "--"]),
            st.floats().map(repr),
            st.text(max_size=6),
        ).filter(_not_an_int))
    elif which == "--layout":
        flags["--layout"] = draw(st.text(max_size=8).filter(
            lambda s: s not in ("static", "dynamic", "both")))
    elif which == "--n":
        flags["--n"] = draw(st.one_of(
            st.integers(-(1 << 40), 8),  # below 9
            st.integers(5, 1 << 40).map(lambda k: 2 * k),  # even
            st.sampled_from(SMALL_PRIMES + [8191, 131071, 524287, MERSENNE_31]),  # prime
            st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(2, 6)).map(
                lambda pk: pk[0] ** pk[1]),  # prime power
            # odd and beyond the simulated range, or past the 62-bit one too
            st.integers(MAX_SIMULATED_MODULUS >> 1, MAX_MODULUS >> 1).map(
                lambda k: 2 * k + 1),
            st.integers(MAX_MODULUS >> 1, 1 << 80).map(lambda k: 2 * k + 1),
        ))
    elif which == "--a":
        flags["--a"] = draw(st.one_of(
            st.integers(-(1 << 40), 1),
            st.integers(n, n + (1 << 40)),
            st.integers(1, q - 1).map(lambda k: k * p),  # shares the factor p
        ))
    elif which == "--p/--q":
        other = draw(st.sampled_from(SMALL_PRIMES))
        flags.update(draw(st.sampled_from([
            {"--p": p}, {"--q": q},  # one factor alone
            {"--p": p, "--q": other} if p * other != n else {"--p": other},
        ])))
    elif which == "--max-elements":
        flags["--max-elements"] = draw(st.integers(-(1 << 40), 0))
    elif which == "--samples":
        flags["--samples"] = draw(st.integers(-(1 << 40), 0))
    elif which == "--dense-cap":
        flags["--dense-cap"] = draw(st.integers(-(1 << 40), 0))
    else:
        flags["--seed"] = draw(st.integers(-(1 << 70), -1))
    argv = [command]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    return argv


class TestBadInputProperties:
    """Any bad ``--n``, ``--a``, ``--p/--q``, ``--samples``, ``--seed``,
    ``--max-elements`` or ``--dense-cap``, a non-integer for any of them, or
    a ``--layout`` outside its choices exits 2 with one ``error:`` line and
    no report."""

    @staticmethod
    def check(argv):
        code, out, err = run_captured(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=150, deadline=None)
    @given(bad_flags("sample"))
    def test_sample(self, argv):
        self.check(argv)

    @settings(max_examples=150, deadline=None)
    @given(bad_flags("profile"))
    def test_profile(self, argv):
        self.check(argv)


class TestVerifyPublished:
    def test_all_rows_pass(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run_cli(["verify-paper", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 7 and all(row["pass"] for row in rows)
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 7


class TestProfile:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli(["profile", "--n", "21", "--a", "2", "--layout", "both",
                        "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "stage,bond,rank,layout"
        assert any(line.endswith(",static") for line in lines[1:])
        assert any(line.endswith(",dynamic") for line in lines[1:])

    def test_json_dynamic_ranks(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["profile", "--n", "21", "--a", "2", "--layout", "dynamic",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        prof = report["profiles"][0]
        rpos = prof["labels"].index("R")
        assert prof["ranks"][rpos - 1] == 3  # left-block bond to the lower register
        assert report["elements"]["dynamic"]["lower_register_dim"] == 6

    def test_dynamic_beats_static(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli(["profile", "--n", "21", "--a", "2", "--layout", "both",
                        "--out", str(out)]) == 0
        elements = json.loads(out.read_text())["elements"]
        assert elements["dynamic"]["live"] < elements["static"]["live"]
        captured = capsys.readouterr()
        assert "element count comparison" in captured.err
        assert captured.out == ""

    def test_stdout_is_the_report_alone(self, capsys):
        # the element comparison of --layout both goes to stderr
        argv = ["profile", "--n", "21", "--a", "2", "--layout", "both"]
        assert run_cli(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [prof["layout"] for prof in report["profiles"]] == ["static", "dynamic"]
        assert run_cli(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "stage,bond,rank,layout"

    @pytest.mark.parametrize("l, n, a, r, alpha, beta", cli.PUBLISHED_ORDER_DATA,
                             ids=[f"l{row[0]}" for row in cli.PUBLISHED_ORDER_DATA])
    def test_published_rows(self, l, n, a, r, alpha, beta, tmp_path):
        # the paper's table: the static chain's innermost rank is r, the
        # dynamic left block peaks at beta with alpha qubits right of R
        out = tmp_path / "p.json"
        assert run_cli(["profile", "--n", str(n), "--a", str(a), "--layout", "both",
                        "--max-elements", str(1 << 40), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        profiles = {prof["layout"]: prof for prof in report["profiles"]}
        static, dynamic = profiles["static"], profiles["dynamic"]
        assert static["labels"][-1] == "R" and static["ranks"][-1] == r
        rpos = dynamic["labels"].index("R")
        assert len(dynamic["labels"]) - 1 - rpos == alpha
        assert max(dynamic["ranks"][:rpos]) == dynamic["ranks"][rpos - 1] == beta
        for layout in ("static", "dynamic"):
            elements = report["elements"][layout]
            assert elements["lower_register_dim"] == r
            assert elements["live"] == elements["peak"]
        if l <= 17:
            inst = SemiprimeInstance(n, a)
            for prof in profiles.values():
                labels = [lab if lab == "R" else int(lab) for lab in prof["labels"]]
                for bond, rank in enumerate(prof["ranks"]):
                    assert rank == rank_oracle_for_bond(labels, inst, bond, r_hint=r)


    @pytest.mark.parametrize("l, n, a, r, alpha, beta", BEYOND_PAPER_ROWS,
                             ids=[f"l{row[0]}" for row in BEYOND_PAPER_ROWS])
    def test_rows_past_the_paper(self, l, n, a, r, alpha, beta, tmp_path):
        # README's l = 22 and 24 rows and the alpha = 16 row; tallies pass
        # 2^40, and the bond oracle would take minutes here, so only r, alpha
        # and beta are checked
        out = tmp_path / "p.json"
        assert run_cli(["profile", "--n", str(n), "--a", str(a), "--layout", "both",
                        "--max-elements", str(1 << 44), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["instance"]["l"] == l
        profiles = {prof["layout"]: prof for prof in report["profiles"]}
        static, dynamic = profiles["static"], profiles["dynamic"]
        assert static["labels"][-1] == "R" and static["ranks"][-1] == r
        rpos = dynamic["labels"].index("R")
        assert len(dynamic["labels"]) - 1 - rpos == alpha
        assert max(dynamic["ranks"][:rpos]) == dynamic["ranks"][rpos - 1] == beta
        for layout in ("static", "dynamic"):
            assert report["elements"][layout]["lower_register_dim"] == r


def readme_table() -> dict[int, tuple[int, ...]]:
    """README's "The paper's table": l -> (n, a, r, alpha, beta, max rank
    static, max rank dynamic, tally static, tally dynamic)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## The paper's table", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip().replace(",", "") for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = tuple(map(int, cells[1:10]))
    return rows


README_TABLE = readme_table()


class TestReadmeTable:
    def test_rows(self):
        assert sorted(README_TABLE) == [11, 13, 14, 15, 16, 17, 20, 22, 24]

    @pytest.mark.parametrize("l", sorted(README_TABLE), ids=lambda l: f"l{l}")
    def test_ranks_and_tallies(self, l, tmp_path):
        # the table's command line; l = 22 and 24 pass 2^40 and need 2^44
        n, a, r, alpha, beta, *want = README_TABLE[l]
        out = tmp_path / "p.json"
        limit = 1 << 44 if l > 20 else 1 << 40
        assert run_cli(["profile", "--n", str(n), "--a", str(a), "--layout", "both",
                        "--max-elements", str(limit), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["instance"]["l"] == l
        assert r == beta << alpha
        ranks = {prof["layout"]: max(prof["ranks"]) for prof in report["profiles"]}
        elements = report["elements"]
        for layout in ("static", "dynamic"):
            assert elements[layout]["lower_register_dim"] == r
            assert elements[layout]["live"] == elements[layout]["peak"]
        got = [ranks["static"], ranks["dynamic"],
               elements["static"]["peak"], elements["dynamic"]["peak"]]
        assert got == want


class TestOracle:
    def test_from_n_a(self, tmp_path):
        out = tmp_path / "o.json"
        assert run_cli(["oracle", "--n", "21", "--a", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["l"] == 5 and report["r"] == 6
        assert report["probs"][0] == pytest.approx(174764 / 1048576, abs=1e-12)
        assert sum(report["probs"]) == pytest.approx(1.0, abs=1e-10)

    def test_explicit_l_with_instance(self, tmp_path):
        out = tmp_path / "o.json"
        assert run_cli(["oracle", "--l", "5", "--n", "21", "--a", "2",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["l"] == 5 and report["probs"][0] == pytest.approx(174764 / 1048576)

    def test_comb_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(["oracle", "--l", "4", "--r", "4", "--format", "csv",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        peaks = [s for s, p in enumerate(probs) if p > 1e-9]
        assert peaks == [0, 64, 128, 192]

    def test_missing_args(self):
        assert run_cli(["oracle", "--l", "4"]) == 2

    def test_factors_find_the_order_at_once(self, tmp_path):
        # without --p/--q the power loop runs past its cap (exit 3 after seconds)
        out = tmp_path / "o.json"
        assert run_cli(["oracle", "--n", "1000036000099", "--a", "2", "--p", "1000003",
                        "--q", "1000033", "--l", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["r"] == multiplicative_order(2, 1000036000099, 1000003, 1000033)
        assert pow(2, report["r"], 1000036000099) == 1

    def test_bad_factor_pair_exits_2(self, capsys):
        assert run_cli(["oracle", "--n", "1000036000099", "--a", "2", "--p", "1000003",
                        "--q", "1000037"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p*q must equal n with p != q\n"

    def test_order_search_cap_exit_code(self, monkeypatch, capsys):
        def capped(a, n, *args, **kwargs):
            raise OrderSearchCapError(f"order of {a} mod {n} exceeds iteration cap 8")

        monkeypatch.setattr(cli, "multiplicative_order", capped)
        assert run_cli(["oracle", "--n", "21", "--a", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order of 2 mod 21 exceeds iteration cap 8\n"


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shormps.cli", "oracle", "--l", "3", "--r", "2"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["r"] == 2
