import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serp.cli as cli_mod
import serp.ed2 as ed2_mod
from serp import _kernels, sieve
from serp.arith import _SEGMENT, MR_DETERMINISTIC_BOUND, is_prime, primes_between
from serp.cli import main
from serp.errors import SerpError
from serp.explicit import decompose_explicit
from serp.solution import Solution, SolutionClass, verify_solution


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestDecompose:
    def test_all_solutions_p11(self):
        code, out = run_cli("decompose", "11", "--all", "--format", "json")
        assert code == 0
        recs = json_lines(out)
        assert [(r["A"], r["B"], r["C"]) for r in recs] == [
            (3, 9, 99), (3, 11, 33), (4, 5, 220),
        ]
        assert recs[1]["class"] == "ED2"

    def test_explicit_with_repair(self):
        code, out = run_cli("decompose", "13", "--format", "json")
        assert code == 0
        assert json_lines(out) == [
            {"P": 13, "A": 3, "B": 20, "C": 780, "class": "Explicit", "strict": True}
        ]

    def test_weak_skips_repair(self):
        code, out = run_cli("decompose", "13", "--weak", "--format", "json")
        assert code == 0
        (rec,) = json_lines(out)
        assert (rec["B"], rec["C"], rec["strict"]) == (39, 39, False)

    def test_method_ed2_for_nonresidue_one(self):
        code, out = run_cli(
            "decompose", "73", "--method", "ed2", "--all", "--delta-max", "64",
            "--format", "json",
        )
        assert code == 0
        assert [(r["A"], r["B"], r["C"]) for r in json_lines(out)] == [
            (15, 584, 8760), (15, 657, 3285), (15, 730, 2190), (15, 876, 1460),
        ]

    def test_first_hit_prefers_ed2(self):
        code, out = run_cli("decompose", "11", "--format", "json")
        assert code == 0
        assert json_lines(out)[0]["class"] == "ED2"

    def test_no_solution_within_bounds(self, capsys):
        # P = 41 has no two-multiple witness below delta = 3
        code, out = run_cli(
            "decompose", "41", "--method", "ed2", "--delta-max", "2", "--format", "json"
        )
        assert code == 1
        assert out == ""

    def test_composite_rejected(self):
        code, _ = run_cli("decompose", "4")
        assert code == 2

    def test_strong_pseudoprime_to_first_twelve_primes_rejected(self, capsys):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
        # bases 2..37; it must not be searched as if it were prime
        code, out = run_cli("decompose", "318665857834031151167461")
        assert code == 2
        assert out == ""
        assert "not prime" in capsys.readouterr().err

    def test_wrong_residue_for_explicit(self):
        code, _ = run_cli("decompose", "11", "--method", "explicit")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--all"]])
    def test_ed1_rejects_wrong_residue_before_searching(self, capsys, extra):
        # with --gamma-max 3 the first-hit loop has no gamma to search
        code, out = run_cli("decompose", "7", "--method", "ed1", "--gamma-max", "3", *extra)
        assert code == 2
        assert out == ""
        assert "ED1 search needs P = 1 (mod 5), got P = 7" in capsys.readouterr().err

    def test_p5_rejected(self):
        code, _ = run_cli("decompose", "5")
        assert code == 2

    @pytest.mark.parametrize("method", ["auto", "explicit", "ed2"])
    def test_p2_rejected(self, capsys, method):
        # 1 + 1/2 + 1/3 = 11/6 < 5/2, the largest sum of three distinct unit fractions
        code, out = run_cli("decompose", "2", "--method", method)
        assert code == 2
        assert out == ""
        assert "P = 2 is out of scope" in capsys.readouterr().err

    @pytest.mark.parametrize("method, bounds", [
        ("auto", "gamma <= 4, delta <= 1; raise --gamma-max/--delta-max"),
        ("ed1", "gamma <= 4; raise --gamma-max"),
        ("ed2", "delta <= 1; raise --delta-max"),
    ])
    def test_miss_names_the_bounds_searched(self, capsys, method, bounds):
        # 181 has no witness at delta = 1 nor at gamma = 4
        code, out = run_cli("decompose", "181", "--method", method, "--gamma-max", "4", "--delta-max", "1")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"no solution for P = 181 within {bounds}\n"

    def test_env_override(self):
        # --delta-max overrides P's default bound
        code, out = run_cli(
            "decompose", "31", "--method", "ed2", "--all", "--delta-max", "1", "--format", "json"
        )
        assert code == 0
        assert [(r["A"], r["B"], r["C"]) for r in json_lines(out)] == [(8, 31, 248)]
        code, out = run_cli(
            "decompose", "31", "--method", "ed2", "--all", "--delta-max", "4", "--format", "json"
        )
        assert len(json_lines(out)) == 2

    def test_gamma_env_override(self):
        # --gamma-max overrides P's default bound
        code, out = run_cli(
            "decompose", "11", "--method", "ed1", "--all", "--gamma-max", "4", "--format", "json"
        )
        assert code == 0
        assert [(r["A"], r["B"], r["C"]) for r in json_lines(out)] == [(3, 9, 99)]

    def test_csv_layout(self):
        code, out = run_cli(
            "decompose", "73", "--method", "ed2", "--all", "--delta-max", "64",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "#,alpha,bprime,cprime,g,b,c,delta,X,Y,N,A,B,C,dprime"
        # solutions are sorted by (A, B, C); first row is the delta=64 witness
        assert lines[1] == "1,1,1,15,8,8,120,64,39,599,23361,15,584,8760,8"
        assert len(lines) == 5

    # sha256 of `decompose P --all` stdout at P's default bounds, and of
    # P = 1e9 + 21 at --delta-max 2000 --gamma-max 10000 (json only)
    DECOMPOSE_ALL_SHA256 = {
        ("11", "json"): "27f292e805140f3674667c5a8725911c70b7b2a349b58185aa19329b2621dbaf",
        ("11", "csv"): "091d95f93bab0af63568a356d6bf2d819237257827b170802bb217c6eddb55f0",
        ("11", "table"): "1f75feb677fad7f3b5800a41b0afca5e86af8df0fafa174fbccfa5a9521a964b",
        ("31", "json"): "8c2fee1de68e1b9500021124657e6e0c024ae435b97b3e1bf960db75d166f391",
        ("31", "csv"): "512bf57feda51d76dd94354fba823489733685a409e7dfb29d3037c52d2ac208",
        ("31", "table"): "b3200addfd19c665eb943b8ea2f1555c76900dd7376017b4a5bb0d3af9f17e43",
        ("41", "json"): "df1139f129c3cbc0eb0510dea3186f5175dc32632c81e3a889f9f1a1f046c153",
        ("41", "csv"): "3702393f5686511aefcde4e7b9111b8c1de1954fa203e417773285876b6493c9",
        ("41", "table"): "c995e502a752e378fc4ca2dc63aa2123fbe8ca2cc66ca605e17fe9974021fa8a",
        ("71", "json"): "42d6cce1321e77e4d77c47b4aa5496ec11f5f7e03b98be0304db5e8fdf9d04ee",
        ("71", "csv"): "79bd8364ff003ed8053b0b0cbf37628a3b7595f961d42e66c073b621cdfa06c0",
        ("71", "table"): "05a907b109dcf03b4d874ba8306cacbdacf0203647ab3eb14a2fa6cb2b9ad5b4",
        ("2521", "json"): "9e0dfcb484e70614bb815064748375e95e74cd348715ba5b3c351151acb4f246",
        ("2521", "csv"): "dcc705221c8b6caa344d29b980307f716d2c686295f07cf2c0a28a7227ea58ed",
        ("2521", "table"): "da1bd5e54da0f6c04411aed9f51c97a8ec2c0fc7c906dd6305ac7dfd83c1d513",
        ("3511", "json"): "d121ee2714b5318e62a66215a7d0f1f1a429d4be07b1f0646b14885bd17343c6",
        ("3511", "csv"): "5aaa9d313be4a2286f1a20bb613e64b69051f643cc6043b8ff5d7e4b2291b62a",
        ("3511", "table"): "3bb44127db8cd6a31619e5844d7d87316f70ba2ea2f2a633e31a56cb35507393",
        ("1000081", "json"): "df52b13969ab29cd3adad0c54c680bb890e7712e36c307f239deb6e9a8036c35",
        ("1000081", "csv"): "c3791c3a2e4edf697316212c8088748f958d7b24154903bb2c021df11eff4cbd",
        ("1000081", "table"): "a10b2d8b1da8277d86383039bf4a9788ea17145115976dfb945d3febab9557b6",
        ("1000000021", "json"): "ac6691e453f95169999f036c238854e70a5e75ad147cbd0e73a5c44cd5c52e6f",
    }

    @pytest.mark.parametrize("P, fmt", sorted(DECOMPOSE_ALL_SHA256))
    def test_decompose_all_output_is_pinned(self, P, fmt):
        bounds = ["--delta-max", "2000", "--gamma-max", "10000"] if P == "1000000021" else []
        code, out = run_cli("decompose", P, "--all", *bounds, "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.DECOMPOSE_ALL_SHA256[P, fmt]

    def test_wide_delta_range_runs_in_flat_memory(self):
        # ED2 walks the delta range one segment at a time: a search that
        # built per-delta lists over 10**12 deltas would die of
        # MemoryError under this address-space limit, set in the child only
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        src = str(Path(cli_mod.__file__).parents[1])
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.Popen(
            [sys.executable, "-m", "serp.cli", "decompose", "11", "--all",
             "--delta-max", "1000000000000"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=limit_memory,
        )
        try:
            _, err = proc.communicate(timeout=3)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return
        pytest.fail(f"exited {proc.returncode} within 3 s: {err}")


class TestVerify:
    def test_valid(self):
        code, out = run_cli("verify", "11", "3", "9", "99", "--format", "json")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["valid"] is True
        assert rec["multiplicity"] == {"count": 1, "positions": ["C"]}

    def test_invalid(self):
        code, out = run_cli("verify", "11", "3", "9", "100", "--format", "json")
        assert code == 1
        assert json_lines(out)[0]["valid"] is False

    def test_csv(self):
        code, out = run_cli("verify", "11", "3", "9", "99", "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert row == {
            "P": "11", "A": "3", "B": "9", "C": "99", "valid": "True",
            "multiplicity": '{"count": 1, "positions": ["C"]}',
        }
        code, out = run_cli("verify", "11", "3", "9", "100", "--format", "csv")
        assert code == 1
        assert out == "P,A,B,C,valid\n11,3,9,100,False\n"

    def test_composite(self):
        code, _ = run_cli("verify", "4", "1", "2", "3")
        assert code == 2


# A solution's json line comes from one fixed-schema f-string; it must be
# the line the general serialiser writes for sol.as_dict().  The triples
# drawn here need not verify, so the check before output is bypassed.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Solution, *[st.integers(1, 10**40)] * 4,
                          st.sampled_from(SolutionClass), st.booleans()), max_size=4))
def test_solution_json_line_is_the_serialisers(solutions):
    out = io.StringIO()
    with mock.patch.object(cli_mod, "verify_solution", lambda *triple: True):
        cli_mod._emit_solutions(iter(solutions), "json", out)
    assert out.getvalue() == "".join(cli_mod._json(s.as_dict()) + "\n" for s in solutions)


class TestScan:
    def test_range(self):
        code, out = run_cli("scan", "--from", "7", "--to", "31", "--format", "json")
        assert code == 0
        recs = json_lines(out)
        assert [r["P"] for r in recs] == [7, 11, 13, 17, 19, 23, 29, 31]
        assert all(r["strict"] for r in recs)

    def test_method_filtering(self):
        code, out = run_cli(
            "scan", "--from", "7", "--to", "31", "--method", "ed1", "--format", "json"
        )
        assert code == 0
        assert [r["P"] for r in json_lines(out)] == [11, 31]

    def test_explicit_skips_residue_one(self):
        # the closed forms cover P != 1 (mod 5) only; asked for one, they
        # would raise WrongResidue and the scan would exit 2
        code, out = run_cli(
            "scan", "--from", "7", "--to", "100", "--method", "explicit", "--format", "json"
        )
        assert code == 0
        recs = json_lines(out)
        assert {r["class"] for r in recs} == {"Explicit"}
        assert not {r["P"] for r in recs} & {11, 31, 41, 61, 71}

    def test_bad_range(self):
        code, _ = run_cli("scan", "--from", "10", "--to", "5")
        assert code == 2

    def test_range_containing_two(self):
        code, out = run_cli("scan", "--from", "1", "--to", "100", "--format", "json")
        assert code == 0
        recs = json_lines(out)
        assert recs[0]["P"] == 3
        assert [r["P"] for r in recs] == [p for p in range(3, 101) if is_prime(p) and p != 5]

    @pytest.mark.parametrize("to", ["-1", "-5"])
    def test_window_below_two_runs_like_to_zero(self, to, capsys):
        # the delta = 1 table once took isqrt(5*to + 1) and exited 2 here
        empty = run_cli("scan", "--from", "-10", "--to", "0")
        assert run_cli("scan", "--from", "-10", "--to", to) == empty == (0, "")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["auto", "explicit", "ed1", "ed2"])
    def test_scan_covers_exactly_what_decompose_accepts(self, method, capsys):
        # one scope rule: a one-prime scan writes decompose's rows, writes
        # nothing where decompose exits 2, and reports decompose's misses
        codes = set()
        for P in primes_between(2, 400):
            code, out = run_cli("decompose", str(P), "--method", method, "--format", "json")
            capsys.readouterr()
            scan_code, scan_out = run_cli(
                "scan", "--from", str(P), "--to", str(P), "--method", method, "--format", "json"
            )
            miss = capsys.readouterr().err
            codes.add(code)
            if code == 0:
                assert (scan_code, scan_out, miss) == (0, out, ""), P
            elif code == 2:
                assert (scan_code, scan_out, miss) == (0, "", ""), P
            else:
                assert code == 1, P
                assert (scan_code, scan_out) == (1, ""), P
                assert miss == f"no solution within bounds for: [{P}]\n"
        assert codes == ({0, 1, 2} if method == "ed2" else {0, 2})

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_records_stream(self, monkeypatch, fmt):
        # json and csv records are written as each prime is decomposed;
        # only the table waits for the last one, for its column widths
        out = io.StringIO()
        written = []
        decompose = cli_mod._decompose

        def spy(P, *args):
            written.append((P, out.getvalue()))
            return decompose(P, *args)

        monkeypatch.setattr(cli_mod, "_decompose", spy)
        assert main(["scan", "--from", "7", "--to", "100", "--format", fmt], out=out) == 0
        last_P, before_last = written[-1]
        assert last_P == 97
        lines = out.getvalue().splitlines(keepends=True)
        assert before_last == ("" if fmt == "table" else "".join(lines[:-1]))

    def test_misses_come_after_every_record(self, monkeypatch):
        # one stream for both, so the order of records and miss line shows
        out = io.StringIO()
        monkeypatch.setattr(cli_mod.sys, "stderr", out)
        argv = ["scan", "--from", "7", "--to", "200", "--method", "ed1", "--gamma-max", "4"]
        assert main(argv + ["--format", "json"], out=out) == 1
        *records, miss = out.getvalue().splitlines()
        assert miss == "no solution within bounds for: [31, 181]"
        assert [r["P"] for r in json_lines("\n".join(records))] == [
            11, 41, 61, 71, 101, 131, 151, 191,
        ]

    # sha256 of `scan --from 7 --to 20000` stdout by --delta-max (None:
    # each P's default)
    SCAN_20000_SHA256 = {
        (None, "json"): "c6b320614d9f07c49a3535846571b4b83aef09c56a537f2b4f70d6fa374fb712",
        (None, "csv"): "f70300cf4918a3835602ae8c465cd453e717008344aaa67b5aaa98f190fea265",
        (None, "table"): "306b3531ed4a97464b973f3cdae8a14581e93d8eac122e6d139aafb14e5d474b",
        ("3", "json"): "80c6d1516f559d0b37124c3fbf51c38c87405bf49977914e7829743be1c4e463",
        ("3", "csv"): "ed983b0f2381933574dfae59204fb4dd801c0e11b4390757ee33f04f32c618f2",
        ("3", "table"): "ac3558d16d263ee534a53007aa1e2b370b3398f82eb87d19c6a85960884a2c11",
    }

    @pytest.mark.parametrize("delta_max, fmt", sorted(SCAN_20000_SHA256, key=str))
    def test_scan_output_is_pinned(self, delta_max, fmt):
        bound = [] if delta_max is None else ["--delta-max", delta_max]
        code, out = run_cli("scan", "--from", "7", "--to", "20000", *bound, "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SCAN_20000_SHA256[delta_max, fmt]

    # sha256 of more scan stdout, recorded before scan read delta = 1
    # from a table: --method ed2 runs ED2 on every residue, the window at
    # 1e9 passes the table's cap of 65534, and the one to 140000 spans
    # three tables
    SCAN_SHA256 = {
        "--from 7 --to 20000 --method ed2 --format json":
            "2710d20f024094ad3c86933f8c3e5945dc347d77cbb48e299148a1562fc4a596",
        "--from 7 --to 20000 --method ed2 --format csv":
            "07a18605fd372ad1967abea337ac931174f253940413bd9d76199d2e59eb166e",
        "--from 1000000000 --to 1000020000 --format json":
            "075004e4bcfbe665a84e5374aedce60372e76edeb07b1341e50c965c47d4d17e",
    }
    SCAN_140000_ED2_SHA256 = "5cd3bdf9920393ccdbca915a9dea1b43895eb62fa0ec42f276c166c73b823a5f"

    @pytest.mark.parametrize("argv", sorted(SCAN_SHA256))
    def test_more_scan_output_is_pinned(self, argv):
        code, out = run_cli("scan", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SCAN_SHA256[argv]

    def test_no_table_is_longer_than_one_segment(self, monkeypatch, capsys):
        lengths = []
        build = ed2_mod._delta_one_table

        def spy(lo, n, cap):
            table = build(lo, n, cap)
            lengths.append(len(table))
            return table

        monkeypatch.setattr(ed2_mod, "_delta_one_table", spy)
        code, out = run_cli("scan", "--from", "1", "--to", "140000", "--method", "ed2", "--format", "json")
        assert code == 1 and capsys.readouterr().err == "no solution within bounds for: [3]\n"
        assert hashlib.sha256(out.encode()).hexdigest() == self.SCAN_140000_ED2_SHA256
        assert len(lengths) == 3 and max(lengths) == _SEGMENT

    @pytest.mark.parametrize("lo, hi, searched", [(1000, 1175, []), (1176, 1185, [1181])])
    def test_bounds_are_read_only_when_an_engine_runs(self, monkeypatch, lo, hi, searched):
        # The delta = 1 table answers every P = 1 (mod 5) of the window
        # but those searched, so only they read their bounds.
        table = ed2_mod._DeltaOne(hi)
        ed2_primes = [P for P in primes_between(lo, hi) if P % 5 == 1]
        assert ed2_primes and [P for P in ed2_primes if table.first(P)[0] is None] == searched
        calls = []
        bounds_for = cli_mod._bounds_for

        def spy(P, args):
            calls.append(P)
            return bounds_for(P, args)

        monkeypatch.setattr(cli_mod, "_bounds_for", spy)
        code, out = run_cli("scan", "--from", str(lo), "--to", str(hi), "--format", "json")
        assert code == 0
        assert [r["P"] for r in json_lines(out)] == list(primes_between(lo, hi))
        assert calls == searched

    # (from, to, table segment): a window that starts below 2; one across
    # table boundaries, with tables of 64 integers; one near 1e9, where
    # isqrt(5P + 1) passes the table's cap of 65534 and 1000004981 and
    # 1000005029 leave delta = 1 to the search; and the last integers
    # the primality test decides
    WINDOWS = [
        (-5, 150, _SEGMENT),
        (400, 700, 64),
        (1_000_004_900, 1_000_005_100, _SEGMENT),
        (MR_DETERMINISTIC_BOUND - 230, MR_DETERMINISTIC_BOUND - 1, _SEGMENT),
    ]

    @pytest.mark.parametrize("lo, hi, segment", WINDOWS)
    @pytest.mark.parametrize("method", ["auto", "ed2", "ed1", "explicit"])
    def test_window_writes_the_rows_of_decompose(self, monkeypatch, capsys, method, lo, hi, segment):
        monkeypatch.setattr(ed2_mod, "_SEGMENT", segment)
        rows, misses = [], []
        for P in primes_between(lo, hi):
            code, out = run_cli("decompose", str(P), "--method", method, "--format", "json")
            capsys.readouterr()
            rows.append(out)
            if code == 1:
                misses.append(P)
        code, out = run_cli("scan", "--from", str(lo), "--to", str(hi), "--method", method, "--format", "json")
        err = capsys.readouterr().err
        assert out == "".join(rows)
        assert (code, err) == ((1, f"no solution within bounds for: {misses}\n") if misses else (0, ""))

    @pytest.mark.parametrize("to", [MR_DETERMINISTIC_BOUND, 10**30])
    def test_range_past_primality_bound_fails_first(self, monkeypatch, capsys, to):
        def refuse(*n):
            raise AssertionError(f"scan tested {n} before checking --to")

        monkeypatch.setattr(cli_mod, "is_prime", refuse)
        monkeypatch.setattr(cli_mod, "primes_between", refuse)
        code, out = run_cli("scan", "--from", "7", "--to", str(to))
        assert code == 2
        assert out == ""
        assert "deterministic primality range" in capsys.readouterr().err

    def test_range_just_below_primality_bound_runs(self):
        code, out = run_cli(
            "scan", "--from", str(MR_DETERMINISTIC_BOUND - 3),
            "--to", str(MR_DETERMINISTIC_BOUND - 1),
        )
        assert code == 0 and out == ""


class TestSieve:
    def test_csv_columns(self):
        code, out = run_cli(
            "sieve", "--delta", "1", "--rmax", "20", "--xmax", "100", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "delta,r,modulus,residue,primes_found,first_prime,exceptional"
        assert lines[1] == "1,4,20,11,3,11,False"
        assert lines[4] == "1,19,95,91,0,,True"

    def test_json_includes_reconstruction(self):
        code, out = run_cli(
            "sieve", "--delta", "1", "--rmax", "4", "--xmax", "100", "--format", "json"
        )
        (rec,) = json_lines(out)
        assert rec["first_prime"] == 11
        assert rec["first_solution"]["A"] == 3

    def test_rejects_bad_class(self):
        code, _ = run_cli("sieve", "--delta", "4", "--rmax", "20", "--xmax", "100")
        assert code == 0  # r = 14 is skipped as inadmissible, not an error


class TestStats:
    def test_json_report(self):
        code, out = run_cli(
            "stats", "--x", "100", "--rmax", "20", "--delta", "1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["average"] == "1"
        assert data["phi_sum"] == "2/9"
        assert data["exceptional"] == [19]

    def test_csv_report(self):
        code, out = run_cli(
            "stats", "--x", "100", "--rmax", "20", "--delta", "1", "--format", "csv"
        )
        assert out.splitlines()[1] == "1,4,20,11,3,11,False"


# sha256 of `stats --x X --rmax 64 --delta D` and `sieve --delta D --rmax 64
# --xmax X` stdout; tests/test_kernels.py and tests/test_sieve.py cross the
# segment boundaries of class_primes and class_scans.  At X = 1e7, the
# density benchmark's x, --rmax is 256 and the sieve spans 8 segments of k.
DENSITY_SHA256 = {
    ("stats", "100000", "1", "json"): "9546b9759d1f20f86145955969946e6753ba4aa76ee41037426319458a73e4b6",
    ("stats", "100000", "1", "csv"): "2718f889936dcb4f51a9b5a1010e528eef5b52b48fa2ffb8668b603f3f70e236",
    ("stats", "100000", "1", "table"): "ee92264ff8af26383e91e2363ef8f23e83fe046a3905a18b4b7596f9baf6d459",
    ("stats", "100000", "7", "json"): "fde54b259c487293a8abb80adb042b555953bb5ffb9b01d4dd26c870055081c9",
    ("stats", "100000", "7", "csv"): "68a2ee48102b23a09ae50004a5e9a3eb12ddc99959d5846b3cb2fbe038464bee",
    ("stats", "100000", "7", "table"): "4cbe74e9e82cb2ecabc20ec8dd9670920e29a9c61bd6fd651b5b672b66f97a4b",
    ("stats", "1100000", "1", "json"): "28c5fbb63bfc147fa9c0e22ce530d1ebdd13d9f5d3d1cac5844d433289bb9665",
    ("stats", "1100000", "1", "csv"): "3686c0112e749cdd58caaf27e93d6e9f60ff64704aa2bc2eaa7d2073f9d442bb",
    ("stats", "1100000", "1", "table"): "c3a514617b3a55129996ab939b4393d6cf03f0347c631cc9c32956e6bf4c91af",
    ("stats", "1100000", "7", "json"): "fa7daafd7354ad2cac6014f824bca3a64cac40e730c050954e4848a84c1277b7",
    ("stats", "1100000", "7", "csv"): "0dc9a4b1f0e7c3b0cbe4a0db8c162d3b5a7973d98e460ff2b4bbfe61c63113b1",
    ("stats", "1100000", "7", "table"): "9c6c4249f14e4d9f88d0c7c464d1d87ff07b46d1b2de98bc52a01b54926d4146",
    ("sieve", "100000", "1", "json"): "dec269cf909bfb2a344724c679159673b26bba86523cac71bc1a7931b736fb25",
    ("sieve", "100000", "1", "csv"): "2718f889936dcb4f51a9b5a1010e528eef5b52b48fa2ffb8668b603f3f70e236",
    ("sieve", "100000", "1", "table"): "b8edc87ca3fdf2bf1c3755ebecccf4dacda8200c2adf1557986f7479096e8f54",
    ("sieve", "100000", "7", "json"): "7ab7d0e00c39c9c9d0dcc77e678aea6b94984c873027a3ba9f00738c23d99b3a",
    ("sieve", "100000", "7", "csv"): "68a2ee48102b23a09ae50004a5e9a3eb12ddc99959d5846b3cb2fbe038464bee",
    ("sieve", "100000", "7", "table"): "36c2634a6e1217038d19d48e7a7615245e8d3c00cce6e68e9d81e6cb4f151f68",
    ("sieve", "1100000", "1", "json"): "9c07ca6e90e01381d70bd1491508ce8c651f5ef6708d36f174789b449c2816bf",
    ("sieve", "1100000", "1", "csv"): "3686c0112e749cdd58caaf27e93d6e9f60ff64704aa2bc2eaa7d2073f9d442bb",
    ("sieve", "1100000", "1", "table"): "d1a4fbb5cde128e720fb235e3dc9c102a78b8ebb4f821a65315f646857a9381f",
    ("sieve", "1100000", "7", "json"): "f0788a36f3e131eee931058f6fff117e63b7718efef7f20d57030740c641ee15",
    ("sieve", "1100000", "7", "csv"): "0dc9a4b1f0e7c3b0cbe4a0db8c162d3b5a7973d98e460ff2b4bbfe61c63113b1",
    ("sieve", "1100000", "7", "table"): "ba6d989a007151ee3df7afc9ab54ae9af942bb198312d08971af82aa14c1aad6",
    ("sieve", "10000000", "1", "json"): "6946f2de68bc10b779af11df230b83bd54fd836a07db04ef67c3403f1459dffc",
    ("sieve", "10000000", "1", "csv"): "56e7df201c0643aa9327abb1db27795495f0bc02aa174c21d17ede91d2a149c2",
    ("sieve", "10000000", "7", "json"): "5a9b0d9dccfb2f8db5058f8cede6d8b879cedf392b6a8b93922255f0102219d3",
    ("sieve", "10000000", "7", "csv"): "bd4a0715cd757f84a90ed299a15e9f27f117cd58c68fdc362562f315e9a14f5e",
}


@pytest.mark.parametrize("command, x, delta, fmt", sorted(DENSITY_SHA256))
def test_density_output_is_pinned(command, x, delta, fmt):
    rmax = "256" if x == "10000000" else "64"
    if command == "stats":
        argv = ("stats", "--x", x, "--rmax", rmax, "--delta", delta)
    else:
        argv = ("sieve", "--delta", delta, "--rmax", rmax, "--xmax", x)
    code, out = run_cli(*argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DENSITY_SHA256[command, x, delta, fmt]


# sha256 of `stats --x X --rmax 256 --delta D` stdout, recorded before
# n_of_p was streamed: the density benchmark's inputs at X = 1e7, no
# prime at X = 10 ("n_of_p":{} and "average":null), one prime at X = 11
STATS_SHA256 = {
    ("10000000", "1", "json"): "9a5ddf08b0a5c4e0466e32d5b38bc2ba7462bf39095f05a1acd3d987d4e406fd",
    ("10000000", "1", "csv"): "56e7df201c0643aa9327abb1db27795495f0bc02aa174c21d17ede91d2a149c2",
    ("10000000", "1", "table"): "62e2d1c746604aed8edeac25e703647e11c34d6bdcf195937b97a6ee0127ac73",
    ("10000000", "5", "json"): "f20320596d602bb4a52a404ce01a15f9540283133bbaf254312fb381ecbe29e5",
    ("10000000", "5", "csv"): "a60c36171d81ba90097da508135213d59fcc0824a78cc17e6eaa1e27c61a0108",
    ("10000000", "5", "table"): "4a74cd10fb4b832838a71785f89bc898ca957081b98bff834cc82d3cfeefcaab",
    ("10000000", "25", "json"): "03f687a66c7131afb54ade81be22ad711072e1009782e17a79193bbe43479366",
    ("10000000", "25", "csv"): "fc741264bb0ed20bec2452ca8a71aa9f478c804236a836c617f577d76c812c6f",
    ("10000000", "25", "table"): "be245c485aa8ded1bb8881792629418e7bf980ac80520fc0c0066c15e31187ad",
    ("10", "1", "json"): "05421cc218d2431b319925172aea8d4d840136708dbd66c554dcce8bd24db14d",
    ("10", "1", "csv"): "318c35f9895f6625108b312220ae25c902d27566d7bc19ade997799264f2b9d3",
    ("10", "1", "table"): "37fa5786be121b87ea1e5d778672e3703dc3137e4b877b44c5cbca8d30682681",
    ("11", "1", "json"): "41645f76a79aca28c3de56a1bac218d354bc924d80cbdfdb0cc95e7f77f92a86",
    ("11", "1", "csv"): "ae0e7a6d341faccba7fe1ecfae71a008e4e35dd2946c314627644d1602663b3f",
    ("11", "1", "table"): "fde0453515cf34da2b8886d233ede6a41229b60fe6bed58d81eb6d34950a175c",
}


@pytest.mark.parametrize("x, delta, fmt", sorted(STATS_SHA256))
def test_stats_output_is_pinned(x, delta, fmt):
    code, out = run_cli("stats", "--x", x, "--rmax", "256", "--delta", delta, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_SHA256[x, delta, fmt]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    offset=st.integers(-40, 40),
    R=st.integers(1, 80),
    delta=st.integers(1, 30),
    chunk=st.integers(1, 50),
)
def test_streamed_stats_line_is_one_dumps(k, offset, R, delta, chunk):
    # x near a power of ten, where the keys' string order leaves numeric
    # order ("100003" < "11"), and pieces small enough to split n_of_p
    x = max(1, 10**k + offset)
    with mock.patch.object(sieve, "N_OF_P_CHUNK", chunk):
        code, out = run_cli(
            "stats", "--x", str(x), "--rmax", str(R), "--delta", str(delta), "--format", "json"
        )
    assert code == 0
    report = sieve.average_local_params(x, R, delta)
    n_of_p = {str(P): n for P, n in zip(report.primes.tolist(), report.totals.tolist())}
    record = {**report.as_dict(), "n_of_p": n_of_p}
    assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def test_stats_json_writes_in_bounded_pieces():
    # 1e7 holds 166,104 primes = 1 (mod 5): six pieces of n_of_p, none
    # longer than N_OF_P_CHUNK members of at most '"9999991":51,'
    writes = []
    stream = mock.Mock(write=writes.append)
    argv = ["stats", "--x", "10000000", "--rmax", "256", "--delta", "1", "--format", "json"]
    assert main(argv, out=stream) == 0
    assert len(writes) >= 2 + 166104 // sieve.N_OF_P_CHUNK
    assert max(map(len, writes)) <= sieve.N_OF_P_CHUNK * len('"9999991":51,') + 1
    digest = hashlib.sha256("".join(writes).encode()).hexdigest()
    assert digest == STATS_SHA256["10000000", "1", "json"]


def refuse_to_sieve(monkeypatch, refuse):
    """Put refuse on the steps that sieve: class_scans' progression sieve,
    the one sieve of sieve, and the list of primes, the one sieve of stats."""
    monkeypatch.setattr(sieve, "_sieve_flags", refuse)
    monkeypatch.setattr(_kernels, "class_primes", refuse)


def test_stats_sieves_once_and_sieve_once(monkeypatch):
    calls = {"class_primes": 0, "_sieve_flags": 0}

    def spy(name, step):
        def counted(*args):
            calls[name] += 1
            return step(*args)
        return counted

    monkeypatch.setattr(_kernels, "class_primes", spy("class_primes", _kernels.class_primes))
    monkeypatch.setattr(sieve, "_sieve_flags", spy("_sieve_flags", sieve._sieve_flags))
    code, _ = run_cli("stats", "--x", "1100000", "--rmax", "64", "--delta", "1", "--format", "json")
    assert code == 0
    assert calls == {"class_primes": 1, "_sieve_flags": 0}
    code, _ = run_cli("sieve", "--delta", "1", "--rmax", "64", "--xmax", "1100000", "--format", "json")
    assert code == 0
    assert calls == {"class_primes": 1, "_sieve_flags": 1}
    # csv writes the class rows alone, so stats takes them from sieve's sieve
    code, _ = run_cli("stats", "--x", "1100000", "--rmax", "64", "--delta", "1", "--format", "csv")
    assert code == 0
    assert calls == {"class_primes": 1, "_sieve_flags": 2}


@pytest.mark.parametrize("command", ["stats", "sieve"])
def test_working_set_past_budget_exits_2_before_sieving(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a sieve ran past the working-set budget")

    refuse_to_sieve(monkeypatch, refuse)
    x = 10
    while sieve.working_set_bytes(x, 64) <= sieve.WORKING_SET_BUDGET:
        x *= 10
    flag = "--x" if command == "stats" else "--xmax"
    for fmt in ("json", "csv"):  # stats checks phi_sum for json alone
        code, out = run_cli(command, flag, str(x), "--rmax", "64", "--delta", "1", "--format", fmt)
        assert (code, out) == (2, "")
        assert "working-set budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "sieve"])
def test_rmax_past_budget_exits_2_before_listing_moduli(command, monkeypatch, capsys):
    class Listed(Exception):
        pass

    def refuse(*args):
        raise Listed

    monkeypatch.setattr(sieve, "admissible_moduli", refuse)
    refuse_to_sieve(monkeypatch, refuse)
    flag = "--x" if command == "stats" else "--xmax"
    for fmt in ("json", "csv"):  # stats checks phi_sum for json alone
        code, out = run_cli(command, flag, "100", "--rmax", str(10**10), "--delta", "1", "--format", fmt)
        assert (code, out) == (2, "")
        assert "working-set budget" in capsys.readouterr().err


def test_largest_x_under_budget_is_accepted(monkeypatch):
    lo, hi = 2, 10**12  # working_set_bytes(lo, 64) <= budget < working_set_bytes(hi, 64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sieve.working_set_bytes(mid, 64) <= sieve.WORKING_SET_BUDGET else (lo, mid)

    class Sieved(Exception):
        pass

    def stop(*args):
        raise Sieved

    refuse_to_sieve(monkeypatch, stop)
    for scan in (sieve.class_scans, sieve.average_local_params):  # sieve's entry, stats'
        with pytest.raises(SerpError, match="working-set budget"):  # before any sieve
            scan(hi, 64, 1)
        with pytest.raises(Sieved):  # past the guard, at the sieve
            scan(lo, 64, 1)


def test_working_set_estimate_covers_the_primes():
    for x in (10, 11, 10**4, 10**6, 10**7):
        count = _kernels.class_primes(1, 5, x).size
        assert sieve.working_set_bytes(x, 1) >= sieve.BYTES_PER_PRIME * count


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_unwritable_phi_sum_exits_2_before_sieving(fmt, monkeypatch, capsys):
    # At R = 1e5 the sum of 1/phi(5r) has more digits than an int may be
    # written with; json and table write it, so they refuse before sieving.
    def refuse(*args):
        raise AssertionError("stats sieved before it checked phi_sum")

    refuse_to_sieve(monkeypatch, refuse)
    code, out = run_cli("stats", "--x", "10", "--rmax", "100000", "--delta", "1", "--format", fmt)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert "phi_sum" in err and "R = 100000" in err


def test_unwritable_phi_sum_leaves_csv_alone():
    code, out = run_cli("stats", "--x", "10", "--rmax", "100000", "--delta", "1", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(sieve.admissible_moduli(100000, 1))


@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "--x", "100", "--rmax", "20", "--delta", "-1"),
        ("stats", "--x", "100", "--rmax", "20", "--delta", "0"),
        ("sieve", "--delta", "-1", "--rmax", "20", "--xmax", "100"),
        ("decompose", "31", "--gamma-max", "-3", "--delta-max", "-3"),
        ("decompose", "31", "--delta-max", "0"),
        ("scan", "--from", "7", "--to", "100", "--gamma-max", "0"),
        ("scan", "--from", "7", "--to", "100", "--delta-max", "-3"),
        ("stats", "--x", "-3", "--rmax", "20", "--delta", "1"),
        ("stats", "--x", "100", "--rmax", "-1", "--delta", "1"),
        ("sieve", "--delta", "1", "--rmax", "0", "--xmax", "100"),
        ("sieve", "--delta", "1", "--rmax", "20", "--xmax", "-3"),
        ("stats", "--x", "abc", "--rmax", "2", "--delta", "1"),
        ("decompose", "31", "--delta-max", "1.5"),
    ],
)
def test_nonpositive_delta_is_usage_error(argv, monkeypatch, capsys):
    # Every bound must be an integer >= 1; the error names the first bad
    # flag and its value, and scan fails before it tests any integer.
    def refuse(*n):
        raise AssertionError(f"scan tested {n} before checking its bounds")

    monkeypatch.setattr(cli_mod, "primes_between", refuse)
    flag, value = next(
        (flag, value) for flag, value in zip(argv, argv[1:])
        if flag.startswith("--") and not (value.isdigit() and int(value) > 0)
    )
    code, out = run_cli(*argv, "--format", "json")
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert flag in err and value in err
    assert "_positive_int" not in err


def test_bounds_ignore_the_environment(monkeypatch):
    # bounds come from flags or P's defaults only
    argvs = [
        ("decompose", "31", "--method", "ed2", "--all", "--format", "json"),
        ("scan", "--from", "7", "--to", "3000", "--format", "json"),
    ]
    monkeypatch.delenv("SERP_DELTA_MAX", raising=False)
    monkeypatch.delenv("SERP_GAMMA_MAX", raising=False)
    unset = [run_cli(*argv) for argv in argvs]
    monkeypatch.setenv("SERP_DELTA_MAX", "1")
    monkeypatch.setenv("SERP_GAMMA_MAX", "4")
    assert [run_cli(*argv) for argv in argvs] == unset
    assert len(json_lines(unset[0][1])) > 1  # delta_max = 1 would leave one


class TestTable:
    def test_check_73_all_match(self):
        code, out = run_cli("table", "73", "--check", "--format", "json")
        assert code == 0
        recs = json_lines(out)
        assert [r["status"] for r in recs] == ["Match"] * 4

    def test_check_2521_flags_rows(self):
        code, out = run_cli("table", "2521", "--check", "--format", "json")
        recs = json_lines(out)
        assert [r["status"] for r in recs] == [
            "Mismatch", "Mismatch", "Match", "Match", "Mismatch",
        ]
        assert recs[0]["recomputed"] is None
        assert recs[4]["recomputed"]["b"] == 39

    # sha256 of the errata report `table T --check` in the csv and table
    # layouts, the ones built row by row from both value sets
    ERRATA_SHA256 = {
        ("41", "csv"): "08c020a696b61f44382de9c8beeb9811cf0d753c75ef5a1eff04f9ba3b825def",
        ("41", "table"): "ccb74591dc7e28059b36caff2c6e820876ba5f98bef43ac11f1545f61679c073",
        ("2521", "csv"): "e41d451ad0359eedcd3e7d75ed3fb5ce669a4599c981b879b163a7959e7cefd9",
        ("2521", "table"): "8796fae8983c4b6d5a2ff7910ba714d93bc66e8fd09c634cf1a85da80d3c8b78",
    }

    @pytest.mark.parametrize("table_id, fmt", sorted(ERRATA_SHA256))
    def test_errata_report_is_pinned(self, table_id, fmt):
        code, out = run_cli("table", table_id, "--check", "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.ERRATA_SHA256[table_id, fmt]

    def test_printed_rows_without_check(self):
        code, out = run_cli("table", "41", "--format", "json")
        (rec,) = json_lines(out)
        assert rec["delta"] == 9 and rec["A"] == 616  # printed values, uncorrected

    def test_unknown_table(self):
        code, _ = run_cli("table", "99", "--check")
        assert code == 2


# A reader that stops early, as `serp scan ... | head -n 1` does, closes
# stdout under a run that has more to write: the run ends quietly with
# 128 + SIGPIPE, not with a traceback and the exit code of a miss.
@pytest.mark.parametrize("argv", [
    ["scan", "--from", "0", "--to", "100000"],
    ["stats", "--x", "1000000", "--rmax", "64", "--delta", "1"],
])
def test_closed_stdout_exits_141_quietly(argv):
    src = str(Path(cli_mod.__file__).parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.Popen(
        [sys.executable, "-m", "serp.cli", *argv, "--format", "json"],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline(100)  # the first line, or its first 100 bytes
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert "Traceback" not in err and "BrokenPipe" not in err


def test_invariant_violation_exit_code(monkeypatch):
    # force the no-unchecked-output guard to trip
    import serp.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify_solution", lambda *a: False)
    code, out = run_cli("decompose", "11", "--format", "json")
    assert code == 3
    assert out == ""


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "11", "--all", "--format", "json"),
            ("table", "2521", "--check", "--format", "json"),
            ("stats", "--x", "200", "--rmax", "20", "--delta", "1", "--format", "json"),
            ("sieve", "--delta", "1", "--rmax", "20", "--xmax", "100", "--format", "csv"),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


INTEGERS = st.integers(-10**3, 10**7)
# the least prime at or after a draw, so about half of the inputs are prime
PRIMES = st.integers(2, 10**7).map(lambda n: next(primes_between(n, n + 1000)))
NEAR_MR_BOUND = st.integers(MR_DETERMINISTIC_BOUND - 10**3, MR_DETERMINISTIC_BOUND + 10**3)


@settings(max_examples=200, deadline=None)
@given(n=INTEGERS | PRIMES)
def test_decompose_exit_codes_on_any_integer(n):
    # run_cli lets any exception out of main fail the test
    code, out = run_cli("decompose", str(n), "--format", "json")
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert (code == 2) == (n in (2, 5) or not is_prime(n))
        return
    records = json_lines(out)
    assert records
    for r in records:
        assert r["P"] == n and verify_solution(n, r["A"], r["B"], r["C"])
        assert run_cli("verify", str(n), str(r["A"]), str(r["B"]), str(r["C"]))[0] == 0


@settings(max_examples=300, deadline=None)
@given(
    P=INTEGERS | PRIMES | NEAR_MR_BOUND,
    abc=st.tuples(INTEGERS, INTEGERS, INTEGERS),
    closed_form=st.booleans(),
)
def test_verify_exit_codes_on_any_integers(P, abc, closed_form):
    if closed_form and P >= 3 and P % 5 in (3, 4):
        abc = decompose_explicit(P).triple()  # exact for every such P, prime or not
    code, out = run_cli("verify", str(P), *map(str, abc), "--format", "json")
    usage = P >= MR_DETERMINISTIC_BOUND or not is_prime(P)
    assert code == (2 if usage else 0 if verify_solution(P, *abc) else 1)
    if code == 2:
        assert out == ""
    else:
        (record,) = json_lines(out)
        assert record["valid"] == (code == 0)
