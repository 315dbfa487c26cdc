import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hemisys
from hemisys import cli, curves, gf, groups, hemisystem, numbers, pg3

import oracles


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_primes_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "primes", "--max", "51000")
    assert code == 0
    rows = [ln for ln in out.strip().split("\n")[1:] if ln]
    assert len(rows) == 18
    assert rows[0].endswith("17") and rows[-1].endswith("50177")


def test_primes_deterministic(capsys):
    _, out1, _ = run(capsys, "primes", "--max", "300", "--format", "json")
    _, out2, _ = run(capsys, "primes", "--max", "300", "--format", "json")
    assert out1 == out2


def test_construct_verify_cp3(capsys, tmp_path):
    path = str(tmp_path / "h3.hs")
    code, out, _ = run(capsys, "construct", "--family", "cp", "--p", "3",
                       "--out", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"] == 56 and payload["passed"] is True
    code, out, _ = run(capsys, "verify", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["histogram"] == "2:280"


def test_construct_output_deterministic(capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.hs"), str(tmp_path / "b.hs")
    _, out1, _ = run(capsys, "construct", "--family", "cp", "--p", "3",
                     "--out", p1, "--format", "json")
    _, out2, _ = run(capsys, "construct", "--family", "cp", "--p", "3",
                     "--out", p2, "--format", "json")
    assert json.loads(out1)["histogram"] == json.loads(out2)["histogram"]
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_verify_threads_same_output(capsys, tmp_path):
    path = str(tmp_path / "h5.hs")
    run(capsys, "construct", "--family", "cp", "--p", "5", "--out", path)
    _, out1, _ = run(capsys, "verify", path, "--format", "json")
    _, out4, _ = run(capsys, "--threads", "4", "verify", path, "--format", "json")
    assert out1 == out4


def test_construct_cp_seed_orbit_override(capsys, tmp_path):
    p1, p2 = str(tmp_path / "plus.hs"), str(tmp_path / "minus.hs")
    code1, out1, _ = run(capsys, "construct", "--family", "cp", "--p", "3",
                         "--out", p1, "--format", "json")
    code2, out2, _ = run(capsys, "construct", "--family", "cp", "--p", "3",
                         "--seed-orbit", "minus", "--out", p2, "--format", "json")
    assert code1 == 0 and code2 == 0
    assert json.loads(out2)["seed_orbit"] == "minus"
    assert Path(p1).read_text() != Path(p2).read_text()


def test_construct_ft13_is_config_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "ft", "--p", "13")
    assert code == 2
    assert "non-square" in err


def test_construct_ft9_without_force_is_config_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "ft", "--p", "3", "--h", "2")
    assert code == 2
    assert "criterion" in err


def test_verification_failure_exit_code(capsys, tmp_path):
    path = str(tmp_path / "h3.hs")
    run(capsys, "construct", "--family", "cp", "--p", "3", "--out", path)
    lines = Path(path).read_text().split("\n")
    # drop one body line and fix the header so the file parses
    import hashlib
    body = [ln for ln in lines[4:] if ln][1:]
    body_text = "\n".join(body) + "\n"
    digest = hashlib.sha256(body_text.encode()).hexdigest()
    lines[3] = f"count=55 sha256={digest}"
    Path(path).write_text("\n".join(lines[:4]) + "\n" + body_text)
    code, out, _ = run(capsys, "verify", path)
    assert code == 1


def test_tampered_file_exit_code(capsys, tmp_path):
    path = str(tmp_path / "h3.hs")
    run(capsys, "construct", "--family", "cp", "--p", "3", "--out", path)
    raw = Path(path).read_bytes()
    pos = raw.index(b"\n", raw.index(b"sha256=")) + 2
    flip = b"1" if raw[pos:pos + 1] != b"1" else b"2"
    Path(path).write_bytes(raw[:pos] + flip + raw[pos + 1:])
    code, _, err = run(capsys, "verify", path)
    assert code == 1 and "checksum" in err


@pytest.mark.parametrize("line, old, new", [
    (2, "h=1", "h=0"), (2, "h=1", "h=-1"), (2, "p=3", "p=4"), (2, "p=3", "p=2"),
    (2, "eps=na", "eps=2"), (2, "chi=na", "chi=5"),
    (3, None, "poly2=a,b"), (3, None, "poly2=")])
def test_bad_file_header_exit_code(capsys, tmp_path, line, old, new):
    # the sha256 covers only the body, so the edited header still passes it
    path = tmp_path / "h3.hs"
    run(capsys, "construct", "--family", "cp", "--p", "3", "--out", str(path))
    lines = path.read_text().split("\n")
    assert old is None or old in lines[line - 1]
    lines[line - 1] = new if old is None else lines[line - 1].replace(old, new)
    path.write_text("\n".join(lines))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"error: line {line}: " in err


@pytest.mark.parametrize("fault", ["zero point", "invalid utf-8", "blank line"])
def test_bad_file_body_exit_code(capsys, tmp_path, fault):
    # the fault goes on file line 30 and the checksum is recomputed
    path = tmp_path / "h3.hs"
    run(capsys, "construct", "--family", "cp", "--p", "3", "--out", str(path))
    raw = path.read_bytes().split(b"\n")
    head, body = raw[:4], raw[4:-1]
    if fault == "zero point":
        body[25] = b"0:0,0:0,0:0,0:0;" + body[25].split(b";")[1]
    elif fault == "invalid utf-8":
        body[25] = b"\xff" + body[25][1:]
    else:
        body.insert(25, b"")
    text = b"".join(ln + b"\n" for ln in body)
    head[3] = f"count=56 sha256={hashlib.sha256(text).hexdigest()}".encode()
    path.write_bytes(b"\n".join(head) + b"\n" + text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == "" and "Traceback" not in err
    assert "error: line 30: " in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["construct", "--family", "xx", "--p", "3"]) == 2
    assert cli.main(["--threads", "0", "primes", "--max", "20"]) == 2


@pytest.mark.parametrize("argv", [["survey", "--q-max", "13"], ["primes", "--max", "20"],
                                  ["eccount", "--p", "5"], ["diagnose", "--p", "17"]])
def test_threads_is_a_usage_error_where_it_does_not_act(capsys, argv):
    # only construct and verify count with workers; elsewhere --threads N != 1
    # is refused, before or after the subcommand, and --threads 1 is accepted
    for args in (["--threads", "4", *argv], [*argv, "--threads", "2"]):
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "" and "--threads" in err, args
    if argv[0] != "diagnose":                 # the slowest of the four, run by other tests
        assert run(capsys, "--threads", "1", *argv)[0] == 0


def test_bad_user_input_exit_code(capsys, tmp_path):
    # every refusal a command can reach, and every path it cannot open, exits 2
    # with its message and no traceback
    (tmp_path / "a.hs").write_text("")
    missing, folder, under_a_file = tmp_path / "no.hs", tmp_path, tmp_path / "a.hs" / "x.hs"
    for argv, fragment in (
            (["survey", "--q-list", "12"], "error: survey requires q = 1 mod 4, got 12"),
            (["survey", "--q-list", "x"], "invalid q_list value: 'x'"),
            (["survey", "--q-list", "21"], "error: 21 is not a prime power"),
            (["eccount", "--p", "21"], "error: 21 is not prime"),
            (["eccount", "--p", "9"], "error: 9 is not prime"),
            (["eccount", "--p", "27"], "error: 27 is not prime"),
            (["eccount", "--p", "9", "--h", "2"], "error: 9 is not prime"),
            (["eccount", "--p", "3", "--h", "20"], "bytes of tables, over the cap"),
            (["construct", "--family", "cp", "--p", "2"], "error: characteristic 2 is not"),
            (["construct", "--family", "cp", "--p", "4"], "error: 4 is not prime"),
            (["construct", "--family", "cp", "--p", "9"], "error: 9 is not prime"),
            (["construct", "--family", "cp", "--p", "3", "--h", "0"], "invalid positive_int"),
            (["construct", "--family", "cp", "--p", "3", "--out", str(missing / "x.hs")],
             "error: [Errno 2] No such file or directory"),
            (["construct", "--family", "cp", "--p", "3", "--out", str(folder)],
             "error: [Errno 21] Is a directory"),
            (["verify", str(missing)], "error: [Errno 2] No such file or directory"),
            (["verify", str(folder)], "error: [Errno 21] Is a directory"),
            (["verify", str(under_a_file)], "error: [Errno 20] Not a directory"),
            (["diagnose", "--p", "7"], "error: q = 7 is not 1 mod 4"),
            (["diagnose", "--p", "17", "--h", "0"], "invalid positive_int value: '0'"),
            (["diagnose", "--p", "17", "--samples", "100"],
             "unrecognized arguments: --samples 100")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err, argv
        assert fragment in err, (argv, err)


def test_verify_refuses_a_size_past_physical_memory(capsys, tmp_path):
    # a file that passes every format check at q=233, the largest q whose packed
    # points fit an int64; its uint8 counts alone would take 0.69 TB
    ctx = gf.make_field(233, 2)
    path = tmp_path / "q233.hs"
    path.write_text("#hemis v1\nfamily=cp p=233 h=1 eps=na chi=na\n"
                    f"poly2={','.join(map(str, ctx.poly))}\n"
                    f"count=0 sha256={hashlib.sha256(b'').hexdigest()}\n")
    need = hemisystem._verify_bytes(pg3.cp_frame(ctx), 1)
    assert need > 6.8e11
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: verify at q=233 needs {need} bytes")
    # ft q=41 --force at 2 workers needs 0.30 GB: one 0.12 GB uint8 row and one
    # 1 MB block workspace per worker, and 63 MB of tables
    assert 2.9e8 < hemisystem._verify_bytes(pg3.ft_frame(gf.make_field(41, 2)), 2) < 3.2e8


def test_verify_refuses_more_points_than_int32_indices(capsys, monkeypatch, tmp_path):
    # q=79 has 3,077,555,680 surface points, past what an int32 index holds;
    # with physical memory taken as 2^80 bytes the budget passes, the guard does not
    ctx = gf.make_field(79, 2)
    assert pg3.ft_frame(ctx).num_points >= 2 ** 31
    path = tmp_path / "q79.hs"
    path.write_text("#hemis v1\nfamily=ft p=79 h=1 eps=+1 chi=+1\n"
                    f"poly2={','.join(map(str, ctx.poly))}\n"
                    f"count=0 sha256={hashlib.sha256(b'').hexdigest()}\n")
    monkeypatch.setattr(hemisystem.os, "sysconf", lambda name: 2 ** 40)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: q=79 has 3077555680 surface points") and "2**31" in err
    # q=73, the largest q the line codes allow, passes
    frame73 = pg3.ft_frame(gf.make_field(73, 2))
    assert frame73.num_points < 2 ** 31
    pg3.require_int32_indices(frame73)


def test_verify_builds_the_field_once(capsys, monkeypatch, tmp_path, cp3_build):
    # import_candidate's GF(q^2) reaches verify; neither builds it again
    path = tmp_path / "h3.hs"
    hemisystem.export(cp3_build[0], str(path))
    make_field, calls = gf.make_field, []

    def counting(p, d):
        calls.append((p, d))
        return make_field(p, d)

    for mod in (gf, hemisystem, curves, numbers):
        monkeypatch.setattr(mod, "make_field", counting)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "passed = True" in out
    assert calls == [(3, 2)]


@pytest.mark.parametrize("argv,field", [(("ft", "17"), (17, 2)), (("cp", "3"), (3, 2))],
                         ids=["ft17", "cp3"])
def test_construct_builds_one_field(capsys, monkeypatch, argv, field):
    # GF(q^2) is the only field a construct builds: no GF(q^4), no GF(q)
    make_field, calls = gf.make_field, []

    def counting(p, d):
        calls.append((p, d))
        return make_field(p, d)

    for mod in (gf, hemisystem, curves, numbers):
        monkeypatch.setattr(mod, "make_field", counting)
    code, out, _ = run(capsys, "construct", "--family", argv[0], "--p", argv[1])
    assert code == 0 and "passed = True" in out
    assert calls == [field]


def test_construct_refuses_an_unusable_out_before_building(capsys, monkeypatch, tmp_path):
    # the error export's open(out, "wb") would raise, raised before any build and
    # leaving no file behind
    def build(*args, **kwargs):
        raise AssertionError("built before --out was checked")

    for name in ("build_cp", "build_ft_verified"):
        monkeypatch.setattr(hemisystem, name, build)
    (tmp_path / "a.hs").write_text("")
    for out in (str(tmp_path / "no" / "x.hs"), str(tmp_path), str(tmp_path / "a.hs" / "x.hs"),
                str(tmp_path / "new") + os.sep, str(tmp_path / "a.hs") + os.sep):
        with pytest.raises(OSError) as late:
            open(out, "wb")
        for family, p in (("cp", "3"), ("ft", "17")):
            code, stdout, err = run(capsys, "construct", "--family", family, "--p", p, "--out", out)
            assert (code, stdout, err) == (2, "", f"error: {late.value}\n"), out
    assert list(tmp_path.rglob("*")) == [tmp_path / "a.hs"]


def test_construct_writes_a_failing_candidate_over_a_file(capsys, tmp_path):
    out = tmp_path / "ft9.hs"
    out.write_text("")
    code, _, _ = run(capsys, "construct", "--family", "ft", "--p", "3", "--h", "2", "--force",
                     "--out", str(out))
    assert code == 1 and len(hemisystem.import_candidate(str(out)).lines) == 3650


def test_internal_error_exit_code(capsys, monkeypatch):
    # misuse of the API (a builtin ValueError) and a broken invariant are bugs, not input
    for fault in (ValueError("line through equal points"), gf.InvariantFailed("index-2 split")):
        def raise_fault(*args, **kwargs):
            raise fault

        monkeypatch.setattr(hemisystem, "verify", raise_fault)
        code, out, err = run(capsys, "construct", "--family", "cp", "--p", "3")
        assert code == 3 and out == ""
        assert "Traceback" in err and f"{type(fault).__name__}: {fault}" in err


def test_every_exception_class_is_one_of_the_three_types():
    # one type per exit code the command line tells apart: a new refusal cannot
    # fall through to exit 3 for want of a place on a list
    defined = {obj for info in pkgutil.iter_modules(hemisys.__path__)
               for obj in vars(importlib.import_module(f"hemisys.{info.name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("hemisys")}
    assert defined == {gf.UsageError, gf.CandidateError, gf.InvariantFailed}


def test_survey_csv_header(capsys):
    code, out, _ = run(capsys, "--format", "csv", "survey", "--q-list", "5,9,13,17")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,N_E3,conditionB,p_mod8,q_square"
    assert lines[1] == "5,8,true,5,false"
    assert lines[4] == "17,16,true,1,false"


def test_survey_qmax(capsys):
    code, out, _ = run(capsys, "survey", "--q-max", "29", "--format", "csv")
    qs = [int(ln.split(",")[0]) for ln in out.strip().split("\n")[1:]]
    assert qs == [5, 9, 13, 17, 25, 29]


def test_eccount_json(capsys):
    code, out, _ = run(capsys, "eccount", "--p", "17", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N_E3"] == 16 and payload["n_q"] == 9
    assert payload["alpha1"] == 1 and payload["count_from_alpha1"] == 16
    assert payload["conditionB"] is True


def test_construct_verify_ft17_end_to_end(capsys, tmp_path):
    path = str(tmp_path / "h17.hs")
    code, out, _ = run(capsys, "construct", "--family", "ft", "--p", "17",
                       "--out", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"] == 44226 and payload["histogram"] == "9:1425060"
    code, out, _ = run(capsys, "--threads", "4", "verify", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["histogram"] == "9:1425060"


def test_diagnose_q17(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "17", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m1_size"] == 22032
    assert payload["g1_size"] == 44064
    assert payload["m2_size"] == 162
    assert {payload["r"], payload["r_prime"]} == {4, 5}
    assert payload["two_r_prime_minus_1"] == payload["n_q"] == 9
    assert payload["quad_action_ok"] is True


def test_diagnose_reports_a_broken_quadruple_map(capsys, monkeypatch):
    # N_sigma0's pair map spoilt: diagnose still exits 0 and says so
    monkeypatch.setattr(groups, "ft_generators", oracles.broken_map(groups.ft_generators, 3))
    code, out, _ = run(capsys, "diagnose", "--p", "17")
    assert code == 0
    assert "quad_action_ok = False\n" in out


DIAGNOSE_STDOUT_SHA256 = {
    ("--p", "17", "--eps", "1"):
        "6e03b0d95cd458d6a5c2a134a8580d6049a50a950808d555f9837ed19bd5694c",
    ("--p", "17", "--eps", "-1"):
        "961e57abd44c36b39b1d0136e2a0f04fcaf39e93e81a689ab04c2f2d2d156631",
    ("--p", "3", "--h", "2", "--eps", "1"):
        "35606688448fec0bd5bf9cfec073dc794b018c5b2329b170f8cd9fea918c9d2f",
    ("--p", "3", "--h", "2", "--eps", "-1"):
        "67b609c8270e10a5ec866d1d4d09591216517cc7ab425b3b9ae98a2467f96acb",
    ("--p", "5", "--h", "2"):
        "98b790abe3f5d73dc4663aaffb8cbd5109d8effbe106b0963e258c9201120551",
    ("--p", "41"):
        "a94892b197548212874238d3c09f4fb9bdba2e44cd49ae0e32c3adb3753a6d7d",
}


@pytest.mark.parametrize("args", list(DIAGNOSE_STDOUT_SHA256))
def test_diagnose_stdout_pinned(capsys, args):
    # the whole JSON payload, byte for byte
    code, out, _ = run(capsys, "diagnose", *args, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIAGNOSE_STDOUT_SHA256[args]


ECCOUNT_STDOUT_SHA256 = {
    ("--p", "17"): "5edb4e1897340d0652122779c3c8a8c3e081aaef7cbb3e760a6d9172cd2e3000",
    ("--p", "3", "--h", "2"): "ec29bd2239918bbaf373b76384f22ca82021c23e4b3434cfdac2326158f69460",
    ("--p", "5"): "a6616a55f4806a57c6893aacef5e495027a551739729f62113cdd0b7156d8472",
    ("--p", "13"): "9fa9e078a6e22278fc7260a79b1f668ff47856000ea66eae1580457329bc5ad0",
    ("--p", "29"): "aa73fd5467525dad6cca795203f5ca88b128d0390b68228d1fcdb024f4644bf6",
    ("--p", "5", "--h", "2"): "4e488b03cb08d757379e75bbb658694659400fc2f2a28b8f09653ea095b4aeea",
}


@pytest.mark.parametrize("args", list(ECCOUNT_STDOUT_SHA256))
def test_eccount_stdout_pinned(capsys, args):
    # every count of the record, and the Gaussian-integer fields at p = 1 mod 4
    code, out, _ = run(capsys, "eccount", *args, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ECCOUNT_STDOUT_SHA256[args]


def test_eccount_counts_E3_once(capsys, monkeypatch):
    calls, count = [], numbers.count_E3
    monkeypatch.setattr(numbers, "count_E3", lambda *args: calls.append(args) or count(*args))
    assert run(capsys, "eccount", "--p", "17")[0] == 0
    assert len(calls) == 1


def test_survey_stdout_pinned(capsys):
    code, out, _ = run(capsys, "survey", "--q-max", "101", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2c2078542801b6872fe894dd91c82151e5556a4d9983a3f53a5a069de75d93f4"


CLI_RUNS_WITHOUT_NUMPY_MA = """
import sys
from hemisys import cli
codes = [cli.main(["construct", "--family", "cp", "--p", "5", "--out", "cp5.hs"]),
         cli.main(["construct", "--family", "ft", "--p", "3", "--h", "2", "--force"]),
         cli.main(["verify", "cp5.hs"])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_cli_never_imports_numpy_ma(tmp_path):
    # numpy 2.4's np.unique (and np.isin, np.setdiff1d through it) imports
    # numpy.ma, about 30 ms of every process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", CLI_RUNS_WITHOUT_NUMPY_MA], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 1, 0] False"


CLI_LOADS = """
import json, sys
from hemisys import cli
alone = "_hashlib" in sys.modules
from hemisys import pg3
count, hashed = pg3.count_incidences, set()

def counting(*args):
    hashed.add("_hashlib" in sys.modules)
    return count(*args)

pg3.count_incidences = counting
code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("hemisys.") or m == "_hashlib"]
print(json.dumps([code, alone, sorted(hashed), sorted(loaded)]))
"""
VERIFY = ["_hashlib", "hemisys.cli", "hemisys.gf", "hemisys.hemisystem", "hemisys.pg3"]
CP = VERIFY[1:] + ["hemisys.curves"]
FT = CP + ["hemisys.groups", "hemisys.numbers"]
FT9 = ["construct", "--family", "ft", "--p", "3", "--h", "2", "--force"]


@pytest.mark.parametrize("argv, code, hashed, loaded", [
    (["verify", "cp5.hs"], 0, [True], VERIFY),      # the sha256 is checked before counting
    (["construct", "--family", "cp", "--p", "5"], 0, [False], CP),
    (FT9, 1, [False], FT),
    (FT9 + ["--out", "ft9.hs"], 1, [False], FT + ["_hashlib"]),   # OpenSSL comes with export
], ids=["verify", "cp", "ft", "ft-out"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, hashed, loaded):
    hemisystem.export(hemisystem.build_cp(5), str(tmp_path / "cp5.hs"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", CLI_LOADS, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [code, False, hashed, sorted(loaded)]
