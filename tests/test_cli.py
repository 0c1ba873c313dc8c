"""CLI smoke tests: emit/check/sweep, exit codes, determinism."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hessecubic
from hessecubic import (CalibrationFailed, OrderTooHigh, PolyMatrix, ThetaContext, UlrichSpec,
                        bundles, cli, hesse_psi, theta)
from hessecubic.cli import (MUTATIONS, _hesse_identity_residual, _uniform_draws,
                            build_check_suite, main)
from hessecubic.report import check
from hessecubic.theta import CHECK_TOL


# the child interpreter imports the same package as this one
_SRC = str(Path(hessecubic.__file__).resolve().parents[1])
_ENV = {**os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "hessecubic.cli", *args],
                          capture_output=True, text=True, timeout=timeout, env=_ENV)


def test_emit_json_k1(tmp_path):
    out = tmp_path / "bundle.json"
    proc = run_cli("emit", "--tau", "i", "--a", "0.3", "--k", "1",
                   "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    a = payload["matrices"]["A_analytic"]
    assert a["rows"] == a["cols"] == 6
    # four nonzero blocks: (0,0), (0,1), (1,1) filled, (1,0) empty
    nonzero_blocks = 0
    for bi in range(2):
        for bj in range(2):
            block_terms = sum(len(a["entries"][3 * bi + r][3 * bj + c])
                              for r in range(3) for c in range(3))
            nonzero_blocks += 1 if block_terms else 0
    assert nonzero_blocks == 3
    assert "A_algebraic" in payload["matrices"]
    assert payload["provenance"]["period_1_factor"] == -1.0


def test_emit_k0_only_rank_one(tmp_path):
    out = tmp_path / "k0.json"
    proc = run_cli("emit", "--k", "0", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["matrices"].keys()) == ["L", "M"]
    assert payload["matrices"]["M"]["rows"] == 3


def test_emit_rejects_three_torsion():
    proc = run_cli("emit", "--a", "0.33333333333", "--k", "1")
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "E[3]" in err["error"]


def test_emit_rejects_off_curve_triple():
    proc = run_cli("emit", "--a", "1,2,3", "--k", "0")
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "not on the curve" in err["error"]


def test_emit_latex():
    proc = run_cli("emit", "--k", "0", "--format", "latex")
    assert proc.returncode == 0
    assert r"\begin{pmatrix}" in proc.stdout


def test_check_small_suite_passes_and_is_json_lines():
    proc = run_cli("check", "--tau", "i", "--a", "0.3", "--k", "1")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) > 10
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"name", "residual", "tol", "pass", "inputs"}
        assert record["pass"] is True


def test_check_mutation_fails():
    proc = run_cli("check", "--k", "2", "--mutate", "zero-block")
    assert proc.returncode == 1
    failed = [json.loads(l) for l in proc.stdout.splitlines()
              if l.strip() and not json.loads(l)["pass"]]
    assert any(rec["name"].startswith("factorization") for rec in failed)


def test_check_mutation_drop_binomial():
    proc = run_cli("check", "--k", "2", "--mutate", "drop-binomial")
    assert proc.returncode == 1


def test_check_mutation_perturb_psi():
    proc = run_cli("check", "--k", "1", "--mutate", "perturb-psi")
    assert proc.returncode == 1
    failed = [json.loads(l) for l in proc.stdout.splitlines()
              if l.strip() and not json.loads(l)["pass"]]
    assert any(rec["name"].startswith("moore.ml") for rec in failed)


@pytest.mark.parametrize("mutate, k", [("zero-block", 0), ("drop-binomial", 1)])
def test_check_rejects_a_mutation_below_its_least_order(capfd, mutate, k):
    # below it no factorization block exists to break, so no record could fail
    assert main(["check", "--k", str(k), "--mutate", mutate]) == 1
    out, err = capfd.readouterr()
    assert not out
    assert json.loads(err) == {"error": f"{mutate} only exists for k >= {k + 1}"}


@pytest.mark.parametrize("argv", [
    # near the 3-torsion point 1/3 the whole-matrix norm missed psi + 1e-3:
    # it read 2.8e-9 / 1.3e-12 at k = 1 / 2 here, and 9.9e-9 / 1.8e-11 /
    # 1.7e-14 at k = 1 / 2 / 3 in the second request; entrywise both read
    # 6.0e-6 and 4.5e-6 at every k
    ["check", "--tau=-0.28787614503900727+1.1665770899090595i",
     "--a=0.33371164981094276+0.0024692529395745344i", "--k", "2",
     "--seed", "10321551", "--mutate", "perturb-psi"],
    ["check", "--tau=-0.08262119732665119+1.9481437933382775i",
     "--a=0.34355253986956397+0.0016023311604946022i", "--k", "3",
     "--seed", "571026139", "--mutate", "perturb-psi"],
])
def test_perturbed_psi_fails_the_factorization_gate_near_three_torsion(capfd, argv):
    assert main(argv) == 1
    out, _ = capfd.readouterr()
    records = [json.loads(l) for l in out.splitlines()]
    failed = [r["name"] for r in records if r["name"].startswith("factorization.")
              and not r["pass"]]
    assert failed


def test_automorphy_at_k3_passes_where_the_series_quotient_failed(capfd):
    # the quotient of two summed series read automorphy.transport.k3 = 3.3e-6 here;
    # the closed-form factor leaves rounding only
    assert main(["check", "--tau=0.33511352061096544+1.6508599290561192i",
                 "--a=0.2032793759536468-0.0516247689049619i", "--k", "3",
                 "--seed", "993736541"]) == 0
    out, _ = capfd.readouterr()
    records = {r["name"]: r for r in map(json.loads, out.splitlines())}
    assert records["automorphy.transport.k3"]["residual"] < 1e-12


def test_off_curve_rank_near_one_third_passes(capfd):
    # the whole 12-square A read sigma_min/sigma_max 3.5e-8 at an off-curve
    # sample, under the 1e-7 threshold; its diagonal block reads 2.4e-3
    assert main(["check", "--tau=-0.33632687847092835+0.9779519076363596i",
                 "--a=0.3361513672739995+0.0018773830496374433i", "--k", "3",
                 "--seed", "957398308"]) == 0
    out, _ = capfd.readouterr()
    names = {json.loads(l)["name"] for l in out.splitlines()}
    assert {f"presentation.structure.{form}.k{k}" for form in ("analytic", "algebraic")
            for k in (1, 2, 3)} <= names


@pytest.mark.parametrize("tau", ["i", "0.2+1.3i", "-0.31+1.12i"])
def test_check_gates_automorphy_at_every_k(capfd, tau):
    assert main(["check", "--tau", tau, "--k", "8"]) == 0
    out, _ = capfd.readouterr()
    names = {json.loads(l)["name"] for l in out.splitlines()}
    assert {n for n in names if n.startswith("automorphy.")} == {
        f"automorphy.{kind}.k{k}" for kind in ("transport", "cocycle") for k in range(1, 9)}


def test_automorphy_passes_where_z_plus_a_lies_in_three_torsion(capfd):
    # z + a = 0.13 + 0.05i + a = 1/3: theta_i(z + a) is rounding noise, and a
    # scale with an absolute 1 in it read transport 5.7e-6 and cocycle 7.0e-6
    assert main(["check", "--tau", "3i", "--a=0.20333333333333334-0.05i", "--k", "1"]) == 0
    out, _ = capfd.readouterr()
    records = {r["name"]: r for r in map(json.loads, out.splitlines())}
    assert records["automorphy.transport.k1"]["residual"] < 1e-13
    assert records["automorphy.cocycle.k1"]["residual"] < 1e-13


@pytest.mark.parametrize("k_max, orders", [(0, []), (1, [1]), (3, [3]), (8, [3])])
def test_check_builds_once_and_calibrates_once(monkeypatch, k_max, orders):
    builds, solves = [], []
    build, solve = bundles.build_analytic, bundles._equivalence_solve

    def counted_build(spec):
        builds.append(spec.k)
        return build(spec)

    def counted_solve(jets, reps, wanted):
        solves.append(len(jets) - 1)
        return solve(jets, reps, wanted)

    for module in (cli, bundles):
        monkeypatch.setattr(module, "build_analytic", counted_build)
    monkeypatch.setattr(bundles, "_equivalence_solve", counted_solve)
    assert all(r.passed for r in build_check_suite(1j, 0.3, k_max, 42))
    assert builds == [max(k_max, 1)]
    assert solves == orders


@pytest.mark.parametrize("k_max", [0, 1, 3, 8])
def test_check_and_sweep_multiply_only_the_moore_stacks(monkeypatch, capfd, k_max):
    # the factorization records read the series of the jets, not a product of the
    # 3(k+1)-square pair: check's only polynomial products are the Moore checks'
    # one each way over their stack of 20 sample pairs, and sweep makes none and
    # assembles no block matrix
    products, assembled = [], []
    matmul, assemble = PolyMatrix.__matmul__, bundles._block_matrix

    def counted_matmul(left, right):
        products.append((left.coeffs.shape, left.degree, right.degree))
        return matmul(left, right)

    def counted_assemble(blocks):
        assembled.append(blocks.shape)
        return assemble(blocks)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(bundles, "_block_matrix", counted_assemble)
    assert all(r.passed for r in build_check_suite(1j, 0.3, k_max, 42))
    assert products == [((20, 3, 3, 3), 1, 2), ((20, 3, 3, 6), 2, 1)]
    products.clear()
    assembled.clear()
    assert main(["sweep", "--taus", "i", "--azs", "0.3", "--ks", str(k_max)]) == 0
    assert all(r["pass"] for r in map(json.loads, capfd.readouterr()[0].splitlines())
               if "name" in r)
    assert products == assembled == []


@pytest.mark.parametrize("argv", [
    *(["check", "--k", str(k)] for k in (1, 2, 3)),
    *(["sweep", "--taus", "i", "--azs", "0.3", "--ks", str(k)] for k in (5, 6, 7, 8)),
    *(["emit", "--k", str(k)] for k in range(9)),
])
def test_every_command_makes_one_theta_sum(monkeypatch, capfd, argv):
    # each command lists every theta point its stages read, each at its own
    # order, and sums them once; the stages then read cached jets.  From k = 5
    # the default a = 0.3 has (-2)^5 a = (-2) a modulo the lattice, and emit
    # stops at the calibration's orbit check, after its one sum
    sums, original = [], theta._sum_jets

    def counted(tau, zs, orders):
        sums.append(len(zs))
        return original(tau, zs, orders)

    monkeypatch.setattr(theta, "_sum_jets", counted)
    monkeypatch.setattr(theta, "_JETS", {})
    code = main(argv)
    out, err = capfd.readouterr()
    assert code == 0 or "doubling orbit collides" in err
    assert len(sums) == 1


@pytest.mark.parametrize("argv, error", [
    ("check --a 0.3+9i --k 2", "theta series overflows at z = (0.3+9j), tau = 1j "
                               "(derivative order 0)"),
    ("emit --a 0.3+9i --k 3", "theta series overflows at z = (0.3+9j), tau = 1j "
                              "(derivative order 0)"),
    ("sweep --taus i --azs 0.3+9i --ks 3", "theta series overflows at z = (0.3+9j), tau = 1j "
                                            "(derivative order 0)"),
    ("check --tau 8i --k 1", "no probe point clears the cut |th0*th1*th2| >= 1e-06 * "
                             "max|th_i|^3: the largest ratio is 1.06e-07"),
    ("check --tau 5i --k 1", "found 0 of 20 curve points with every normalized coordinate "
                             "above 1e-3 in 20000 draws; the largest smallest coordinate "
                             "drawn is 4.786e-04"),
    ("check --tau 0.01i --k 1", "elimination system lost rank (a too close to E[3]?)"),
])
def test_a_failing_request_raises_what_its_stage_raises(monkeypatch, capfd, argv, error):
    # when the one theta sum of a command fails, it caches nothing, and the
    # stage that fails raises the same error, naming the same z, as it did when
    # every stage summed its own points
    monkeypatch.setattr(theta, "_JETS", {})
    assert main(argv.split()) == 1
    assert capfd.readouterr() == ("", json.dumps({"error": error}) + "\n")


@pytest.mark.parametrize("k_max", [0, 1, 3, 8])
def test_check_evaluates_on_the_curve_once_and_sums_automorphy_once(monkeypatch, k_max):
    # every order's presentation reads one evaluation of the top-order pair and
    # one of its two distinct diagonal blocks, and every order's automorphy
    # records one 4-point theta sum at k_max
    evaluations, sums = [], []
    evaluate, jet = bundles.eval_matrix, bundles.theta_jet
    automorphy_point = 0.13 + 0.05j + 0.3

    def counted_evaluate(m, xs):
        evaluations.append((m.coeffs.shape, np.shape(xs)))
        return evaluate(m, xs)

    def counted_jet(z, ctx, max_order=0):
        if np.ravel(z)[0] == automorphy_point:
            sums.append((np.size(z), max_order))
        return jet(z, ctx, max_order)

    monkeypatch.setattr(bundles, "eval_matrix", counted_evaluate)
    monkeypatch.setattr(bundles, "theta_jet", counted_jet)
    assert all(r.passed for r in build_check_suite(1j, 0.3, k_max, 42))
    top = min(k_max, 3)
    size = 3 * (top + 1)
    presentation = [((2, 3, 3, 3), (10, 3)), ((2, size, size, 3), (10, 3))]
    # the order-1 bookkeeping evaluates its matrix at one point
    assert evaluations == (presentation if top else []) + [((6, 6, 3), (3,))]
    assert sums == ([(4, k_max)] if k_max else [])


@pytest.mark.parametrize("k_max", [0, 1])
def test_check_draws_presentation_samples_only_above_k0(monkeypatch, k_max):
    # at k = 0 there is no presentation to judge: the one curve draw is the
    # 20 samples of the Moore checks, and the base point is never embedded
    draws, embeds = [], []
    sample, embed = cli.curve_sample_points, cli.embed

    def counted_sample(ctx, count, seed):
        draws.append(count)
        return sample(ctx, count, seed)

    def counted_embed(z, ctx):
        embeds.append(z)
        return embed(z, ctx)

    monkeypatch.setattr(cli, "curve_sample_points", counted_sample)
    monkeypatch.setattr(cli, "embed", counted_embed)
    assert all(r.passed for r in build_check_suite(1j, 0.3, k_max, 42))
    assert draws == ([20, 10] if k_max else [20])
    assert embeds == ([0.3] if k_max else [])


def _check_lines(capfd, argv) -> tuple[int, list[str]]:
    code = main(argv)
    out, _ = capfd.readouterr()
    return code, out.splitlines()


@pytest.mark.parametrize("tau", ["i", "0.2+1.3i", "-0.31+1.12i"])
def test_a_mutation_stays_in_its_own_corner(capfd, tau):
    # every order reads its matrices from one build; a mutation edits a copy of
    # the top-order A, so only the factorization records may see it.  Block
    # (0, 1) of every order's corner is broken: each order fails, but order 1
    # keeps its binomial C(1, 1) = 1
    def untouched(lines):
        return [l for l in lines if json.loads(l)["name"].startswith(
            ("presentation.", "calibration.", "bookkeeping."))]

    for k in range(1, 9):
        code, clean = _check_lines(capfd, ["check", "--tau", tau, "--k", str(k)])
        assert code == 0
        for mutate in MUTATIONS:
            least = 2 if mutate == "drop-binomial" else 1
            if k < least:
                continue
            code, lines = _check_lines(capfd, ["check", "--tau", tau, "--k", str(k),
                                               "--mutate", mutate])
            assert code == 1, (k, mutate)
            failed = {r["name"] for r in map(json.loads, lines)
                      if r["name"].startswith("factorization.") and not r["pass"]}
            assert failed == {f"factorization.{p}.k{j}" for p in ("AB", "BA")
                              for j in range(least, k + 1)}, (k, mutate)
            if mutate != "perturb-psi":
                assert untouched(lines) == untouched(clean), (k, mutate)


def test_check_at_k0_reads_the_order_one_corner(capfd):
    code, lines = _check_lines(capfd, ["check", "--k", "0"])
    assert code == 0
    assert [json.loads(l)["name"] for l in lines] == [
        "theta.hesse_identity", "theta.symmetry", "theta.psi_nondegenerate",
        *(f"moore.relation.order{o}" for o in range(5)),
        "moore.ml_identity", "moore.lm_identity", "moore.offdiagonal", "moore.det_scalar",
        "elimination.fit", "elimination.c_constancy", "elimination.consequence",
        "bookkeeping.annihilation.k1", "bookkeeping.relation_rank.k1",
        "bookkeeping.kernel_jets.k1"]
    # the bookkeeping of k = 0 (a build at order 1) is that of the order-8 build's corner
    _, top = _check_lines(capfd, ["check", "--k", "8"])
    assert lines[-3:] == top[-3:]


def test_check_above_the_order_cap_is_a_named_error(capfd):
    assert main(["check", "--k", "13"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "derivative order 13 exceeds the cap 12"}
    with pytest.raises(OrderTooHigh):
        build_check_suite(1j, 0.3, 13, 42)


def test_check_names_the_calibration_error_of_its_one_solve(capfd):
    # 9a lies 1e-8 from the lattice, so order 3 does not calibrate: check at any
    # k_max >= 3 reports the error of its one solve over orders 1..3
    spec = UlrichSpec(k=3, ctx=ThetaContext(tau=1j), a_z=0.11111111)
    with pytest.raises(CalibrationFailed) as joint:
        bundles.calibrate_by_order(spec, [1, 2, 3])
    assert main(["check", "--a", "0.11111111", "--k", "5"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": str(joint.value)}


def test_parser_is_built_once_per_process():
    from hessecubic.cli import make_parser
    assert make_parser() is make_parser()


def test_check_unreachable_tolerance_fails():
    proc = run_cli("check", "--k", "1", "--tol", "1e-30")
    assert proc.returncode == 1


def test_a_record_passes_by_its_current_tolerance():
    rep = check("x", 1e-6, 1e-5)
    assert rep.passed and rep.to_dict()["pass"]
    rep.tol = 1e-7  # as check --tol sets it
    assert not rep.passed and not rep.to_dict()["pass"]


def test_check_rejects_triple_point():
    proc = run_cli("check", "--a", "1,2,3")
    assert proc.returncode == 1


def test_sweep_deterministic(tmp_path):
    args = ("sweep", "--taus", "i,0.2+1.3i", "--azs", "0.2,0.3", "--ks", "0:1",
            "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    lines = [json.loads(l) for l in first.stdout.splitlines() if l.strip()]
    configs = [l for l in lines if "config" in l]
    aggregates = [l for l in lines if "aggregate" in l]
    assert configs and aggregates
    assert all(a["max_residual"] < 1e-7 for a in aggregates)


def test_sweep_sixty_configurations():
    proc = run_cli("sweep", "--taus", "i,0.2+1.3i,0.3+1.1i",
                   "--azs", "0.2,0.3,0.41+0.1i,0.23+0.05i,-0.31+0.07i",
                   "--ks", "0:3")
    assert proc.returncode == 0
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    configs = {json.dumps(l["config"], sort_keys=True) for l in lines if "config" in l}
    assert len(configs) == 60
    assert all(a["max_residual"] < 1e-7 for a in lines if "aggregate" in a)
    # each aggregate names a configuration whose record reaches the maximum
    records = [l for l in lines if "config" in l]
    for agg in (l for l in lines if "aggregate" in l):
        same = [r for r in records if r["name"] == agg["aggregate"]]
        assert agg["max_residual"] == max(r["residual"] for r in same)
        assert any(r["residual"] == agg["max_residual"] and r["config"] == agg["worst_config"]
                   for r in same)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sweep_reads_the_top_order_of_the_check_product(capfd, k):
    # the factorization records of sweep --ks k are those of check --k k at order k
    assert main(["check", "--tau", "0.2+1.3i", "--a", "0.41+0.1i", "--k", str(k)]) == 0
    checked = {r["name"]: r for r in map(json.loads, capfd.readouterr()[0].splitlines())}
    assert main(["sweep", "--taus", "0.2+1.3i", "--azs", "0.41+0.1i", "--ks", str(k)]) == 0
    swept = [r for r in map(json.loads, capfd.readouterr()[0].splitlines())
             if r.get("name", "").startswith("factorization.")]
    assert [r["name"] for r in swept] == ["factorization.AB", "factorization.BA"]
    for r in swept:
        top = checked[f"{r['name']}.k{k}"]
        assert (r["residual"], r["tol"], r["inputs"]) == (top["residual"], top["tol"],
                                                          top["inputs"])


def test_sweep_empty_range():
    proc = run_cli("sweep", "--taus", "", "--azs", "", "--ks", "")
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("lists, message", [
    (["--taus", "foo", "--azs", "0.3", "--ks", "1"],
     "argument --taus: cannot parse complex number 'foo'"),
    (["--taus", "i", "--azs", "0.3", "--ks=-1"], "argument --ks: k must be non-negative"),
    (["--taus", "i", "--azs", "0.3", "--ks=-2:0"], "argument --ks: k must be non-negative"),
    (["--taus", "i", "--azs", "0.3", "--ks", "3:1"], "argument --ks: empty range 3:1"),
])
def test_sweep_rejects_a_malformed_list_as_a_usage_error(capsys, lists, message):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", *lists])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip().endswith(message)


@pytest.mark.parametrize("argv, message", [
    (["check", "--seed", "-1", "--k", "1"], "argument --seed: seed must be non-negative"),
    (["sweep", "--seed", "-1", "--taus", "i", "--azs", "0.3", "--ks", "1"],
     "argument --seed: seed must be non-negative"),
    # NaN is not JSON, and an infinite tolerance passes every record
    (["check", "--tol", "nan"], "argument --tol: tol must be positive and finite, got 'nan'"),
    (["check", "--tol", "inf"], "argument --tol: tol must be positive and finite, got 'inf'"),
    (["check", "--tol", "0"], "argument --tol: tol must be positive and finite, got '0'"),
    (["check", "--tol", "-1e-3"], "argument --tol: tol must be positive and finite, got '-1e-3'"),
])
def test_a_bad_seed_or_tolerance_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip().endswith(message)


def test_usage_error_exit_code():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    proc = run_cli("emit", "--tau", "not-a-number")
    assert proc.returncode == 2


def test_complex_argument_forms():
    for tau in ("i", "1j", "0+1i"):
        proc = run_cli("emit", "--tau", tau, "--k", "0")
        assert proc.returncode == 0


def test_negative_real_part_arguments():
    proc = run_cli("emit", "--tau", "-0.4+0.9i", "--a", "-0.17+0.11i", "--k", "0")
    assert proc.returncode == 0
    proc = run_cli("check", "--tau", "-0.4+0.9i", "--a", "-0.17+0.11i", "--k", "1")
    assert proc.returncode == 0


@pytest.mark.parametrize("tau, a, k", [
    ("i", "0.41-0.08i", 6), ("i", "0.41-0.08i", 7), ("i", "0.41-0.08i", 8),
    ("1.5i", "0.1+0.1i", 6),
    ("-0.4460692976183436+1.2292111009818978i", "0.21338928216799946-0.13641744182926643i", 6),
])
def test_emit_at_high_k_calibrates_or_names_its_residual(capfd, tau, a, k):
    # theta grows without bound along the unreduced orbit (-2)^l a; the fits
    # use lattice-reduced points, so no overflow remains: either the bundle
    # is written or one JSON error object names the failed calibration or,
    # for 0.1+0.1i at tau = 1.5i (30a = 3 + 2*tau), the orbit collision
    code = main(["emit", "--tau", tau, "--a", a, "--k", str(k)])
    out, err = capfd.readouterr()
    if code == 0:
        assert err == ""
        assert len(json.loads(out)["lambdas"]) == k
        return
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]
    assert "overflow" not in message
    assert message.startswith(("calibration residuals exceed tolerance",
                               "doubling orbit collides"))


def test_emit_names_an_orbit_collision(capfd):
    # a = 0.3 is 10-torsion: (-2)^5 a = -2a modulo the lattice
    assert main(["emit", "--tau", "i", "--a", "0.3", "--k", "5"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == ("doubling orbit collides: (-2)^5 a = (-2)^1 a "
                                        "modulo the lattice (l = 1, m = 5)")


def test_emit_keeps_the_last_iterate_when_a_polish_step_fails(capfd):
    # LAPACK's SVD may not converge on the first Gauss-Newton step here,
    # although every entry of the system is finite; the row solves alone
    # calibrate (calibration.equivalence 4.5e-13 against 1e-8)
    assert main(["emit", "--tau=0.1375906481011525+1.1717141963140842i",
                 "--a=0.06424538623416298-0.1318002958521102i", "--k", "6"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert len(json.loads(out)["lambdas"]) == 6


def test_emit_calibrates_past_the_old_overflow_at_k6(capfd):
    assert main(["emit", "--tau", "i", "--a", "0.41-0.08i", "--k", "6"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert "A_algebraic" in json.loads(out)["matrices"]


@pytest.mark.parametrize("command, tau", [
    ("check", "0.0001i"), ("emit", "0.0001i"),     # terms overflow a double
    ("check", "0.00001i"), ("emit", "0.00001i"),   # window beyond the term cap
])
def test_theta_series_limits_are_named_errors(capfd, command, tau):
    assert main([command, "--tau", tau, "--k", "1"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "theta series" in json.loads(lines[0])["error"]


def test_sampling_failure_is_a_named_error(capfd):
    # near the nodal triangle the normalized coordinates spread out, and no
    # curve sample has every one above 1e-3; the 20,000 draws are embedded in
    # eleven chunks, one theta sum each
    start = time.perf_counter()
    assert main(["check", "--tau", "5i", "--k", "1"]) == 1
    elapsed = time.perf_counter() - start
    out, err = capfd.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "found 0 of 20 curve points with every normalized coordinate above 1e-3 in 20000 "
        "draws; the largest smallest coordinate drawn is 4.786e-04")
    assert elapsed < 10.0


def test_psi_nondegenerate_measures_distance_to_psi_cubed_one():
    ctx = ThetaContext(tau=1j)
    psi = hesse_psi(ctx)
    record = next(r for r in build_check_suite(1j, 0.3, 1, 42)
                  if r.name == "theta.psi_nondegenerate")
    assert record.residual == CHECK_TOL / abs(psi ** 3 - 1)
    assert record.passed


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.31 + 1.12j])
def test_hesse_identity_gate_catches_a_perturbed_psi(tau):
    ctx = ThetaContext(tau=tau)
    psi = hesse_psi(ctx)
    zs = _uniform_draws(np.random.default_rng(42), 10)
    exact = _hesse_identity_residual(ctx, psi, zs)
    perturbed = _hesse_identity_residual(ctx, psi + 1e-6, zs)
    assert exact < 1e-9 < perturbed


def test_hesse_identity_is_relative_to_the_size_of_theta(capfd):
    # |theta| reaches 1e3 at tau = 0.5+0.3i: the absolute residual was 1.6e-5
    assert main(["check", "--tau", "0.5+0.3i", "--k", "1"]) == 0
    out, _ = capfd.readouterr()
    record = next(json.loads(l) for l in out.splitlines()
                  if json.loads(l)["name"] == "theta.hesse_identity")
    assert record["residual"] < 1e-13


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.3j, -0.31 + 1.12j])
def test_moore_identity_gates_are_relative_to_their_terms(tau):
    # entrywise backward errors: the clean reading no longer grows with |L|
    # (absolute norms read 3.3e-14 at tau = i and 5.5e-13 at 0.2+1.3i)
    clean = {r.name: r for r in build_check_suite(tau, 0.3, 1, 42)}
    mutated = {r.name: r for r in build_check_suite(tau, 0.3, 1, 42, "perturb-psi")}
    for name in ("moore.ml_identity", "moore.lm_identity"):
        assert clean[name].residual < 1e-14
        assert not mutated[name].passed
