import argparse
import json
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginlab import cli, gin, hilbert, linalg
from ginlab.cli import main
from ginlab.orders import GrevLex, RingContext
from oracles import rank_first_points_sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestGinCommand:
    def test_conic(self, capsys):
        code, report = run_json(
            capsys, "gin", "--n", "2", "--ideal", "x0*x2 - x1^2", "--seed", "3"
        )
        assert code == 0
        assert report["schema"] == 1
        assert report["gin"] == ["x0^2"]
        assert report["borel_fixed"] is True
        assert report["stable"] is True
        assert report["hilbert_polynomial"] == "2*m + 1"
        assert report["gotzmann"] == 2

    def test_monomial_square(self, capsys):
        code, report = run_json(capsys, "gin", "--n", "2", "--ideal", "x0^2")
        assert code == 0
        assert report["gin"] == ["x0^2"]

    def test_twisted_cubic_regression(self, capsys):
        code, report = run_json(
            capsys,
            "gin",
            "--n",
            "3",
            "--ideal",
            "x0*x2 - x1^2; x1*x3 - x2^2; x0*x3 - x1*x2",
            "--seed",
            "12",
        )
        assert code == 0
        assert report["hilbert_polynomial"] == "3*m + 1"
        assert report["borel_fixed"] is True
        # generator set frozen after the first certified computation
        assert report["gin"] == ["x0^2", "x0*x1", "x1^2"]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("# twisted conic\nx0*x2 - x1^2\n")
        code, report = run_json(capsys, "gin", "--n", "2", "--file", str(path))
        assert code == 0
        assert report["gin"] == ["x0^2"]

    def test_plane_complete_intersection_of_tenth_powers(self, capsys):
        # certification degree 100, where the Schubert index has about 5000 monomials
        code, report = run_json(capsys, "gin", "--n", "2", "--ideal", "x0^10; x1^10")
        assert code == 0
        assert report["hilbert_polynomial"] == "100"
        assert report["borel_fixed"] is True

    def test_missing_file(self, capsys, tmp_path):
        code = main(["gin", "--n", "2", "--file", str(tmp_path / "absent.txt")])
        assert code == 2
        assert_one_error_line(capsys)

    def test_non_homogeneous_rejected(self, capsys):
        code = main(["gin", "--n", "2", "--ideal", "x0 + x1^2"])
        assert code == 2

    def test_parse_error_exit(self, capsys):
        code = main(["gin", "--n", "2", "--ideal", "x0 + + x1"])
        assert code == 2

    def test_lex_order_flag(self, capsys):
        code, report = run_json(
            capsys, "gin", "--n", "2", "--order", "lex", "--ideal", "x0*x2 - x1^2"
        )
        assert code == 0
        assert report["order"] == "lex"

    def test_weight_order_flag(self, capsys):
        code, report = run_json(
            capsys, "gin", "--n", "2", "--order", "weight:3,1,2", "--ideal", "x0*x2 - x1^2"
        )
        assert code == 0
        assert report["order"] == "weight:3,1,2"
        assert report["gin"] == ["x0^2"]

    def test_certification_waits_for_a_non_saturated_ideal(self, capsys):
        # HF(S/I) is 1, 3, 2, 0, ... and P = 0: at max(m0, deg I) = 2 HF(2) = 2 != P(2),
        # so m is 3, where I_3 = S_3 and the gin saturates to the unit ideal
        ideal = "x0^2; x1^2; x2^2; x0*x1"
        code, report = run_json(capsys, "gin", "--n", "2", "--ideal", ideal, "--trials", "2")
        assert code == 0
        assert (report["hilbert_polynomial"], report["gotzmann"]) == ("0", 0)
        assert report["certification_degree"] == 3
        assert report["gin"] == ["1"]
        assert len(report["index"]) == 10
        # strata certifies each member the same way
        code, report = run_json(capsys, "strata", "--n", "2", "--mode", "initial", "--members",
                                ideal)
        assert code == 0
        assert report["dominant_index"] == [s.strip() for s in """x0^3, x0^2*x1, x0*x1^2, x1^3,
            x0^2*x2, x0*x1*x2, x1^2*x2, x0*x2^2, x1*x2^2, x2^3""".split(",")]

    def test_complete_intersection_certifies_at_gotzmann_or_degree(self, capsys):
        # a complete intersection of positive dimension is saturated: HF = P from
        # m0 on, so m is max(m0, deg I) as before
        ideal = ("x0^2 + 3*x1*x2 - x2^2 + x0*x3 - 2*x3^2;"
                 " x0*x1*x2 + x1^3 - 2*x0^2*x3 - x2^2*x3 + 5*x3^3")
        code, report = run_json(capsys, "gin", "--n", "3", "--ideal", ideal, "--trials", "2")
        assert code == 0
        assert (report["hilbert_polynomial"], report["gotzmann"]) == ("6*m - 3", 12)
        assert report["certification_degree"] == 12
        assert report["gin"] == ["x1^4", "x0*x1^2", "x0^2"]

    def test_weight_order_wrong_length(self, capsys):
        assert main(["gin", "--n", "2", "--order", "weight:1,1", "--ideal", "x0^2"]) == 2

    def test_one_invertibility_check_per_trial(self, capsys, monkeypatch):
        # each sampled change is tested for invertibility once, by LinearChange
        calls = []
        real = linalg.rank

        def counted(rows, ncols):
            calls.append(len(rows))
            return real(rows, ncols)

        monkeypatch.setattr(linalg, "rank", counted)
        code, report = run_json(
            capsys, "gin", "--n", "3", "--ideal", "x0*x2 - x1^2; x1*x3 - x2^2", "--trials", "3"
        )
        assert code == 0 and report["borel_fixed"] is True
        assert calls == [4, 4, 4]


class TestStrataCommand:
    def test_inline_by_initial_ideal(self, capsys):
        code, report = run_json(
            capsys,
            "strata",
            "--n",
            "2",
            "--mode",
            "initial",
            "--members",
            "x0*x2 - x1^2|x0^2|x1^2",
        )
        assert code == 0
        counts = sorted(s["count"] for s in report["strata"])
        assert counts == [1, 2]
        assert report["dominant_index"] == ["x0^2"]
        assert report["dominant_share"] == "1/3"
        ids = sorted(i for s in report["strata"] for i in s["member_ids"])
        assert ids == [0, 1, 2]

    def test_initial_mode_builds_one_index_per_stratum(self, capsys, monkeypatch):
        # each member is certified off its Hilbert series numerator; only the
        # member that opens a stratum builds its index
        calls = []
        real = gin.index_at_degree

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(gin, "index_at_degree", counted)
        monkeypatch.setattr(cli, "index_at_degree", counted, raising=False)
        code, report = run_json(capsys, "strata", "--n", "2", "--mode", "initial",
                                "--members", "x0*x2 - x1^2|x0^2|x1^2")
        assert code == 0 and len(report["strata"]) == 2
        assert calls == [2, 2]

    def test_an_index_comes_after_its_extensions(self, capsys):
        # (x0^2) and (x0^2, x0*x1) are both read at degree 2; the longer index
        # agrees with the shorter one on its first place and is the higher one,
        # under grevlex, lex and a weight order alike
        conics = "x1^2|x0^2|x0^2;x0*x1|x0*x2 - x1^2|x1*x2;x2^2"
        cases = [
            ("x1^2|x0^2|x0^2;x0*x1", "grevlex", [["x0^2", "x0*x1"], ["x0^2"], ["x1^2"]]),
            (conics, "grevlex", [["x0^2", "x0*x1"], ["x0^2"], ["x1^2"], ["x1*x2", "x2^2"]]),
            (conics, "lex",
             [["x0^2", "x0*x1"], ["x0^2"], ["x0*x2"], ["x1^2"], ["x1*x2", "x2^2"]]),
            (conics, "weight:1,2,3", [["x2^2", "x1*x2"], ["x1^2"], ["x0*x1", "x0^2"], ["x0^2"]]),
        ]
        for members, order, expected in cases:
            code, report = run_json(capsys, "strata", "--n", "2", "--mode", "initial",
                                    "--order", order, "--members", members)
            assert code == 0
            assert [s["index"] for s in report["strata"]] == expected, order

    def test_plane_complete_intersection_member(self, capsys):
        # Hilbert polynomial 81 has Gotzmann number 81, so the index is taken at degree 81
        code, report = run_json(
            capsys, "strata", "--n", "2", "--mode", "initial", "--members", "x0^9; x1^9"
        )
        assert code == 0
        assert report["strata"][0]["gin_generators"] == ["x0^9", "x1^9"]

    def test_random_conic_family_single_stratum(self, capsys):
        code, report = run_json(
            capsys,
            "strata",
            "--n",
            "2",
            "--family",
            "random:2",
            "--samples",
            "50",
            "--seed",
            "7",
        )
        assert code == 0
        assert len(report["strata"]) == 1
        assert report["strata"][0]["gin_generators"] == ["x0^2"]
        assert report["dominant_share"] == "1"

    def test_family_of_one(self, capsys):
        code, report = run_json(
            capsys, "strata", "--n", "2", "--members", "x0*x2 - x1^2"
        )
        assert code == 0
        assert len(report["strata"]) == 1
        assert report["family_size"] == 1

    def test_members_file(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("x0*x2 - x1^2\n\nx0^2\n\nx1^2  # comment\n")
        code, report = run_json(
            capsys, "strata", "--n", "2", "--mode", "initial", "--members-file", str(path)
        )
        assert code == 0
        assert report["family_size"] == 3

    def test_missing_members_file(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code = main(["strata", "--n", "2", "--members-file", str(path)])
        assert code == 2
        assert_one_error_line(capsys)

    def test_empty_family_rejected(self, capsys):
        code = main(["strata", "--n", "2", "--members", " "])
        assert code == 2


class TestRevlexLemmaCommand:
    def test_small_grid(self, capsys):
        code, report = run_json(capsys, "revlex-lemma", "--n", "2", "--m-max", "2", "--l-max", "1")
        assert code == 0
        assert report["counterexample_count"] == 0
        assert report["cases"] == (3 + 1) + (6 + 1)

    def test_two_variable_boundary(self, capsys):
        code, report = run_json(capsys, "revlex-lemma", "--n", "1", "--m-max", "4", "--l-max", "2")
        assert code == 0
        assert report["counterexample_count"] == 0

    def test_vacuous_when_l_max_zero(self, capsys):
        code, report = run_json(capsys, "revlex-lemma", "--n", "2", "--m-max", "2", "--l-max", "0")
        assert code == 0
        assert report["cases"] == 0

    def test_guard_rails(self, capsys):
        assert main(["revlex-lemma", "--n", "5", "--m-max", "2", "--l-max", "1"]) == 2
        assert main(["revlex-lemma", "--n", "2", "--m-max", "7", "--l-max", "1"]) == 2
        assert main(["revlex-lemma", "--n", "4", "--m-max", "6", "--l-max", "12"]) == 2


class TestDegeneracyCommand:
    def test_conics_past_gotzmann(self, capsys):
        code, report = run_json(
            capsys,
            "degeneracy",
            "--kind",
            "hypersurface",
            "--n",
            "2",
            "--d",
            "2",
            "--m",
            "3",
            "--samples",
            "25",
            "--seed",
            "5",
        )
        assert code == 0
        assert report["theorem_applicable"] is True
        assert report["all_vanished"] is True
        assert report["witness"] is None
        assert report["alpha_star"] == ["x0^3", "x0^2*x1", "x0*x1^2"]
        assert report["explicit_all_vanished"] is True

    def test_control_at_gotzmann_degree(self, capsys):
        code, report = run_json(
            capsys,
            "degeneracy",
            "--kind",
            "hypersurface",
            "--n",
            "2",
            "--d",
            "2",
            "--m",
            "2",
            "--samples",
            "25",
            "--seed",
            "5",
        )
        assert code == 0
        assert report["theorem_applicable"] is False
        assert report["all_vanished"] is False

    def test_points_hypothesis_exclusion(self, capsys):
        code, report = run_json(
            capsys,
            "degeneracy",
            "--kind",
            "points",
            "--n",
            "2",
            "--count",
            "3",
            "--m",
            "4",
            "--samples",
            "15",
            "--seed",
            "9",
        )
        assert code == 0
        assert report["theorem_applicable"] is False
        assert "note" in report
        assert report["hilbert_polynomial"] == "3"
        assert isinstance(report["all_vanished"], bool)

    def test_bad_parameters(self, capsys):
        assert main(["degeneracy", "--kind", "hypersurface", "--n", "2", "--m", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        "degeneracy --kind hypersurface --n 2 --d 2 --m 3 --bound 0 --samples 1",
        "degeneracy --kind points --n 2 --count 2 --m 2 --bound 0 --samples 1",
        # P^1 has 4 points with coordinates in [-1, 1]
        "degeneracy --kind points --n 1 --count 5 --m 4 --bound 1 --samples 1",
        "strata --n 2 --family random:2 --samples 2 --bound 0",
    ])
    def test_bounds_without_enough_samples_refused(self, capsys, argv):
        assert main(argv.split()) == 2
        assert_one_error_line(capsys)

    def test_every_point_of_the_box(self, capsys):
        argv = "degeneracy --kind points --n 1 --count 4 --m 4 --bound 1 --samples 2"
        code, report = run_json(capsys, *argv.split())
        assert code == 0
        assert report["subspace_dimension"] == 1

    def test_sample_dimension_refused(self, capsys):
        # P(1) = 0 for a plane quintic, but no linear form is a multiple of it
        argv = ["degeneracy", "--kind", "hypersurface", "--n", "2", "--d", "5", "--m", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: sample 0 has unexpected dimension 0 != 3\n"

    @pytest.mark.parametrize("argv", [
        # P(-1) = 3 has no subspace of codimension 3 in degree -1; the degree is refused first
        "degeneracy --kind points --n 2 --count 3 --m -1 --samples 1",
        "degeneracy --kind hypersurface --n 2 --d 2 --m -2 --samples 1",
    ])
    def test_negative_degree_refused_first(self, capsys, argv):
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == "error: negative degree\n"


@st.composite
def point_samples(draw):
    """(n, m, count, samples): a few samples of count points in P^n, some on x_n = 0 or repeated."""
    n, m, count = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 5))
    last = st.just(0) if draw(st.booleans()) else st.integers(-3, 3)
    point = st.tuples(*[st.integers(-3, 3)] * n, last).filter(any)
    samples = draw(st.lists(st.lists(point, min_size=count, max_size=count), min_size=1, max_size=3))
    return n, m, count, samples


@settings(max_examples=150, deadline=None)
@given(point_samples())
# three points of the line x2 = 0 in P^2: the minor on x0*x2, x1*x2, x2^2 is 0, the rank is 3
@example((2, 2, 3, [[(1, 0, 0), (0, 1, 0), (1, 1, 0)]]))
# a repeated point: the minor is 0 and rank E is 2 < 3, so the sample is refused
@example((2, 3, 3, [[(1, 2, 3), (1, 0, 1), (1, 2, 3)]]))
def test_points_minor_first_matches_rank_first_oracle(drawn):
    n, m, count, samples = drawn
    ctx = RingContext(n, GrevLex())
    dim_expected = ctx.dim(m) - count
    assume(dim_expected >= 0)
    vanished, witness, error = 0, None, None
    for s, points in enumerate(samples):
        dim, nonzero = rank_first_points_sample(ctx, m, points, dim_expected)
        if dim != dim_expected:
            error = f"sample {s} has unexpected dimension {dim} != {dim_expected}"
            break
        if not nonzero:
            vanished += 1
        elif witness is None:
            witness = s
    drawn_points = iter(samples)
    with mock.patch.object(cli, "random_points", lambda *args: next(drawn_points)):
        try:
            report, _ = cli.run_degeneracy("points", n, m, len(samples), 0, count=count)
        except cli.CliError as exc:
            assert str(exc) == error
        else:
            assert error is None
            assert (report["vanished_count"], report["witness"]) == (vanished, witness)
            assert report["subspace_dimension"] == dim_expected


class TestHilbInfoCommand:
    def test_conic_polynomial(self, capsys):
        code, report = run_json(capsys, "hilb-info", "--n", "2", "--p", "2*m + 1")
        assert code == 0
        assert report["admissible"] is True
        assert report["gotzmann"] == 2
        assert report["lex_ideal"] == ["x0^2"]
        assert report["round_trip_verified"] is True
        assert report["macaulay_rep"] == "C(m+1,1) + C(m,1)"

    def test_constant_one(self, capsys):
        code, report = run_json(capsys, "hilb-info", "--n", "2", "--p", "1")
        assert code == 0
        assert report["gotzmann"] == 1
        assert report["lex_ideal"] == ["x0", "x1"]

    def test_not_admissible(self, capsys):
        code, report = run_json(capsys, "hilb-info", "--n", "2", "--p=-m")
        assert code == 0
        assert report["admissible"] is False
        assert "lex_ideal" not in report

    def test_binomial_input(self, capsys):
        code, report = run_json(capsys, "hilb-info", "--n", "2", "--p", "C(m+2,2) - C(m,2)")
        assert code == 0
        assert report["polynomial"] == "2*m + 1"

    @pytest.mark.parametrize("n, text", [("2", "2*m + 1"), ("3", "C(m+3,3) - C(m+1,3)"),
                                         ("2", "1"), ("1", "2*m + 1")])
    def test_expands_p_once(self, capsys, monkeypatch, n, text):
        # the report and the lex ideal share one Gotzmann expansion of P
        original, calls = hilbert.macaulay_rep, []

        def counted(P):
            calls.append(P)
            return original(P)

        monkeypatch.setattr(hilbert, "macaulay_rep", counted)
        monkeypatch.setattr(cli, "macaulay_rep", counted)
        main(["hilb-info", "--n", n, "--p", text])
        capsys.readouterr()
        assert len(calls) == 1

    def test_parse_failure(self, capsys):
        assert main(["hilb-info", "--n", "2", "--p", "2*m +"]) == 2

    def test_needs_more_variables(self, capsys):
        assert main(["hilb-info", "--n", "1", "--p", "2*m + 1"]) == 2

    def test_needs_more_variables_prints_one_error_line(self, capsys):
        # L(P)'s ValueError reaches main, which prints it as it is
        assert main(["hilb-info", "--n", "1", "--p", "3*m"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 3*m needs more variables than the ambient ring provides\n"

    def test_takes_no_order(self, capsys):
        # L(P) is one monomial ideal whatever the order, so hilb-info has no --order
        with pytest.raises(SystemExit) as exc:
            main(["hilb-info", "--n", "2", "--p", "2*m + 1", "--order", "lex"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "n, text, lex_ideal",
        [("2", "2000", ["x0", "x1^2000"]), ("3", "6000", ["x0", "x1", "x2^6000"])],
    )
    def test_large_constants(self, capsys, n, text, lex_ideal):
        code, report = run_json(capsys, "hilb-info", "--n", n, "--p", text)
        assert code == 0
        assert sorted(report["lex_ideal"]) == lex_ideal
        assert report["round_trip_verified"] is True

    @pytest.mark.parametrize("text", ["m^20000", "C(m,20000)"])
    def test_input_over_the_degree_limit(self, capsys, text):
        assert main(["hilb-info", "--n", "2", "--p", text]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("n, text", [("3", "400000*m"), ("5", "400*m^2")])
    def test_expansion_over_the_term_limit(self, capsys, n, text):
        assert main(["hilb-info", "--n", n, "--p", text]) == 2
        assert "exceeds 500000 terms" in capsys.readouterr().err

    def test_round_trip_runs_once(self, capsys, monkeypatch):
        calls = []
        real = hilbert.hilbert_polynomial_of_monomial_ideal

        def counted(ctx, M):
            calls.append(M)
            return real(ctx, M)

        # patch every binding, including one the cli module may import itself
        monkeypatch.setattr(hilbert, "hilbert_polynomial_of_monomial_ideal", counted)
        monkeypatch.setattr(cli, "hilbert_polynomial_of_monomial_ideal", counted, raising=False)
        code, report = run_json(capsys, "hilb-info", "--n", "3", "--p", "3*m + 1")
        assert code == 0 and report["round_trip_verified"] is True
        assert len(calls) == 1


class TestReports:
    def test_reruns_are_byte_identical(self, capsys):
        argv = ["gin", "--n", "2", "--ideal", "x0*x2 - x1^2", "--seed", "8"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        _, text = run(
            capsys, "hilb-info", "--n", "2", "--p", "2*m + 1", "--out", str(out)
        )
        assert out.read_text() == text

    @pytest.mark.parametrize(
        "exc", [RuntimeError("budget"), RecursionError("too deep"), MemoryError()]
    )
    def test_runtime_and_memory_errors_exit_4(self, capsys, monkeypatch, exc):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "run_hilb_info", fail)
        assert main(["hilb-info", "--n", "2", "--p", "2*m + 1"]) == 4
        assert_one_error_line(capsys)

    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = ["hilb-info", "--n", "2", "--p", "2*m + 1"]
        assert main(argv) == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(argv) == 0 and main(argv) == 0
        capsys.readouterr()
        assert built == []

    def test_out_in_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "absent" / "report.json"
        code = main(["hilb-info", "--n", "2", "--p", "2*m + 1", "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys)
