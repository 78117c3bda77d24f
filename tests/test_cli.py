"""Command-line surface: verbs, exit codes, JSON report envelopes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gbbkit
from gbbkit import covers, cubical, dehn, quotients
from gbbkit.cli import main
from gbbkit.errors import InputError
from gbbkit.io_formats import quotient_spec_from_json, set_from_json


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def envelope(result):
    env = json.loads(result.output)
    assert {"command", "inputs", "inputs_digest", "verdicts",
            "version"} <= set(env)
    assert len(env["inputs_digest"]) == 16
    return env


# --- fixtures ------------------------------------------------------------------


def test_fixtures_list(runner):
    res = run(runner, "fixtures")
    assert res.exit_code == 0
    assert "s9-index16" in res.output and "dehn-2z" in res.output


# --- build-complex ---------------------------------------------------------------


def test_build_complex_bits_json(runner):
    res = run(runner, "build-complex", "--bits", "1000", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["command"] == "build-complex"
    assert env["verdicts"]["links_validated"] is True


def test_build_complex_dump_cells(runner):
    res = run(runner, "build-complex", "--bits", "1000", "--dump-cells",
              "--json")
    assert res.exit_code == 0
    blob = json.dumps(envelope(res))
    assert '"squares"' in blob and '"edges"' in blob


def test_build_complex_requires_one_source(runner):
    res = run(runner, "build-complex", "--bits", "1000",
              "--fixture", "s9-index16")
    assert res.exit_code == 2
    res2 = run(runner, "build-complex")
    assert res2.exit_code == 2


def test_build_complex_bad_fixture(runner):
    res = run(runner, "build-complex", "--fixture", "nope")
    assert res.exit_code == 2


# --- check-special ----------------------------------------------------------------


def test_check_special_special_case(runner):
    res = run(runner, "check-special", "--fixture", "s9-index16", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["special"] is True
    assert env["verdicts"]["hyperplane_counts"] == {
        "w": 8, "x": 8, "y": 8, "z": 8
    }


def test_check_special_pathology_exit_1(runner):
    res = run(runner, "check-special", "--bits", "1000", "--json")
    assert res.exit_code == 1
    env = envelope(res)
    assert env["verdicts"]["special"] is False
    assert env["verdicts"]["self_osculating_labels"] == ["w", "x"]
    assert env["verdicts"]["inter_osculating_label_pairs"] == [["w", "x"]]
    assert env["witnesses"]


# The scan order of the osculation search picks these witnesses; they are
# frozen so that no refactor of the scan can reorder them.
PINNED_WITNESSES = {
    "1000": [
        "self-osculation of Hyperplane(#0, label=w, size=4): "
        "E(j=0,w,(0,)) / E(j=0,w,(1,))",
        "self-osculation of Hyperplane(#1, label=x, size=4): "
        "E(j=0,x,(0,)) / E(j=0,x,(1,))",
        "inter-osculation Hyperplane(#0, label=w, size=4) x "
        "Hyperplane(#1, label=x, size=4): E(j=0,w,(0,)) / E(j=0,x,(0,))",
    ],
    "1110": [
        "self-osculation of Hyperplane(#0, label=w, size=4): "
        "E(j=0,w,(0,)) / E(j=0,w,(1,))",
        "self-osculation of Hyperplane(#5, label=z, size=4): "
        "E(j=0,z,(0,)) / E(j=0,z,(1,))",
        "inter-osculation Hyperplane(#0, label=w, size=4) x "
        "Hyperplane(#1, label=x, size=2): E(j=0,w,(0,)) / E(j=0,x,(0,))",
        "inter-osculation Hyperplane(#0, label=w, size=4) x "
        "Hyperplane(#2, label=x, size=2): E(j=0,w,(0,)) / E(j=1,x,(1,))",
        "inter-osculation Hyperplane(#0, label=w, size=4) x "
        "Hyperplane(#5, label=z, size=4): E(j=0,w,(0,)) / E(j=0,z,(1,))",
        "inter-osculation Hyperplane(#1, label=x, size=2) x "
        "Hyperplane(#3, label=y, size=2): E(j=0,x,(0,)) / E(j=0,y,(0,))",
        "inter-osculation Hyperplane(#1, label=x, size=2) x "
        "Hyperplane(#4, label=y, size=2): E(j=0,x,(0,)) / E(j=1,y,(0,))",
        "inter-osculation Hyperplane(#2, label=x, size=2) x "
        "Hyperplane(#3, label=y, size=2): E(j=0,x,(1,)) / E(j=1,y,(1,))",
        "inter-osculation Hyperplane(#2, label=x, size=2) x "
        "Hyperplane(#4, label=y, size=2): E(j=0,x,(1,)) / E(j=0,y,(1,))",
        "inter-osculation Hyperplane(#3, label=y, size=2) x "
        "Hyperplane(#5, label=z, size=4): E(j=0,y,(0,)) / E(j=0,z,(0,))",
        "inter-osculation Hyperplane(#4, label=y, size=2) x "
        "Hyperplane(#5, label=z, size=4): E(j=0,y,(1,)) / E(j=0,z,(1,))",
    ],
}


@pytest.mark.parametrize("bits", sorted(PINNED_WITNESSES))
def test_check_special_witnesses_pinned(runner, bits):
    res = run(runner, "check-special", "--bits", bits, "--wrap", "2",
              "--json")
    assert res.exit_code == 1
    assert envelope(res)["witnesses"] == PINNED_WITNESSES[bits]


def test_check_special_stabilize(runner):
    res = run(runner, "check-special", "--bits", "1000", "--stabilize",
              "--json")
    assert res.exit_code == 1
    env = envelope(res)
    assert env["verdicts"]["special"] is False
    assert env["verdicts"]["stable_wrap"] == 2


@pytest.mark.parametrize("verb", ["build-complex", "check-special"])
@pytest.mark.parametrize("bits", ["1100", "1111"])
def test_torsion_kernel_is_refused(runner, verb, bits):
    """An even bit pattern has a kernel with torsion, where rho_1 is not
    injective and the link at height 1 has no certificate: both verbs
    refuse it as input with the torsion witness instead of a verdict."""
    res = run(runner, verb, "--bits", bits, "--json")
    assert res.exit_code == 2
    assert "quotient kernel has torsion: (1, Perm(0 1))" in res.output


def count_calls(monkeypatch, targets):
    """Count the calls of each (owner, name) target, through the owner and
    through every gbbkit module that bound the same function by name."""
    counts = {name: 0 for _, name in targets}
    for owner, name in targets:
        original = vars(owner)[name]

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "gbbkit":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize("args, want", [
    # the wrap tower starts from the complex check-special built
    (["check-special", "--bits", "1110", "--stabilize"],
     {"__init__": 2, "specialness": 2, "hyperplanes": 2}),
    # the directed counts come from the hyperplanes of the scan
    (["check-special", "--fixture", "s9-index16", "--wrap", "8"],
     {"hyperplanes": 1}),
    # each height's link is certified once, by build_quotient, and its
    # tag is read off the height; the heights of one residue of the
    # period (2) share the objects rho_j and P_j, so their model
    (["build-complex", "--fixture", "s9-index16", "--wrap", "8"],
     {"vertex_link": 0, "_link_mismatch": 8, "_link_model": 2}),
    # rho_1 alone for an abelian quotient, shared by the relator check,
    # the torsion check and every complex of the wrap tower and the
    # confirm path, which read rho_j = j rho_1 off it
    (["check-special", "--bits", "1110", "--stabilize"],
     {"stabilizer_image": 1}),
    (["check-special", "--fixture", "s9-index16", "--wrap", "8"],
     {"stabilizer_image": 1}),
    # and by the relator check and both torsion checks of a recipe
    (["recipe", "--kind", "wreath", "--r", "12", "--n", "3"],
     {"stabilizer_image": 2}),
    # the sweep verifies all 16 quotients on its one square presentation
    (["report"], {"build_cover": 1}),
])
def test_each_fact_is_computed_once(runner, monkeypatch, args, want):
    counts = count_calls(monkeypatch, [
        (cubical.QuotientCubeComplex, "__init__"),
        (cubical, "specialness"), (cubical, "hyperplanes"),
        (cubical, "vertex_link"), (cubical, "_link_mismatch"),
        (cubical, "_link_model"),
        (quotients, "stabilizer_image"), (covers, "build_cover")])
    res = run(runner, *args)
    assert res.exit_code in (0, 1), res.output
    assert {name: counts[name] for name in want} == want


# --- verify-quotient ----------------------------------------------------------------


def test_verify_quotient_clean(runner):
    res = run(runner, "verify-quotient", "--bits", "1000", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["certificate_passed"] is True
    assert env["verdicts"]["kernel_torsion_free"] is True


def test_verify_quotient_torsion(runner):
    res = run(runner, "verify-quotient", "--bits", "1100", "--json")
    assert res.exit_code == 1
    env = envelope(res)
    assert env["verdicts"]["kernel_torsion_free"] is False


def test_verify_quotient_theta_on_non_edge(runner, tmp_path):
    spec = {"target": {"kind": "abelian", "factors": [2]},
            "theta": {"w,x": [1], "x,y": [0], "y,z": [0], "z,w": [0],
                      "w,y": [0]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run(runner, "verify-quotient", "--quotient", str(path))
    assert res.exit_code == 2
    assert "non-edge ('w', 'y')" in res.output
    del spec["theta"]["w,y"]
    path.write_text(json.dumps(spec))
    assert run(runner, "verify-quotient", "--quotient", str(path)).exit_code == 0


# --- recipes -------------------------------------------------------------------------


def test_recipe_cocycle(runner):
    res = run(runner, "recipe", "--kind", "cocycle", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["kernel_torsion_free"] is True


def test_recipe_hw_product(runner):
    res = run(runner, "recipe", "--kind", "hw-product", "--json")
    assert res.exit_code == 0


def test_recipe_wreath_small(runner):
    res = run(runner, "recipe", "--kind", "wreath", "--r", "4", "--n", "2",
              "--json")
    assert res.exit_code == 0


def test_recipe_wreath_past_the_loop_window_is_cycle_exact(runner):
    res = run(runner, "recipe", "--kind", "wreath", "--r", "16", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["certificate_modes"] == ["cycle-exact"]
    assert env["verdicts"]["certificate_passed"] is True


# --- rset ----------------------------------------------------------------------------


def test_rset(runner):
    res = run(runner, "rset", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    blob = json.dumps(env["verdicts"])
    assert "mod 3" in blob


# --- dehn ----------------------------------------------------------------------------


def test_dehn_identity_word(runner):
    word = " ".join(f"a{i} a{i}" for i in range(1, 14))
    res = run(runner, "dehn", "--word", word, "--json")
    assert res.exit_code == 0
    assert envelope(res)["verdicts"]["is_identity"] is True


def test_dehn_non_identity_word(runner):
    res = run(runner, "dehn", "--word", "a1 a2", "--json")
    assert res.exit_code == 1
    assert envelope(res)["verdicts"]["is_identity"] is False


def test_dehn_with_ratio_check(runner):
    res = run(runner, "dehn", "--word", "a1 -a1", "--check-ratio", "6",
              "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["satisfies_C'(1/6)"] is True
    assert "window-certified" in env["certificate_modes"]


def test_dehn_ratio_check_on_a_wide_window(runner):
    # the pieces have a closed form, so a window of 400 exponents builds
    # no relator words
    res = run(runner, "dehn", "--word", "a1 -a1", "--window", "400",
              "--check-ratio", "6", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["satisfies_C'(1/6)"] is True
    assert env["verdicts"]["max_piece_ratio"] == 2 / 13


def test_dehn_without_small_cancellation_is_undecided(runner):
    # l = 7 has pieces a_i^2 a_{i+1}^2 of ratio 2/7 > 1/6 between R_2 and R_4
    for extra in ([], ["--check-ratio", "6"]):
        res = run(runner, "dehn", "--l", "7", "--word", "a1 a2", *extra,
                  "--json")
        assert res.exit_code == 2
        assert envelope(res)["verdicts"]["is_identity"] == "undecided"
    res = run(runner, "dehn", "--l", "7", "--word", "a1 a2",
              "--check-ratio", "6")
    assert "satisfies_C'(1/6): False" in res.output
    assert "is_identity: undecided" in res.output
    # reduction to the empty word proves identity under any presentation
    word = " ".join(f"a{i} a{i}" for i in range(1, 8))
    res = run(runner, "dehn", "--l", "7", "--word", word, "--json")
    assert res.exit_code == 0
    assert envelope(res)["verdicts"]["is_identity"] is True


@pytest.mark.parametrize("ratio", ["0", "-3"])
def test_dehn_check_ratio_must_be_positive(runner, ratio):
    res = run(runner, "dehn", "--word", "a1 a2", "--check-ratio", ratio)
    assert res.exit_code == 2
    assert "satisfies" not in res.output


def test_dehn_huge_position_bound(runner, tmp_path):
    """A digit-encoded set certified to 10**8 positions decides a word in
    no time: no power of ten is raised to the bound."""
    path = tmp_path / "godel.json"
    path.write_text(json.dumps({"kind": "godel", "S": [0, 2],
                                "position_bound": 10 ** 8}))
    res = run(runner, "dehn", "--set", str(path), "--word", "a1 a2",
              "--check-ratio", "6")
    assert res.exit_code == 1
    assert "is_identity: False" in res.output


@pytest.mark.parametrize("data, name", [
    ({"modulus": 2.9, "residues": [0]}, "modulus"),
    ({"modulus": True, "residues": [0]}, "modulus"),
    ({"modulus": "2", "residues": [0]}, "modulus"),
    ({"modulus": 2, "residues": [0.5]}, "residues"),
    ({"modulus": 2, "residues": [False]}, "residues"),
    ({"kind": "godel", "S": [0, 2.0]}, "S"),
    ({"kind": "godel", "S": ["0"]}, "S"),
    ({"kind": "godel", "S": [0], "position_bound": 6.5}, "position_bound"),
    ({"kind": "godel", "S": [0], "position_bound": True}, "position_bound"),
])
def test_set_files_take_json_integers_only(runner, tmp_path, data, name):
    """A bool, float or string where a set file needs an integer is an
    input error naming the field, not a truncated value."""
    with pytest.raises(InputError, match=f"^{name} must be an integer"):
        set_from_json(data)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(data))
    res = run(runner, "dehn", "--set", str(path), "--word", "a1 a2")
    assert res.exit_code == 2
    assert f"error: {name} must be an integer" in res.output


@pytest.mark.parametrize("factors, value, name", [
    ([2.5], [1], "factors"), ([True], [1], "factors"), (["2"], [1], "factors"),
    ([2], [1.0], "theta"), ([2], [True], "theta"), ([2], ["1"], "theta"),
])
def test_quotient_files_take_json_integers_only(runner, tmp_path, factors,
                                                value, name):
    spec = {"target": {"kind": "abelian", "factors": factors},
            "theta": {"w,x": value, "x,y": [0], "y,z": [0], "z,w": [0]}}
    with pytest.raises(InputError, match=f"^{name} must be an integer"):
        quotient_spec_from_json(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run(runner, "verify-quotient", "--quotient", str(path))
    assert res.exit_code == 2
    assert f"error: {name} must be an integer" in res.output


def test_dehn_parse_error(runner):
    res = run(runner, "dehn", "--word", "q1")
    assert res.exit_code == 2


def test_dehn_generator_beyond_l(runner):
    word = "a14 a14 " + " ".join(f"a{i} a{i}" for i in range(2, 14))
    res = run(runner, "dehn", "--l", "13", "--word", word)
    assert res.exit_code == 2
    assert "letter 14 " in res.output


def test_dehn_splice_mismatch_exit_3(runner, monkeypatch):
    real = dehn._family_rotation
    monkeypatch.setattr(dehn, "_family_rotation",
                        lambda *args: [runs[::-1] for runs in real(*args)])
    word = " ".join(f"a{i} a{i}" for i in range(1, 14))
    res = run(runner, "dehn", "--word", word)
    assert res.exit_code == 3
    assert "internal invariant violated" in res.output


# --- report ---------------------------------------------------------------------------


def test_report_sweep_matches(runner):
    res = run(runner, "report", "--json")
    assert res.exit_code == 0
    env = envelope(res)
    assert env["verdicts"]["matches_expected"] is True


# --- envelope stability -----------------------------------------------------------------


def test_digest_is_stable(runner):
    a = envelope(run(runner, "verify-quotient", "--bits", "1000", "--json"))
    b = envelope(run(runner, "verify-quotient", "--bits", "1000", "--json"))
    assert a["inputs_digest"] == b["inputs_digest"]
    c = envelope(run(runner, "verify-quotient", "--bits", "0010", "--json"))
    assert c["inputs_digest"] != a["inputs_digest"]


# --- exit-code contract ----------------------------------------------------------------


def test_wrap_must_be_positive(runner):
    for wrap in ("-2", "-4"):
        res = run(runner, "build-complex", "--bits", "1000", "--wrap", wrap)
        assert res.exit_code == 2
        assert "positive multiple" in res.output


def test_default_wrap_is_the_theta_order_period(runner, tmp_path):
    """Target Z/4 with theta(w,x) of order 2: the quotient's period is
    lcm(2, 2) = 2, and both verbs run at that default wrap, which the
    builder used to reject against lcm(period(S), exponent(Q)) = 4."""
    spec = {"target": {"kind": "abelian", "factors": [4]},
            "theta": {"w,x": [2], "x,y": [0], "y,z": [0], "z,w": [0]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run(runner, "verify-quotient", "--quotient", str(path))
    assert res.exit_code == 0, res.output
    for verb, code in (("check-special", 1), ("build-complex", 0)):
        res = run(runner, verb, "--quotient", str(path), "--json")
        assert res.exit_code == code, res.output
        assert envelope(res)["inputs"]["wrap"] == 2
        res = run(runner, verb, "--quotient", str(path), "--wrap", "3")
        assert res.exit_code == 2
        assert ("wrap N=3 must be a positive multiple of lcm(period(S), "
                "orders of the theta images) = 2") in res.output


def test_zero_wrap_is_rejected(runner):
    """--wrap 0 is an input, not an absent option: both verbs reject it
    as they reject negative wraps, instead of running at the default."""
    for verb in ("build-complex", "check-special"):
        res = run(runner, verb, "--bits", "1000", "--wrap", "0")
        assert res.exit_code == 2, verb
        assert "wrap N=0 must be a positive multiple" in res.output, verb


def test_complexes_past_a_million_edges_are_refused(runner, tmp_path,
                                                    monkeypatch):
    """Onto Z/2 x Z/P, P = 10^9 + 7, the quotient's period is 2P, so the
    default wrap asks for 2P * 4 * 2P edges: both verbs refuse it before
    listing Q.  A complex of exactly the bound's size is still built."""
    P = 10 ** 9 + 7
    spec = {"target": {"kind": "abelian", "factors": [2, P]},
            "theta": {"w,x": [1, 1], "x,y": [0, P - 1], "y,z": [0, 0],
                      "z,w": [0, 0]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for verb in ("check-special", "build-complex"):
        res = run(runner, verb, "--quotient", str(path))
        assert res.exit_code == 2, verb
        assert (f"wrap N={2 * P} over |Q|={2 * P} needs {16 * P * P} edges, "
                f"more than the builder's bound of 1000000") in res.output
    edges = envelope(run(runner, "build-complex", "--bits", "1000",
                         "--json"))["verdicts"]["edges"]
    monkeypatch.setattr(cubical, "_EDGE_BOUND", edges)
    assert run(runner, "build-complex", "--bits", "1000").exit_code == 0
    monkeypatch.setattr(cubical, "_EDGE_BOUND", edges - 1)
    for verb in ("check-special", "build-complex"):
        res = run(runner, verb, "--bits", "1000")
        assert res.exit_code == 2, verb
        assert f"needs {edges} edges" in res.output, verb


def test_internal_key_error_exits_3(runner, monkeypatch):
    """A KeyError raised inside the library is a bug, not an input error."""
    def lost(Y):
        raise KeyError("lost hyperplane")

    monkeypatch.setattr(cubical, "hyperplanes", lost)
    res = run(runner, "check-special", "--bits", "1000")
    assert res.exit_code == 3
    assert "internal error: KeyError" in res.output


def test_unknown_fixture_exits_2(runner):
    res = run(runner, "recipe", "--kind", "cocycle", "--fixture", "nope")
    assert res.exit_code == 2
    assert "unknown fixture 'nope'" in res.output


SMALL = st.integers(-3, 12)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-20, 20)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
SET_JSON = JSON | st.fixed_dictionaries(
    {"modulus": SMALL | JSON, "residues": st.lists(SMALL, max_size=4) | JSON}
) | st.fixed_dictionaries(
    {"kind": st.just("godel"), "S": st.lists(st.integers(-1, 6), max_size=3)},
    optional={"position_bound": st.integers(-2, 7) | JSON},
)
EDGE_KEYS = st.sampled_from(["w,x", "x,y", "y,z", "z,w", "x,w", "w,z", "w,y",
                             "q,w", "w", "w,x,y", ""])
QUOTIENT_JSON = JSON | st.fixed_dictionaries({
    "target": st.fixed_dictionaries({
        "kind": st.sampled_from(["abelian", "perm"]) | JSON,
        "factors": st.lists(st.integers(-1, 4), max_size=3) | JSON,
    }),
    "theta": st.dictionaries(EDGE_KEYS, st.lists(st.integers(-3, 5),
                                                 max_size=3) | JSON,
                             max_size=6),
}) | st.fixed_dictionaries({
    "target": st.just({"kind": "abelian", "factors": [2]}),
    "theta": st.fixed_dictionaries(
        {key: st.lists(st.integers(0, 1), min_size=1, max_size=1)
         for key in ("w,x", "x,y", "y,z", "z,w")}),
})
FILE_BYTES = st.binary(max_size=16) | st.builds(
    lambda data: json.dumps(data).encode(), SET_JSON | QUOTIENT_JSON)
WORDS = st.text(alphabet="a12-^ b0", max_size=12) | st.lists(
    st.sampled_from(["a1", "a2", "-a3", "a13", "a14", "a0", "a1^-1",
                     "a1^2", "b1", "a", "-", "^", "a-3", "a+1", "a\u0663"]),
    max_size=8).map(" ".join)


def assert_clean_exit(res):
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.one_of(SET_JSON.map(lambda d: json.dumps(d).encode()),
                      FILE_BYTES),
       word=WORDS, l=st.integers(0, 14))
def test_fuzz_set_files_and_words(tmp_path_factory, data, word, l):
    path = tmp_path_factory.getbasetemp() / "fuzz-set.json"
    path.write_bytes(data)
    res = CliRunner().invoke(main, ["dehn", "--set", str(path), "--word",
                                    word, "--l", str(l)])
    assert_clean_exit(res)
    res = CliRunner().invoke(main, ["dehn", "--word", word, "--json"])
    assert_clean_exit(res)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.one_of(QUOTIENT_JSON.map(lambda d: json.dumps(d).encode()),
                      FILE_BYTES))
def test_fuzz_quotient_files(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-quotient.json"
    path.write_bytes(data)
    res = CliRunner().invoke(main, ["verify-quotient", "--quotient",
                                    str(path), "--json"])
    assert_clean_exit(res)


# --- runtime dependencies -------------------------------------------------------------


def test_cube_pipeline_imports_only_its_chain():
    """The cube pipeline imports ten gbbkit modules and nothing of the CLI,
    the word problem, the file formats, numpy or networkx: every fresh
    process compiles what it imports."""
    src = str(Path(gbbkit.__file__).resolve().parents[1])
    script = f"""
import sys
sys.path.insert(0, {src!r})
import gbbkit.cubical, gbbkit.fixtures
print(sorted(m for m in sys.modules if m.split(".")[0] == "gbbkit"))
print([m for m in ("click", "gbbkit.cli", "gbbkit.dehn", "gbbkit.io_formats",
                   "numpy", "networkx") if m in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    chain = ["gbbkit"] + [f"gbbkit.{m}" for m in (
        "covers", "cubical", "errors", "fixtures", "groups", "intsets",
        "presentation", "quotients", "simplicial")]
    assert out.stdout.splitlines() == [repr(chain), "[]"]


def test_runtime_does_not_import_networkx():
    """networkx is a test-only dependency: building a cover, a quotient
    and a wrapped complex and running ``gbb report`` and ``gbb
    check-special`` must not import it."""
    src = str(Path(gbbkit.__file__).resolve().parents[1])
    script = f"""
import sys
sys.path.insert(0, {src!r})
from click.testing import CliRunner
from gbbkit.cli import main
from gbbkit.cubical import build_quotient
from gbbkit.fixtures import square_cover, square_quotient_bits

L, cover = square_cover()
q = square_quotient_bits((1, 0, 0, 0))
build_quotient(q.presentation, q, 2, validate_links=True)
for args in (["report"], ["check-special", "--bits", "1000"]):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code in (0, 1), res.output
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["[]"]
