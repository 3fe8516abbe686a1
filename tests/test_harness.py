"""Re-verification suites: schema, determinism, and parameter hooks."""

import functools
import json
from fractions import Fraction

import pytest

from qbracket import SUITE_IDS, DomainError, harness, reports_to_json, run_suite

# the overrides each suite applies; every other one is refused
APPLIES = {
    "prop1": "peK", "prop2": "K", "prop3": "p", "prop4": "", "prop5": "K",
    "prop6": "K", "prop7": "K", "prop8": "K", "prop9": "K", "remark_phi1": "",
    "remark_derivative": "p", "cocycle": "peK", "legendre": "p",
}


def _stripped(report):
    j = report.to_json()
    j.pop("elapsed_ms")
    return json.dumps(j, sort_keys=True)


def test_suite_ids_are_stable():
    assert SUITE_IDS == (
        "prop1", "prop2", "prop3", "prop4", "prop5", "prop6", "prop7",
        "prop8", "prop9", "remark_phi1", "remark_derivative", "cocycle",
        "legendre")
    assert tuple(harness._SUITES) == SUITE_IDS
    assert all(fn.__name__ == f"_suite_{sid}" for sid, fn in harness._SUITES.items())


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("prop10")


def test_pinned_suite_rejects_overrides():
    with pytest.raises(DomainError):
        run_suite("prop6", p=3)


@pytest.mark.parametrize("name", ["p", "e", "K"])
@pytest.mark.parametrize("sid", SUITE_IDS)
def test_every_override_is_applied_or_refused(monkeypatch, sid, name):
    seen = []
    real = harness._SUITES[sid]

    @functools.wraps(real)
    def spy(R, rng, **overrides):
        seen.append(overrides)
        return {}

    monkeypatch.setitem(harness._SUITES, sid, spy)
    value = {"p": 5, "e": 2, "K": 50}[name]
    if name in APPLIES[sid]:
        run_suite(sid, **{name: value})
        assert seen == [{name: value}]
    else:
        with pytest.raises(DomainError, match=f"applies no {name} override"):
            run_suite(sid, **{name: value})
        assert seen == [], "the suite ran before the override was refused"


@pytest.mark.parametrize("sid, name, err", [
    ("prop1", "p", "p must be prime, got 0"),
    ("cocycle", "e", "ramification index must be >= 1, got 0"),
] + [(sid, "K", r"precision K=0 too small, need at least 2\*e=\d+")
     for sid in SUITE_IDS if "K" in APPLIES[sid]])
def test_zero_override_reaches_ctx_new(sid, name, err):
    with pytest.raises(ValueError, match=f"^{err}$"):
        run_suite(sid, **{name: 0})


def test_cocycle_overrides_name_one_leg_without_p():
    rep = run_suite("cocycle", seed=0, e=2, K=40)
    assert rep.passed
    assert rep.to_json()["params"]["legs"] == [[5, 2, 40]]


def test_report_schema():
    rep = run_suite("legendre", seed=0)
    j = rep.to_json()
    assert set(j) == {"suite", "params", "seed", "assertions", "elapsed_ms"}
    assert j["suite"] == "legendre" and j["seed"] == 0
    assert j["assertions"], "no assertions recorded"
    for a in j["assertions"]:
        assert set(a) == {"name", "anchor", "expected", "observed", "pass"}
        assert a["pass"] is True
    assert rep.passed
    # the whole report must be JSON-serializable as emitted
    json.loads(reports_to_json([rep]))


def test_runs_are_deterministic():
    for sid in ("legendre", "remark_derivative", "prop3"):
        a = run_suite(sid, seed=5)
        b = run_suite(sid, seed=5)
        assert _stripped(a) == _stripped(b)


def test_seed_changes_params_not_verdict():
    a = run_suite("cocycle", seed=0)
    b = run_suite("cocycle", seed=123)
    assert a.passed and b.passed
    assert _stripped(a) != _stripped(b)


def _reported_ks(params):
    """Every K a report's params name: the third entry of each leg."""
    return [leg[2] for leg in params.get("legs", ())]


@pytest.mark.parametrize("sid", SUITE_IDS)
def test_half_precision_still_passes(monkeypatch, sid):
    ran = []
    real = harness.ctx_new

    def spy(p, e=1, K=None, f=1):
        ran.append(K)
        return real(p, e, K, f)

    monkeypatch.setattr(harness, "ctx_new", spy)
    rep = run_suite(sid, seed=0, k_scale=Fraction(1, 2))
    assert rep.passed, rep.render()
    params = rep.to_json()["params"]
    assert params["k_scale"] == "1/2"
    reported = _reported_ks(params)
    assert bool(reported) == (sid != "legendre")
    # every context the suite built is listed, in build order
    assert reported == ran, (reported, ran)


def test_prime_override_reaches_the_suite():
    rep = run_suite("prop1", seed=0, p=13, K=40)
    assert rep.passed
    assert rep.to_json()["params"]["legs"][0][0] == 13


@pytest.mark.parametrize("p", [0, 1, 4])
def test_legendre_refuses_a_non_prime_override(p):
    # legendre builds no context, so it checks p itself, with ctx_new's text
    with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
        run_suite("legendre", p=p)


def test_render_lines_up_with_verdicts():
    rep = run_suite("legendre", seed=0)
    text = rep.render()
    assert text.count("ok ") == len(rep.assertions)
    assert "FAIL" not in text


@pytest.mark.parametrize("sid, K, margin", [("prop2", 8, 8), ("prop5", 60, 40),
                                            ("prop9", 12, 10), ("prop9", 19, 10)])
def test_thin_k_override_is_refused(monkeypatch, sid, K, margin):
    # an agreement check at K - margin proves little or nothing below K = 2
    # margin (prop2's round trip at K - 8 = 0 passes for any two units), so
    # such a K is refused before the suite solves anything
    monkeypatch.setattr(harness, "fixed_points_for_q", None)
    with pytest.raises(DomainError, match=f"^K={K} is too small for the agreement check "
                                          f"at K - {margin}; need K >= {2 * margin}$"):
        run_suite(sid, K=K)


def test_thin_k_counts_after_k_scale():
    # the rule reads the K that runs: prop2 needs 16, so K = 30 at k_scale
    # 1/2 (15) is refused and K = 32 (16) runs
    with pytest.raises(DomainError, match="^K=15 is too small"):
        run_suite("prop2", K=30, k_scale=Fraction(1, 2))
    assert run_suite("prop2", K=32, k_scale=Fraction(1, 2)).passed
