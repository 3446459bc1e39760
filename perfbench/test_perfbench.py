"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import nihobent as nb  # noqa: E402
import nihobent.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def planners():
    """Each workload set up for seeds 3, 3 and 4."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wls = [cls(seed, "w") for seed in (3, 3, 4)]
        for wl in wls:
            wl.setup()
        out[name] = wls
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_deterministic_in_the_seed(planners, name):
    a, b, c = planners[name]
    for rnd in (0, 1, 5):
        assert a.plan(rnd) == b.plan(rnd)
    assert a.plan(0) != c.plan(0)
    assert a.plan(0) != a.plan(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_slots_do_not_depend_on_the_seed(planners, name):
    a, _, c = planners[name]

    def slots(items):
        return sorted((i["kind"], i["m"], i["id"].split(".", 1)[1])
                      for i in items)

    assert slots(a.plan(0)) == slots(c.plan(0))


def test_cli_bent_blocks_of_four_rounds_hold_the_same_mix(planners):
    a, _, c = planners["cli_bent"]

    def mix(wl):
        return sorted((i["kind"], i["m"], "flip" in i,
                       i["argv"][2] if i["kind"] == "correspond" else None)
                      for rnd in range(4) for i in wl.plan(rnd))

    assert mix(a) == mix(c)
    checks = [i for i in mix(a) if i[0] == "check"]
    negatives = [i for i in checks if i[2]]
    assert len(negatives) == len(checks) // 4
    assert all(i[1] != 8 for i in negatives)


@pytest.mark.parametrize("n, index, beyond", [
    (100, 89, 10), (11, 0, 10), (12, 1, 10), (10, 9, 0), (1, 0, 0)])
def test_tail_percentile_and_sample_count(n, index, beyond):
    values = list(range(n, 0, -1))          # unsorted on purpose
    value, pct, got_beyond = run.tail(values)
    assert value == sorted(values)[index]
    assert got_beyond == beyond
    assert pct == pytest.approx(100.0 * (index + 1) / n)
    assert sum(v > value for v in values) == beyond


def test_self_time_of_nested_spans():
    S = tr.Span
    spans = [S("ovals.subiaco_fs", 0, 100, None, "i"),
             S("ovals.subiaco_pair", 10, 40, 0, "i"),
             S("gf2.subfield_bits", 15, 25, 1, "i"),
             S("ovals.subiaco_fs_explicit", 50, 60, 0, "i"),
             S("cli.main", 200, 230, None, "j")]
    assert tr.self_times(spans) == [60, 20, 10, 10, 30]
    summary = tr.summarize(spans)
    assert summary["ovals.subiaco_fs.self_ms"] == pytest.approx(60e-6)
    assert summary["ovals.self_ms"] == pytest.approx(90e-6)
    assert summary["gf2.self_ms"] == pytest.approx(10e-6)
    assert summary["ovals.subiaco_pair.calls"] == 1
    assert tr.root_ms(spans) == pytest.approx(130e-6)


def test_self_time_of_same_layer_nesting_when_traced():
    field = nb.GF(3)
    params = nb.SubiacoParams.case_i(field)
    tracer = tr.Tracer()
    tracer.install()
    try:
        nb.subiaco_fs(params, field.el(5))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert [s.name for s in spans] == ["ovals.subiaco_fs",
                                       "ovals.subiaco_pair",
                                       "ovals.subiaco_fs_explicit"]
    assert spans[1].parent == spans[2].parent == 0
    own = tr.self_times(spans)
    dur = [s.end - s.start for s in spans]
    assert own[0] == dur[0] - dur[1] - dur[2]
    assert sum(own) == dur[0]


def _holders(original):
    return [(key, attr) for key, mod in sorted(sys.modules.items())
            if key == "nihobent" or key.startswith("nihobent.")
            for attr, value in vars(mod).items() if value is original]


def test_wrappers_patch_every_namespace():
    is_opoly = nb.bivariate.is_opolynomial
    holders = _holders(is_opoly)
    assert {"nihobent", "nihobent.bivariate", "nihobent.cli"} <= \
        {key for key, _ in holders}
    tracer = tr.Tracer()
    tracer.install()
    try:
        for _, module, path in tr.TARGETS:
            if "." not in path:
                wrapped = getattr(sys.modules[module], path)
                assert wrapped.__wrapped__ is not None
                assert not _holders(wrapped.__wrapped__)
        assert nb.cli.is_opolynomial is nb.bivariate.is_opolynomial \
            is nb.is_opolynomial
        assert nb.ovals.g_from_h is nb.bivariate.g_from_h
        assert nb.ovals.build_bent is nb.niho.build_bent is nb.build_bent
        assert nb.ovals.embed_subfield is nb.gf2.embed_subfield
        assert nb.cli.embed_subfield is nb.gf2.embed_subfield
        assert nb.bivariate.TruthTable.load.__func__.__wrapped__ is not None
        nb.cli.main(["opoly", "--source", "frobenius", "--m", "3",
                     "--exponent", "1", "--json"])
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "ovals.frobenius_map", "bivariate.is_opolynomial",
            "bivariate.is_permutation",
            "bivariate.opoly_normalize"} <= names
    assert tracer.counts["bivariate.opoly_pairs"] == 8 * 7


def test_uninstall_restores_every_original():
    before = []
    for _, module, path in tr.TARGETS:
        home = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(home, cls_name)
            before.append((owner, attr, owner.__dict__[attr]))
        else:
            original = getattr(home, path)
            before += [(sys.modules[key], attr, original)
                       for key, attr in _holders(original)]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert len(tracer.patches) == len(before)
        nb.correspond_subiaco(nb.GF(6).el(5))
    finally:
        tracer.uninstall()
    assert tracer.spans and not tracer.patches
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is original, (owner, attr)


def test_absorb_rebases_parents():
    tracer = tr.Tracer()
    tracer.spans.append(tr.Span("cli.main", 0, 5, None, "a"))
    tracer.absorb([["cli.main", 10, 20, None, None],
                   ["niho.build_bent", 11, 12, 0, None]],
                  {"boolfn.points": 4}, "b")
    assert tracer.spans[2].parent == 1
    assert tracer.spans[2].item == "b"
    assert tracer.counts["boolfn.points"] == 4


def test_item_with_wrong_expectation_fails(planners):
    wl = planners["opoly_large"][0]
    item = {"id": "x", "kind": "opoly",
            "argv": ["opoly", "--source", "frobenius", "--m", "9",
                     "--exponent", "3", "--json"],
            "expect": {"is_opoly": True}}      # gcd(3, 9) = 3: not an oval
    assert wl.run(item).problems
    item["expect"] = {"is_opoly": False, "is_permutation": True}
    assert not wl.run(item).problems


def test_wrong_expected_verdict_makes_the_run_exit_nonzero(
        monkeypatch, capsys):
    plan = workloads.Survey.plan

    def wrong_plan(self, rnd):
        items = plan(self, rnd)
        if rnd >= 0:
            for item in items:
                if item["kind"] == "bridge":
                    item["expect"]["verified"] = False
        return items

    monkeypatch.chdir(HERE)
    monkeypatch.setattr(workloads.Survey, "plan", wrong_plan)
    code = run.main(["--workload", "survey_m5", "--seed", "1",
                     "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 7       # the bridge slots of one round
