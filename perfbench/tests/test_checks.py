"""The output checks pass on the program's own reports and fail on corrupted ones."""

import copy
import json

import numpy as np
import pytest
from checks import Instance, check_profile_report, check_sample_report
from law import ALPHA, GoodnessOfFit, closed_form_law

from shormps import cli

LAYOUTS = ("static", "dynamic")
# (n, samples); the low dense cap skips the report's slow reference law
SAMPLED = [(21, 300), (247, 100)]
PROFILED = [247, 1943]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    got = {}
    for layout in LAYOUTS:
        for n, samples in SAMPLED:
            path = out / f"sample-{n}-{layout}.json"
            assert cli.main(["sample", "--n", str(n), "--a", "2", "--layout", layout,
                             "--samples", str(samples), "--seed", "5",
                             "--dense-cap", "1024", "--out", str(path)]) == 0
            got[("sample", n, layout)] = json.loads(path.read_text())
        for n in PROFILED:
            path = out / f"profile-{n}-{layout}.json"
            assert cli.main(["profile", "--n", str(n), "--a", "2", "--layout", layout,
                             "--out", str(path)]) == 0
            got[("profile", n, layout)] = json.loads(path.read_text())
    return got


def sampled_s(report, layout):
    return np.array([rec["measured_s"] for rec in report["layouts"][layout]["records"]])


def test_todays_outputs_pass(reports):
    for layout in LAYOUTS:
        for n, samples in SAMPLED:
            inst = Instance(n, 2)
            report = reports[("sample", n, layout)]
            assert check_sample_report(inst, report, layout, samples, "t") == []
            assert GoodnessOfFit(inst.l, inst.r).pvalue(sampled_s(report, layout)) >= ALPHA
        for n in PROFILED:
            assert check_profile_report(Instance(n, 2), reports[("profile", n, layout)],
                                        layout, "t") == []


@pytest.mark.parametrize("n, samples", SAMPLED)
@pytest.mark.parametrize("corruption", ["bit-reversed", "uniform", "half order",
                                        "order + 1", "double order"])
def test_corrupted_s_fail(reports, n, samples, corruption):
    inst = Instance(n, 2)
    s = sampled_s(reports[("sample", n, "dynamic")], "dynamic")
    big_q = 1 << (2 * inst.l)
    rng = np.random.default_rng(3)
    if corruption == "bit-reversed":
        bad = [int(format(x, f"0{2 * inst.l}b")[::-1], 2) for x in s]
    elif corruption == "uniform":
        bad = rng.integers(0, big_q, s.size)
    else:
        wrong = {"half order": inst.r // 2, "order + 1": inst.r + 1,
                 "double order": 2 * inst.r}[corruption]
        bad = rng.choice(big_q, size=s.size, p=closed_form_law(inst.l, wrong))
    assert GoodnessOfFit(inst.l, inst.r).pvalue(bad) < ALPHA


def corrupt_record(reports, n, layout, edit):
    report = copy.deepcopy(reports[("sample", n, layout)])
    edit(report["layouts"][layout]["records"][4])
    return check_sample_report(Instance(n, 2), report, layout, len(
        report["layouts"][layout]["records"]), "t")


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("delta", [1, -1])
def test_sample_rank_off_by_one_fails(reports, layout, delta):
    def edit(rec):
        rec["rank_profiles"][0]["ranks"][3] += delta

    assert corrupt_record(reports, 247, layout, edit)


@pytest.mark.parametrize("layout, delta", [("static", 1), ("static", -1), ("dynamic", -1)])
def test_sample_tally_off_by_one_fails(reports, layout, delta):
    def edit(rec):
        rec["peak_elements"]["modexp"] += delta

    assert corrupt_record(reports, 247, layout, edit)


@pytest.mark.parametrize("field, value", [("measured_residue", 0), ("verified_r", 18),
                                          ("factors", [13, 17])])
def test_wrong_record_fields_fail(reports, field, value):
    def edit(rec):
        rec[field] = value

    assert corrupt_record(reports, 247, "static", edit)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", PROFILED)
@pytest.mark.parametrize("field, delta", [("rank", 1), ("live", 1), ("live", -1)])
def test_profile_corruptions_fail(reports, layout, n, field, delta):
    report = copy.deepcopy(reports[("profile", n, layout)])
    if field == "rank":
        report["profiles"][0]["ranks"][2] += delta
    else:
        report["elements"][layout]["live"] += delta
    assert check_profile_report(Instance(n, 2), report, layout, "t")
