"""The verify registry as tier-1: every registered check, at every seed in one range.

Each property the registry states (the head's temperature limits and
invariances, InfoNCE's shift and temperature invariance, the geometry chain's
advantage, the Gibbs minimizer, MIL pooling, the gradient oracles) is written
once, as a check in `expalign.verify`; this module runs them. Each fault of
`verify.FAULTS` shows that its group can fail within the seeds tier-1 runs.
"""

import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from expalign import fusion, gradients, verify
from expalign.errors import DomainError

GROUPS = sorted({group for _, group, _, _ in verify._CHECKS})
README = Path(__file__).resolve().parents[1] / "README.md"
SEEDS = range(10)


def failures(results):
    return [f"{r.name}: residual {r.residual:.3e} > tolerance {r.tolerance:g}"
            for r in results if not r.passed]


def faulted_run(fault, **kwargs):
    with np.errstate(over="ignore", invalid="ignore"):  # eah-shift-by-min overflows exp
        return verify.run_suite(fault=fault, **kwargs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("group", GROUPS)
def test_registered_checks_pass(group, seed):
    failed = failures(verify.run_suite(groups=[group], seed=seed))
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("base_seed", [pytest.param(1218214530, id="39"), pytest.param(505766874, id="349")])
def test_grad_group_passes_where_central_differences_failed(base_seed):
    # grad_full_objective's draws at verify seeds 39 and 349 while streams were keyed by
    # registry index: with h = 1e-4 central differences they read 1.751e-4 and 3.72e-5,
    # against 1e-5, from rounding noise on coordinates near 1e-7
    for case in verify.find_gradcheck_cases(3, base_seed=base_seed):
        assert verify.run_gradcheck_case(case)[0] <= 1e-5


def test_check_names_unique_and_groups_contiguous():
    names = [name for name, _, _, _ in verify._CHECKS]
    assert len(names) == len(set(names))
    runs = [group for group, _ in itertools.groupby(group for _, group, _, _ in verify._CHECKS)]
    assert len(runs) == len(set(runs)), runs


def test_duplicate_check_name_rejected():
    with pytest.raises(ValueError, match="^check 'fusion_linearity' is registered twice$"):
        verify._register("fusion_linearity", "fusion", 0.0)


def test_streams_do_not_depend_on_registry_order(monkeypatch):
    # each check's stream is drawn from (seed, name), so a check can sit anywhere in its group
    forward = {r.name: (r.residual, r.detail) for r in verify.run_suite(seed=0)}
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS[::-1])
    assert {r.name: (r.residual, r.detail) for r in verify.run_suite(seed=0)} == forward


@pytest.mark.parametrize("group", GROUPS)
def test_planted_fault_fails_its_group(group):
    faults = [name for name, (target, _) in verify.FAULTS.items() if target == group]
    assert faults, f"no fault targets {group}"
    for fault in faults:
        assert any(failures(faulted_run(fault, groups=[group], seed=seed)) for seed in SEEDS), fault


def test_nan_residual_fails_its_check():
    # a fold with Python's max(worst, nan) keeps worst, so this mutant passed
    results = faulted_run("eah-shift-by-min", groups=["eah"], seed=0)
    limits = next(r for r in results if r.name == "eah_temperature_limits")
    assert not limits.passed and np.isnan(limits.residual)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", ["eah-map-scaled-1e-9", "eah-map-offset-1e-9"])
def test_head_map_edits_fail_eah(fault, seed):
    # both edit the maps of gradients._head, the one head, which the loss and eah.alignment_map
    # run; a suite that checked a second copy of the head passed them at every seed
    assert failures(faulted_run(fault, groups=["eah"], seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_loose_clip_fails_gaco_bounds(seed):
    # the check's draw has one region whose top advantage passes the clip at every seed
    results = faulted_run("gaco-clip-top-1.1", groups=["gaco"], seed=seed)
    assert not next(r for r in results if r.name == "gaco_bounds").passed


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        verify.run_suite(groups=["fusion"], fault="no-such-fault")


@pytest.mark.parametrize("groups", [["grads"], [], ["grad", "gibbs", "nope"]])
def test_unknown_or_no_group_rejected(groups):
    # [] and ["grads"] checked nothing and read as a pass; a misspelt group beside good ones was dropped
    with pytest.raises(ValueError, match=r"known: \['eah', 'fusion', 'gaco', 'gibbs', 'grad', 'mil', 'sem'\]"):
        verify.run_suite(groups=groups)


def test_readme_fault_table_names_every_fault():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| fault | function: old → new | fails |") + 2  # below the header and separator
    names = [row.split("`")[1] for row in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    assert sorted(names) == sorted(verify.FAULTS) and len(names) == len(set(names))


def test_fault_outside_the_selected_groups_rejected():
    # planted, but no check that runs could see it, so the run would read as a pass
    with pytest.raises(DomainError, match="'gaco'"):
        verify.run_suite(groups=["mil"], fault="gaco-sign")


@pytest.mark.parametrize("fault", sorted(verify.FAULTS))
def test_fault_edits_match_their_source_once(fault):
    # read without planting, so a refactor that moves a mutated line fails here, naming the row
    for function, old, _ in verify.FAULTS[fault][1]:
        assert inspect.getsource(function).count(old) == 1, f"{function.__qualname__}: {old!r}"


@pytest.mark.parametrize("old,count", [("a00 * a01", 0), ("a00 + a01", 2)])
def test_fault_edit_that_is_not_one_occurrence_rejected(monkeypatch, old, count):
    code = fusion.downsample2x.__code__
    monkeypatch.setitem(verify.FAULTS, "probe", ("fusion", ((fusion.downsample2x, old, "a00"),)))
    with pytest.raises(ValueError, match=f"^{re.escape(f'downsample2x: {old!r} occurs {count} times, not once')}$"):
        verify.run_suite(groups=["fusion"], fault="probe")
    assert fusion.downsample2x.__code__ is code


def test_gaco_sign_reaches_by_name_imports(monkeypatch):
    # gradients imports gaco_forward by name; the planted code reaches that binding too
    case = verify.find_gradcheck_cases(1, base_seed=4000)[0]
    args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
    l_geo = lambda rng: (gradients.objective(*args).gaco.loss, "")
    monkeypatch.setattr(verify, "_CHECKS", [("l_geo", "gaco", np.inf, l_geo)])
    clean = l_geo(None)[0]
    assert clean != 0.0
    assert verify.run_suite(fault="gaco-sign")[0].residual == -clean


def test_nan_margins_reject_the_draw(monkeypatch):
    # with eah-shift-by-min planted, seed 1000's top-k and normalizer margins are NaN;
    # min(margins.values()) < GRADCHECK_MARGIN accepted that draw
    accepted = lambda rng: (float(verify.sample_gradcheck_case(1000) is not None), "")
    monkeypatch.setattr(verify, "_CHECKS", [("accepted", "eah", 0.0, accepted)])
    assert faulted_run("eah-shift-by-min")[0].residual == 0.0


def test_case_search_is_bounded_per_case(monkeypatch):
    # rejecting every draw, as under eah-shift-by-min, the search looped forever
    draws = []

    def sample(seed, cfg):  # accepts seeds 999 and 1999 only: the last draw each case may take
        draws.append(seed)
        return {"seed": seed} if seed in (999, 1999) else None

    monkeypatch.setattr(verify, "sample_gradcheck_case", sample)
    assert verify.find_gradcheck_cases(2, base_seed=0) == [{"seed": 999}, {"seed": 1999}]
    draws.clear()
    with pytest.raises(DomainError, match="no gradcheck case clears the margins in seeds 2000 to 2999$"):
        verify.find_gradcheck_cases(1, base_seed=2000)
    assert draws == list(range(2000, 3000))


def test_import_reads_no_source(tmp_path):
    # perfbench's setup_s times this import: sources are read only when a fault is planted
    probe = ("import inspect\n"
             "calls = []\n"
             "inspect.getsource = lambda *args, **kwargs: calls.append(args)\n"
             "import expalign.verify\n"
             "assert not calls, calls\n")
    res = run_python(["-c", probe], cwd=tmp_path)
    assert res.returncode == 0, res.stderr


def _raises(rng):
    raise RuntimeError("check crashed")


@pytest.mark.parametrize("fault", sorted(verify.FAULTS))
def test_faulted_run_restores_every_patched_attribute(monkeypatch, fault):
    group, edits = verify.FAULTS[fault]
    originals = [(function, function.__code__) for function, _, _ in edits]
    faulted_run(fault, groups=[group], seed=0)
    assert all(function.__code__ is code for function, code in originals)
    # a check that raises between two others is a failed check, and the one after it runs
    monkeypatch.setattr(verify, "_CHECKS", [verify._CHECKS[0], ("raises", "fusion", 0.0, _raises),
                                            verify._CHECKS[1]])
    _, crashed, after = faulted_run(fault, seed=0)
    assert not crashed.passed and np.isnan(crashed.residual)
    assert crashed.detail == "raised RuntimeError: check crashed"
    assert after.name == verify._CHECKS[2][0]
    assert all(function.__code__ is code for function, code in originals)
