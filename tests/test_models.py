import numpy as np
import pytest

from engel import invariants, lifting, models
from engel.errors import SynthesisFailed

from helpers import orientation_reverse


def test_zero_rot_zigzag_has_balanced_cusps():
    loop = models.model_front(0, seed=0)
    report = invariants.invariant_report(loop)
    assert report["rot_winding"] == report["rot_cusp"] == 0
    assert report["c_plus"] == report["c_minus"]
    assert report["c_plus"] >= 2


def test_rot_three_has_six_surplus_cusps():
    loop = models.model_front(3, seed=0)
    report = invariants.invariant_report(loop)
    assert report["rot_cusp"] == 3
    assert abs(report["c_minus"] - report["c_plus"]) == 6


def test_negative_rot_certificates():
    loop = models.model_front(-4, seed=1)
    assert invariants.rot_winding(loop.generator) == -4
    assert abs(loop.closure_defect_z) <= 1e-9
    assert abs(loop.closure_defect_w) <= 1e-9
    assert lifting.embedding_check(loop).embedded


def test_rot_minus_five_across_seeds():
    for seed in (0, 5):
        loop = models.model_front(-5, seed=seed, samples=2048)
        assert invariants.rot_winding(loop.generator) == -5
        assert abs(loop.closure_defect_z) <= 1e-9
        assert abs(loop.closure_defect_w) <= 1e-9
        assert lifting.embedding_check(loop).embedded


def test_synthesis_is_deterministic():
    a = models.model_front(2, seed=11, samples=512)
    b = models.model_front(2, seed=11, samples=512)
    for field in ("x", "y", "z", "w"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = models.model_front(2, seed=12, samples=512)
    assert not np.array_equal(a.y, c.y)


def test_rot_bound_and_samples_validation():
    with pytest.raises(ValueError):
        models.model_front(65)
    with pytest.raises(ValueError):
        models.model_front(1, samples=1000)


def test_synthesis_gives_up_when_under_resolved():
    # 48 turns cannot be certified on a 64-point grid; every retry must
    # fail a certificate and the last diagnostic is reported.
    with pytest.raises(SynthesisFailed, match="last failure"):
        models.model_front(48, seed=0, samples=64)


@pytest.mark.parametrize("module, name, value, message", [
    (invariants, "rot_cusp", 99, "cusp count gives rot 99 instead of 3"),
    (lifting, "embedding_check", lifting.EmbeddingReport((), 5e-7, True),
     "embedding margin 5.000e-07 too small"),
], ids=["cusp_rot", "margin"])
def test_a_failed_certificate_is_retried_and_named(monkeypatch, module, name, value, message):
    monkeypatch.setattr(module, name, lambda loop: value)
    last = r"in %d attempts; last failure: %s$" % (models.RETRY_CAP, message)
    with pytest.raises(SynthesisFailed, match=last):
        models.model_front(3, seed=0, samples=1024)


def test_orientation_reverse_negates_rot_and_keeps_margin():
    loop = models.model_front(3, seed=0, samples=2048)
    rev = orientation_reverse(loop)
    assert invariants.rot_winding(rev.generator) == -3
    fwd_report = invariants.invariant_report(loop)
    rev_report = invariants.invariant_report(rev)
    assert rev_report["rot_cusp"] == -fwd_report["rot_cusp"]
    assert (rev_report["c_plus"], rev_report["c_minus"]) == (
        fwd_report["c_minus"],
        fwd_report["c_plus"],
    )
    assert lifting.embedding_check(rev).margin == lifting.embedding_check(loop).margin


def test_double_reversal_is_exact_involution():
    loop = models.model_front(1, seed=4, samples=512)
    back = orientation_reverse(orientation_reverse(loop))
    for field in ("x", "y", "z", "w"):
        assert np.array_equal(getattr(back, field), getattr(loop, field))


def test_reference_loops_reproduce_showcase_invariants():
    for n in (3, 0):
        report = invariants.invariant_report(models.model_front(n, seed=0))
        assert report["rot_winding"] == report["rot_cusp"] == n
