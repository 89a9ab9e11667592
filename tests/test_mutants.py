"""Plausible bugs that the coherent suite must catch.

Each entry patches one function of the Fock layer with a wrong version and
names the families to run and the identity that must fail there: the
coherent suite, two draws per family, must report at least one row of that
identity with pass false. Nothing here pins bytes; a mutant is caught only
by an identity that breaks. A pair keeps its compiled Fock data, so every
test runs on catalog pairs built afresh and drops them afterwards.
"""

import numpy as np
import pytest

from sheffer import family
from sheffer.fock import CompiledPair, FockSpace
from sheffer.suites import coherent_rows

_vacuum = CompiledPair.__dict__["_vacuum"].func
_shift_weights = CompiledPair.__dict__["_ladder_shift_weights"].func
_ladder_image = FockSpace._ladder_image
_coherent_vecs = FockSpace.coherent_vecs


def _weights_cut_at_six(self):
    cut = []
    for weights in _shift_weights(self):
        weights = weights.copy()
        weights[:, 6:] = 0.0
        cut.append(weights)
    return tuple(cut)


# name: (owner, attribute, wrong version, families, identity, seed)
MUTANTS = {
    "vacuum finv cut to 8 terms": (
        CompiledPair, "_vacuum",
        property(lambda self: (_vacuum(self)[0][:8], _vacuum(self)[1])),
        ("bessel",), "exp_vacuum", 2,
    ),
    "shift weights cut at p < 6": (
        CompiledPair, "_ladder_shift_weights", property(_weights_cut_at_six),
        ("lower_factorial",), "shift_identity", 7,
    ),
    "M = X k + (hk)": (
        FockSpace, "_ladder_image",
        lambda self, k, hk: _ladder_image(self, k, [-c for c in hk]),
        ("hermite",), "moments_vacuum", 7,
    ),
    "coherent vector conjugated": (
        FockSpace, "coherent_vecs", lambda self, zs: _coherent_vecs(self, np.conj(zs)),
        ("hermite",), "overlap", 7,
    ),
    "image of M without hk's top term": (
        FockSpace, "_ladder_image", lambda self, k, hk: _ladder_image(self, k, hk[:-1]),
        ("hahn",), "shift_identity", 7,
    ),
    "image of k cut to 8 terms": (
        FockSpace, "_ladder_image", lambda self, k, hk: _ladder_image(self, k[:8], hk),
        ("lower_factorial", "idempotent"), "exp_coherent", 7,
    ),
}


@pytest.fixture
def fresh_pairs():
    family.cache_clear()
    yield
    family.cache_clear()


@pytest.mark.parametrize("name", MUTANTS)
def test_the_coherent_suite_catches_the_mutant(name, monkeypatch, fresh_pairs):
    owner, attribute, wrong, labels, identity, seed = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, wrong)
    failed = [
        row["identity"]
        for label in labels
        for row in coherent_rows(label, order=16, cutoff=64, tol=1e-8, draws=2, seed=seed)
        if not row["pass"]
    ]
    assert identity in failed, failed


def test_the_same_runs_pass_without_a_mutant(fresh_pairs):
    runs = {(labels, seed) for _, _, _, labels, _, seed in MUTANTS.values()}
    for labels, seed in sorted(runs):
        for label in labels:
            rows = coherent_rows(label, order=16, cutoff=64, tol=1e-8, draws=2, seed=seed)
            assert all(row["pass"] for row in rows), (label, seed)
