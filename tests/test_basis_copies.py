"""Metamorphic tests: every exact certificate keeps its verdict on a copy
of a manifold written in another basis of the same lattice.

A signed permutation of the V basis and one of the Z basis (the
hyperoctahedral groups B_5 and B_3) map log Gamma = Z^5 (+) (1/2) Z^3 onto
itself and keep the metric, so the copy is isometric to the manifold
(Chen, Cheung & Yiu, HKUST-CS98-01, 1998, for the method).  The certificates
read the z functional k from the copy's `split`, which the map carries
along.  The float rows cannot run on a copy: the closed forms `frame` and
`drift` are hand-written for the printed basis, so `transform` drops them.
"""

from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from nilflow import criteria, lie_core, spectral
from nilflow.catalog import build_pair
from nilflow.lie_core import AlgebraData
from test_faults import (_adjugate_perturbed, _clear_seed_free_caches,
                         _first_pair_doubled, _pfaffian_04_sign_flipped,
                         _pfaffian_sign_flipped)

M, MP = build_pair()
Z_MAPS = list(product(permutations(range(3)), product((1, -1), repeat=3)))
# the suite's dual bound for gw; a small cih bound keeps the 96 tables cheap
DUAL_BOUND, CIH_BOUND, BUTLER_SAMPLES = 6, 2, 2000


def transform(data, p_v, s_v, p_z, s_z):
    """data written in the basis e'_p = s_v[p] e_(p_v[p]) of v and z'_r =
    s_z[r] z_(p_z[r]) of z: T'[p][q][r] = s_v[p] s_v[q] s_z[r]
    T[p_v[p]][p_v[q]][p_z[r]], with the split's blocks and its k moved to
    the new indices, and no closed-form frame or drift."""
    t = np.array(data.alg.structure)[np.ix_(p_v, p_v, p_z)] * (
        np.multiply.outer(s_v, s_v)[..., None] * np.asarray(s_z))
    new_v, new_z = np.argsort(p_v), np.argsort(p_z)
    x, y, k = data.split
    split = (tuple(new_v[list(x)].tolist()), tuple(new_v[list(y)].tolist()),
             int(new_z[k]))
    return replace(data, alg=AlgebraData(t.tolist()), split=split,
                   frame=None, drift=None)


def _verdicts(m, mp):
    """The exact verdicts of the pair (m, mp): gw, cih on each, HR on each,
    and the Butler fractions of mp and m."""
    rng = np.random.default_rng(1)
    return (spectral.gw_certificate((m, mp), DUAL_BOUND).passed,
            *(criteria.cih_certificate(d, CIH_BOUND, rng).passed
              for d in (m, mp)),
            *(criteria.check_hr_presentation(d).passed for d in (m, mp)),
            *(criteria.butler_nonintegrability_sample(d, BUTLER_SAMPLES,
                                                      rng)[1]
              for d in (mp, m)))


# gw and both cih pass, HR passes on M and fails on M', and every regular
# pair brackets to a nonzero commutator on M' and to 0 on M
PAIR_VERDICTS = (True, True, True, True, False, 1.0, 0.0)


def test_transform_of_the_identity_is_the_manifold():
    for data in (M, MP):
        copy = transform(data, range(5), (1,) * 5, range(3), (1,) * 3)
        assert copy.alg.structure == data.alg.structure
        assert copy.split == data.split
    assert _verdicts(M, MP) == PAIR_VERDICTS


@pytest.mark.parametrize("p_z", list(permutations(range(3))), ids=str)
def test_signed_z_copies_keep_every_exact_verdict(p_z):
    # the same Z map on both manifolds, so both read one k; 8 sign vectors
    # per permutation, 48 copies of the pair in all
    v_id = (range(5), (1,) * 5)
    for s_z in product((1, -1), repeat=3):
        pair = [transform(d, *v_id, p_z, s_z) for d in (M, MP)]
        assert _verdicts(*pair) == PAIR_VERDICTS, s_z


@pytest.mark.parametrize("seed", range(4))
def test_signed_v_copies_keep_every_exact_verdict(seed):
    # each manifold in its own seeded signed V basis, both in one shared
    # seeded signed Z basis
    rng = np.random.default_rng(seed)
    z_map = Z_MAPS[rng.integers(len(Z_MAPS))]
    pair = [transform(d, rng.permutation(5), rng.choice([-1, 1], 5), *z_map)
            for d in (M, MP)]
    assert _verdicts(*pair) == PAIR_VERDICTS


# one copy that moves k (Z_k becomes -z'_0) and signs and permutes V.  It
# keeps a Y last, so the Pf(0, 1, 2, 3) that `_pfaffian_sign_flipped` flips
# is the one of both X and two Y, up to sign the last entry of the kernel
# line.  With an X last it would be the Pfaffian of one X and three Y, each
# of whose terms is an X-Y entry times a Y-Y entry: the Y-Y entries are 0 on
# M and the X-Y entries on M', so the flip would change nothing
COPY = ((1, 2, 3, 0, 4), (1, 1, -1, 1, 1), (2, 0, 1), (-1, -1, 1))


def _gw_on_copy(m=M, mp=MP):
    return spectral.gw_certificate(
        (transform(m, *COPY), transform(mp, *COPY)), DUAL_BOUND).passed


def _cih_on_copy(data):
    return criteria.cih_certificate(transform(data, *COPY), CIH_BOUND,
                                    np.random.default_rng(0)).passed


def test_the_named_copy_moves_k_and_passes():
    assert transform(M, *COPY).split[2] == 0
    assert _gw_on_copy() and _cih_on_copy(M) and _cih_on_copy(MP)


def _doubled(data):
    return replace(data, alg=_first_pair_doubled(data.alg))


# each fault of test_faults that an exact certificate catches, as the
# certificates it must still fail on COPY: the data faults double one
# constant before the copy is made, the code faults patch the program
FAULTS = {
    "M_first_pair_doubled": (None, lambda: [
        _gw_on_copy(m=_doubled(M)), _cih_on_copy(_doubled(M))]),
    "Mprime_first_pair_doubled": (None, lambda: [
        _gw_on_copy(mp=_doubled(MP)), _cih_on_copy(_doubled(MP))]),
    "projector_adjugate_perturbed": (_adjugate_perturbed, lambda: [
        _cih_on_copy(M), _cih_on_copy(MP)]),
    "pfaffian_sign_flipped": (_pfaffian_sign_flipped, lambda: [
        _gw_on_copy()]),
    "pfaffian_04_sign_flipped": (_pfaffian_04_sign_flipped, lambda: [
        _gw_on_copy()]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_still_fails_its_certificates_on_the_copy(fault):
    patch, verdicts = FAULTS[fault]
    _clear_seed_free_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if patch is not None:
                patch(mp)
            assert not any(verdicts())
    finally:
        _clear_seed_free_caches()
