"""Unit tests for the authenticated broadcast primitive (signature tracker)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.authenticated import SignatureTracker
from repro.core.messages import RoundContent
from repro.crypto.signatures import (
    KeyStore,
    Signature,
    digest_cache_info,
    forge_attempt,
    message_digest,
    sign,
)


def make_tracker(n=5, threshold=3, seed=0, **kwargs):
    pki = KeyStore.generate(n, seed=seed)
    tracker = SignatureTracker(keystore=pki, threshold=threshold, content_factory=RoundContent, **kwargs)
    return pki, tracker


def test_threshold_must_be_positive():
    pki = KeyStore.generate(3)
    with pytest.raises(ValueError):
        SignatureTracker(keystore=pki, threshold=0, content_factory=RoundContent)


def test_add_valid_signature_counts():
    pki, tracker = make_tracker()
    sig = sign(pki.secret_key(1), RoundContent(1))
    assert tracker.add(1, sig)
    assert tracker.support(1) == 1
    assert not tracker.reached(1)


def test_duplicate_signer_not_counted_twice():
    pki, tracker = make_tracker()
    sig = sign(pki.secret_key(1), RoundContent(1))
    assert tracker.add(1, sig)
    assert not tracker.add(1, sig)
    assert tracker.support(1) == 1


def test_invalid_signature_rejected():
    pki, tracker = make_tracker()
    forged = forge_attempt(2, RoundContent(1))
    assert not tracker.add(1, forged)
    assert tracker.support(1) == 0


def test_signature_for_wrong_round_rejected():
    pki, tracker = make_tracker()
    sig = sign(pki.secret_key(1), RoundContent(2))
    assert not tracker.add(1, sig)  # claimed round 1, signed round 2
    assert tracker.support(1) == 0


def test_reached_at_threshold():
    pki, tracker = make_tracker(threshold=3)
    for signer in range(3):
        tracker.add(4, sign(pki.secret_key(signer), RoundContent(4)))
    assert tracker.reached(4)
    assert tracker.reached_rounds() == [4]


def test_add_own_signs_and_counts():
    pki, tracker = make_tracker(threshold=2)
    sig = tracker.add_own(3, pki.secret_key(0))
    assert sig.signer == 0
    assert tracker.support(3) == 1
    assert tracker.has_signer(3, 0)
    assert not tracker.has_signer(3, 1)


def test_add_many_counts_only_new_valid():
    pki, tracker = make_tracker(threshold=3)
    sigs = [sign(pki.secret_key(i), RoundContent(1)) for i in range(3)]
    bad = forge_attempt(4, RoundContent(1))
    assert tracker.add_many(1, sigs + [bad] + sigs) == 3
    assert tracker.reached(1)


def test_add_many_out_of_window_bundle_touches_no_signature():
    pki, tracker = make_tracker(threshold=3, max_round_lookahead=10)
    tracker.set_floor(5)
    # Never-digested contents: looking at either bundle would show as a digest miss.
    stale = [sign(pki.secret_key(i), RoundContent(4)) for i in range(3)]
    beyond = [sign(pki.secret_key(i), RoundContent(16)) for i in range(3)]
    verified = []
    pki.verify = pki.verify_digest = lambda *args, **kwargs: verified.append(args) or True
    before = digest_cache_info()
    assert tracker.add_many(4, stale) == 0
    assert tracker.add_many(16, beyond) == 0
    assert digest_cache_info() == before
    assert verified == []
    assert tracker.rounds_with_support() == []


def test_add_many_in_window_bundle_still_verifies_every_signature():
    pki, tracker = make_tracker(threshold=3)
    valid = [sign(pki.secret_key(i), RoundContent(1)) for i in range(2)]
    forged = forge_attempt(2, RoundContent(1), guess=7)
    wrong_round = sign(pki.secret_key(3), RoundContent(2))  # real key, other statement
    assert tracker.add_many(1, [forged, valid[0], wrong_round, valid[1]]) == 2
    assert [s.signer for s in tracker.signatures(1)] == [0, 1]
    assert not tracker.reached(1)
    assert tracker.support(2) == 0


def test_acceptance_proof_has_exactly_threshold_signatures():
    pki, tracker = make_tracker(threshold=3)
    for signer in range(5):
        tracker.add(1, sign(pki.secret_key(signer), RoundContent(1)))
    proof = tracker.acceptance_proof(1)
    assert len(proof) == 3
    assert all(pki.verify(s, RoundContent(1)) for s in proof)


def test_acceptance_proof_requires_threshold():
    pki, tracker = make_tracker(threshold=3)
    tracker.add(1, sign(pki.secret_key(0), RoundContent(1)))
    with pytest.raises(ValueError):
        tracker.acceptance_proof(1)


def test_signatures_sorted_by_signer():
    pki, tracker = make_tracker(threshold=2)
    tracker.add(1, sign(pki.secret_key(3), RoundContent(1)))
    tracker.add(1, sign(pki.secret_key(1), RoundContent(1)))
    assert [s.signer for s in tracker.signatures(1)] == [1, 3]


def test_floor_ignores_and_forgets_stale_rounds():
    pki, tracker = make_tracker(threshold=2)
    tracker.add(1, sign(pki.secret_key(0), RoundContent(1)))
    tracker.set_floor(2)
    assert tracker.support(1) == 0
    assert not tracker.add(1, sign(pki.secret_key(1), RoundContent(1)))
    assert tracker.rounds_with_support() == []


def test_floor_never_decreases():
    pki, tracker = make_tracker()
    tracker.set_floor(5)
    tracker.set_floor(2)
    assert not tracker.add(3, sign(pki.secret_key(0), RoundContent(3)))


def test_lookahead_cap_bounds_memory():
    pki, tracker = make_tracker(max_round_lookahead=10)
    assert not tracker.add(100, sign(pki.secret_key(0), RoundContent(100)))
    assert tracker.add(5, sign(pki.secret_key(0), RoundContent(5)))


def test_lookahead_none_disables_cap():
    pki, tracker = make_tracker(max_round_lookahead=None)
    assert tracker.add(10**6, sign(pki.secret_key(0), RoundContent(10**6)))


def test_reached_rounds_respects_minimum():
    pki, tracker = make_tracker(threshold=1)
    tracker.add(1, sign(pki.secret_key(0), RoundContent(1)))
    tracker.add(5, sign(pki.secret_key(0), RoundContent(5)))
    assert tracker.reached_rounds() == [1, 5]
    assert tracker.reached_rounds(minimum_round=2) == [5]


# -- the per-round digest memo: the statement is hashed once, every signature still checked --


def test_forged_signature_on_a_memoized_round_is_rejected():
    pki, tracker = make_tracker(threshold=2)
    assert tracker.add(1, sign(pki.secret_key(0), RoundContent(1)))  # round 1 is now memoized
    assert tracker._digests == {1: message_digest(RoundContent(1))}
    for guess in (0, 12345):
        forged = forge_attempt(2, RoundContent(1), guess=guess)
        assert forged.digest == tracker._digests[1]  # the right statement, a wrong tag
        assert not tracker.add(1, forged)
        assert tracker.add_many(1, [forged]) == 0
    assert tracker.support(1) == 1 and not tracker.has_signer(1, 2)


def test_valid_round_k_signature_offered_for_round_k_plus_1_is_rejected():
    pki, tracker = make_tracker(threshold=1)
    genuine = sign(pki.secret_key(0), RoundContent(3))
    assert tracker.add(3, genuine)
    assert tracker.add(4, sign(pki.secret_key(1), RoundContent(4)))  # both rounds memoized
    assert not tracker.add(4, genuine)
    assert tracker.add_many(4, [genuine]) == 0
    assert not tracker.has_signer(4, 0) and tracker.has_signer(3, 0)


def test_unknown_signer_is_rejected_on_a_memoized_round():
    pki, tracker = make_tracker(n=5, threshold=1)
    wider = KeyStore.generate(9, seed=0)  # the same secrets for pids 0..4, plus pids 5..8
    assert tracker.add(1, sign(pki.secret_key(0), RoundContent(1)))
    stranger = sign(wider.secret_key(8), RoundContent(1))
    assert wider.verify(stranger, RoundContent(1))
    own = sign(pki.secret_key(0), RoundContent(1))
    relabelled = Signature(signer=8, digest=own.digest, tag=own.tag)
    for signature in (stranger, relabelled):
        assert not tracker.add(1, signature)
        assert tracker.add_many(1, [signature]) == 0
    assert [s.signer for s in tracker.signatures(1)] == [0]


def test_set_floor_prunes_the_digest_memo():
    pki, tracker = make_tracker(threshold=1, max_round_lookahead=10)
    for round_ in range(1, 6):
        assert tracker.add(round_, sign(pki.secret_key(0), RoundContent(round_)))
    assert tracker._digests == {r: message_digest(RoundContent(r)) for r in range(1, 6)}
    tracker.set_floor(4)
    assert sorted(tracker._digests) == [4, 5]
    # Out-of-window rounds never enter it.
    assert not tracker.add(2, sign(pki.secret_key(1), RoundContent(2)))
    assert tracker.add_many(100, [sign(pki.secret_key(1), RoundContent(100))]) == 0
    assert sorted(tracker._digests) == [4, 5]


@given(
    signers=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=30),
    threshold=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60)
def test_property_acceptance_iff_enough_distinct_signers(signers, threshold):
    """Acceptance happens exactly when `threshold` distinct valid signers contributed,
    independent of arrival order and duplicates."""
    pki = KeyStore.generate(7, seed=1)
    tracker = SignatureTracker(keystore=pki, threshold=threshold, content_factory=RoundContent)
    for signer in signers:
        tracker.add(1, sign(pki.secret_key(signer), RoundContent(1)))
    assert tracker.reached(1) == (len(set(signers)) >= threshold)
    assert tracker.support(1) == len(set(signers))


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=20))
@settings(max_examples=60)
def test_property_forged_signatures_never_contribute(claimed_signers):
    pki = KeyStore.generate(7, seed=2)
    tracker = SignatureTracker(keystore=pki, threshold=1, content_factory=RoundContent)
    for claimed in claimed_signers:
        tracker.add(1, forge_attempt(claimed, RoundContent(1), guess=claimed))
    assert tracker.support(1) == 0
    assert not tracker.reached(1)
