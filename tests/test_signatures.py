"""Unit tests for the simulated signature scheme and PKI."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import RoundContent, SignedRound
from repro.crypto.signatures import (
    KeyStore,
    Signature,
    forge_attempt,
    message_digest,
    sign,
)


@pytest.fixture
def pki() -> KeyStore:
    return KeyStore.generate(4, seed=42)


def test_sign_and_verify_roundtrip(pki):
    message = RoundContent(5)
    sig = sign(pki.secret_key(1), message)
    assert pki.verify(sig, message)
    assert pki.verify(sig, message, claimed_signer=1)


def test_verify_rejects_wrong_message(pki):
    sig = sign(pki.secret_key(1), RoundContent(5))
    assert not pki.verify(sig, RoundContent(6))


def test_verify_rejects_wrong_claimed_signer(pki):
    sig = sign(pki.secret_key(1), RoundContent(5))
    assert not pki.verify(sig, RoundContent(5), claimed_signer=2)


def test_verify_rejects_unknown_signer(pki):
    rogue = KeyStore.generate(10, seed=99)
    sig = sign(rogue.secret_key(7), RoundContent(5))
    assert not pki.verify(sig, RoundContent(5))


def test_forgery_without_key_fails(pki):
    forged = forge_attempt(claimed_signer=2, message=RoundContent(3), guess=12345)
    assert not pki.verify(forged, RoundContent(3))
    assert not pki.verify(forged, RoundContent(3), claimed_signer=2)


def test_signature_from_other_keystore_instance_with_same_seed_verifies():
    a = KeyStore.generate(3, seed=7)
    b = KeyStore.generate(3, seed=7)
    sig = sign(a.secret_key(0), RoundContent(1))
    assert b.verify(sig, RoundContent(1))


def test_different_seeds_produce_incompatible_keys():
    a = KeyStore.generate(3, seed=7)
    b = KeyStore.generate(3, seed=8)
    sig = sign(a.secret_key(0), RoundContent(1))
    assert not b.verify(sig, RoundContent(1))


def test_tampered_tag_rejected(pki):
    sig = sign(pki.secret_key(0), RoundContent(2))
    tampered = Signature(signer=sig.signer, digest=sig.digest, tag=sig.tag[::-1])
    assert not pki.verify(tampered, RoundContent(2))


def test_tampered_digest_rejected(pki):
    sig = sign(pki.secret_key(0), RoundContent(2))
    tampered = Signature(signer=sig.signer, digest="0" * 64, tag=sig.tag)
    assert not pki.verify(tampered, RoundContent(2))


# -- the expected-tag memo: verify hashes once per (signer, statement), checks every call --


@pytest.mark.parametrize("genuine_first", [False, True], ids=["memo-cold-on-bad", "memo-warm"])
def test_memo_never_turns_a_bad_signature_good(pki, genuine_first):
    message = RoundContent(3)
    genuine = sign(pki.secret_key(2), message)
    bad = [
        forge_attempt(claimed_signer=2, message=message, guess=12345),
        Signature(signer=1, digest=genuine.digest, tag=genuine.tag),  # replayed under another signer id
        sign(pki.secret_key(2), RoundContent(4)),  # genuine, on different content
    ]
    order = [genuine] + bad if genuine_first else bad + [genuine]
    for _ in range(3):  # first and repeated calls
        for signature in order:
            assert pki.verify(signature, message) is (signature is genuine)
    assert not pki.verify(genuine, message, claimed_signer=1)
    assert pki.verify(genuine, message, claimed_signer=2)


def test_memo_is_per_keystore():
    a, b = KeyStore.generate(3, seed=7), KeyStore.generate(3, seed=8)
    message = RoundContent(1)
    sig_a, sig_b = sign(a.secret_key(0), message), sign(b.secret_key(0), message)
    assert sig_a.tag != sig_b.tag
    for _ in range(2):  # warm both memos, then ask again
        assert a.verify(sig_a, message) and b.verify(sig_b, message)
        assert not a.verify(sig_b, message) and not b.verify(sig_a, message)


def test_verify_hashes_the_tag_once_per_signed_statement(pki, monkeypatch):
    from repro.crypto import signatures

    calls = []
    compute = signatures._compute_tag
    monkeypatch.setattr(signatures, "_compute_tag", lambda secret, digest: calls.append(digest) or compute(secret, digest))
    messages = [RoundContent(k) for k in range(3)]
    sigs = {(pid, k): sign(pki.secret_key(pid), messages[k]) for pid in range(4) for k in range(3)}
    del calls[:]
    for _ in range(5):
        assert all(pki.verify(sig, messages[k]) for (_, k), sig in sigs.items())
    assert len(calls) == len(sigs)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_verify_is_verify_digest_on_the_message_digest(seed):
    # Genuine, forged, relabelled, tampered, wrong-statement and unknown-signer
    # signatures against matching and non-matching messages, in a seeded order.
    rng = random.Random(seed)
    pki, rogue = KeyStore.generate(4, seed=seed), KeyStore.generate(6, seed=seed + 100)
    messages = [RoundContent(k) for k in range(4)] + [(1, "a"), ("b", 2.5)]
    signatures = []
    for message in messages:
        genuine = sign(pki.secret_key(rng.randrange(4)), message)
        signatures += [
            genuine,
            forge_attempt(rng.randrange(4), message, guess=rng.randrange(1000)),
            Signature(signer=(genuine.signer + 1) % 4, digest=genuine.digest, tag=genuine.tag),
            Signature(signer=genuine.signer, digest=genuine.digest, tag=genuine.tag[::-1]),
            sign(rogue.secret_key(5), message),
        ]
    pairs = [(signature, message) for signature in signatures for message in messages]
    rng.shuffle(pairs)
    verdicts = [pki.verify(signature, message) for signature, message in pairs]
    assert verdicts == [pki.verify_digest(signature, message_digest(message)) for signature, message in pairs]
    assert sum(verdicts) == len(messages)  # exactly the genuine signature on its own message
    for signature, message in pairs[:40]:
        for claimed in range(4):
            assert pki.verify(signature, message, claimed_signer=claimed) == (
                signature.signer == claimed and pki.verify_digest(signature, message_digest(message))
            )


def test_participants_and_membership(pki):
    assert pki.participants() == [0, 1, 2, 3]
    assert pki.has_participant(2)
    assert not pki.has_participant(9)
    assert pki.public_key(3).owner == 3
    assert pki.secret_key(3).owner == 3


def test_secret_key_repr_hides_secret(pki):
    assert "hidden" in repr(pki.secret_key(0))
    assert str(pki.secret_key(0).secret) not in repr(pki.secret_key(0))


# -- message digests -----------------------------------------------------------------


def test_digest_is_deterministic():
    assert message_digest(RoundContent(7)) == message_digest(RoundContent(7))


def test_digest_distinguishes_rounds():
    assert message_digest(RoundContent(7)) != message_digest(RoundContent(8))


def test_digest_distinguishes_types_with_same_fields():
    sig = sign(KeyStore.generate(1).secret_key(0), RoundContent(1))
    assert message_digest(RoundContent(1)) != message_digest(SignedRound(round=1, signature=sig))


def test_digest_supports_tuples_and_primitives():
    assert message_digest((1, "a", 2.5, None, True)) == message_digest((1, "a", 2.5, None, True))
    assert message_digest((1, 2)) != message_digest((2, 1))


def test_digest_rejects_unsupported_types():
    with pytest.raises(TypeError):
        message_digest(object())


def test_digest_distinguishes_int_and_str():
    assert message_digest((1,)) != message_digest(("1",))


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_property_digest_injective_on_rounds(a, b):
    if a != b:
        assert message_digest(RoundContent(a)) != message_digest(RoundContent(b))
    else:
        assert message_digest(RoundContent(a)) == message_digest(RoundContent(b))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=100))
def test_property_only_owner_key_verifies(signer, claimed, round_):
    pki = KeyStore.generate(4, seed=0)
    sig = sign(pki.secret_key(signer), RoundContent(round_))
    assert pki.verify(sig, RoundContent(round_), claimed_signer=claimed) == (signer == claimed)
